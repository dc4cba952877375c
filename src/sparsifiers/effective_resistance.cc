#include "src/sparsifiers/effective_resistance.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "src/linalg/cg.h"
#include "src/util/cancel.h"

namespace sparsify {

namespace {

// Right-hand sides solved per blocked CG call. Eight doubles fill one
// cache line per vertex row, and the n x 8 blocks stay small next to the
// graph, so ER's scoring memory does not grow with the JL dimension.
constexpr int kJlBlockWidth = 8;

}  // namespace

std::vector<double> ApproxEffectiveResistances(const Graph& g, Rng& rng,
                                               int jl_dimension, double tol) {
  const size_t n = g.NumVertices();
  const EdgeId m = g.NumEdges();
  int k = jl_dimension > 0
              ? jl_dimension
              : std::max(8, static_cast<int>(std::ceil(
                                8.0 * std::log(std::max<size_t>(2, n)))));
  std::vector<double> resistance(m, 0.0);
  std::vector<double> sqrt_w(m);
  for (EdgeId e = 0; e < m; ++e) sqrt_w[e] = std::sqrt(g.CanonicalEdge(e).w);
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k));
  Vec b, z;
  // Blocks of JL dimensions in order; within a block, the sign vectors are
  // drawn dimension by dimension as one solve at a time would draw them,
  // so the stream and every resistance sum keep their order.
  for (int first = 0; first < k; first += kJlBlockWidth) {
    const size_t width = static_cast<size_t>(std::min(kJlBlockWidth,
                                                      k - first));
    // Column c of b = B^T W^{1/2} q_c where q_c has +-1/sqrt(k) entries:
    // each edge e contributes q_c[e] * sqrt(w_e) * (e_u - e_v).
    b.assign(n * width, 0.0);
    for (size_t c = 0; c < width; ++c) {
      SPARSIFY_CHECK_CANCELLED();  // once per JL dimension
      for (EdgeId e = 0; e < m; ++e) {
        const double q = rng.NextBernoulli(0.5) ? inv_sqrt_k : -inv_sqrt_k;
        const Edge& ed = g.CanonicalEdge(e);
        const double contrib = q * sqrt_w[e];
        b[ed.u * width + c] += contrib;
        b[ed.v * width + c] -= contrib;
      }
    }
    z.assign(n * width, 0.0);
    SolveLaplacianBlock(g, b, &z, width, tol);
    // Rows of Z evaluated at the edge endpoints.
    for (EdgeId e = 0; e < m; ++e) {
      const Edge& ed = g.CanonicalEdge(e);
      const double* zu = &z[ed.u * width];
      const double* zv = &z[ed.v * width];
      for (size_t c = 0; c < width; ++c) {
        double diff = zu[c] - zv[c];
        resistance[e] += diff * diff;
      }
    }
  }
  return resistance;
}

ErSampleState::ErSampleState(const Graph* g, std::vector<double> p,
                             Rng race_rng)
    : graph_(g), p_(std::move(p)), rng_(std::move(race_rng)) {
  const size_t m = p_.size();
  hit_.assign(m, 0);
  hit_order_.reserve(m);  // no reallocation, so no throw, mid-draw
  draws_at_.reserve(m);
  if (m == 0) return;
  cum_.resize(m);
  double acc = 0.0;
  for (size_t e = 0; e < m; ++e) {
    acc += p_[e];
    cum_[e] = acc;
  }
  // One guide entry per edge: the expected fix-up walk is O(1).
  guide_.resize(m);
  step_ = static_cast<double>(m) / acc;
  EdgeId e = 0;
  for (size_t j = 0; j < m; ++j) {
    const double threshold = static_cast<double>(j) / step_;
    while (e + 1 < m && cum_[e] < threshold) ++e;
    guide_[j] = e;
  }
}

void ErSampleState::ExtendRace(EdgeId target) const {
  const EdgeId m = static_cast<EdgeId>(p_.size());
  const uint64_t max_draws = 400ULL * m + 1000000ULL;
  const double acc = m > 0 ? cum_.back() : 0.0;
  while (hit_order_.size() < target && draws_ < max_draws) {
    // Poll rarely: the check must not perturb the RNG stream, and the
    // draw loop is hot. Polling sits before a draw, and a draw is
    // committed whole below, so a throw leaves a consistent prefix.
    if ((draws_ & 0xFFFFu) == 0) SPARSIFY_CHECK_CANCELLED();
    const double r = rng_.NextDouble() * acc;
    // The guide entry is a starting guess; the walks make the result the
    // first e with cum_[e] >= r (std::lower_bound's answer, clamped to the
    // last edge) whatever the guess.
    size_t slot = static_cast<size_t>(r * step_);
    EdgeId e = guide_[std::min<size_t>(slot, m - 1)];
    while (e > 0 && cum_[e - 1] >= r) --e;
    while (e + 1 < m && cum_[e] < r) ++e;
    ++draws_;
    if (!hit_[e]) {
      hit_[e] = 1;
      hit_order_.push_back(e);
      draws_at_.push_back(draws_);
    }
  }
  // Extremely skewed p can stall the race before every edge is hit; at the
  // cap, top up with the remaining edges by descending probability (ties
  // by id).
  if (hit_order_.size() < target) {
    std::vector<EdgeId> rest;
    for (EdgeId e = 0; e < m; ++e) {
      if (!hit_[e]) rest.push_back(e);
    }
    std::sort(rest.begin(), rest.end(), [&](EdgeId a, EdgeId b) {
      return p_[a] != p_[b] ? p_[a] > p_[b] : a < b;
    });
    for (EdgeId e : rest) {
      hit_[e] = 1;
      hit_order_.push_back(e);
      draws_at_.push_back(++draws_);
    }
  }
}

EffectiveResistanceSparsifier::EffectiveResistanceSparsifier(bool reweight)
    : reweight_(reweight) {
  info_ = SparsifierInfo{
      .name = reweight ? "Effective Resistance (weighted)"
                       : "Effective Resistance (unweighted)",
      .short_name = reweight ? "ER-w" : "ER-uw",
      .supports_directed = false,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kFine,
      .changes_weights = reweight,
      .deterministic = false,
      .complexity = "O(|E| log(|V|)^3)",
  };
}

const SparsifierInfo& EffectiveResistanceSparsifier::Info() const {
  return info_;
}

Graph EffectiveResistanceSparsifier::Sparsify(const Graph& g,
                                              double prune_rate,
                                              Rng& rng) const {
  if (g.IsDirected()) {
    throw std::invalid_argument(
        "Effective Resistance requires an undirected graph; symmetrize "
        "first");
  }
  // TargetKeepCount first: an out-of-range rate must throw even when the
  // keep-everything fast path (which also covers m == 0) would apply.
  const EdgeId m = g.NumEdges();
  if (TargetKeepCount(m, prune_rate) >= m) return g;
  return Sparsifier::Sparsify(g, prune_rate, rng);
}

std::unique_ptr<ScoreState> EffectiveResistanceSparsifier::PrepareScores(
    const Graph& g, Rng& rng) const {
  if (g.IsDirected()) {
    throw std::invalid_argument(
        "Effective Resistance requires an undirected graph; symmetrize "
        "first");
  }
  const EdgeId m = g.NumEdges();
  if (m == 0) {
    return std::make_unique<ErSampleState>(&g, std::vector<double>{}, rng);
  }

  std::vector<double> resistance = ApproxEffectiveResistances(g, rng);
  // Sampling probabilities p_e proportional to w_e * R_e (Spielman &
  // Srivastava). For a connected graph sum_e w_e R_e = n - 1.
  std::vector<double> p(m);
  double total = 0.0;
  for (EdgeId e = 0; e < m; ++e) {
    p[e] = std::max(1e-300, g.EdgeWeight(e) * resistance[e]);
    total += p[e];
  }
  for (double& pe : p) pe /= total;
  // The race draws from a copy: the caller's stream stops after the JL
  // draws.
  return std::make_unique<ErSampleState>(&g, std::move(p), rng);
}

RateMask EffectiveResistanceSparsifier::MaskForRate(const ScoreState& state,
                                                    double prune_rate) const {
  const auto& er = StateAs<ErSampleState>(state, "Effective Resistance");
  const EdgeId m = static_cast<EdgeId>(er.p().size());
  EdgeId target = TargetKeepCount(m, prune_rate);
  RateMask mask;
  mask.keep.assign(m, 0);
  if (m == 0 || target == 0) return mask;
  if (target >= m) {
    // Keeping everything is the identity: original weights survive even in
    // the reweighted variant (matching the legacy fast path).
    std::fill(mask.keep.begin(), mask.keep.end(), 1);
    return mask;
  }
  er.WithPrefix(target, [&](const std::vector<EdgeId>& hit_order,
                            const std::vector<uint64_t>& draws_at) {
    for (EdgeId i = 0; i < target; ++i) mask.keep[hit_order[i]] = 1;
    if (!reweight_) return;

    // Horvitz-Thompson weights over the with-replacement race: the prefix
    // of `target` distinct edges took s draws, and edge e's chance of
    // being hit within s draws is pi_e = 1 - (1 - p_e)^s; w'_e = w_e /
    // pi_e makes the sparsified Laplacian estimate the original without
    // bias over the sampling marginal.
    const Graph& g = er.graph();
    const uint64_t s = draws_at[target - 1];
    mask.new_weights.assign(m, 0.0);
    for (EdgeId i = 0; i < target; ++i) {
      EdgeId e = hit_order[i];
      double pi = -std::expm1(static_cast<double>(s) *
                              std::log1p(-std::min(er.p()[e], 1.0 - 1e-16)));
      pi = std::clamp(pi, 1e-12, 1.0);
      mask.new_weights[e] = g.EdgeWeight(e) / pi;
    }
  });
  return mask;
}

}  // namespace sparsify
