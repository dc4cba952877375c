// Effective Resistance spectral sparsifier (paper section 2.3.9, Spielman &
// Srivastava 2011).
//
// The effective resistance R_e of edge e = (u, v) is (e_u - e_v)^T L^+
// (e_u - e_v). Edges are sampled with probability proportional to w_e R_e;
// the weighted variant reassigns kept edge weights so that the sparsified
// Laplacian estimates the original, which is what makes ER-weighted the
// only sparsifier that preserves the Laplacian quadratic form (paper
// Fig. 3).
//
// Resistances are approximated with the Johnson-Lindenstrauss projection of
// Spielman & Srivastava: R_e ~ ||Z (e_u - e_v)||^2 with Z = Q W^{1/2} B L^+
// and Q a (k x m) random +-1/sqrt(k) matrix; each of the k rows costs one
// Laplacian solve, done here with Jacobi-preconditioned CG (the paper uses
// Laplacians.jl's approxchol solver; bench_ablation_er measures this
// solver's JL dimension / CG tolerance trade-off).
//
// Sampling: edges are drawn with replacement, p_e ~ w_e R_e, and the
// first T distinct edges hit are kept. Each draw inverts the CDF through
// an index ("guide") table over it (Chen & Asau 1974; Devroye,
// Non-Uniform Random Variate Generation, section III.2.4) with an exact
// fix-up, so it returns the same edge as a binary search over the CDF in
// O(1) expected time.
//
// Two-phase split: PrepareScores pays for the k Laplacian solves (one
// blocked CG, SolveLaplacianBlock) and builds p, the CDF and the guide
// table; the caller's Rng advances only through the JL sign draws. The
// race itself runs lazily: the state keeps its own copy of the Rng, and
// MaskForRate(rho) extends the race under the state's lock until
// TargetKeepCount distinct edges are hit, recording the first-hit order
// and the draw count at every prefix length. The draw stream does not
// depend on any prune rate, so the first T entries of the order are the
// set a race stopped at target T keeps, whichever rate asked first. The
// lazy race saves work only when the smallest rate asked for is well
// above 0: a rate near 0 extends it almost to exhaustion, and it does so
// under the lock, while the group's other cells wait for the prefix. The
// race stops at 400 |E| + 10^6 draws; edges never hit by then are
// appended by descending p. The weighted variant assigns Horvitz-Thompson
// weights w_e / pi_e with pi_e = 1 - (1 - p_e)^s, the probability of edge
// e being hit within the s draws the prefix took (an unbiased Laplacian
// estimator over the sampling marginal).
#ifndef SPARSIFY_SPARSIFIERS_EFFECTIVE_RESISTANCE_H_
#define SPARSIFY_SPARSIFIERS_EFFECTIVE_RESISTANCE_H_

#include <mutex>

#include "src/sparsifiers/sparsifier.h"

namespace sparsify {

/// Approximate effective resistance of every canonical edge.
/// `jl_dimension` = number of random projections (0 picks ~8 ln n);
/// `tol` = CG relative tolerance.
std::vector<double> ApproxEffectiveResistances(const Graph& g, Rng& rng,
                                               int jl_dimension = 0,
                                               double tol = 1e-6);

/// ScoreState of the ER family: the sampling distribution and the race
/// prefix drawn so far. The race extends on demand and only under the
/// state's lock, so concurrent MaskForRate calls on one state are safe and
/// see the same prefix whatever their order.
class ErSampleState : public ScoreState {
 public:
  /// `race_rng` is the stream the race draws from, positioned after the
  /// JL draws; `p` holds positive entries summing to ~1 (empty for an
  /// edgeless graph).
  ErSampleState(const Graph* g, std::vector<double> p, Rng race_rng);

  const Graph& graph() const { return *graph_; }
  /// Normalized sampling probabilities p_e ~ w_e R_e.
  const std::vector<double>& p() const { return p_; }

  /// Extends the race until at least `target` distinct edges are hit (or
  /// every edge, past the draw cap), then calls
  /// fn(hit_order, draws_at) under the state's lock. hit_order lists the
  /// edge ids hit so far in first-hit order; draws_at[t] is the total
  /// number of draws made when the (t+1)-th distinct edge was hit. A
  /// cancellation thrown mid-extension leaves every committed draw in
  /// place, so a later call resumes the same stream.
  template <typename Fn>
  void WithPrefix(EdgeId target, Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    ExtendRace(target);
    fn(hit_order_, draws_at_);
  }

 private:
  void ExtendRace(EdgeId target) const;  // requires mu_

  const Graph* graph_;
  std::vector<double> p_;
  std::vector<double> cum_;    // running sums of p_ (unnormalized CDF)
  std::vector<EdgeId> guide_;  // guide_[j]: first e with cum_[e] >= j/G
  double step_ = 0.0;          // |guide_| / cum_.back()

  mutable std::mutex mu_;
  mutable Rng rng_;
  mutable std::vector<uint8_t> hit_;
  mutable std::vector<EdgeId> hit_order_;
  mutable std::vector<uint64_t> draws_at_;
  mutable uint64_t draws_ = 0;
};

class EffectiveResistanceSparsifier : public Sparsifier {
 public:
  /// `reweight` selects the ER-weighted variant (Table 2's only
  /// weight-changing sparsifier); false gives ER-unweighted, which keeps
  /// original weights.
  explicit EffectiveResistanceSparsifier(bool reweight);

  const SparsifierInfo& Info() const override;
  /// Throws std::invalid_argument for directed graphs (symmetrize first,
  /// as the paper does in section 4.5).
  std::unique_ptr<ScoreState> PrepareScores(const Graph& g,
                                            Rng& rng) const override;
  /// Extends the state's race as far as this rate needs (see
  /// ErSampleState::WithPrefix); safe to call concurrently on one state.
  RateMask MaskForRate(const ScoreState& state,
                       double prune_rate) const override;
  /// Keeps the legacy keep-everything fast path: when the target keeps
  /// every edge, returns `g` without paying for the Laplacian solves.
  Graph Sparsify(const Graph& g, double prune_rate, Rng& rng) const override;

 private:
  bool reweight_;
  SparsifierInfo info_;
};

}  // namespace sparsify

#endif  // SPARSIFY_SPARSIFIERS_EFFECTIVE_RESISTANCE_H_
