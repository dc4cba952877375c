// Differential oracles for Effective Resistance scoring.
//
// The sparsifier draws its sampling race through a guide table over the
// CDF, extends the race lazily from MaskForRate, and solves the JL
// projections with one blocked multi-right-hand-side CG. None of that may
// change a single bit of output. This file keeps the straightforward
// versions as references:
//   - ReferenceResistances: one SolveLaplacian per JL dimension;
//   - ReferenceRace: the with-replacement race run eagerly to exhaustion,
//     one std::lower_bound per draw, then the descending-p top-up;
//   - ReferenceMask: the first-T prefix plus Horvitz-Thompson weights.
// and compares keep-masks, weights and resistances byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/linalg/cg.h"
#include "src/sparsifiers/effective_resistance.h"
#include "src/util/cancel.h"
#include "src/util/errors.h"
#include "src/util/rng.h"

namespace sparsify {
namespace {

std::vector<double> ReferenceResistances(const Graph& g, Rng& rng, int k,
                                         double tol) {
  const size_t n = g.NumVertices();
  const EdgeId m = g.NumEdges();
  std::vector<double> resistance(m, 0.0);
  Vec b(n), z(n);
  for (int i = 0; i < k; ++i) {
    std::fill(b.begin(), b.end(), 0.0);
    std::vector<double> q(m);
    double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k));
    for (EdgeId e = 0; e < m; ++e) {
      q[e] = rng.NextBernoulli(0.5) ? inv_sqrt_k : -inv_sqrt_k;
      const Edge& ed = g.CanonicalEdge(e);
      double c = q[e] * std::sqrt(ed.w);
      b[ed.u] += c;
      b[ed.v] -= c;
    }
    z.assign(n, 0.0);
    SolveLaplacian(g, b, &z, tol);
    for (EdgeId e = 0; e < m; ++e) {
      const Edge& ed = g.CanonicalEdge(e);
      double diff = z[ed.u] - z[ed.v];
      resistance[e] += diff * diff;
    }
  }
  return resistance;
}

int DefaultJlDimension(const Graph& g) {
  return std::max(8, static_cast<int>(std::ceil(
                         8.0 * std::log(std::max<size_t>(
                                   2, g.NumVertices())))));
}

struct RaceResult {
  std::vector<double> p;
  std::vector<EdgeId> hit_order;
  std::vector<uint64_t> draws_at;
  size_t topped_up = 0;
};

RaceResult ReferenceRace(const Graph& g, Rng& rng) {
  const EdgeId m = g.NumEdges();
  RaceResult out;
  std::vector<double> resistance =
      ReferenceResistances(g, rng, DefaultJlDimension(g), 1e-6);
  std::vector<double>& p = out.p;
  p.resize(m);
  double total = 0.0;
  for (EdgeId e = 0; e < m; ++e) {
    p[e] = std::max(1e-300, g.EdgeWeight(e) * resistance[e]);
    total += p[e];
  }
  for (double& pe : p) pe /= total;
  std::vector<double> cum(m);
  double acc = 0.0;
  for (EdgeId e = 0; e < m; ++e) {
    acc += p[e];
    cum[e] = acc;
  }
  std::vector<uint8_t> hit(m, 0);
  EdgeId distinct = 0;
  uint64_t draws = 0;
  const uint64_t max_draws = 400ULL * m + 1000000ULL;
  while (distinct < m && draws < max_draws) {
    double r = rng.NextDouble() * acc;
    auto it = std::lower_bound(cum.begin(), cum.end(), r);
    EdgeId e = static_cast<EdgeId>(it - cum.begin());
    if (e >= m) e = m - 1;
    ++draws;
    if (!hit[e]) {
      hit[e] = 1;
      out.hit_order.push_back(e);
      out.draws_at.push_back(draws);
      ++distinct;
    }
  }
  if (distinct < m) {
    std::vector<EdgeId> rest;
    for (EdgeId e = 0; e < m; ++e) {
      if (!hit[e]) rest.push_back(e);
    }
    std::sort(rest.begin(), rest.end(), [&](EdgeId a, EdgeId b) {
      return p[a] != p[b] ? p[a] > p[b] : a < b;
    });
    for (EdgeId e : rest) {
      ++draws;
      out.hit_order.push_back(e);
      out.draws_at.push_back(draws);
    }
    out.topped_up = rest.size();
  }
  return out;
}

RateMask ReferenceMask(const Graph& g, const RaceResult& race, bool reweight,
                       double prune_rate) {
  const EdgeId m = static_cast<EdgeId>(race.hit_order.size());
  EdgeId target = TargetKeepCount(m, prune_rate);
  RateMask mask;
  mask.keep.assign(m, 0);
  if (m == 0 || target == 0) return mask;
  if (target >= m) {
    std::fill(mask.keep.begin(), mask.keep.end(), 1);
    return mask;
  }
  for (EdgeId i = 0; i < target; ++i) mask.keep[race.hit_order[i]] = 1;
  if (!reweight) return mask;
  const uint64_t s = race.draws_at[target - 1];
  mask.new_weights.assign(m, 0.0);
  for (EdgeId i = 0; i < target; ++i) {
    EdgeId e = race.hit_order[i];
    double pi = -std::expm1(static_cast<double>(s) *
                            std::log1p(-std::min(race.p[e], 1.0 - 1e-16)));
    pi = std::clamp(pi, 1e-12, 1.0);
    mask.new_weights[e] = g.EdgeWeight(e) / pi;
  }
  return mask;
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(T)) == 0);
}

void ExpectSameMask(const RateMask& got, const RateMask& want,
                    const std::string& where) {
  EXPECT_TRUE(SameBytes(got.keep, want.keep)) << where << ": keep differs";
  EXPECT_TRUE(SameBytes(got.new_weights, want.new_weights))
      << where << ": new_weights differ";
}

const std::vector<double> kOracleRates = {0.001, 0.05, 0.1, 0.5, 0.9, 0.99};
constexpr uint64_t kSeed = 42;

struct DatasetCase {
  const char* name;
  double scale;
};

class ErRaceOracleTest : public ::testing::TestWithParam<DatasetCase> {
 protected:
  void SetUp() override {
    graph_ = LoadDatasetScaled(GetParam().name, GetParam().scale).graph;
    Rng rng(kSeed);
    race_ = ReferenceRace(graph_, rng);
  }

  Graph graph_;
  RaceResult race_;
};

TEST_P(ErRaceOracleTest, MasksMatchTheEagerLowerBoundRace) {
  for (bool reweight : {false, true}) {
    EffectiveResistanceSparsifier er(reweight);
    Rng rng(kSeed);
    std::unique_ptr<ScoreState> state = er.PrepareScores(graph_, rng);
    for (double rate : kOracleRates) {
      ExpectSameMask(er.MaskForRate(*state, rate),
                     ReferenceMask(graph_, race_, reweight, rate),
                     std::string(er.Info().short_name) + " rate " +
                         std::to_string(rate));
    }
  }
}

// Four threads share one state and ask for the rates in different
// shuffled orders: the prefix each sees must not depend on who extended
// the race first.
TEST_P(ErRaceOracleTest, SharedStateAnswersShuffledRatesFromFourThreads) {
  for (bool reweight : {false, true}) {
    EffectiveResistanceSparsifier er(reweight);
    Rng rng(kSeed);
    std::unique_ptr<ScoreState> state = er.PrepareScores(graph_, rng);
    std::vector<std::vector<RateMask>> got(4);
    std::vector<std::vector<double>> order(4, kOracleRates);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      Rng shuffle(100 + t);
      shuffle.Shuffle(&order[t]);
      threads.emplace_back([&, t] {
        for (double rate : order[t]) {
          got[t].push_back(er.MaskForRate(*state, rate));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < 4; ++t) {
      for (size_t i = 0; i < order[t].size(); ++i) {
        ExpectSameMask(got[t][i],
                       ReferenceMask(graph_, race_, reweight, order[t][i]),
                       "thread " + std::to_string(t) + " rate " +
                           std::to_string(order[t][i]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, ErRaceOracleTest,
    ::testing::Values(DatasetCase{"ego-Facebook", 1.0},
                      DatasetCase{"ca-AstroPh", 0.5},
                      DatasetCase{"human_gene2", 1.0}),
    [](const ::testing::TestParamInfo<DatasetCase>& info) {
      std::string name = info.param.name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// human_gene2@1 is the case whose race stops at the draw cap, so rate
// 0.001 above reads the descending-p top-up. Guard that it still does.
TEST(ErRaceOracleCapTest, HumanGene2HitsTheDrawCap) {
  Graph g = LoadDatasetScaled("human_gene2", 1.0).graph;
  Rng rng(kSeed);
  RaceResult race = ReferenceRace(g, rng);
  ASSERT_GT(race.topped_up, 0u);
  EXPECT_GT(TargetKeepCount(g.NumEdges(), 0.001),
            g.NumEdges() - race.topped_up);
}

// A cancellation that lands mid-extension leaves a consistent prefix: the
// next call resumes the same stream and still matches the oracle.
TEST(ErRaceOracleCancelTest, CancelledExtensionResumesTheSameStream) {
  Graph g = LoadDatasetScaled("ego-Facebook", 1.0).graph;
  Rng ref_rng(kSeed);
  RaceResult race = ReferenceRace(g, ref_rng);
  EffectiveResistanceSparsifier er(/*reweight=*/true);
  Rng rng(kSeed);
  std::unique_ptr<ScoreState> state = er.PrepareScores(g, rng);
  // A short prefix first, so the race stops off a polling boundary.
  ExpectSameMask(er.MaskForRate(*state, 0.99),
                 ReferenceMask(g, race, true, 0.99), "rate 0.99");
  {
    CancelToken token;
    token.Cancel();
    CancelScope scope(&token);
    EXPECT_THROW(er.MaskForRate(*state, 0.001), CancelledError);
  }
  for (double rate : {0.001, 0.5, 0.1}) {
    ExpectSameMask(er.MaskForRate(*state, rate),
                   ReferenceMask(g, race, true, rate),
                   "after cancel, rate " + std::to_string(rate));
  }
}

// The caller's stream advances through the JL sign draws only; the race
// draws from the state's own copy.
TEST(ErRaceOracleRngTest, CallerStreamStopsAfterTheJlDraws) {
  Graph g = LoadDatasetScaled("ca-AstroPh", 0.25).graph;
  Rng scored(kSeed);
  EffectiveResistanceSparsifier er(false);
  std::unique_ptr<ScoreState> state = er.PrepareScores(g, scored);
  (void)er.MaskForRate(*state, 0.5);
  Rng jl_only(kSeed);
  (void)ApproxEffectiveResistances(g, jl_only);
  EXPECT_EQ(scored.engine()(), jl_only.engine()());
}

// --------------------------------------------------------------------------
// Blocked multi-RHS CG.

TEST(ErCgOracleTest, ResistancesMatchThePerColumnSolveLoop) {
  Graph g = LoadDatasetScaled("ego-Facebook", 1.0).graph;
  for (int k : {8, 61, 128}) {
    Rng ref_rng(kSeed + k);
    Rng rng(kSeed + k);
    std::vector<double> want = ReferenceResistances(g, ref_rng, k, 1e-6);
    std::vector<double> got = ApproxEffectiveResistances(g, rng, k, 1e-6);
    EXPECT_TRUE(SameBytes(got, want)) << "k = " << k;
    EXPECT_EQ(rng.engine()(), ref_rng.engine()()) << "k = " << k;
  }
}

TEST(ErCgOracleTest, WeightedResistancesMatchThePerColumnSolveLoop) {
  Graph g = LoadDatasetScaled("human_gene2", 0.5).graph;
  ASSERT_TRUE(g.IsWeighted());
  Rng ref_rng(7);
  Rng rng(7);
  std::vector<double> want = ReferenceResistances(g, ref_rng, 61, 1e-6);
  std::vector<double> got = ApproxEffectiveResistances(g, rng, 61, 1e-6);
  EXPECT_TRUE(SameBytes(got, want));
}

// Every column of a blocked solve equals SolveLaplacian on that column
// alone: solution bits and the reported iteration count, residual and
// convergence. The block mixes a zero right-hand side, a nonzero initial
// guess, an isolated vertex, two components and a column that runs past
// the every-64-iterations deflation under a tight tolerance.
TEST(ErCgOracleTest, BlockColumnsMatchSingleSolves) {
  Rng gen(5);
  Graph a = ErdosRenyi(120, 400, /*directed=*/false, gen);
  std::vector<Edge> edges;
  for (EdgeId e = 0; e < a.NumEdges(); ++e) edges.push_back(a.CanonicalEdge(e));
  for (NodeId v = 0; v + 1 < 150; ++v) {  // a path: slow to converge
    edges.push_back({static_cast<NodeId>(120 + v),
                     static_cast<NodeId>(121 + v), 1.0 + 0.01 * v});
  }
  Graph g = Graph::FromEdges(271, edges, /*directed=*/false,
                             /*weighted=*/true);  // vertex 270 isolated
  const size_t n = g.NumVertices();
  for (size_t width : {1u, 3u, 8u}) {
    Vec b(n * width, 0.0), x0(n * width, 0.0);
    Rng rng(width);
    for (size_t c = 1; c < width; ++c) {  // column 0 stays all-zero
      for (EdgeId e = 0; e < g.NumEdges(); ++e) {
        const Edge& ed = g.CanonicalEdge(e);
        double q = rng.NextGaussian();
        b[ed.u * width + c] += q;
        b[ed.v * width + c] -= q;
      }
      if (c == 2) {
        for (size_t v = 0; v < n; ++v) x0[v * width + c] = rng.NextDouble();
      }
    }
    Vec x = x0;
    std::vector<CgResult> got =
        SolveLaplacianBlock(g, b, &x, width, 1e-12, 300);
    ASSERT_EQ(got.size(), width);
    for (size_t c = 0; c < width; ++c) {
      Vec bc(n), xc(n);
      for (size_t v = 0; v < n; ++v) {
        bc[v] = b[v * width + c];
        xc[v] = x0[v * width + c];
      }
      CgResult want = SolveLaplacian(g, bc, &xc, 1e-12, 300);
      Vec got_col(n);
      for (size_t v = 0; v < n; ++v) got_col[v] = x[v * width + c];
      std::string where =
          "width " + std::to_string(width) + " column " + std::to_string(c);
      EXPECT_TRUE(SameBytes(got_col, xc)) << where;
      EXPECT_EQ(got[c].iterations, want.iterations) << where;
      EXPECT_EQ(got[c].converged, want.converged) << where;
      EXPECT_EQ(std::memcmp(&got[c].residual_norm, &want.residual_norm,
                            sizeof(double)),
                0)
          << where;
      if (c > 0) EXPECT_GT(want.iterations, 64) << where;
    }
  }
}

}  // namespace
}  // namespace sparsify
