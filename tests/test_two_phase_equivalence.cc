// Equivalence matrix for the two-phase Sparsifier interface: for every
// registered sparsifier x a structurally diverse graph suite x all 9 sweep
// prune rates, the two-phase path (PrepareScores once, MaskForRate per
// rate) must produce the identical keep-set to the legacy single-call
// `Sparsify` entry point — exactly for deterministic algorithms, and for
// randomized ones identically under the shared per-(sparsifier, run) seed
// stream. Also covers the grouped scheduler's thread-count determinism and
// the score-sharing vs per-cell scheduling counters.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/batch_runner.h"
#include "src/graph/generators.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

using testing_util::RunOneMetric;

const std::vector<double>& SweepRates() {
  static const std::vector<double> rates = {0.1, 0.2, 0.3, 0.4, 0.5,
                                            0.6, 0.7, 0.8, 0.9};
  return rates;
}

struct GraphCase {
  std::string name;
  Graph (*make)();
};

Graph MakePath() {
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < 9; ++i) edges.push_back({i, i + 1});
  return Graph::FromEdges(9, edges, false, false);
}

Graph MakeStar() {
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf <= 10; ++leaf) edges.push_back({0, leaf});
  return Graph::FromEdges(11, edges, false, false);
}

Graph MakeErdosRenyi() {
  Rng rng(501);
  return ErdosRenyi(60, 180, false, rng);
}

Graph MakeWeighted() {
  Rng rng(502);
  Graph base = ErdosRenyi(50, 160, false, rng);
  return WithRandomWeights(base, 10.0, rng);
}

Graph MakeDisconnected() {
  Rng rng(503);
  Graph a = ErdosRenyi(30, 80, false, rng);
  Graph b = ErdosRenyi(30, 80, false, rng);
  std::vector<Edge> edges = a.Edges();
  for (const Edge& e : b.Edges()) edges.push_back({e.u + 30, e.v + 30, e.w});
  return Graph::FromEdges(62, edges, false, false);
}

const std::vector<GraphCase>& Cases() {
  static const std::vector<GraphCase> cases = {
      {"path", MakePath},           {"star", MakeStar},
      {"er", MakeErdosRenyi},       {"weighted", MakeWeighted},
      {"disconnected", MakeDisconnected},
  };
  return cases;
}

class TwoPhaseEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {
 protected:
  std::string Name() const { return std::get<0>(GetParam()); }
  const GraphCase& Case() const { return Cases()[std::get<1>(GetParam())]; }
};

// The contract the engine's rate-axis sharing rests on: one ScoreState
// serves every rate, and the legacy wrapper is a thin prepare+mask. Both
// paths start from the same rng seed (the shared per-group stream), so the
// keep-sets must match edge for edge — for deterministic AND randomized
// algorithms.
TEST_P(TwoPhaseEquivalenceTest, SharedStateMatchesLegacySparsifyAtAllRates) {
  auto sparsifier = CreateSparsifier(Name());
  Graph g = Case().make();

  const uint64_t seed = BatchRunner::GroupSeed(977, Name(), 0);
  Rng prepare_rng(seed);
  std::unique_ptr<ScoreState> state = sparsifier->PrepareScores(g,
                                                               prepare_rng);
  for (double rate : SweepRates()) {
    RateMask mask = sparsifier->MaskForRate(*state, rate);
    ASSERT_EQ(mask.keep.size(), g.NumEdges());
    Graph two_phase = Sparsifier::Apply(g, mask);

    Rng legacy_rng(seed);
    Graph legacy = sparsifier->Sparsify(g, rate, legacy_rng);
    EXPECT_EQ(two_phase.Edges(), legacy.Edges())
        << Name() << " on " << Case().name << " at rate " << rate;
  }
}

// A fresh PrepareScores from the same seed must reproduce the state: this
// is what makes a resumed subset run bit-identical to a cold full grid.
TEST_P(TwoPhaseEquivalenceTest, PrepareScoresIsSeedDeterministic) {
  auto sparsifier = CreateSparsifier(Name());
  Graph g = Case().make();
  Rng rng_a(4242), rng_b(4242);
  auto state_a = sparsifier->PrepareScores(g, rng_a);
  auto state_b = sparsifier->PrepareScores(g, rng_b);
  for (double rate : {0.2, 0.5, 0.8}) {
    RateMask mask_a = sparsifier->MaskForRate(*state_a, rate);
    RateMask mask_b = sparsifier->MaskForRate(*state_b, rate);
    EXPECT_EQ(mask_a.keep, mask_b.keep)
        << Name() << " on " << Case().name << " at rate " << rate;
    EXPECT_EQ(mask_a.new_weights, mask_b.new_weights)
        << Name() << " on " << Case().name << " at rate " << rate;
  }
}

// Fine-control algorithms must hit the target keep-count exactly through
// the two-phase path at every sweep rate (Table 2's PRC column).
TEST_P(TwoPhaseEquivalenceTest, FineControlHitsTargetThroughMaskForRate) {
  auto sparsifier = CreateSparsifier(Name());
  if (sparsifier->Info().prune_rate_control != PruneRateControl::kFine) {
    GTEST_SKIP() << "not a fine-control algorithm";
  }
  Graph g = Case().make();
  Rng rng(7);
  auto state = sparsifier->PrepareScores(g, rng);
  for (double rate : SweepRates()) {
    RateMask mask = sparsifier->MaskForRate(*state, rate);
    EdgeId kept = 0;
    for (uint8_t k : mask.keep) kept += k;
    EXPECT_EQ(kept, TargetKeepCount(g.NumEdges(), rate))
        << Name() << " on " << Case().name << " at rate " << rate;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TwoPhaseEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(SparsifierNames()),
                       ::testing::Range<size_t>(0, Cases().size())),
    [](const ::testing::TestParamInfo<std::tuple<std::string, size_t>>& i) {
      std::string name = std::get<0>(i.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + Cases()[std::get<1>(i.param)].name;
    });

// Rates that round the target keep-count to zero must yield an empty (and
// for ER-w, unweighted) mask, not an out-of-bounds prefix lookup.
TEST(TwoPhaseEdgeCases, ZeroTargetKeepsNothing) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, false,
                             false);
  ASSERT_EQ(TargetKeepCount(g.NumEdges(), 0.9), 0u);
  for (const char* name : {"ER-w", "ER-uw", "RN", "RD", "GS"}) {
    auto sparsifier = CreateSparsifier(name);
    Rng rng(11);
    auto state = sparsifier->PrepareScores(g, rng);
    RateMask mask = sparsifier->MaskForRate(*state, 0.9);
    EXPECT_EQ(std::count(mask.keep.begin(), mask.keep.end(), 1), 0) << name;
    EXPECT_TRUE(mask.new_weights.empty()) << name;
    EXPECT_EQ(Sparsifier::Apply(g, mask).NumEdges(), 0u) << name;
  }
}

// --------------------------------------------------------------------------
// Grouped scheduler.

// Kept fraction plus a draw from the metric stream, so stream drift shows.
double KeptFractionWithDraw(const Graph& orig, const Graph& sp, Rng& rng) {
  return static_cast<double>(sp.NumEdges()) /
             static_cast<double>(orig.NumEdges()) +
         1e-12 * rng.NextDouble();
}

std::vector<BatchResult> RunGroupedGrid(int num_threads) {
  Rng gen(88);
  Graph g = BarabasiAlbert(120, 3, gen);
  SweepConfig config;
  config.sparsifiers = {"RN", "LD", "KN", "SCAN", "FF", "SF", "ER-uw"};
  config.prune_rates = SweepRates();
  config.runs_nondeterministic = 2;
  config.seed = 31;
  BatchRunner runner(num_threads);
  return RunOneMetric(runner, g, BatchRunner::ExpandGrid(config),
                      config.seed, KeptFractionWithDraw);
}

void ExpectIdentical(const std::vector<BatchResult>& a,
                     const std::vector<BatchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].task.sparsifier, b[i].task.sparsifier);
    EXPECT_EQ(a[i].task.prune_rate, b[i].task.prune_rate);
    EXPECT_EQ(a[i].task.run, b[i].task.run);
    // EXPECT_EQ on doubles is exact: the contract is bit-identical.
    EXPECT_EQ(a[i].achieved_prune_rate, b[i].achieved_prune_rate);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(GroupedSchedulerTest, BitIdenticalAcrossThreadCounts) {
  auto one = RunGroupedGrid(1);
  auto two = RunGroupedGrid(2);
  auto eight = RunGroupedGrid(8);
  ExpectIdentical(one, two);
  ExpectIdentical(one, eight);
}

TEST(GroupedSchedulerTest, DeterministicSparsifiersUnchangedBySharing) {
  // Sharing the scoring phase must not move a single bit for deterministic
  // algorithms: their cells' masks are rng-free, so the engine's shared
  // ScoreState yields exactly what a standalone per-cell Sparsify does
  // (here fed an unrelated stream), and the metric stream derives from
  // MetricSeed alone.
  Rng gen(89);
  Graph g = BarabasiAlbert(120, 3, gen);
  SweepConfig config;
  config.sparsifiers = {"LD", "SCAN", "GS", "LSim",
                        "LS", "SF", "SP-3", "TRI"};
  config.prune_rates = SweepRates();
  config.runs_nondeterministic = 1;
  config.seed = 77;
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(config);
  BatchRunner runner(2);
  auto shared = RunOneMetric(runner, g, tasks, config.seed,
                             KeptFractionWithDraw);
  std::vector<BatchResult> per_cell(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    const BatchTask& task = tasks[i];
    Rng sparsify_rng(1000 + i);
    Graph sparsified = CreateSparsifier(task.sparsifier)
                           ->Sparsify(g, task.prune_rate, sparsify_rng);
    Rng metric_rng(BatchRunner::MetricSeed(config.seed, "test",
                                           task.sparsifier, task.prune_rate,
                                           task.run, "metric"));
    per_cell[i].task = task;
    per_cell[i].achieved_prune_rate =
        Sparsifier::AchievedPruneRate(g, sparsified);
    per_cell[i].value = KeptFractionWithDraw(g, sparsified, metric_rng);
  }
  ExpectIdentical(shared, per_cell);
}

TEST(GroupedSchedulerTest, SubsetRunMatchesFullGrid) {
  // The resume path's contract under score sharing: running every third
  // cell computes bit-identical values to the full grid, because group
  // scoring seeds depend only on (master_seed, sparsifier, run).
  Rng gen(90);
  Graph g = BarabasiAlbert(100, 3, gen);
  SweepConfig config;
  config.sparsifiers = {"RN", "ER-uw", "LD", "FF"};
  config.prune_rates = SweepRates();
  config.runs_nondeterministic = 2;
  config.seed = 5;
  BatchRunner runner(2);
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(config);
  auto full = RunOneMetric(runner, g, tasks, config.seed,
                           KeptFractionWithDraw);
  std::vector<BatchTask> subset;
  for (size_t i = 0; i < tasks.size(); i += 3) subset.push_back(tasks[i]);
  auto partial = RunOneMetric(runner, g, subset, config.seed,
                              KeptFractionWithDraw);
  ASSERT_EQ(partial.size(), subset.size());
  for (size_t j = 0; j < partial.size(); ++j) {
    // Subset entry j is grid position 3j.
    EXPECT_EQ(partial[j].value, full[3 * j].value);
    EXPECT_EQ(partial[j].achieved_prune_rate,
              full[3 * j].achieved_prune_rate);
  }
}

TEST(GroupedSchedulerTest, SharingSchedulesOneScorePassPerGroup) {
  Rng gen(91);
  Graph g = BarabasiAlbert(80, 3, gen);
  SweepConfig config;
  config.sparsifiers = {"LD", "RN"};
  config.prune_rates = SweepRates();
  config.runs_nondeterministic = 2;
  BatchRunner runner(2);
  auto metric = [](const Graph&, const Graph& sp, Rng&) {
    return static_cast<double>(sp.NumEdges());
  };
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(config);
  // LD deterministic: 9 rates x 1 run; RN: 9 rates x 2 runs.
  ASSERT_EQ(tasks.size(), 9u + 18u);
  BatchRunStats stats;
  RunOneMetric(runner, g, tasks, config.seed, metric, &stats);
  EXPECT_EQ(stats.cells, 27u);
  EXPECT_EQ(stats.score_groups, 3u);  // (LD,0), (RN,0), (RN,1)
}

TEST(GroupedSchedulerTest, GroupSeedIndependentOfGridShape) {
  EXPECT_EQ(BatchRunner::GroupSeed(42, "RN", 1),
            BatchRunner::GroupSeed(42, "RN", 1));
  EXPECT_NE(BatchRunner::GroupSeed(42, "RN", 1),
            BatchRunner::GroupSeed(42, "RN", 2));
  EXPECT_NE(BatchRunner::GroupSeed(42, "RN", 1),
            BatchRunner::GroupSeed(42, "FF", 1));
  EXPECT_NE(BatchRunner::GroupSeed(42, "RN", 1),
            BatchRunner::GroupSeed(43, "RN", 1));
}

}  // namespace
}  // namespace sparsify
