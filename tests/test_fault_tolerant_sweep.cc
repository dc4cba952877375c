// Error-tolerant sweeps: a unit that throws must not take the sweep down
// with it — the other units complete, the failure lands in the store as a
// typed error record, the next resume resubmits EXACTLY the failed units,
// and the healed sweep is bit-identical to a cold run that never failed.
// Faults are injected through the failpoint subsystem, so the engine code
// under test is the shipped code, not a test double.
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "src/cli/store_export.h"
#include "src/engine/resumable_sweep.h"
#include "src/graph/datasets.h"
#include "src/metrics/basic.h"
#include "src/util/errors.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

using testing_util::UniqueTestDir;

// Consumes the per-unit RNG stream: any seed drift between a cold run, a
// retried run, and a resumed run changes the value.
MetricFn SampledMetric() {
  return [](const Graph& g, const Graph& h, Rng& rng) {
    return QuadraticFormSimilarity(g, h, 5, rng);
  };
}

SweepConfig TestConfig() {
  SweepConfig config;
  config.sparsifiers = {"RN", "LD"};
  config.runs_nondeterministic = 2;
  config.seed = 321;
  return config;
}

void ExpectSeriesBitIdentical(const std::vector<SweepSeries>& a,
                              const std::vector<SweepSeries>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].sparsifier, b[s].sparsifier);
    ASSERT_EQ(a[s].points.size(), b[s].points.size());
    for (size_t p = 0; p < a[s].points.size(); ++p) {
      EXPECT_EQ(a[s].points[p].requested_prune_rate,
                b[s].points[p].requested_prune_rate);
      EXPECT_EQ(a[s].points[p].achieved_prune_rate,
                b[s].points[p].achieved_prune_rate);
      EXPECT_EQ(a[s].points[p].mean, b[s].points[p].mean);
      EXPECT_EQ(a[s].points[p].stddev, b[s].points[p].stddev);
      EXPECT_EQ(a[s].points[p].runs, b[s].points[p].runs);
    }
  }
}

class FaultTolerantSweepTest : public ::testing::Test {
 protected:
  FaultTolerantSweepTest()
      : graph_(LoadDatasetScaled("ego-Facebook", 0.1).graph), runner_(2) {}
  void TearDown() override { fail::DisarmAll(); }

  std::vector<SweepMetric> TwoMetrics() {
    return {SweepMetric{"m_good", SampledMetric()},
            SweepMetric{"m_bad", SampledMetric()}};
  }

  Graph graph_;
  BatchRunner runner_;
};

TEST_F(FaultTolerantSweepTest, ResultCodeRevCurrent) {
  // Error records share CellKey identity with results. Fault tolerance
  // itself never bumps the revision (same computation, same streams);
  // the r3 -> r4 bump came from the key-schema change that dropped
  // grid_index (see cell_key.h history).
  EXPECT_STREQ(kResultCodeRev, "r4");
}

TEST_F(FaultTolerantSweepTest, FailFastModeStillThrows) {
  fail::ArmFromSpec("engine.metric_unit/m_bad=throw");
  ResumableSweep sweep(runner_, nullptr, "test-rev");
  EXPECT_THROW(
      sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), TestConfig(), nullptr),
      fail::InjectedFault);
}

TEST_F(FaultTolerantSweepTest, FailedMetricIsRecordedAndOthersComplete) {
  std::string dir = UniqueTestDir("ft_store");
  ResultStore store(ResultStore::PathInDir(dir));
  SweepConfig config = TestConfig();

  // Cold reference for the surviving metric, no store, no faults.
  ResumableSweep cold(runner_, nullptr, "test-rev");
  auto reference =
      cold.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, nullptr);

  fail::ArmFromSpec("engine.metric_unit/m_bad=throw");
  ResumableSweep sweep(runner_, &store, "test-rev");
  sweep.set_fault_tolerant(true);
  ResumableSweepStats stats;
  auto out = sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, &stats);

  const size_t cells = stats.total_cells / 2;  // two metrics
  EXPECT_EQ(stats.failed_units, cells);
  EXPECT_EQ(stats.transient_failed_units, 0u);
  EXPECT_EQ(store.ErrorCount(), cells);
  // The sweep finished: the good metric's series match the cold run even
  // though every m_bad unit on the same cells threw.
  ASSERT_EQ(out.size(), 2u);
  ExpectSeriesBitIdentical(out[0].series, reference[0].series);
  for (const StoredCell& cell : store.Cells()) {
    if (!cell.is_error) continue;
    EXPECT_EQ(cell.key.metric, "m_bad");
    EXPECT_EQ(cell.error_class, "permanent");
    EXPECT_EQ(cell.attempts, 1);  // permanent failures never retry
  }

  // Resume with the fault gone: exactly the failed units are submitted,
  // the errors heal, and the recovered series are bit-identical to the
  // cold reference.
  fail::DisarmAll();
  ResumableSweep resume(runner_, &store, "test-rev");
  resume.set_fault_tolerant(true);
  ResumableSweepStats resume_stats;
  auto healed =
      resume.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, &resume_stats);
  EXPECT_EQ(resume_stats.submitted_cells, cells);
  EXPECT_EQ(resume_stats.cached_cells, cells);
  EXPECT_EQ(resume_stats.failed_units, 0u);
  EXPECT_EQ(store.ErrorCount(), 0u);
  ExpectSeriesBitIdentical(healed[0].series, reference[0].series);
  ExpectSeriesBitIdentical(healed[1].series, reference[1].series);
}

TEST_F(FaultTolerantSweepTest, TransientFailureRetriesToBitIdenticalValue) {
  SweepConfig config = TestConfig();
  ResumableSweep cold(runner_, nullptr, "test-rev");
  auto reference =
      cold.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, nullptr);

  // One transient fault on some unit's first attempt: the retry must
  // reproduce the exact value the cold run computed (the unit's RNG
  // re-derives from MetricSeed on every attempt).
  fail::ArmFromSpec("engine.metric_unit=throw-transient@1");
  ResumableSweep sweep(runner_, nullptr, "test-rev");
  sweep.set_fault_tolerant(true);
  ResumableSweepStats stats;
  auto out = sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, &stats);
  EXPECT_EQ(stats.failed_units, 0u);
  EXPECT_GE(stats.retried_units, 1u);
  ExpectSeriesBitIdentical(out[0].series, reference[0].series);
  ExpectSeriesBitIdentical(out[1].series, reference[1].series);
}

TEST_F(FaultTolerantSweepTest, ExhaustedRetriesRecordTheTransientClass) {
  std::string dir = UniqueTestDir("ft_transient_store");
  ResultStore store(ResultStore::PathInDir(dir));
  fail::ArmFromSpec("engine.metric_unit/m_bad=throw-transient");
  ResumableSweep sweep(runner_, &store, "test-rev");
  sweep.set_fault_tolerant(true);
  sweep.set_max_unit_retries(2);
  ResumableSweepStats stats;
  sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), TestConfig(), &stats);
  const size_t cells = stats.total_cells / 2;
  EXPECT_EQ(stats.failed_units, cells);
  EXPECT_EQ(stats.transient_failed_units, cells);
  EXPECT_EQ(stats.retried_units, 2 * cells);  // 2 extra attempts per unit
  for (const StoredCell& cell : store.Cells()) {
    if (!cell.is_error) continue;
    EXPECT_EQ(cell.error_class, "transient");
    EXPECT_EQ(cell.attempts, 3);  // 1 initial + max_unit_retries
  }
}

TEST_F(FaultTolerantSweepTest, SparsifierFailureFailsItsCellsWithoutRetry) {
  std::string dir = UniqueTestDir("ft_score_store");
  ResultStore store(ResultStore::PathInDir(dir));
  // Score-group faults hit everything downstream of one sparsifier; they
  // are structural (not per-unit), so no retry — the cells just fail.
  fail::ArmFromSpec("engine.score_group/RN=throw");
  ResumableSweep sweep(runner_, &store, "test-rev");
  sweep.set_fault_tolerant(true);
  ResumableSweepStats stats;
  auto out =
      sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), TestConfig(), &stats);
  EXPECT_GT(stats.failed_units, 0u);
  EXPECT_EQ(store.ErrorCount(), stats.failed_units);
  for (const StoredCell& cell : store.Cells()) {
    if (cell.is_error) {
      EXPECT_EQ(cell.key.sparsifier, "RN");
    } else {
      EXPECT_EQ(cell.key.sparsifier, "LD");
    }
  }
  // LD series survive in both metrics.
  for (const auto& per_metric : out) {
    bool saw_ld = false;
    for (const SweepSeries& s : per_metric.series) {
      saw_ld = saw_ld || (s.sparsifier == "LD" && !s.points.empty());
    }
    EXPECT_TRUE(saw_ld);
  }
}

TEST_F(FaultTolerantSweepTest, FailedUnitsFoldLikeExport) {
  // A failed unit drops out of the sweep's own fold exactly as its error
  // record drops out of `export`: same points, same means, runs counting
  // successes only, and no point at all where every run failed. Once with
  // one failure (the 2nd m_bad unit) and once with every m_bad unit down.
  const std::vector<std::string> specs = {"engine.metric_unit/m_bad=throw@2",
                                          "engine.metric_unit/m_bad=throw"};
  for (size_t k = 0; k < specs.size(); ++k) {
    SCOPED_TRACE(specs[k]);
    fail::DisarmAll();
    std::string dir = UniqueTestDir("fold_store_" + std::to_string(k));
    ResultStore store(ResultStore::PathInDir(dir));
    fail::ArmFromSpec(specs[k]);
    ResumableSweep sweep(runner_, &store, "test-rev");
    sweep.set_fault_tolerant(true);
    ResumableSweepStats stats;
    auto out =
        sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), TestConfig(), &stats);
    EXPECT_GT(stats.failed_units, 0u);

    std::vector<cli::StoreGroup> groups = cli::RebuildSeries(store);
    for (const MetricSweepSeries& m : out) {
      SCOPED_TRACE(m.metric);
      // Series in registry order ({RN, LD}); a sparsifier with no
      // successful unit has no series in the store's rebuild.
      std::vector<SweepSeries> folded;
      for (const SweepSeries& s : m.series) {
        if (!s.points.empty()) folded.push_back(s);
      }
      std::vector<SweepSeries> exported;
      for (const cli::StoreGroup& group : groups) {
        if (group.metric == m.metric) exported = group.series;
      }
      ExpectSeriesBitIdentical(folded, exported);
    }
  }
}

// Safety net for the stage failure path: a score-group or subgraph-build
// failure fails every dependent unit once, with the stage's class and no
// retry, while the other sparsifier's units complete; in fail-fast mode
// the same fault propagates out of the run.
class StageFaultTest
    : public FaultTolerantSweepTest,
      public ::testing::WithParamInterface<std::tuple<std::string, bool>> {};

TEST_P(StageFaultTest, FailsEveryDependentUnitOnceWithItsClass) {
  const auto& [site, transient] = GetParam();
  const std::string spec =
      site + "/RN=" + (transient ? "throw-transient" : "throw");
  const std::string want_class = transient ? "transient" : "permanent";
  SweepConfig config = TestConfig();
  size_t rn_cells = 0, ld_cells = 0;
  for (const BatchTask& task : BatchRunner::ExpandGrid(ToBatchSpec(config))) {
    ++(task.sparsifier == "RN" ? rn_cells : ld_cells);
  }

  std::string dir = UniqueTestDir("stage_store");
  ResultStore store(ResultStore::PathInDir(dir));
  fail::ArmFromSpec(spec);
  ResumableSweep sweep(runner_, &store, "test-rev");
  sweep.set_fault_tolerant(true);
  ResumableSweepStats stats;
  sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, &stats);
  EXPECT_EQ(stats.failed_units, 2 * rn_cells);
  EXPECT_EQ(stats.transient_failed_units, transient ? 2 * rn_cells : 0u);
  EXPECT_EQ(stats.retried_units, 0u);
  size_t rn_errors = 0, ld_results = 0;
  for (const StoredCell& cell : store.Cells()) {
    if (cell.key.sparsifier == "RN") {
      EXPECT_TRUE(cell.is_error);
      EXPECT_EQ(cell.error_class, want_class);
      EXPECT_EQ(cell.attempts, 1);
      ++rn_errors;
    } else {
      EXPECT_FALSE(cell.is_error);
      ++ld_results;
    }
  }
  EXPECT_EQ(rn_errors, 2 * rn_cells);
  EXPECT_EQ(ld_results, 2 * ld_cells);

  ResumableSweep fail_fast(runner_, nullptr, "test-rev");
  if (transient) {
    EXPECT_THROW(fail_fast.RunMulti(graph_, "fb@0.1", TwoMetrics(), config),
                 TransientError);
  } else {
    EXPECT_THROW(fail_fast.RunMulti(graph_, "fb@0.1", TwoMetrics(), config),
                 fail::InjectedFault);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultTolerantSweepTest, StageFaultTest,
    ::testing::Combine(::testing::Values("engine.score_group",
                                         "engine.subgraph"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& i) {
      std::string name = std::get<0>(i.param).substr(7);  // drop "engine."
      return name + (std::get<1>(i.param) ? "_transient" : "_permanent");
    });

}  // namespace
}  // namespace sparsify
