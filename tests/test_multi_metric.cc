// Multi-metric engine and sweep: sparsify-once subgraph sharing.
//
// The core contract under test: a multi-metric run is bit-identical to
// the union of single-metric runs — MetricSeed streams are independent of
// the metric-set composition, the grid shape, the submitted subset, and
// the thread count — and the (cell × metric) scheduler materializes each
// subgraph once and submits only missing units on resume. Also covers
// NestedParallelFor (the within-metric BFS-batch fan-out primitive) and
// the MetricFn thread-safety audit regression.
#include <atomic>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"
#include "src/cli/metrics.h"
#include "src/engine/batch_runner.h"
#include "src/engine/resumable_sweep.h"
#include "src/graph/datasets.h"
#include "src/metrics/centrality.h"
#include "src/metrics/distance.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

using testing_util::UniqueTestDir;

// ---------------------------------------------------------------------------
// NestedParallelFor — the primitive metrics use to fan BFS batches out.

TEST(NestedParallelForTest, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  NestedParallelFor(&pool, kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(NestedParallelForTest, NullPoolRunsSerially) {
  std::vector<int> hits(64, 0);
  NestedParallelFor(nullptr, hits.size(), [&](size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(NestedParallelForTest, PropagatesException) {
  ThreadPool pool(4);
  auto boom = [](size_t i) {
    if (i == 3) throw std::runtime_error("subtask failed");
  };
  EXPECT_THROW(NestedParallelFor(&pool, 100, boom), std::runtime_error);
  EXPECT_THROW(NestedParallelFor(nullptr, 100, boom), std::runtime_error);
  // The pool survives for further use.
  std::atomic<int> count{0};
  NestedParallelFor(&pool, 10, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(NestedParallelForTest, SafeFromInsidePoolTasks) {
  // The engine calls metrics from pool workers, and metrics call
  // NestedParallelFor — a nested Wait would deadlock, the claim-loop
  // design must not. Exercised with several concurrent nested loops.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(400);
  for (int task = 0; task < 4; ++task) {
    pool.Submit([&, task] {
      NestedParallelFor(&pool, 100, [&, task](size_t i) {
        hits[task * 100 + i].fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  pool.Wait();
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(NestedParallelForTest, SingleThreadPoolFallsBackToSerial) {
  // With one worker there is nobody to run queued helpers while the
  // caller waits — the serial fallback must kick in, even from inside the
  // pool's only worker.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.Submit([&] {
    NestedParallelFor(&pool, 50, [&](size_t) { count++; });
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 50);
}

// ---------------------------------------------------------------------------
// MetricSeed — the grid-shape- and metric-set-independent stream identity.

TEST(MetricSeedTest, DependsOnEveryComponent) {
  uint64_t base = BatchRunner::MetricSeed(42, "ds@0.5", "RN", 0.3, 1, "spsp");
  EXPECT_EQ(base,
            BatchRunner::MetricSeed(42, "ds@0.5", "RN", 0.3, 1, "spsp"));
  EXPECT_NE(base,
            BatchRunner::MetricSeed(43, "ds@0.5", "RN", 0.3, 1, "spsp"));
  EXPECT_NE(base,
            BatchRunner::MetricSeed(42, "ds@0.4", "RN", 0.3, 1, "spsp"));
  EXPECT_NE(base,
            BatchRunner::MetricSeed(42, "ds@0.5", "LD", 0.3, 1, "spsp"));
  EXPECT_NE(base,
            BatchRunner::MetricSeed(42, "ds@0.5", "RN", 0.4, 1, "spsp"));
  EXPECT_NE(base,
            BatchRunner::MetricSeed(42, "ds@0.5", "RN", 0.3, 2, "spsp"));
  EXPECT_NE(base,
            BatchRunner::MetricSeed(42, "ds@0.5", "RN", 0.3, 1, "degree"));
  // String-boundary discipline: shifting a character between fields must
  // not collide — including bytes that could masquerade as a terminator
  // (boundaries are length-folded, not sentinel-byte-folded).
  EXPECT_NE(BatchRunner::MetricSeed(42, "ab", "c", 0.3, 1, ""),
            BatchRunner::MetricSeed(42, "a", "bc", 0.3, 1, ""));
  EXPECT_NE(BatchRunner::MetricSeed(42, "a\xff", "b", 0.3, 1, ""),
            BatchRunner::MetricSeed(42, "a", "\xff" "b", 0.3, 1, ""));
}

// ---------------------------------------------------------------------------
// Within-metric parallelism: subtask fan-out must not move a single bit.

TEST(MetricSubtaskTest, SampledMetricsBitIdenticalWithSubtaskPool) {
  Dataset d = LoadDatasetScaled("ego-Facebook", 0.1);
  Rng sparsify_rng(9);
  Graph h = CreateSparsifier("RN")->Sparsify(d.graph, 0.5, sparsify_rng);
  ThreadPool pool(8);

  Rng a1(7), a2(7);
  StretchResult spsp_serial = SpspStretch(d.graph, h, 500, a1);
  StretchResult spsp_parallel;
  {
    SubtaskPoolScope scope(&pool);
    spsp_parallel = SpspStretch(d.graph, h, 500, a2);
  }
  EXPECT_EQ(spsp_serial.mean_stretch, spsp_parallel.mean_stretch);
  EXPECT_EQ(spsp_serial.unreachable, spsp_parallel.unreachable);
  EXPECT_EQ(spsp_serial.pairs_evaluated, spsp_parallel.pairs_evaluated);

  Rng b1(11), b2(11);
  StretchResult ecc_serial = EccentricityStretch(d.graph, h, 40, b1);
  StretchResult ecc_parallel;
  {
    SubtaskPoolScope scope(&pool);
    ecc_parallel = EccentricityStretch(d.graph, h, 40, b2);
  }
  EXPECT_EQ(ecc_serial.mean_stretch, ecc_parallel.mean_stretch);
  EXPECT_EQ(ecc_serial.unreachable, ecc_parallel.unreachable);

  Rng c1(13), c2(13);
  double diam_serial = ApproxDiameter(h, 4, c1);
  double diam_parallel;
  {
    SubtaskPoolScope scope(&pool);
    diam_parallel = ApproxDiameter(h, 4, c2);
  }
  EXPECT_EQ(diam_serial, diam_parallel);

  Rng e1(17), e2(17);
  std::vector<double> btw_serial =
      ApproxBetweennessCentrality(h, 100, e1);
  std::vector<double> btw_parallel;
  {
    SubtaskPoolScope scope(&pool);
    btw_parallel = ApproxBetweennessCentrality(h, 100, e2);
  }
  ASSERT_EQ(btw_serial.size(), btw_parallel.size());
  for (size_t v = 0; v < btw_serial.size(); ++v) {
    EXPECT_EQ(btw_serial[v], btw_parallel[v]) << v;
  }

  std::vector<double> close_serial = ClosenessCentrality(h);
  std::vector<double> close_parallel;
  {
    SubtaskPoolScope scope(&pool);
    close_parallel = ClosenessCentrality(h);
  }
  ASSERT_EQ(close_serial.size(), close_parallel.size());
  for (size_t v = 0; v < close_serial.size(); ++v) {
    EXPECT_EQ(close_serial[v], close_parallel[v]) << v;
  }
}

// ---------------------------------------------------------------------------
// Engine: RunTasksMulti.

class MultiMetricEngineTest : public ::testing::Test {
 protected:
  MultiMetricEngineTest()
      : graph_(LoadDatasetScaled("ego-Facebook", 0.1).graph) {}

  static SweepConfig GridConfig() {
    SweepConfig config;
    config.sparsifiers = {"RN", "LD", "SF"};
    config.prune_rates = {0.2, 0.5, 0.8};
    config.runs_nondeterministic = 2;
    config.seed = 123;
    return config;
  }

  // Registry metrics chosen to exercise every sharing axis: a sampled
  // BFS-batch metric (spsp), a Louvain rng consumer (communities), and
  // two deterministic structural metrics (degree, kcore).
  static std::vector<SweepMetric> Metrics() {
    return {
        {"degree", cli::FindMetric("degree")},
        {"spsp", cli::FindMetric("spsp")},
        {"communities", cli::FindMetric("communities")},
        {"kcore", cli::FindMetric("kcore")},
    };
  }

  Graph graph_;
};

TEST_F(MultiMetricEngineTest, MultiRunEqualsUnionOfSingleMetricRuns) {
  SweepConfig config = GridConfig();
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(config);
  std::vector<SweepMetric> metrics = Metrics();
  BatchRunner runner(2);
  std::vector<BatchMultiResult> multi = runner.RunTasksMulti(
      graph_, "fb@0.1", tasks, config.seed, metrics);
  ASSERT_EQ(multi.size(), tasks.size());
  for (uint32_t m = 0; m < metrics.size(); ++m) {
    std::vector<BatchMultiResult> single = runner.RunTasksMulti(
        graph_, "fb@0.1", tasks, config.seed, {metrics[m]});
    for (size_t i = 0; i < tasks.size(); ++i) {
      ASSERT_EQ(multi[i].values.size(), metrics.size());
      EXPECT_EQ(multi[i].values[m].metric, m);
      // EXPECT_EQ on doubles is exact: the contract is bit-identical.
      EXPECT_EQ(multi[i].values[m].value, single[i].values[0].value)
          << metrics[m].name << " cell " << i;
      EXPECT_EQ(multi[i].achieved_prune_rate, single[i].achieved_prune_rate);
    }
  }
}

TEST_F(MultiMetricEngineTest, BitIdenticalAcrossThreadCounts) {
  SweepConfig config = GridConfig();
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(config);
  std::vector<SweepMetric> metrics = Metrics();
  std::vector<std::vector<BatchMultiResult>> runs;
  for (int threads : {1, 2, 8}) {
    BatchRunner runner(threads);
    runs.push_back(runner.RunTasksMulti(graph_, "fb@0.1", tasks,
                                        config.seed, metrics));
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[0].size(), runs[r].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[0][i].achieved_prune_rate, runs[r][i].achieved_prune_rate);
      ASSERT_EQ(runs[0][i].values.size(), runs[r][i].values.size());
      for (size_t s = 0; s < runs[0][i].values.size(); ++s) {
        EXPECT_EQ(runs[0][i].values[s].value, runs[r][i].values[s].value);
      }
    }
  }
}

TEST_F(MultiMetricEngineTest, PerTaskMetricSubsetsAreHonored) {
  SweepConfig config = GridConfig();
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(config);
  std::vector<SweepMetric> metrics = Metrics();
  BatchRunner runner(2);
  std::vector<BatchMultiResult> full = runner.RunTasksMulti(
      graph_, "fb@0.1", tasks, config.seed, metrics);

  // Odd cells evaluate only metric 1, even cells metrics {0, 3} — the
  // shapes the resume scheduler produces. Values must match the full run.
  std::vector<BatchTask> subset = tasks;
  size_t expected_units = 0;
  for (size_t i = 0; i < subset.size(); ++i) {
    subset[i].metrics =
        (i % 2 == 1) ? std::vector<uint32_t>{1} : std::vector<uint32_t>{0, 3};
    expected_units += subset[i].metrics.size();
  }
  BatchRunStats stats;
  std::vector<BatchMultiResult> partial = runner.RunTasksMulti(
      graph_, "fb@0.1", subset, config.seed, metrics, nullptr, &stats);
  EXPECT_EQ(stats.cells, tasks.size());
  EXPECT_EQ(stats.metric_units, expected_units);
  EXPECT_EQ(stats.subgraph_builds, tasks.size());
  for (size_t i = 0; i < partial.size(); ++i) {
    ASSERT_EQ(partial[i].values.size(), subset[i].metrics.size());
    for (size_t s = 0; s < partial[i].values.size(); ++s) {
      uint32_t m = subset[i].metrics[s];
      EXPECT_EQ(partial[i].values[s].metric, m);
      EXPECT_EQ(partial[i].values[s].value, full[i].values[m].value);
    }
  }
}

TEST_F(MultiMetricEngineTest, StatsCountBothSharingAxes) {
  SweepConfig config = GridConfig();
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(config);
  // RN: 3 rates x 2 runs; LD: 3 x 1; SF: 1 x 1 (no rate control).
  ASSERT_EQ(tasks.size(), 6u + 3u + 1u);
  std::vector<SweepMetric> metrics = Metrics();
  BatchRunner runner(2);
  BatchRunStats stats;
  runner.RunTasksMulti(graph_, "fb@0.1", tasks, config.seed, metrics,
                       nullptr, &stats);
  EXPECT_EQ(stats.cells, 10u);
  EXPECT_EQ(stats.metric_units, 40u);
  EXPECT_EQ(stats.subgraph_builds, 10u);   // one per cell, not per unit
  EXPECT_EQ(stats.score_groups, 4u);       // (RN,0), (RN,1), (LD,0), (SF,0)
}

TEST_F(MultiMetricEngineTest, InvalidMetricConfigurationsThrow) {
  SweepConfig config = GridConfig();
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(config);
  BatchRunner runner(2);
  EXPECT_THROW(
      runner.RunTasksMulti(graph_, "fb@0.1", tasks, config.seed, {}),
      std::invalid_argument);
  std::vector<BatchTask> bad = tasks;
  bad[0].metrics = {7};  // out of range for a 1-metric list
  EXPECT_THROW(runner.RunTasksMulti(graph_, "fb@0.1", bad, config.seed,
                                    {{"degree", cli::FindMetric("degree")}}),
               std::invalid_argument);
}

TEST_F(MultiMetricEngineTest, MetricThreadSafetyAuditRegression) {
  // The audit satellite: metrics that keep scratch state (Louvain's level
  // buffers, Dinic's residual arcs, Brandes' thread_local vectors) run
  // concurrently both ACROSS cells and WITHIN a cell's metric fan-out.
  // Any shared mutable state shows up as cross-thread drift: an 8-thread
  // run must reproduce the single-thread run bit for bit.
  SweepConfig config;
  config.sparsifiers = {"RN", "LD"};
  config.prune_rates = {0.3, 0.6};
  config.runs_nondeterministic = 2;
  config.seed = 7;
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(config);
  std::vector<SweepMetric> metrics = {
      {"communities", cli::FindMetric("communities")},
      {"maxflow", cli::FindMetric("maxflow")},
      {"betweenness", cli::FindMetric("betweenness")},
      {"closeness", cli::FindMetric("closeness")},
  };
  BatchRunner one(1);
  BatchRunner eight(8);
  std::vector<BatchMultiResult> serial = one.RunTasksMulti(
      graph_, "fb@0.1", tasks, config.seed, metrics);
  std::vector<BatchMultiResult> parallel = eight.RunTasksMulti(
      graph_, "fb@0.1", tasks, config.seed, metrics);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    for (size_t s = 0; s < serial[i].values.size(); ++s) {
      EXPECT_EQ(serial[i].values[s].value, parallel[i].values[s].value)
          << metrics[s].name << " cell " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// ResumableSweep::RunMulti — the (cell × metric) scheduler.

class MultiMetricSweepTest : public ::testing::Test {
 protected:
  MultiMetricSweepTest()
      : graph_(LoadDatasetScaled("ego-Facebook", 0.1).graph), runner_(2) {}

  static SweepConfig Config() {
    SweepConfig config;
    config.sparsifiers = {"RN", "LD"};
    config.prune_rates = {0.2, 0.5, 0.8};
    config.runs_nondeterministic = 2;
    config.seed = 123;
    return config;
  }

  static std::vector<SweepMetric> TwoMetrics() {
    return {{"degree", cli::FindMetric("degree")},
            {"quadratic", cli::FindMetric("quadratic")}};
  }

  static void ExpectSeriesBitIdentical(const std::vector<SweepSeries>& a,
                                       const std::vector<SweepSeries>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t s = 0; s < a.size(); ++s) {
      EXPECT_EQ(a[s].sparsifier, b[s].sparsifier);
      ASSERT_EQ(a[s].points.size(), b[s].points.size());
      for (size_t p = 0; p < a[s].points.size(); ++p) {
        EXPECT_EQ(a[s].points[p].mean, b[s].points[p].mean);
        EXPECT_EQ(a[s].points[p].stddev, b[s].points[p].stddev);
        EXPECT_EQ(a[s].points[p].achieved_prune_rate,
                  b[s].points[p].achieved_prune_rate);
        EXPECT_EQ(a[s].points[p].runs, b[s].points[p].runs);
      }
    }
  }

  Graph graph_;
  BatchRunner runner_;
};

TEST_F(MultiMetricSweepTest, MultiSweepEqualsUnionOfSingleMetricSweeps) {
  SweepConfig config = Config();
  std::vector<SweepMetric> metrics = TwoMetrics();
  ResumableSweep sweep(runner_, nullptr, "test-rev");
  std::vector<MetricSweepSeries> multi =
      sweep.RunMulti(graph_, "fb@0.1", metrics, config);
  ASSERT_EQ(multi.size(), 2u);
  for (const SweepMetric& m : metrics) {
    std::vector<SweepSeries> single =
        sweep.Run(graph_, "fb@0.1", m.name, config, m.fn);
    const MetricSweepSeries* found = nullptr;
    for (const MetricSweepSeries& ms : multi) {
      if (ms.metric == m.name) found = &ms;
    }
    ASSERT_NE(found, nullptr);
    ExpectSeriesBitIdentical(single, found->series);
  }
}

TEST_F(MultiMetricSweepTest, ResumingWithMoreMetricsSubmitsOnlyNewUnits) {
  std::string dir = UniqueTestDir("more_metrics_store");
  ResultStore store(ResultStore::PathInDir(dir));
  SweepConfig config = Config();
  std::vector<SweepMetric> metrics = TwoMetrics();
  size_t cells = BatchRunner::ExpandGrid(config).size();

  // First sweep: metric "degree" alone, through the single-metric API.
  ResumableSweep sweep(runner_, &store, "test-rev");
  sweep.Run(graph_, "fb@0.1", metrics[0].name, config, metrics[0].fn);
  EXPECT_EQ(store.Size(), cells);

  // Resumed with BOTH metrics: the degree units are served from the
  // store, every cell is rebuilt once for the quadratic units only.
  ResumableSweepStats stats;
  std::vector<MetricSweepSeries> resumed =
      sweep.RunMulti(graph_, "fb@0.1", metrics, config, &stats);
  EXPECT_EQ(stats.total_cells, 2 * cells);
  EXPECT_EQ(stats.cached_cells, cells);
  EXPECT_EQ(stats.submitted_cells, cells);
  EXPECT_EQ(stats.subgraph_builds, cells);
  EXPECT_EQ(store.Size(), 2 * cells);

  // And the resumed output matches a cold multi-metric run bit for bit.
  ResumableSweep cold(runner_, nullptr, "test-rev");
  std::vector<MetricSweepSeries> cold_multi =
      cold.RunMulti(graph_, "fb@0.1", metrics, config);
  for (size_t m = 0; m < metrics.size(); ++m) {
    ExpectSeriesBitIdentical(cold_multi[m].series, resumed[m].series);
  }

  // A third pass schedules nothing at all.
  ResumableSweepStats again;
  sweep.RunMulti(graph_, "fb@0.1", metrics, config, &again);
  EXPECT_EQ(again.submitted_cells, 0u);
  EXPECT_EQ(again.subgraph_builds, 0u);
}

TEST_F(MultiMetricSweepTest, ColdAndResumedBitIdenticalAcrossThreadCounts) {
  SweepConfig config = Config();
  std::vector<SweepMetric> metrics = TwoMetrics();

  // Cold reference on 1 thread.
  BatchRunner one(1);
  ResumableSweep cold(one, nullptr, "test-rev");
  std::vector<MetricSweepSeries> reference =
      cold.RunMulti(graph_, "fb@0.1", metrics, config);

  for (int threads : {2, 8}) {
    BatchRunner runner(threads);
    // Cold at this thread count.
    ResumableSweep sweep(runner, nullptr, "test-rev");
    std::vector<MetricSweepSeries> out =
        sweep.RunMulti(graph_, "fb@0.1", metrics, config);
    for (size_t m = 0; m < metrics.size(); ++m) {
      ExpectSeriesBitIdentical(reference[m].series, out[m].series);
    }
    // Interrupted-at-one-metric + resumed at this thread count.
    std::string dir = UniqueTestDir("threads_store_" + std::to_string(threads));
    ResultStore store(ResultStore::PathInDir(dir));
    ResumableSweep resumed(runner, &store, "test-rev");
    resumed.Run(graph_, "fb@0.1", metrics[1].name, config, metrics[1].fn);
    std::vector<MetricSweepSeries> after =
        resumed.RunMulti(graph_, "fb@0.1", metrics, config);
    for (size_t m = 0; m < metrics.size(); ++m) {
      ExpectSeriesBitIdentical(reference[m].series, after[m].series);
    }
  }
}

}  // namespace
}  // namespace sparsify
