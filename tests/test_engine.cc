// Tests for the parallel batch engine: thread-pool correctness, grid
// expansion, and the core guarantee that results are bit-identical at any
// thread count and across repeated runs with the same master seed.
#include "src/engine/batch_runner.h"

#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

using testing_util::RunOneMetric;

// ---------------------------------------------------------------------------
// ThreadPool / ParallelFor.

TEST(ThreadPoolTest, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(pool, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  ParallelFor(pool, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, MoreTasksThanThreads) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  ParallelFor(pool, 100, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(pool, 50,
                           [&](size_t i) {
                             if (i == 17) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // The pool must remain usable after a failed batch.
  std::atomic<int> count{0};
  ParallelFor(pool, 10, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, ParallelForAbortsEarlyOnException) {
  // Single worker makes the abort point deterministic: indices 0..3 run,
  // then the failure flag stops the chomper from pulling index 4.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  EXPECT_THROW(ParallelFor(pool, 10000,
                           [&](size_t i) {
                             count.fetch_add(1);
                             if (i == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPoolTest, DefaultSizeIsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.NumThreads(), 1);
}

// ---------------------------------------------------------------------------
// Grid expansion.

TEST(BatchRunnerTest, ExpandGridRespectsDeterminismAndControl) {
  SweepConfig config;
  config.sparsifiers = {"RN", "LD", "SF"};
  config.prune_rates = {0.3, 0.6};
  config.runs_nondeterministic = 4;
  auto tasks = BatchRunner::ExpandGrid(config);
  // RN: 2 rates x 4 runs. LD deterministic: 2 rates x 1 run. SF no
  // prune-rate control and deterministic: 1 x 1.
  ASSERT_EQ(tasks.size(), 8u + 2u + 1u);
  // Sparsifier-major, then rate, then run.
  EXPECT_EQ(tasks[0].sparsifier, "RN");
  EXPECT_EQ(tasks[3].run, 3);
  EXPECT_EQ(tasks[4].prune_rate, 0.6);
  EXPECT_EQ(tasks[4].run, 0);
  EXPECT_EQ(tasks[8].sparsifier, "LD");
  EXPECT_EQ(tasks[10].sparsifier, "SF");
  EXPECT_EQ(tasks[10].prune_rate, 0.0);
}

// ---------------------------------------------------------------------------
// Determinism of the full engine.

std::vector<BatchResult> RunGrid(int num_threads, uint64_t seed) {
  Rng gen(71);
  Graph g = BarabasiAlbert(150, 3, gen);
  SweepConfig config;
  config.sparsifiers = {"RN", "FF", "LD", "SF", "ER-uw"};
  config.prune_rates = {0.2, 0.5, 0.8};
  config.runs_nondeterministic = 3;
  config.seed = seed;
  BatchRunner runner(num_threads);
  return RunOneMetric(
      runner, g, BatchRunner::ExpandGrid(config), config.seed,
      [](const Graph& orig, const Graph& sp, Rng& rng) {
        // Exercise the metric rng so stream misuse would show up as drift.
        return static_cast<double>(sp.NumEdges()) /
                   static_cast<double>(orig.NumEdges()) +
               1e-12 * rng.NextDouble();
      });
}

void ExpectIdentical(const std::vector<BatchResult>& a,
                     const std::vector<BatchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].task.sparsifier, b[i].task.sparsifier);
    EXPECT_DOUBLE_EQ(a[i].task.prune_rate, b[i].task.prune_rate);
    EXPECT_EQ(a[i].task.run, b[i].task.run);
    // Bit-identical, not approximately equal (EXPECT_EQ on doubles is
    // exact; EXPECT_DOUBLE_EQ would tolerate 4 ULPs of drift).
    EXPECT_EQ(a[i].achieved_prune_rate, b[i].achieved_prune_rate);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(BatchRunnerTest, BitIdenticalAcrossThreadCounts) {
  auto one = RunGrid(1, 42);
  auto two = RunGrid(2, 42);
  auto eight = RunGrid(8, 42);
  ExpectIdentical(one, two);
  ExpectIdentical(one, eight);
}

TEST(BatchRunnerTest, BitIdenticalAcrossRepeatedRuns) {
  auto a = RunGrid(4, 1234);
  auto b = RunGrid(4, 1234);
  ExpectIdentical(a, b);
}

TEST(BatchRunnerTest, DifferentMasterSeedsDiffer) {
  auto a = RunGrid(2, 1);
  auto b = RunGrid(2, 2);
  ASSERT_EQ(a.size(), b.size());
  // The RN cells sample different edge subsets under a different master
  // seed; at least one metric value must move.
  bool any_differ = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].value != b[i].value) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(BatchRunnerTest, DirectedInputRoutedThroughSymmetrization) {
  Rng gen(72);
  Graph g = RMat(8, 900, 0.57, 0.19, 0.19, true, gen);
  SweepConfig config;
  config.sparsifiers = {"SF", "ER-uw", "RN"};  // SF/ER undirected-only
  config.prune_rates = {0.5};
  config.runs_nondeterministic = 1;
  BatchRunner runner(4);
  auto results = RunOneMetric(
      runner, g, BatchRunner::ExpandGrid(config), config.seed,
      [](const Graph& orig, const Graph& sp, Rng&) {
        // Undirected-only cells must see the symmetrized pair.
        EXPECT_EQ(orig.IsDirected(), sp.IsDirected());
        return static_cast<double>(sp.NumEdges()) /
               static_cast<double>(orig.NumEdges());
      });
  ASSERT_EQ(results.size(), 3u);
  for (const BatchResult& r : results) EXPECT_GT(r.value, 0.0);
}

TEST(BatchRunnerTest, TaskExceptionPropagatesFromRun) {
  Rng gen(73);
  Graph g = RMat(7, 300, 0.57, 0.19, 0.19, true, gen);
  SweepConfig config;
  config.sparsifiers = {"RN"};
  config.prune_rates = {0.5};
  config.runs_nondeterministic = 1;
  BatchRunner runner(2);
  EXPECT_THROW(RunOneMetric(runner, g, BatchRunner::ExpandGrid(config),
                            config.seed,
                            [](const Graph&, const Graph&, Rng&) -> double {
                              throw std::runtime_error("metric failed");
                            }),
               std::runtime_error);
}

}  // namespace
}  // namespace sparsify
