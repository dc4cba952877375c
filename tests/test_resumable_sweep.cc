// ResumableSweep: a sweep interrupted mid-run and resumed must reproduce
// the cold run bit-identically, submit only the missing cells to the
// engine (scheduling-count hook), and export byte-identical CSV.
#include "src/engine/resumable_sweep.h"

#include <fstream>
#include <sstream>

#include "gtest/gtest.h"
#include "src/cli/store_export.h"
#include "src/graph/datasets.h"
#include "src/metrics/basic.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

using testing_util::RunOneMetric;
using testing_util::UniqueTestDir;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// A metric that consumes the per-cell RNG stream, so any drift in cell
// seeding between cold and resumed runs changes the value.
MetricFn SampledMetric() {
  return [](const Graph& g, const Graph& h, Rng& rng) {
    return QuadraticFormSimilarity(g, h, 5, rng);
  };
}

SweepConfig TestConfig() {
  SweepConfig config;
  config.sparsifiers = {"RN", "LD", "SF"};
  config.runs_nondeterministic = 3;
  config.seed = 123;
  return config;
}

void ExpectSeriesBitIdentical(const std::vector<SweepSeries>& a,
                              const std::vector<SweepSeries>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].sparsifier, b[s].sparsifier);
    ASSERT_EQ(a[s].points.size(), b[s].points.size());
    for (size_t p = 0; p < a[s].points.size(); ++p) {
      // EXPECT_EQ, not NEAR: the contract is bit-identical doubles.
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

class ResumableSweepTest : public ::testing::Test {
 protected:
  ResumableSweepTest()
      : graph_(LoadDatasetScaled("ego-Facebook", 0.1).graph), runner_(2) {}

  Graph graph_;
  BatchRunner runner_;
};

TEST_F(ResumableSweepTest, SubsetRunMatchesFullGridSeeds) {
  // Engine-level guarantee the resume path relies on: running a subset of
  // the grid (odd positions) computes the same values as the full run.
  SweepConfig config = TestConfig();
  MetricFn metric = SampledMetric();
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(config);
  std::vector<BatchResult> full =
      RunOneMetric(runner_, graph_, tasks, config.seed, metric);
  std::vector<BatchTask> odd;
  for (size_t i = 1; i < tasks.size(); i += 2) odd.push_back(tasks[i]);
  std::vector<BatchResult> subset =
      RunOneMetric(runner_, graph_, odd, config.seed, metric);
  ASSERT_EQ(subset.size(), odd.size());
  for (size_t j = 0; j < subset.size(); ++j) {
    // Subset entry j is grid position 2j + 1.
    EXPECT_EQ(subset[j].task.sparsifier, odd[j].sparsifier);
    EXPECT_EQ(subset[j].value, full[2 * j + 1].value);
    EXPECT_EQ(subset[j].achieved_prune_rate,
              full[2 * j + 1].achieved_prune_rate);
  }
}

TEST_F(ResumableSweepTest, WarmStoreSubmitsZeroCells) {
  std::string dir = UniqueTestDir("warm_store");
  ResultStore store(ResultStore::PathInDir(dir));
  SweepConfig config = TestConfig();
  MetricFn metric = SampledMetric();

  ResumableSweep sweep(runner_, &store, "test-rev");
  ResumableSweepStats first_stats;
  auto first = sweep.Run(graph_, "fb@0.1", "quad5", config, metric,
                         &first_stats);
  size_t total = BatchRunner::ExpandGrid(config).size();
  EXPECT_EQ(first_stats.total_cells, total);
  EXPECT_EQ(first_stats.cached_cells, 0u);
  EXPECT_EQ(first_stats.submitted_cells, total);

  ResumableSweepStats second_stats;
  auto second = sweep.Run(graph_, "fb@0.1", "quad5", config, metric,
                          &second_stats);
  EXPECT_EQ(second_stats.cached_cells, total);
  EXPECT_EQ(second_stats.submitted_cells, 0u);
  ExpectSeriesBitIdentical(first, second);

  // A different config dimension (seed, metric name, dataset) is a miss.
  SweepConfig other_seed = config;
  other_seed.seed = 999;
  ResumableSweepStats other_stats;
  sweep.Run(graph_, "fb@0.1", "quad5", other_seed, metric, &other_stats);
  EXPECT_EQ(other_stats.cached_cells, 0u);
}

TEST_F(ResumableSweepTest, InterruptedThenResumedIsBitIdenticalToColdRun) {
  SweepConfig config = TestConfig();
  MetricFn metric = SampledMetric();

  // Cold baseline: the same sweep with no store involved at all.
  ResumableSweep cold_sweep(runner_, nullptr, "test-rev");
  std::vector<SweepSeries> cold =
      cold_sweep.Run(graph_, "fb@0.1", "quad5", config, metric);

  // Uninterrupted store-backed run -> store A.
  std::string dir_a = UniqueTestDir("cold_store");
  ResultStore store_a(ResultStore::PathInDir(dir_a));
  {
    ResumableSweep sweep(runner_, &store_a, "test-rev");
    auto series = sweep.Run(graph_, "fb@0.1", "quad5", config, metric);
    ExpectSeriesBitIdentical(cold, series);
  }

  // Simulate a crash after roughly half the cells: store B's log is store
  // A's header + first half of its records + a torn fragment of the next.
  const std::vector<std::string> logs_a = testing_util::LogFiles(dir_a);
  ASSERT_EQ(logs_a.size(), 1u);
  std::string content = ReadFile(logs_a.front());
  std::vector<size_t> line_starts;
  for (size_t pos = 0; pos < content.size();) {
    line_starts.push_back(pos);
    pos = content.find('\n', pos) + 1;
  }
  size_t num_records = line_starts.size() - 1;  // minus header
  ASSERT_GT(num_records, 4u);
  size_t keep_records = num_records / 2;
  size_t keep_end = line_starts[1 + keep_records];
  std::string torn = content.substr(0, keep_end + 25);  // mid-next-record
  ASSERT_LT(keep_end + 25, content.size());

  std::string dir_b = UniqueTestDir("resume_store");
  std::string path_b = ResultStore::PathInDir(dir_b);
  WriteFile(path_b, torn);

  // Resume: replay must drop the torn record, schedule exactly the missing
  // cells, and reassemble the cold-run series bit-identically.
  ResultStore store_b(path_b);
  EXPECT_EQ(store_b.Size(), keep_records);
  size_t total = BatchRunner::ExpandGrid(config).size();
  ResumableSweep sweep(runner_, &store_b, "test-rev");
  ResumableSweepStats stats;
  std::vector<SweepSeries> resumed =
      sweep.Run(graph_, "fb@0.1", "quad5", config, metric, &stats);
  EXPECT_EQ(stats.total_cells, total);
  EXPECT_EQ(stats.cached_cells, keep_records);
  EXPECT_EQ(stats.submitted_cells, total - keep_records);
  ExpectSeriesBitIdentical(cold, resumed);

  // The acceptance criterion: exported CSV byte-identical between the
  // uninterrupted and the interrupted+resumed store.
  std::ostringstream csv_a, csv_b;
  cli::ExportStore(store_a, csv_a, /*csv=*/true);
  cli::ExportStore(store_b, csv_b, /*csv=*/true);
  EXPECT_GT(csv_a.str().size(), 0u);
  EXPECT_EQ(csv_a.str(), csv_b.str());

  // And a second resume schedules nothing.
  ResumableSweepStats again;
  sweep.Run(graph_, "fb@0.1", "quad5", config, metric, &again);
  EXPECT_EQ(again.submitted_cells, 0u);
}

TEST_F(ResumableSweepTest, DifferentGridShapeReusesCells) {
  // Since r4 the CellKey carries no grid position: the same (sparsifier,
  // rate, run) under a different --algos list is the SAME cell. This is
  // safe because every RNG stream has been grid-shape independent
  // (GroupSeed + MetricSeed) since r3, and it is load-bearing for
  // sharding — shard workers partition different task subsets but must
  // agree on every unit's identity. This test pins the reuse contract.
  std::string dir = UniqueTestDir("gridshape_store");
  ResultStore store(ResultStore::PathInDir(dir));
  MetricFn metric = SampledMetric();

  SweepConfig two_algos = TestConfig();
  two_algos.sparsifiers = {"LD", "RN"};
  ResumableSweep sweep(runner_, &store, "test-rev");
  sweep.Run(graph_, "fb@0.1", "quad5", two_algos, metric);

  SweepConfig rn_only = TestConfig();
  rn_only.sparsifiers = {"RN"};  // subset grid: every RN cell is cached
  ResumableSweepStats stats;
  std::vector<SweepSeries> resumed =
      sweep.Run(graph_, "fb@0.1", "quad5", rn_only, metric, &stats);
  EXPECT_EQ(stats.submitted_cells, 0u);
  EXPECT_EQ(stats.cached_cells, stats.total_cells);
  // The cached fold matches a cold RN-only sweep bit-for-bit — the
  // grid-shape-independent streams are what make the reuse sound.
  ResumableSweep cold_sweep(runner_, nullptr, "test-rev");
  ExpectSeriesBitIdentical(
      cold_sweep.Run(graph_, "fb@0.1", "quad5", rn_only, metric), resumed);

  // Re-running the superset grid is also fully cached.
  sweep.Run(graph_, "fb@0.1", "quad5", two_algos, metric, &stats);
  EXPECT_EQ(stats.submitted_cells, 0u);

  // One store cell per (sparsifier, rate, run): the export's RN series
  // folds exactly the RN-only grid's cells, run counts not inflated.
  std::vector<cli::StoreGroup> groups = cli::RebuildSeries(store);
  ASSERT_EQ(groups.size(), 1u);
  const SweepSeries* rn_series = nullptr;
  for (const SweepSeries& s : groups[0].series) {
    if (s.sparsifier == "RN") rn_series = &s;
  }
  ASSERT_NE(rn_series, nullptr);
  for (const SweepPoint& p : rn_series->points) {
    EXPECT_EQ(p.runs, 3);  // not 6
  }
  ExpectSeriesBitIdentical({resumed[0]}, {*rn_series});
}

TEST_F(ResumableSweepTest, WriteOnlyModeRecomputesButPersists) {
  std::string dir = UniqueTestDir("writeonly_store");
  ResultStore store(ResultStore::PathInDir(dir));
  SweepConfig config = TestConfig();
  MetricFn metric = SampledMetric();
  size_t total = BatchRunner::ExpandGrid(config).size();

  ResumableSweep sweep(runner_, &store, "test-rev");
  sweep.set_reuse_cached(false);
  ResumableSweepStats stats;
  sweep.Run(graph_, "fb@0.1", "quad5", config, metric, &stats);
  EXPECT_EQ(stats.submitted_cells, total);
  sweep.Run(graph_, "fb@0.1", "quad5", config, metric, &stats);
  EXPECT_EQ(stats.submitted_cells, total);  // never consults the store
  EXPECT_EQ(store.Size(), total);           // but everything is persisted
}

TEST_F(ResumableSweepTest, NullStoreRunsCold) {
  // A null store computes every cell and writes nothing — and its output
  // is bit-identical to a store-backed cold run of the same named sweep.
  ResumableSweep sweep(runner_, nullptr, "test-rev");
  SweepConfig config = TestConfig();
  MetricFn metric = SampledMetric();
  ResumableSweepStats stats;
  auto series = sweep.Run(graph_, "fb@0.1", "quad5", config, metric, &stats);
  EXPECT_EQ(stats.cached_cells, 0u);

  std::string dir = UniqueTestDir("nullstore_ref");
  ResultStore store(ResultStore::PathInDir(dir));
  ResumableSweep backed(runner_, &store, "test-rev");
  ExpectSeriesBitIdentical(
      backed.Run(graph_, "fb@0.1", "quad5", config, metric), series);
}

}  // namespace
}  // namespace sparsify
