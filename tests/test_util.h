// Shared helpers for tests. Every test that opens a result store gets its
// own directory, keyed by test name and process id, so tests running in
// parallel (ctest -j) or repeatedly never see each other's segments,
// leases, or lock files. Engine tests run single-metric grids through
// RunOneMetric.
#ifndef SPARSIFY_TESTS_TEST_UTIL_H_
#define SPARSIFY_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/engine/batch_runner.h"

namespace sparsify::testing_util {

/// TempDir()/<suite>.<test>.<pid>/<name>, removed and created fresh.
inline std::string UniqueTestDir(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');  // parameterized names
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (test + "." + std::to_string(::getpid())) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// The store's log files in `dir` — `results.jsonl` and every
/// `log.*.jsonl` segment — sorted by path.
inline std::vector<std::string> LogFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const bool segment = name.rfind("log.", 0) == 0 && name.size() > 10 &&
                         name.compare(name.size() - 6, 6, ".jsonl") == 0;
    if (segment || name == "results.jsonl") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Total bytes of the store's log files in `dir`.
inline uintmax_t LogBytes(const std::string& dir) {
  uintmax_t bytes = 0;
  for (const std::string& file : LogFiles(dir)) {
    bytes += std::filesystem::file_size(file);
  }
  return bytes;
}

/// Runs `tasks` through BatchRunner::RunTasksMulti with the single metric
/// `fn`, named "metric" on dataset "test" (the MetricSeed identity), and
/// returns one result per task in `tasks` order.
inline std::vector<BatchResult> RunOneMetric(
    const BatchRunner& runner, const Graph& g,
    const std::vector<BatchTask>& tasks, uint64_t master_seed,
    const BatchMetricFn& fn, BatchRunStats* stats = nullptr) {
  std::vector<BatchMultiResult> multi =
      runner.RunTasksMulti(g, "test", tasks, master_seed,
                           {BatchMetric{"metric", fn}}, nullptr, stats);
  std::vector<BatchResult> out(multi.size());
  for (size_t i = 0; i < multi.size(); ++i) {
    out[i].task = multi[i].task;
    out[i].achieved_prune_rate = multi[i].achieved_prune_rate;
    out[i].value = multi[i].values[0].value;
    out[i].resolved = !multi[i].values[0].failed;
  }
  return out;
}

}  // namespace sparsify::testing_util

#endif  // SPARSIFY_TESTS_TEST_UTIL_H_
