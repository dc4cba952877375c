// sparsify_cli driver: strict flag validation and the sweep/export/ls
// subcommands end-to-end against a temp store (the same paths the binary
// runs — RunSparsifyCli is the binary's main).
#include "src/cli/sparsify_cli.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/store/result_store.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

namespace fs = std::filesystem;
using testing_util::UniqueTestDir;

int RunCli(std::vector<std::string> args) {
  args.insert(args.begin(), "sparsify_cli");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return cli::RunSparsifyCli(static_cast<int>(argv.size()), argv.data());
}

TEST(CliTest, UnknownFlagIsAnErrorNotANoop) {
  // The classic typo: --thread instead of --threads must abort.
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--thread=8"}),
            0);
  EXPECT_NE(RunCli({"export", "--stor=/tmp/x"}), 0);
  EXPECT_NE(RunCli({"nonsense"}), 0);
}

TEST(CliTest, MalformedNumericValueIsAnError) {
  // A garbage value must abort, not silently parse as 0.
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--scale=abc"}),
            0);
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--runs=3x", "--scale=0.1"}),
            0);
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--rates=0.1,oops", "--scale=0.1"}),
            0);
}

TEST(CliTest, OutOfRangeScaleIsAnError) {
  // A scale that is not a finite positive vertex-count multiplier must
  // stop the run with an error before any graph is generated.
  auto sweep_stderr = [](const std::string& scale, int* rc) {
    ::testing::internal::CaptureStderr();
    *rc = RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                  "--algos=RN", "--runs=1", "--scale=" + scale});
    return ::testing::internal::GetCapturedStderr();
  };
  int rc = 0;
  for (const std::string scale : {"-1", "0", "nan", "0.2,ego-Facebook=-1"}) {
    std::string err = sweep_stderr(scale, &rc);
    EXPECT_EQ(rc, cli::kExitUsage) << scale;
    EXPECT_NE(err.find("error: --scale must be > 0"), std::string::npos)
        << scale << ": " << err;
  }
  // Positive but not a usable size: rejected by LoadDatasetScaled.
  for (const std::string scale : {"inf", "1e12"}) {
    std::string err = sweep_stderr(scale, &rc);
    EXPECT_EQ(rc, cli::kExitUsage) << scale;
    EXPECT_NE(err.find("error: dataset scale"), std::string::npos)
        << scale << ": " << err;
  }
  // figure: an explicit --scale is checked too, not replaced by each
  // figure's default.
  for (const std::string scale : {"-1", "0", "nan", "inf", "1e12"}) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(RunCli({"figure", "2", "--runs=1", "--scale=" + scale}),
              cli::kExitUsage)
        << scale;
    ::testing::internal::GetCapturedStderr();
  }
}

TEST(CliTest, ValueFlagWithoutValueIsAnError) {
  // `--store` with the value forgotten must not become a directory named
  // "true".
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--scale=0.1", "--store"}),
            0);
  EXPECT_FALSE(fs::exists("true"));
}

TEST(CliTest, ListSucceeds) {
  ::testing::internal::CaptureStdout();
  int rc = RunCli({"list"});
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("Sparsifiers"), std::string::npos);
  EXPECT_NE(out.find("Figures"), std::string::npos);
}

TEST(CliTest, BooleanFlagDoesNotSwallowPositionalArg) {
  // `figure --csv 2 1b` must run figures 2 and 1b, not consume "2" as
  // --csv's value; every listed id runs, in order.
  ::testing::internal::CaptureStdout();
  int rc = RunCli({"figure", "--csv", "2", "1b", "--runs=1", "--scale=0.1"});
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  size_t fig2 = out.find("Figure 2");
  size_t fig1b = out.find("Figure 1b");
  EXPECT_NE(fig2, std::string::npos);
  EXPECT_NE(fig1b, std::string::npos);
  EXPECT_LT(fig2, fig1b);
}

TEST(CliTest, SeedAboveIntMaxIsPreserved) {
  std::string dir = UniqueTestDir("bigseed_store");
  ASSERT_EQ(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--algos=SF", "--runs=1", "--scale=0.1",
                    "--seed=5000000000", "--store=" + dir}),
            0);
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"ls", "--store=" + dir}), 0);
  std::string ls = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(ls.find("seed=5000000000"), std::string::npos);
}

TEST(CliTest, UnknownMetricAndDatasetReportErrors) {
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=nope",
                    "--scale=0.1"}),
            0);
  EXPECT_NE(RunCli({"sweep", "--dataset=no-such-dataset", "--metric=degree",
                    "--scale=0.1"}),
            0);
}

TEST(CliTest, MetricsSubcommandListsRegistry) {
  ::testing::internal::CaptureStdout();
  int rc = RunCli({"metrics"});
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("spsp"), std::string::npos);
  EXPECT_NE(out.find("sampled"), std::string::npos);
  EXPECT_NE(out.find("deterministic"), std::string::npos);
  EXPECT_NE(out.find("kcore"), std::string::npos);
}

TEST(CliTest, MultiMetricSweepSharesSubgraphs) {
  // --metrics=a,b over one grid: units = 2 x cells, but each cell's
  // subgraph is built once (RN 3x2 + LD 3x1 = 9 cells on a 3-rate grid).
  ::testing::internal::CaptureStdout();
  int rc = RunCli({"sweep", "--dataset=ego-Facebook",
                   "--metrics=degree,kcore", "--algos=RN,LD",
                   "--rates=0.2,0.5,0.8", "--runs=2", "--scale=0.1",
                   "--csv"});
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("total=18"), std::string::npos);
  EXPECT_NE(out.find("submitted=18"), std::string::npos);
  EXPECT_NE(out.find("subgraph_builds=9"), std::string::npos);
  // One scoring pass per (sparsifier, run) group: RN x 2 runs + LD.
  EXPECT_NE(out.find("score_groups=3"), std::string::npos);
  // Both metrics' series are printed.
  EXPECT_NE(out.find("# degree on ego-Facebook@0.1"), std::string::npos);
  EXPECT_NE(out.find("# kcore on ego-Facebook@0.1"), std::string::npos);
  // --metric and --metrics together is an error.
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--metrics=kcore", "--scale=0.1"}),
            0);
}

TEST(CliTest, PaperPresetPinsRunsAndPerDatasetScaleOverrides) {
  // --paper defaults runs to 10 (RN alone: 9 rates x 10 runs = 90 cells);
  // the dataset/metric lists stay overridable, and --scale accepts
  // per-dataset overrides whose value lands in the dataset key.
  ::testing::internal::CaptureStdout();
  int rc = RunCli({"sweep", "--paper", "--dataset=ego-Facebook",
                   "--metrics=kcore", "--algos=RN", "--rates=0.2,0.5",
                   "--scale=0.2,ego-Facebook=0.1", "--csv"});
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("ego-Facebook@0.1"), std::string::npos);  // override
  EXPECT_NE(out.find("total=20"), std::string::npos);  // 2 rates x 10 runs
  // An override naming a dataset outside the sweep is a hard error.
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metrics=kcore",
                    "--scale=0.1,web-Google=0.2"}),
            0);
  // Without --paper, --dataset and --metrics stay required.
  EXPECT_NE(RunCli({"sweep", "--metrics=kcore", "--scale=0.1"}), 0);
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--scale=0.1"}), 0);
}

TEST(CliTest, SweepResumeExportLsEndToEnd) {
  const std::string store_dir = UniqueTestDir("cli_store");
  std::vector<std::string> sweep_args = {
      "sweep",       "--dataset=ego-Facebook", "--metric=degree",
      "--algos=RN",  "--runs=2",               "--scale=0.1",
      "--store=" + store_dir,                   "--resume",
      "--csv"};

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli(sweep_args), 0);
  std::string first = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(first.find("cached=0"), std::string::npos);
  EXPECT_NE(first.find("submitted=18"), std::string::npos);

  // Second run against the same store: everything cached, nothing
  // scheduled, identical CSV below the scheduling banner.
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli(sweep_args), 0);
  std::string second = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(second.find("cached=18"), std::string::npos);
  EXPECT_NE(second.find("submitted=0"), std::string::npos);
  EXPECT_EQ(first.substr(first.find('\n')), second.substr(second.find('\n')));

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"ls", "--store=" + store_dir}), 0);
  std::string ls = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(ls.find("cells: 18"), std::string::npos);
  EXPECT_NE(ls.find("ego-Facebook@0.1 degree"), std::string::npos);

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"export", "--store=" + store_dir}), 0);
  std::string exported = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(exported.find("sparsifier,prune_rate,achieved_prune_rate,value,"
                          "stddev,runs"),
            std::string::npos);
  EXPECT_NE(exported.find("RN,"), std::string::npos);

  EXPECT_NE(RunCli({"export", "--store=" + store_dir, "--format=bogus"}),
            0);
}

// Exit codes are the torture harness's (and CI's) contract: each failure
// class maps to a distinct documented code.
class CliExitCodeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("SPARSIFY_FAILPOINTS");
    fail::DisarmAll();
  }

  std::vector<std::string> SweepArgs(const std::string& dir) {
    return {"sweep",      "--dataset=ego-Facebook",
            "--metrics=degree,kcore", "--algos=RN",
            "--rates=0.5", "--runs=1",
            "--scale=0.1", "--store=" + dir,
            "--resume",    "--csv"};
  }
};

TEST_F(CliExitCodeTest, BusyStoreExitsWithLockHeldCode) {
  // Appending is cooperative since the lease protocol, so `ls` (and a
  // second sweep) proceed alongside a live writer; only exclusive
  // whole-store rewrites — compact — refuse with the busy exit code.
  std::string dir = UniqueTestDir("exit_lock_store");
  ResultStore holder(ResultStore::PathInDir(dir));
  holder.Append(
      CellKey{"ego-Facebook@0.1", "RN", 0.5, 0, 1234567u, "degree", "x"},
      0.5, 1.0);
  EXPECT_EQ(RunCli({"ls", "--store=" + dir}), cli::kExitOk);
  EXPECT_EQ(RunCli({"compact", "--store=" + dir}), cli::kExitLockHeld);
}

TEST_F(CliExitCodeTest, CorruptStoreExitsWithCorruptCode) {
  std::string dir = UniqueTestDir("exit_corrupt_store");
  ASSERT_EQ(RunCli(SweepArgs(dir)), cli::kExitOk);
  // Flip a digit inside the first record; the line stays terminated, so
  // replay must classify it as corruption, not a torn tail.
  std::vector<std::string> logs = testing_util::LogFiles(dir);
  ASSERT_EQ(logs.size(), 1u);
  const std::string& path = logs.front();
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  size_t pos = bytes.find("\"value\":") + 8;
  bytes[pos] = bytes[pos] == '2' ? '3' : '2';
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_EQ(RunCli({"ls", "--store=" + dir}), cli::kExitCorruptStore);
}

TEST_F(CliExitCodeTest, PermanentUnitFailuresExitWithUnitFailureCode) {
  std::string dir = UniqueTestDir("exit_perm_store");
  ASSERT_EQ(::setenv("SPARSIFY_FAILPOINTS",
                     "engine.metric_unit/degree=throw", 1),
            0);
  ::testing::internal::CaptureStdout();
  int rc = RunCli(SweepArgs(dir));
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, cli::kExitUnitFailures);
  EXPECT_NE(out.find("failed=1"), std::string::npos);

  // The failure-free metric completed and is in the store; the resume
  // (faults disarmed) submits only the failed unit and exits clean.
  ::unsetenv("SPARSIFY_FAILPOINTS");
  fail::DisarmAll();
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli(SweepArgs(dir)), cli::kExitOk);
  std::string healed = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(healed.find("submitted=1"), std::string::npos);
  EXPECT_NE(healed.find("cached=1"), std::string::npos);
}

TEST_F(CliExitCodeTest, AllTransientFailuresExitWithTransientCode) {
  std::string dir = UniqueTestDir("exit_trans_store");
  ASSERT_EQ(::setenv("SPARSIFY_FAILPOINTS",
                     "engine.metric_unit=throw-transient", 1),
            0);
  EXPECT_EQ(RunCli(SweepArgs(dir)), cli::kExitTransientFailures);
}

TEST_F(CliExitCodeTest, CompactSubcommandShrinksAndKeepsExport) {
  std::string dir = UniqueTestDir("exit_compact_store");
  // Two passes without --resume: every cell recomputed and re-appended,
  // so the log carries superseded records for compact to drop.
  std::vector<std::string> args = SweepArgs(dir);
  args.erase(std::find(args.begin(), args.end(), "--resume"));
  ASSERT_EQ(RunCli(args), cli::kExitOk);
  ASSERT_EQ(RunCli(args), cli::kExitOk);

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"export", "--store=" + dir}), cli::kExitOk);
  std::string before = ::testing::internal::GetCapturedStdout();

  const auto bytes_before = testing_util::LogBytes(dir);
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"compact", "--store=" + dir}), cli::kExitOk);
  std::string compact_out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(compact_out.find("compacted"), std::string::npos);
  EXPECT_LT(testing_util::LogBytes(dir), bytes_before);

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"export", "--store=" + dir}), cli::kExitOk);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), before);

  EXPECT_EQ(RunCli({"compact"}), cli::kExitUsage);  // --store required
}

TEST_F(CliExitCodeTest, MergeFoldsShardStoresIntoColdEquivalent) {
  // Two disjoint half-sweeps (different rates) into separate stores,
  // merged, must export exactly like one store that ran the full grid.
  std::string full = UniqueTestDir("merge_full");
  ASSERT_EQ(RunCli({"sweep", "--dataset=ego-Facebook", "--metrics=degree",
                    "--algos=RN", "--rates=0.3,0.6", "--runs=1",
                    "--scale=0.1", "--store=" + full}),
            cli::kExitOk);
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"export", "--store=" + full}), cli::kExitOk);
  const std::string want = ::testing::internal::GetCapturedStdout();

  std::string a = UniqueTestDir("merge_a");
  std::string b = UniqueTestDir("merge_b");
  ASSERT_EQ(RunCli({"sweep", "--dataset=ego-Facebook", "--metrics=degree",
                    "--algos=RN", "--rates=0.3", "--runs=1", "--scale=0.1",
                    "--store=" + a}),
            cli::kExitOk);
  ASSERT_EQ(RunCli({"sweep", "--dataset=ego-Facebook", "--metrics=degree",
                    "--algos=RN", "--rates=0.6", "--runs=1", "--scale=0.1",
                    "--store=" + b}),
            cli::kExitOk);

  std::string out = UniqueTestDir("merge_out");
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"merge", a, b, "-o", out}), cli::kExitOk);
  std::string merge_out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(merge_out.find("merged 2 store(s)"), std::string::npos);

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"export", "--store=" + out}), cli::kExitOk);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), want);

  // Merging is idempotent: folding the same inputs again (--out flag
  // spelling) changes nothing.
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"merge", a, b, "--out=" + out}), cli::kExitOk);
  ::testing::internal::GetCapturedStdout();
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"export", "--store=" + out}), cli::kExitOk);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), want);

  // Usage and IO errors: no inputs / missing output / absent input dir.
  EXPECT_EQ(RunCli({"merge", "-o", out}), cli::kExitUsage);
  EXPECT_EQ(RunCli({"merge", a}), cli::kExitUsage);
  EXPECT_EQ(RunCli({"merge", a + "_no_such_dir", "-o", out}), cli::kExitIo);
}

TEST_F(CliExitCodeTest, MergePrefersSuccessOverErrorRecords) {
  // Store A holds an error record for a unit that store B completed:
  // the merged store must carry B's success no matter the input order.
  std::string a = UniqueTestDir("merge_err_a");
  ASSERT_EQ(::setenv("SPARSIFY_FAILPOINTS",
                     "engine.metric_unit/degree=throw", 1),
            0);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli(SweepArgs(a)), cli::kExitUnitFailures);
  ::testing::internal::GetCapturedStdout();
  ::unsetenv("SPARSIFY_FAILPOINTS");
  fail::DisarmAll();

  std::string b = UniqueTestDir("merge_err_b");
  ASSERT_EQ(RunCli(SweepArgs(b)), cli::kExitOk);

  for (const std::vector<std::string>& order :
       {std::vector<std::string>{a, b}, std::vector<std::string>{b, a}}) {
    std::string out = UniqueTestDir("merge_err_out");
    ::testing::internal::CaptureStdout();
    ASSERT_EQ(RunCli({"merge", order[0], order[1], "-o", out}),
              cli::kExitOk);
    std::string merge_out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(merge_out.find("unresolved error"), std::string::npos)
        << merge_out;
    ResultStoreOptions snapshot;
    snapshot.read_only = true;
    ResultStore merged(ResultStore::PathInDir(out), snapshot);
    EXPECT_EQ(merged.ErrorCount(), 0u);
    EXPECT_EQ(merged.Size(), 2u);  // degree + kcore cells, errors resolved
  }
}

}  // namespace
}  // namespace sparsify
