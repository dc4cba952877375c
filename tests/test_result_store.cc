// ResultStore: JSONL round-trip, replay semantics, and the crash-recovery
// contract — a log truncated anywhere inside its last record must replay
// to exactly the fully-written cells, never throw, and stay appendable.
#include "src/store/result_store.h"

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "gtest/gtest.h"
#include "src/util/errors.h"
#include "src/util/lease.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

namespace fs = std::filesystem;
using testing_util::LogFiles;
using testing_util::UniqueTestDir;

// The base-file path of a fresh store directory unique to this test.
std::string StorePath(const std::string& name) {
  return ResultStore::PathInDir(UniqueTestDir(name));
}

// The one log file a single writer session left in `path`'s directory.
std::string OnlyLogFile(const std::string& path) {
  std::vector<std::string> files =
      LogFiles(fs::path(path).parent_path().string());
  EXPECT_EQ(files.size(), 1u);
  return files.empty() ? std::string() : files.front();
}

// The pid of a child that already exited and was reaped: provably dead.
long DeadPid() {
  const pid_t pid = ::fork();
  if (pid == 0) std::_Exit(0);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return static_cast<long>(pid);
}

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

CellKey MakeKey(const std::string& sparsifier, double rate, int run) {
  CellKey key;
  key.dataset = "test-ds@0.5";
  key.sparsifier = sparsifier;
  key.prune_rate = rate;
  key.run = run;
  key.master_seed = 42;
  key.metric = "degree";
  key.code_rev = "test-rev";
  return key;
}

TEST(ResultStoreTest, MissingFileIsEmptyStore) {
  std::string path = StorePath("missing_store");
  ResultStore store(path);
  EXPECT_EQ(store.Size(), 0u);
  EXPECT_FALSE(store.Contains(MakeKey("RN", 0.1, 0)));
}

TEST(ResultStoreTest, AppendLookupRoundTrip) {
  std::string path = StorePath("roundtrip_store");
  {
    ResultStore store(path);
    store.Append(MakeKey("RN", 0.1, 0), 0.1002, 0.123456789012345678);
    store.Append(MakeKey("RN", 0.1, 1), 0.1002, -3.5e-12);
    store.Append(MakeKey("LD", 0.9, 0), 0.9, 17.0);
    EXPECT_EQ(store.Size(), 3u);
  }
  // Replay from disk: exact double round-trip and key identity.
  ResultStore replayed(path);
  EXPECT_EQ(replayed.Size(), 3u);
  auto cell = replayed.Lookup(MakeKey("RN", 0.1, 0));
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->value, 0.123456789012345678);
  EXPECT_EQ(cell->achieved_prune_rate, 0.1002);
  cell = replayed.Lookup(MakeKey("RN", 0.1, 1));
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->value, -3.5e-12);
  EXPECT_FALSE(replayed.Contains(MakeKey("RN", 0.2, 0)));
  EXPECT_EQ(replayed.DroppedTailBytes(), 0u);
}

TEST(ResultStoreTest, NonFiniteValuesRoundTrip) {
  std::string path = StorePath("nonfinite_store");
  {
    ResultStore store(path);
    store.Append(MakeKey("RN", 0.1, 0), 0.1,
                 std::numeric_limits<double>::infinity());
  }
  ResultStore replayed(path);
  auto cell = replayed.Lookup(MakeKey("RN", 0.1, 0));
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->value, std::numeric_limits<double>::infinity());
}

TEST(ResultStoreTest, DuplicateKeyLastWriteWins) {
  std::string path = StorePath("dup_store");
  {
    ResultStore store(path);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 2.0);
    EXPECT_EQ(store.Size(), 1u);
    EXPECT_EQ(store.Lookup(MakeKey("RN", 0.1, 0))->value, 2.0);
  }
  ResultStore replayed(path);
  EXPECT_EQ(replayed.Size(), 1u);
  EXPECT_EQ(replayed.Lookup(MakeKey("RN", 0.1, 0))->value, 2.0);
  EXPECT_EQ(replayed.Cells().size(), 1u);
}

TEST(ResultStoreTest, EscapedStringsRoundTrip) {
  std::string path = StorePath("escape_store");
  CellKey key = MakeKey("RN", 0.5, 0);
  key.dataset = "odd \"name\"\twith\\escapes\n";
  {
    ResultStore store(path);
    store.Append(key, 0.5, 1.0);
  }
  ResultStore replayed(path);
  EXPECT_TRUE(replayed.Contains(key));
  EXPECT_EQ(replayed.Cells()[0].key.dataset, key.dataset);
}

TEST(ResultStoreTest, BadHeaderIsFatal) {
  std::string path = StorePath("badheader_store");
  WriteFile(path, "{\"format\":\"something-else\",\"version\":1}\n");
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
  WriteFile(path, "not json at all\n");
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
}

TEST(ResultStoreTest, UnsupportedVersionIsFatal) {
  std::string path = StorePath("version_store");
  WriteFile(path, "{\"format\":\"sparsify-result-store\",\"version\":99}\n");
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
}

TEST(ResultStoreTest, MidFileCorruptionIsFatal) {
  std::string path = StorePath("corrupt_store");
  {
    ResultStore store(path);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
    store.Append(MakeKey("RN", 0.2, 0), 0.2, 2.0);
  }
  const std::string log = OnlyLogFile(path);
  std::string content = ReadFile(log);
  // Corrupt the FIRST record (a complete, newline-terminated line): that is
  // not a crash artifact, and replay must refuse rather than guess.
  size_t first_record = content.find('\n') + 1;
  content[first_record + 5] = '\x01';
  WriteFile(log, content);
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
}

// The crash-simulation contract: truncating a log file at EVERY byte
// boundary of its last record must (a) never throw, (b) recover exactly
// the fully-written records, and (c) leave the store appendable. One rule
// covers every writerless file: a legacy base file, and the segment of a
// writer whose lease names a dead pid.
TEST(ResultStoreTest, TruncationAtEveryByteOfLastRecordRecovers) {
  std::string path = StorePath("crash_store");
  {
    ResultStore store(path);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.5);
    store.Append(MakeKey("RN", 0.2, 0), 0.2, 2.5);
    store.Append(MakeKey("LD", 0.3, 0), 0.3, 3.5);
  }
  std::string content = ReadFile(OnlyLogFile(path));
  ASSERT_EQ(content.back(), '\n');
  // Start of the last record line.
  size_t last_start = content.rfind('\n', content.size() - 2) + 1;
  size_t last_json_end = content.size() - 1;  // position of closing newline

  const std::string dead_writer = lease::NewWriterId();
  const long dead_pid = DeadPid();
  for (const bool legacy_base : {true, false}) {
    for (size_t cut = last_start; cut <= content.size(); ++cut) {
      std::string prefix = content.substr(0, cut);
      std::string trial = StorePath("crash_trial");
      const std::string trial_dir = fs::path(trial).parent_path().string();
      if (legacy_base) {
        WriteFile(trial, prefix);
      } else {
        WriteFile(trial_dir + "/log." + dead_writer + ".0.jsonl", prefix);
        lease::LeaseInfo dead;
        dead.writer = dead_writer;
        dead.pid = dead_pid;
        lease::WriteLease(trial_dir, dead);
      }
      const std::string where = std::string(legacy_base ? "base" : "segment") +
                                " cut=" + std::to_string(cut);

      // (a) replay never throws, (b) exact prefix of records recovered. A
      // cut at or past the final '}' leaves a complete record that merely
      // lost its newline; it must be recovered too.
      size_t expected = cut >= last_json_end ? 3u : 2u;
      {
        ResultStore store(trial);
        EXPECT_EQ(store.Size(), expected) << where;
        EXPECT_TRUE(store.Contains(MakeKey("RN", 0.1, 0))) << where;
        EXPECT_TRUE(store.Contains(MakeKey("RN", 0.2, 0))) << where;
        EXPECT_EQ(store.Contains(MakeKey("LD", 0.3, 0)), expected == 3u)
            << where;
        if (expected == 2u) {
          EXPECT_EQ(store.DroppedTailBytes(), cut - last_start) << where;
        }

        // (c) the writable open sealed the file: a fresh replay sees the
        // recovered records plus the new one, and no torn bytes remain.
        store.Append(MakeKey("GS", 0.4, 0), 0.4, 4.5);
      }
      ResultStore reopened(trial);
      EXPECT_EQ(reopened.Size(), expected + 1) << where;
      EXPECT_EQ(reopened.DroppedTailBytes(), 0u) << where;
      EXPECT_EQ(reopened.Lookup(MakeKey("GS", 0.4, 0))->value, 4.5) << where;
    }
  }
}

// A crash can also tear the header of a brand-new store; that must behave
// like an empty store and be repaired by the first append.
TEST(ResultStoreTest, TornHeaderOnlyFileRecoversEmpty) {
  std::string path = StorePath("tornheader_store");
  WriteFile(path, "{\"format\":\"sparsify-re");  // no newline: torn tail
  {
    ResultStore store(path);
    EXPECT_EQ(store.Size(), 0u);
    EXPECT_GT(store.DroppedTailBytes(), 0u);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
  }
  ResultStore reopened(path);
  EXPECT_EQ(reopened.Size(), 1u);
  EXPECT_EQ(reopened.DroppedTailBytes(), 0u);
}

TEST(ResultStoreTest, PathInDirCreatesNestedDirectory) {
  std::string dir = (fs::path(UniqueTestDir("store_dir")) / "nested").string();
  {
    ResultStore store(ResultStore::PathInDir(dir));
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
  }
  ResultStore reopened(ResultStore::PathInDir(dir));
  EXPECT_EQ(reopened.Size(), 1u);
  EXPECT_EQ(reopened.Path(),
            (fs::path(dir) / ResultStore::DefaultFileName()).string());
}

#if defined(__unix__) || defined(__APPLE__)
TEST(ResultStoreTest, SecondWriterCoexistsAndRecordsMerge) {
  // Locking went cooperative: a second open takes its own lease and its
  // own segment file instead of failing with "locked by another
  // process". Each writer sees its peer's records (after RefreshPeers or
  // a fresh replay), and neither disturbs the other.
  const std::string parent = UniqueTestDir("stores");
  const std::string dir = parent + "/coop";
  std::string path = ResultStore::PathInDir(dir);
  ResultStore store(path);
  store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);

  {
    ResultStore second(path);
    EXPECT_NE(second.WriterId(), store.WriterId());
    // The peer's record replayed into the second writer's view.
    EXPECT_EQ(second.Size(), 1u);
    second.Append(MakeKey("RN", 0.2, 0), 0.2, 2.0);
    EXPECT_EQ(second.Size(), 2u);

    // A store is its directory: a sibling store under the same parent
    // sees none of the two live writers' cells, and no other file name
    // in the directory opens a store at all.
    ResultStore sibling(ResultStore::PathInDir(parent + "/sibling"));
    EXPECT_EQ(sibling.Size(), 0u);
    EXPECT_EQ(sibling.SegmentCount(), 0u);
    EXPECT_THROW(ResultStore{dir + "/other.jsonl"}, std::invalid_argument);

    // The first writer's view is untouched until it polls its peers.
    EXPECT_EQ(store.Size(), 1u);
    store.RefreshPeers();
    EXPECT_EQ(store.Size(), 2u);
    EXPECT_EQ(store.Lookup(MakeKey("RN", 0.2, 0))->value, 2.0);

    // Exclusive operations refuse while the other writer is live.
    EXPECT_THROW(store.Compact(), StoreLockHeldError);
  }
  // Second writer closed cleanly: exclusivity is available again and the
  // compacted base folds both writers' records together.
  CompactStats stats = store.Compact();
  EXPECT_EQ(stats.records_after, 2u);
  ResultStore replayed(path);
  EXPECT_EQ(replayed.Size(), 2u);
  EXPECT_EQ(replayed.Lookup(MakeKey("RN", 0.1, 0))->value, 1.0);
  EXPECT_EQ(replayed.Lookup(MakeKey("RN", 0.2, 0))->value, 2.0);
}

TEST(ResultStoreTest, LeaseReleasesOnCloseAndOnFailedOpen) {
  std::string path = StorePath("relock_store");
  {
    ResultStore store(path);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
  }
  // Closed cleanly: reopening succeeds.
  { ResultStore reopened(path); EXPECT_EQ(reopened.Size(), 1u); }

  // A constructor that throws during replay (corrupt mid-file) must also
  // release the lock, or the path would wedge for the whole process.
  std::string bad = StorePath("relock_corrupt");
  std::string content = ReadFile(OnlyLogFile(path));
  size_t header_end = content.find('\n') + 1;
  WriteFile(bad, content.substr(0, header_end) + "not json\n" +
                     content.substr(header_end));
  EXPECT_THROW(ResultStore{bad}, std::runtime_error);
  WriteFile(bad, content);  // repair the file; the lock must be free
  ResultStore recovered(bad);
  EXPECT_EQ(recovered.Size(), 1u);
}
#endif

TEST(ResultStoreTest, CodeRevBumpNeverReusesOldCells) {
  // PR 3 moved randomized sparsifiers to shared per-(sparsifier, run) seed
  // streams — a numeric change, isolated behind the kResultCodeRev bump:
  // cells computed by the r1 pipeline must be cache misses for this
  // binary, never silently mixed with r2 values.
  ASSERT_STRNE(kResultCodeRev, "r1");
  std::string path = StorePath("code_rev_store");
  ResultStore store(path);

  CellKey old_rev = MakeKey("RN", 0.1, 0);
  old_rev.code_rev = "r1";
  store.Append(old_rev, 0.1, 3.25);

  CellKey current = MakeKey("RN", 0.1, 0);
  current.code_rev = kResultCodeRev;
  EXPECT_FALSE(store.Contains(current));
  EXPECT_FALSE(store.Lookup(current).has_value());
  // The old cell itself is still addressable under its own revision.
  EXPECT_TRUE(store.Contains(old_rev));

  // Both revisions coexist after this binary appends its own value.
  store.Append(current, 0.1, 4.5);
  EXPECT_EQ(store.Size(), 2u);
  EXPECT_EQ(store.Lookup(current)->value, 4.5);
  EXPECT_EQ(store.Lookup(old_rev)->value, 3.25);
}

TEST(ResultStoreTest, StaleRevCellsNeverSatisfyCurrentLookups) {
  // PR 4 moved sampled-metric RNG from (master_seed, cell index) to the
  // MetricSeed identity stream (r2 -> r3); the multi-process store PR
  // then dropped grid_index from the key entirely (r3 -> r4). Either
  // way, a store full of old-revision cells must not serve a single one
  // of them to the current pipeline (not even for rng-free metrics —
  // revisions are keyed wholesale, not per metric).
  ASSERT_STREQ(kResultCodeRev, "r4");
  std::string path = StorePath("r2_r3_store");
  ResultStore store(path);

  for (double rate : {0.1, 0.5, 0.9}) {
    CellKey r2 = MakeKey("LD", rate, 0);
    r2.code_rev = "r2";
    store.Append(r2, rate, 1.0);
  }
  EXPECT_EQ(store.Size(), 3u);
  for (double rate : {0.1, 0.5, 0.9}) {
    CellKey current = MakeKey("LD", rate, 0);
    current.code_rev = kResultCodeRev;
    EXPECT_FALSE(store.Contains(current));
    EXPECT_FALSE(store.Lookup(current).has_value());
  }
}

TEST(CellKeyTest, CanonicalDistinguishesEveryField) {
  CellKey base = MakeKey("RN", 0.1, 0);
  CellKey other = base;
  EXPECT_EQ(base.Canonical(), other.Canonical());
  other = base;
  other.dataset = "x";
  EXPECT_NE(base.Canonical(), other.Canonical());
  other = base;
  other.sparsifier = "LD";
  EXPECT_NE(base.Canonical(), other.Canonical());
  other = base;
  other.prune_rate = 0.1 + 1e-15;
  EXPECT_NE(base.Canonical(), other.Canonical());
  other = base;
  other.run = 1;
  EXPECT_NE(base.Canonical(), other.Canonical());
  other = base;
  other.master_seed = 43;
  EXPECT_NE(base.Canonical(), other.Canonical());
  other = base;
  other.metric = "mcc";
  EXPECT_NE(base.Canonical(), other.Canonical());
  other = base;
  other.code_rev = "r2";
  EXPECT_NE(base.Canonical(), other.Canonical());
}

}  // namespace
}  // namespace sparsify
