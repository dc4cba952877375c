// Observability layer: sharded counters/histograms, span tracer and its
// Chrome-trace export, pool stats, progress callbacks, and — the contract
// that lets the instrumentation stay always-on — proof that none of it
// perturbs sweep output (thread-count-independent counter totals,
// byte-identical CSV with tracing on vs off).
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/cli/store_export.h"
#include "src/engine/batch_runner.h"
#include "src/engine/resumable_sweep.h"
#include "src/graph/datasets.h"
#include "src/metrics/basic.h"
#include "src/obs/counters.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

using testing_util::UniqueTestDir;

// ---------------------------------------------------------------------
// Minimal JSON validator — enough of RFC 8259 to certify the trace
// writer's output (objects, arrays, strings with escapes, numbers,
// true/false/null). Returns false on the first syntax error.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') return ++pos_, true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw ctrl
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(s_[pos_])) return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    }
    return pos_ > start && std::isdigit(s_[pos_ - 1]);
  }

  bool Literal(const std::string& lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(s_[pos_])) ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

size_t CountOccurrences(const std::string& text, const std::string& pat) {
  size_t n = 0;
  for (size_t at = text.find(pat); at != std::string::npos;
       at = text.find(pat, at + pat.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------
// Counters / histograms

TEST(ObsCounters, ShardedAddSumsExactlyAcrossThreads) {
  obs::Counter& c = obs::GetCounter("test.obs.sharded_add");
  c.Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(ObsCounters, RegistryInternsStableReferences) {
  obs::Counter& a = obs::GetCounter("test.obs.interned");
  obs::Counter& b = obs::GetCounter("test.obs.interned");
  EXPECT_EQ(&a, &b);
  obs::Histogram& ha = obs::GetHistogram("test.obs.interned_h");
  obs::Histogram& hb = obs::GetHistogram("test.obs.interned_h");
  EXPECT_EQ(&ha, &hb);
}

TEST(ObsCounters, HistogramExactMomentsAndBoundedPercentiles) {
  obs::Histogram& h = obs::GetHistogram("test.obs.hist_moments");
  h.Reset();
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  obs::Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500500u);  // exact, not bucketed
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 500.5);
  // Percentiles resolve to the containing power-of-two bucket: the bound
  // is >= the true rank sample and within 2x of it.
  uint64_t p50 = snap.PercentileUpperBound(0.5);
  EXPECT_GE(p50, 500u);
  EXPECT_LT(p50, 1000u);
  uint64_t p100 = snap.PercentileUpperBound(1.0);
  EXPECT_GE(p100, 1000u);
  EXPECT_LT(p100, 2000u);
  EXPECT_EQ(snap.PercentileUpperBound(0.0), snap.PercentileUpperBound(0.001));

  h.Reset();
  EXPECT_EQ(h.Snap().count, 0u);
  EXPECT_EQ(h.Snap().PercentileUpperBound(0.5), 0u);
}

TEST(ObsCounters, SnapshotsAreSortedAndResettable) {
  obs::GetCounter("test.obs.zz_last").Add(7);
  obs::GetCounter("test.obs.aa_first").Add(3);
  std::vector<obs::CounterValue> counters = obs::SnapshotCounters();
  ASSERT_GE(counters.size(), 2u);
  for (size_t i = 1; i < counters.size(); ++i) {
    EXPECT_LT(counters[i - 1].name, counters[i].name);
  }
  obs::ResetAllStats();
  for (const obs::CounterValue& cv : obs::SnapshotCounters()) {
    EXPECT_EQ(cv.value, 0u) << cv.name;
  }
}

// The whole point of sharded counters: totals for a fixed workload must
// not depend on how many workers executed it.
TEST(ObsCounters, EngineCounterTotalsAreThreadCountIndependent) {
  Graph graph = LoadDatasetScaled("ego-Facebook", 0.1).graph;
  SweepConfig config;
  config.sparsifiers = {"RN", "LD"};
  config.runs_nondeterministic = 2;
  config.seed = 7;
  MetricFn metric = [](const Graph& g, const Graph& h, Rng&) {
    return static_cast<double>(h.NumEdges()) /
           static_cast<double>(std::max<EdgeId>(1, g.NumEdges()));
  };

  auto run_and_snapshot = [&](int threads) {
    obs::ResetAllStats();
    BatchRunner runner(threads);
    ResumableSweep sweep(runner, nullptr, "test-rev");
    sweep.Run(graph, "fb@0.1", "edge_ratio", config, metric);
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const obs::CounterValue& cv : obs::SnapshotCounters()) {
      if (cv.name.rfind("engine.", 0) == 0) out.emplace_back(cv.name, cv.value);
    }
    return out;
  };

  auto at1 = run_and_snapshot(1);
  auto at2 = run_and_snapshot(2);
  auto at8 = run_and_snapshot(8);
  EXPECT_GT(at1.size(), 0u);
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
  // Sanity: the sweep actually counted its units.
  uint64_t units = 0;
  for (const auto& [name, value] : at1) {
    if (name == "engine.metric_units") units = value;
  }
  EXPECT_EQ(units, BatchRunner::ExpandGrid(config).size());
}

// ---------------------------------------------------------------------
// Span tracer + Chrome trace export

TEST(ObsTrace, DisabledSpansRecordNothing) {
  obs::StopTracing();
  obs::DrainTrace();
  {
    TRACE_SPAN(span, "should_not_record");
    EXPECT_FALSE(span.active());
    span.Detail("ignored");
    span.Arg("k", "v");
  }
  EXPECT_TRUE(obs::DrainTrace().empty());
}

TEST(ObsTrace, NullSpanIsInert) {
  obs::NullSpan span("anything");
  static_assert(!obs::NullSpan::active());
  span.Detail("ignored");
  span.Arg("k", "v");
}

// The runtime-tracing tests below exercise the armed ScopedSpan path,
// which a -DSPARSIFY_DISABLE_TRACING=ON build compiles away entirely.
#ifndef SPARSIFY_DISABLE_TRACING
TEST(ObsTrace, BalancedValidJsonAtOneTwoAndEightThreads) {
  for (int num_threads : {1, 2, 8}) {
    constexpr int kSpansPerThread = 5;
    obs::StartTracing();
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([t] {
        for (int i = 0; i < kSpansPerThread; ++i) {
          TRACE_SPAN(span, "unit");
          ASSERT_TRUE(span.active());
          span.Detail("metric-" + std::to_string(t));
          span.Arg("index", std::to_string(i));
        }
      });
    }
    for (auto& t : threads) t.join();
    obs::StopTracing();

    std::vector<obs::TraceEvent> events = obs::DrainTrace();
    size_t expected = static_cast<size_t>(num_threads) * kSpansPerThread;
    ASSERT_EQ(events.size(), expected) << num_threads << " threads";
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_LE(events[i - 1].begin_ns, events[i].begin_ns);  // sorted
    }
    for (const obs::TraceEvent& ev : events) {
      EXPECT_GE(ev.end_ns, ev.begin_ns);
    }

    std::ostringstream out;
    obs::WriteChromeTrace(events, out);
    std::string json = out.str();
    EXPECT_TRUE(JsonValidator(json).Valid()) << json.substr(0, 200);
    EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), expected);
    EXPECT_EQ(CountOccurrences(json, "\"ph\":\"E\""), expected);
  }
}

TEST(ObsTrace, ExportEscapesHostileStringsIntoValidJson) {
  std::vector<obs::TraceEvent> events(1);
  events[0].name = "weird";
  events[0].detail = "quote\" slash\\ newline\n tab\t ctrl\x01 end";
  events[0].begin_ns = 1000;
  events[0].end_ns = 2000;
  events[0].args.emplace_back("key\"", "value\\\n");
  std::ostringstream out;
  obs::WriteChromeTrace(events, out);
  std::string json = out.str();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
}

TEST(ObsTrace, TimestampsRebaseOntoEarliestSpan) {
  std::vector<obs::TraceEvent> events(2);
  events[0].name = "first";
  events[0].begin_ns = 5'000'000'000;  // arbitrary steady-clock offsets
  events[0].end_ns = 5'000'500'000;
  events[1].name = "second";
  events[1].begin_ns = 5'001'000'000;
  events[1].end_ns = 5'002'000'000;
  std::ostringstream out;
  obs::WriteChromeTrace(events, out);
  std::string json = out.str();
  // The earliest begin becomes ts 0; the later span sits 1000us after it.
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);
}

TEST(ObsTrace, StartTracingDropsStaleEvents) {
  obs::StartTracing();
  { TRACE_SPAN(span, "stale"); }
  // No drain: StartTracing itself must clear the leftover buffer.
  obs::StartTracing();
  { TRACE_SPAN(span, "fresh"); }
  obs::StopTracing();
  std::vector<obs::TraceEvent> events = obs::DrainTrace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "fresh");
}
#endif  // SPARSIFY_DISABLE_TRACING

// The determinism contract, end to end: the same sweep with tracing on
// exports a byte-identical CSV to one run with tracing off.
TEST(ObsTrace, SweepCsvIsByteIdenticalWithTracingOn) {
  Graph graph = LoadDatasetScaled("ego-Facebook", 0.1).graph;
  SweepConfig config;
  config.sparsifiers = {"RN", "LD"};
  config.runs_nondeterministic = 2;
  config.seed = 11;
  // A metric that consumes the per-cell RNG stream, so any perturbation
  // of seeding or scheduling by the tracer would change the values.
  MetricFn metric = [](const Graph& g, const Graph& h, Rng& rng) {
    return QuadraticFormSimilarity(g, h, 5, rng);
  };

  auto run_to_csv = [&](const std::string& dir_name, bool tracing) {
    std::string dir = UniqueTestDir(dir_name);
    if (tracing) obs::StartTracing();
    std::string csv;
    {
      ResultStore store(ResultStore::PathInDir(dir));
      BatchRunner runner(4);
      ResumableSweep sweep(runner, &store, "test-rev");
      sweep.Run(graph, "fb@0.1", "quad5", config, metric);
      std::ostringstream out;
      cli::ExportStore(store, out, /*csv=*/true);
      csv = out.str();
    }
    if (tracing) {
      obs::StopTracing();
#ifndef SPARSIFY_DISABLE_TRACING
      EXPECT_GT(obs::DrainTrace().size(), 0u);
#endif
    }
    return csv;
  };

  std::string off = run_to_csv("obs_csv_off", false);
  std::string on = run_to_csv("obs_csv_on", true);
  EXPECT_FALSE(off.empty());
  EXPECT_EQ(off, on);  // byte-identical
}

// ---------------------------------------------------------------------
// Profile aggregation

TEST(ObsProfile, AggregatesByStageAndOrdersByTotalTime) {
  std::vector<obs::TraceEvent> events;
  auto add = [&events](const char* name, const std::string& detail,
                       int64_t dur_ns) {
    obs::TraceEvent ev;
    ev.name = name;
    ev.detail = detail;
    ev.begin_ns = 1000;
    ev.end_ns = 1000 + dur_ns;
    events.push_back(std::move(ev));
  };
  // "metric_unit" dominates (3ms total), then "subgraph" (1ms).
  add("metric_unit", "degree", 1'000'000);
  add("metric_unit", "degree", 1'000'000);
  add("metric_unit", "spsp", 1'000'000);
  add("subgraph", "RN", 1'000'000);

  std::vector<obs::ProfileRow> rows = obs::BuildProfile(events);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].stage, "metric_unit");
  EXPECT_EQ(rows[0].detail, "degree");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_NEAR(rows[0].total_seconds, 2e-3, 1e-9);
  EXPECT_NEAR(rows[0].p50_ms, 1.0, 1e-6);
  EXPECT_NEAR(rows[0].max_ms, 1.0, 1e-6);
  EXPECT_EQ(rows[1].stage, "metric_unit");
  EXPECT_EQ(rows[1].detail, "spsp");
  EXPECT_EQ(rows[2].stage, "subgraph");

  std::ostringstream out;
  obs::PrintProfile(rows, obs::ProfileSummary{0.01, 2, 0.004}, out);
  std::string table = out.str();
  EXPECT_NE(table.find("metric_unit"), std::string::npos);
  EXPECT_NE(table.find("pool_util"), std::string::npos);
}

// ---------------------------------------------------------------------
// Pool stats + progress callback

TEST(ObsPool, StatsCountTasksAndReset) {
  ThreadPool pool(2);
  pool.ResetStats();
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&ran] {
      ran.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 16);

  ThreadPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.tasks_executed, 16u);
  EXPECT_GT(stats.busy_seconds, 0.0);
  EXPECT_GE(stats.queue_high_water, 1u);
  ASSERT_EQ(stats.worker_tasks.size(), 2u);
  ASSERT_EQ(stats.worker_busy_seconds.size(), 2u);
  uint64_t per_worker_sum = stats.worker_tasks[0] + stats.worker_tasks[1];
  EXPECT_EQ(per_worker_sum, stats.tasks_executed);

  pool.ResetStats();
  ThreadPoolStats zeroed = pool.Stats();
  EXPECT_EQ(zeroed.tasks_executed, 0u);
  EXPECT_EQ(zeroed.busy_seconds, 0.0);
  EXPECT_EQ(zeroed.queue_high_water, 0u);
}

TEST(ObsPool, QueueWaitHistogramRecordsSubmittedTasks) {
  obs::GetHistogram("pool.queue_wait_ns").Reset();
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] {});
  }
  pool.Wait();
  EXPECT_GE(obs::GetHistogram("pool.queue_wait_ns").Snap().count, 8u);
}

TEST(ObsProgress, CallbackFiresPerSubmittedUnitAndSkipsCachedRuns) {
  Graph graph = LoadDatasetScaled("ego-Facebook", 0.1).graph;
  SweepConfig config;
  config.sparsifiers = {"RN"};
  config.runs_nondeterministic = 2;
  config.seed = 3;
  MetricFn metric = [](const Graph& g, const Graph& h, Rng&) {
    return static_cast<double>(h.NumEdges()) /
           static_cast<double>(std::max<EdgeId>(1, g.NumEdges()));
  };
  std::string dir = UniqueTestDir("obs_progress_store");
  ResultStore store(ResultStore::PathInDir(dir));
  BatchRunner runner(2);
  ResumableSweep sweep(runner, &store, "test-rev");

  std::atomic<size_t> calls{0};
  std::atomic<size_t> max_completed{0};
  std::atomic<size_t> reported_submitted{0};
  sweep.set_progress([&](size_t completed, size_t submitted) {
    calls.fetch_add(1);
    size_t prev = max_completed.load();
    while (completed > prev &&
           !max_completed.compare_exchange_weak(prev, completed)) {
    }
    reported_submitted.store(submitted);
  });

  ResumableSweepStats stats;
  sweep.Run(graph, "fb@0.1", "edge_ratio", config, metric, &stats);
  EXPECT_EQ(calls.load(), stats.submitted_cells);
  EXPECT_EQ(max_completed.load(), stats.submitted_cells);
  EXPECT_EQ(reported_submitted.load(), stats.submitted_cells);

  // Warm store: every unit cached, so the callback must never fire
  // (cached units were never work).
  calls.store(0);
  ResumableSweepStats warm;
  sweep.Run(graph, "fb@0.1", "edge_ratio", config, metric, &warm);
  EXPECT_EQ(warm.submitted_cells, 0u);
  EXPECT_EQ(calls.load(), 0u);
}

}  // namespace
}  // namespace sparsify
