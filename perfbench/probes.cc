#include "perfbench/probes.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "src/engine/batch_runner.h"
#include "src/graph/traversal.h"
#include "src/linalg/cg.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/store/result_store.h"
#include "src/util/cancel.h"
#include "src/util/crc32c.h"
#include "src/util/failpoint.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace perfbench {

using sparsify::Graph;
using sparsify::Timer;
using sparsify::obs::ScopedSpan;
using sparsify::obs::TraceEvent;

namespace {

// Receives computed values so the timed loops cannot be optimized away.
std::atomic<uint32_t> g_sink{0};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double MicrosSince(int64_t start_ns) {
  return static_cast<double>(Timer::NowNanos() - start_ns) * 1e-3;
}

// Nanoseconds per call of `op`: the loop is grown until one pass takes
// at least `pass_seconds`, then timed five times; the median pass is
// reported.
template <typename Op>
double NanosPerOp(Op op, double pass_seconds = 0.02) {
  uint64_t iters = 1;
  while (true) {
    Timer t;
    for (uint64_t i = 0; i < iters; ++i) op();
    if (t.Seconds() >= pass_seconds) break;
    iters *= 2;
  }
  std::vector<double> passes;
  for (int rep = 0; rep < 5; ++rep) {
    Timer t;
    for (uint64_t i = 0; i < iters; ++i) op();
    passes.push_back(t.Seconds() * 1e9 / static_cast<double>(iters));
  }
  return Median(passes);
}

sparsify::CellKey ProbeKey(uint64_t seed, int i) {
  sparsify::CellKey key;
  key.dataset = "perfbench-probe";
  key.sparsifier = "RN";
  key.prune_rate = 0.5;
  key.run = i;
  key.master_seed = seed;
  key.metric = "probe";
  return key;
}

std::vector<double> TimedAppends(sparsify::ResultStore& store, uint64_t seed,
                                 int first, int count) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(count));
  for (int i = first; i < first + count; ++i) {
    sparsify::CellKey key = ProbeKey(seed, i);
    int64_t t0 = Timer::NowNanos();
    store.Append(key, 0.5, static_cast<double>(i));
    us.push_back(MicrosSince(t0));
  }
  return us;
}

// Median replay throughput (MB/s) of read-only opens of the store in
// `dir`; `segments` receives the file count the replay folded.
double ReplayMbPerSecond(const std::string& dir, size_t* segments) {
  const double bytes = static_cast<double>(DirectoryBytes(dir));
  sparsify::ResultStoreOptions ro;
  ro.read_only = true;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    sparsify::ResultStore store(sparsify::ResultStore::PathInDir(dir), ro);
    rates.push_back(bytes / t.Seconds() / 1e6);
    *segments = store.SegmentCount();
  }
  return Median(rates);
}

constexpr int kStoreAppends = 2000;
constexpr int kReplayRecords = 16000;
constexpr int kReplayWriters = 8;

}  // namespace

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

SparsifierProbe ProbeSparsifiers(const Graph& g,
                                 const std::vector<std::string>& algos,
                                 const std::vector<double>& rates,
                                 uint64_t seed, size_t keep_cells) {
  SparsifierProbe probe;
  const size_t stride =
      std::max<size_t>(1, algos.size() * rates.size() / keep_cells);
  size_t cell = 0;
  for (const std::string& algo : algos) {
    std::unique_ptr<sparsify::Sparsifier> sparsifier =
        sparsify::CreateSparsifier(algo);
    sparsify::Rng rng(sparsify::BatchRunner::GroupSeed(seed, algo, 0));
    std::unique_ptr<sparsify::ScoreState> state;
    {
      ScopedSpan span("bench.prepare_scores");
      span.Detail(algo);
      Timer t;
      state = sparsifier->PrepareScores(g, rng);
      probe.score_s[algo] = t.Seconds();
    }
    for (double rate : rates) {
      sparsify::RateMask mask;
      {
        ScopedSpan span("bench.mask");
        span.Detail(algo);
        int64_t t0 = Timer::NowNanos();
        mask = sparsifier->MaskForRate(*state, rate);
        probe.mask_us.push_back(MicrosSince(t0));
      }
      ScopedSpan span("bench.apply");
      span.Detail(algo);
      int64_t t0 = Timer::NowNanos();
      Graph h = sparsify::Sparsifier::Apply(g, mask);
      probe.apply_us.push_back(MicrosSince(t0));
      if (h.NumVertices() != g.NumVertices()) {
        throw std::runtime_error("Apply changed the vertex count");
      }
      if (cell++ % stride == 0) {
        probe.cells.push_back(ProbeCell{algo, rate, std::move(h)});
      }
    }
  }
  return probe;
}

CgProbe ProbeCg(const Graph& g, uint64_t seed, int solves) {
  CgProbe probe;
  const size_t n = g.NumVertices();
  const int k = std::max(
      8, static_cast<int>(std::ceil(8.0 * std::log(std::max<size_t>(2, n)))));
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k));
  sparsify::Rng rng(seed ^ 0x6c696e616c67ull);
  sparsify::Vec b(n), z(n);
  for (int s = 0; s < solves; ++s) {
    std::fill(b.begin(), b.end(), 0.0);
    for (const sparsify::Edge& e : g.Edges()) {
      double c = (rng.NextBernoulli(0.5) ? inv_sqrt_k : -inv_sqrt_k) *
                 std::sqrt(e.w);
      b[e.u] += c;
      b[e.v] -= c;
    }
    z.assign(n, 0.0);
    ScopedSpan span("bench.cg_solve");
    Timer t;
    sparsify::CgResult r = sparsify::SolveLaplacian(g, b, &z, 1e-6);
    probe.solve_ms.push_back(t.Millis());
    probe.iterations.push_back(r.iterations);
  }
  return probe;
}

double ProbeBfsPerSecond(const Graph& g, uint64_t seed, int sources) {
  sparsify::Rng rng(seed ^ 0x626673ull);
  std::vector<sparsify::NodeId> picked;
  for (int i = 0; i < sources; ++i) {
    picked.push_back(static_cast<sparsify::NodeId>(rng.NextUint(g.NumVertices())));
  }
  sparsify::TraversalScratch scratch;
  sparsify::BfsLevels(g, picked[0], scratch);  // sizes the scratch
  uint64_t reached = 0;
  ScopedSpan span("bench.bfs");
  Timer t;
  for (sparsify::NodeId src : picked) {
    reached += sparsify::BfsLevels(g, src, scratch).reached;
  }
  double seconds = t.Seconds();
  if (reached == 0) throw std::runtime_error("BFS reached nothing");
  return static_cast<double>(sources) / seconds;
}

StoreProbe ProbeStore(const std::string& dir, uint64_t seed, int threads) {
  namespace fs = std::filesystem;
  using sparsify::FsyncPolicy;
  using sparsify::ResultStore;
  StoreProbe probe;

  const std::pair<const char*, FsyncPolicy> policies[] = {
      {"none", FsyncPolicy::kNone},
      {"batch", FsyncPolicy::kBatch},
      {"always", FsyncPolicy::kAlways}};
  for (const auto& [name, policy] : policies) {
    const std::string sub = dir + "/append-" + name;
    ScopedSpan span("bench.store_append");
    span.Detail(name);
    ResultStore store(ResultStore::PathInDir(sub));
    store.SetFsyncPolicy(policy);
    probe.append_us[name] = TimedAppends(store, seed, 0, kStoreAppends);
  }

  {
    ScopedSpan span("bench.store_append");
    span.Detail("contended");
    ResultStore store(ResultStore::PathInDir(dir + "/append-contended"));
    std::vector<std::vector<double>> per_thread(static_cast<size_t>(threads));
    std::vector<std::exception_ptr> errors(static_cast<size_t>(threads));
    const int each = kStoreAppends / threads;
    std::vector<std::thread> workers;
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        const size_t i = static_cast<size_t>(w);
        try {
          per_thread[i] = TimedAppends(store, seed, w * each, each);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (std::thread& t : workers) t.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (const auto& v : per_thread) {
      probe.append_contended_us.insert(probe.append_contended_us.end(),
                                       v.begin(), v.end());
    }
  }

  const std::string seg1 = dir + "/replay-seg1";
  {
    ResultStore store(ResultStore::PathInDir(seg1));
    store.SetFsyncPolicy(FsyncPolicy::kNone);
    TimedAppends(store, seed, 0, kReplayRecords);
  }
  {
    ScopedSpan span("bench.store_replay");
    span.Detail("seg1");
    probe.replay_mb_per_s_seg1 = ReplayMbPerSecond(seg1, &probe.segments_seg1);
  }

  const std::string seg8 = dir + "/replay-seg8";
  {
    // All writers are open at once, so each one appends to its own
    // segment of the shared directory.
    std::vector<std::unique_ptr<ResultStore>> writers;
    for (int w = 0; w < kReplayWriters; ++w) {
      writers.push_back(
          std::make_unique<ResultStore>(ResultStore::PathInDir(seg8)));
      writers.back()->SetFsyncPolicy(FsyncPolicy::kNone);
    }
    const int each = kReplayRecords / kReplayWriters;
    for (int w = 0; w < kReplayWriters; ++w) {
      TimedAppends(*writers[static_cast<size_t>(w)], seed, w * each, each);
    }
  }
  {
    ScopedSpan span("bench.store_replay");
    span.Detail("seg8");
    probe.replay_mb_per_s_seg8 = ReplayMbPerSecond(seg8, &probe.segments_seg8);
  }

  {
    sparsify::ResultStoreOptions ro;
    ro.read_only = true;
    ResultStore store(ResultStore::PathInDir(seg1), ro);
    std::vector<sparsify::CellKey> keys;
    for (int i = 0; i < kReplayRecords; ++i) keys.push_back(ProbeKey(seed, i));
    ScopedSpan span("bench.store_lookup");
    size_t found = 0;
    Timer t;
    for (const sparsify::CellKey& key : keys) found += store.Contains(key);
    probe.lookup_ns = t.Seconds() * 1e9 / static_cast<double>(keys.size());
    if (found != keys.size()) {
      throw std::runtime_error("store lookup missed appended keys");
    }
  }
  fs::remove_all(dir);
  return probe;
}

MicroProbe ProbeMicro() {
  namespace fail = sparsify::fail;
  MicroProbe probe;
  probe.failpoint_unarmed_ns =
      NanosPerOp([] { SPARSIFY_FAILPOINT("perfbench.site"); });
  {
    // Another site armed, never hit: every site pays the armed slow path.
    fail::Policy never;
    never.nth = ~uint64_t{0};
    fail::Arm("perfbench.other", never);
    probe.failpoint_armed_other_ns =
        NanosPerOp([] { SPARSIFY_FAILPOINT("perfbench.site"); });
    fail::DisarmAll();
  }
  probe.cancel_poll_unarmed_ns =
      NanosPerOp([] { SPARSIFY_CHECK_CANCELLED(); });
  {
    sparsify::CancelToken token;
    sparsify::CancelScope scope(&token);
    probe.cancel_poll_armed_ns =
        NanosPerOp([] { SPARSIFY_CHECK_CANCELLED(); });
  }
  {
    std::vector<unsigned char> buf(4u << 20);
    sparsify::Rng rng(7);
    for (unsigned char& c : buf) c = static_cast<unsigned char>(rng());
    uint32_t sink = 0;
    double ns = NanosPerOp(
        [&] { sink ^= sparsify::Crc32c(buf.data(), buf.size()); });
    probe.crc32c_gb_per_s = static_cast<double>(buf.size()) / ns;
    g_sink.store(sink, std::memory_order_relaxed);
  }
  probe.span_off_ns = NanosPerOp([] { TRACE_SPAN(span, "perfbench.span"); });
  // Recorded spans stay in memory until drained: keep the passes short.
  sparsify::obs::StartTracing();
  probe.span_on_ns =
      NanosPerOp([] { TRACE_SPAN(span, "perfbench.span"); }, 0.002);
  sparsify::obs::StopTracing();
  sparsify::obs::DrainTrace();
  return probe;
}

std::map<std::string, double> LayerSelfSeconds(
    const std::vector<TraceEvent>& events) {
  static const std::map<std::string, std::string> kLayerOf = {
      {"bench.sweep", "engine"},         {"metric_unit", "engine"},
      {"score_group", "sparsifiers"},    {"subgraph", "graph"},
      {"bench.metric_fn", "metrics"},    {"store_replay", "store"},
      {"bench.store_open", "store"}};
  std::vector<const TraceEvent*> order;
  for (const TraceEvent& ev : events) order.push_back(&ev);
  std::sort(order.begin(), order.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->begin_ns != b->begin_ns) return a->begin_ns < b->begin_ns;
              return a->end_ns > b->end_ns;  // parents before children
            });
  std::map<const TraceEvent*, int64_t> covered;
  std::map<int, std::vector<const TraceEvent*>> open;  // per-thread stacks
  std::vector<const TraceEvent*> roots;
  for (const TraceEvent* ev : order) {
    std::vector<const TraceEvent*>& stack = open[ev->tid];
    while (!stack.empty() && stack.back()->end_ns <= ev->begin_ns) {
      stack.pop_back();
    }
    if (stack.empty()) {
      roots.push_back(ev);
    } else {
      covered[stack.back()] += ev->end_ns - ev->begin_ns;
    }
    stack.push_back(ev);
  }
  // Worker-thread roots inside a sweep span are that sweep's children.
  for (const TraceEvent* sweep : roots) {
    if (std::strcmp(sweep->name, "bench.sweep") != 0) continue;
    for (const TraceEvent* ev : roots) {
      if (ev->tid != sweep->tid && ev->begin_ns >= sweep->begin_ns &&
          ev->begin_ns < sweep->end_ns) {
        covered[sweep] += ev->end_ns - ev->begin_ns;
      }
    }
  }
  std::map<std::string, double> self;
  for (const auto& [name, layer] : kLayerOf) self[layer] = 0;
  for (const TraceEvent* ev : order) {
    auto it = kLayerOf.find(ev->name);
    if (it == kLayerOf.end()) continue;
    int64_t own = ev->end_ns - ev->begin_ns - covered[ev];
    self[it->second] += static_cast<double>(std::max<int64_t>(own, 0)) * 1e-9;
  }
  return self;
}

}  // namespace perfbench
