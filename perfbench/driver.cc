// perfbench driver: runs one workload of the repository benchmark through
// the public calls `sparsify_cli sweep --store=DIR --resume` makes
// (CmdSweep in src/cli/sparsify_cli.cc) and prints its raw measurements
// as one JSON object on stdout. run.py turns them into metrics and
// checks correctness; nothing here decides pass or fail.
//
//   perfbench_driver --mode=e2e|trace --dataset=NAME --scale=X
//       --algos=A,B,.. --metrics=m1,m2,.. --runs=R --seed=N --seconds=T
//       --threads=N --work-dir=DIR [--export-file=FILE] [--trace-file=FILE]
//       [--probe-algos=A,B,..] [--probe-metrics=m1,m2,..]
//
// e2e:   set-ups and an untimed warm-up sweep, then cold sweeps at 1 and
//        N threads (each into a fresh store), each followed by resumes of
//        the latest finished N-thread store and one more set-up, until
//        --seconds of measuring is used. Tracing stays off.
// trace: one untraced and one traced 1-thread cold sweep, one N-thread
//        cold sweep plus a resume, then the layer probes of probes.h over
//        --probe-algos, and --probe-metrics the sweep does not run timed
//        on probe cells. The spans (the library's own sites plus the
//        driver's) are kept in memory and written to --trace-file at the
//        end.
#include <sys/statfs.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/probes.h"
#include "src/cli/figures.h"
#include "src/cli/metrics.h"
#include "src/cli/store_export.h"
#include "src/engine/batch_runner.h"
#include "src/engine/resumable_sweep.h"
#include "src/graph/datasets.h"
#include "src/obs/trace.h"
#include "src/store/result_store.h"
#include "src/util/cancel.h"
#include "src/util/timer.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sparsify::BatchRunner;
using sparsify::CancelToken;
using sparsify::Dataset;
using sparsify::Graph;
using sparsify::MetricSweepSeries;
using sparsify::ResultStore;
using sparsify::ResumableSweep;
using sparsify::ResumableSweepStats;
using sparsify::SweepConfig;
using sparsify::SweepMetric;
using sparsify::Timer;
using sparsify::obs::ScopedSpan;

constexpr int kInitialSetups = 3;  // set-ups before the first sweep
// Resumes after each sweep run for this share of the sweep's time.
constexpr double kResumeShare = 0.25;
// (algorithm, rate) cells the trace run keeps to time probe-only metrics:
// 20 samples give a tail with 10 beyond it.
constexpr size_t kProbeCells = 20;

struct Options {
  std::string mode;
  std::string dataset;
  double scale = 1.0;
  std::vector<std::string> algos;
  std::vector<std::string> metrics;
  std::vector<std::string> probe_algos;    // trace: scored by the probe
  std::vector<std::string> probe_metrics;  // trace: timed by the probe
  int runs = 1;
  uint64_t seed = 42;
  double seconds = 10;
  int threads = 1;
  std::string work_dir;
  std::string export_file;
  std::string trace_file;
};

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

Options ParseOptions(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got '" + arg + "'");
    }
    kv[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  auto take = [&](const std::string& key, bool required) -> std::string {
    auto it = kv.find(key);
    if (it == kv.end()) {
      if (required) throw std::invalid_argument("missing --" + key);
      return "";
    }
    std::string value = it->second;
    kv.erase(it);
    return value;
  };
  Options o;
  o.mode = take("mode", true);
  o.dataset = take("dataset", true);
  o.scale = std::stod(take("scale", true));
  o.algos = SplitCsv(take("algos", true));
  o.metrics = SplitCsv(take("metrics", true));
  o.runs = std::stoi(take("runs", true));
  o.seed = std::stoull(take("seed", true));
  o.seconds = std::stod(take("seconds", true));
  o.threads = std::stoi(take("threads", true));
  o.work_dir = take("work-dir", true);
  o.probe_algos = SplitCsv(take("probe-algos", false));
  o.probe_metrics = SplitCsv(take("probe-metrics", false));
  o.export_file = take("export-file", false);
  o.trace_file = take("trace-file", false);
  if (!kv.empty()) {
    throw std::invalid_argument("unknown flag --" + kv.begin()->first);
  }
  if (o.mode != "e2e" && o.mode != "trace") {
    throw std::invalid_argument("--mode must be e2e or trace");
  }
  return o;
}

// --- JSON output -----------------------------------------------------------

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return Str(buf);
}

std::string Arr(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += Num(v[i]);
  }
  return out + "]";
}

// Builds one JSON object from already-encoded values, keys in call order.
class Obj {
 public:
  Obj& Add(const std::string& key, const std::string& encoded) {
    if (!body_.empty()) body_ += ',';
    body_ += Str(key);
    body_ += ':';
    body_ += encoded;
    return *this;
  }
  Obj& Add(const std::string& key, double v) { return Add(key, Num(v)); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- helpers ---------------------------------------------------------------

std::string FilesystemOf(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

double PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return 0;
}

// Exact digest of folded series: names plus the raw bytes of every value.
uint64_t SeriesDigest(const std::vector<MetricSweepSeries>& per_metric) {
  uint64_t h = kFnvBasis;
  auto add_bytes = [&h](const void* p, size_t n) {
    h = Fnv1a(std::string_view(static_cast<const char*>(p), n), h);
  };
  for (const MetricSweepSeries& m : per_metric) {
    h = Fnv1a(m.metric, h);
    for (const sparsify::SweepSeries& s : m.series) {
      h = Fnv1a(s.sparsifier, h);
      for (const sparsify::SweepPoint& p : s.points) {
        add_bytes(&p.requested_prune_rate, sizeof(double));
        add_bytes(&p.achieved_prune_rate, sizeof(double));
        add_bytes(&p.mean, sizeof(double));
        add_bytes(&p.stddev, sizeof(double));
        add_bytes(&p.runs, sizeof(int));
      }
    }
  }
  return h;
}

// `sparsify_cli export --store=DIR` (CSV) of a finished store.
std::string ExportOf(const std::string& dir) {
  sparsify::ResultStoreOptions ro;
  ro.read_only = true;
  ResultStore store(ResultStore::PathInDir(dir), ro);
  std::ostringstream os;
  sparsify::cli::ExportStore(store, os, /*csv=*/true);
  return os.str();
}

struct SweepRun {
  int threads = 0;
  double seconds = 0;
  ResumableSweepStats stats;
  uint64_t series_digest = 0;
  uint64_t export_digest = 0;  // cold sweeps only
  bool warmup = false;         // untimed: gated, not measured
};

std::string SweepJson(const SweepRun& r) {
  Obj o;
  o.Add("threads", r.threads)
      .Add("seconds", r.seconds)
      .Add("submitted", static_cast<double>(r.stats.submitted_cells))
      .Add("failed", static_cast<double>(r.stats.failed_units))
      .Add("cancelled", static_cast<double>(r.stats.cancelled_units))
      .Add("series_digest", Hex(r.series_digest));
  if (r.export_digest != 0) o.Add("export_digest", Hex(r.export_digest));
  if (r.warmup) o.Add("warmup", "true");
  return o.str();
}

std::string JoinJson(const std::vector<SweepRun>& runs) {
  std::string out = "[";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) out += ',';
    out += SweepJson(runs[i]);
  }
  return out + "]";
}

// The workload as the CLI runs it: one dataset, the CLI's sweep settings.
class Workload {
 public:
  explicit Workload(const Options& o)
      : options_(o),
        dataset_key_(sparsify::cli::DatasetCellName(o.dataset, o.scale)) {
    config_.sparsifiers = o.algos;
    config_.runs_nondeterministic = o.runs;
    config_.seed = o.seed;
    for (const std::string& name : o.metrics) {
      plain_metrics_.push_back(
          SweepMetric{name, sparsify::cli::FindMetric(name)});
    }
  }

  const SweepConfig& config() const { return config_; }
  const std::string& dataset_key() const { return dataset_key_; }
  const std::vector<SweepMetric>& plain_metrics() const {
    return plain_metrics_;
  }

  // Store directories are deleted only by RemoveDirs, after the timed
  // work: deleting a store is disk work (a discard per file on a
  // `discard`-mounted ext4) that would otherwise land inside a later
  // timed sweep.
  std::string FreshDir(const std::string& tag) {
    std::string dir = options_.work_dir + "/" + tag + "-" +
                      std::to_string(dirs_.size());
    fs::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }
  void RemoveDirs() {
    for (const std::string& dir : dirs_) fs::remove_all(dir);
    dirs_.clear();
  }

  // One RunMulti against the store in `dir` (opened here, closed before
  // returning). `seconds` covers the store open (replay) only when
  // `time_open` is set, as resume_s does.
  SweepRun Sweep(const Graph& g, BatchRunner& runner, const std::string& dir,
                 const std::vector<SweepMetric>& metrics, bool time_open) {
    SweepRun r;
    r.threads = runner.NumThreads();
    Timer open_timer;
    std::unique_ptr<ResultStore> store;
    {
      ScopedSpan span("bench.store_open");
      store = std::make_unique<ResultStore>(ResultStore::PathInDir(dir));
    }
    ResumableSweep sweep(runner, store.get());
    sweep.set_reuse_cached(true);
    sweep.set_fault_tolerant(true);
    sweep.set_max_unit_retries(2);
    sweep.set_cancel_token(&run_token_);
    std::vector<MetricSweepSeries> series;
    {
      ScopedSpan span("bench.sweep");
      Timer t;
      series = sweep.RunMulti(g, dataset_key_, metrics, config_, &r.stats);
      r.seconds = t.Seconds();
    }
    if (time_open) r.seconds = open_timer.Seconds();
    r.series_digest = SeriesDigest(series);
    return r;
  }

  // A cold sweep into a fresh store plus its export digest; the export of
  // the first one is kept for run.py's drift guard.
  SweepRun ColdSweep(const Graph& g, BatchRunner& runner,
                     const std::string& dir,
                     const std::vector<SweepMetric>& metrics) {
    SweepRun r = Sweep(g, runner, dir, metrics, /*time_open=*/false);
    std::string exported = ExportOf(dir);
    r.export_digest = Fnv1a(exported);
    if (!options_.export_file.empty() && !export_written_) {
      std::ofstream(options_.export_file, std::ios::binary) << exported;
      export_written_ = true;
    }
    return r;
  }

 private:
  const Options& options_;
  std::string dataset_key_;
  SweepConfig config_;
  std::vector<SweepMetric> plain_metrics_;
  CancelToken run_token_;
  std::vector<std::string> dirs_;
  bool export_written_ = false;
};

// --- e2e -------------------------------------------------------------------

std::string RunE2e(const Options& o) {
  Workload w(o);

  // Set-up as a user pays it: dataset build, store open in a fresh
  // directory, pool start. Besides the first ones it is repeated after
  // every sweep, so its samples spread over the run like the sweeps' do.
  std::vector<double> setup_s;
  Dataset d;
  std::unique_ptr<BatchRunner> pool;
  auto set_up = [&](bool keep) {
    const std::string dir = w.FreshDir("setup");
    Timer t;
    Dataset loaded = sparsify::LoadDatasetScaled(o.dataset, o.scale);
    auto store = std::make_unique<ResultStore>(ResultStore::PathInDir(dir));
    auto started = std::make_unique<BatchRunner>(o.threads);
    setup_s.push_back(t.Seconds());
    store.reset();
    if (keep) {
      d = std::move(loaded);
      pool = std::move(started);
    }
  };
  set_up(/*keep=*/true);
  for (int k = 1; k < kInitialSetups; ++k) set_up(/*keep=*/false);
  BatchRunner serial(1);
  std::vector<SweepRun> sweeps, resumes;

  // One untimed N-thread sweep first, so the workers' allocator arenas
  // and the page cache are warm before anything is timed. Its export
  // still goes through the correctness gate, and its store is the first
  // one the resumes reopen.
  std::string resume_dir = w.FreshDir("warmup");
  sweeps.push_back(w.ColdSweep(d.graph, *pool, resume_dir, w.plain_metrics()));
  sweeps.back().warmup = true;

  // Closed loop: one sweep at a time. Alternate 1-thread and N-thread
  // sweeps so each gets about half the budget. After each sweep, resume
  // the latest finished N-thread store for a fixed share of that sweep's
  // time, then set up once more: the resume and set-up samples then cover
  // the whole run instead of one moment of it (this host's speed drifts
  // on a scale of seconds). When the next sweep would overrun the budget
  // run the other kind if it fits, else stop; at least one of each runs.
  double spent[2] = {0, 0}, last[2] = {0, 0};
  int count[2] = {0, 0};
  // Peak RSS is read once the first sweep of each kind (with its resumes)
  // is done: a fixed amount of work, so it does not grow with the number
  // of sweeps a faster or slower run fits in.
  double peak_rss_kb = 0;
  Timer budget;
  while (true) {
    int kind = count[0] == 0 ? 0
               : count[1] == 0 ? 1
               : (spent[0] <= spent[1] ? 0 : 1);
    if (count[0] > 0 && count[1] > 0) {
      const double left = o.seconds - budget.Seconds();
      if (last[kind] > left) kind = 1 - kind;
      if (last[kind] > left) break;
    }
    Timer t;
    const std::string dir = w.FreshDir("cold");
    BatchRunner& runner = kind == 0 ? serial : *pool;
    const SweepRun cold = w.ColdSweep(d.graph, runner, dir, w.plain_metrics());
    sweeps.push_back(cold);
    if (kind == 1) resume_dir = dir;
    Timer resuming;
    do {
      resumes.push_back(w.Sweep(d.graph, *pool, resume_dir,
                                w.plain_metrics(), /*time_open=*/true));
    } while (resuming.Seconds() < kResumeShare * cold.seconds);
    set_up(/*keep=*/false);
    last[kind] = t.Seconds();
    spent[kind] += last[kind];
    ++count[kind];
    if (peak_rss_kb == 0 && count[0] > 0 && count[1] > 0) {
      peak_rss_kb = PeakRssKb();
    }
  }
  w.RemoveDirs();

  Obj out;
  out.Add("mode", Str("e2e"))
      .Add("filesystem", Str(FilesystemOf(o.work_dir)))
      .Add("threads", o.threads)
      .Add("setup_s", Arr(setup_s))
      .Add("sweeps", JoinJson(sweeps))
      .Add("resumes", JoinJson(resumes))
      .Add("peak_rss_kb", peak_rss_kb);
  return out.str();
}

// --- trace -----------------------------------------------------------------

// Wraps each metric function with a timer and a span: per-unit metric time
// measured outside the engine's unit timer.
class MetricTimings {
 public:
  // Call for every metric before any wrapped function runs.
  SweepMetric Wrap(const SweepMetric& plain) {
    std::vector<double>* samples = &samples_[plain.name];
    sparsify::MetricFn fn = plain.fn;
    std::string name = plain.name;
    return SweepMetric{
        name, [this, samples, fn, name](const Graph& original,
                                        const Graph& sparsified,
                                        sparsify::Rng& rng) {
          ScopedSpan span("bench.metric_fn");
          if (span.active()) span.Detail(name);
          Timer t;
          double value = fn(original, sparsified, rng);
          double ms = t.Millis();
          std::lock_guard<std::mutex> lock(mu_);
          samples->push_back(ms);
          return value;
        }};
  }

  std::string Json() const {
    Obj o;
    for (const auto& [name, samples] : samples_) o.Add(name, Arr(samples));
    return o.str();
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

std::string RunTrace(const Options& o) {
  Workload w(o);
  Timer build;
  Dataset d = sparsify::LoadDatasetScaled(o.dataset, o.scale);
  const double dataset_build_s = build.Seconds();
  std::vector<double> store_open_s;
  for (int k = 0; k < 3; ++k) {
    const std::string dir = w.FreshDir("open");
    Timer t;
    { ResultStore store(ResultStore::PathInDir(dir)); }
    store_open_s.push_back(t.Seconds());
  }
  BatchRunner serial(1);
  BatchRunner pool(o.threads);

  std::vector<SweepRun> sweeps, resumes;
  sweeps.push_back(w.ColdSweep(d.graph, serial, w.FreshDir("untraced"),
                               w.plain_metrics()));

  MetricTimings timings;
  std::vector<SweepMetric> wrapped;
  for (const SweepMetric& m : w.plain_metrics()) {
    wrapped.push_back(timings.Wrap(m));
  }
  // Probe-only metrics: every --probe-metrics entry the sweep does not run.
  MetricTimings probe_timings;
  std::vector<SweepMetric> probe_only;
  for (const std::string& name : o.probe_metrics) {
    if (std::find(o.metrics.begin(), o.metrics.end(), name) ==
        o.metrics.end()) {
      probe_only.push_back(probe_timings.Wrap(
          SweepMetric{name, sparsify::cli::FindMetric(name)}));
    }
  }
  uint64_t store_bytes = 0;
  sparsify::obs::StartTracing();
  {
    const std::string dir = w.FreshDir("traced");
    sweeps.push_back(w.ColdSweep(d.graph, serial, dir, wrapped));
    store_bytes = DirectoryBytes(dir);
  }
  sparsify::obs::StopTracing();
  std::vector<sparsify::obs::TraceEvent> events = sparsify::obs::DrainTrace();
  const std::map<std::string, double> self_s = LayerSelfSeconds(events);
  const ResumableSweepStats traced = sweeps.back().stats;

  pool.ResetPoolStats();
  {
    const std::string dir = w.FreshDir("pool");
    sweeps.push_back(w.ColdSweep(d.graph, pool, dir, w.plain_metrics()));
    resumes.push_back(
        w.Sweep(d.graph, pool, dir, w.plain_metrics(), /*time_open=*/true));
  }
  const sparsify::ThreadPoolStats pool_stats = pool.PoolStats();
  w.RemoveDirs();

  sparsify::obs::StartTracing();
  SparsifierProbe sp = ProbeSparsifiers(d.graph, o.probe_algos,
                                        w.config().prune_rates, o.seed,
                                        kProbeCells);
  // The probe-only metrics run on the kept probe cells, seeded as the
  // engine seeds run 0 of each cell, so every metric has timings on
  // every workload.
  for (const SweepMetric& m : probe_only) {
    for (const ProbeCell& cell : sp.cells) {
      sparsify::Rng rng(BatchRunner::MetricSeed(
          o.seed, w.dataset_key(), cell.algo, cell.rate, 0, m.name));
      m.fn(d.graph, cell.graph, rng);
    }
  }
  CgProbe cg = ProbeCg(d.graph, o.seed, 8);
  double bfs_per_s = ProbeBfsPerSecond(d.graph, o.seed, 64);
  StoreProbe st = ProbeStore(o.work_dir + "/store-probe", o.seed, o.threads);
  sparsify::obs::StopTracing();
  for (auto& ev : sparsify::obs::DrainTrace()) events.push_back(std::move(ev));
  MicroProbe micro = ProbeMicro();

  if (!o.trace_file.empty() &&
      !sparsify::obs::WriteChromeTraceFile(events, o.trace_file)) {
    throw std::runtime_error("cannot write trace file " + o.trace_file);
  }

  Obj score_s;
  for (const auto& [algo, s] : sp.score_s) score_s.Add(algo, s);
  Obj append_us;
  for (const auto& [policy, us] : st.append_us) append_us.Add(policy, Arr(us));
  Obj self;
  for (const auto& [layer, s] : self_s) self.Add(layer, s);

  Obj out;
  out.Add("mode", Str("trace"))
      .Add("filesystem", Str(FilesystemOf(o.work_dir)))
      .Add("threads", o.threads)
      .Add("dataset_build_s", dataset_build_s)
      .Add("store_open_s", Arr(store_open_s))
      .Add("sweeps", JoinJson(sweeps))
      .Add("resumes", JoinJson(resumes))
      .Add("engine", Obj()
                         .Add("score_seconds", traced.score_seconds)
                         .Add("subgraph_seconds", traced.subgraph_seconds)
                         .Add("metric_seconds", traced.metric_seconds)
                         .Add("score_groups",
                              static_cast<double>(traced.score_groups))
                         .Add("subgraph_builds",
                              static_cast<double>(traced.subgraph_builds))
                         .str())
      .Add("pool", Obj()
                       .Add("busy_seconds", pool_stats.busy_seconds)
                       .Add("queue_high_water",
                            static_cast<double>(pool_stats.queue_high_water))
                       .str())
      .Add("metric_unit_ms", timings.Json())
      .Add("probe_metric_unit_ms", probe_timings.Json())
      .Add("store_bytes", static_cast<double>(store_bytes))
      .Add("sparsifiers", Obj()
                              .Add("score_s", score_s.str())
                              .Add("mask_us", Arr(sp.mask_us))
                              .Add("apply_us", Arr(sp.apply_us))
                              .str())
      .Add("cg", Obj()
                     .Add("solve_ms", Arr(cg.solve_ms))
                     .Add("iterations", Arr(cg.iterations))
                     .str())
      .Add("bfs_per_s", bfs_per_s)
      .Add("store", Obj()
                        .Add("append_us", append_us.str())
                        .Add("append_contended_us", Arr(st.append_contended_us))
                        .Add("replay_mb_per_s_seg1", st.replay_mb_per_s_seg1)
                        .Add("replay_mb_per_s_seg8", st.replay_mb_per_s_seg8)
                        .Add("segments_seg1",
                             static_cast<double>(st.segments_seg1))
                        .Add("segments_seg8",
                             static_cast<double>(st.segments_seg8))
                        .Add("lookup_ns", st.lookup_ns)
                        .str())
      .Add("micro", Obj()
                        .Add("failpoint_unarmed_ns", micro.failpoint_unarmed_ns)
                        .Add("failpoint_armed_other_ns",
                             micro.failpoint_armed_other_ns)
                        .Add("cancel_poll_unarmed_ns",
                             micro.cancel_poll_unarmed_ns)
                        .Add("cancel_poll_armed_ns", micro.cancel_poll_armed_ns)
                        .Add("crc32c_gb_per_s", micro.crc32c_gb_per_s)
                        .Add("span_off_ns", micro.span_off_ns)
                        .Add("span_on_ns", micro.span_on_ns)
                        .str())
      .Add("self_s", self.str())
      .Add("trace_events", static_cast<double>(events.size()));
  return out.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    perfbench::Options o = perfbench::ParseOptions(argc, argv);
    std::filesystem::create_directories(o.work_dir);
    // The CLI's stuck-unit watchdog, at its default threshold.
    sparsify::StartWatchdog(sparsify::WatchdogOptions{});
    std::string json = o.mode == "e2e" ? perfbench::RunE2e(o)
                                       : perfbench::RunTrace(o);
    sparsify::StopWatchdog();
    std::cout << json << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
