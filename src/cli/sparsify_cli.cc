#include "src/cli/sparsify_cli.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/cli/figures.h"
#include "src/cli/metrics.h"
#include "src/cli/store_export.h"
#include "src/engine/resumable_sweep.h"
#include "src/graph/datasets.h"
#include "src/graph/ingest.h"
#include "src/graph/io.h"
#include "src/obs/counters.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/util/cancel.h"
#include "src/util/errors.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/store/result_store.h"
#include "src/util/timer.h"

namespace sparsify::cli {
namespace {

// Strict numeric parsing: a malformed value must abort the run, not
// silently become 0 (the same discipline as unknown flag names). Each
// throws std::invalid_argument, which RunSparsifyCli reports as an error.
double ParseDoubleValue(const std::string& key, const std::string& value) {
  char* end = nullptr;
  double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    throw std::invalid_argument("invalid number for --" + key + ": '" +
                                value + "'");
  }
  return v;
}

long ParseIntValue(const std::string& key, const std::string& value) {
  char* end = nullptr;
  long v = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    throw std::invalid_argument("invalid integer for --" + key + ": '" +
                                value + "'");
  }
  return v;
}

uint64_t ParseUint64Value(const std::string& key, const std::string& value) {
  char* end = nullptr;
  if (value.empty() || value[0] == '-') {
    throw std::invalid_argument("invalid seed for --" + key + ": '" + value +
                                "'");
  }
  uint64_t v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    throw std::invalid_argument("invalid integer for --" + key + ": '" +
                                value + "'");
  }
  return v;
}

struct Args {
  std::map<std::string, std::string> named;
  std::vector<std::string> positional;

  bool Has(const std::string& key) const { return named.contains(key); }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = named.find(key);
    return it == named.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = named.find(key);
    return it == named.end() ? fallback : ParseDoubleValue(key, it->second);
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = named.find(key);
    return it == named.end()
               ? fallback
               : static_cast<int>(ParseIntValue(key, it->second));
  }
  uint64_t GetUint64(const std::string& key, uint64_t fallback) const {
    auto it = named.find(key);
    return it == named.end() ? fallback : ParseUint64Value(key, it->second);
  }
};

// Flags that never take a value. They must not consume a following token
// (`figure --resume 1a` would otherwise silently swallow the figure id).
const std::set<std::string>& BooleanKeys() {
  static const std::set<std::string> keys = {
      "csv",   "resume",   "directed", "weighted",
      "paper", "progress", "no-steal"};
  return keys;
}

/// Parses `--key=value`, `--key value`, and bare `--flag` forms. Any key
/// not in `allowed` is an error (typos must not silently change a run).
bool ParseArgs(int argc, char** argv, int first,
               const std::set<std::string>& allowed, Args* args,
               std::string* error) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args->positional.push_back(arg);
      continue;
    }
    std::string key = arg.substr(2);
    std::string value;
    bool has_value = false;
    auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_value = true;
    }
    if (!allowed.contains(key)) {
      *error = "unknown option '--" + key + "' (allowed:";
      for (const std::string& k : allowed) *error += " --" + k;
      *error += ")";
      return false;
    }
    if (!has_value) {
      if (BooleanKeys().contains(key)) {
        value = "true";
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        // `--store` with the value forgotten must not silently become the
        // string "true" (and, say, write a store directory named true/).
        *error = "option '--" + key + "' requires a value";
        return false;
      }
    }
    args->named[key] = value;
  }
  return true;
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> parts;
  std::istringstream ss(s);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

std::vector<double> SplitCsvDoubles(const std::string& s) {
  std::vector<double> parts;
  for (const std::string& p : SplitCsv(s)) {
    parts.push_back(ParseDoubleValue("rates", p));
  }
  return parts;
}

// `--scale` value: a default scale and/or per-dataset overrides, e.g.
// "0.5", "web-Google=0.2", or "0.5,web-Google=0.2,ego-Twitter=0.1". The
// paper's datasets span orders of magnitude, so one global scale either
// starves the small graphs or drowns in the big ones — the `--paper`
// preset relies on the overrides.
struct ScaleSpec {
  double default_scale = 0.5;
  std::map<std::string, double> overrides;  // dataset name -> scale
};

ScaleSpec ParseScaleSpec(const std::string& value) {
  auto parse_scale = [](const std::string& text) {
    double scale = ParseDoubleValue("scale", text);
    // `!(scale > 0)` also rejects NaN; infinity and scales too large for
    // a vertex count fail in LoadDatasetScaled.
    if (!(scale > 0)) throw std::invalid_argument("--scale must be > 0");
    return scale;
  };
  ScaleSpec spec;
  bool have_default = false;
  for (const std::string& part : SplitCsv(value)) {
    auto eq = part.find('=');
    if (eq == std::string::npos) {
      if (have_default) {
        throw std::invalid_argument("--scale lists more than one default "
                                    "scale: '" + value + "'");
      }
      spec.default_scale = parse_scale(part);
      have_default = true;
    } else {
      std::string name = part.substr(0, eq);
      if (name.empty()) {
        throw std::invalid_argument("--scale override missing a dataset "
                                    "name: '" + part + "'");
      }
      spec.overrides[name] = parse_scale(part.substr(eq + 1));
    }
  }
  return spec;
}

int Usage() {
  std::cout
      << "usage: sparsify_cli <command> [--key=value ...]\n"
         "\n"
         "  list                       sparsifiers, datasets, metrics, "
         "figures\n"
         "  metrics                    metric registry with descriptions\n"
         "  sparsify   --algo=LD --rate=0.5 --input=g.txt --output=h.txt\n"
         "             [--directed] [--weighted] [--seed=42]\n"
         "  evaluate   --metric=pagerank --input=g.txt --sparsified=h.txt\n"
         "             [--directed] [--weighted] [--seed=42]\n"
         "  sweep      --dataset=ca-AstroPh[,..] --metrics=connectivity[,..]"
         "|all\n"
         "             [--paper] [--algos=RN,LD,..] [--rates=0.1,..]\n"
         "             [--runs=3] [--scale=0.5[,web-Google=0.2,..]]\n"
         "             [--seed=42] [--threads=0] [--csv] [--store=DIR]\n"
         "             [--resume] [--trace=FILE] [--progress]\n"
         "             [--max-unit-retries=2] [--deadline=SECS]\n"
         "             [--unit-timeout=SECS] [--watchdog-stall=SECS]\n"
         "             [--shard=i/N] [--no-steal] [--lease-ttl=SECS]\n"
         "  profile    (same flags as sweep) run a sweep and print the\n"
         "             per-stage/per-metric breakdown (p50/p95/max,\n"
         "             units/s, pool utilization)\n"
         "  ingest     --input=g.txt [--directed] [--weighted]\n"
         "             [--cache=DIR] [--threads=0]\n"
         "  export     --store=DIR [--format=csv|table] [--dataset=..]\n"
         "             [--metric=..]\n"
         "  ls         --store=DIR\n"
         "  compact    --store=DIR  rewrite the log to one record per\n"
         "             live cell (drops superseded duplicates; atomic)\n"
         "  merge      DIR [DIR ...] -o OUT  fold stores (e.g. from\n"
         "             --no-steal shard workers on different machines)\n"
         "             into OUT, last-write-wins per cell (atomic)\n"
         "  figure     <id ...> [--scale=f] [--runs=3] [--threads=0]\n"
         "             [--seed=42] [--csv] [--store=DIR] [--resume]\n"
         "\n"
         "A multi-metric sweep sparsifies each (sparsifier, rate, run)\n"
         "cell ONCE and evaluates every listed metric on that subgraph.\n"
         "--paper presets the paper's full protocol (all datasets, all\n"
         "metrics, runs=10); explicit flags override it, and --scale\n"
         "accepts per-dataset overrides (--scale=0.5,web-Google=0.2).\n"
         "A sweep with --store appends every completed (cell, metric)\n"
         "unit to its own log segment in DIR, one flushed JSONL record\n"
         "each; with --resume it first replays the store and schedules\n"
         "only the missing units — resuming with MORE metrics schedules\n"
         "only the new metrics' cells — reproducing the uninterrupted\n"
         "output bit-identically. `ingest` parses a SNAP edge list\n"
         "once, builds the CSR in parallel, and (with --cache=DIR) writes a\n"
         "content-addressed binary cache that later runs load in one bulk\n"
         "read; its dataset key is ingest-<hash>. --trace=FILE exports the\n"
         "run's spans as Chrome trace_event JSON (chrome://tracing /\n"
         "ui.perfetto.dev); --progress prints a ~1s heartbeat to stderr\n"
         "(completed/total units, ETA). Run `sparsify_cli list` for names.\n"
         "\n"
         "Sweeps are error-tolerant: a failing (cell, metric) unit is\n"
         "retried (transient failures, --max-unit-retries extra attempts)\n"
         "or recorded as a typed error record in the store; the rest of\n"
         "the sweep completes, and --resume resubmits exactly the failed\n"
         "units. --deadline cancels the whole run after SECS (like a\n"
         "signal: in-flight units drain, completed units persist);\n"
         "--unit-timeout fails any single (cell, metric) unit exceeding\n"
         "SECS (recorded as a 'deadline' error record, the rest of the\n"
         "sweep unaffected); --watchdog-stall dumps in-flight activities\n"
         "and counters to stderr when a unit makes no progress for SECS\n"
         "(default 300) and then cancels it. SIGINT/SIGTERM cancel the\n"
         "run cooperatively: queued units are skipped, in-flight units\n"
         "drain, and --resume continues bit-identically; a second signal\n"
         "aborts immediately.\n"
         "\n"
         "Multi-process sweeps: any number of workers may share one\n"
         "--store directory (each appends to its own lease-guarded log\n"
         "segment). --shard=i/N runs this process as worker i of N: the\n"
         "grid is split into chunks, each worker claims and runs its own\n"
         "share, then steals chunks whose claimants died (kill -9 a\n"
         "worker and the survivors converge to the complete store,\n"
         "bit-identical to a cold run). --no-steal exits after the own\n"
         "share instead — use it for disjoint stores on separate\n"
         "machines, then fold them with `merge`. --lease-ttl tunes how\n"
         "fast a dead worker is declared stale (default 30s). Exit\n"
         "codes: 0 ok, 1 usage/unclassified error, 2 I/O failure,\n"
         "3 store has other live writers (compact/merge need\n"
         "exclusivity), 4 corrupt store, 5 permanent unit failures,\n"
         "6 transient/deadline unit failures only, 7 interrupted by\n"
         "signal, 8 --deadline expired.\n";
  return 1;
}

int CmdMetrics() {
  std::cout << "Metrics (sparsify_cli sweep --metrics=a,b,.. or "
               "--metrics=all):\n";
  for (const auto& [name, metric] : NamedMetrics()) {
    std::printf("  %-18s %-13s %s\n", name.c_str(),
                metric.sampled ? "sampled" : "deterministic",
                metric.description.c_str());
  }
  std::cout << "\nsampled = consumes the per-cell metric RNG stream "
               "(MetricSeed);\ndeterministic = rng-free, unchanged across "
               "RNG revisions.\n";
  return 0;
}

int CmdList() {
  std::cout << "Sparsifiers (paper Table 2 + extensions):\n";
  for (const SparsifierInfo& info : AllSparsifierInfos()) {
    std::cout << "  " << info.short_name << "\t" << info.name
              << (info.extension ? "  [extension]" : "") << "\n";
  }
  std::cout << "\nDatasets (synthetic stand-ins for paper Table 3):\n";
  for (const std::string& name : DatasetNames()) {
    std::cout << "  " << name << "\n";
  }
  std::cout << "\nMetrics (details: sparsify_cli metrics):\n";
  for (const std::string& name : MetricNames()) {
    std::cout << "  " << name << "\n";
  }
  std::cout << "\nFigures (sparsify_cli figure <id>):\n";
  for (const FigureSpec& f : AllFigures()) {
    std::cout << "  " << f.id << "\t" << f.title << "\n";
  }
  return 0;
}

Graph LoadInput(const Args& args, const std::string& key) {
  return ReadEdgeList(args.Get(key), args.Has("directed"),
                      args.Has("weighted"));
}

int CmdSparsify(const Args& args) {
  if (!args.Has("algo") || !args.Has("input") || !args.Has("output")) {
    std::cerr << "sparsify requires --algo, --input, --output\n";
    return 1;
  }
  Graph g = LoadInput(args, "input");
  auto sparsifier = CreateSparsifier(args.Get("algo"));
  const SparsifierInfo& info = sparsifier->Info();
  if (g.IsDirected() && !info.supports_directed) {
    std::cerr << "note: " << info.name
              << " needs undirected input; symmetrizing (paper sec 3.1)\n";
    g = g.Symmetrized();
  }
  Rng rng(args.GetUint64("seed", 42));
  Timer timer;
  Graph h = sparsifier->Sparsify(g, args.GetDouble("rate", 0.5), rng);
  std::cout << "sparsified in " << timer.Seconds() << " s: " << h.Summary()
            << " (achieved prune rate "
            << Sparsifier::AchievedPruneRate(g, h) << ")\n";
  WriteEdgeList(h, args.Get("output"));
  return 0;
}

int CmdEvaluate(const Args& args) {
  if (!args.Has("metric") || !args.Has("input") || !args.Has("sparsified")) {
    std::cerr << "evaluate requires --metric, --input, --sparsified\n";
    return 1;
  }
  const MetricFn& metric = FindMetric(args.Get("metric"));
  Graph g = LoadInput(args, "input");
  Graph h = LoadInput(args, "sparsified");
  Rng rng(args.GetUint64("seed", 42));
  std::cout << args.Get("metric") << " = " << metric(g, h, rng) << "\n";
  return 0;
}

int CmdIngest(const Args& args) {
  if (!args.Has("input")) {
    std::cerr << "ingest requires --input=FILE (SNAP edge list or .spgc "
                 "cache)\n";
    return 1;
  }
  IngestOptions opt;
  opt.directed = args.Has("directed");
  opt.weighted = args.Has("weighted");
  opt.cache_dir = args.Get("cache");
  ThreadPool pool(args.GetInt("threads", 0));
  opt.pool = &pool;
  Timer timer;
  IngestResult result = IngestGraph(args.Get("input"), opt);
  double seconds = timer.Seconds();
  std::cout << "ingested " << args.Get("input") << " in " << seconds
            << " s (" << (result.from_cache ? "binary cache" : "text parse")
            << ")\n"
            << "  graph:        " << result.graph.Summary() << "\n"
            << "  content hash: " << result.content_hash << "\n"
            << "  dataset key:  " << IngestDatasetKey(result.graph) << "\n";
  if (!result.cache_file.empty()) {
    std::cout << "  cache file:   " << result.cache_file << "\n";
  } else {
    std::cout << "  cache file:   (none; pass --cache=DIR to enable)\n";
  }
  return 0;
}

// Shared body of `sweep` and `profile`. The profile mode runs the exact
// same sweep (same seeds, same store behaviour — output values are
// byte-identical) with span tracing forced on, suppresses the per-metric
// series tables, and prints the per-stage breakdown instead.
int CmdSweep(const Args& args, bool profile_mode) {
  const char* cmd_name = profile_mode ? "profile" : "sweep";
  bool paper = args.Has("paper");
  if (args.Has("metric") && args.Has("metrics")) {
    std::cerr << cmd_name << " takes either --metric or --metrics, not both\n";
    return 1;
  }

  // --paper presets the paper's full protocol; explicit flags override it.
  std::vector<std::string> datasets;
  if (args.Has("dataset")) {
    datasets = SplitCsv(args.Get("dataset"));
  } else if (paper) {
    datasets = DatasetNames();
  } else {
    std::cerr << cmd_name
              << " requires --dataset (or --paper; comma-separated "
                 "lists accepted)\n";
    return 1;
  }
  std::string metric_arg =
      args.Has("metrics") ? args.Get("metrics") : args.Get("metric");
  std::vector<std::string> metric_names;
  if (metric_arg == "all" || (metric_arg.empty() && paper)) {
    metric_names = MetricNames();
  } else if (!metric_arg.empty()) {
    metric_names = SplitCsv(metric_arg);
  } else {
    std::cerr << cmd_name
              << " requires --metrics (or --paper; comma-separated "
                 "lists accepted, or --metrics=all)\n";
    return 1;
  }
  // Resolve every metric up front: an unknown name aborts with the
  // registry listed before any work is scheduled.
  std::vector<SweepMetric> metrics;
  for (const std::string& name : metric_names) {
    metrics.push_back(SweepMetric{name, FindMetric(name)});
  }

  ScaleSpec scales = ParseScaleSpec(args.Get("scale", "0.5"));
  for (const auto& [name, scale] : scales.overrides) {
    if (std::find(datasets.begin(), datasets.end(), name) ==
        datasets.end()) {
      std::cerr << "error: --scale override for '" << name
                << "', which is not in this sweep's dataset list\n";
      return 1;
    }
  }
  bool csv = args.Has("csv");
  bool resume = args.Has("resume");
  bool progress = args.Has("progress");
  std::string trace_path = args.Get("trace");
  // Spans are recorded whenever the profile table needs them or a trace
  // file was requested; otherwise the span sites stay one relaxed load.
  bool tracing = profile_mode || !trace_path.empty();
  // Robustness knobs. Strictly positive: zero or negative is a config
  // mistake, not "off" (omit the flag for off).
  double run_deadline = args.GetDouble("deadline", 0);
  double unit_timeout = args.GetDouble("unit-timeout", 0);
  double watchdog_stall = args.GetDouble("watchdog-stall", 0);
  if (args.Has("deadline") && run_deadline <= 0) {
    std::cerr << "error: --deadline must be > 0 seconds\n";
    return 1;
  }
  if (args.Has("unit-timeout") && unit_timeout <= 0) {
    std::cerr << "error: --unit-timeout must be > 0 seconds\n";
    return 1;
  }
  if (args.Has("watchdog-stall") && watchdog_stall <= 0) {
    std::cerr << "error: --watchdog-stall must be > 0 seconds\n";
    return 1;
  }
  double lease_ttl = args.GetDouble("lease-ttl", 30.0);
  if (args.Has("lease-ttl") && lease_ttl <= 0) {
    std::cerr << "error: --lease-ttl must be > 0 seconds\n";
    return 1;
  }
  // --shard=i/N: run as worker i of N cooperating processes sharing the
  // store directory (see ShardSpec). Without a store there is nothing to
  // coordinate through.
  ShardSpec shard;
  if (args.Has("shard")) {
    const std::string spec = args.Get("shard");
    const size_t slash = spec.find('/');
    bool ok = slash != std::string::npos && slash > 0 &&
              slash + 1 < spec.size();
    if (ok) {
      try {
        shard.index = static_cast<size_t>(
            ParseUint64Value("shard", spec.substr(0, slash)));
        shard.total = static_cast<size_t>(
            ParseUint64Value("shard", spec.substr(slash + 1)));
      } catch (const std::invalid_argument&) {
        ok = false;
      }
    }
    if (!ok || shard.total == 0 || shard.index >= shard.total) {
      std::cerr << "error: --shard expects i/N with 0 <= i < N, got '"
                << spec << "'\n";
      return 1;
    }
    if (!args.Has("store")) {
      std::cerr << "error: --shard requires --store (workers coordinate "
                   "through the store directory)\n";
      return 1;
    }
  }
  shard.steal = !args.Has("no-steal");

  SweepConfig config;
  if (args.Has("algos")) config.sparsifiers = SplitCsv(args.Get("algos"));
  if (args.Has("rates")) {
    config.prune_rates = SplitCsvDoubles(args.Get("rates"));
  }
  config.runs_nondeterministic = args.GetInt("runs", paper ? 10 : 3);
  config.seed = args.GetUint64("seed", 42);

  BatchRunner runner(args.GetInt("threads", 0));
  if (profile_mode) {
    // Scope the registry and pool counters to this run so the breakdown
    // reports this sweep, not process history.
    obs::ResetAllStats();
    runner.ResetPoolStats();
  }
  // Whole-run cancellation: one token shared by the signal bridge, the
  // --deadline, and (as parent) every submitted unit's own token.
  // Installed before the store opens so a signal during a long replay
  // still drains cleanly; a second signal aborts immediately.
  CancelToken run_token;
  if (run_deadline > 0) run_token.SetDeadlineAfter(run_deadline);
  InstallSignalCancel(&run_token);
  // The watchdog samples in-flight activities and dumps the obs counter/
  // histogram state to stderr when one stalls, then cancels it (the unit
  // fails alone as a "deadline" error record). Default threshold 5min;
  // with a --unit-timeout the engine usually fires first, so the watchdog
  // trails it as a backstop.
  WatchdogOptions wd;
  wd.stall_seconds =
      watchdog_stall > 0
          ? watchdog_stall
          : (unit_timeout > 0 ? std::max(30.0, 4.0 * unit_timeout) : 300.0);
  StartWatchdog(wd);
  struct CancelGuard {
    ~CancelGuard() {
      StopWatchdog();
      ClearSignalCancel();
    }
  } cancel_guard;
  // Start before the store opens so its replay span is captured too.
  if (tracing) obs::StartTracing();
  std::unique_ptr<ResultStore> store;
  if (args.Has("store")) {
    ResultStoreOptions store_options;
    store_options.lease_ttl_seconds = lease_ttl;
    store = std::make_unique<ResultStore>(
        ResultStore::PathInDir(args.Get("store")), store_options);
  }

  std::string joined_metrics;
  for (const SweepMetric& m : metrics) {
    joined_metrics += joined_metrics.empty() ? m.name : "," + m.name;
  }

  size_t total_submitted_units = 0;
  size_t total_failed_units = 0;
  size_t total_transient_failed = 0;
  size_t total_deadline_units = 0;
  size_t total_cancelled_units = 0;
  Timer run_timer;
  for (const std::string& dataset_name : datasets) {
    // A tripped run token (signal or --deadline) skips every remaining
    // dataset; the one in flight already drained inside RunMulti.
    if (run_token.Cancelled()) break;
    auto override_it = scales.overrides.find(dataset_name);
    double scale = override_it != scales.overrides.end()
                       ? override_it->second
                       : scales.default_scale;
    Dataset d = LoadDatasetScaled(dataset_name, scale);
    std::string dataset_key = DatasetCellName(dataset_name, scale);
    // One multi-metric sweep per dataset: each (sparsifier, rate, run)
    // cell is sparsified once and every missing metric evaluates on that
    // one subgraph.
    ResumableSweep sweep(runner, store.get());
    sweep.set_reuse_cached(resume);
    // Error-tolerant: a failing (cell, metric) unit is recorded as a typed
    // error record (transient failures retry first) instead of sinking the
    // whole sweep; the exit code reports the failure class and a later
    // --resume resubmits exactly the failed units.
    sweep.set_fault_tolerant(true);
    sweep.set_max_unit_retries(args.GetInt("max-unit-retries", 2));
    sweep.set_cancel_token(&run_token);
    sweep.set_unit_timeout(unit_timeout);
    sweep.set_shard(shard);
    if (progress) {
      // ~1s heartbeat on stderr. Fires on worker threads; the CAS on the
      // last-print time elects one printer per interval. The final unit
      // always prints, so a finished sweep never ends mid-heartbeat.
      auto started = Timer::Now();
      auto last_print = std::make_shared<std::atomic<int64_t>>(0);
      sweep.set_progress([started, last_print,
                          dataset_key](size_t done, size_t submitted) {
        int64_t now_ns = Timer::NowNanos();
        if (done < submitted) {
          int64_t prev = last_print->load(std::memory_order_relaxed);
          if (now_ns - prev < 1'000'000'000) return;
          if (!last_print->compare_exchange_strong(prev, now_ns)) return;
        }
        double elapsed = Timer::SecondsBetween(started, Timer::Now());
        double rate = elapsed > 0 ? static_cast<double>(done) / elapsed : 0;
        double eta =
            rate > 0 ? static_cast<double>(submitted - done) / rate : 0;
        char line[192];
        std::snprintf(line, sizeof(line),
                      "# progress %s: %zu/%zu units (%.1f units/s, ETA "
                      "%.1fs)\n",
                      dataset_key.c_str(), done, submitted, rate, eta);
        std::cerr << line;
      });
    }
    ResumableSweepStats stats;
    Timer sweep_timer;
    std::vector<MetricSweepSeries> per_metric =
        sweep.RunMulti(d.graph, dataset_key, metrics, config, &stats);
    double seconds = sweep_timer.Seconds();
    total_submitted_units += stats.submitted_cells;
    total_failed_units += stats.failed_units;
    total_transient_failed += stats.transient_failed_units;
    total_deadline_units += stats.deadline_exceeded_units;
    total_cancelled_units += stats.cancelled_units;
    // Wall clock, throughput, and the score/subgraph/metric time split in
    // the banner make resumed-vs-cold and shared-vs-rebuilt speedups
    // visible without a profiler. The rate counts only SUBMITTED units:
    // cells served from the store are lookups, not work, and a fully
    // resumed sweep reports "all cached" instead of a meaningless rate.
    // Formatted into a buffer so the stream's float formatting state
    // stays untouched.
    char timing[112];
    if (stats.submitted_cells > 0) {
      std::snprintf(
          timing, sizeof(timing),
          "%.1fs, %.1f units/s (score %.1fs, subgraph %.1fs, metric %.1fs)",
          seconds,
          seconds > 0 ? static_cast<double>(stats.submitted_cells) / seconds
                      : 0.0,
          stats.score_seconds, stats.subgraph_seconds, stats.metric_seconds);
    } else {
      std::snprintf(timing, sizeof(timing), "%.1fs, all units cached",
                    seconds);
    }
    std::cout << "# sweep " << dataset_key << " metrics=" << joined_metrics
              << ": total=" << stats.total_cells
              << " cached=" << stats.cached_cells
              << " submitted=" << stats.submitted_cells
              << " subgraph_builds=" << stats.subgraph_builds
              << " score_groups=" << stats.score_groups;
    if (shard.total > 1) {
      // Shard accounting: how much of the grid this worker claimed as
      // its own share and how much it took over from dead workers.
      std::cout << " shard=" << shard.index << "/" << shard.total
                << " claimed=" << stats.shard_claimed
                << " stolen=" << stats.shard_stolen;
    }
    if (stats.failed_units > 0 || stats.retried_units > 0 ||
        stats.cancelled_units > 0) {
      // ok / failed / retried accounting, only when there is anything to
      // report (the usual all-green banner stays byte-stable).
      std::cout << " ok="
                << (stats.submitted_cells - stats.failed_units -
                    stats.cancelled_units)
                << " failed=" << stats.failed_units
                << " retried=" << stats.retried_units;
      if (stats.deadline_exceeded_units > 0) {
        std::cout << " deadline_exceeded=" << stats.deadline_exceeded_units;
      }
      if (stats.cancelled_units > 0) {
        std::cout << " cancelled=" << stats.cancelled_units;
      }
    }
    std::cout << ", " << timing << "\n";
    if (profile_mode) continue;  // breakdown table instead of series
    for (const MetricSweepSeries& m : per_metric) {
      std::string title = m.metric + " on " + dataset_key;
      if (csv) {
        PrintSeriesCsv(std::cout, title, m.series);
      } else {
        PrintSeriesTable(std::cout, title, m.metric, m.series);
      }
    }
  }
  double run_seconds = run_timer.Seconds();

  if (tracing) {
    obs::StopTracing();
    std::vector<obs::TraceEvent> events = obs::DrainTrace();
    if (!trace_path.empty()) {
      if (obs::WriteChromeTraceFile(events, trace_path)) {
        std::cerr << "# trace: " << events.size() << " spans -> "
                  << trace_path << " (load in chrome://tracing or "
                  << "ui.perfetto.dev)\n";
      } else {
        std::cerr << "error: cannot write trace file " << trace_path << "\n";
        return 1;
      }
    }
    if (profile_mode) {
      obs::ProfileSummary summary;
      summary.wall_seconds = run_seconds;
      summary.threads = static_cast<size_t>(runner.NumThreads());
      summary.pool_busy_seconds = runner.PoolStats().busy_seconds;
      PrintProfile(obs::BuildProfile(events), summary, std::cout);
      // Cross-check against the scheduler: one metric_unit span per
      // submitted (cell x metric) unit, across every dataset swept.
      size_t unit_spans = 0;
      for (const obs::TraceEvent& ev : events) {
        if (std::string_view(ev.name) == "metric_unit") ++unit_spans;
      }
      std::cout << "# profile check: metric_unit spans=" << unit_spans
                << " submitted units=" << total_submitted_units
                << (unit_spans == total_submitted_units ? " (match)"
                                                        : " (MISMATCH)")
                << "\n";
    }
  }
  // A cancelled run dominates every other exit class: what completed is
  // persisted, nothing was recorded for the rest, and --resume picks up
  // exactly where this run stopped.
  if (run_token.Cancelled()) {
    const bool signalled = SignalCancelSigno() != 0;
    std::cerr << "# " << cmd_name
              << (signalled ? " interrupted by signal"
                            : " stopped at --deadline")
              << ": " << total_cancelled_units
              << " unit(s) cancelled; completed units"
              << (store ? " are persisted -- re-run with --resume to continue"
                        : " were printed (no --store: nothing persisted)")
              << "\n";
    return signalled ? kExitInterrupted : kExitDeadline;
  }
  if (total_failed_units > 0) {
    std::cerr << "# " << cmd_name << " finished with " << total_failed_units
              << " failed unit(s) (" << total_transient_failed
              << " transient, " << total_deadline_units
              << " deadline); recorded as error records"
              << (store ? "" : " (no --store: failures not persisted)")
              << " -- re-run with --store/--resume to retry just those\n";
    // Permanent failures dominate the exit code: they will not clear on
    // their own, while a transient or deadline-exceeded unit may succeed
    // if simply re-run (the latter with a larger --unit-timeout).
    return total_failed_units > total_transient_failed + total_deadline_units
               ? kExitUnitFailures
               : kExitTransientFailures;
  }
  return 0;
}

int CmdExport(const Args& args) {
  if (!args.Has("store")) {
    std::cerr << "export requires --store=DIR\n";
    return 1;
  }
  std::string format = args.Get("format", "csv");
  if (format != "csv" && format != "table") {
    std::cerr << "unknown --format '" << format << "' (csv or table)\n";
    return 1;
  }
  // Read-only snapshot: no lease, nothing mutated — a live sweep's store
  // can be exported mid-run.
  ResultStoreOptions snapshot;
  snapshot.read_only = true;
  ResultStore store(ResultStore::PathInDir(args.Get("store")), snapshot);
  ExportStore(store, std::cout, format == "csv", args.Get("dataset"),
              args.Get("metric"));
  return 0;
}

int CmdLs(const Args& args) {
  if (!args.Has("store")) {
    std::cerr << "ls requires --store=DIR\n";
    return 1;
  }
  ResultStoreOptions snapshot;
  snapshot.read_only = true;
  ResultStore store(ResultStore::PathInDir(args.Get("store")), snapshot);
  SummarizeStore(store, std::cout);
  return 0;
}

int CmdCompact(const Args& args) {
  if (!args.Has("store")) {
    std::cerr << "compact requires --store=DIR\n";
    return 1;
  }
  ResultStore store(ResultStore::PathInDir(args.Get("store")));
  CompactStats stats = store.Compact();
  std::cout << "compacted " << store.Path() << ": " << stats.records_before
            << " -> " << stats.records_after << " records, "
            << stats.bytes_before << " -> " << stats.bytes_after
            << " bytes\n";
  if (store.ErrorCount() > 0) {
    std::cout << "  kept " << store.ErrorCount()
              << " error record(s) (unresolved failed units; a resumed "
                 "sweep retries them)\n";
  }
  return 0;
}

int CmdMerge(const Args& args) {
  // `merge A B -o OUT`: "-o" is not a --flag, so it and the directory
  // after it arrive as positionals; --out=DIR works too.
  std::vector<std::string> inputs;
  std::string out_dir = args.Get("out");
  for (size_t i = 0; i < args.positional.size(); ++i) {
    const std::string& p = args.positional[i];
    if (p == "-o") {
      if (i + 1 >= args.positional.size()) {
        std::cerr << "merge: -o requires an output store directory\n";
        return 1;
      }
      out_dir = args.positional[++i];
    } else {
      inputs.push_back(p);
    }
  }
  if (out_dir.empty() || inputs.empty()) {
    std::cerr << "usage: sparsify_cli merge DIR [DIR ...] -o OUT\n";
    return 1;
  }
  for (const std::string& dir : inputs) {
    if (!std::filesystem::is_directory(dir)) {
      std::cerr << "merge: input store directory not found: " << dir << "\n";
      return kExitIo;
    }
  }

  // The output opens WRITABLE first (a cooperative lease like any
  // writer); the commit itself demands sole-writer exclusivity and
  // throws StoreLockHeldError -> exit 3 while a sweep is running there.
  ResultStore out(ResultStore::PathInDir(out_dir));

  // Fold order: OUT's own cells first, then each input in argv order, so
  // later inputs win ties. Cross-store, a success always beats an error
  // record for the same key — equal keys compute bit-identical values,
  // so any success IS the value and the error just records a worker's
  // failed attempt elsewhere.
  std::vector<StoredCell> merged = out.Cells();
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < merged.size(); ++i) {
    index.emplace(merged[i].key.Canonical(), i);
  }
  auto fold = [&](const StoredCell& cell) {
    std::string canonical = cell.key.Canonical();
    auto it = index.find(canonical);
    if (it == index.end()) {
      index.emplace(std::move(canonical), merged.size());
      merged.push_back(cell);
      return;
    }
    StoredCell& slot = merged[it->second];
    if (cell.is_error && !slot.is_error) return;
    slot = cell;
  };
  size_t input_records = 0;
  for (const std::string& dir : inputs) {
    ResultStoreOptions snapshot;
    snapshot.read_only = true;
    ResultStore in(ResultStore::PathInDir(dir), snapshot);
    for (const StoredCell& cell : in.Cells()) {
      fold(cell);
      ++input_records;
    }
  }
  out.ReplaceWithMerged(std::move(merged));

  std::cout << "merged " << inputs.size() << " store(s), " << input_records
            << " cell(s) -> " << out.Path() << ": " << out.Size()
            << " cell(s)";
  if (out.ErrorCount() > 0) {
    std::cout << " (" << out.ErrorCount()
              << " unresolved error record(s); a resumed sweep retries "
                 "them)";
  }
  std::cout << "\n";
  return 0;
}

int CmdFigure(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "figure requires at least one figure id (see "
                 "`sparsify_cli list`)\n";
    return 1;
  }
  FigureRunOptions opt;
  opt.scale = args.GetDouble("scale", 0.0);
  // Omitted means each figure's own default; an explicit value must be a
  // real scale, not a silent fallback to that default.
  if (args.Has("scale") && !(opt.scale > 0)) {
    std::cerr << "error: --scale must be > 0\n";
    return 1;
  }
  opt.runs = args.GetInt("runs", 3);
  opt.threads = args.GetInt("threads", 0);
  opt.seed = args.GetUint64("seed", 42);
  opt.csv = args.Has("csv");
  opt.store_dir = args.Get("store");
  opt.resume = args.Has("resume");
  return RunFigures(args.positional, opt, std::cout);
}

const std::map<std::string, std::set<std::string>>& AllowedKeys() {
  static const std::map<std::string, std::set<std::string>> allowed = {
      {"list", {}},
      {"metrics", {}},
      {"sparsify",
       {"algo", "rate", "input", "output", "directed", "weighted", "seed"}},
      {"evaluate",
       {"metric", "input", "sparsified", "directed", "weighted", "seed"}},
      {"sweep",
       {"dataset", "metric", "metrics", "paper", "algos", "rates", "runs",
        "scale", "seed", "threads", "csv", "store", "resume", "trace",
        "progress", "max-unit-retries", "deadline", "unit-timeout",
        "watchdog-stall", "shard", "no-steal", "lease-ttl"}},
      {"profile",
       {"dataset", "metric", "metrics", "paper", "algos", "rates", "runs",
        "scale", "seed", "threads", "csv", "store", "resume", "trace",
        "progress", "max-unit-retries", "deadline", "unit-timeout",
        "watchdog-stall", "shard", "no-steal", "lease-ttl"}},
      {"ingest", {"input", "directed", "weighted", "cache", "threads"}},
      {"export", {"store", "format", "dataset", "metric"}},
      {"ls", {"store"}},
      {"compact", {"store"}},
      {"merge", {"out"}},
      {"figure",
       {"scale", "runs", "threads", "seed", "csv", "store", "resume"}},
  };
  return allowed;
}

}  // namespace

int RunSparsifyCli(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") {
    Usage();
    return 0;
  }
  auto allowed_it = AllowedKeys().find(cmd);
  if (allowed_it == AllowedKeys().end()) {
    std::cerr << "unknown command '" << cmd << "'\n";
    return Usage();
  }
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, 2, allowed_it->second, &args, &error)) {
    std::cerr << "error: " << error << "\n";
    return Usage();
  }
  try {
    // Torture-harness hook: arm fault injection from the environment
    // before any command touches the store or the engine. A malformed
    // spec aborts loudly (invalid_argument -> usage) instead of silently
    // running un-faulted.
    fail::ArmFromEnv();
    if (cmd == "list") return CmdList();
    if (cmd == "metrics") return CmdMetrics();
    if (cmd == "sparsify") return CmdSparsify(args);
    if (cmd == "evaluate") return CmdEvaluate(args);
    if (cmd == "sweep") return CmdSweep(args, /*profile_mode=*/false);
    if (cmd == "profile") return CmdSweep(args, /*profile_mode=*/true);
    if (cmd == "ingest") return CmdIngest(args);
    if (cmd == "export") return CmdExport(args);
    if (cmd == "ls") return CmdLs(args);
    if (cmd == "compact") return CmdCompact(args);
    if (cmd == "merge") return CmdMerge(args);
    if (cmd == "figure") return CmdFigure(args);
  } catch (const StoreLockHeldError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitLockHeld;
  } catch (const StoreCorruptError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitCorruptStore;
  } catch (const DeadlineExceededError& e) {
    // Safety net for cancellation escaping a non-tolerant path (e.g. a
    // figure run); sweeps normally classify and exit via CmdSweep.
    std::cerr << "error: " << e.what() << "\n";
    return kExitDeadline;
  } catch (const CancelledError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitInterrupted;
  } catch (const IoError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitIo;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitUsage;
  }
  return Usage();
}

}  // namespace sparsify::cli
