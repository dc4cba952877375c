// Shared helpers for the benches that keep their own mains: bench_gnn
// (its metrics need training state), bench_traversal (the gated
// traversal kernel), the ablations and bench_tables (which read only
// --scale). Registry figures run as `sparsify_cli figure <id ...>`.
//
// ParseOptions knows these flags; each bench names the ones it honours:
//   --scale=<f>   dataset size multiplier, finite and > 0 (default per
//                 bench; smaller = faster); datasets are synthetic
//                 stand-ins, see src/graph/datasets.h
//   --runs=<n>    runs per non-deterministic sparsifier (paper: 10)
//   --threads=<n> worker threads for the batch engine (default: hardware
//                 concurrency; output is identical at any thread count)
//   --seed=<n>    master seed of the sweep grid (default 42)
//   --csv         emit CSV rows instead of pivot tables
//
// Unknown --flags, and known ones the bench does not honour, are an error
// (exit 2), not a silent no-op: a typo like `--thread=8`, or `--runs=5` on
// a bench with a fixed protocol, must abort instead of quietly running a
// default config.
#ifndef SPARSIFY_BENCH_BENCH_COMMON_H_
#define SPARSIFY_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/figures.h"
#include "src/engine/batch_runner.h"
#include "src/engine/resumable_sweep.h"
#include "src/eval/experiment.h"
#include "src/graph/datasets.h"
#include "src/obs/trace.h"

namespace sparsify::bench {

/// Attribution `meta` object for the BENCH_*.json emitters, so the perf
/// trajectory is attributable run-to-run. Environment-passed fields (CI
/// sets SPARSIFY_GIT_REV to the commit sha and SPARSIFY_BENCH_TIMESTAMP
/// to an ISO-8601 UTC stamp) default to "unknown" locally — the bench
/// itself never reads a clock or shells out to git, keeping its output a
/// pure function of inputs + environment.
inline std::string BenchMetaJson(int threads, const std::string& datasets) {
  auto escape = [](const char* s) {
    std::string out;
    for (; s != nullptr && *s != '\0'; ++s) {
      if (*s == '"' || *s == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(*s) >= 0x20) out.push_back(*s);
    }
    return out;
  };
  std::ostringstream meta;
  meta << "{\"threads\": " << threads << ", \"git_rev\": \""
       << escape(std::getenv("SPARSIFY_GIT_REV")) << "\", \"timestamp\": \""
       << escape(std::getenv("SPARSIFY_BENCH_TIMESTAMP"))
       << "\", \"datasets\": \"" << escape(datasets.c_str()) << "\"}";
  return meta.str();
}

/// Shared --trace=FILE handling: arms the span tracer for the bench run
/// and writes the drained spans as Chrome trace JSON on destruction.
/// Inert (one relaxed load per span site) when the path is empty.
class BenchTraceScope {
 public:
  explicit BenchTraceScope(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) obs::StartTracing();
  }
  ~BenchTraceScope() {
    if (path_.empty()) return;
    obs::StopTracing();
    std::vector<obs::TraceEvent> events = obs::DrainTrace();
    if (obs::WriteChromeTraceFile(events, path_)) {
      std::cout << "# trace: " << events.size() << " spans -> " << path_
                << "\n";
    } else {
      std::cerr << "error: cannot write trace file " << path_ << "\n";
    }
  }

  BenchTraceScope(const BenchTraceScope&) = delete;
  BenchTraceScope& operator=(const BenchTraceScope&) = delete;

 private:
  std::string path_;
};

struct BenchOptions {
  double scale = 0.5;
  int runs = 3;
  int threads = 0;  // <= 0 selects hardware concurrency
  uint64_t seed = 42;
  bool csv = false;
};

/// Every flag ParseOptions knows, for benches that honour them all.
inline const std::set<std::string> kAllBenchFlags = {
    "--scale", "--runs", "--threads", "--seed", "--csv"};

inline void PrintBenchUsage(std::ostream& os,
                            const std::set<std::string>& honoured) {
  os << "usage: bench";
  for (const char* flag :
       {"--scale=f", "--runs=n", "--threads=n", "--seed=n", "--csv"}) {
    std::string name(flag);
    name = name.substr(0, name.find('='));
    if (honoured.count(name) > 0) os << " [" << flag << "]";
  }
  os << "\n";
}

/// Strict numeric flag values: `--runs=3x` or `--scale=abc` must abort,
/// not silently run with 0 (same discipline as unknown flag names).
inline double ParseDoubleFlag(const char* value, const char* flag) {
  char* end = nullptr;
  double v = std::strtod(value, &end);
  if (end == value || *end != '\0') {
    std::cerr << "error: invalid number for " << flag << ": '" << value
              << "'\n";
    std::exit(2);
  }
  return v;
}

inline long ParseIntFlag(const char* value, const char* flag) {
  char* end = nullptr;
  long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    std::cerr << "error: invalid integer for " << flag << ": '" << value
              << "'\n";
    std::exit(2);
  }
  return v;
}

inline uint64_t ParseUint64Flag(const char* value, const char* flag) {
  char* end = nullptr;
  uint64_t v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || value[0] == '-') {
    std::cerr << "error: invalid integer for " << flag << ": '" << value
              << "'\n";
    std::exit(2);
  }
  return v;
}

/// Splits a comma-separated flag value; empty tokens are dropped.
inline std::vector<std::string> SplitCsvFlag(const std::string& s) {
  std::vector<std::string> parts;
  std::istringstream ss(s);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

/// Parses argv into BenchOptions. `honoured` names the flags (of
/// kAllBenchFlags) the calling bench reads; any other flag exits 2.
inline BenchOptions ParseOptions(int argc, char** argv,
                                 const std::set<std::string>& honoured,
                                 double default_scale = 0.5,
                                 int default_runs = 3) {
  BenchOptions opt;
  opt.scale = default_scale;
  opt.runs = default_runs;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help") {
      PrintBenchUsage(std::cout, honoured);
      std::exit(0);
    }
    const std::string name = arg.substr(0, arg.find('='));
    const std::string value =
        name.size() < arg.size() ? arg.substr(name.size() + 1) : "";
    const bool known = kAllBenchFlags.count(name) > 0 &&
                       (name == "--csv") == (name.size() == arg.size());
    if (!known) {
      std::cerr << "error: unknown option '" << arg << "'\n";
      PrintBenchUsage(std::cerr, honoured);
      std::exit(2);
    }
    if (honoured.count(name) == 0) {
      std::cerr << "error: " << name << " is not used by this bench\n";
      PrintBenchUsage(std::cerr, honoured);
      std::exit(2);
    }
    if (name == "--scale") {
      opt.scale = ParseDoubleFlag(value.c_str(), "--scale");
      if (!std::isfinite(opt.scale) || opt.scale <= 0.0) {
        std::cerr << "error: --scale must be > 0\n";
        std::exit(2);
      }
    } else if (name == "--runs") {
      opt.runs = static_cast<int>(ParseIntFlag(value.c_str(), "--runs"));
    } else if (name == "--threads") {
      opt.threads =
          static_cast<int>(ParseIntFlag(value.c_str(), "--threads"));
    } else if (name == "--seed") {
      opt.seed = ParseUint64Flag(value.c_str(), "--seed");
    } else {
      opt.csv = true;
    }
  }
  return opt;
}

/// Runs one figure's sweep and prints it in the requested format. Used by
/// benches whose metrics need bench-local state (e.g. the GNN training
/// protocol); registry figures run through `sparsify_cli figure`. The
/// sweep's cells are named like the CLI's — dataset `name@scale`, metric
/// `value_name` — which also seeds their metric streams.
inline void RunFigure(const std::string& title, const std::string& value_name,
                      const Dataset& d,
                      const std::vector<std::string>& sparsifiers,
                      const BenchOptions& opt, const MetricFn& metric,
                      std::optional<double> reference = std::nullopt,
                      std::vector<double> rates = {0.1, 0.2, 0.3, 0.4, 0.5,
                                                   0.6, 0.7, 0.8, 0.9}) {
  SweepConfig config;
  config.sparsifiers = sparsifiers;
  config.prune_rates = std::move(rates);
  config.runs_nondeterministic = opt.runs;
  config.seed = opt.seed;
  // One engine per bench process (figures run several sweeps and would
  // otherwise pay pool setup/teardown for each); sized by the first call's
  // --threads, which is constant within a bench run.
  static BatchRunner runner(opt.threads);
  std::vector<SweepSeries> series = ResumableSweep(runner, nullptr)
      .Run(d.graph, cli::DatasetCellName(d.info.name, opt.scale),
           value_name, config, metric);
  if (opt.csv) {
    PrintSeriesCsv(std::cout, title, series);
  } else {
    PrintSeriesTable(std::cout, title, value_name, series, reference);
  }
}

}  // namespace sparsify::bench

#endif  // SPARSIFY_BENCH_BENCH_COMMON_H_
