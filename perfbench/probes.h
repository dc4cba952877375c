// Layer probes of the perfbench driver. Each probe times calls into one
// library layer's public functions from outside the library, on inputs
// derived from the workload seed, and returns raw samples; percentiles
// and ratios are computed by run.py (ledger.py) so one rule applies to
// every metric.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/graph.h"
#include "src/obs/trace.h"

namespace perfbench {

/// One sparsified (algorithm, rate) cell kept by ProbeSparsifiers.
struct ProbeCell {
  std::string algo;
  double rate = 0;
  sparsify::Graph graph;
};

/// sparsifiers + graph: PrepareScores of group (algo, run 0) with the
/// engine's group seed, then MaskForRate and Sparsifier::Apply per rate.
/// About `keep_cells` of the subgraphs, spread evenly over the
/// (algorithm, rate) grid, are kept for the metric probe.
struct SparsifierProbe {
  std::map<std::string, double> score_s;  // per algorithm
  std::vector<double> mask_us;            // one per (algorithm, rate)
  std::vector<double> apply_us;           // one per (algorithm, rate)
  std::vector<ProbeCell> cells;
};
SparsifierProbe ProbeSparsifiers(const sparsify::Graph& g,
                                 const std::vector<std::string>& algos,
                                 const std::vector<double>& rates,
                                 uint64_t seed, size_t keep_cells);

/// linalg: SolveLaplacian on the workload graph with effective-resistance
/// style right-hand sides (B^T W^{1/2} q, q = +-1/sqrt(k)) at ER's
/// default tolerance.
struct CgProbe {
  std::vector<double> solve_ms;
  std::vector<double> iterations;
};
CgProbe ProbeCg(const sparsify::Graph& g, uint64_t seed, int solves);

/// graph: BfsLevels traversals per second from `sources` sampled sources.
double ProbeBfsPerSecond(const sparsify::Graph& g, uint64_t seed,
                         int sources);

/// store: ResultStore append latency per fsync policy (one writer),
/// contended append latency (`threads` writers' threads on one store,
/// batch policy), replay throughput of a store written by 1 writer and by
/// 8 in-process writers, and point-lookup cost. Works under `dir`.
struct StoreProbe {
  std::map<std::string, std::vector<double>> append_us;  // by policy name
  std::vector<double> append_contended_us;
  double replay_mb_per_s_seg1 = 0;
  double replay_mb_per_s_seg8 = 0;
  size_t segments_seg1 = 0;
  size_t segments_seg8 = 0;
  double lookup_ns = 0;
};
StoreProbe ProbeStore(const std::string& dir, uint64_t seed, int threads);

/// util + obs: per-site costs of the robustness machinery, each the
/// median of several calibrated loops.
struct MicroProbe {
  double failpoint_unarmed_ns = 0;
  double failpoint_armed_other_ns = 0;
  double cancel_poll_unarmed_ns = 0;
  double cancel_poll_armed_ns = 0;
  double crc32c_gb_per_s = 0;
  double span_off_ns = 0;
  double span_on_ns = 0;
};
/// Starts and stops tracing itself; call with no trace events pending.
MicroProbe ProbeMicro();

/// Self seconds per layer of a traced sweep: a span's duration minus the
/// part its child spans cover. Children nest on the same thread; worker
/// spans that start inside the driver's "bench.sweep" span (the waiting
/// main thread) count as its children. Span names map to layers by the
/// table in probes.cc; unknown names are ignored.
std::map<std::string, double> LayerSelfSeconds(
    const std::vector<sparsify::obs::TraceEvent>& events);

/// 64-bit FNV-1a.
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
uint64_t Fnv1a(std::string_view bytes, uint64_t h = kFnvBasis);

/// Total bytes of the regular files directly under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
