// Parallel batch-sparsification engine.
//
// Expands an {algorithm x prune_rate x run} grid over one shared immutable
// Graph and evaluates every cell concurrently on a ThreadPool. Work is
// shared along two axes:
//   - the RATE axis: cells are grouped by (sparsifier, run), each group's
//     expensive ScoreState (degree rankings, similarity scores, effective
//     resistances) is computed ONCE, and the rate cells fan out as
//     near-free MaskForRate tasks;
//   - the METRIC axis: each cell's sparsified Subgraph is materialized
//     ONCE, and the cell's metrics fan out as independent evaluation units
//     over the shared read-only subgraph (RunTasksMulti).
// Every RNG stream derives from a stable identity — group scoring from
// (master_seed, sparsifier, run) and each (cell, metric) unit from
// (master_seed, dataset, sparsifier, rate, run, metric) — so the numeric
// output is bit-identical at any thread count, for any submitted subset of
// the grid, and for any metric-set composition. See README.md in this
// directory for the design rationale.
#ifndef SPARSIFY_ENGINE_BATCH_RUNNER_H_
#define SPARSIFY_ENGINE_BATCH_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/util/cancel.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace sparsify {

/// Metric evaluated on (original, sparsified). Each evaluation receives
/// its own seeded rng stream so sampled metrics are reproducible.
///
/// Thread-safety contract (audited in tests/test_multi_metric.cc): the
/// engine invokes the callable from multiple worker threads at once —
/// concurrently across cells AND, in a multi-metric sweep, concurrently
/// with the cell's other metrics on the same shared subgraph. It must not
/// mutate state shared between invocations without synchronization
/// (capture by value, use thread_local scratch, or use a BatchRunner(1)).
/// During an engine-run evaluation
/// CurrentSubtaskPool() exposes the worker pool, so a metric may fan its
/// independent per-source work out via NestedParallelFor — such subtasks
/// must write disjoint slots and fold in a FIXED order (never by thread
/// count) to keep results bit-identical at any parallelism; see
/// ApproxBetweennessCentrality's fixed-batch partials for the pattern.
using MetricFn =
    std::function<double(const Graph& original, const Graph& sparsified,
                         Rng& rng)>;

/// One named metric of a sweep. The name participates in each
/// (cell, metric) unit's RNG stream (MetricSeed) and is what a result
/// store keys cells by, so it must be the stable registry name of the
/// computation — not a display label (see cli::NamedMetrics).
struct SweepMetric {
  std::string name;
  MetricFn fn;
};

/// Sweep grid configuration. Expansion (ExpandGrid) mirrors the paper's
/// sweep protocol: deterministic sparsifiers contribute one run per rate
/// regardless of `runs_nondeterministic`, and sparsifiers without
/// prune-rate control (SF, SP-t) collapse the rate axis to a single
/// entry.
struct SweepConfig {
  std::vector<std::string> sparsifiers;  // short names; empty = all
  std::vector<double> prune_rates = {0.1, 0.2, 0.3, 0.4, 0.5,
                                     0.6, 0.7, 0.8, 0.9};
  int runs_nondeterministic = 5;  // paper uses 10
  uint64_t seed = 42;             // master seed of every RNG stream
};

/// One expanded cell of the grid.
struct BatchTask {
  std::string sparsifier;    // short name (see SparsifierNames)
  double prune_rate = 0.0;   // requested rate passed to MaskForRate
  int run = 0;               // 0-based repeat index for this cell
  // Indices into RunTasksMulti's metric list to evaluate on this cell;
  // empty means every metric. The resumable sweep submits the per-cell
  // subset missing from its store. Ids must be distinct and in range.
  std::vector<uint32_t> metrics;
};

/// One metric's result on one grid cell, as FoldSweepResults folds it.
/// A unit that failed or was cancelled stays unresolved and drops out of
/// the fold.
struct BatchResult {
  BatchTask task;
  double achieved_prune_rate = 0.0;
  double value = 0.0;  // metric output
  bool resolved = false;
};

/// One metric's output on one cell of a multi-metric run. Under a
/// tolerant FaultPolicy a unit that failed (after retries) reports
/// `failed` with its classification instead of a value.
struct BatchMetricValue {
  uint32_t metric = 0;  // index into RunTasksMulti's metric list
  double value = 0.0;
  bool failed = false;
  std::string error_class;    // "transient" | "permanent" (failed only)
  std::string error_message;  // what() of the final attempt's failure
  int attempts = 0;           // tries consumed (failed only)
};

/// All requested metric outputs of one task, in the same grid position.
struct BatchMultiResult {
  BatchTask task;
  double achieved_prune_rate = 0.0;
  std::vector<BatchMetricValue> values;  // in the task's metric-id order
};

/// Scheduling counters of one RunTasksMulti call: how much work the
/// rate-axis (scoring) and metric-axis (subgraph) sharing saved, and where
/// the time went. The CI perf smoke asserts score_groups < cells on a
/// multi-rate grid and subgraph_builds < metric_units on a multi-metric
/// one. The timings are summed task durations across workers
/// (single-threaded they equal wall clock).
struct BatchRunStats {
  size_t cells = 0;            // tasks executed
  size_t metric_units = 0;     // (cell, metric) evaluations scheduled
  size_t score_groups = 0;     // PrepareScores computations scheduled
  size_t subgraph_builds = 0;  // sparsified Subgraphs materialized (== cells;
                               // the banner/bench contrast it with
                               // metric_units)
  size_t failed_units = 0;     // units that ended in failure (tolerant mode)
  size_t transient_failed_units = 0;  // failed_units whose final class was
                                      // "transient" (retries exhausted)
  size_t deadline_exceeded_units = 0;  // failed_units whose final class was
                                       // "deadline" (--unit-timeout or
                                       // watchdog escalation)
  size_t cancelled_units = 0;  // units skipped or interrupted by run-level
                               // cancellation: NOT failures, nothing is
                               // recorded, a resume resubmits them
  size_t retried_units = 0;    // transient-failure retries performed
  double score_seconds = 0;     // summed duration of group scoring tasks
  double subgraph_seconds = 0;  // summed mask + Apply durations
  double metric_seconds = 0;    // summed metric evaluation durations
};

/// How RunTasksMulti treats failures inside units of work. The default is
/// the legacy contract: the first exception anywhere poisons the batch and
/// propagates out of the run (fail-fast). With `tolerate` set, a failing
/// metric unit no longer sinks its siblings: TransientError-classed
/// failures are retried up to `max_unit_retries` extra attempts with
/// capped exponential backoff (the unit's Rng is re-created from
/// MetricSeed each attempt, so a retried success is bit-identical to a
/// first-try success); anything else — and transient failures that
/// exhaust their retries — is reported through `on_unit_failure` and in
/// the result slot, and the rest of the batch runs to completion. A
/// score-group or subgraph failure fails that cell's (or group's cells')
/// units without retry, since re-running scoring wholesale is what a
/// resumed sweep is for.
struct FaultPolicy {
  bool tolerate = false;
  int max_unit_retries = 2;
  /// Invoked once per permanently-failed unit, from the worker thread
  /// (concurrently across workers — must synchronize like the result
  /// callback). error_class is "transient" (retries exhausted),
  /// "permanent", "deadline" (unit timeout / watchdog escalation), or
  /// "cancelled" (a CancelledError thrown while the run itself was NOT
  /// cancelled).
  std::function<void(const BatchTask& task, uint32_t metric,
                     const std::string& error_class,
                     const std::string& error_message, int attempts)>
      on_unit_failure;
  /// Whole-run cooperative cancellation. When the token trips, queued
  /// work is skipped and in-flight units are interrupted at their next
  /// check; affected units are counted as cancelled_units, NOT failures,
  /// and nothing is recorded for them (a resumed sweep resubmits them).
  /// Must outlive the run. Null = no run-level cancellation.
  const CancelToken* cancel = nullptr;
  /// Per-(cell, metric) unit deadline in seconds (0 = none). Each
  /// attempt gets a fresh deadline; a unit that exceeds it fails alone
  /// with error_class "deadline" (no retry — the same computation would
  /// time out again) and the rest of the batch completes.
  double unit_timeout_seconds = 0;
};

/// Evaluates batch grids on a fixed-size thread pool.
///
/// The input Graph is shared read-only across all workers (Graph is
/// immutable after construction); each group creates its own Sparsifier
/// instance and ScoreState, each cell forks private Rng streams, and
/// MaskForRate is const and re-entrant, so no worker state is shared.
class BatchRunner {
 public:
  /// `num_threads` <= 0 selects the hardware concurrency.
  explicit BatchRunner(int num_threads = 0);
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  int NumThreads() const;

  /// Always-on accounting of the underlying pool (per-worker busy time,
  /// tasks executed, queue high-water). `sparsify_cli profile` derives
  /// utilization as busy_seconds / (wall x NumThreads()).
  ThreadPoolStats PoolStats() const;

  /// Zeroes the pool counters so a profile run measures only itself.
  void ResetPoolStats();

  /// Expands `config` into the task grid. Deterministic and thread-free;
  /// exposed so callers can inspect or shard the grid.
  static std::vector<BatchTask> ExpandGrid(const SweepConfig& config);

  /// Seed of the shared scoring stream of group (sparsifier, run) under
  /// `master_seed`. Depends only on these three values — not on the grid
  /// shape or on which cells are submitted — so a subset run prepares
  /// bit-identical ScoreStates to the full grid's.
  static uint64_t GroupSeed(uint64_t master_seed,
                            const std::string& sparsifier, int run);

  /// Seed of one (cell, metric) evaluation unit. Depends only on the
  /// listed identities — not on the grid shape, the submitted subset, or
  /// which OTHER metrics are evaluated on the cell — so a multi-metric run
  /// draws bit-identical metric samples to a single-metric run of each of
  /// its metrics, which is what makes their store cells interchangeable.
  static uint64_t MetricSeed(uint64_t master_seed, const std::string& dataset,
                             const std::string& sparsifier, double prune_rate,
                             int run, const std::string& metric);

  /// Invoked as each (cell, metric) unit finishes, from the worker thread
  /// that ran it (concurrently across workers — the callback must
  /// synchronize its own state). `metric` indexes the metric list.
  using UnitCallback =
      std::function<void(const BatchTask& task, double achieved_prune_rate,
                         uint32_t metric, double value)>;

  /// The engine's run entry point. Runs an explicit task list — the
  /// ExpandGrid output or any subset of it — materializing each task's
  /// sparsified Subgraph exactly once and fanning the task's metrics out
  /// as independent units of work on the pool. Pipelined like the
  /// score→mask sharing: the moment a cell's subgraph lands its metric
  /// units jump the queue (SubmitUrgent) and the last unit frees the
  /// subgraph, so peak subgraph residency stays bounded by the cells in
  /// flight, not the grid.
  ///
  /// `dataset` is the caller's stable graph identity (the store's dataset
  /// key, e.g. "ego-Facebook@0.5"); it only feeds MetricSeed. Each unit's
  /// metric RNG stream derives from MetricSeed(master_seed, dataset,
  /// sparsifier, rate, run, metric-name), so values are bit-identical at
  /// any thread count, for any submitted subset, and for any metric-set
  /// composition — a {a,b} run computes exactly the {a}-run and {b}-run
  /// values. During each evaluation the engine's pool is exposed as
  /// CurrentSubtaskPool(), so sampled metrics fan their BFS batches out as
  /// subtasks (see MetricFn's thread-safety contract).
  ///
  /// When `g` is directed, sparsifiers whose SparsifierInfo does not
  /// support directed input receive the symmetrized graph (computed once,
  /// shared), and the metric's `original` is then also the symmetrized
  /// graph (paper sections 3.1, 4.5).
  ///
  /// Results are returned in `tasks` order with one value per requested
  /// metric id (task.metrics; empty = all) in that order. Throws
  /// std::invalid_argument when `metrics` is empty or a task names an
  /// out-of-range metric id. `faults` selects fail-fast (default) or
  /// error-tolerant execution; see FaultPolicy. Thread-safe: concurrent
  /// calls on one runner serialize (the pool's completion tracking is
  /// batch-global).
  std::vector<BatchMultiResult> RunTasksMulti(
      const Graph& g, const std::string& dataset,
      const std::vector<BatchTask>& tasks, uint64_t master_seed,
      const std::vector<SweepMetric>& metrics,
      const UnitCallback& on_result = nullptr,
      BatchRunStats* stats = nullptr,
      const FaultPolicy& faults = FaultPolicy()) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sparsify

#endif  // SPARSIFY_ENGINE_BATCH_RUNNER_H_
