// Crash-resumable sweep orchestration on top of BatchRunner + ResultStore.
//
// Expands the sweep grid as the (cell × metric) product, looks every unit
// up in a persistent store, submits only the missing units to the engine
// (each cell carrying exactly its missing metric subset, so its subgraph
// is materialized once for all of them), appends each fresh result to the
// store as it completes (flushed per record), and reassembles the full
// per-metric SweepSeries from stored + fresh units. Because every RNG
// stream derives from stable identities (GroupSeed for scoring, MetricSeed
// for metric samples), a resumed sweep is bit-identical to a cold one, and
// a sweep resumed with MORE metrics submits only the new metrics' units.
#ifndef SPARSIFY_ENGINE_RESUMABLE_SWEEP_H_
#define SPARSIFY_ENGINE_RESUMABLE_SWEEP_H_

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "src/engine/batch_runner.h"
#include "src/eval/experiment.h"
#include "src/store/result_store.h"

namespace sparsify {

/// One metric's folded sweep output.
struct MetricSweepSeries {
  std::string metric;
  std::vector<SweepSeries> series;
};

/// Shard-worker configuration for multi-process sweeps (set_shard). The
/// full grid is partitioned into contiguous chunks of cells in task
/// order; chunk c's preferred owner is worker c % total. Each worker
/// claims and runs its preferred chunks first, then (with `steal` on)
/// takes over incomplete chunks whose claimants died — guaranteeing a
/// `kill -9` of any worker loses at most its in-flight units. Because
/// every unit's RNG stream derives from grid-shape-independent
/// identities, any worker recomputes a stolen unit bit-identically.
struct ShardSpec {
  size_t index = 0;  // this worker's 0-based shard id
  size_t total = 1;  // worker count; <= 1 disables sharding
  bool steal = true;           // take over dead workers' chunks
  double poll_seconds = 0.25;  // peer-refresh cadence while waiting
};

/// Scheduling counters of one resumable run — the test/CI hook asserting
/// that a warm store leads to zero submitted units. A "unit" is one
/// (cell, metric) evaluation; for a single-metric sweep units == cells.
struct ResumableSweepStats {
  size_t total_cells = 0;      // full (cell × metric) product size
  size_t cached_cells = 0;     // units served from the store
  size_t submitted_cells = 0;  // units scheduled on the BatchRunner
  // Work the engine actually scheduled for the submitted units, counting
  // the two sharing axes: one PrepareScores per (sparsifier, run) group
  // (strictly fewer than submitted cells on a multi-rate grid) and one
  // materialized subgraph per cell with any missing metric (strictly
  // fewer than submitted units on a multi-metric grid).
  size_t score_groups = 0;
  size_t subgraph_builds = 0;
  // Fault-tolerant mode only: units that ended in failure (recorded as
  // error records when a store is attached), the subset whose final
  // failure was transient (retries exhausted — a re-run may succeed),
  // and transient retries spent.
  size_t failed_units = 0;
  size_t transient_failed_units = 0;
  size_t retried_units = 0;
  // Units that hit their --unit-timeout (or were watchdog-escalated):
  // a subset of failed_units, recorded as "deadline" error records.
  size_t deadline_exceeded_units = 0;
  // Units skipped or interrupted by run-level cancellation (SIGINT/
  // SIGTERM or --deadline): not failures, nothing recorded, the next
  // --resume resubmits them.
  size_t cancelled_units = 0;
  // Summed task durations from BatchRunStats: where the submitted units'
  // time went (score = PrepareScores groups, subgraph = mask + Apply,
  // metric = evaluations).
  double score_seconds = 0;
  double subgraph_seconds = 0;
  double metric_seconds = 0;
  // Sharded scheduling only (set_shard): chunks in the partition, chunks
  // this worker claimed as preferred owner, chunks it stole from dead
  // workers, and units whose results came from peer workers' records.
  size_t shard_chunks = 0;
  size_t shard_claimed = 0;
  size_t shard_stolen = 0;
  size_t peer_units = 0;
};

/// One sweep of one (dataset graph, metric) pair against a store.
///
/// The store may be null, in which case every cell is computed (a cold,
/// non-persistent run — identical output, nothing written).
class ResumableSweep {
 public:
  /// `code_rev` tags the cell keys (see kResultCodeRev); override it in
  /// tests to isolate stores.
  ResumableSweep(BatchRunner& runner, ResultStore* store,
                 std::string code_rev = kResultCodeRev);

  /// When false, the store is only written, never consulted: every cell is
  /// recomputed and re-appended (last write wins on replay). This is the
  /// CLI's `--store` without `--resume`. Default true.
  void set_reuse_cached(bool reuse) { reuse_cached_ = reuse; }

  /// Per-unit progress callback: invoked as each SUBMITTED (cell, metric)
  /// unit completes (or is recorded as failed), with the running completed
  /// count and the submitted total (cached units are excluded — they were
  /// never work; a shard worker reports against the full grid instead,
  /// since its share grows with every steal). Fires on worker threads,
  /// concurrently; the callback must synchronize its own state and stay
  /// cheap. Drives the CLI's --progress heartbeat.
  using ProgressFn = std::function<void(size_t completed, size_t submitted)>;
  void set_progress(ProgressFn progress) { progress_ = std::move(progress); }

  /// Error-tolerant execution (default off = legacy fail-fast). When on,
  /// a unit that throws no longer aborts the sweep: TransientError-classed
  /// failures retry up to max_unit_retries extra attempts (bit-identical
  /// on success — the unit's RNG re-derives from MetricSeed), and a unit
  /// that still fails is recorded in the store as a typed ERROR record
  /// under its CellKey. Error records read back as missing, so the next
  /// --resume resubmits exactly the failed units; a later success
  /// overwrites the error (last write wins).
  void set_fault_tolerant(bool on) { faults_.tolerate = on; }
  void set_max_unit_retries(int retries) {
    faults_.max_unit_retries = retries;
  }

  /// Whole-run cooperative cancellation token (see FaultPolicy::cancel).
  /// When it trips — SIGINT/SIGTERM via the CLI's signal bridge, or a
  /// --deadline — queued units are skipped, in-flight units interrupted
  /// at their next check, completed units are already appended, and
  /// nothing is recorded for the rest: the next --resume picks up where
  /// the cancelled run stopped, bit-identically. Must outlive RunMulti.
  void set_cancel_token(const CancelToken* token) { faults_.cancel = token; }

  /// Per-(cell, metric) deadline in seconds (0 = off). A unit exceeding
  /// it fails alone with a "deadline" error record; see FaultPolicy.
  void set_unit_timeout(double seconds) {
    faults_.unit_timeout_seconds = seconds;
  }

  /// Runs this sweep as shard `spec.index` of `spec.total` cooperating
  /// worker processes sharing one store directory (implemented in
  /// shard_scheduler.cc). Requires a store; the store is always consulted
  /// (sharding IS resume semantics — each worker runs only units nobody
  /// has completed). With spec.total <= 1 this is a no-op and RunMulti
  /// behaves exactly as unsharded.
  void set_shard(const ShardSpec& spec) { shard_ = spec; }

  /// Runs every metric of `metrics` over the sweep grid of `config` on
  /// `g`, sparsifying each (sparsifier, rate, run) cell exactly once and
  /// evaluating all of the cell's missing metrics on that one subgraph.
  /// `dataset` and the metric names become CellKey fields AND seed the
  /// (cell, metric) RNG streams — callers must pick names that uniquely
  /// identify the graph (include the scale) and the metric functions.
  /// Fresh units are appended to the store as they complete; the returned
  /// per-metric series (in `metrics` order) fold the successful units
  /// exactly as `export` folds the store (FoldSweepResults).
  std::vector<MetricSweepSeries> RunMulti(const Graph& g,
                                          const std::string& dataset,
                                          const std::vector<SweepMetric>& metrics,
                                          const SweepConfig& config,
                                          ResumableSweepStats* stats = nullptr);

  /// Single-metric convenience wrapper over RunMulti. A single-metric
  /// sweep is cache-compatible with any multi-metric sweep that includes
  /// `metric_name`: both key and seed the unit by (dataset, sparsifier,
  /// rate, run, metric_name), never by the metric-set composition.
  std::vector<SweepSeries> Run(const Graph& g, const std::string& dataset,
                               const std::string& metric_name,
                               const SweepConfig& config,
                               const MetricFn& metric,
                               ResumableSweepStats* stats = nullptr);

 private:
  // The multi-process claim/steal scheduler (shard_scheduler.cc); RunMulti
  // delegates here when shard_.total > 1.
  std::vector<MetricSweepSeries> RunShardedMulti(
      const Graph& g, const std::string& dataset,
      const std::vector<SweepMetric>& metrics, const SweepConfig& config,
      ResumableSweepStats* stats);

  // The store key of one (cell, metric) unit.
  CellKey KeyOf(const std::string& dataset, const SweepConfig& config,
                const BatchTask& task, const std::string& metric) const;

  // Resolves `slot` from the store's record under `key`. False when the
  // unit has no record or only an error record: a failed unit reads back
  // as missing, so a resume resubmits it.
  bool ResolveStored(const CellKey& key, BatchResult& slot) const;

  // The one submission routine of the unsharded and the sharded path.
  // Runs `missing` (each task carrying its missing metric ids) through
  // RunTasksMulti under faults_; appends each finished unit to the store
  // (a failed one as an error record, fault-tolerant mode) and counts it
  // into `completed` for the progress callback, which reports against
  // `progress_total`; adds the submitted units and the run's
  // BatchRunStats into `stats`. Returns the engine's results in
  // `missing` order.
  std::vector<BatchMultiResult> SubmitUnits(
      const Graph& g, const std::string& dataset,
      const std::vector<SweepMetric>& metrics, const SweepConfig& config,
      const std::vector<BatchTask>& missing, size_t progress_total,
      std::atomic<size_t>& completed, ResumableSweepStats& stats) const;

  // One unresolved slot per (metric, grid cell), each carrying its task.
  static std::vector<std::vector<BatchResult>> EmptySlots(
      const std::vector<BatchTask>& tasks, size_t num_metrics);

  // Folds each metric's full-grid slots into its series (FoldSweepResults),
  // in `metrics` order.
  static std::vector<MetricSweepSeries> FoldPerMetric(
      const std::vector<SweepMetric>& metrics, const SweepConfig& config,
      const std::vector<std::vector<BatchResult>>& results);

  BatchRunner& runner_;
  ResultStore* store_;  // not owned; may be null
  std::string code_rev_;
  bool reuse_cached_ = true;
  FaultPolicy faults_;  // on_unit_failure unset; SubmitUnits attaches it
  ProgressFn progress_;
  ShardSpec shard_;
};

}  // namespace sparsify

#endif  // SPARSIFY_ENGINE_RESUMABLE_SWEEP_H_
