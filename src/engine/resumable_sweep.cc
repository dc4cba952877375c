#include "src/engine/resumable_sweep.h"

#include <atomic>
#include <utility>

namespace sparsify {

ResumableSweep::ResumableSweep(BatchRunner& runner, ResultStore* store,
                               std::string code_rev)
    : runner_(runner), store_(store), code_rev_(std::move(code_rev)) {}

std::vector<MetricSweepSeries> ResumableSweep::RunMulti(
    const Graph& g, const std::string& dataset,
    const std::vector<SweepMetric>& metrics, const SweepConfig& config,
    ResumableSweepStats* stats) {
  if (shard_.total > 1) {
    return RunShardedMulti(g, dataset, metrics, config, stats);
  }
  BatchSpec spec = ToBatchSpec(config);
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(spec);

  auto key_of = [&](const BatchTask& task, const std::string& metric_name) {
    CellKey key;
    key.dataset = dataset;
    key.sparsifier = task.sparsifier;
    key.prune_rate = task.prune_rate;
    key.run = task.run;
    key.master_seed = spec.master_seed;
    key.metric = metric_name;
    key.code_rev = code_rev_;
    return key;
  };

  // Partition the (cell × metric) product: units already in the store
  // become results directly; each cell with at least one missing metric is
  // submitted ONCE, carrying exactly its missing metric ids, so the engine
  // materializes its subgraph once for all of them. Every RNG stream
  // derives from grid-shape-independent identities, so the values match a
  // cold run's. Every slot carries its task; a unit that ends unresolved
  // (failed or cancelled) drops out of the fold.
  std::vector<std::vector<BatchResult>> results(
      metrics.size(), std::vector<BatchResult>(tasks.size()));
  for (auto& per_metric : results) {
    for (size_t i = 0; i < tasks.size(); ++i) per_metric[i].task = tasks[i];
  }
  size_t cached_units = 0;
  std::vector<BatchTask> missing;
  std::vector<size_t> missing_pos;  // grid position of each missing task
  for (size_t i = 0; i < tasks.size(); ++i) {
    std::vector<uint32_t> missing_ids;
    for (uint32_t m = 0; m < metrics.size(); ++m) {
      std::optional<StoredCell> cached;
      if (store_ != nullptr && reuse_cached_) {
        cached = store_->Lookup(key_of(tasks[i], metrics[m].name));
        // An error record is a unit that FAILED, not one that completed:
        // it reads back as missing so this resume resubmits it.
        if (cached.has_value() && cached->is_error) cached.reset();
      }
      if (cached.has_value()) {
        ++cached_units;
        results[m][i].achieved_prune_rate = cached->achieved_prune_rate;
        results[m][i].value = cached->value;
        results[m][i].resolved = true;
      } else {
        missing_ids.push_back(m);
      }
    }
    if (!missing_ids.empty()) {
      BatchTask task = tasks[i];
      task.metrics = std::move(missing_ids);
      missing.push_back(std::move(task));
      missing_pos.push_back(i);
    }
  }

  size_t total_units = tasks.size() * metrics.size();
  if (stats != nullptr) {
    *stats = ResumableSweepStats{};
    stats->total_cells = total_units;
    stats->cached_cells = cached_units;
    stats->submitted_cells = total_units - cached_units;
  }

  if (!missing.empty()) {
    // Append as each unit completes: the store flushes per record, so a
    // crash loses at most the in-flight line (see store/README.md). The
    // callback runs on worker threads; Append serializes internally.
    std::vector<BatchMetric> engine_metrics;
    engine_metrics.reserve(metrics.size());
    for (const SweepMetric& m : metrics) {
      engine_metrics.push_back(BatchMetric{m.name, m.fn});
    }
    BatchRunner::UnitCallback on_unit = nullptr;
    std::atomic<size_t> completed_units{0};
    size_t submitted_units = total_units - cached_units;
    if (store_ != nullptr || progress_) {
      on_unit = [&](const BatchTask& task, double achieved, uint32_t m,
                    double value) {
        if (store_ != nullptr) {
          store_->Append(key_of(task, metrics[m].name), achieved, value);
        }
        if (progress_) {
          size_t done =
              completed_units.fetch_add(1, std::memory_order_relaxed) + 1;
          progress_(done, submitted_units);
        }
      };
    }
    // Fault policy: in tolerant mode a permanently-failed unit lands in
    // the store as a typed error record (same CellKey — the next resume
    // sees it as missing and resubmits it) and counts as completed for
    // progress purposes; everything else runs to the end.
    FaultPolicy faults;
    faults.tolerate = fault_tolerant_;
    faults.max_unit_retries = max_unit_retries_;
    faults.cancel = cancel_;
    faults.unit_timeout_seconds = unit_timeout_seconds_;
    if (fault_tolerant_ && (store_ != nullptr || progress_)) {
      faults.on_unit_failure = [&](const BatchTask& task, uint32_t m,
                                   const std::string& error_class,
                                   const std::string& error_message,
                                   int attempts) {
        if (store_ != nullptr) {
          store_->AppendError(key_of(task, metrics[m].name), error_class,
                              error_message, attempts);
        }
        if (progress_) {
          size_t done =
              completed_units.fetch_add(1, std::memory_order_relaxed) + 1;
          progress_(done, submitted_units);
        }
      };
    }
    BatchRunStats run_stats;
    std::vector<BatchMultiResult> fresh = runner_.RunTasksMulti(
        g, dataset, missing, spec.master_seed, engine_metrics, on_unit,
        &run_stats, faults);
    for (size_t j = 0; j < fresh.size(); ++j) {
      size_t i = missing_pos[j];
      for (size_t slot = 0; slot < fresh[j].values.size(); ++slot) {
        // Failed and cancelled units stay unresolved: the returned series
        // fold the successes only, and the store carries the error
        // records for the next resume.
        if (fresh[j].values[slot].failed) continue;
        uint32_t m = fresh[j].values[slot].metric;
        results[m][i].achieved_prune_rate = fresh[j].achieved_prune_rate;
        results[m][i].value = fresh[j].values[slot].value;
        results[m][i].resolved = true;
      }
    }
    if (stats != nullptr) {
      stats->score_groups = run_stats.score_groups;
      stats->subgraph_builds = run_stats.subgraph_builds;
      stats->failed_units = run_stats.failed_units;
      stats->transient_failed_units = run_stats.transient_failed_units;
      stats->retried_units = run_stats.retried_units;
      stats->deadline_exceeded_units = run_stats.deadline_exceeded_units;
      stats->cancelled_units = run_stats.cancelled_units;
      stats->score_seconds = run_stats.score_seconds;
      stats->subgraph_seconds = run_stats.subgraph_seconds;
      stats->metric_seconds = run_stats.metric_seconds;
    }
  }

  std::vector<MetricSweepSeries> out(metrics.size());
  for (size_t m = 0; m < metrics.size(); ++m) {
    out[m].metric = metrics[m].name;
    out[m].series = FoldSweepResults(config, results[m]);
  }
  return out;
}

std::vector<SweepSeries> ResumableSweep::Run(const Graph& g,
                                             const std::string& dataset,
                                             const std::string& metric_name,
                                             const SweepConfig& config,
                                             const MetricFn& metric,
                                             ResumableSweepStats* stats) {
  std::vector<SweepMetric> metrics;
  metrics.push_back(SweepMetric{metric_name, metric});
  std::vector<MetricSweepSeries> out =
      RunMulti(g, dataset, metrics, config, stats);
  return std::move(out[0].series);
}

}  // namespace sparsify
