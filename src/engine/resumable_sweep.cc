#include "src/engine/resumable_sweep.h"

#include <atomic>
#include <optional>
#include <utility>

namespace sparsify {

ResumableSweep::ResumableSweep(BatchRunner& runner, ResultStore* store,
                               std::string code_rev)
    : runner_(runner), store_(store), code_rev_(std::move(code_rev)) {}

CellKey ResumableSweep::KeyOf(const std::string& dataset,
                              const SweepConfig& config, const BatchTask& task,
                              const std::string& metric) const {
  CellKey key;
  key.dataset = dataset;
  key.sparsifier = task.sparsifier;
  key.prune_rate = task.prune_rate;
  key.run = task.run;
  key.master_seed = config.seed;
  key.metric = metric;
  key.code_rev = code_rev_;
  return key;
}

bool ResumableSweep::ResolveStored(const CellKey& key,
                                   BatchResult& slot) const {
  std::optional<StoredCell> cell = store_->Lookup(key);
  if (!cell.has_value() || cell->is_error) return false;
  slot.achieved_prune_rate = cell->achieved_prune_rate;
  slot.value = cell->value;
  slot.resolved = true;
  return true;
}

std::vector<BatchMultiResult> ResumableSweep::SubmitUnits(
    const Graph& g, const std::string& dataset,
    const std::vector<SweepMetric>& metrics, const SweepConfig& config,
    const std::vector<BatchTask>& missing, size_t progress_total,
    std::atomic<size_t>& completed, ResumableSweepStats& stats) const {
  for (const BatchTask& task : missing) {
    stats.submitted_cells += task.metrics.size();
  }
  auto unit_done = [&] {
    if (!progress_) return;
    size_t done = completed.fetch_add(1, std::memory_order_relaxed) + 1;
    progress_(done, progress_total);
  };
  // Append as each unit completes: the store flushes per record, so a
  // crash loses at most the in-flight line (see store/README.md). The
  // callbacks run on worker threads; Append serializes internally.
  BatchRunner::UnitCallback on_unit = [&](const BatchTask& task,
                                          double achieved, uint32_t m,
                                          double value) {
    if (store_ != nullptr) {
      store_->Append(KeyOf(dataset, config, task, metrics[m].name), achieved,
                     value);
    }
    unit_done();
  };
  // In tolerant mode a permanently-failed unit lands in the store as a
  // typed error record (same CellKey — the next resume sees it as missing
  // and resubmits it) and counts as completed for progress purposes;
  // everything else runs to the end.
  FaultPolicy faults = faults_;
  faults.on_unit_failure = [&](const BatchTask& task, uint32_t m,
                               const std::string& error_class,
                               const std::string& error_message,
                               int attempts) {
    if (store_ != nullptr) {
      store_->AppendError(KeyOf(dataset, config, task, metrics[m].name),
                          error_class, error_message, attempts);
    }
    unit_done();
  };
  BatchRunStats run;
  std::vector<BatchMultiResult> fresh = runner_.RunTasksMulti(
      g, dataset, missing, config.seed, metrics, on_unit, &run, faults);
  stats.score_groups += run.score_groups;
  stats.subgraph_builds += run.subgraph_builds;
  stats.failed_units += run.failed_units;
  stats.transient_failed_units += run.transient_failed_units;
  stats.retried_units += run.retried_units;
  stats.deadline_exceeded_units += run.deadline_exceeded_units;
  stats.cancelled_units += run.cancelled_units;
  stats.score_seconds += run.score_seconds;
  stats.subgraph_seconds += run.subgraph_seconds;
  stats.metric_seconds += run.metric_seconds;
  return fresh;
}

std::vector<std::vector<BatchResult>> ResumableSweep::EmptySlots(
    const std::vector<BatchTask>& tasks, size_t num_metrics) {
  std::vector<std::vector<BatchResult>> results(
      num_metrics, std::vector<BatchResult>(tasks.size()));
  for (auto& per_metric : results) {
    for (size_t i = 0; i < tasks.size(); ++i) per_metric[i].task = tasks[i];
  }
  return results;
}

std::vector<MetricSweepSeries> ResumableSweep::FoldPerMetric(
    const std::vector<SweepMetric>& metrics, const SweepConfig& config,
    const std::vector<std::vector<BatchResult>>& results) {
  std::vector<MetricSweepSeries> out(metrics.size());
  for (size_t m = 0; m < metrics.size(); ++m) {
    out[m].metric = metrics[m].name;
    out[m].series = FoldSweepResults(config, results[m]);
  }
  return out;
}

std::vector<MetricSweepSeries> ResumableSweep::RunMulti(
    const Graph& g, const std::string& dataset,
    const std::vector<SweepMetric>& metrics, const SweepConfig& config,
    ResumableSweepStats* stats) {
  if (shard_.total > 1) {
    return RunShardedMulti(g, dataset, metrics, config, stats);
  }
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(config);

  // Partition the (cell × metric) product: units already in the store
  // become results directly; each cell with at least one missing metric is
  // submitted ONCE, carrying exactly its missing metric ids, so the engine
  // materializes its subgraph once for all of them. Every RNG stream
  // derives from grid-shape-independent identities, so the values match a
  // cold run's. A unit that ends unresolved (failed or cancelled) drops
  // out of the fold.
  std::vector<std::vector<BatchResult>> results =
      EmptySlots(tasks, metrics.size());
  ResumableSweepStats accum;
  accum.total_cells = tasks.size() * metrics.size();
  std::vector<BatchTask> missing;
  std::vector<size_t> missing_pos;  // grid position of each missing task
  for (size_t i = 0; i < tasks.size(); ++i) {
    std::vector<uint32_t> missing_ids;
    for (uint32_t m = 0; m < metrics.size(); ++m) {
      if (store_ != nullptr && reuse_cached_ &&
          ResolveStored(KeyOf(dataset, config, tasks[i], metrics[m].name),
                        results[m][i])) {
        ++accum.cached_cells;
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

  if (!missing.empty()) {
    std::atomic<size_t> completed{0};
    std::vector<BatchMultiResult> fresh =
        SubmitUnits(g, dataset, metrics, config, missing,
                    accum.total_cells - accum.cached_cells, completed, accum);
    for (size_t j = 0; j < fresh.size(); ++j) {
      for (const BatchMetricValue& v : fresh[j].values) {
        // Failed and cancelled units stay unresolved: the returned series
        // fold the successes only, and the store carries the error
        // records for the next resume.
        if (v.failed) continue;
        BatchResult& slot = results[v.metric][missing_pos[j]];
        slot.achieved_prune_rate = fresh[j].achieved_prune_rate;
        slot.value = v.value;
        slot.resolved = true;
      }
    }
  }
  if (stats != nullptr) *stats = accum;
  return FoldPerMetric(metrics, config, results);
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
