#include "src/engine/batch_runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/util/errors.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace sparsify {
namespace {

// Engine stage counters/latencies. Function-local static references so
// the registry mutex is paid once per process, not per task.
struct EngineObs {
  obs::Counter& score_groups = obs::GetCounter("engine.score_groups");
  obs::Counter& subgraph_builds = obs::GetCounter("engine.subgraph_builds");
  obs::Counter& metric_units = obs::GetCounter("engine.metric_units");
  obs::Histogram& score_ns = obs::GetHistogram("engine.score_ns");
  obs::Histogram& subgraph_ns = obs::GetHistogram("engine.subgraph_ns");
  obs::Histogram& metric_unit_ns = obs::GetHistogram("engine.metric_unit_ns");
};

EngineObs& GetEngineObs() {
  static EngineObs* e = new EngineObs();
  return *e;
}

std::string FormatRate(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", rate);
  return buf;
}

// Backoff before transient-failure retry `attempt` (1-based count of
// attempts already made): 1ms doubling, capped at 100ms. A transient
// fault (contended resource, injected flake) usually clears fast; the
// cap keeps a retried batch from stalling a worker for long.
std::chrono::milliseconds RetryBackoff(int attempt) {
  uint64_t ms = 1ULL << std::min(attempt - 1, 20);
  return std::chrono::milliseconds(std::min<uint64_t>(ms, 100));
}

}  // namespace

struct BatchRunner::Impl {
  explicit Impl(int num_threads) : pool(num_threads) {}
  // Serializes Run: the pool's completion tracking is batch-global, so two
  // concurrent batches would wait on (and steal errors from) each other.
  std::mutex run_mu;
  mutable ThreadPool pool;
  bool share_scores = true;
};

BatchRunner::BatchRunner(int num_threads)
    : impl_(std::make_unique<Impl>(num_threads)) {}

BatchRunner::~BatchRunner() = default;

int BatchRunner::NumThreads() const { return impl_->pool.NumThreads(); }

ThreadPoolStats BatchRunner::PoolStats() const { return impl_->pool.Stats(); }

void BatchRunner::ResetPoolStats() { impl_->pool.ResetStats(); }

void BatchRunner::set_share_scores(bool share) {
  impl_->share_scores = share;
}

bool BatchRunner::share_scores() const { return impl_->share_scores; }

namespace {

uint64_t SplitMix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t BatchRunner::TaskSeed(uint64_t master_seed, uint64_t index) {
  // SplitMix64 over the combined pair. The golden-ratio stride separates
  // consecutive indices far apart in the seed space; Rng's own seed mixing
  // then decorrelates the streams.
  return SplitMix(master_seed + (index + 1) * 0x9e3779b97f4a7c15ULL);
}

uint64_t BatchRunner::GroupSeed(uint64_t master_seed,
                                const std::string& sparsifier, int run) {
  // FNV-1a over the name, folded with the run index, then the same
  // SplitMix finalizer as TaskSeed. Intentionally independent of grid
  // shape and cell indices: any subset of a group's rate cells prepares
  // the same ScoreState.
  uint64_t h = 1469598103934665603ULL;
  for (char c : sparsifier) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  h += (static_cast<uint64_t>(run) + 1) * 0x9e3779b97f4a7c15ULL;
  return SplitMix(master_seed ^ SplitMix(h));
}

uint64_t BatchRunner::MetricSeed(uint64_t master_seed,
                                 const std::string& dataset,
                                 const std::string& sparsifier,
                                 double prune_rate, int run,
                                 const std::string& metric) {
  // FNV-1a over every identity component. Each string is closed with a
  // fold of its LENGTH — a boundary no byte content can forge, so
  // ("ab", "c") never collides with ("a", "bc") even for names holding
  // arbitrary bytes; the rate enters via its IEEE-754 bits (grid rates
  // are exact values, so bitwise identity is the right equality). Like
  // GroupSeed, this is intentionally independent of grid shape, of the
  // submitted subset, and of the metric-set composition.
  uint64_t h = 1469598103934665603ULL;
  auto fold_string = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= s.size() + 0x9e3779b97f4a7c15ULL;
    h *= 1099511628211ULL;
  };
  fold_string(dataset);
  fold_string(sparsifier);
  fold_string(metric);
  uint64_t rate_bits = 0;
  static_assert(sizeof(rate_bits) == sizeof(prune_rate));
  std::memcpy(&rate_bits, &prune_rate, sizeof(rate_bits));
  h ^= SplitMix(rate_bits);
  h *= 1099511628211ULL;
  h += (static_cast<uint64_t>(run) + 1) * 0x9e3779b97f4a7c15ULL;
  return SplitMix(master_seed ^ SplitMix(h));
}

std::vector<BatchTask> BatchRunner::ExpandGrid(const BatchSpec& spec) {
  std::vector<std::string> names =
      spec.sparsifiers.empty() ? SparsifierNames() : spec.sparsifiers;
  std::vector<BatchTask> tasks;
  for (const std::string& name : names) {
    SparsifierInfo info = CreateSparsifier(name)->Info();
    bool fixed_output = info.prune_rate_control == PruneRateControl::kNone;
    std::vector<double> rates =
        fixed_output ? std::vector<double>{0.0} : spec.prune_rates;
    int runs = info.deterministic ? 1 : std::max(1, spec.runs);
    for (double rate : rates) {
      for (int run = 0; run < runs; ++run) {
        BatchTask task;
        task.index = tasks.size();
        task.sparsifier = name;
        task.prune_rate = rate;
        task.run = run;
        tasks.push_back(std::move(task));
      }
    }
  }
  return tasks;
}

std::vector<BatchResult> BatchRunner::Run(const Graph& g,
                                          const BatchSpec& spec,
                                          const BatchMetricFn& metric) const {
  return RunTasks(g, ExpandGrid(spec), spec.master_seed, metric);
}

std::vector<BatchResult> BatchRunner::RunTasks(
    const Graph& g, const std::vector<BatchTask>& tasks, uint64_t master_seed,
    const BatchMetricFn& metric, const ResultCallback& on_result,
    BatchRunStats* stats) const {
  // Thin wrapper over the multi-metric path: one anonymous metric, every
  // task evaluating it (per-task subsets are a multi-metric concept).
  std::vector<BatchTask> plain = tasks;
  for (BatchTask& task : plain) task.metrics.clear();
  std::vector<BatchMetric> metrics;
  metrics.push_back(BatchMetric{std::string(), metric});
  MetricResultCallback on_unit = nullptr;
  if (on_result) {
    on_unit = [&on_result](const BatchTask& task, double achieved, uint32_t,
                           double value) {
      BatchResult r;
      r.task = task;
      r.achieved_prune_rate = achieved;
      r.value = value;
      on_result(r);
    };
  }
  std::vector<BatchMultiResult> multi =
      RunTasksMulti(g, std::string(), plain, master_seed, metrics, on_unit,
                    stats);
  std::vector<BatchResult> results(multi.size());
  for (size_t i = 0; i < multi.size(); ++i) {
    results[i].task = std::move(multi[i].task);
    results[i].achieved_prune_rate = multi[i].achieved_prune_rate;
    results[i].value = multi[i].values[0].value;
  }
  return results;
}

std::vector<BatchMultiResult> BatchRunner::RunTasksMulti(
    const Graph& g, const std::string& dataset,
    const std::vector<BatchTask>& tasks, uint64_t master_seed,
    const std::vector<BatchMetric>& metrics,
    const MetricResultCallback& on_result, BatchRunStats* stats,
    const FaultPolicy& faults) const {
  if (metrics.empty()) {
    throw std::invalid_argument("RunTasksMulti: metric list is empty");
  }
  std::lock_guard<std::mutex> run_lock(impl_->run_mu);

  // Symmetrize once if any selected sparsifier will need it; the copy is
  // shared read-only across workers like the original.
  Graph sym_holder;
  const Graph* symmetrized = nullptr;
  std::unordered_map<std::string, const Graph*> input_for;
  for (const BatchTask& task : tasks) {
    if (input_for.contains(task.sparsifier)) continue;
    SparsifierInfo info = CreateSparsifier(task.sparsifier)->Info();
    if (g.IsDirected() && !info.supports_directed) {
      if (symmetrized == nullptr) {
        sym_holder = g.Symmetrized();
        symmetrized = &sym_holder;
      }
      input_for[task.sparsifier] = symmetrized;
    } else {
      input_for[task.sparsifier] = &g;
    }
  }

  // Resolve each task's metric-id list (empty = every metric) and size the
  // result slots so metric units can write them without synchronization.
  std::vector<uint32_t> all_ids(metrics.size());
  for (uint32_t m = 0; m < metrics.size(); ++m) all_ids[m] = m;
  std::vector<const std::vector<uint32_t>*> ids_of(tasks.size());
  size_t metric_units = 0;
  std::vector<BatchMultiResult> results(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    const std::vector<uint32_t>& ids =
        tasks[i].metrics.empty() ? all_ids : tasks[i].metrics;
    for (uint32_t m : ids) {
      if (m >= metrics.size()) {
        throw std::invalid_argument(
            "RunTasksMulti: task names out-of-range metric id");
      }
    }
    ids_of[i] = &ids;
    metric_units += ids.size();
    results[i].task = tasks[i];
    results[i].values.resize(ids.size());
  }

  // Per-cell shared state for the metric fan-out: the materialized
  // subgraph, freed by the cell's last metric unit.
  std::vector<std::optional<Graph>> cell_graph(tasks.size());
  std::vector<std::atomic<size_t>> units_left(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    units_left[i].store(ids_of[i]->size(), std::memory_order_relaxed);
  }

  std::atomic<bool> failed{false};
  std::mutex stats_mu;
  double score_seconds = 0.0, subgraph_seconds = 0.0, metric_seconds = 0.0;
  const bool tolerate = faults.tolerate;
  std::atomic<size_t> failed_units{0};
  std::atomic<size_t> transient_failed_units{0};
  std::atomic<size_t> deadline_units{0};
  std::atomic<size_t> cancelled_units{0};
  std::atomic<size_t> retried_units{0};

  // Run-level cancellation: once the caller's token trips, tasks still
  // queued skip their work entirely and in-flight units are interrupted
  // at their next cooperative check.
  const CancelToken* run_cancel = faults.cancel;
  auto run_cancelled = [run_cancel] {
    return run_cancel != nullptr && run_cancel->Cancelled();
  };

  // Tolerant-mode handling of a failed score-group or subgraph stage:
  // every dependent unit of cell i is marked failed (no retry — scoring
  // is re-run wholesale by a resumed sweep, not per unit). Only the
  // worker owning cell i calls this, so the result slots need no lock.
  auto fail_cell = [&](size_t i, const std::string& error_class,
                       const std::string& error_message) {
    const BatchTask& task = results[i].task;
    for (size_t slot = 0; slot < ids_of[i]->size(); ++slot) {
      BatchMetricValue v;
      v.metric = (*ids_of[i])[slot];
      v.failed = true;
      v.error_class = error_class;
      v.error_message = error_message;
      v.attempts = 1;
      results[i].values[slot] = std::move(v);
      failed_units.fetch_add(1, std::memory_order_relaxed);
      if (error_class == "transient") {
        transient_failed_units.fetch_add(1, std::memory_order_relaxed);
      }
      if (error_class == "deadline") {
        deadline_units.fetch_add(1, std::memory_order_relaxed);
      }
      if (faults.on_unit_failure) {
        faults.on_unit_failure(task, (*ids_of[i])[slot], error_class,
                               error_message, 1);
      }
    }
  };

  // Run-level cancellation of cell i's units. The slots are still marked
  // failed (a default slot would fold as metric-0 value 0.0) but this is
  // NOT a failure: on_unit_failure is not invoked and nothing is
  // recorded, so a resumed sweep resubmits exactly these units. Only the
  // worker owning cell i calls this.
  auto cancel_cell = [&](size_t i) {
    for (size_t slot = 0; slot < ids_of[i]->size(); ++slot) {
      BatchMetricValue v;
      v.metric = (*ids_of[i])[slot];
      v.failed = true;
      v.error_class = "cancelled";
      v.error_message = "run cancelled";
      results[i].values[slot] = std::move(v);
      cancelled_units.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // Fans cell i's metrics out as independent evaluation units. Called from
  // the task that materialized the cell's subgraph; SubmitUrgent puts the
  // units ahead of every queued subgraph build and scoring task, so the
  // subgraph is consumed and freed before more subgraphs pile up.
  auto submit_metric_units = [&](size_t i) {
    for (size_t slot = 0; slot < ids_of[i]->size(); ++slot) {
      impl_->pool.SubmitUrgent([&, i, slot] {
        if (failed.load(std::memory_order_relaxed)) return;
        const BatchTask& task = results[i].task;
        uint32_t m = (*ids_of[i])[slot];
        if (run_cancelled()) {
          // Skipped before starting. Still release the subgraph chain.
          BatchMetricValue v;
          v.metric = m;
          v.failed = true;
          v.error_class = "cancelled";
          v.error_message = "run cancelled";
          results[i].values[slot] = std::move(v);
          cancelled_units.fetch_add(1, std::memory_order_relaxed);
          if (units_left[i].fetch_sub(1, std::memory_order_acq_rel) == 1) {
            cell_graph[i].reset();
          }
          return;
        }
        // One span per (cell x metric) evaluation unit — the unit CI
        // counts against the sweep banner. The detail key is the metric
        // registry name; the cell identity rides in the args.
        TRACE_SPAN(span, "metric_unit");
        if (span.active()) {
          span.Detail(metrics[m].name.empty() ? "metric" : metrics[m].name);
          span.Arg("sparsifier", task.sparsifier);
          span.Arg("rate", FormatRate(task.prune_rate));
          span.Arg("run", std::to_string(task.run));
        }
        Timer unit_timer;
        bool ok = false;
        bool cancelled = false;  // run-level: skip, don't fail
        std::string error_class, error_message;
        int attempts = 0;
        const bool cancellable =
            run_cancel != nullptr || faults.unit_timeout_seconds > 0;
        while (true) {
          ++attempts;
          // Per-attempt unit token: parented under the run token so a
          // run-level cancel interrupts the unit at its next check, with
          // a fresh --unit-timeout deadline each attempt. Declared
          // before the activity scope so the watchdog (which cancels the
          // token of a stuck activity while holding its slot lock) can
          // never observe a destroyed token.
          CancelToken unit_token;
          unit_token.set_parent(run_cancel);
          if (faults.unit_timeout_seconds > 0) {
            unit_token.SetDeadlineAfter(faults.unit_timeout_seconds);
          }
          CancelScope cancel_scope(cancellable ? &unit_token : nullptr);
          ActivityScope activity(
              "metric_unit",
              metrics[m].name.empty() ? "metric" : metrics[m].name,
              cancellable ? &unit_token : nullptr);
          try {
            // The Rng is re-created from MetricSeed on every attempt, so
            // a retried success draws the exact samples a first-try
            // success would — retries are invisible in the numbers.
            // (Cancellation checks never touch this stream either: an
            // interrupted-then-resumed unit is bit-identical.)
            Rng metric_rng(MetricSeed(master_seed, dataset, task.sparsifier,
                                      task.prune_rate, task.run,
                                      metrics[m].name));
            SPARSIFY_FAILPOINT_SCOPED("engine.metric_unit",
                                      metrics[m].name.c_str());
            // Expose the pool for the metric's own BFS-batch fan-out.
            SubtaskPoolScope subtasks(&impl_->pool);
            double value = metrics[m].fn(*input_for.at(task.sparsifier),
                                         *cell_graph[i], metric_rng);
            BatchMetricValue done;
            done.metric = m;
            done.value = value;
            results[i].values[slot] = std::move(done);
            ok = true;
            if (on_result) {
              on_result(task, results[i].achieved_prune_rate, m, value);
            }
            break;
          } catch (const DeadlineExceededError& e) {
            if (!tolerate) {
              failed.store(true, std::memory_order_relaxed);
              throw;  // recorded as the pool's first error, rethrown by Wait
            }
            if (run_cancelled()) {
              cancelled = true;  // the whole run is going down, not just us
            } else {
              error_class = "deadline";  // no retry: it would time out again
            }
            error_message = e.what();
            break;
          } catch (const CancelledError& e) {
            if (!tolerate) {
              failed.store(true, std::memory_order_relaxed);
              throw;
            }
            if (run_cancelled()) {
              cancelled = true;
            } else {
              error_class = "cancelled";
            }
            error_message = e.what();
            break;
          } catch (const TransientError& e) {
            if (!tolerate) {
              failed.store(true, std::memory_order_relaxed);
              throw;  // recorded as the pool's first error, rethrown by Wait
            }
            error_class = "transient";
            error_message = e.what();
            if (attempts > faults.max_unit_retries) break;
            retried_units.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(RetryBackoff(attempts));
          } catch (const std::exception& e) {
            if (!tolerate) {
              failed.store(true, std::memory_order_relaxed);
              throw;
            }
            error_class = "permanent";
            error_message = e.what();
            break;
          } catch (...) {
            if (!tolerate) {
              failed.store(true, std::memory_order_relaxed);
              throw;
            }
            error_class = "permanent";
            error_message = "unknown error";
            break;
          }
        }
        if (!ok) {
          BatchMetricValue v;
          v.metric = m;
          v.failed = true;
          v.error_class = cancelled ? "cancelled" : error_class;
          v.error_message = error_message;
          v.attempts = attempts;
          results[i].values[slot] = std::move(v);
          if (cancelled) {
            // Not a failure: nothing recorded, resume resubmits the unit.
            cancelled_units.fetch_add(1, std::memory_order_relaxed);
          } else {
            failed_units.fetch_add(1, std::memory_order_relaxed);
            if (error_class == "transient") {
              transient_failed_units.fetch_add(1, std::memory_order_relaxed);
            }
            if (error_class == "deadline") {
              deadline_units.fetch_add(1, std::memory_order_relaxed);
            }
            if (faults.on_unit_failure) {
              faults.on_unit_failure(task, m, error_class, error_message,
                                     attempts);
            }
          }
        }
        double unit_seconds = unit_timer.Seconds();
        EngineObs& eobs = GetEngineObs();
        eobs.metric_units.Add();
        eobs.metric_unit_ns.Record(
            static_cast<uint64_t>(unit_seconds * 1e9));
        {
          std::lock_guard<std::mutex> lock(stats_mu);
          metric_seconds += unit_seconds;
        }
        if (units_left[i].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          cell_graph[i].reset();  // last metric frees the subgraph
        }
      });
    }
  };

  if (!impl_->share_scores) {
    // Legacy per-cell scoring: every cell re-sparsifies from scratch with
    // its own (master_seed, index)-derived stream. Kept as the throughput
    // benchmark's baseline and for A/B debugging; the metric fan-out (and
    // its MetricSeed streams) is identical to the shared path, so
    // deterministic sparsifiers stay bit-identical across modes.
    for (size_t i = 0; i < tasks.size(); ++i) {
      impl_->pool.Submit([&, i] {
        if (failed.load(std::memory_order_relaxed)) return;
        if (run_cancelled()) {
          cancel_cell(i);
          return;
        }
        TRACE_SPAN(span, "subgraph");
        if (span.active()) {
          span.Detail(results[i].task.sparsifier);
          span.Arg("rate", FormatRate(results[i].task.prune_rate));
        }
        CancelScope cancel_scope(run_cancel);
        ActivityScope activity("subgraph", results[i].task.sparsifier,
                               run_cancel);
        Timer build_timer;
        bool built = false;
        try {
          const BatchTask& task = results[i].task;
          const Graph& input = *input_for.at(task.sparsifier);
          SPARSIFY_FAILPOINT_SCOPED("engine.subgraph",
                                    task.sparsifier.c_str());
          Rng task_rng(TaskSeed(master_seed, task.index));
          Rng sparsify_rng = task_rng.Fork();
          std::unique_ptr<Sparsifier> sparsifier =
              CreateSparsifier(task.sparsifier);
          Graph sparsified =
              sparsifier->Sparsify(input, task.prune_rate, sparsify_rng);
          results[i].achieved_prune_rate =
              Sparsifier::AchievedPruneRate(input, sparsified);
          cell_graph[i].emplace(std::move(sparsified));
          built = true;
        } catch (const CancelledError& e) {
          if (!tolerate) {
            failed.store(true, std::memory_order_relaxed);
            throw;
          }
          if (run_cancelled()) {
            cancel_cell(i);
          } else {
            fail_cell(i, "cancelled", e.what());
          }
        } catch (const TransientError& e) {
          if (!tolerate) {
            failed.store(true, std::memory_order_relaxed);
            throw;
          }
          fail_cell(i, "transient", e.what());
        } catch (const std::exception& e) {
          if (!tolerate) {
            failed.store(true, std::memory_order_relaxed);
            throw;
          }
          fail_cell(i, "permanent", e.what());
        } catch (...) {
          if (!tolerate) {
            failed.store(true, std::memory_order_relaxed);
            throw;
          }
          fail_cell(i, "permanent", "unknown error");
        }
        double build_seconds = build_timer.Seconds();
        EngineObs& eobs = GetEngineObs();
        eobs.subgraph_builds.Add();
        eobs.subgraph_ns.Record(static_cast<uint64_t>(build_seconds * 1e9));
        {
          std::lock_guard<std::mutex> lock(stats_mu);
          subgraph_seconds += build_seconds;
        }
        if (built) submit_metric_units(i);
      });
    }
    impl_->pool.Wait();
    if (stats != nullptr) {
      *stats = BatchRunStats{};
      stats->cells = tasks.size();
      stats->metric_units = metric_units;
      stats->score_groups = tasks.size();  // every cell rescored
      stats->subgraph_builds = tasks.size();
      stats->failed_units = failed_units.load(std::memory_order_relaxed);
      stats->transient_failed_units =
          transient_failed_units.load(std::memory_order_relaxed);
      stats->deadline_exceeded_units =
          deadline_units.load(std::memory_order_relaxed);
      stats->cancelled_units =
          cancelled_units.load(std::memory_order_relaxed);
      stats->retried_units = retried_units.load(std::memory_order_relaxed);
      stats->subgraph_seconds = subgraph_seconds;
      stats->metric_seconds = metric_seconds;
    }
    return results;
  }

  // Group the cells by (sparsifier, run): one ScoreState per group, shared
  // read-only across that group's rate cells. std::map keeps group order
  // deterministic (not that it matters numerically — every group's RNG
  // stream derives from its own GroupSeed).
  struct Group {
    std::string sparsifier;
    int run = 0;
    const Graph* input = nullptr;
    std::unique_ptr<Sparsifier> instance;
    std::unique_ptr<ScoreState> state;
  };
  std::vector<Group> groups;
  std::vector<size_t> group_of(tasks.size());
  std::map<std::pair<std::string, int>, size_t> group_index;
  for (size_t i = 0; i < tasks.size(); ++i) {
    auto key = std::make_pair(tasks[i].sparsifier, tasks[i].run);
    auto [it, inserted] = group_index.try_emplace(key, groups.size());
    if (inserted) {
      Group group;
      group.sparsifier = tasks[i].sparsifier;
      group.run = tasks[i].run;
      group.input = input_for.at(tasks[i].sparsifier);
      group.instance = CreateSparsifier(tasks[i].sparsifier);
      groups.push_back(std::move(group));
    }
    group_of[i] = it->second;
  }
  std::vector<std::vector<size_t>> cells_of(groups.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    cells_of[group_of[i]].push_back(i);
  }

  // Pipelined execution — no barrier between the three stages. Every
  // group's scoring task is queued up front; the moment a group's state is
  // ready, its cells' subgraph builds jump the queue (SubmitUrgent), and
  // the moment a subgraph lands its metric units jump the queue in turn.
  // Consequences:
  //   - peak ScoreState residency is bounded by the groups actually in
  //     flight (~thread count), not the whole grid (ER's state alone is
  //     three |E|-length arrays per run), and peak Subgraph residency by
  //     the cells in flight: the last cell of a group frees the group's
  //     state, the last metric unit of a cell frees the cell's subgraph;
  //   - cheap groups' cells never stall behind an expensive group's
  //     scoring (ER's CG solves), a single-group grid still fans its
  //     cells across all workers, and a single-cell grid still fans its
  //     metrics (and their BFS-batch subtasks) across all workers.
  // Determinism is untouched by any of this scheduling: group scoring
  // streams derive from (master_seed, sparsifier, run) — deterministic
  // sparsifiers ignore them entirely, keeping their cells bit-identical
  // to the per-cell path — and each (cell, metric) unit's stream derives
  // from MetricSeed. MaskForRate is const and re-entrant, so one group's
  // cells can threshold the shared state concurrently; the subgraph is
  // immutable once built, so one cell's metrics can read it concurrently.
  std::vector<std::atomic<size_t>> cells_left(groups.size());
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    cells_left[gi].store(cells_of[gi].size(), std::memory_order_relaxed);
  }

  for (size_t gi = 0; gi < groups.size(); ++gi) {
    impl_->pool.Submit([&, gi] {
      if (failed.load(std::memory_order_relaxed)) return;
      if (run_cancelled()) {
        for (size_t i : cells_of[gi]) cancel_cell(i);
        return;
      }
      Group& group = groups[gi];
      TRACE_SPAN(span, "score_group");
      if (span.active()) {
        span.Detail(group.sparsifier);
        span.Arg("run", std::to_string(group.run));
      }
      // The run token is ambient while scoring so PrepareScores' own
      // checks (ER's CG iterations, JL dimensions) observe cancellation.
      CancelScope cancel_scope(run_cancel);
      ActivityScope activity("score_group", group.sparsifier, run_cancel);
      Timer score_timer;
      bool scored = false;
      try {
        SPARSIFY_FAILPOINT_SCOPED("engine.score_group",
                                  group.sparsifier.c_str());
        Rng group_rng(GroupSeed(master_seed, group.sparsifier, group.run));
        group.state = group.instance->PrepareScores(*group.input, group_rng);
        scored = true;
      } catch (const CancelledError& e) {
        if (!tolerate) {
          failed.store(true, std::memory_order_relaxed);
          throw;
        }
        if (run_cancelled()) {
          for (size_t i : cells_of[gi]) cancel_cell(i);
        } else {
          for (size_t i : cells_of[gi]) fail_cell(i, "cancelled", e.what());
        }
      } catch (const TransientError& e) {
        if (!tolerate) {
          failed.store(true, std::memory_order_relaxed);
          throw;  // recorded as the pool's first error, rethrown by Wait
        }
        for (size_t i : cells_of[gi]) fail_cell(i, "transient", e.what());
      } catch (const std::exception& e) {
        if (!tolerate) {
          failed.store(true, std::memory_order_relaxed);
          throw;
        }
        for (size_t i : cells_of[gi]) fail_cell(i, "permanent", e.what());
      } catch (...) {
        if (!tolerate) {
          failed.store(true, std::memory_order_relaxed);
          throw;
        }
        for (size_t i : cells_of[gi]) {
          fail_cell(i, "permanent", "unknown error");
        }
      }
      double group_seconds = score_timer.Seconds();
      EngineObs& eobs = GetEngineObs();
      eobs.score_groups.Add();
      eobs.score_ns.Record(static_cast<uint64_t>(group_seconds * 1e9));
      {
        std::lock_guard<std::mutex> lock(stats_mu);
        score_seconds += group_seconds;
      }
      if (!scored) return;  // tolerant mode: the group's cells are failed
      for (size_t i : cells_of[gi]) {
        impl_->pool.SubmitUrgent([&, gi, i] {
          Group& cell_group = groups[gi];
          if (failed.load(std::memory_order_relaxed)) return;
          if (run_cancelled()) {
            cancel_cell(i);
            if (cells_left[gi].fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
              cell_group.state.reset();
            }
            return;
          }
          TRACE_SPAN(span, "subgraph");
          if (span.active()) {
            span.Detail(results[i].task.sparsifier);
            span.Arg("rate", FormatRate(results[i].task.prune_rate));
            span.Arg("run", std::to_string(results[i].task.run));
          }
          CancelScope cancel_scope(run_cancel);
          ActivityScope activity("subgraph", results[i].task.sparsifier,
                                 run_cancel);
          Timer build_timer;
          bool built = false;
          try {
            const BatchTask& task = results[i].task;
            SPARSIFY_FAILPOINT_SCOPED("engine.subgraph",
                                      task.sparsifier.c_str());
            RateMask mask = cell_group.instance->MaskForRate(
                *cell_group.state, task.prune_rate);
            Graph sparsified = Sparsifier::Apply(*cell_group.input, mask);
            results[i].achieved_prune_rate =
                Sparsifier::AchievedPruneRate(*cell_group.input, sparsified);
            cell_graph[i].emplace(std::move(sparsified));
            built = true;
          } catch (const CancelledError& e) {
            if (!tolerate) {
              failed.store(true, std::memory_order_relaxed);
              throw;
            }
            if (run_cancelled()) {
              cancel_cell(i);
            } else {
              fail_cell(i, "cancelled", e.what());
            }
          } catch (const TransientError& e) {
            if (!tolerate) {
              failed.store(true, std::memory_order_relaxed);
              throw;
            }
            fail_cell(i, "transient", e.what());
          } catch (const std::exception& e) {
            if (!tolerate) {
              failed.store(true, std::memory_order_relaxed);
              throw;
            }
            fail_cell(i, "permanent", e.what());
          } catch (...) {
            if (!tolerate) {
              failed.store(true, std::memory_order_relaxed);
              throw;
            }
            fail_cell(i, "permanent", "unknown error");
          }
          double build_seconds = build_timer.Seconds();
          EngineObs& eobs = GetEngineObs();
          eobs.subgraph_builds.Add();
          eobs.subgraph_ns.Record(
              static_cast<uint64_t>(build_seconds * 1e9));
          {
            std::lock_guard<std::mutex> lock(stats_mu);
            subgraph_seconds += build_seconds;
          }
          if (built) submit_metric_units(i);
          if (cells_left[gi].fetch_sub(1, std::memory_order_acq_rel) == 1) {
            cell_group.state.reset();  // last cell frees the score state
          }
        });
      }
    });
  }
  impl_->pool.Wait();

  if (stats != nullptr) {
    *stats = BatchRunStats{};
    stats->cells = tasks.size();
    stats->metric_units = metric_units;
    stats->score_groups = groups.size();
    stats->subgraph_builds = tasks.size();
    stats->failed_units = failed_units.load(std::memory_order_relaxed);
    stats->transient_failed_units =
        transient_failed_units.load(std::memory_order_relaxed);
    stats->deadline_exceeded_units =
        deadline_units.load(std::memory_order_relaxed);
    stats->cancelled_units = cancelled_units.load(std::memory_order_relaxed);
    stats->retried_units = retried_units.load(std::memory_order_relaxed);
    stats->score_seconds = score_seconds;
    stats->subgraph_seconds = subgraph_seconds;
    stats->metric_seconds = metric_seconds;
  }
  return results;
}

}  // namespace sparsify
