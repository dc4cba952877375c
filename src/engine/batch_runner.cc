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

// A failed unit of work, classified from the exception in flight.
struct UnitFailure {
  std::string error_class;  // "deadline" | "cancelled" | "transient" |
                            // "permanent"
  std::string message;      // what() of the exception
  // A deadline or cancel raised while the run token is down: the whole
  // run is going down, so the unit is skipped, not failed.
  bool run_cancelled = false;
};

// The engine's one failure classifier; call only from a catch block.
// DeadlineExceededError derives from CancelledError, so it is tested
// first. A deadline or cancel raised while the run token is down is the
// run's cancellation, not the unit's failure. The rule holds at every
// site: score and subgraph stages hold the run token ambient, so their
// deadline can only be the run's, while a metric unit's own
// --unit-timeout trips with the run still up and fails just that unit.
UnitFailure ClassifyInFlight(bool run_cancelled) {
  try {
    throw;
  } catch (const DeadlineExceededError& e) {
    return {"deadline", e.what(), run_cancelled};
  } catch (const CancelledError& e) {
    return {"cancelled", e.what(), run_cancelled};
  } catch (const TransientError& e) {
    return {"transient", e.what(), false};
  } catch (const std::exception& e) {
    return {"permanent", e.what(), false};
  } catch (...) {
    return {"permanent", "unknown error", false};
  }
}

uint64_t SplitMix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

struct BatchRunner::Impl {
  explicit Impl(int num_threads) : pool(num_threads) {}
  // Serializes RunTasksMulti: the pool's completion tracking is
  // batch-global, so two concurrent batches would wait on (and steal
  // errors from) each other.
  std::mutex run_mu;
  mutable ThreadPool pool;
};

BatchRunner::BatchRunner(int num_threads)
    : impl_(std::make_unique<Impl>(num_threads)) {}

BatchRunner::~BatchRunner() = default;

int BatchRunner::NumThreads() const { return impl_->pool.NumThreads(); }

ThreadPoolStats BatchRunner::PoolStats() const { return impl_->pool.Stats(); }

void BatchRunner::ResetPoolStats() { impl_->pool.ResetStats(); }

uint64_t BatchRunner::GroupSeed(uint64_t master_seed,
                                const std::string& sparsifier, int run) {
  // FNV-1a over the name, folded with the run index, then a SplitMix64
  // finalizer. Intentionally independent of grid shape and cell
  // positions: any subset of a group's rate cells prepares the same
  // ScoreState.
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
        task.sparsifier = name;
        task.prune_rate = rate;
        task.run = run;
        tasks.push_back(std::move(task));
      }
    }
  }
  return tasks;
}

std::vector<BatchMultiResult> BatchRunner::RunTasksMulti(
    const Graph& g, const std::string& dataset,
    const std::vector<BatchTask>& tasks, uint64_t master_seed,
    const std::vector<BatchMetric>& metrics,
    const UnitCallback& on_result, BatchRunStats* stats,
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

  // The failure path. Every stage site has one catch (...): fail-fast
  // mode rethrows (the pool records the first error, Wait rethrows it);
  // tolerant mode classifies the exception (ClassifyInFlight) and settles
  // the affected slots through the two routines below. Only the worker
  // owning a slot writes it, so the slots need no lock.
  //
  // A failed unit: reported through on_unit_failure (the sweep records an
  // error record) and counted by class.
  auto fail_slot = [&](size_t i, size_t slot, const UnitFailure& f,
                       int attempts) {
    const uint32_t m = (*ids_of[i])[slot];
    results[i].values[slot] =
        BatchMetricValue{m, 0.0, true, f.error_class, f.message, attempts};
    failed_units.fetch_add(1, std::memory_order_relaxed);
    if (f.error_class == "transient") {
      transient_failed_units.fetch_add(1, std::memory_order_relaxed);
    }
    if (f.error_class == "deadline") {
      deadline_units.fetch_add(1, std::memory_order_relaxed);
    }
    if (faults.on_unit_failure) {
      faults.on_unit_failure(results[i].task, m, f.error_class, f.message,
                             attempts);
    }
  };
  // A unit skipped or interrupted by run-level cancellation. The slot is
  // still marked failed (a default slot would read as metric-0 value 0.0)
  // but this is NOT a failure: on_unit_failure is not invoked and nothing
  // is recorded, so a resumed sweep resubmits exactly these units.
  auto cancel_slot = [&](size_t i, size_t slot) {
    results[i].values[slot] = BatchMetricValue{
        (*ids_of[i])[slot], 0.0, true, "cancelled", "run cancelled", 0};
    cancelled_units.fetch_add(1, std::memory_order_relaxed);
  };
  // Every unit of cell i, after its score group or subgraph stage failed
  // (`f`) or was skipped by run-level cancellation (null `f`). Stage
  // failures never retry: scoring is re-run wholesale by a resumed sweep,
  // not per unit.
  auto settle_cell = [&](size_t i, const UnitFailure* f) {
    for (size_t slot = 0; slot < ids_of[i]->size(); ++slot) {
      if (f == nullptr || f->run_cancelled) {
        cancel_slot(i, slot);
      } else {
        fail_slot(i, slot, *f, 1);
      }
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
          cancel_slot(i, slot);
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
        const bool cancellable =
            run_cancel != nullptr || faults.unit_timeout_seconds > 0;
        for (int attempts = 1;; ++attempts) {
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
            if (on_result) {
              on_result(task, results[i].achieved_prune_rate, m, value);
            }
            break;
          } catch (...) {
            if (!tolerate) {
              failed.store(true, std::memory_order_relaxed);
              throw;
            }
            UnitFailure f = ClassifyInFlight(run_cancelled());
            if (f.run_cancelled) {
              cancel_slot(i, slot);  // the run is going down, not this unit
              break;
            }
            // Only transient unit failures retry; a deadline would time
            // out again and anything else is deterministic.
            if (f.error_class == "transient" &&
                attempts <= faults.max_unit_retries) {
              retried_units.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::sleep_for(RetryBackoff(attempts));
              continue;
            }
            fail_slot(i, slot, f, attempts);
            break;
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
  // to a standalone Sparsify — and each (cell, metric) unit's stream
  // derives from MetricSeed. MaskForRate is const and re-entrant, so one
  // group's cells can threshold the shared state concurrently; the
  // subgraph is immutable once built, so one cell's metrics can read it
  // concurrently.
  std::vector<std::atomic<size_t>> cells_left(groups.size());
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    cells_left[gi].store(cells_of[gi].size(), std::memory_order_relaxed);
  }

  for (size_t gi = 0; gi < groups.size(); ++gi) {
    impl_->pool.Submit([&, gi] {
      if (failed.load(std::memory_order_relaxed)) return;
      if (run_cancelled()) {
        for (size_t i : cells_of[gi]) settle_cell(i, nullptr);
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
      } catch (...) {
        if (!tolerate) {
          failed.store(true, std::memory_order_relaxed);
          throw;
        }
        UnitFailure f = ClassifyInFlight(run_cancelled());
        for (size_t i : cells_of[gi]) settle_cell(i, &f);
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
            settle_cell(i, nullptr);
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
          } catch (...) {
            if (!tolerate) {
              failed.store(true, std::memory_order_relaxed);
              throw;
            }
            UnitFailure f = ClassifyInFlight(run_cancelled());
            settle_cell(i, &f);
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
