#include "src/cli/store_export.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <tuple>

#include "src/sparsifiers/sparsifier.h"

namespace sparsify::cli {

namespace {

// Registry rank for deterministic series order; unknown names (from a
// different code revision) sort after all known ones, alphabetically.
size_t SparsifierRank(const std::string& short_name) {
  static const std::vector<std::string> names = SparsifierNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == short_name) return i;
  }
  return names.size();
}

bool IsFixedOutput(const std::string& short_name) {
  try {
    return CreateSparsifier(short_name)->Info().prune_rate_control ==
           PruneRateControl::kNone;
  } catch (const std::invalid_argument&) {
    return false;  // unknown sparsifier: leave stored rates untouched
  }
}

}  // namespace

std::vector<StoreGroup> RebuildSeries(const ResultStore& store,
                                      const std::string& dataset_filter,
                                      const std::string& metric_filter) {
  using GroupKey = std::tuple<std::string, std::string, uint64_t, std::string>;
  std::map<GroupKey, std::vector<StoredCell>> groups;
  for (const StoredCell& cell : store.Cells()) {
    // Error records are failed units, not results: exporting them would
    // fold zeros into the series means. `ls` reports their count.
    if (cell.is_error) continue;
    if (!dataset_filter.empty() && cell.key.dataset != dataset_filter) {
      continue;
    }
    if (!metric_filter.empty() && cell.key.metric != metric_filter) continue;
    groups[{cell.key.dataset, cell.key.metric, cell.key.master_seed,
            cell.key.code_rev}]
        .push_back(cell);
  }

  std::vector<StoreGroup> out;
  for (auto& [key, cells] : groups) {
    StoreGroup group;
    std::tie(group.dataset, group.metric, group.master_seed, group.code_rev) =
        key;

    // Since r4 a (sparsifier, rate, run) triple IS the cell's identity
    // within a group — grid position is no longer part of the key — so
    // the sort is a total order over distinct cells; nothing to dedup.
    std::sort(cells.begin(), cells.end(),
              [](const StoredCell& a, const StoredCell& b) {
                size_t ra = SparsifierRank(a.key.sparsifier);
                size_t rb = SparsifierRank(b.key.sparsifier);
                return std::tie(ra, a.key.sparsifier, a.key.prune_rate,
                                a.key.run) <
                       std::tie(rb, b.key.sparsifier, b.key.prune_rate,
                                b.key.run);
              });
    group.cells = cells.size();

    size_t i = 0;
    while (i < cells.size()) {
      SweepSeries series;
      series.sparsifier = cells[i].key.sparsifier;
      bool fixed_output = IsFixedOutput(series.sparsifier);
      while (i < cells.size() &&
             cells[i].key.sparsifier == series.sparsifier) {
        double rate = cells[i].key.prune_rate;
        std::vector<double> values;
        std::vector<double> achieved;
        while (i < cells.size() &&
               cells[i].key.sparsifier == series.sparsifier &&
               cells[i].key.prune_rate == rate) {
          values.push_back(cells[i].value);
          achieved.push_back(cells[i].achieved_prune_rate);
          ++i;
        }
        series.points.push_back(
            FoldPoint(rate, values, achieved, fixed_output));
      }
      group.series.push_back(std::move(series));
    }
    out.push_back(std::move(group));
  }
  return out;
}

void ExportStore(const ResultStore& store, std::ostream& os, bool csv,
                 const std::string& dataset_filter,
                 const std::string& metric_filter) {
  for (const StoreGroup& group : RebuildSeries(store, dataset_filter,
                                               metric_filter)) {
    std::string title = group.metric + " on " + group.dataset + " (seed=" +
                        std::to_string(group.master_seed) + ", rev=" +
                        group.code_rev + ")";
    if (csv) {
      PrintSeriesCsv(os, title, group.series);
    } else {
      PrintSeriesTable(os, title, group.metric, group.series);
    }
  }
}

void SummarizeStore(const ResultStore& store, std::ostream& os) {
  os << "store: " << store.Path() << "\n";
  os << "cells: " << store.Size();
  if (store.ErrorCount() > 0) {
    os << " (" << store.ErrorCount()
       << " error record(s): failed units a resumed sweep will retry)";
  }
  if (store.DroppedTailBytes() > 0) {
    os << " (dropped " << store.DroppedTailBytes()
       << " bytes of torn tail from a crashed append)";
  }
  os << "\n";
  for (const StoreGroup& group : RebuildSeries(store)) {
    std::set<std::string> sparsifiers;
    std::set<double> rates;
    int max_runs = 0;
    for (const SweepSeries& s : group.series) {
      sparsifiers.insert(s.sparsifier);
      for (const SweepPoint& p : s.points) {
        rates.insert(p.requested_prune_rate);
        max_runs = std::max(max_runs, p.runs);
      }
    }
    os << "  " << group.dataset << " " << group.metric << " seed="
       << group.master_seed << " rev=" << group.code_rev << ": "
       << group.cells << " cells, " << sparsifiers.size()
       << " sparsifiers, " << rates.size() << " rates, runs<=" << max_runs
       << "\n";
  }
}

}  // namespace sparsify::cli
