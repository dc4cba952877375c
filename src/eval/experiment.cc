#include "src/eval/experiment.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <set>
#include <sstream>

#include "src/engine/batch_runner.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/util/stats.h"

namespace sparsify {

SweepPoint FoldPoint(double requested_prune_rate,
                     const std::vector<double>& values,
                     const std::vector<double>& achieved, bool fixed_output) {
  SweepPoint point;
  point.mean = Mean(values);
  point.stddev = StdDev(values);
  point.achieved_prune_rate = Mean(achieved);
  point.requested_prune_rate =
      fixed_output ? point.achieved_prune_rate : requested_prune_rate;
  point.runs = static_cast<int>(values.size());
  return point;
}

std::vector<SweepSeries> FoldSweepResults(
    const SweepConfig& config, const std::vector<BatchResult>& results) {
  // Results arrive in grid order: sparsifier-major, then rate, then run.
  // Each requested entry's block size comes from ExpandGrid itself (on a
  // single-name config), so the fold can never drift from the engine's
  // expansion; grouping within a block uses the tasks' own prune_rate.
  // One series per requested entry, even when a name is listed twice.
  std::vector<std::string> names =
      config.sparsifiers.empty() ? SparsifierNames() : config.sparsifiers;
  std::vector<SweepSeries> all_series;
  size_t i = 0;
  for (const std::string& name : names) {
    SweepConfig entry_config = config;
    entry_config.sparsifiers = {name};
    size_t end = i + BatchRunner::ExpandGrid(entry_config).size();
    bool fixed_output = CreateSparsifier(name)->Info().prune_rate_control ==
                        PruneRateControl::kNone;
    SweepSeries series;
    series.sparsifier = name;
    while (i < end) {
      // run == 0 marks the start of each (name, rate) block in ExpandGrid's
      // ordering; grouping on it (rather than rate equality) keeps duplicate
      // or NaN rates as separate points. Every slot carries its task, so
      // unresolved (failed or cancelled) units keep the grouping intact;
      // they drop out of the statistics, and a point with no resolved run
      // is omitted — the same fold `export` applies to a store.
      double rate = results[i].task.prune_rate;
      std::vector<double> values;
      std::vector<double> achieved;
      do {
        if (results[i].resolved) {
          values.push_back(results[i].value);
          achieved.push_back(results[i].achieved_prune_rate);
        }
        ++i;
      } while (i < end && results[i].task.run != 0);
      if (values.empty()) continue;
      series.points.push_back(FoldPoint(rate, values, achieved, fixed_output));
    }
    all_series.push_back(std::move(series));
  }
  return all_series;
}

void PrintSeriesCsv(std::ostream& os, const std::string& title,
                    const std::vector<SweepSeries>& series) {
  os << "# " << title << "\n";
  os << "sparsifier,prune_rate,achieved_prune_rate,value,stddev,runs\n";
  for (const SweepSeries& s : series) {
    for (const SweepPoint& p : s.points) {
      os << s.sparsifier << "," << p.requested_prune_rate << ","
         << p.achieved_prune_rate << "," << p.mean << "," << p.stddev << ","
         << p.runs << "\n";
    }
  }
}

void PrintSeriesTable(std::ostream& os, const std::string& title,
                      const std::string& value_name,
                      const std::vector<SweepSeries>& series,
                      std::optional<double> reference) {
  // The cells print in std::fixed; hand the caller's stream back with its
  // own format, so a second table's reference line reads like the first.
  struct FormatGuard {
    std::ostream& os;
    std::ios_base::fmtflags flags = os.flags();
    std::streamsize precision = os.precision();
    ~FormatGuard() {
      os.flags(flags);
      os.precision(precision);
    }
  } guard{os};
  os << "== " << title << " ==\n";
  if (reference.has_value()) {
    os << "(reference on full graph: " << *reference << ")\n";
  }
  // Column header from the union of requested rates.
  std::vector<double> rates;
  for (const SweepSeries& s : series) {
    for (const SweepPoint& p : s.points) {
      bool found = false;
      for (double r : rates) {
        if (std::abs(r - p.requested_prune_rate) < 1e-9) found = true;
      }
      if (!found) rates.push_back(p.requested_prune_rate);
    }
  }
  std::sort(rates.begin(), rates.end());
  // Column labels take the fewest decimals (2..6) that keep them distinct,
  // so a fixed-output sparsifier's achieved rate (SP-7's 0.798332) does
  // not print as a second 0.80 next to the grid's 0.8.
  std::vector<std::string> labels;
  for (int decimals = 2; decimals <= 6; ++decimals) {
    labels.clear();
    for (double r : rates) {
      std::ostringstream label;
      label << std::fixed << std::setprecision(decimals) << r;
      labels.push_back(label.str());
    }
    if (std::set<std::string>(labels.begin(), labels.end()).size() ==
        labels.size()) {
      break;
    }
  }
  os << std::setw(8) << value_name << " |";
  for (const std::string& label : labels) os << std::setw(9) << label;
  os << "\n";
  os << std::string(10 + rates.size() * 9, '-') << "\n";
  for (const SweepSeries& s : series) {
    os << std::setw(8) << s.sparsifier << " |";
    for (double r : rates) {
      const SweepPoint* found = nullptr;
      for (const SweepPoint& p : s.points) {
        if (std::abs(p.requested_prune_rate - r) < 1e-9) found = &p;
      }
      if (found != nullptr) {
        os << std::setw(9) << std::fixed << std::setprecision(3)
           << found->mean;
      } else {
        os << std::setw(9) << "-";
      }
    }
    os << "\n";
  }
  os << "\n";
}

}  // namespace sparsify
