// Experiment harness: the sweep vocabulary of the paper's N-to-N framework
// (section 3.2). A sweep runs every requested sparsifier over the
// prune-rate grid 0.1..0.9, averaging non-deterministic sparsifiers over
// multiple runs and reporting the standard deviation, exactly as the
// paper's protocol prescribes (10 graphs per point for non-deterministic
// sparsifiers; the run count is configurable here because the full paper
// protocol is laptop-hostile). ResumableSweep (engine/resumable_sweep.h)
// runs it; its config and metric types live with the engine
// (engine/batch_runner.h), this header holds the fold and the printers.
#ifndef SPARSIFY_EVAL_EXPERIMENT_H_
#define SPARSIFY_EVAL_EXPERIMENT_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/engine/batch_runner.h"

namespace sparsify {

/// One (sparsifier, prune rate) cell of a sweep.
struct SweepPoint {
  double requested_prune_rate = 0.0;
  double achieved_prune_rate = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  int runs = 0;
};

/// All points of one sparsifier across the prune-rate grid.
struct SweepSeries {
  std::string sparsifier;
  std::vector<SweepPoint> points;
};

/// Folds one rate's resolved runs into a point: mean and stddev of
/// `values`, mean of `achieved` (the runs' achieved prune rates), and for
/// fixed-output sparsifiers (no prune-rate control) the achieved mean in
/// place of the requested rate. FoldSweepResults and the store export
/// (cli::RebuildSeries) both fold through it, so a sweep's own series and
/// `export` of its store cannot drift apart. `values` must be non-empty.
SweepPoint FoldPoint(double requested_prune_rate,
                     const std::vector<double>& values,
                     const std::vector<double>& achieved, bool fixed_output);

/// Folds full-grid engine results (grid order, one entry per ExpandGrid
/// task) into per-sparsifier series: mean/stddev across the resolved runs
/// per rate, requested rate replaced by the achieved mean for fixed-output
/// algorithms. Unresolved entries (failed or cancelled units) are skipped
/// and a rate with none resolved yields no point, so stored and fresh
/// cells reassemble exactly as `export` rebuilds them from a store.
/// Sparsifiers without prune-rate control (SF, SP-t) contribute a single
/// point at their natural prune rate.
std::vector<SweepSeries> FoldSweepResults(const SweepConfig& config,
                                          const std::vector<BatchResult>& results);

/// Prints `series` as CSV rows:
/// sparsifier,prune_rate,achieved_prune_rate,value,stddev,runs.
void PrintSeriesCsv(std::ostream& os, const std::string& title,
                    const std::vector<SweepSeries>& series);

/// Prints `series` as a pivot table (rows = sparsifiers, columns = prune
/// rates) with an optional reference value line (the figures' green
/// "ground truth on the full graph" dashed line).
void PrintSeriesTable(std::ostream& os, const std::string& title,
                      const std::string& value_name,
                      const std::vector<SweepSeries>& series,
                      std::optional<double> reference = std::nullopt);

}  // namespace sparsify

#endif  // SPARSIFY_EVAL_EXPERIMENT_H_
