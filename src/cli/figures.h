// Registry of the paper's sweep-shaped figures: dataset, sparsifier list,
// metric, and reference line for each. One driver (RunFigures) runs them
// all; `sparsify_cli figure <id ...>` is its entry point. (Figure 13, the
// GNN figure, stays in bench_gnn: its metrics need training state.)
//
// Figures whose metric needs a full-graph reference (centrality top-100
// precision, clustering F1) precompute it once per dataset via
// `make_metric`, with a fixed reference seed per figure.
#ifndef SPARSIFY_CLI_FIGURES_H_
#define SPARSIFY_CLI_FIGURES_H_

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/eval/experiment.h"
#include "src/graph/datasets.h"

namespace sparsify::cli {

/// One figure of the paper (or a companion panel).
struct FigureSpec {
  std::string id;          // e.g. "1a", "4a-unreach"
  std::string title;       // full figure title
  std::string value_name;  // pivot-table row-header label
  std::string dataset;     // dataset name (datasets.h)
  double default_scale = 0.5;  // the original bench's default --scale
  std::vector<std::string> sparsifiers;
  std::string metric;  // NamedMetrics name, or the label of a custom metric
  // Builds the metric on the loaded dataset; null means look `metric` up in
  // NamedMetrics(). Used by figures that precompute a reference ranking.
  std::function<MetricFn(const Dataset&)> make_metric;
  // Full-graph reference value (the figures' green dashed line); null for
  // figures without one.
  std::function<double(const Dataset&)> reference;
};

/// The store's dataset identity for a scaled stand-in: "name@scale". The
/// scale is part of the name because scaled stand-ins are different graphs.
std::string DatasetCellName(const std::string& dataset, double scale);

/// All figures, paper order.
const std::vector<FigureSpec>& AllFigures();

/// Looks a figure up by id; nullptr when absent.
const FigureSpec* FindFigure(const std::string& id);

/// Options for RunFigures, mirroring the bench flags.
struct FigureRunOptions {
  double scale = 0.0;  // <= 0 selects each figure's default_scale
  int runs = 3;
  int threads = 0;
  uint64_t seed = 42;
  bool csv = false;
  std::string store_dir;  // non-empty: persist cells under this directory
  bool resume = false;    // consult the store before scheduling
};

/// Runs the listed figures through the (resumable) sweep engine and prints
/// each as a pivot table or CSV. Returns a process exit code; unknown ids
/// report an error listing the known ones.
int RunFigures(const std::vector<std::string>& ids,
               const FigureRunOptions& opt, std::ostream& os);

}  // namespace sparsify::cli

#endif  // SPARSIFY_CLI_FIGURES_H_
