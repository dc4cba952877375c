// Regenerates the paper's three tables from the code's own registries:
//   Table 1 - metric applicability to graph types
//   Table 2 - sparsifier applicability and characteristics
//   Table 3 - dataset inventory (synthetic stand-ins, src/graph/datasets.h)
#include <iomanip>
#include <iostream>

#include "bench/bench_common.h"
#include "src/eval/metric_info.h"
#include "src/graph/datasets.h"
#include "src/sparsifiers/sparsifier.h"

namespace sparsify {
namespace {

void PrintTable1() {
  std::cout << "== Table 1: Metrics' applicability to types of graphs ==\n";
  std::cout << std::left << std::setw(20) << "Metric" << std::setw(12)
            << "Group" << std::setw(10) << "Directed" << std::setw(10)
            << "Weighted" << std::setw(12) << "Unconnected"
            << "Note\n";
  for (const MetricInfo& m : AllMetricInfos()) {
    std::cout << std::left << std::setw(20) << m.name << std::setw(12)
              << m.group << std::setw(10)
              << ApplicabilityToString(m.directed) << std::setw(10)
              << ApplicabilityToString(m.weighted) << std::setw(12)
              << ApplicabilityToString(m.unconnected) << m.note << "\n";
  }
  std::cout << "\n";
}

std::string PrcToString(PruneRateControl prc) {
  switch (prc) {
    case PruneRateControl::kFine:
      return "fine";
    case PruneRateControl::kConstrained:
      return "constrained";
    case PruneRateControl::kNone:
      return "none";
  }
  return "?";
}

void PrintTable2() {
  std::cout << "== Table 2: Sparsifiers' applicability and characteristics "
               "==\n";
  std::cout << std::left << std::setw(34) << "Sparsifier" << std::setw(7)
            << "Short" << std::setw(10) << "Directed" << std::setw(10)
            << "Weighted" << std::setw(13) << "Unconnected" << std::setw(13)
            << "PruneCtl" << std::setw(11) << "WeightChg" << std::setw(8)
            << "Determ"
            << "Complexity\n";
  auto print_row = [](const SparsifierInfo& s) {
    std::cout << std::left << std::setw(34) << s.name << std::setw(7)
              << s.short_name << std::setw(10)
              << (s.supports_directed ? "yes" : "no") << std::setw(10)
              << (s.supports_weighted ? "yes" : "no") << std::setw(13)
              << (s.supports_unconnected ? "yes" : "no") << std::setw(13)
              << PrcToString(s.prune_rate_control) << std::setw(11)
              << (s.changes_weights ? "yes" : "no") << std::setw(8)
              << (s.deterministic ? "yes" : "no") << s.complexity << "\n";
  };
  for (const SparsifierInfo& s : AllSparsifierInfos()) {
    if (!s.extension) print_row(s);
  }
  std::cout << "-- extensions beyond the paper --\n";
  for (const SparsifierInfo& s : AllSparsifierInfos()) {
    if (s.extension) print_row(s);
  }
  std::cout << "\n";
}

void PrintTable3(double scale) {
  std::cout << "== Table 3: Graph datasets (synthetic stand-ins at scale "
            << scale << ") ==\n";
  std::cout << std::left << std::setw(16) << "Name" << std::setw(20)
            << "Category" << std::setw(10) << "Directed" << std::setw(10)
            << "Weighted" << std::setw(8) << "#Nodes" << std::setw(9)
            << "#Edges" << std::setw(12) << "Density"
            << "Stand-in\n";
  for (const std::string& name : DatasetNames()) {
    Dataset d = LoadDatasetScaled(name, scale);
    double n = d.graph.NumVertices();
    double density = d.graph.IsDirected()
                         ? d.graph.NumEdges() / (n * (n - 1.0))
                         : 2.0 * d.graph.NumEdges() / (n * (n - 1.0));
    std::cout << std::left << std::setw(16) << d.info.name << std::setw(20)
              << d.info.category << std::setw(10)
              << (d.info.directed ? "yes" : "no") << std::setw(10)
              << (d.info.weighted ? "yes" : "no") << std::setw(8)
              << d.graph.NumVertices() << std::setw(9) << d.graph.NumEdges()
              << std::setw(12) << std::scientific << std::setprecision(2)
              << density << std::defaultfloat << d.info.standin << "\n";
  }
  std::cout << "\n";
}

}  // namespace
}  // namespace sparsify

int main(int argc, char** argv) {
  // Only --scale applies (Table 3's dataset sizes); any other flag, a
  // malformed number or a scale <= 0 exits 2.
  double scale =
      sparsify::bench::ParseOptions(argc, argv, {"--scale"}, 0.5).scale;
  sparsify::PrintTable1();
  sparsify::PrintTable2();
  sparsify::PrintTable3(scale);
  return 0;
}
