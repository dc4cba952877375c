// Ablation of this reproduction's prune-rate calibration: its accuracy
// and cost. Sparsifiers with a native coarse knob (KN's k, LD's
// alpha, LS's exponent c) are calibrated by binary search; this bench
// reports, for every sparsifier and requested rate, the achieved rate and
// the sparsification time — quantifying both the calibration error (the
// paper's "we attempt to align them", section 3.2) and its overhead.
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/graph/datasets.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace sparsify {
namespace {

void Run(double scale) {
  Dataset d = LoadDatasetScaled("ca-AstroPh", scale);
  const Graph& g = d.graph;
  Graph sym = g;  // already undirected
  std::cout << "Dataset: " << d.info.name << " (" << g.Summary() << ")\n\n";
  std::cout << "== Ablation: prune-rate calibration accuracy (achieved "
               "rate, time) ==\n";
  std::printf("%-8s", "algo");
  for (double rate : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    std::printf("      @%.1f        ", rate);
  }
  std::printf("\n");
  for (const std::string& name : SparsifierNames()) {
    auto sparsifier = CreateSparsifier(name);
    const SparsifierInfo& info = sparsifier->Info();
    if (info.prune_rate_control == PruneRateControl::kNone) continue;
    std::printf("%-8s", name.c_str());
    for (double rate : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      Rng rng(99);
      Timer timer;
      Graph h = sparsifier->Sparsify(
          info.supports_directed || !g.IsDirected() ? g : sym, rate, rng);
      double seconds = timer.Seconds();
      std::printf("  %.3f (%6.3fs)",
                  Sparsifier::AchievedPruneRate(g, h), seconds);
    }
    std::printf("\n");
  }
  std::cout << "\nReading: fine-control sparsifiers hit the requested rate "
               "exactly; constrained\nones (KN, LD, LS, LS-MH) saturate "
               "below their per-vertex floors at high rates,\nexactly the "
               "behaviour the paper notes in section 3.2. Binary-search "
               "calibration\ncosts a handful of extra passes (LD, LS) or "
               "probe runs (KN).\n";
}

}  // namespace
}  // namespace sparsify

int main(int argc, char** argv) {
  // Only --scale applies here; any other flag, a malformed number or a
  // scale <= 0 exits 2.
  sparsify::Run(
      sparsify::bench::ParseOptions(argc, argv, {"--scale"}, 0.4).scale);
  return 0;
}
