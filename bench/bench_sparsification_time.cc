// Regenerates paper Figure 14: sparsification wall-clock time per
// sparsifier at prune rates 0.1 / 0.5 / 0.9 on the ogbn-proteins stand-in,
// using google-benchmark (the one figure whose measurement IS time).
//
// Expected shape (paper section 4.6): RN and KN are the cheapest; the
// similarity family (LS / GS / LSim / SCAN), LD, FF, and RD sit in a middle
// band; ER is roughly an order of magnitude above everything else because
// of its Laplacian solves. As in the paper, the ER timing here isolates the
// *sampling* cost; the one-time effective-resistance computation is
// reported separately below. ER's Sparsify extends its sampling race only
// until the rate's target is reached, so its time falls as the prune rate
// rises. One Rng serves every iteration of a benchmark, so each iteration
// draws from a different stream position.
#include <benchmark/benchmark.h>

#include "src/graph/datasets.h"
#include "src/sparsifiers/effective_resistance.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace sparsify {
namespace {

const Graph& BenchGraph() {
  static const Graph* g = [] {
    Dataset d = LoadDatasetScaled("ogbn-proteins", 0.5);
    return new Graph(d.graph);
  }();
  return *g;
}

void BM_Sparsify(benchmark::State& state, const std::string& name) {
  const Graph& g = BenchGraph();
  double prune_rate = static_cast<double>(state.range(0)) / 10.0;
  auto sparsifier = CreateSparsifier(name);
  Rng rng(12345);
  for (auto _ : state) {
    Graph h = sparsifier->Sparsify(g, prune_rate, rng);
    benchmark::DoNotOptimize(h.NumEdges());
  }
  state.counters["edges"] = static_cast<double>(g.NumEdges());
  state.counters["prune_rate"] = prune_rate;
}

void RegisterAll() {
  for (const std::string& name : SparsifierNames()) {
    auto info = CreateSparsifier(name)->Info();
    for (int64_t rate : {1, 5, 9}) {
      if (info.prune_rate_control == PruneRateControl::kNone && rate != 5) {
        continue;  // SF / SP-t: output size fixed, one timing suffices
      }
      benchmark::RegisterBenchmark(
          ("Fig14/" + name + "/rate:0." + std::to_string(rate)).c_str(),
          [name](benchmark::State& s) { BM_Sparsify(s, name); })
          ->Arg(rate)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

// One-time effective-resistance computation cost (the paper reports it
// separately: 990 s for the real ogbn-proteins on a Xeon 8380).
void BM_EffectiveResistanceComputation(benchmark::State& state) {
  const Graph& g = BenchGraph();
  Rng rng(777);
  for (auto _ : state) {
    std::vector<double> r = ApproxEffectiveResistances(g, rng);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK(BM_EffectiveResistanceComputation)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sparsify

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  sparsify::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
