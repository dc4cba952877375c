// Delta-stepping vs binary-heap Dijkstra (src/graph/traversal.cc): both
// SsspModes must produce bit-identical distance arrays and summaries on
// every weighted shape — including the degenerate weight distributions
// that force the bucket queue to fall back to the heap — and a weighted
// distance-metric batch must stay bit-identical at 1/2/8 threads.
#include "src/graph/traversal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "src/engine/batch_runner.h"
#include "src/graph/generators.h"
#include "src/metrics/distance.h"
#include "src/util/rng.h"

namespace sparsify {
namespace {

// The seed implementation, verbatim: per-call allocating priority-queue
// Dijkstra. Both kernel modes must reproduce its output bitwise.
std::vector<double> LegacyDijkstra(const Graph& g, NodeId src) {
  std::vector<double> dist(g.NumVertices(), kInfDistance);
  dist[src] = 0.0;
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    auto nodes = g.OutNeighborNodes(v);
    auto edges = g.OutNeighborEdges(v);
    for (size_t i = 0; i < nodes.size(); ++i) {
      double nd = d + g.EdgeWeight(edges[i]);
      if (nd < dist[nodes[i]]) {
        dist[nodes[i]] = nd;
        pq.emplace(nd, nodes[i]);
      }
    }
  }
  return dist;
}

struct NamedGraph {
  std::string name;
  Graph graph;
};

std::vector<NamedGraph> WeightedShapes() {
  Rng rng(17);
  std::vector<NamedGraph> graphs;
  graphs.push_back({"er_zipf", WithRandomWeights(
                                   ErdosRenyi(120, 400, false, rng), 8.0,
                                   rng)});
  graphs.push_back({"ba_zipf",
                    WithRandomWeights(BarabasiAlbert(150, 3, rng), 4.0,
                                      rng)});
  graphs.push_back(
      {"powerlaw_zipf",
       WithRandomWeights(PowerLawConfiguration(200, 2.2, 2, 40, rng), 100.0,
                         rng)});
  graphs.push_back(
      {"directed_er", WithRandomWeights(ErdosRenyi(90, 320, true, rng), 6.0,
                                        rng)});
  // Uniform weights: every edge lands one bucket ahead (Dial's regime).
  std::vector<Edge> uniform;
  for (NodeId v = 0; v + 1 < 50; ++v) {
    uniform.push_back({v, static_cast<NodeId>(v + 1), 3.0});
    if (v + 2 < 50) uniform.push_back({v, static_cast<NodeId>(v + 2), 3.0});
  }
  graphs.push_back({"uniform", Graph::FromEdges(50, std::move(uniform),
                                                false, true)});
  // Heavy tail: one edge 10^6 times the mean blows the cyclic-bucket
  // budget, so even forced delta-stepping must fall back to the heap.
  std::vector<Edge> heavy;
  for (NodeId v = 0; v + 1 < 40; ++v) {
    heavy.push_back({v, static_cast<NodeId>(v + 1), 1.0});
  }
  heavy.push_back({0, 39, 1.0e6});
  graphs.push_back({"heavy_tail", Graph::FromEdges(40, std::move(heavy),
                                                   false, true)});
  // All-zero weights: delta == 0 disables bucketing entirely.
  std::vector<Edge> zeros;
  for (NodeId v = 0; v + 1 < 20; ++v) {
    zeros.push_back({v, static_cast<NodeId>(v + 1), 0.0});
  }
  graphs.push_back({"zero_weights", Graph::FromEdges(20, std::move(zeros),
                                                     false, true)});
  // Disconnected weighted pair of components.
  graphs.push_back(
      {"disconnected",
       Graph::FromEdges(10,
                        {{0, 1, 2.0}, {1, 2, 0.5}, {5, 6, 1.5}, {6, 7, 3.0}},
                        false, true)});
  return graphs;
}

TEST(DeltaSteppingTest, BitIdenticalToBinaryHeapOnAllShapes) {
  TraversalScratch scratch;  // shared across every run: reuse is the point
  for (const NamedGraph& ng : WeightedShapes()) {
    const Graph& g = ng.graph;
    for (NodeId src = 0; src < g.NumVertices();
         src += std::max<NodeId>(1, g.NumVertices() / 9)) {
      std::vector<double> legacy = LegacyDijkstra(g, src);
      TraversalSummary heap =
          DijkstraDistances(g, src, scratch, SsspMode::kBinaryHeap);
      std::vector<double> heap_dist(g.NumVertices());
      for (NodeId v = 0; v < g.NumVertices(); ++v) {
        heap_dist[v] = scratch.DistanceOf(v);
      }
      EXPECT_EQ(heap_dist, legacy) << ng.name << " src=" << src;

      TraversalSummary delta =
          DijkstraDistances(g, src, scratch, SsspMode::kDeltaStepping);
      for (NodeId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_EQ(scratch.DistanceOf(v), heap_dist[v])
            << ng.name << " src=" << src << " v=" << v;
      }
      EXPECT_EQ(delta.reached, heap.reached) << ng.name << " src=" << src;
      EXPECT_EQ(delta.max_dist, heap.max_dist) << ng.name << " src=" << src;
      EXPECT_EQ(delta.farthest, heap.farthest) << ng.name << " src=" << src;

      // kAuto picks one of the two; either way the results are the same.
      TraversalSummary autod = DijkstraDistances(g, src, scratch);
      for (NodeId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_EQ(scratch.DistanceOf(v), heap_dist[v])
            << ng.name << " src=" << src << " v=" << v << " (auto)";
      }
      EXPECT_EQ(autod.reached, heap.reached);
      EXPECT_EQ(autod.max_dist, heap.max_dist);
      EXPECT_EQ(autod.farthest, heap.farthest);
    }
  }
}

// One scratch must survive interleaved bucket sizes (the cyclic array and
// discovery list are reused across graphs of different weight scales).
TEST(DeltaSteppingTest, ScratchReuseAcrossWeightScales) {
  std::vector<NamedGraph> shapes = WeightedShapes();
  TraversalScratch scratch;
  for (int round = 0; round < 3; ++round) {
    for (const NamedGraph& ng : shapes) {
      NodeId src = static_cast<NodeId>((round * 7) %
                                       ng.graph.NumVertices());
      TraversalScratch fresh;
      DijkstraDistances(ng.graph, src, scratch, SsspMode::kDeltaStepping);
      DijkstraDistances(ng.graph, src, fresh, SsspMode::kDeltaStepping);
      for (NodeId v = 0; v < ng.graph.NumVertices(); ++v) {
        EXPECT_EQ(scratch.DistanceOf(v), fresh.DistanceOf(v))
            << ng.name << " round=" << round << " v=" << v;
      }
    }
  }
}

// Weighted distance-metric batch at 1/2/8 threads: Traverse dispatches
// weighted graphs into the delta-stepping path, whose distances are a
// unique fixed point — so the whole run is thread-count-independent.
TEST(DeltaSteppingTest, WeightedMetricsBitIdenticalAcrossThreadCounts) {
  Rng rng(41);
  Graph g = WithRandomWeights(BarabasiAlbert(130, 3, rng), 10.0, rng);
  std::vector<SweepMetric> metrics = {
      {"spsp",
       [](const Graph& orig, const Graph& sp, Rng& r) {
         return SpspStretch(orig, sp, 300, r).mean_stretch;
       }},
      {"eccentricity",
       [](const Graph& orig, const Graph& sp, Rng& r) {
         return EccentricityStretch(orig, sp, 15, r).mean_stretch;
       }},
  };
  SweepConfig config;
  config.sparsifiers = {"RN", "LD"};
  config.prune_rates = {0.3, 0.6};
  config.runs_nondeterministic = 2;
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(config);
  auto run_at = [&](int threads) {
    BatchRunner runner(threads);
    std::vector<BatchMultiResult> results = runner.RunTasksMulti(
        g, "delta_bitident", tasks, config.seed, metrics);
    std::vector<double> values;
    for (const BatchMultiResult& r : results) {
      for (const BatchMetricValue& mv : r.values) values.push_back(mv.value);
    }
    return values;
  };
  std::vector<double> one = run_at(1);
  EXPECT_EQ(one, run_at(2));
  EXPECT_EQ(one, run_at(8));
}

}  // namespace
}  // namespace sparsify
