// Differential oracle for the SP-t kernels. ReferenceGreedySpanner is the
// textbook greedy of Althöfer et al.: edges scanned in stable ascending
// weight order, one fresh priority-queue Dijkstra per edge over adjacency
// lists, keep e iff d_H(u, v) > t * w(e). The library's bidirectional BFS
// (unit weights) and flat-adjacency one-sided Dijkstra (real weights) must
// produce byte-identical keep-masks on every input below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/sparsifiers/t_spanner.h"
#include "src/util/rng.h"

namespace sparsify {
namespace {

// Distance from src to dst in `adj`, or +inf if it exceeds `bound`.
double BoundedDistance(
    const std::vector<std::vector<std::pair<NodeId, double>>>& adj,
    NodeId src, NodeId dst, double bound) {
  using Item = std::pair<double, NodeId>;
  std::vector<double> dist(adj.size(), std::numeric_limits<double>::infinity());
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[src] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    if (v == dst) return d;
    if (d > bound) break;
    for (auto [w, ew] : adj[v]) {
      double nd = d + ew;
      if (nd < dist[w] && nd <= bound) {
        dist[w] = nd;
        pq.emplace(nd, w);
      }
    }
  }
  return std::numeric_limits<double>::infinity();
}

std::vector<uint8_t> ReferenceGreedySpanner(const Graph& g, double t) {
  std::vector<EdgeId> order(g.NumEdges());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return g.EdgeWeight(a) < g.EdgeWeight(b);
  });
  std::vector<std::vector<std::pair<NodeId, double>>> spanner(
      g.NumVertices());
  std::vector<uint8_t> keep(g.NumEdges(), 0);
  for (EdgeId e : order) {
    const Edge& ed = g.CanonicalEdge(e);
    double bound = t * ed.w;
    if (BoundedDistance(spanner, ed.u, ed.v, bound) > bound) {
      keep[e] = 1;
      spanner[ed.u].emplace_back(ed.v, ed.w);
      spanner[ed.v].emplace_back(ed.u, ed.w);
    }
  }
  return keep;
}

std::vector<uint8_t> LibrarySpanner(const Graph& g, double t) {
  TSpannerSparsifier sp(t);
  Rng rng(0);
  return sp.MaskForRate(*sp.PrepareScores(g, rng), 0.0).keep;
}

// Includes non-integer stretches, where the BFS bound is floor(t).
const double kStretches[] = {1.5, 2.0, 2.5, 3.0, 5.0, 7.0};

void ExpectMatchesReference(const Graph& g, const std::string& label) {
  ASSERT_FALSE(g.IsDirected());
  for (double t : kStretches) {
    SCOPED_TRACE(label + " t=" + std::to_string(t));
    std::vector<uint8_t> want = ReferenceGreedySpanner(g, t);
    std::vector<uint8_t> got = LibrarySpanner(g, t);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want)
        << "kept " << std::count(got.begin(), got.end(), uint8_t{1})
        << " edges, reference kept "
        << std::count(want.begin(), want.end(), uint8_t{1});
  }
}

// Disjoint union of a and b (b's ids shifted past a's) plus `isolated`
// vertices with no edge at the end.
Graph DisjointUnion(const Graph& a, const Graph& b, NodeId isolated) {
  std::vector<Edge> edges = a.Edges();
  for (Edge e : b.Edges()) {
    e.u += a.NumVertices();
    e.v += a.NumVertices();
    edges.push_back(e);
  }
  return Graph::FromEdges(a.NumVertices() + b.NumVertices() + isolated,
                          std::move(edges), /*directed=*/false,
                          a.IsWeighted() || b.IsWeighted());
}

// Same topology with integer weights drawn from {1, 2, 3}: many ties, so
// the scan order depends on the stable sort keeping edge-id order.
Graph WithTiedWeights(const Graph& g, Rng& rng) {
  std::vector<Edge> edges = g.Edges();
  for (Edge& e : edges) e.w = static_cast<double>(rng.NextInt(1, 3));
  return Graph::FromEdges(g.NumVertices(), std::move(edges),
                          /*directed=*/false, /*weighted=*/true);
}

TEST(SpannerOracleTest, UnitWeightErdosRenyi) {
  for (uint64_t seed : {1, 2, 3}) {
    Rng gen(seed);
    ExpectMatchesReference(ErdosRenyi(300, 1500, /*directed=*/false, gen),
                           "ER seed " + std::to_string(seed));
  }
}

TEST(SpannerOracleTest, UnitWeightBarabasiAlbert) {
  for (uint64_t seed : {4, 5}) {
    Rng gen(seed);
    ExpectMatchesReference(BarabasiAlbert(400, 4, gen),
                           "BA seed " + std::to_string(seed));
  }
}

TEST(SpannerOracleTest, DisconnectedWithIsolatedVertices) {
  Rng gen(6);
  Graph a = ErdosRenyi(150, 500, /*directed=*/false, gen);
  Graph b = BarabasiAlbert(120, 3, gen);
  ExpectMatchesReference(DisjointUnion(a, b, /*isolated=*/25),
                         "unit-weight union");
  ExpectMatchesReference(
      DisjointUnion(WithRandomWeights(a, 4.0, gen), b, /*isolated=*/25),
      "weighted union");
}

TEST(SpannerOracleTest, TiedIntegerWeights) {
  for (uint64_t seed : {7, 8}) {
    Rng gen(seed);
    Graph g = ErdosRenyi(250, 1200, /*directed=*/false, gen);
    ExpectMatchesReference(WithTiedWeights(g, gen),
                           "tied weights seed " + std::to_string(seed));
  }
}

TEST(SpannerOracleTest, RandomRealWeights) {
  for (uint64_t seed : {9, 10}) {
    Rng gen(seed);
    Graph g = BarabasiAlbert(300, 4, gen);
    ExpectMatchesReference(WithRandomWeights(g, 10.0, gen),
                           "real weights seed " + std::to_string(seed));
  }
}

TEST(SpannerOracleTest, EveryRegisteredDataset) {
  for (const std::string& name : DatasetNames()) {
    Graph g = LoadDatasetScaled(name, 0.1).graph;
    if (g.IsDirected()) g = g.Symmetrized();
    ExpectMatchesReference(g, name + "@0.1");
  }
}

}  // namespace
}  // namespace sparsify
