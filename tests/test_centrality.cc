// Tests for centrality metrics against analytically known values on small
// graphs, sampled-vs-exact cross-validation mirroring the paper's section
// 3.3.3, and the multi-source BFS paths of closeness centrality and
// eccentricity stretch against their per-source oracles, bit for bit.
#include "src/metrics/centrality.h"

#include <bit>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/graph/traversal.h"
#include "src/metrics/distance.h"
#include "src/obs/counters.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "tests/msbfs_shapes.h"

namespace sparsify {
namespace {

// The per-source closeness loop ClosenessCentrality ran before its
// unweighted path moved onto MultiSourceBfs: one traversal per vertex and
// an ascending-id double fold of its distances. The differential oracle
// for the batched kernel (and, on weighted graphs, for the Dijkstra path).
std::vector<double> PerSourceCloseness(const Graph& g) {
  const NodeId n = g.NumVertices();
  std::vector<double> closeness(n, 0.0);
  TraversalScratch scratch;
  for (NodeId v = 0; v < n; ++v) {
    Traverse(g, v, scratch);
    double sum = 0.0;
    double reachable = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      if (u != v && scratch.Reached(u)) {
        sum += scratch.DistanceOf(u);
        reachable += 1.0;
      }
    }
    if (sum > 0.0 && n > 1) {
      // Wasserman-Faust: (r / (n-1)) * (r / sum) where r = #reachable.
      closeness[v] = (reachable / (n - 1.0)) * (reachable / sum);
    }
  }
  return closeness;
}

// EccentricityStretch in its per-source form: two single-source
// eccentricities per sampled vertex, folded in sample order.
StretchResult PerSourceEccentricityStretch(const Graph& original,
                                           const Graph& sparsified,
                                           int num_sources, Rng& rng) {
  StretchResult result;
  const NodeId n = original.NumVertices();
  if (n == 0 || num_sources <= 0) return result;
  std::vector<uint64_t> samples =
      rng.SampleWithoutReplacement(n, std::min<uint64_t>(n, num_sources));
  std::vector<double> stretches;
  int broken = 0, total = 0;
  for (uint64_t s : samples) {
    NodeId v = static_cast<NodeId>(s);
    double eo = Eccentricity(original, v);
    if (eo == kInfDistance || eo == 0.0) continue;
    ++total;
    double es = Eccentricity(sparsified, v);
    if (es == kInfDistance) {
      ++broken;
    } else {
      stretches.push_back(es / eo);
    }
  }
  result.mean_stretch = Mean(stretches);
  result.unreachable = total > 0 ? static_cast<double>(broken) / total : 0.0;
  result.pairs_evaluated = static_cast<int>(stretches.size());
  return result;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectSameStretch(const StretchResult& got, const StretchResult& want,
                       const std::string& label) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got.mean_stretch),
            std::bit_cast<uint64_t>(want.mean_stretch))
      << label;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.unreachable),
            std::bit_cast<uint64_t>(want.unreachable))
      << label;
  EXPECT_EQ(got.pairs_evaluated, want.pairs_evaluated) << label;
}

// Every other edge of `g`: a deterministic sparsified counterpart.
Graph HalfEdges(const Graph& g) {
  std::vector<uint8_t> keep(g.NumEdges(), 0);
  for (EdgeId e = 0; e < g.NumEdges(); e += 2) keep[e] = 1;
  return g.Subgraph(keep);
}

Graph StarGraph(NodeId leaves) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v <= leaves; ++v) edges.push_back({0, v});
  return Graph::FromEdges(leaves + 1, edges, false, false);
}

TEST(BetweennessTest, StarCenterDominates) {
  Graph g = StarGraph(6);
  std::vector<double> b = BetweennessCentrality(g);
  // Center lies on all 6*5/2 = 15 leaf pairs.
  EXPECT_DOUBLE_EQ(b[0], 15.0);
  for (NodeId v = 1; v <= 6; ++v) EXPECT_DOUBLE_EQ(b[v], 0.0);
}

TEST(BetweennessTest, PathGraphValues) {
  // Path 0-1-2-3: b(1) = pairs {0,2},{0,3} = 2; plus... b(1)= {0-2,0-3} =2,
  // b(2) = {0-3,1-3} = 2.
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}}, false, false);
  std::vector<double> b = BetweennessCentrality(g);
  EXPECT_DOUBLE_EQ(b[0], 0.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(b[2], 2.0);
  EXPECT_DOUBLE_EQ(b[3], 0.0);
}

TEST(BetweennessTest, EvenSplitAcrossParallelPaths) {
  // Diamond: 0-1-3 and 0-2-3; vertices 1,2 each carry half of pair (0,3).
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, false,
                             false);
  std::vector<double> b = BetweennessCentrality(g);
  EXPECT_DOUBLE_EQ(b[1], 0.5);
  EXPECT_DOUBLE_EQ(b[2], 0.5);
}

TEST(BetweennessTest, SampledApproximatesExact) {
  Rng gen(51);
  Graph g = BarabasiAlbert(200, 3, gen);
  std::vector<double> exact = BetweennessCentrality(g);
  Rng rng(52);
  std::vector<double> approx = ApproxBetweennessCentrality(g, 150, rng);
  // Top-20 rankings should mostly agree (paper validates 500 pivots).
  EXPECT_GE(TopKPrecision(exact, approx, 20), 0.7);
}

TEST(ClosenessTest, StarCenterHighest) {
  Graph g = StarGraph(8);
  std::vector<double> c = ClosenessCentrality(g);
  for (NodeId v = 1; v <= 8; ++v) EXPECT_GT(c[0], c[v]);
}

TEST(ClosenessTest, PathEndpointsLowest) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, false,
                             false);
  std::vector<double> c = ClosenessCentrality(g);
  EXPECT_GT(c[2], c[0]);
  EXPECT_GT(c[2], c[4]);
  EXPECT_DOUBLE_EQ(c[0], c[4]);  // symmetry
}

TEST(ClosenessTest, DisconnectedScaledByReachability) {
  // Vertex in a big component should outrank a vertex in a 2-clique even
  // if the 2-clique distance sum is tiny (Wasserman-Faust correction).
  Graph g = Graph::FromEdges(7, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {5, 6}},
                             false, false);
  std::vector<double> c = ClosenessCentrality(g);
  EXPECT_GT(c[0], c[5]);
}

TEST(EigenvectorTest, UniformOnCycle) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v < 8; ++v) {
    edges.push_back({v, static_cast<NodeId>((v + 1) % 8)});
  }
  Graph g = Graph::FromEdges(8, edges, false, false);
  std::vector<double> x = EigenvectorCentrality(g);
  for (NodeId v = 1; v < 8; ++v) EXPECT_NEAR(x[v], x[0], 1e-9);
}

TEST(EigenvectorTest, HubHighestOnStar) {
  Graph g = StarGraph(10);
  std::vector<double> x = EigenvectorCentrality(g);
  for (NodeId v = 1; v <= 10; ++v) EXPECT_GT(x[0], x[v]);
}

TEST(KatzTest, HigherDegreeHigherScore) {
  Graph g = StarGraph(5);
  std::vector<double> k = KatzCentrality(g);
  for (NodeId v = 1; v <= 5; ++v) EXPECT_GT(k[0], k[v]);
}

TEST(KatzTest, AllPositive) {
  Rng gen(53);
  Graph g = ErdosRenyi(60, 150, true, gen);
  for (double ki : KatzCentrality(g)) EXPECT_GE(ki, 1.0);
}

TEST(PageRankTest, SumsToOne) {
  Rng gen(54);
  Graph g = RMat(8, 1000, 0.57, 0.19, 0.19, true, gen);
  std::vector<double> pr = PageRank(g);
  double sum = 0.0;
  for (double p : pr) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PageRankTest, DanglingMassRedistributed) {
  // 0 -> 1, 1 dangles. Ranks must still sum to 1 and 1 outranks 0.
  Graph g = Graph::FromEdges(2, {{0, 1}}, true, false);
  std::vector<double> pr = PageRank(g);
  EXPECT_NEAR(pr[0] + pr[1], 1.0, 1e-9);
  EXPECT_GT(pr[1], pr[0]);
}

TEST(PageRankTest, SymmetricGraphUniformDegreeUniformRank) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v < 10; ++v) {
    edges.push_back({v, static_cast<NodeId>((v + 1) % 10)});
  }
  Graph g = Graph::FromEdges(10, edges, false, false);
  std::vector<double> pr = PageRank(g);
  for (NodeId v = 1; v < 10; ++v) EXPECT_NEAR(pr[v], pr[0], 1e-9);
}

TEST(TopKTest, PrecisionBounds) {
  std::vector<double> a = {5, 4, 3, 2, 1, 0};
  std::vector<double> b = {5, 4, 3, 2, 1, 0};
  EXPECT_DOUBLE_EQ(TopKPrecision(a, b, 3), 1.0);
  std::vector<double> c = {0, 1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(TopKPrecision(a, c, 3), 0.0);
}

TEST(TopKTest, PartialOverlap) {
  std::vector<double> a = {10, 9, 8, 0, 0, 0};
  std::vector<double> b = {10, 0, 8, 9, 0, 0};  // {0,3,2} vs {0,1,2}
  EXPECT_NEAR(TopKPrecision(a, b, 3), 2.0 / 3.0, 1e-12);
}

TEST(TopKTest, KLargerThanN) {
  std::vector<double> a = {1, 2};
  EXPECT_DOUBLE_EQ(TopKPrecision(a, a, 100), 1.0);
}

TEST(TopKIndicesTest, OrderedAndTieBroken) {
  std::vector<double> s = {1.0, 3.0, 3.0, 2.0};
  std::vector<NodeId> top = TopKIndices(s, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // tie with 2 broken by index
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 3u);
}

TEST(TopKIndicesTest, NonPositiveKSelectsNothing) {
  std::vector<double> s = {1.0, 3.0, 2.0};
  EXPECT_TRUE(TopKIndices(s, -1).empty());
  EXPECT_TRUE(TopKIndices(s, 0).empty());
  EXPECT_DOUBLE_EQ(TopKPrecision(s, s, -1), 0.0);
  EXPECT_DOUBLE_EQ(TopKPrecision(s, s, 0), 0.0);
}

TEST(MultiSourceClosenessTest, BitIdenticalToPerSourceOracleOnEveryShape) {
  ThreadPool pool(4);
  for (const testing_util::NamedShape& shape :
       testing_util::MultiSourceShapes()) {
    const std::vector<double> want = PerSourceCloseness(shape.graph);
    EXPECT_TRUE(SameBits(ClosenessCentrality(shape.graph), want))
        << shape.name;
    // And with the batches fanned out as subtasks on a 4-thread pool.
    SubtaskPoolScope scope(&pool);
    EXPECT_TRUE(SameBits(ClosenessCentrality(shape.graph), want))
        << shape.name << " (4 threads)";
  }
}

TEST(MultiSourceEccentricityTest, BitIdenticalToPerSourceFormOnEveryShape) {
  for (const testing_util::NamedShape& shape :
       testing_util::MultiSourceShapes()) {
    const Graph sparse = HalfEdges(shape.graph);
    // 50 samples (one batch, as the registry metric draws) and 130 (two
    // full batches and a partial one where n allows it).
    for (int samples : {50, 130}) {
      Rng a(17), b(17);
      ExpectSameStretch(EccentricityStretch(shape.graph, sparse, samples, a),
                        PerSourceEccentricityStretch(shape.graph, sparse,
                                                     samples, b),
                        shape.name + " samples=" + std::to_string(samples));
      EXPECT_EQ(a.NextUint(1u << 30), b.NextUint(1u << 30)) << shape.name;
    }
  }
}

TEST(MultiSourceClosenessTest, WeightedGraphsKeepTheDijkstraPath) {
  const Graph astro = LoadDatasetScaled("ca-AstroPh", 0.1).graph;
  Rng rng(5);
  const Graph h = CreateSparsifier("ER-w")->Sparsify(astro, 0.5, rng);
  ASSERT_TRUE(h.IsWeighted());
  obs::Counter& msbfs_calls = obs::GetCounter("traversal.msbfs_calls");
  const uint64_t before = msbfs_calls.Value();
  EXPECT_TRUE(SameBits(ClosenessCentrality(h), PerSourceCloseness(h)));
  Rng a(9), b(9);
  ExpectSameStretch(EccentricityStretch(h, HalfEdges(h), 50, a),
                    PerSourceEccentricityStretch(h, HalfEdges(h), 50, b),
                    "ER-w");
  EXPECT_EQ(msbfs_calls.Value(), before);  // no multi-source BFS ran
}

}  // namespace
}  // namespace sparsify
