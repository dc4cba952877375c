// Tests for the shared traversal kernel (src/graph/traversal.h): push-only
// == hybrid == legacy queue BFS on every graph shape, Dijkstra parity,
// scratch reuse across graph sizes and threads, the SoA CSR spans, the
// TraversalSummary folds, the cached MaxDegree, full-metric bit-identity
// of a distance-heavy multi-metric run at 1/2/8 threads, and
// MultiSourceBfs against a per-source BfsLevels fold (including a zero
// heap-allocation check on warm calls).
#include "src/graph/traversal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <queue>
#include <stdexcept>

#include "src/engine/batch_runner.h"
#include "src/graph/generators.h"
#include "src/metrics/distance.h"
#include "src/obs/counters.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/msbfs_shapes.h"

namespace {
// Heap allocations made by this test binary, bumped by the operator new
// replacements below (the warm-call zero-allocation test reads it).
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sparsify {
namespace {

// The seed implementation, verbatim: per-call allocating queue BFS /
// priority-queue Dijkstra. The kernel must reproduce its output bitwise.
std::vector<double> LegacyShortestPathDistances(const Graph& g, NodeId src) {
  std::vector<double> dist(g.NumVertices(), kInfDistance);
  dist[src] = 0.0;
  if (!g.IsWeighted()) {
    std::queue<NodeId> q;
    q.push(src);
    while (!q.empty()) {
      NodeId v = q.front();
      q.pop();
      for (NodeId u : g.OutNeighborNodes(v)) {
        if (dist[u] == kInfDistance) {
          dist[u] = dist[v] + 1.0;
          q.push(u);
        }
      }
    }
    return dist;
  }
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

Graph PathGraph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, static_cast<NodeId>(v + 1), 1.0});
  return Graph::FromEdges(n, std::move(edges), false, false);
}

Graph StarGraph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back({0, v, 1.0});
  return Graph::FromEdges(n, std::move(edges), false, false);
}

Graph TriangleWithTail() {
  return Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}}, false, false);
}

// All graph shapes the distance tests sweep, by name for failure output.
struct NamedGraph {
  std::string name;
  Graph graph;
};

std::vector<NamedGraph> TestGraphs() {
  Rng rng(7);
  std::vector<NamedGraph> graphs;
  graphs.push_back({"path", PathGraph(24)});
  graphs.push_back({"star", StarGraph(40)});
  graphs.push_back({"triangle_tail", TriangleWithTail()});
  graphs.push_back({"er", ErdosRenyi(80, 200, false, rng)});
  graphs.push_back(
      {"disconnected",
       Graph::FromEdges(9, {{0, 1}, {1, 2}, {3, 4}, {5, 6}, {6, 7}}, false,
                        false)});
  graphs.push_back({"directed", ErdosRenyi(60, 220, true, rng)});
  graphs.push_back({"directed_star",
                    Graph::FromEdges(12,
                                     {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5},
                                      {0, 6}, {0, 7}, {0, 8}, {0, 9}, {0, 10},
                                      {0, 11}},
                                     true, false)});
  graphs.push_back(
      {"weighted", WithRandomWeights(ErdosRenyi(50, 140, false, rng), 4.0,
                                     rng)});
  graphs.push_back({"ba", BarabasiAlbert(120, 3, rng)});
  return graphs;
}

TEST(TraversalKernelTest, PushHybridAndLegacyAgreeOnAllShapes) {
  TraversalScratch scratch;  // shared across every graph: reuse is the point
  for (const NamedGraph& ng : TestGraphs()) {
    const Graph& g = ng.graph;
    for (NodeId src = 0; src < g.NumVertices();
         src += std::max<NodeId>(1, g.NumVertices() / 7)) {
      std::vector<double> legacy = LegacyShortestPathDistances(g, src);
      std::vector<double> hybrid = ShortestPathDistances(g, src, scratch);
      EXPECT_EQ(legacy, hybrid) << ng.name << " src=" << src << " (hybrid)";
      if (!g.IsWeighted()) {
        BfsLevels(g, src, scratch, BfsMode::kPushOnly);
        for (NodeId v = 0; v < g.NumVertices(); ++v) {
          EXPECT_EQ(scratch.DistanceOf(v), legacy[v])
              << ng.name << " src=" << src << " v=" << v << " (push-only)";
        }
      }
    }
  }
}

TEST(TraversalKernelTest, SummaryMatchesReferenceScan) {
  TraversalScratch scratch;
  for (const NamedGraph& ng : TestGraphs()) {
    const Graph& g = ng.graph;
    for (NodeId src = 0; src < g.NumVertices();
         src += std::max<NodeId>(1, g.NumVertices() / 5)) {
      TraversalSummary sum = Traverse(g, src, scratch);
      std::vector<double> dist = LegacyShortestPathDistances(g, src);
      // The exact reduction the legacy consumers ran over the vector:
      // ascending scan, strict `>`, farthest defaults to the source.
      NodeId reached = 0;
      double far_d = 0.0;
      NodeId far_v = src;
      for (NodeId u = 0; u < g.NumVertices(); ++u) {
        if (dist[u] == kInfDistance) continue;
        ++reached;
        if (u != src && dist[u] > far_d) {
          far_d = dist[u];
          far_v = u;
        }
      }
      EXPECT_EQ(sum.reached, reached) << ng.name << " src=" << src;
      EXPECT_EQ(sum.max_dist, far_d) << ng.name << " src=" << src;
      EXPECT_EQ(sum.farthest, far_v) << ng.name << " src=" << src;
    }
  }
}

TEST(TraversalKernelTest, HybridActuallySwitchesToPullOnStar) {
  // From a leaf, round 2's frontier is the hub: scout = n-1 out-edges
  // always exceeds edges_to_check/alpha, so the heuristic must take the
  // pull direction at least once (this guards the CI jq assertion too).
  Graph g = StarGraph(64);
  TraversalScratch scratch;
  TraversalSummary sum = BfsLevels(g, 1, scratch);
  EXPECT_GE(sum.pull_rounds, 1);
  EXPECT_EQ(sum.reached, 64u);
}

TEST(TraversalKernelTest, DirectedPullScansInNeighbors) {
  // Directed hub->leaf star: from the hub the only correct pull source is
  // the IN-neighbor list of each leaf. A pull over out-neighbors would
  // find nothing.
  Graph g = Graph::FromEdges(
      40, [] {
        std::vector<Edge> edges;
        for (NodeId v = 1; v < 40; ++v) edges.push_back({0, v, 1.0});
        return edges;
      }(), true, false);
  TraversalScratch scratch;
  TraversalSummary sum = BfsLevels(g, 0, scratch);
  EXPECT_EQ(sum.reached, 40u);
  EXPECT_GE(sum.pull_rounds, 1);
  for (NodeId v = 1; v < 40; ++v) EXPECT_EQ(scratch.LevelOf(v), 1u);
  // And from a leaf nothing is reachable along out-arcs.
  sum = BfsLevels(g, 3, scratch);
  EXPECT_EQ(sum.reached, 1u);
  EXPECT_EQ(sum.max_dist, 0.0);
  EXPECT_EQ(sum.farthest, 3u);
}

TEST(TraversalKernelTest, ScratchReuseAcrossSizesAndEpochs) {
  TraversalScratch scratch;
  Rng rng(11);
  Graph big = ErdosRenyi(300, 900, false, rng);
  Graph small = PathGraph(5);
  Graph medium = ErdosRenyi(100, 150, false, rng);  // sparse: many unreached
  // Interleave sizes; every traversal must match a fresh-scratch run.
  for (int round = 0; round < 5; ++round) {
    for (const Graph* g : {&big, &small, &medium}) {
      NodeId src = static_cast<NodeId>((round * 13) % g->NumVertices());
      TraversalScratch fresh;
      EXPECT_EQ(ShortestPathDistances(*g, src, scratch),
                ShortestPathDistances(*g, src, fresh))
          << "round=" << round << " n=" << g->NumVertices();
    }
  }
}

TEST(TraversalKernelTest, PerThreadScratchUnderNestedParallelFor) {
  Rng rng(23);
  Graph g = BarabasiAlbert(200, 3, rng);
  std::vector<std::vector<double>> serial(g.NumVertices());
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    serial[v] = ShortestPathDistances(g, v);
  }
  ThreadPool pool(8);
  std::vector<std::vector<double>> parallel(g.NumVertices());
  NestedParallelFor(&pool, g.NumVertices(), [&](size_t v) {
    // LocalTraversalScratch hands every claiming thread its own scratch.
    parallel[v] = ShortestPathDistances(g, static_cast<NodeId>(v),
                                        LocalTraversalScratch());
  });
  EXPECT_EQ(serial, parallel);
}

TEST(SoaCsrTest, SpansAgreeWithCanonicalEdges) {
  for (const NamedGraph& ng : TestGraphs()) {
    const Graph& g = ng.graph;
    for (NodeId v = 0; v < g.NumVertices(); ++v) {
      auto nodes = g.OutNeighborNodes(v);
      auto edges = g.OutNeighborEdges(v);
      ASSERT_EQ(nodes.size(), edges.size());
      ASSERT_EQ(nodes.size(), g.OutDegree(v));
      EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end())) << ng.name;
      for (size_t i = 0; i < nodes.size(); ++i) {
        const Edge& e = g.CanonicalEdge(edges[i]);
        // The entry's edge must connect v to the entry's neighbor.
        if (g.IsDirected()) {
          EXPECT_EQ(e.u, v);
          EXPECT_EQ(e.v, nodes[i]);
        } else {
          EXPECT_TRUE((e.u == v && e.v == nodes[i]) ||
                      (e.v == v && e.u == nodes[i]))
              << ng.name;
        }
        EXPECT_EQ(g.FindEdge(v, nodes[i]), edges[i]) << ng.name;
      }
      // In-adjacency mirrors the arcs.
      auto in_nodes = g.InNeighborNodes(v);
      auto in_edges = g.InNeighborEdges(v);
      ASSERT_EQ(in_nodes.size(), in_edges.size());
      ASSERT_EQ(in_nodes.size(), g.InDegree(v));
      EXPECT_TRUE(std::is_sorted(in_nodes.begin(), in_nodes.end()));
      for (size_t i = 0; i < in_nodes.size(); ++i) {
        const Edge& e = g.CanonicalEdge(in_edges[i]);
        if (g.IsDirected()) {
          EXPECT_EQ(e.v, v);
          EXPECT_EQ(e.u, in_nodes[i]);
        }
      }
    }
  }
}

TEST(SoaCsrTest, MaxDegreeCachedMatchesScan) {
  for (const NamedGraph& ng : TestGraphs()) {
    const Graph& g = ng.graph;
    NodeId scan = 0;
    for (NodeId v = 0; v < g.NumVertices(); ++v) {
      scan = std::max(scan, g.OutDegree(v));
    }
    EXPECT_EQ(g.MaxDegree(), scan) << ng.name;
    // The cache must be rebuilt by Subgraph's BuildCsr too.
    std::vector<uint8_t> keep(g.NumEdges(), 0);
    for (EdgeId e = 0; e < g.NumEdges(); e += 2) keep[e] = 1;
    Graph sub = g.Subgraph(keep);
    NodeId sub_scan = 0;
    for (NodeId v = 0; v < sub.NumVertices(); ++v) {
      sub_scan = std::max(sub_scan, sub.OutDegree(v));
    }
    EXPECT_EQ(sub.MaxDegree(), sub_scan) << ng.name;
  }
}

TEST(TraversalKernelTest, EccentricityMatchesVectorFold) {
  TraversalScratch scratch;
  for (const NamedGraph& ng : TestGraphs()) {
    const Graph& g = ng.graph;
    for (NodeId v = 0; v < g.NumVertices();
         v += std::max<NodeId>(1, g.NumVertices() / 9)) {
      std::vector<double> dist = LegacyShortestPathDistances(g, v);
      double ecc = -1.0;
      for (NodeId u = 0; u < g.NumVertices(); ++u) {
        if (u != v && dist[u] != kInfDistance) ecc = std::max(ecc, dist[u]);
      }
      double want = ecc < 0.0 ? kInfDistance : ecc;
      EXPECT_EQ(Eccentricity(g, v), want) << ng.name << " v=" << v;
    }
  }
}

// Distance-heavy multi-metric run must stay bit-identical at every thread
// count: the kernel fans per-source traversals out through
// NestedParallelFor with per-thread scratches, and all folds are
// thread-count-independent by construction.
TEST(TraversalKernelTest, DistanceMetricsBitIdenticalAcrossThreadCounts) {
  Rng rng(5);
  Graph g = BarabasiAlbert(150, 3, rng);
  std::vector<SweepMetric> metrics = {
      {"spsp",
       [](const Graph& orig, const Graph& sp, Rng& r) {
         return SpspStretch(orig, sp, 400, r).mean_stretch;
       }},
      {"eccentricity",
       [](const Graph& orig, const Graph& sp, Rng& r) {
         return EccentricityStretch(orig, sp, 20, r).mean_stretch;
       }},
      {"diameter",
       [](const Graph&, const Graph& sp, Rng& r) {
         return ApproxDiameter(sp, 4, r);
       }},
  };
  SweepConfig config;
  config.sparsifiers = {"RN", "LD"};
  config.prune_rates = {0.3, 0.6};
  config.runs_nondeterministic = 2;
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(config);
  auto run_at = [&](int threads) {
    BatchRunner runner(threads);
    std::vector<BatchMultiResult> results =
        runner.RunTasksMulti(g, "bitident", tasks, config.seed, metrics);
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

// Per-source reference for one MultiSourceBfs lane: a single-source BFS
// folded into the same {reached, level_sum, max_level} record.
MultiSourceRecord FoldBfsLevels(const Graph& g, NodeId src,
                                TraversalScratch& scratch) {
  BfsLevels(g, src, scratch);
  MultiSourceRecord rec;
  rec.reached = 0;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    if (!scratch.Reached(v)) continue;
    ++rec.reached;
    rec.level_sum += scratch.LevelOf(v);
    rec.max_level = std::max(rec.max_level, scratch.LevelOf(v));
  }
  return rec;
}

TEST(MultiSourceBfsTest, MatchesPerSourceBfsOnEveryShapeAndBatchSize) {
  TraversalScratch ms_scratch;  // shared: reuse across sizes is part of it
  TraversalScratch scratch;
  for (const testing_util::NamedShape& shape :
       testing_util::MultiSourceShapes()) {
    const Graph& g = shape.graph;
    const NodeId n = g.NumVertices();
    if (n == 0) {
      MultiSourceBfs(g, {}, ms_scratch, {});  // no sources, no records
      continue;
    }
    Rng rng(99);
    for (size_t batch : {1, 2, 63, 64}) {
      std::vector<NodeId> sources(batch);
      for (size_t i = 0; i < batch; ++i) {
        sources[i] = static_cast<NodeId>(rng.NextUint(n));
      }
      if (batch > 1) sources.back() = sources.front();  // a duplicate lane
      std::vector<MultiSourceRecord> got(batch);
      MultiSourceBfs(g, sources, ms_scratch, got);
      for (size_t i = 0; i < batch; ++i) {
        const MultiSourceRecord want = FoldBfsLevels(g, sources[i], scratch);
        EXPECT_EQ(got[i].reached, want.reached)
            << shape.name << " batch=" << batch << " lane=" << i;
        EXPECT_EQ(got[i].level_sum, want.level_sum)
            << shape.name << " batch=" << batch << " lane=" << i;
        EXPECT_EQ(got[i].max_level, want.max_level)
            << shape.name << " batch=" << batch << " lane=" << i;
      }
    }
  }
}

TEST(MultiSourceBfsTest, DirectedLanesFollowOutArcsOnly) {
  // Hub -> leaf star: the hub's lane reaches every leaf at level 1, a
  // leaf's lane reaches nothing but itself.
  std::vector<Edge> arcs;
  for (NodeId v = 1; v < 70; ++v) arcs.push_back({0, v});
  Graph g = Graph::FromEdges(70, arcs, true, false);
  TraversalScratch scratch;
  const std::array<NodeId, 2> sources = {0, 5};
  std::array<MultiSourceRecord, 2> rec;
  MultiSourceBfs(g, sources, scratch, rec);
  EXPECT_EQ(rec[0].reached, 70u);
  EXPECT_EQ(rec[0].level_sum, 69u);
  EXPECT_EQ(rec[0].max_level, 1u);
  EXPECT_EQ(rec[1].reached, 1u);
  EXPECT_EQ(rec[1].level_sum, 0u);
  EXPECT_EQ(rec[1].max_level, 0u);
}

TEST(MultiSourceBfsTest, RejectsMoreThan64SourcesOrMismatchedRecords) {
  Graph g = Graph::FromEdges(2, {{0, 1}}, false, false);
  TraversalScratch scratch;
  std::vector<NodeId> sources(65, 0);
  std::vector<MultiSourceRecord> rec(65);
  EXPECT_THROW(MultiSourceBfs(g, sources, scratch, rec),
               std::invalid_argument);
  sources.resize(2);
  rec.resize(1);
  EXPECT_THROW(MultiSourceBfs(g, sources, scratch, rec),
               std::invalid_argument);
}

TEST(MultiSourceBfsTest, WarmCallAllocatesNothingAndBumpsCountersOnce) {
  Rng rng(3);
  Graph g = BarabasiAlbert(500, 4, rng);
  std::array<NodeId, kMultiSourceWidth> sources;
  for (size_t i = 0; i < sources.size(); ++i) {
    sources[i] = static_cast<NodeId>(i * 7);
  }
  std::array<MultiSourceRecord, kMultiSourceWidth> rec;
  TraversalScratch scratch;
  MultiSourceBfs(g, sources, scratch, rec);  // sizes the scratch
  obs::Counter& calls = obs::GetCounter("traversal.msbfs_calls");
  obs::Counter& levels = obs::GetCounter("traversal.msbfs_levels");
  const uint64_t calls_before = calls.Value();
  const uint64_t levels_before = levels.Value();
  const uint64_t allocs_before = g_alloc_count.load();
  MultiSourceBfs(g, sources, scratch, rec);
  EXPECT_EQ(g_alloc_count.load(), allocs_before);
  EXPECT_EQ(calls.Value(), calls_before + 1);
  // One level per round scanned, including the final round that finds
  // nothing new: max level + 1 in total.
  uint32_t max_level = 0;
  for (const MultiSourceRecord& r : rec) {
    max_level = std::max(max_level, r.max_level);
  }
  EXPECT_EQ(levels.Value(), levels_before + max_level + 1);
}

}  // namespace
}  // namespace sparsify
