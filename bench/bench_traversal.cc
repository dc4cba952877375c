// Traversal-kernel benchmark: quantifies what the direction-optimizing
// hybrid BFS, the delta-stepping Dijkstra, and the reusable
// TraversalScratch buy over the seed implementation, per dataset shape.
//
// Three BFS variants run from the same random sources on every graph:
//   seed:   the pre-kernel per-call implementation — a freshly allocated
//           O(n) double distance vector plus a std::deque-backed
//           std::queue frontier, every call;
//   push:   the kernel in kPushOnly mode with a shared scratch (isolates
//           the allocation/layout win from the direction win);
//   hybrid: the kernel's full push/pull direction-optimizing mode.
//
// Every variant also reports heap allocations per call (this translation
// unit overrides global operator new/delete with counting versions), so
// the scratch-reuse win and the algorithmic win are separated instead of
// conflated in hybrid_vs_seed: the seed's per-call allocations are
// visible next to the kernel's zero.
//
// The same sources also run as 64-wide bit-parallel MultiSourceBfs
// batches (the closeness/eccentricity kernel): msbfs_seconds times them
// against the hybrid pass (msbfs_vs_hybrid = hybrid / msbfs), the bench
// cross-checks every source's reached count and max level against its
// hybrid run, and msbfs_allocs_per_call counts heap allocations per
// warm batch call.
//
// Weighted datasets additionally race the two SSSP modes from the same
// sources — DijkstraDistances with SsspMode::kBinaryHeap vs
// kDeltaStepping — and report delta_vs_heap (distances are bit-identical;
// the bench cross-checks reached counts and max distances per source).
//
// The emitted JSON (default BENCH_traversal.json; the committed copy at
// the repo root is this benchmark's single-threaded output) reports
// per-graph seconds, speedups, allocation counts, and the pull-round
// count. CI jq-asserts pull switches and hybrid-vs-push floors on both an
// undirected social shape and a >=50k-vertex directed web shape.
//
// Usage: bench_traversal [--datasets=ego-Facebook@0.5,web-Google@25]
//          [--sources=64] [--repeat=3] [--seed=42] [--cache=DIR]
//          [--out=BENCH_traversal.json]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <queue>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/graph/datasets.h"
#include "src/graph/ingest.h"
#include "src/graph/traversal.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace {
// Global allocation counter, bumped by the operator new overrides below.
// The bench is single-threaded; relaxed atomics keep the probe overhead
// to one uncontended RMW per allocation.
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

namespace sparsify::bench {
namespace {

struct TraversalBenchOptions {
  // name@scale entries; scale defaults to 0.3 when omitted.
  std::vector<std::string> datasets = {"ego-Facebook@0.5", "web-Google@0.2",
                                       "ca-AstroPh@0.3"};
  int sources = 64;
  int repeat = 3;
  uint64_t seed = 42;
  std::string cache_dir;  // "" regenerates synthetics on every run
  std::string out = "BENCH_traversal.json";
  std::string trace;  // "" = spans stay disabled
};

bool ParseTraversalArgs(int argc, char** argv, TraversalBenchOptions* opt) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--datasets=", 11) == 0) {
      opt->datasets = SplitCsvFlag(arg + 11);
    } else if (std::strncmp(arg, "--sources=", 10) == 0) {
      opt->sources = static_cast<int>(ParseIntFlag(arg + 10, "--sources"));
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      opt->repeat = static_cast<int>(ParseIntFlag(arg + 9, "--repeat"));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opt->seed = ParseUint64Flag(arg + 7, "--seed");
    } else if (std::strncmp(arg, "--cache=", 8) == 0) {
      opt->cache_dir = arg + 8;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      opt->out = arg + 6;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      opt->trace = arg + 8;
    } else {
      std::cerr << "error: unknown option '" << arg << "'\n"
                << "usage: bench_traversal [--datasets=NAME@SCALE,..] "
                   "[--sources=n] [--repeat=n] [--seed=n] [--cache=DIR] "
                   "[--out=FILE] [--trace=FILE]\n";
      return false;
    }
  }
  if (opt->datasets.empty() || opt->sources < 1 || opt->repeat < 1) {
    std::cerr << "error: need >= 1 dataset, --sources >= 1, --repeat >= 1\n";
    return false;
  }
  return true;
}

// The seed-era ShortestPathDistances, verbatim: fresh allocations and a
// std::queue per call. This is the baseline the kernel replaced.
std::vector<double> SeedStyleBfs(const Graph& g, NodeId src) {
  std::vector<double> dist(g.NumVertices(), kInfDistance);
  dist[src] = 0.0;
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

struct GraphResult {
  std::string name;
  NodeId vertices = 0;
  EdgeId edges = 0;
  bool directed = false;
  bool weighted = false;
  double seed_seconds = 0.0;
  double push_seconds = 0.0;
  double hybrid_seconds = 0.0;
  double msbfs_seconds = 0.0;  // same sources, batches of 64
  int pull_rounds = 0;       // total across the hybrid pass's sources
  uint64_t checksum = 0;     // per-mode reached-count sums must agree
  // Allocations per traversal call, measured on the final repeat (scratch
  // warm), separating scratch reuse from the direction-switch win.
  double seed_allocs_per_call = 0.0;
  double push_allocs_per_call = 0.0;
  double hybrid_allocs_per_call = 0.0;
  double msbfs_allocs_per_call = 0.0;  // per MultiSourceBfs batch call
  // Weighted datasets only: binary-heap vs delta-stepping Dijkstra.
  double dijkstra_heap_seconds = 0.0;
  double dijkstra_delta_seconds = 0.0;
};

std::string Json(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

int TraversalBenchMain(int argc, char** argv) {
  TraversalBenchOptions opt;
  if (!ParseTraversalArgs(argc, argv, &opt)) return 2;
  BenchTraceScope trace_scope(opt.trace);

  std::vector<GraphResult> results;
  for (const std::string& spec : opt.datasets) {
    // One span per dataset: the kernel itself records counters, not
    // spans (its hot loops are the thing being measured), so the trace's
    // granularity here is the per-graph measurement section.
    TRACE_SPAN(graph_span, "bench_graph");
    if (graph_span.active()) graph_span.Detail(spec);
    std::string name = spec;
    double scale = 0.3;
    if (size_t at = spec.find('@'); at != std::string::npos) {
      name = spec.substr(0, at);
      scale = ParseDoubleFlag(spec.c_str() + at + 1, "--datasets scale");
    }
    Graph loaded = LoadDatasetScaledCached(name, scale, opt.cache_dir);
    // The kernel's direction optimization targets the unweighted BFS
    // path; weighted datasets bench their unweighted view for BFS and
    // the weighted graph for the Dijkstra race below.
    Graph graph = loaded.IsWeighted() ? loaded.Unweighted() : loaded;

    GraphResult r;
    r.name = spec;
    r.vertices = graph.NumVertices();
    r.edges = graph.NumEdges();
    r.directed = graph.IsDirected();
    r.weighted = loaded.IsWeighted();

    std::vector<NodeId> sources(opt.sources);
    Rng rng(opt.seed);
    for (int i = 0; i < opt.sources; ++i) {
      sources[i] = static_cast<NodeId>(rng.NextUint(graph.NumVertices()));
    }

    TraversalScratch scratch;
    // Per-source hybrid folds and multi-source records, sized once so the
    // timed loops below allocate nothing of their own.
    std::vector<TraversalSummary> hybrid_sums(sources.size());
    std::vector<MultiSourceRecord> ms_records(sources.size());
    const size_t ms_batches =
        (sources.size() + kMultiSourceWidth - 1) / kMultiSourceWidth;
    for (int rep = 0; rep < opt.repeat; ++rep) {
      uint64_t seed_check = 0, push_check = 0, hybrid_check = 0;
      int pull_rounds = 0;

      uint64_t allocs_before = g_alloc_count.load();
      Timer seed_timer;
      for (NodeId src : sources) {
        std::vector<double> dist = SeedStyleBfs(graph, src);
        for (double x : dist) seed_check += x != kInfDistance;
      }
      double seed_s = seed_timer.Seconds();
      r.seed_allocs_per_call =
          static_cast<double>(g_alloc_count.load() - allocs_before) /
          opt.sources;

      allocs_before = g_alloc_count.load();
      Timer push_timer;
      for (NodeId src : sources) {
        TraversalSummary sum =
            BfsLevels(graph, src, scratch, BfsMode::kPushOnly);
        push_check += sum.reached;
      }
      double push_s = push_timer.Seconds();
      r.push_allocs_per_call =
          static_cast<double>(g_alloc_count.load() - allocs_before) /
          opt.sources;

      allocs_before = g_alloc_count.load();
      Timer hybrid_timer;
      for (size_t i = 0; i < sources.size(); ++i) {
        hybrid_sums[i] = BfsLevels(graph, sources[i], scratch);
        hybrid_check += hybrid_sums[i].reached;
        pull_rounds += hybrid_sums[i].pull_rounds;
      }
      double hybrid_s = hybrid_timer.Seconds();
      r.hybrid_allocs_per_call =
          static_cast<double>(g_alloc_count.load() - allocs_before) /
          opt.sources;

      allocs_before = g_alloc_count.load();
      Timer msbfs_timer;
      for (size_t first = 0; first < sources.size();
           first += kMultiSourceWidth) {
        const size_t count =
            std::min(kMultiSourceWidth, sources.size() - first);
        MultiSourceBfs(graph, std::span(sources.data() + first, count),
                       scratch, std::span(ms_records.data() + first, count));
      }
      double msbfs_s = msbfs_timer.Seconds();
      r.msbfs_allocs_per_call =
          static_cast<double>(g_alloc_count.load() - allocs_before) /
          static_cast<double>(ms_batches);
      for (size_t i = 0; i < sources.size(); ++i) {
        if (ms_records[i].reached != hybrid_sums[i].reached ||
            static_cast<double>(ms_records[i].max_level) !=
                hybrid_sums[i].max_dist) {
          std::cerr << "error: multi-source BFS mismatch on " << spec
                    << " source " << sources[i] << "\n";
          return 1;
        }
      }

      if (seed_check != push_check || push_check != hybrid_check) {
        std::cerr << "error: reached-count mismatch on " << spec << "\n";
        return 1;
      }
      if (rep == 0 || seed_s < r.seed_seconds) r.seed_seconds = seed_s;
      if (rep == 0 || push_s < r.push_seconds) r.push_seconds = push_s;
      if (rep == 0 || hybrid_s < r.hybrid_seconds) {
        r.hybrid_seconds = hybrid_s;
      }
      if (rep == 0 || msbfs_s < r.msbfs_seconds) r.msbfs_seconds = msbfs_s;
      r.pull_rounds = pull_rounds;
      r.checksum = hybrid_check;
    }

    if (r.weighted) {
      // Same sources, weighted graph: binary heap vs delta stepping.
      // Distances are bit-identical (unique fixed point); reached counts
      // and per-source max distances are cross-checked exactly.
      for (int rep = 0; rep < opt.repeat; ++rep) {
        uint64_t heap_reached = 0, delta_reached = 0;
        double heap_max = 0.0, delta_max = 0.0;

        Timer heap_timer;
        for (NodeId src : sources) {
          TraversalSummary sum =
              DijkstraDistances(loaded, src, scratch, SsspMode::kBinaryHeap);
          heap_reached += sum.reached;
          heap_max += sum.max_dist;
        }
        double heap_s = heap_timer.Seconds();

        Timer delta_timer;
        for (NodeId src : sources) {
          TraversalSummary sum = DijkstraDistances(loaded, src, scratch,
                                                   SsspMode::kDeltaStepping);
          delta_reached += sum.reached;
          delta_max += sum.max_dist;
        }
        double delta_s = delta_timer.Seconds();

        if (heap_reached != delta_reached || heap_max != delta_max) {
          std::cerr << "error: Dijkstra mode mismatch on " << spec << "\n";
          return 1;
        }
        if (rep == 0 || heap_s < r.dijkstra_heap_seconds) {
          r.dijkstra_heap_seconds = heap_s;
        }
        if (rep == 0 || delta_s < r.dijkstra_delta_seconds) {
          r.dijkstra_delta_seconds = delta_s;
        }
      }
    }

    std::printf(
        "%-22s |V|=%u |E|=%u %s seed=%.4fs push=%.4fs hybrid=%.4fs "
        "hybrid_vs_seed=%.2fx hybrid_vs_push=%.2fx pull_rounds=%d "
        "allocs/call seed=%.1f push=%.1f hybrid=%.1f msbfs=%.4fs "
        "msbfs_vs_hybrid=%.2fx msbfs_allocs/call=%.1f",
        spec.c_str(), r.vertices, r.edges, r.directed ? "dir" : "und",
        r.seed_seconds, r.push_seconds, r.hybrid_seconds,
        r.hybrid_seconds > 0 ? r.seed_seconds / r.hybrid_seconds : 0.0,
        r.hybrid_seconds > 0 ? r.push_seconds / r.hybrid_seconds : 0.0,
        r.pull_rounds, r.seed_allocs_per_call, r.push_allocs_per_call,
        r.hybrid_allocs_per_call, r.msbfs_seconds,
        r.msbfs_seconds > 0 ? r.hybrid_seconds / r.msbfs_seconds : 0.0,
        r.msbfs_allocs_per_call);
    if (r.weighted) {
      std::printf(" dijkstra heap=%.4fs delta=%.4fs delta_vs_heap=%.2fx",
                  r.dijkstra_heap_seconds, r.dijkstra_delta_seconds,
                  r.dijkstra_delta_seconds > 0
                      ? r.dijkstra_heap_seconds / r.dijkstra_delta_seconds
                      : 0.0);
    }
    std::printf("\n");
    results.push_back(std::move(r));
  }

  std::string joined_datasets;
  for (const std::string& spec : opt.datasets) {
    joined_datasets += joined_datasets.empty() ? spec : "," + spec;
  }
  std::ostringstream json;
  json << "{\n";
  json << "  \"benchmark\": \"traversal\",\n";
  // The kernel timing loops are single-threaded by design (the per-call
  // costs being raced are serial); meta.threads records that.
  json << "  \"meta\": " << BenchMetaJson(1, joined_datasets) << ",\n";
  json << "  \"sources\": " << opt.sources << ",\n";
  json << "  \"repeat\": " << opt.repeat << ",\n";
  json << "  \"seed\": " << opt.seed << ",\n";
  json << "  \"graphs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const GraphResult& r = results[i];
    double vs_seed =
        r.hybrid_seconds > 0 ? r.seed_seconds / r.hybrid_seconds : 0.0;
    double vs_push =
        r.hybrid_seconds > 0 ? r.push_seconds / r.hybrid_seconds : 0.0;
    json << "    {\"name\": \"" << r.name << "\", \"vertices\": "
         << r.vertices << ", \"edges\": " << r.edges
         << ", \"directed\": " << (r.directed ? "true" : "false")
         << ", \"weighted\": " << (r.weighted ? "true" : "false")
         << ", \"seed_seconds\": " << Json(r.seed_seconds)
         << ", \"push_seconds\": " << Json(r.push_seconds)
         << ", \"hybrid_seconds\": " << Json(r.hybrid_seconds)
         << ", \"hybrid_vs_seed\": " << Json(vs_seed)
         << ", \"hybrid_vs_push\": " << Json(vs_push)
         << ", \"pull_rounds\": " << r.pull_rounds
         << ", \"seed_allocs_per_call\": " << Json(r.seed_allocs_per_call)
         << ", \"push_allocs_per_call\": " << Json(r.push_allocs_per_call)
         << ", \"hybrid_allocs_per_call\": "
         << Json(r.hybrid_allocs_per_call)
         << ", \"bfs_per_second_hybrid\": "
         << Json(r.hybrid_seconds > 0
                     ? static_cast<double>(opt.sources) / r.hybrid_seconds
                     : 0.0)
         << ", \"msbfs_seconds\": " << Json(r.msbfs_seconds)
         << ", \"msbfs_vs_hybrid\": "
         << Json(r.msbfs_seconds > 0 ? r.hybrid_seconds / r.msbfs_seconds
                                     : 0.0)
         << ", \"msbfs_allocs_per_call\": " << Json(r.msbfs_allocs_per_call);
    if (r.weighted) {
      json << ", \"dijkstra_heap_seconds\": " << Json(r.dijkstra_heap_seconds)
           << ", \"dijkstra_delta_seconds\": "
           << Json(r.dijkstra_delta_seconds)
           << ", \"delta_vs_heap\": "
           << Json(r.dijkstra_delta_seconds > 0
                       ? r.dijkstra_heap_seconds / r.dijkstra_delta_seconds
                       : 0.0);
    }
    json << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n";
  json << "}\n";

  std::ofstream out(opt.out, std::ios::trunc);
  if (!out) {
    std::cerr << "error: cannot write " << opt.out << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "# wrote " << opt.out << "\n";
  return 0;
}

}  // namespace sparsify::bench

int main(int argc, char** argv) {
  return sparsify::bench::TraversalBenchMain(argc, argv);
}
