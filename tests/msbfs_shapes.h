// Graph shapes for the multi-source BFS differential tests
// (tests/test_traversal.cc against BfsLevels, tests/test_centrality.cc
// against the per-source closeness and eccentricity oracles): vertex
// counts on both sides of the 64-bit word boundary, paths and stars,
// disconnected pieces with isolated vertices, directed graphs, and
// sparsified subgraphs of a collaboration graph.
#ifndef SPARSIFY_TESTS_MSBFS_SHAPES_H_
#define SPARSIFY_TESTS_MSBFS_SHAPES_H_

#include <string>
#include <vector>

#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/util/rng.h"

namespace sparsify::testing_util {

struct NamedShape {
  std::string name;
  Graph graph;
};

inline std::vector<NamedShape> MultiSourceShapes() {
  Rng rng(2015);
  std::vector<NamedShape> shapes;
  shapes.push_back({"n0", Graph::FromEdges(0, {}, false, false)});
  shapes.push_back({"n1", Graph::FromEdges(1, {}, false, false)});
  shapes.push_back({"n2", Graph::FromEdges(2, {{0, 1}}, false, false)});
  // Sparse enough to leave several components next to the giant one.
  for (NodeId n : {63u, 64u, 65u, 130u}) {
    shapes.push_back({"er" + std::to_string(n),
                      ErdosRenyi(n, n * 3 / 2, false, rng)});
  }
  std::vector<Edge> path;
  for (NodeId v = 0; v + 1 < 70; ++v) path.push_back({v, v + 1});
  shapes.push_back({"path70", Graph::FromEdges(70, path, false, false)});
  std::vector<Edge> star;
  for (NodeId v = 1; v < 100; ++v) star.push_back({0, v});
  shapes.push_back({"star100", Graph::FromEdges(100, star, false, false)});
  // A triangle, a path, a 4-cycle across the word boundary, and isolated
  // vertices 3, 9..59 and 68..79.
  shapes.push_back(
      {"pieces_isolated",
       Graph::FromEdges(80,
                        {{0, 1}, {1, 2}, {0, 2}, {4, 5}, {5, 6}, {6, 7},
                         {7, 8}, {60, 61}, {61, 66}, {66, 67}, {67, 60}},
                        false, false)});
  shapes.push_back({"directed_er130", ErdosRenyi(130, 300, true, rng)});
  shapes.push_back(
      {"web-Google@0.2", LoadDatasetScaled("web-Google", 0.2).graph});
  const Graph astro = LoadDatasetScaled("ca-AstroPh", 0.2).graph;
  for (const char* algo : {"RN", "LD", "KN"}) {
    for (double rate : {0.3, 0.6, 0.9}) {
      Rng sparsify_rng(7);
      shapes.push_back(
          {std::string(algo) + "@" + std::to_string(rate).substr(0, 3),
           CreateSparsifier(algo)->Sparsify(astro, rate, sparsify_rng)});
    }
  }
  return shapes;
}

}  // namespace sparsify::testing_util

#endif  // SPARSIFY_TESTS_MSBFS_SHAPES_H_
