// Synthetic graph generators.
//
// The paper evaluates on 14 real-world graphs from SNAP / SuiteSparse / OGB
// (Table 3). Those datasets are not redistributable inside this offline
// reproduction, so we synthesize stand-ins whose *structural traits* (degree
// distribution, community structure, triangle density, directedness,
// density) match each dataset's category; src/graph/datasets.h maps each
// dataset to its recipe. These generators are also used directly by the
// unit and property tests.
#ifndef SPARSIFY_GRAPH_GENERATORS_H_
#define SPARSIFY_GRAPH_GENERATORS_H_

#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace sparsify {

/// G(n, m) Erdős–Rényi: m distinct uniform random edges.
Graph ErdosRenyi(NodeId n, EdgeId m, bool directed, Rng& rng);

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `edges_per_node` existing vertices with probability proportional to
/// degree. Produces a connected power-law graph (social-network-like).
Graph BarabasiAlbert(NodeId n, NodeId edges_per_node, Rng& rng);

/// Watts–Strogatz small world: ring lattice with `k` neighbors per side,
/// each edge rewired with probability `beta`. High clustering coefficient
/// (collaboration-network-like).
Graph WattsStrogatz(NodeId n, NodeId k, double beta, Rng& rng);

/// R-MAT / Kronecker-style recursive generator with partition probabilities
/// (a, b, c, d), a + b + c + d = 1. Skewed in/out degrees; used as the
/// stand-in for web graphs. Vertices: 2^scale.
Graph RMat(int scale, EdgeId m, double a, double b, double c, bool directed,
           Rng& rng);

/// Planted partition: `num_communities` equal-size groups; intra-community
/// edge probability `p_in`, inter `p_out`. If `communities` is non-null it
/// receives the ground-truth community of each vertex. Stand-in for
/// community networks (com-DBLP, com-Amazon) and GNN datasets.
Graph PlantedPartition(NodeId n, int num_communities, double p_in,
                       double p_out, Rng& rng,
                       std::vector<int>* communities = nullptr);

/// Power-law configuration model: degree sequence d_i ~ Zipf(gamma) clamped
/// to [min_degree, max_degree], stubs matched uniformly; self loops and
/// multi-edges dropped. Stand-in for dense biological graphs when combined
/// with weights.
Graph PowerLawConfiguration(NodeId n, double gamma, NodeId min_degree,
                            NodeId max_degree, Rng& rng);

/// Leskovec-style forest-fire *generative* model (distinct from the Forest
/// Fire sparsifier): each arriving vertex picks an ambassador and "burns"
/// through its neighborhood with forward probability `p_forward`.
Graph ForestFireModel(NodeId n, double p_forward, bool directed, Rng& rng);

/// Assigns Zipf-distributed integer weights in [1, max_weight] to the edges
/// of `g`, returning a weighted copy (stand-in for human_gene2's weights).
Graph WithRandomWeights(const Graph& g, double max_weight, Rng& rng);

/// LFR-style benchmark graph: power-law community sizes (exponent
/// `size_gamma`), power-law degrees (exponent `degree_gamma`, bounded by
/// [min_degree, max_degree]), and mixing parameter `mu` = expected fraction
/// of each vertex's edges that leave its community. Stub matching within
/// and across communities; self loops and multi-edges dropped. Harder for
/// community detection than PlantedPartition because both community sizes
/// and degrees are heterogeneous.
Graph LfrBenchmark(NodeId n, double degree_gamma, NodeId min_degree,
                   NodeId max_degree, double size_gamma,
                   NodeId min_community, double mu, Rng& rng,
                   std::vector<int>* communities = nullptr);

}  // namespace sparsify

#endif  // SPARSIFY_GRAPH_GENERATORS_H_
