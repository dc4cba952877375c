// Min-wise-hash approximate Jaccard similarity.
//
// The original L-Spar algorithm (Satuluri et al., SIGMOD'11 — the paper's
// reference [62]) estimates Jaccard similarity with k independent min-wise
// hashes instead of exact set intersection, trading accuracy for a strict
// O(k |E|) bound. Our default L-Spar uses exact sorted-CSR intersection
// instead; this module provides the hashing estimator so
// bench_ablation_similarity can quantify what that exactness buys and
// costs.
#ifndef SPARSIFY_SPARSIFIERS_MINHASH_H_
#define SPARSIFY_SPARSIFIERS_MINHASH_H_

#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace sparsify {

/// Min-wise hash signatures: `num_hashes` x |V| matrix of neighborhood
/// minima under independent hash functions.
class MinHashSignatures {
 public:
  /// Builds signatures of every vertex's out-neighborhood.
  MinHashSignatures(const Graph& g, int num_hashes, Rng& rng);

  /// Estimated Jaccard similarity of the neighborhoods of u and v:
  /// fraction of hash functions whose minima agree.
  double EstimateJaccard(NodeId u, NodeId v) const;

  int num_hashes() const { return num_hashes_; }

 private:
  int num_hashes_;
  NodeId num_vertices_;
  std::vector<uint64_t> sig_;  // row-major: hash h, vertex v
};

/// Approximate Jaccard score of every canonical edge via min-wise hashing.
std::vector<double> MinHashJaccardEdgeScores(const Graph& g, int num_hashes,
                                             Rng& rng);

}  // namespace sparsify

#endif  // SPARSIFY_SPARSIFIERS_MINHASH_H_
