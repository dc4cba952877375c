// t-Spanner sparsifier (paper section 2.3.6, greedy algorithm of Althöfer et
// al.): produces a subgraph H such that d_H(u, v) <= t * d_G(u, v) for all
// vertex pairs. Edges are scanned in ascending weight order; an edge (u, v)
// is added only if the current spanner distance between u and v exceeds
// t * w(u, v). Undirected only; no prune-rate control. The spanner is built
// once in PrepareScores; MaskForRate returns it unchanged at every rate.
//
// The partial spanner lives in one flat adjacency array carved from G's CSR
// offsets (H is a subgraph of G, so deg_G(v) slots per vertex suffice), and
// each edge's distance test runs one of two kernels:
//  - unit weights: edges in id order (the weight sort is the identity) and
//    a bidirectional BFS that decides d_H(u, v) <= floor(t), expanding the
//    cheaper frontier first and stopping at the first vertex both sides
//    reach;
//  - real weights: a Dijkstra from u alone, bounded by t * w(u, v). It stays
//    one-sided because a meet-in-the-middle sum d(u, m) + d(m, v) associates
//    the floating-point additions differently and can flip the accept test
//    by one ulp.
// Both poll cancellation every 1024 scanned edges. The keep-masks are
// byte-identical to the textbook per-edge Dijkstra greedy, which
// tests/test_spanner_oracle.cc keeps as a differential oracle.
#ifndef SPARSIFY_SPARSIFIERS_T_SPANNER_H_
#define SPARSIFY_SPARSIFIERS_T_SPANNER_H_

#include "src/sparsifiers/sparsifier.h"

namespace sparsify {

class TSpannerSparsifier : public Sparsifier {
 public:
  /// `t` is the stretch factor (> 1). The paper evaluates t in {3, 5, 7}.
  explicit TSpannerSparsifier(double t);

  const SparsifierInfo& Info() const override;
  /// Throws std::invalid_argument for directed graphs.
  std::unique_ptr<ScoreState> PrepareScores(const Graph& g,
                                            Rng& rng) const override;
  /// `prune_rate` is ignored (PruneRateControl::kNone).
  RateMask MaskForRate(const ScoreState& state,
                       double prune_rate) const override;

  double stretch() const { return t_; }

 private:
  double t_;
  SparsifierInfo info_;
};

}  // namespace sparsify

#endif  // SPARSIFY_SPARSIFIERS_T_SPANNER_H_
