#include "src/sparsifiers/t_spanner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "src/util/cancel.h"

namespace sparsify {

namespace {

// The partial spanner H as one flat adjacency array. H ⊆ G, so vertex v
// never needs more than deg_G(v) slots: it owns the same range its row
// occupies in G's CSR, of which the first fill_[v] entries are in use.
// Weights are stored only for the weighted kernel.
class FlatSpanner {
 public:
  FlatSpanner(const Graph& g, bool store_weights)
      : offset_(g.NumVertices() + 1, 0), fill_(g.NumVertices(), 0) {
    for (NodeId v = 0; v < g.NumVertices(); ++v) {
      offset_[v + 1] = offset_[v] + g.OutDegree(v);
    }
    nbr_.resize(offset_.back());
    if (store_weights) weight_.resize(offset_.back());
  }

  void Add(const Edge& e) {
    Append(e.u, e.v, e.w);
    Append(e.v, e.u, e.w);
  }

  NodeId Degree(NodeId v) const { return fill_[v]; }
  std::span<const NodeId> Neighbors(NodeId v) const {
    return {nbr_.data() + offset_[v], fill_[v]};
  }
  std::span<const double> Weights(NodeId v) const {
    return {weight_.data() + offset_[v], fill_[v]};
  }

 private:
  void Append(NodeId from, NodeId to, double w) {
    const uint64_t slot = offset_[from] + fill_[from]++;
    nbr_[slot] = to;
    if (!weight_.empty()) weight_[slot] = w;
  }

  std::vector<uint64_t> offset_;
  std::vector<NodeId> fill_;
  std::vector<NodeId> nbr_;
  std::vector<double> weight_;
};

// Decides d_H(u, v) <= hops on a unit-weight spanner with a bidirectional
// BFS. Each step expands the side whose frontier has less adjacency work
// and the search stops at the first vertex both sides have reached. One
// stamp array marks both sides (u's side with epoch_ - 1, v's with
// epoch_), so a query resets in O(1) and allocates nothing once the
// frontier buffers have grown.
class BidirectionalBfs {
 public:
  explicit BidirectionalBfs(NodeId n) : stamp_(n, 0) {}

  bool WithinHops(const FlatSpanner& h, NodeId u, NodeId v, uint32_t hops) {
    if (epoch_ > std::numeric_limits<uint32_t>::max() - 2) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 0;
    }
    epoch_ += 2;
    const uint32_t mark[2] = {epoch_ - 1, epoch_};
    uint64_t work[2] = {h.Degree(u), h.Degree(v)};  // frontier H-degree sums
    stamp_[u] = mark[0];
    stamp_[v] = mark[1];
    frontier_[0].assign(1, u);
    frontier_[1].assign(1, v);
    // Each round adds one hop to the path either side can close.
    for (uint32_t depth = 0; depth < hops; ++depth) {
      const int s = work[0] <= work[1] ? 0 : 1;
      next_.clear();
      uint64_t next_work = 0;
      for (NodeId x : frontier_[s]) {
        for (NodeId y : h.Neighbors(x)) {
          if (stamp_[y] == mark[1 - s]) return true;
          if (stamp_[y] != mark[s]) {
            stamp_[y] = mark[s];
            next_.push_back(y);
            next_work += h.Degree(y);
          }
        }
      }
      // This side's component is exhausted without meeting the other.
      if (next_.empty()) return false;
      frontier_[s].swap(next_);
      work[s] = next_work;
    }
    return false;
  }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  std::vector<NodeId> frontier_[2];
  std::vector<NodeId> next_;
};

// d_H(src, dst) on a weighted spanner, or +inf if it exceeds `bound`, by a
// Dijkstra from src alone over epoch-stamped distances and a reusable binary
// heap; the pops and relaxations are those of a fresh priority_queue. It
// must stay one-sided: path lengths are summed from src outward, and a
// meet-in-the-middle sum d(src, m) + d(m, dst) can round differently and
// flip the accept test by one ulp.
class BoundedDijkstra {
 public:
  explicit BoundedDijkstra(NodeId n) : stamp_(n, 0), dist_(n, 0.0) {}

  double Distance(const FlatSpanner& h, NodeId src, NodeId dst,
                  double bound) {
    if (epoch_ == std::numeric_limits<uint32_t>::max()) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 0;
    }
    ++epoch_;
    heap_.clear();
    Relax(src, 0.0);
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      auto [d, x] = heap_.back();
      heap_.pop_back();
      if (d > Dist(x)) continue;
      if (x == dst) return d;
      if (d > bound) break;
      std::span<const NodeId> nbrs = h.Neighbors(x);
      std::span<const double> weights = h.Weights(x);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const double nd = d + weights[i];
        const NodeId y = nbrs[i];
        if (nd < Dist(y) && nd <= bound) {
          Relax(y, nd);
        }
      }
    }
    return std::numeric_limits<double>::infinity();
  }

 private:
  double Dist(NodeId v) const {
    return stamp_[v] == epoch_ ? dist_[v]
                               : std::numeric_limits<double>::infinity();
  }

  void Relax(NodeId v, double d) {
    stamp_[v] = epoch_;
    dist_[v] = d;
    heap_.emplace_back(d, v);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  std::vector<uint32_t> stamp_;
  std::vector<double> dist_;
  std::vector<std::pair<double, NodeId>> heap_;
  uint32_t epoch_ = 0;
};

constexpr EdgeId kCancelPollEdges = 1024;

}  // namespace

TSpannerSparsifier::TSpannerSparsifier(double t) : t_(t) {
  if (!(t > 1.0)) throw std::invalid_argument("stretch factor must be > 1");
  info_ = SparsifierInfo{
      .name = "t-Spanner (t=" + std::to_string(static_cast<int>(t)) + ")",
      .short_name = "SP-" + std::to_string(static_cast<int>(t)),
      .supports_directed = false,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kNone,
      .changes_weights = false,
      .deterministic = true,
      .complexity = "O(|V|^2 log |V|)",
  };
}

const SparsifierInfo& TSpannerSparsifier::Info() const { return info_; }

std::unique_ptr<ScoreState> TSpannerSparsifier::PrepareScores(const Graph& g,
                                                              Rng& rng) const {
  (void)rng;  // deterministic
  if (g.IsDirected()) {
    throw std::invalid_argument(
        "t-Spanner requires an undirected graph; symmetrize first");
  }
  const EdgeId m = g.NumEdges();
  std::vector<uint8_t> keep(m, 0);
  FlatSpanner h(g, g.IsWeighted());
  if (!g.IsWeighted()) {
    // Unit weights: the stable sort by weight is the identity, and for an
    // integral hop count d > t holds exactly when d > floor(t). Hop counts
    // never exceed n - 1, which keeps huge t inside uint32.
    const auto hops = static_cast<uint32_t>(
        std::min(std::floor(t_), static_cast<double>(g.NumVertices())));
    BidirectionalBfs bfs(g.NumVertices());
    for (EdgeId e = 0; e < m; ++e) {
      if (e % kCancelPollEdges == 0) SPARSIFY_CHECK_CANCELLED();
      const Edge& ed = g.CanonicalEdge(e);
      if (!bfs.WithinHops(h, ed.u, ed.v, hops)) {
        keep[e] = 1;
        h.Add(ed);
      }
    }
  } else {
    std::vector<EdgeId> order(m);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
      return g.EdgeWeight(a) < g.EdgeWeight(b);
    });
    BoundedDijkstra dijkstra(g.NumVertices());
    for (EdgeId i = 0; i < m; ++i) {
      if (i % kCancelPollEdges == 0) SPARSIFY_CHECK_CANCELLED();
      const Edge& ed = g.CanonicalEdge(order[i]);
      const double bound = t_ * ed.w;
      if (dijkstra.Distance(h, ed.u, ed.v, bound) > bound) {
        keep[order[i]] = 1;
        h.Add(ed);
      }
    }
  }
  return std::make_unique<FixedMaskState>(std::move(keep));
}

RateMask TSpannerSparsifier::MaskForRate(const ScoreState& state,
                                         double prune_rate) const {
  (void)prune_rate;  // no control (Table 2)
  return {StateAs<FixedMaskState>(state, "t-Spanner").keep(), {}};
}

}  // namespace sparsify
