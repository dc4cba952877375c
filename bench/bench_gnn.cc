// Regenerates paper Figure 13: (a) GraphSAGE AUROC on the ogbn-proteins
// stand-in and (b) ClusterGCN accuracy on the Reddit stand-in. The protocol
// is the paper's: TRAIN on the sparsified graph, TEST on the full graph.
// The green reference line is the full-graph-trained model; the red line is
// the empty-graph (MLP-only) model.
//
// Expected shape (paper section 4.5): RN and LSim lead GraphSAGE; GS and
// SCAN do well on ClusterGCN; LD and RD consistently under-perform both
// models (hub edges are not what message passing needs).
#include "bench/bench_common.h"
#include "src/gnn/data.h"
#include "src/gnn/models.h"
#include "src/metrics/louvain.h"

namespace sparsify {
namespace {

constexpr int kFeatureDim = 16;
constexpr int kHiddenDim = 16;
constexpr int kEpochs = 60;

double TrainSageAndScore(const Graph& train_graph, const Graph& full_graph,
                         const NodeClassificationData& data, bool auroc,
                         Rng& rng) {
  GraphSage model(kFeatureDim, kHiddenDim, data.num_classes, rng, 5e-2);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    model.TrainEpoch(train_graph, data.features, data.labels,
                     data.train_rows);
  }
  Matrix logits = model.Forward(full_graph, data.features);
  if (auroc) return MacroAuroc(logits, data.labels, data.test_rows);
  return Accuracy(ArgmaxRows(logits), data.labels, data.test_rows);
}

double TrainClusterGcnAndScore(const Graph& train_graph,
                               const Graph& full_graph,
                               const NodeClassificationData& data, Rng& rng) {
  Rng louvain_rng = rng.Fork();
  Clustering clusters = LouvainCommunities(train_graph, louvain_rng);
  auto batches = MakeClusterBatches(
      clusters.label, std::max<size_t>(64, train_graph.NumVertices() / 8));
  ClusterGcn model(kFeatureDim, kHiddenDim, data.num_classes, rng, 5e-2);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    model.TrainEpoch(train_graph, data.features, data.labels,
                     data.train_rows, batches);
  }
  Matrix logits = model.Forward(full_graph, data.features);
  return Accuracy(ArgmaxRows(logits), data.labels, data.test_rows);
}

void Run(int argc, char** argv) {
  bench::BenchOptions opt =
      bench::ParseOptions(argc, argv, bench::kAllBenchFlags, 0.35, 2);

  {
    Dataset d = LoadDatasetScaled("ogbn-proteins", opt.scale);
    std::cout << "Dataset: " << d.info.name << " (" << d.graph.Summary()
              << ")\n\n";
    Rng data_rng(41);
    NodeClassificationData data = MakeNodeClassificationData(
        d.communities, 8, kFeatureDim, 1.4, 0.5, data_rng);
    Rng full_rng(42);
    double full_line =
        TrainSageAndScore(d.graph, d.graph, data, /*auroc=*/true, full_rng);
    Graph empty = Graph::FromEdges(d.graph.NumVertices(), {}, false, false);
    Rng empty_rng(43);
    double empty_line =
        TrainSageAndScore(empty, empty, data, /*auroc=*/true, empty_rng);
    std::cout << "(red line, MLP only / empty graph: " << empty_line
              << ")\n";
    const Graph& full = d.graph;
    bench::RunFigure(
        "Figure 13a: GraphSAGE AUROC on ogbn-proteins "
        "(train sparsified, test full)",
        "AUROC", d, {"RN", "LD", "RD", "GS", "LSim", "SCAN"}, opt,
        [&data, &full](const Graph&, const Graph& sparsified, Rng& rng) {
          return TrainSageAndScore(sparsified, full, data, /*auroc=*/true,
                                   rng);
        },
        full_line, {0.1, 0.3, 0.5, 0.7, 0.9});
  }

  {
    Dataset d = LoadDatasetScaled("Reddit", opt.scale);
    std::cout << "Dataset: " << d.info.name << " (" << d.graph.Summary()
              << ")\n\n";
    Rng data_rng(44);
    // Higher feature noise than 13a: Reddit's stand-in communities are
    // dense enough that the task saturates otherwise.
    NodeClassificationData data = MakeNodeClassificationData(
        d.communities, 8, kFeatureDim, 2.2, 0.5, data_rng);
    Rng full_rng(45);
    double full_line = TrainClusterGcnAndScore(d.graph, d.graph, data,
                                               full_rng);
    Graph empty = Graph::FromEdges(d.graph.NumVertices(), {}, false, false);
    Rng empty_rng(46);
    double empty_line =
        TrainClusterGcnAndScore(empty, empty, data, empty_rng);
    std::cout << "(red line, MLP only / empty graph: " << empty_line
              << ")\n";
    const Graph& full = d.graph;
    bench::RunFigure(
        "Figure 13b: ClusterGCN Accuracy on Reddit "
        "(train sparsified, test full)",
        "acc", d, {"RN", "LD", "RD", "FF", "GS", "SCAN"}, opt,
        [&data, &full](const Graph&, const Graph& sparsified, Rng& rng) {
          return TrainClusterGcnAndScore(sparsified, full, data, rng);
        },
        full_line, {0.1, 0.3, 0.5, 0.7, 0.9});
  }
}

}  // namespace
}  // namespace sparsify

int main(int argc, char** argv) {
  try {
    sparsify::Run(argc, argv);
  } catch (const std::exception& e) {
    // E.g. --scale=-1, which LoadDatasetScaled rejects.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
