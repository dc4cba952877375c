// The paper's headline artifact: the full N-to-N evaluation — every
// sparsifier x every (cheap-to-moderate) metric x every dataset, swept over
// prune rates 0.1..0.9 (paper section 4: "over 30,000 data points").
//
// At the default scale this produces the complete matrix in minutes on a
// laptop; the heavyweight metrics that have dedicated figure benches
// (betweenness, GNNs, max-flow) are excluded here so the matrix stays
// tractable — run their binaries for those columns.
//
//   --scale=f     dataset scale (default 0.15 for the full matrix)
//   --runs=n      runs per non-deterministic sparsifier (default 1;
//                 the paper protocol uses 10)
//   --threads=n   worker threads for the batch engine (default: hardware
//                 concurrency; output is identical at any thread count)
//   --datasets=a,b  restrict datasets; --metrics=x,y restrict metrics
//   --outdir=dir  also write one CSV per (dataset, metric) to dir
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "bench/bench_common.h"
#include "src/engine/batch_runner.h"
#include "src/engine/resumable_sweep.h"
#include "src/metrics/basic.h"
#include "src/metrics/centrality.h"
#include "src/metrics/clustering.h"
#include "src/metrics/components.h"
#include "src/metrics/distance.h"
#include "src/metrics/louvain.h"
#include "src/util/timer.h"

namespace sparsify {
namespace {

const std::map<std::string, MetricFn>& MatrixMetrics() {
  static const std::map<std::string, MetricFn> metrics = {
      {"unreachable_ratio",
       [](const Graph&, const Graph& h, Rng&) {
         return UnreachableRatio(h);
       }},
      {"isolated_ratio",
       [](const Graph&, const Graph& h, Rng&) { return IsolatedRatio(h); }},
      {"degree_distance",
       [](const Graph& g, const Graph& h, Rng&) {
         return DegreeDistributionDistance(g, h);
       }},
      {"quadratic_form",
       [](const Graph& g, const Graph& h, Rng& rng) {
         return QuadraticFormSimilarity(g, h, 30, rng);
       }},
      {"spsp_stretch",
       [](const Graph& g, const Graph& h, Rng& rng) {
         return SpspStretch(g, h, 600, rng).mean_stretch;
       }},
      {"pagerank_top100",
       [](const Graph& g, const Graph& h, Rng&) {
         return TopKPrecision(PageRank(g), PageRank(h), 100);
       }},
      {"eigenvector_top100",
       [](const Graph& g, const Graph& h, Rng&) {
         return TopKPrecision(EigenvectorCentrality(g),
                              EigenvectorCentrality(h), 100);
       }},
      {"katz_top100",
       [](const Graph& g, const Graph& h, Rng&) {
         return TopKPrecision(KatzCentrality(g), KatzCentrality(h), 100);
       }},
      {"num_communities",
       [](const Graph&, const Graph& h, Rng& rng) {
         return static_cast<double>(
             LouvainCommunities(h, rng).num_clusters);
       }},
      {"mcc",
       [](const Graph&, const Graph& h, Rng&) {
         return MeanClusteringCoefficient(h);
       }},
  };
  return metrics;
}

using bench::SplitCsvFlag;

void Run(int argc, char** argv) {
  double scale = 0.15;
  int runs = 1;
  int threads = 0;  // 0 = hardware concurrency
  std::string outdir;
  std::vector<std::string> datasets = DatasetNames();
  std::vector<std::string> metric_names;
  for (const auto& [name, fn] : MatrixMetrics()) metric_names.push_back(name);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      scale = bench::ParseDoubleFlag(arg.c_str() + 8, "--scale");
    } else if (arg.rfind("--runs=", 0) == 0) {
      runs = static_cast<int>(bench::ParseIntFlag(arg.c_str() + 7, "--runs"));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<int>(
          bench::ParseIntFlag(arg.c_str() + 10, "--threads"));
    } else if (arg.rfind("--outdir=", 0) == 0) {
      outdir = arg.substr(9);
    } else if (arg.rfind("--datasets=", 0) == 0) {
      datasets = SplitCsvFlag(arg.substr(11));
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metric_names = SplitCsvFlag(arg.substr(10));
    } else if (arg == "--help") {
      std::cout << "usage: bench_full_matrix [--scale=f] [--runs=n] "
                   "[--threads=n] [--outdir=dir] [--datasets=a,b] "
                   "[--metrics=x,y]\n";
      std::exit(0);
    } else {
      // A typo like --thread=8 must abort, not silently run the defaults.
      std::cerr << "error: unknown option '" << arg << "'\n"
                << "usage: bench_full_matrix [--scale=f] [--runs=n] "
                   "[--threads=n] [--outdir=dir] [--datasets=a,b] "
                   "[--metrics=x,y]\n";
      std::exit(2);
    }
  }
  if (!outdir.empty()) std::filesystem::create_directories(outdir);

  // One engine (and thread pool) shared across every dataset's sweep;
  // identity-derived seeding keeps output identical at any --threads value.
  BatchRunner runner(threads);
  std::vector<SweepMetric> metrics;
  for (const std::string& metric_name : metric_names) {
    metrics.push_back(
        SweepMetric{metric_name, MatrixMetrics().at(metric_name)});
  }
  SweepConfig config;
  config.runs_nondeterministic = runs;

  Timer total;
  size_t data_points = 0;
  std::cout << "# Full N-to-N matrix: " << datasets.size() << " datasets x "
            << metric_names.size() << " metrics x "
            << SparsifierNames().size() << " sparsifiers ("
            << runner.NumThreads() << " threads)\n";
  std::cout << "dataset,metric,sparsifier,prune_rate,achieved_prune_rate,"
               "value,stddev,runs\n";
  for (const std::string& dataset_name : datasets) {
    Dataset d = LoadDatasetScaled(dataset_name, scale);
    // One multi-metric sweep per dataset: each subgraph is built once and
    // every selected metric evaluated on it.
    std::vector<MetricSweepSeries> per_metric =
        ResumableSweep(runner, nullptr)
            .RunMulti(d.graph, cli::DatasetCellName(dataset_name, scale),
                      metrics, config);
    for (const MetricSweepSeries& m : per_metric) {
      const std::string& metric_name = m.metric;
      std::ofstream csv;
      if (!outdir.empty()) {
        csv.open(outdir + "/" + dataset_name + "_" + metric_name + ".csv");
        csv << "sparsifier,prune_rate,achieved_prune_rate,value,stddev,"
               "runs\n";
      }
      for (const SweepSeries& s : m.series) {
        for (const SweepPoint& p : s.points) {
          ++data_points;
          std::cout << dataset_name << "," << metric_name << ","
                    << s.sparsifier << "," << p.requested_prune_rate << ","
                    << p.achieved_prune_rate << "," << p.mean << ","
                    << p.stddev << "," << p.runs << "\n";
          if (csv.is_open()) {
            csv << s.sparsifier << "," << p.requested_prune_rate << ","
                << p.achieved_prune_rate << "," << p.mean << "," << p.stddev
                << "," << p.runs << "\n";
          }
        }
      }
    }
    std::cerr << "done " << dataset_name << " (" << total.Seconds()
              << " s elapsed)\n";
  }
  std::cerr << "total: " << data_points << " data points in "
            << total.Seconds() << " s\n";
}

}  // namespace
}  // namespace sparsify

int main(int argc, char** argv) {
  sparsify::Run(argc, argv);
  return 0;
}
