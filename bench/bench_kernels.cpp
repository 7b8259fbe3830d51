// Microbenchmarks for the performance kernel layer, tracking the perf
// trajectory PR-over-PR.  Self-contained (steady_clock wall time, warmup +
// median-of-N) so it needs no benchmark framework; emits BENCH_kernels.json
// for machine consumption alongside a human-readable table.
//
// Usage:
//   bench_kernels [--smoke] [--out <path>]
//     --smoke   reduced sizes / repetitions (CI sanity run)
//     --out     JSON output path (default BENCH_kernels.json)
//
// Baselines marked "seed" are verbatim copies of the pre-optimisation
// kernels, so the recorded speedups always compare against the same code
// this PR replaced.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/provenance.hpp"
#include "ghost/accelerator.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"
#include "nn/transformer.hpp"

namespace {

using namespace lumos;

// ---------------------------------------------------------------------------
// Timing harness
// ---------------------------------------------------------------------------

struct BenchResult {
  std::string name;
  std::string detail;
  double median_ms = 0.0;
  // Optional baseline (pre-PR kernel) for a recorded speedup.
  std::string baseline;
  double baseline_median_ms = 0.0;
  bool has_baseline = false;

  [[nodiscard]] double speedup() const {
    return median_ms > 0.0 ? baseline_median_ms / median_ms : 0.0;
  }
};

double checksum_sink = 0.0;  // defeats whole-benchmark dead-code elimination

double median_ms_of(int repetitions, const std::function<double()>& run) {
  run();  // warmup (first-touch, allocation, branch training)
  run();
  std::vector<double> samples;
  samples.reserve(repetitions);
  for (int i = 0; i < repetitions; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    checksum_sink += run();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// ---------------------------------------------------------------------------
// Seed kernels (pre-PR implementations, kept verbatim for the baselines)
// ---------------------------------------------------------------------------

nn::Matrix seed_matmul(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix out(a.rows(), b.cols());
  // ikj loop order for cache-friendly access of `b` (the seed kernel).
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double av = a(i, k);
      if (av == 0.0) continue;
      const std::size_t n = b.cols();
      for (std::size_t j = 0; j < n; ++j) out(i, j) += av * b(k, j);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

std::vector<BenchResult> run_benches(bool smoke) {
  std::vector<BenchResult> results;
  const int reps = smoke ? 3 : 9;
  Rng rng(1);

  // ---- Dense matmul: blocked/parallel kernel vs seed ikj kernel ----
  {
    const std::size_t n = smoke ? 128 : 512;
    nn::Matrix a(n, n), b(n, n);
    a.fill_uniform(rng, -1.0, 1.0);
    b.fill_uniform(rng, -1.0, 1.0);
    BenchResult r;
    r.name = "matmul_" + std::to_string(n);
    r.detail = std::to_string(n) + "x" + std::to_string(n) + "x" + std::to_string(n) +
               " dense matmul";
    r.median_ms = median_ms_of(reps, [&] { return a.matmul(b)(0, 0); });
    r.baseline = "seed ikj matmul";
    r.baseline_median_ms = median_ms_of(reps, [&] { return seed_matmul(a, b)(0, 0); });
    r.has_baseline = true;
    results.push_back(r);
  }

  // ---- Transpose-free A B^T vs seed transpose + matmul ----
  {
    const std::size_t n = smoke ? 128 : 512;
    nn::Matrix a(n, n), bt(n, n);
    a.fill_uniform(rng, -1.0, 1.0);
    bt.fill_uniform(rng, -1.0, 1.0);
    BenchResult r;
    r.name = "matmul_nt_" + std::to_string(n);
    r.detail = "A * B^T without materialising the transpose";
    r.median_ms = median_ms_of(reps, [&] { return a.matmul_nt(bt)(0, 0); });
    r.baseline = "seed transpose + ikj matmul";
    r.baseline_median_ms =
        median_ms_of(reps, [&] { return seed_matmul(a, bt.transposed())(0, 0); });
    r.has_baseline = true;
    results.push_back(r);
  }

  // ---- Allocation-free matmul_into (steady-state buffer reuse) ----
  {
    const std::size_t n = smoke ? 128 : 256;
    nn::Matrix a(n, n), b(n, n), out;
    a.fill_uniform(rng, -1.0, 1.0);
    b.fill_uniform(rng, -1.0, 1.0);
    BenchResult r;
    r.name = "matmul_into_" + std::to_string(n);
    r.detail = "matmul into a reused output buffer";
    r.median_ms = median_ms_of(reps, [&] {
      a.matmul_into(b, out);
      return out(0, 0);
    });
    results.push_back(r);
  }

  // ---- Row-wise ops ----
  {
    const std::size_t n = smoke ? 256 : 2048;
    nn::Matrix m(n, n);
    m.fill_uniform(rng, -4.0, 4.0);
    BenchResult r;
    r.name = "softmax_rows_" + std::to_string(n);
    r.detail = std::to_string(n) + "x" + std::to_string(n) + " row-wise softmax";
    nn::Matrix scratch = m;
    r.median_ms = median_ms_of(reps, [&] {
      scratch = m;
      nn::softmax_rows(scratch);
      return scratch(0, 0);
    });
    results.push_back(r);
  }

  // ---- Transformer reference layer (scratch-buffer reuse path) ----
  {
    const auto config = smoke ? nn::tiny_transformer(32) : nn::bert_base(128);
    const auto weights = nn::TransformerWeights::random(config, 3);
    nn::Matrix x(config.seq_len, config.d_model);
    x.fill_uniform(rng, -1.0, 1.0);
    BenchResult r;
    r.name = std::string("transformer_layer_") + (smoke ? "tiny" : "bert_base");
    r.detail = "exact reference forward of one encoder layer";
    r.median_ms = median_ms_of(reps, [&] {
      return nn::reference_layer_forward(weights.layers[0], config, x)(0, 0);
    });
    results.push_back(r);
  }

  // ---- GHOST estimator: degree histogram vs per-node loop ----
  {
    const std::size_t scale = smoke ? 12 : 17;  // 2^17 = 131072 >= 100k nodes
    graph::GraphDataset ds;
    ds.name = "rmat-" + std::to_string(scale);
    ds.graph = graph::rmat(scale, 8, {}, 7);
    ds.feature_dim = 128;
    ds.class_count = 40;
    const ghost::GhostAccelerator acc(ghost::default_ghost_config());
    const auto model = gnn::graphsage_model();
    BenchResult r;
    r.name = "ghost_estimate_rmat" + std::to_string(scale);
    r.detail = std::to_string(ds.graph.node_count()) + "-node RMAT, " +
               std::to_string(ds.graph.degree_histogram().size()) + " distinct degrees";
    r.median_ms = median_ms_of(reps, [&] {
      return acc.estimate(model, ds, 1, ghost::AggregateCosting::kDegreeHistogram).latency_s;
    });
    r.baseline = "per-node aggregate loop + per-layer map partitioning";
    r.baseline_median_ms = median_ms_of(smoke ? 2 : 3, [&] {
      return acc.estimate(model, ds, 1, ghost::AggregateCosting::kPerNodeReference).latency_s;
    });
    r.has_baseline = true;
    results.push_back(r);

    // ---- Buffer-and-partition tiling: bitset count vs map-based ----
    BenchResult p;
    p.name = "partition_rmat" + std::to_string(scale);
    p.detail = std::to_string(ds.graph.edge_count()) + " edges tiled";
    p.median_ms = median_ms_of(reps, [&] {
      return static_cast<double>(graph::tile_count(ds.graph, {16, 2048}));
    });
    p.baseline = "seed map-based tiling";
    p.baseline_median_ms = median_ms_of(smoke ? 2 : 3, [&] {
      return static_cast<double>(
          graph::partition_reference(ds.graph, {16, 2048}).tiles.size());
    });
    p.has_baseline = true;
    results.push_back(p);
  }

  return results;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

bool write_json(const std::vector<BenchResult>& results, const std::string& path,
                bool smoke) {
  std::ofstream f(path);
  const std::size_t threads = ThreadPool::global().thread_count();
  JsonWriter w(f);
  w.begin_object().field("bench", "kernels");
  write_provenance(w, threads);
  w.field("smoke", smoke).field("threads", threads).begin_array("results");
  for (const BenchResult& r : results) {
    w.begin_object()
        .field("name", r.name)
        .field("detail", r.detail)
        .field("median_ms", r.median_ms);
    if (r.has_baseline) {
      w.field("baseline", r.baseline)
          .field("baseline_median_ms", r.baseline_median_ms)
          .field("speedup", r.speedup());
    }
    w.end();
  }
  w.end().end();
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <path>]\n", argv[0]);
      return 2;
    }
  }

  const std::vector<BenchResult> results = run_benches(smoke);

  std::printf("%-26s %12s %12s %9s  %s\n", "kernel", "median ms", "baseline ms", "speedup",
              "baseline");
  for (const BenchResult& r : results) {
    if (r.has_baseline) {
      std::printf("%-26s %12.3f %12.3f %8.2fx  %s\n", r.name.c_str(), r.median_ms,
                  r.baseline_median_ms, r.speedup(), r.baseline.c_str());
    } else {
      std::printf("%-26s %12.3f %12s %9s\n", r.name.c_str(), r.median_ms, "-", "-");
    }
  }

  if (!write_json(results, out_path, smoke)) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (checksum %g)\n", out_path.c_str(), checksum_sink);
  return 0;
}
