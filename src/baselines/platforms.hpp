// Electronic comparison platforms (paper Section VI).
//
// The paper compares TRON against Tesla V100-SXM2, TPU v2, Intel Xeon,
// TransPIM [10], FPGA_Acc1 [13], VAQF [33], and FPGA_Acc2 [14]; and GHOST
// against GRIP [19], HyGCN [18], EnGN [17], HW_ACC [16], ReGNN [20],
// ReGraphX [21], TPU v4, Intel Xeon, and NVIDIA A100.  Exactly as the paper
// does, we "utilize reported power, latency, and energy values for the chosen
// accelerators" — each platform is a roofline-style analytic model whose
// operating point (effective int8 throughput at a given utilisation, memory
// bandwidth, board power) comes from the published datasheet/paper numbers.
//
// `estimate()` produces the same PerfReport the photonic accelerators emit,
// so the figure benches can tabulate EPB and GOPS uniformly.
#pragma once

#include <string>
#include <vector>

#include "common/perf.hpp"
#include "gnn/models.hpp"
#include "graph/generators.hpp"
#include "nn/transformer.hpp"

namespace lumos::baselines {

// Which workload family a utilisation figure applies to.  Dense transformer
// kernels utilise wide units well; sparse GNN aggregation does not.
enum class WorkloadClass { kTransformer, kGnn };

struct PlatformSpec {
  std::string name;
  double peak_ops_per_s = 0.0;        // int8-equivalent peak
  double memory_bandwidth_bps = 0.0;  // bytes/s, peak
  double board_power_w = 0.0;         // TDP / reported board power
  double idle_power_fraction = 0.35;  // fraction of TDP drawn regardless
  double transformer_utilization = 0.10;  // fraction of peak on dense attention
  double gnn_utilization = 0.03;          // fraction of peak on sparse aggregation
  // Fraction of peak bandwidth sustained on streaming (dense) vs gather
  // (sparse, DRAM-row-thrashing) access patterns.
  double streaming_bw_efficiency = 0.75;
  double random_bw_efficiency = 0.30;
  // Per-inference fixed cost (kernel launches, graph preprocessing, host
  // round-trips) — dominant on small graphs, as every measured GNN study
  // shows for citation networks.
  double transformer_overhead_s = 0.0;
  double gnn_overhead_s = 0.0;
  int bits = 8;
};

class PlatformModel {
 public:
  explicit PlatformModel(PlatformSpec spec);

  // Latency/energy for a workload of `op_count` operations touching
  // `bytes_moved` of memory, under `cls` utilisation.
  [[nodiscard]] PerfReport estimate(const std::string& workload, std::size_t op_count,
                                    double bytes_moved, WorkloadClass cls) const;

  // `batch` inferences price as one pass: the weights stream once, while the
  // ops and the activation or gather traffic count per inference.
  //
  // Transformer inference: ops from the model config; bytes = parameters +
  // activations streamed per pass.
  [[nodiscard]] PerfReport estimate_transformer(const nn::TransformerConfig& model,
                                                std::size_t batch = 1) const;

  // GNN inference: ops from the model/dataset; bytes = features re-fetched
  // per edge (electronic platforms suffer the irregular access pattern) +
  // weights.
  [[nodiscard]] PerfReport estimate_gnn(const gnn::GnnModelConfig& model,
                                        const graph::GraphDataset& dataset,
                                        std::size_t batch = 1) const;

  [[nodiscard]] const PlatformSpec& spec() const noexcept { return spec_; }

 private:
  PlatformSpec spec_;
};

// ---- LLM comparison set (paper Figs. 8-9) ----------------------------------
[[nodiscard]] PlatformModel xeon_cpu();
[[nodiscard]] PlatformModel v100_gpu();
[[nodiscard]] PlatformModel tpu_v2();
[[nodiscard]] PlatformModel transpim();
[[nodiscard]] PlatformModel fpga_acc1();
[[nodiscard]] PlatformModel vaqf();
[[nodiscard]] PlatformModel fpga_acc2();
[[nodiscard]] std::vector<PlatformModel> llm_baselines();

// ---- GNN comparison set (paper Figs. 10-11) ---------------------------------
[[nodiscard]] PlatformModel a100_gpu();
[[nodiscard]] PlatformModel tpu_v4();
[[nodiscard]] PlatformModel grip();
[[nodiscard]] PlatformModel hygcn();
[[nodiscard]] PlatformModel engn();
[[nodiscard]] PlatformModel hw_acc();
[[nodiscard]] PlatformModel regnn();
[[nodiscard]] PlatformModel regraphx();
[[nodiscard]] std::vector<PlatformModel> gnn_baselines();

}  // namespace lumos::baselines
