#include "baselines/platforms.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace lumos::baselines {

PlatformModel::PlatformModel(PlatformSpec spec) : spec_(std::move(spec)) {
  LUMOS_EXPECTS(spec_.peak_ops_per_s > 0.0);
  LUMOS_EXPECTS(spec_.memory_bandwidth_bps > 0.0);
  LUMOS_EXPECTS(spec_.board_power_w > 0.0);
  LUMOS_EXPECTS(spec_.transformer_utilization > 0.0 && spec_.transformer_utilization <= 1.0);
  LUMOS_EXPECTS(spec_.gnn_utilization > 0.0 && spec_.gnn_utilization <= 1.0);
  LUMOS_EXPECTS(spec_.streaming_bw_efficiency > 0.0 && spec_.streaming_bw_efficiency <= 1.0);
  LUMOS_EXPECTS(spec_.random_bw_efficiency > 0.0 && spec_.random_bw_efficiency <= 1.0);
}

PerfReport PlatformModel::estimate(const std::string& workload, std::size_t op_count,
                                   double bytes_moved, WorkloadClass cls) const {
  const bool transformer = cls == WorkloadClass::kTransformer;
  const double util = transformer ? spec_.transformer_utilization : spec_.gnn_utilization;
  const double bw_eff = transformer ? spec_.streaming_bw_efficiency
                                    : spec_.random_bw_efficiency;
  const double overhead = transformer ? spec_.transformer_overhead_s : spec_.gnn_overhead_s;

  PerfReport r;
  r.workload = workload;
  r.platform = spec_.name;
  r.op_count = op_count;
  r.bits = spec_.bits;
  const double compute_s = static_cast<double>(op_count) / (spec_.peak_ops_per_s * util);
  const double memory_s = bytes_moved / (spec_.memory_bandwidth_bps * bw_eff);
  r.latency_s = std::max(compute_s, memory_s) + overhead;
  r.breakdown.matmul_time_s = compute_s;
  r.breakdown.memory_stall_s = std::max(0.0, memory_s - compute_s);
  // Active power = idle floor + activity-proportional remainder.
  const double busy = std::max(compute_s, memory_s);
  const double activity = r.latency_s > 0.0 ? busy / r.latency_s : 0.0;
  const double power =
      spec_.board_power_w * (spec_.idle_power_fraction +
                             (1.0 - spec_.idle_power_fraction) * activity);
  r.static_power_w = spec_.board_power_w * spec_.idle_power_fraction;
  r.total_energy_j = power * r.latency_s;
  r.static_energy_j = r.static_power_w * r.latency_s;
  r.dynamic_energy_j = r.total_energy_j - r.static_energy_j;
  return r;
}

PerfReport PlatformModel::estimate_transformer(const nn::TransformerConfig& model,
                                               std::size_t batch) const {
  LUMOS_EXPECTS(batch >= 1);
  // Bytes: weights once + activations per layer (several reads/writes each)
  // and per inference.
  const double weight_bytes = static_cast<double>(model.parameter_count());
  const double act_bytes = static_cast<double>(model.layers) *
                           static_cast<double>(model.seq_len) *
                           static_cast<double>(model.d_model) * 4.0;
  return estimate(model.name, model.op_count() * batch,
                  weight_bytes + act_bytes * static_cast<double>(batch),
                  WorkloadClass::kTransformer);
}

PerfReport PlatformModel::estimate_gnn(const gnn::GnnModelConfig& model,
                                       const graph::GraphDataset& dataset,
                                       std::size_t batch) const {
  LUMOS_EXPECTS(batch >= 1);
  // Irregular gathers: every edge re-fetches its neighbour's feature vector
  // (caches are ineffective at citation-graph reuse distances) in every
  // inference, plus weights once.
  const double bd = static_cast<double>(batch);
  double bytes = 0.0;
  for (const gnn::GnnLayerConfig& l : model.layers_for(dataset)) {
    bytes += static_cast<double>(dataset.graph.edge_count()) * static_cast<double>(l.in_dim) * bd;
    bytes += static_cast<double>(dataset.graph.node_count()) * static_cast<double>(l.in_dim) * bd;
    bytes += static_cast<double>(l.in_dim) * static_cast<double>(l.out_dim);
  }
  return estimate(model.name + "/" + dataset.name, gnn::model_op_count(model, dataset) * batch,
                  bytes, WorkloadClass::kGnn);
}

// ---------------------------------------------------------------------------
// LLM comparison set (paper Figs. 8-9).  Operating points use datasheet peaks
// with effective utilisations / overheads consistent with measured batch-1
// transformer inference on each platform class; EXPERIMENTS.md records the
// calibration rationale.
// ---------------------------------------------------------------------------

PlatformModel xeon_cpu() {
  PlatformSpec s{"Xeon CPU", 3.0e12, 130e9, 150.0, 0.45, 0.08, 0.008};
  s.transformer_overhead_s = 2e-3;   // framework / thread-pool dispatch
  s.gnn_overhead_s = 2e-3;           // sparse kernels, per-layer passes
  return PlatformModel(s);
}

PlatformModel v100_gpu() {
  // V100-SXM2: 62.4 TOPS int8 tensor cores, 900 GB/s HBM2, 300 W; ~7% of
  // peak on batch-1 attention (measured BERT-base latencies are ~5 ms).
  PlatformSpec s{"V100 GPU", 62.4e12, 900e9, 300.0, 0.35, 0.07, 0.004};
  s.transformer_overhead_s = 300e-6;
  s.gnn_overhead_s = 1.2e-3;  // sparse kernel launches dominate small graphs
  return PlatformModel(s);
}

PlatformModel tpu_v2() {
  // TPU v2: 45 TFLOPS bf16 (~90 TOPS int8-equivalent), 600 GB/s, 280 W;
  // systolic fill/drain limits batch-1 attention to a few percent of peak.
  PlatformSpec s{"TPU v2", 90.0e12, 600e9, 280.0, 0.30, 0.05, 0.004};
  s.transformer_overhead_s = 500e-6;
  s.gnn_overhead_s = 2e-3;
  return PlatformModel(s);
}

PlatformModel transpim() {
  // TransPIM (HPCA'22): HBM PIM with token-based dataflow; the strongest
  // electronic baseline in the paper's comparison.
  PlatformSpec s{"TransPIM", 20.0e12, 1024e9, 50.0, 0.25, 0.35, 0.10};
  s.transformer_overhead_s = 50e-6;
  s.gnn_overhead_s = 100e-6;
  return PlatformModel(s);
}

PlatformModel fpga_acc1() {
  // SOCC'20 MHA+FF accelerator (Xilinx VU13P): ~1 TOPS effective, 25 W.
  PlatformSpec s{"FPGA_Acc1", 1.5e12, 77e9, 25.0, 0.30, 0.70, 0.15};
  s.transformer_overhead_s = 100e-6;
  s.gnn_overhead_s = 200e-6;
  return PlatformModel(s);
}

PlatformModel vaqf() {
  // VAQF (low-bit ViT on FPGA): ~2.5 TOPS equivalent, 20 W.
  PlatformSpec s{"VAQF", 2.5e12, 77e9, 20.0, 0.30, 0.70, 0.15};
  s.transformer_overhead_s = 100e-6;
  s.gnn_overhead_s = 200e-6;
  return PlatformModel(s);
}

PlatformModel fpga_acc2() {
  // ICCAD'21 co-optimised transformer framework (Alveo U200): ~3 TOPS, 45 W.
  PlatformSpec s{"FPGA_Acc2", 3.0e12, 77e9, 45.0, 0.30, 0.70, 0.15};
  s.transformer_overhead_s = 100e-6;
  s.gnn_overhead_s = 200e-6;
  return PlatformModel(s);
}

std::vector<PlatformModel> llm_baselines() {
  return {xeon_cpu(), v100_gpu(), tpu_v2(),   transpim(),
          fpga_acc1(), vaqf(),    fpga_acc2()};
}

// ---------------------------------------------------------------------------
// GNN comparison set (paper Figs. 10-11).  Citation graphs are tiny, so every
// electronic platform is dominated by per-layer dispatch and irregular-gather
// inefficiency — consistent with the measured GCN latencies (hundreds of
// microseconds to milliseconds) reported by the cited accelerator papers.
// ---------------------------------------------------------------------------

PlatformModel a100_gpu() {
  PlatformSpec s{"A100 GPU", 624e12, 1555e9, 400.0, 0.35, 0.08, 0.002};
  s.transformer_overhead_s = 250e-6;
  s.gnn_overhead_s = 1e-3;
  return PlatformModel(s);
}

PlatformModel tpu_v4() {
  PlatformSpec s{"TPU v4", 275e12, 1200e9, 192.0, 0.30, 0.06, 0.004};
  s.transformer_overhead_s = 400e-6;
  s.gnn_overhead_s = 1.5e-3;
  return PlatformModel(s);
}

PlatformModel grip() {
  // GRIP (IEEE TC'22): dedicated GNN pipeline, ~5 W.
  PlatformSpec s{"GRIP", 1.0e12, 128e9, 5.0, 0.25, 0.50, 0.40};
  s.gnn_overhead_s = 60e-6;
  return PlatformModel(s);
}

PlatformModel hygcn() {
  // HyGCN (HPCA'20): hybrid aggregation/combination engines, 6.7 W.
  PlatformSpec s{"HyGCN", 8.0e12, 256e9, 6.7, 0.25, 0.50, 0.06};
  s.gnn_overhead_s = 80e-6;
  return PlatformModel(s);
}

PlatformModel engn() {
  // EnGN (arXiv'19): clustered PEs with ring-edge-reduce dataflow, 10 W.
  PlatformSpec s{"EnGN", 6.0e12, 256e9, 10.0, 0.25, 0.50, 0.06};
  s.gnn_overhead_s = 80e-6;
  return PlatformModel(s);
}

PlatformModel hw_acc() {
  // DAC'19 GNN accelerator (Auten et al.): ~3 W prototype.
  PlatformSpec s{"HW_ACC", 0.75e12, 64e9, 3.0, 0.25, 0.50, 0.25};
  s.gnn_overhead_s = 100e-6;
  return PlatformModel(s);
}

PlatformModel regnn() {
  // ReGNN (DAC'22): ReRAM PIM for general GNNs; best electronic baseline.
  // The per-inference overhead covers ReRAM crossbar programming setup.
  PlatformSpec s{"ReGNN", 18.0e12, 512e9, 12.0, 0.20, 0.55, 0.10};
  s.gnn_overhead_s = 130e-6;
  return PlatformModel(s);
}

PlatformModel regraphx() {
  // ReGraphX (DATE'21): 3D ReRAM + NoC, training-oriented, 18 W.
  PlatformSpec s{"ReGraphX", 14.0e12, 512e9, 18.0, 0.20, 0.55, 0.08};
  s.gnn_overhead_s = 80e-6;
  return PlatformModel(s);
}

std::vector<PlatformModel> gnn_baselines() {
  return {grip(),  hygcn(),    engn(),  hw_acc(), regnn(),
          regraphx(), tpu_v4(), xeon_cpu(), a100_gpu()};
}

}  // namespace lumos::baselines
