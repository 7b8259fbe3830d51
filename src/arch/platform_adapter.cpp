#include "arch/platform_adapter.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "nn/transformer.hpp"

namespace lumos::arch {

namespace {

SpecInfo default_info(const baselines::PlatformModel& model) {
  return SpecInfo{model.spec().name, "ELECTRONIC", WorkloadKind::kTransformer};
}

}  // namespace

PlatformAdapter::PlatformAdapter(baselines::PlatformModel model)
    : info_(default_info(model)), model_(std::move(model)) {}

PlatformAdapter::PlatformAdapter(baselines::PlatformModel model, SpecInfo info)
    : info_(std::move(info)), model_(std::move(model)) {}

PerfReport PlatformAdapter::estimate(const Workload& workload, std::size_t batch) const {
  LUMOS_EXPECTS(batch >= 1);
  if (batch == 1) {
    // Bit-identical delegation: the adapter adds nothing to the roofline.
    if (workload.kind() == WorkloadKind::kTransformer) {
      return model_.estimate_transformer(workload.transformer_config());
    }
    return model_.estimate_gnn(workload.gnn_model(), workload.dataset());
  }
  if (workload.kind() == WorkloadKind::kTransformer) {
    // Weights stream once for the whole batch; activations scale per pass.
    const nn::TransformerConfig& model = workload.transformer_config();
    const double weight_bytes = static_cast<double>(model.parameter_count());
    const double act_bytes = static_cast<double>(model.layers) *
                             static_cast<double>(model.seq_len) *
                             static_cast<double>(model.d_model) * 4.0;
    return model_.estimate(model.name, model.op_count() * batch,
                           weight_bytes + act_bytes * static_cast<double>(batch),
                           baselines::WorkloadClass::kTransformer);
  }
  // GNN: the per-edge/per-node gather traffic repeats per inference; the
  // layer weights amortise across the batch.
  const gnn::GnnModelConfig& model = workload.gnn_model();
  const graph::GraphDataset& dataset = workload.dataset();
  double bytes = 0.0;
  for (const gnn::GnnLayerConfig& l : model.layers_for(dataset)) {
    bytes += static_cast<double>(dataset.graph.edge_count()) *
             static_cast<double>(l.in_dim) * static_cast<double>(batch);
    bytes += static_cast<double>(dataset.graph.node_count()) *
             static_cast<double>(l.in_dim) * static_cast<double>(batch);
    bytes += static_cast<double>(l.in_dim) * static_cast<double>(l.out_dim);
  }
  return model_.estimate(model.name + "/" + dataset.name,
                         gnn::model_op_count(model, dataset) * batch, bytes,
                         baselines::WorkloadClass::kGnn);
}

PerfReport PlatformAdapter::estimate_decode_step(const Workload& workload,
                                                 std::size_t batch,
                                                 std::size_t context_len) const {
  if (workload.kind() != WorkloadKind::kTransformer) {
    throw InvalidArgument("accelerator spec '" + info_.name +
                          "' cannot decode workload '" + workload.name() +
                          "': autoregressive decoding needs a transformer workload");
  }
  LUMOS_EXPECTS(batch >= 1);
  LUMOS_EXPECTS(context_len >= 1);
  const nn::TransformerConfig& model = workload.transformer_config();
  // One token per lane: compute scales with the batch, the weight re-stream
  // is paid once per step, and each lane reads its own K/V cache at the
  // current context (int8 operands: one byte per parameter, matching the
  // full-pass byte conventions above).
  const std::size_t ops = 2 * nn::generation_step_macs(model, context_len) * batch;
  const double weight_bytes = static_cast<double>(model.parameter_count());
  const double kv_bytes = 2.0 * static_cast<double>(model.layers) *
                          static_cast<double>(context_len) *
                          static_cast<double>(model.d_model) *
                          static_cast<double>(batch);
  return model_.estimate(model.name + " (decode step @" + std::to_string(context_len) + ")",
                         ops, weight_bytes + kv_bytes,
                         baselines::WorkloadClass::kTransformer);
}

PerfReport PlatformAdapter::estimate_generation(const Workload& workload,
                                                std::size_t prompt_len,
                                                std::size_t generated_tokens) const {
  LUMOS_EXPECTS(prompt_len >= 1);
  LUMOS_EXPECTS(generated_tokens >= 1);
  const nn::TransformerConfig& model = workload.transformer_config();
  PerfReport r;
  r.workload = model.name + " (generate " + std::to_string(generated_tokens) + ")";
  r.platform = model_.spec().name;
  r.bits = model_.spec().bits;
  r.static_power_w = static_power_w();
  for (std::size_t t = 0; t < generated_tokens; ++t) {
    const PerfReport step = estimate_decode_step(workload, 1, prompt_len + t);
    r.latency_s += step.latency_s;
    r.dynamic_energy_j += step.dynamic_energy_j;
    r.static_energy_j += step.static_energy_j;
    r.total_energy_j += step.total_energy_j;
    r.op_count += step.op_count;
    r.breakdown.matmul_time_s += step.breakdown.matmul_time_s;
    r.breakdown.memory_stall_s += step.breakdown.memory_stall_s;
  }
  return r;
}

double PlatformAdapter::static_power_w() const {
  return model_.spec().idle_power_fraction * model_.spec().board_power_w;
}

}  // namespace lumos::arch
