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
  if (workload.kind() == WorkloadKind::kTransformer) {
    return model_.estimate_transformer(workload.transformer_config(), batch);
  }
  return model_.estimate_gnn(workload.gnn_model(), workload.dataset(), batch);
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
  // roofline's full-pass byte conventions).
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

double PlatformAdapter::static_power_w() const {
  return model_.spec().idle_power_fraction * model_.spec().board_power_w;
}

}  // namespace lumos::arch
