#include "arch/accelerator.hpp"

#include <string>

#include "common/error.hpp"

namespace lumos::arch {

std::vector<BreakdownEntry> breakdown_entries(const PerfReport& report) {
  const PerfBreakdown& b = report.breakdown;
  return {
      {"matmul", b.matmul_time_s, b.laser_dac_adc_energy_j},
      {"partial-sum", 0.0, b.partial_sum_energy_j},
      {"softmax", b.softmax_time_s, b.softmax_energy_j},
      {"elementwise", b.elementwise_time_s, b.elementwise_energy_j},
      {"aggregation", b.aggregation_time_s, b.aggregation_energy_j},
      {"sram", 0.0, b.sram_energy_j},
      {"dram", b.memory_stall_s, b.dram_energy_j},
  };
}

void Accelerator::require_serveable(const Workload& workload) const {
  if (!can_serve(workload)) {
    throw InvalidArgument("accelerator '" + spec().name + "' (" + spec().family +
                          ") cannot serve " + workload_kind_name(workload.kind()) +
                          " workload '" + workload.name() + "'");
  }
}

PerfReport Accelerator::estimate_decode_step(const Workload& workload, std::size_t batch,
                                             std::size_t context_len) const {
  (void)batch;
  (void)context_len;
  throw InvalidArgument("accelerator '" + spec().name + "' (" + spec().family +
                        ") has no autoregressive decode path for workload '" +
                        workload.name() + "'");
}

PerfReport Accelerator::estimate_generation(const Workload& workload, std::size_t prompt_len,
                                            std::size_t tokens) const {
  LUMOS_EXPECTS(prompt_len >= 1);
  LUMOS_EXPECTS(tokens >= 1);
  PerfReport r = estimate_decode_step(workload, 1, prompt_len);
  r.workload = workload.name() + " (generate " + std::to_string(tokens) + ")";
  for (std::size_t t = 1; t < tokens; ++t) {
    const PerfReport step = estimate_decode_step(workload, 1, prompt_len + t);
    r.latency_s += step.latency_s;
    r.dynamic_energy_j += step.dynamic_energy_j;
    r.static_energy_j += step.static_energy_j;
    r.total_energy_j += step.total_energy_j;
    r.op_count += step.op_count;
    r.breakdown.add(step.breakdown);
  }
  return r;
}

TronAdapter::TronAdapter(const tron::TronConfig& config, SpecInfo info)
    : info_(std::move(info)), device_(config) {}

PerfReport TronAdapter::estimate(const Workload& workload, std::size_t batch) const {
  require_serveable(workload);
  return device_.estimate(workload.transformer_config(), batch);
}

PerfReport TronAdapter::estimate_decode_step(const Workload& workload, std::size_t batch,
                                             std::size_t context_len) const {
  require_serveable(workload);
  return device_.estimate_decode_step(workload.transformer_config(), batch, context_len);
}

double TronAdapter::static_power_w() const { return device_.static_power_w(); }

GhostAdapter::GhostAdapter(const ghost::GhostConfig& config, SpecInfo info)
    : info_(std::move(info)), device_(config) {}

PerfReport GhostAdapter::estimate(const Workload& workload, std::size_t batch) const {
  require_serveable(workload);
  return device_.estimate(workload.gnn_model(), workload.dataset(), batch);
}

double GhostAdapter::static_power_w() const { return device_.static_power_w(); }

}  // namespace lumos::arch
