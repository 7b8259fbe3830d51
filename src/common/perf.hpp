// Performance/energy report shared by every platform model in the library
// (TRON, GHOST, and the electronic baselines), so the figure benches can
// compare EPB and GOPS uniformly.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>

namespace lumos {

// Per-stage accounting of one inference pass (photonic accelerators fill the
// stages that apply; baselines typically only use the totals).
struct PerfBreakdown {
  double matmul_time_s = 0.0;
  double softmax_time_s = 0.0;
  double elementwise_time_s = 0.0;  // residual adds, LN, activations
  double aggregation_time_s = 0.0;  // GHOST: reduce-phase time
  double memory_stall_s = 0.0;      // DRAM streaming not hidden by compute

  double laser_dac_adc_energy_j = 0.0;
  double partial_sum_energy_j = 0.0;
  double softmax_energy_j = 0.0;
  double elementwise_energy_j = 0.0;
  double aggregation_energy_j = 0.0;
  double sram_energy_j = 0.0;
  double dram_energy_j = 0.0;

  // Adds `other` scaled by `factor`, field by field, each field as one fused
  // multiply-add: the rounding is the same whatever the compiler contracts,
  // and a factor of 1 is a plain sum.
  void add(const PerfBreakdown& other, double factor = 1.0) noexcept {
    matmul_time_s = std::fma(other.matmul_time_s, factor, matmul_time_s);
    softmax_time_s = std::fma(other.softmax_time_s, factor, softmax_time_s);
    elementwise_time_s = std::fma(other.elementwise_time_s, factor, elementwise_time_s);
    aggregation_time_s = std::fma(other.aggregation_time_s, factor, aggregation_time_s);
    memory_stall_s = std::fma(other.memory_stall_s, factor, memory_stall_s);
    laser_dac_adc_energy_j = std::fma(other.laser_dac_adc_energy_j, factor, laser_dac_adc_energy_j);
    partial_sum_energy_j = std::fma(other.partial_sum_energy_j, factor, partial_sum_energy_j);
    softmax_energy_j = std::fma(other.softmax_energy_j, factor, softmax_energy_j);
    elementwise_energy_j = std::fma(other.elementwise_energy_j, factor, elementwise_energy_j);
    aggregation_energy_j = std::fma(other.aggregation_energy_j, factor, aggregation_energy_j);
    sram_energy_j = std::fma(other.sram_energy_j, factor, sram_energy_j);
    dram_energy_j = std::fma(other.dram_energy_j, factor, dram_energy_j);
  }
};

struct PerfReport {
  std::string workload;
  std::string platform;
  double latency_s = 0.0;  // one full inference
  double dynamic_energy_j = 0.0;
  double static_power_w = 0.0;
  double static_energy_j = 0.0;
  double total_energy_j = 0.0;
  std::size_t op_count = 0;
  int bits = 8;
  PerfBreakdown breakdown;

  // Throughput in operations per second (the paper's GOPS figures / 1e9).
  [[nodiscard]] double ops_per_second() const noexcept {
    return latency_s > 0.0 ? static_cast<double>(op_count) / latency_s : 0.0;
  }
  // Energy per bit: total energy over all processed operand bits.
  [[nodiscard]] double energy_per_bit_j() const noexcept {
    const double bits_total = static_cast<double>(op_count) * bits;
    return bits_total > 0.0 ? total_energy_j / bits_total : 0.0;
  }
  [[nodiscard]] double average_power_w() const noexcept {
    return latency_s > 0.0 ? total_energy_j / latency_s : 0.0;
  }

  // Closes the energy account of a priced pass: dynamic energy is the sum of
  // the breakdown's energies, static energy is `static_w` held over the
  // latency, and the total is their sum.
  void set_energy_totals(double static_w) noexcept {
    const PerfBreakdown& b = breakdown;
    dynamic_energy_j = b.laser_dac_adc_energy_j + b.partial_sum_energy_j + b.softmax_energy_j +
                       b.elementwise_energy_j + b.aggregation_energy_j + b.sram_energy_j +
                       b.dram_energy_j;
    static_power_w = static_w;
    static_energy_j = static_power_w * latency_s;
    total_energy_j = dynamic_energy_j + static_energy_j;
  }
};

}  // namespace lumos
