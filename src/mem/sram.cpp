#include "mem/sram.hpp"

#include <cmath>

#include "common/error.hpp"

namespace lumos::mem {

SramModel::SramModel(const SramConfig& config) : config_(config) {
  LUMOS_EXPECTS(config.capacity_bytes >= 64);
  LUMOS_EXPECTS(config.word_bytes >= 1);
  LUMOS_EXPECTS(config.banks >= 1);
  LUMOS_EXPECTS(config.technology_nm > 0.0);

  const double cap = static_cast<double>(config.capacity_bytes);
  const double bank_cap = cap / static_cast<double>(config.banks);
  // Technology scaling relative to the 32 nm calibration node: dynamic energy
  // ~ node^2 (capacitance * V^2), latency ~ node, leakage ~ node.
  const double s = config.technology_nm / 32.0;

  // Read energy: wordline/bitline energy grows with array side length
  // (sqrt of the per-bank capacity), plus a per-byte data transfer term.
  const double word_scale = static_cast<double>(config.word_bytes) / 8.0;
  read_energy_j_ = (0.047e-12 * std::sqrt(bank_cap) * (0.5 + 0.5 * word_scale)) * s * s;
  write_energy_j_ = 1.15 * read_energy_j_;  // write drivers cost slightly more

  latency_s_ = (0.20e-9 + 0.0015e-9 * std::sqrt(bank_cap)) * s;
  leakage_w_ = 0.21e-3 * (cap / 1024.0) * s;  // ~0.21 mW per KB at 32 nm
}

double SramModel::peak_bandwidth_bytes_per_s() const noexcept {
  return static_cast<double>(config_.word_bytes) * static_cast<double>(config_.banks) /
         latency_s_;
}

DramModel::DramModel(const DramConfig& config) : config_(config) {
  LUMOS_EXPECTS(config.energy_per_bit_j > 0.0);
  LUMOS_EXPECTS(config.access_latency_s >= 0.0);
  LUMOS_EXPECTS(config.bandwidth_bytes_per_s > 0.0);
}

double DramModel::transfer_energy_j(std::size_t bytes) const noexcept {
  return config_.energy_per_bit_j * 8.0 * static_cast<double>(bytes);
}

double DramModel::transfer_latency_s(std::size_t bytes) const noexcept {
  return config_.access_latency_s +
         static_cast<double>(bytes) / config_.bandwidth_bytes_per_s;
}

}  // namespace lumos::mem
