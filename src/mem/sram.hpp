// CACTI-like SRAM buffer model.
//
// Paper Section VI: "For all the memories and buffers employed in our
// accelerators, CACTI was used to obtain their performance and energy
// estimates."  CACTI itself is a large layout-level tool; the accelerator
// models only consume three outputs per buffer — read/write energy per
// access, access latency, and leakage power — so we reproduce those with
// capacity/word-width scaling laws calibrated against published CACTI 7
// design points at a 32 nm logic node.
//
// Calibration anchors (CACTI 7, 32 nm, single-port SRAM, 64 B line):
//   4 KB  : ~3 pJ/read, ~0.30 ns, ~1.5 mW leakage
//   32 KB : ~9 pJ/read, ~0.45 ns, ~9 mW
//   256 KB: ~25 pJ/read, ~0.95 ns, ~60 mW
//   2 MB  : ~70 pJ/read, ~2.4 ns, ~420 mW
// The sqrt(capacity) energy/latency growth and linear leakage growth used
// below reproduce these within ~20%, which is inside CACTI's own config
// sensitivity.
#pragma once

#include <cstddef>

namespace lumos::mem {

struct SramConfig {
  std::size_t capacity_bytes = 64 * 1024;
  std::size_t word_bytes = 8;       // bytes delivered per access
  std::size_t banks = 1;            // independent banks (parallel accesses)
  double technology_nm = 32.0;      // scaling reference node
};

class SramModel {
 public:
  explicit SramModel(const SramConfig& config);

  // Energy of one read / write access of `word_bytes` (J).
  [[nodiscard]] double read_energy_j() const noexcept { return read_energy_j_; }
  [[nodiscard]] double write_energy_j() const noexcept { return write_energy_j_; }

  // Random-access latency (s).
  [[nodiscard]] double access_latency_s() const noexcept { return latency_s_; }

  // Standby leakage of the whole array (W).
  [[nodiscard]] double leakage_power_w() const noexcept { return leakage_w_; }

  // Peak bandwidth with all banks streaming (bytes/s), assuming pipelined
  // accesses at the access latency.
  [[nodiscard]] double peak_bandwidth_bytes_per_s() const noexcept;

  [[nodiscard]] const SramConfig& config() const noexcept { return config_; }

 private:
  SramConfig config_;
  double read_energy_j_;
  double write_energy_j_;
  double latency_s_;
  double leakage_w_;
};

// Main-memory (HBM2-class) model: per-bit transfer energy plus fixed access
// latency and a shared bandwidth ceiling.
struct DramConfig {
  double energy_per_bit_j = 3.9e-12;  // HBM2 ~3.9 pJ/bit
  double access_latency_s = 100e-9;
  double bandwidth_bytes_per_s = 256e9;  // one HBM2 stack
  double static_power_w = 1.0;
};

class DramModel {
 public:
  explicit DramModel(const DramConfig& config);

  // Energy to move `bytes` (J).
  [[nodiscard]] double transfer_energy_j(std::size_t bytes) const noexcept;
  // Time to move `bytes` as one burst (latency + bandwidth-limited streaming).
  [[nodiscard]] double transfer_latency_s(std::size_t bytes) const noexcept;
  [[nodiscard]] double static_power_w() const noexcept { return config_.static_power_w; }

  [[nodiscard]] const DramConfig& config() const noexcept { return config_; }

 private:
  DramConfig config_;
};

}  // namespace lumos::mem
