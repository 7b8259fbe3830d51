// TRON: the silicon-photonic transformer accelerator (paper Section V.C).
//
// Two faces, matching the paper's own Python simulator:
//   * `estimate()` — analytic performance/energy mapping of a transformer
//     configuration onto the photonic fabric (latency, energy, power, GOPS,
//     EPB, with per-stage breakdowns), and `estimate_decode_step()`, one
//     autoregressive token step.  Both price each layer stack through one
//     mapping pass overlapped with the layer's DRAM weight stream;
//   * `forward()` — functional execution of a (small) transformer through the
//     noisy analog device models, validated against the exact reference.
#pragma once

#include <string>
#include <vector>

#include "common/perf.hpp"
#include "nn/transformer.hpp"
#include "photonics/area.hpp"
#include "photonics/soa.hpp"
#include "tron/attention_head.hpp"
#include "tron/config.hpp"

namespace lumos::tron {

using lumos::PerfBreakdown;
using lumos::PerfReport;

class TronAccelerator {
 public:
  explicit TronAccelerator(const TronConfig& config);

  // Analytic mapping of `batch` full-sequence inferences of `model`: the
  // per-layer weight stream from DRAM is amortised over the sequences
  // pipelined through each layer's stationary weights.
  [[nodiscard]] PerfReport estimate(const nn::TransformerConfig& model,
                                    std::size_t batch = 1) const;

  // ONE autoregressive decode step at context length `context_len`, batched
  // over `batch` concurrent sequences (decode lanes) sharing the step's
  // per-layer weight re-stream.  Batch-1 decode is memory-bound, so batching
  // lanes amortises the DRAM stream — the continuous-batching win the serving
  // simulator schedules around.  A whole generation is the sum of its
  // batch-1 steps (`arch::Accelerator::estimate_generation`).
  [[nodiscard]] PerfReport estimate_decode_step(const nn::TransformerConfig& model,
                                                std::size_t batch,
                                                std::size_t context_len) const;

  // Floorplan summary of the whole fabric (bank arrays, converters, softmax
  // logic, SRAM, SOAs).
  [[nodiscard]] phot::AreaReport area() const;

  // Functional forward through the noisy photonic path.  Intended for small
  // configs (tiny_transformer): cost grows with model size like a real
  // software simulation of the analog datapath.
  [[nodiscard]] nn::Matrix forward(const nn::TransformerWeights& weights, const nn::Matrix& x,
                                   Rng& rng, const phot::AnalogNoiseConfig& noise) const;

  [[nodiscard]] const TronConfig& config() const noexcept { return config_; }

  // Fabric-wide static (hold) power: tuning, converters, lasers idling,
  // digital control, SRAM leakage, DRAM standby, SOA bias.
  [[nodiscard]] double static_power_w() const;

 private:
  // Prices a stack of `layers` identical layers of `trace`, each mapped at
  // `batch` rows and overlapped with one `stream_s` weight stream from DRAM:
  // adds the stack's latency, its stall and its scaled breakdown to `r`.
  void add_layers(PerfReport& r, const std::vector<nn::OpSpec>& trace, std::size_t batch,
                  std::size_t layers, double stream_s) const;

  TronConfig config_;
  AttentionHeadUnit head_;
  phot::CoherentSummationUnit residual_adder_;
  phot::MrBank ln_ring_;
  phot::Soa soa_;
  mem::SramModel weight_buffer_;
  mem::SramModel activation_buffer_;
  mem::DramModel dram_;
  // Mapping units hoisted out of map_trace so repeated estimates (the serving
  // simulator's cache misses) pay construction once per accelerator.
  phot::MrBankArray mapping_array_;
  phot::MrBankArray::PassEnergies pass_energies_;
  SoftmaxLut mapping_softmax_;
};

}  // namespace lumos::tron
