// GHOST: the silicon-photonic GNN accelerator (paper Section V.D).
//
// Mirrors TRON's two faces:
//   * `estimate()` — analytic performance/energy mapping of a GNN model on a
//     graph dataset (aggregate / combine / update phases, buffer-and-
//     partition memory traffic, weight-DAC sharing, workload balancing);
//   * `forward()` — functional execution of a (small) GNN through the noisy
//     analog device models, validated against the exact reference.
#pragma once

#include "common/perf.hpp"
#include "ghost/config.hpp"
#include "photonics/area.hpp"
#include "ghost/units.hpp"
#include "gnn/models.hpp"
#include "graph/partition.hpp"
#include "tron/photonic_ops.hpp"
#include "tron/softmax_lut.hpp"

namespace lumos::ghost {

// How `GhostAccelerator::estimate` costs the aggregate phase.
enum class AggregateCosting {
  // Per distinct degree via CsrGraph::degree_histogram(): the reduce-pass
  // total is computed once per estimate instead of re-walking all V vertices
  // per layer, and the buffer-and-partition tiles are counted once
  // (`graph::tile_count`) instead of re-tiled per layer.  Default.
  kDegreeHistogram,
  // The original per-node O(V) loop with per-layer reference partitioning,
  // retained as the baseline for parity tests and bench_kernels.  Produces
  // bit-identical PerfReports.
  kPerNodeReference,
};

class GhostAccelerator {
 public:
  // Throws InvalidArgument, before any unit is built, unless every lane,
  // branch, array and block count is at least 1 and the symbol rate is
  // positive.
  explicit GhostAccelerator(const GhostConfig& config);

  // Analytic mapping of `batch` independent full-graph inferences of `model`
  // on `dataset`, pipelined through each layer's stationary weights (as
  // TRON's `estimate` does).  Per-inference compute, feature traffic, and
  // conversions scale with the batch; weight imprints and the per-layer DRAM
  // weight stream are paid once, so batch-N latency is sub-linear in N.
  [[nodiscard]] PerfReport estimate(
      const gnn::GnnModelConfig& model, const graph::GraphDataset& dataset,
      std::size_t batch = 1,
      AggregateCosting costing = AggregateCosting::kDegreeHistogram) const;

  // Functional forward of `weights` on `graph`/`features` through the noisy
  // photonic path (intended for small graphs).
  [[nodiscard]] nn::Matrix forward(const gnn::GnnModelWeights& weights,
                                   const graph::CsrGraph& graph, const nn::Matrix& features,
                                   Rng& rng, const phot::AnalogNoiseConfig& noise) const;

  [[nodiscard]] const GhostConfig& config() const noexcept { return config_; }

  // Fabric-wide static (hold) power.
  [[nodiscard]] double static_power_w() const;

  // Floorplan summary (transform arrays, reduce/update units, buffers).
  [[nodiscard]] phot::AreaReport area() const;

 private:
  // Functional aggregate phase for one layer.
  [[nodiscard]] nn::Matrix aggregate_photonic(const gnn::GnnLayerWeights& weights,
                                              const graph::CsrGraph& graph,
                                              const nn::Matrix& features, Rng& rng,
                                              const phot::AnalogNoiseConfig& noise) const;

  GhostConfig config_;
  ReduceUnit reduce_;
  UpdateUnit update_;
  phot::MrBankArray transform_array_;
  // The transform arrays' per-pass energies, laser sizing included, are a
  // function of the configuration alone: computed once, not per layer.
  phot::MrBankArray::PassEnergies pass_energies_;
  phot::MrBank score_bank_;      // GAT attention-score dot products
  tron::SoftmaxLut softmax_;     // GAT attention / classifier LUT softmax
  mem::SramModel feature_buffer_;
  mem::SramModel weight_buffer_;
  mem::SramModel edge_buffer_;
  mem::DramModel dram_;
};

}  // namespace lumos::ghost
