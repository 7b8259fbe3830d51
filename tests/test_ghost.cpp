// Tests for the GHOST accelerator: reduce/update units, the performance and
// memory model with its scheduling optimisations, and functional fidelity of
// the photonic GNN forward pass.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "ghost/accelerator.hpp"
#include "graph/generators.hpp"

namespace lumos::ghost {
namespace {

phot::AnalogNoiseConfig no_noise() {
  phot::AnalogNoiseConfig n;
  n.dac_quantization = false;
  n.mr_tuning_error = false;
  n.heterodyne_crosstalk = false;
  n.detector_noise = false;
  n.adc_quantization = false;
  return n;
}

TEST(ReduceUnit, SumMeanMatchExactNoiseless) {
  const ReduceUnit unit(default_ghost_config());
  Rng rng(1);
  const std::vector<double> v{0.5, -0.25, 0.75, 0.1, -0.4};
  EXPECT_NEAR(unit.reduce(v, gnn::Reduction::kSum, rng, no_noise()),
              ReduceUnit::exact_reduce(v, gnn::Reduction::kSum), 1e-9);
  EXPECT_NEAR(unit.reduce(v, gnn::Reduction::kMean, rng, no_noise()),
              ReduceUnit::exact_reduce(v, gnn::Reduction::kMean), 1e-9);
}

TEST(ReduceUnit, MaxMatchesExactNoiseless) {
  const ReduceUnit unit(default_ghost_config());
  Rng rng(2);
  const std::vector<double> v{0.5, -0.25, 0.75, 0.1, -0.4};
  EXPECT_DOUBLE_EQ(unit.reduce(v, gnn::Reduction::kMax, rng, no_noise()), 0.75);
}

TEST(ReduceUnit, NoisyMaxSelectsNearMaximum) {
  const ReduceUnit unit(default_ghost_config());
  Rng rng(3);
  const std::vector<double> v{0.1, 0.9, 0.3, 0.88, 0.2};
  for (int t = 0; t < 50; ++t) {
    const double m = unit.reduce(v, gnn::Reduction::kMax, rng, phot::AnalogNoiseConfig{});
    // Detector noise can confuse 0.9 vs 0.88, never 0.9 vs 0.1.
    EXPECT_GE(m, 0.85);
  }
}

TEST(ReduceUnit, ChunksOversizedNeighbourLists) {
  GhostConfig cfg = default_ghost_config();
  cfg.reduce_branches = 4;
  const ReduceUnit unit(cfg);
  Rng rng(4);
  std::vector<double> v(19, 0.05);  // 5 chunks of <=4
  EXPECT_NEAR(unit.reduce(v, gnn::Reduction::kSum, rng, no_noise()), 19 * 0.05, 1e-9);
  EXPECT_EQ(unit.passes_for(19), 5u);
  EXPECT_EQ(unit.passes_for(4), 1u);
  EXPECT_EQ(unit.passes_for(0), 0u);
}

TEST(ReduceUnit, EmptyInputIsZero) {
  const ReduceUnit unit(default_ghost_config());
  Rng rng(5);
  EXPECT_DOUBLE_EQ(unit.reduce({}, gnn::Reduction::kSum, rng, no_noise()), 0.0);
  EXPECT_DOUBLE_EQ(ReduceUnit::exact_reduce({}, gnn::Reduction::kMax), 0.0);
}

TEST(UpdateUnit, ReluCloseToIdeal) {
  const UpdateUnit unit(default_ghost_config());
  EXPECT_DOUBLE_EQ(unit.activate_relu(-0.5), 0.0);
  EXPECT_NEAR(unit.activate_relu(0.5), 0.5, 0.05);
}

TEST(UpdateUnit, CostScalesWithElements) {
  const UpdateUnit unit(default_ghost_config());
  EXPECT_NEAR(unit.energy_j(2000), 2.0 * unit.energy_j(1000), 1e-18);
  EXPECT_GE(unit.latency_s(100000), unit.latency_s(100));
  EXPECT_GT(unit.static_power_w(), 0.0);
}

TEST(Estimate, ReportsConsistentAcrossZoo) {
  const GhostAccelerator acc(default_ghost_config());
  const auto ds = graph::synthetic_cora();
  for (const auto& model : gnn::gnn_model_zoo()) {
    const PerfReport r = acc.estimate(model, ds);
    EXPECT_GT(r.latency_s, 0.0) << model.name;
    EXPECT_GT(r.dynamic_energy_j, 0.0);
    EXPECT_EQ(r.op_count, gnn::model_op_count(model, ds));
    EXPECT_EQ(r.platform, "GHOST");
    EXPECT_NEAR(r.total_energy_j, r.dynamic_energy_j + r.static_energy_j, 1e-12);
  }
}

TEST(Estimate, BiggerGraphsCostMore) {
  const GhostAccelerator acc(default_ghost_config());
  const auto model = gnn::gcn_model();
  EXPECT_GT(acc.estimate(model, graph::synthetic_pubmed()).latency_s,
            acc.estimate(model, graph::synthetic_cora()).latency_s);
}

TEST(Estimate, PartitioningReducesMemoryTraffic) {
  GhostConfig on = default_ghost_config();
  on.buffer_and_partition = true;
  GhostConfig off = default_ghost_config();
  off.buffer_and_partition = false;
  const auto model = gnn::gcn_model();
  const auto ds = graph::synthetic_citeseer();
  const PerfReport with = GhostAccelerator(on).estimate(model, ds);
  const PerfReport without = GhostAccelerator(off).estimate(model, ds);
  EXPECT_LT(with.breakdown.dram_energy_j, without.breakdown.dram_energy_j);
  EXPECT_LE(with.latency_s, without.latency_s + 1e-12);
}

TEST(Estimate, WeightDacSharingSavesEnergy) {
  GhostConfig on = default_ghost_config();
  on.weight_dac_sharing = true;
  GhostConfig off = default_ghost_config();
  off.weight_dac_sharing = false;
  const auto model = gnn::gcn_model();
  const auto ds = graph::synthetic_cora();
  EXPECT_LT(GhostAccelerator(on).estimate(model, ds).breakdown.laser_dac_adc_energy_j,
            GhostAccelerator(off).estimate(model, ds).breakdown.laser_dac_adc_energy_j);
}

TEST(Estimate, WorkloadBalancingNeverHurtsAggregation) {
  GhostConfig on = default_ghost_config();
  on.workload_balancing = true;
  GhostConfig off = default_ghost_config();
  off.workload_balancing = false;
  const auto model = gnn::gcn_model();
  const auto ds = graph::synthetic_cora();
  EXPECT_LE(GhostAccelerator(on).estimate(model, ds).breakdown.aggregation_time_s,
            GhostAccelerator(off).estimate(model, ds).breakdown.aggregation_time_s + 1e-15);
}

TEST(Estimate, MoreLanesSpeedAggregation) {
  GhostConfig few = default_ghost_config();
  few.lanes = 4;
  GhostConfig many = default_ghost_config();
  many.lanes = 64;
  const auto model = gnn::gin_model();
  const auto ds = graph::synthetic_cora();
  EXPECT_GT(GhostAccelerator(few).estimate(model, ds).breakdown.aggregation_time_s,
            GhostAccelerator(many).estimate(model, ds).breakdown.aggregation_time_s);
}

TEST(Estimate, GatPaysAttentionCosts) {
  const GhostAccelerator acc(default_ghost_config());
  const auto ds = graph::synthetic_cora();
  const PerfReport gat = acc.estimate(gnn::gat_model(), ds);
  EXPECT_GT(gat.breakdown.softmax_energy_j, 0.0);
  const PerfReport gcn = acc.estimate(gnn::gcn_model(), ds);
  EXPECT_DOUBLE_EQ(gcn.breakdown.softmax_energy_j, 0.0);
}

TEST(Functional, GcnMatchesReference) {
  const GhostAccelerator acc(default_ghost_config());
  const auto ds = graph::tiny_dataset();
  const auto weights = gnn::GnnModelWeights::random(gnn::gcn_model(), ds, 21);
  Rng data(6);
  nn::Matrix x(ds.graph.node_count(), ds.feature_dim);
  x.fill_uniform(data, -1.0, 1.0);
  Rng rng(7);
  const nn::Matrix got = acc.forward(weights, ds.graph, x, rng, no_noise());
  const nn::Matrix want = gnn::reference_forward(weights, ds.graph, x);
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_LT(got.relative_error(want), 0.15);
}

TEST(Functional, GraphSageMatchesReference) {
  const GhostAccelerator acc(default_ghost_config());
  const auto ds = graph::tiny_dataset();
  const auto weights = gnn::GnnModelWeights::random(gnn::graphsage_model(), ds, 22);
  Rng data(8);
  nn::Matrix x(ds.graph.node_count(), ds.feature_dim);
  x.fill_uniform(data, -1.0, 1.0);
  Rng rng(9);
  const nn::Matrix got = acc.forward(weights, ds.graph, x, rng, no_noise());
  const nn::Matrix want = gnn::reference_forward(weights, ds.graph, x);
  EXPECT_LT(got.relative_error(want), 0.15);
}

TEST(Functional, GinMatchesReference) {
  const GhostAccelerator acc(default_ghost_config());
  const auto ds = graph::tiny_dataset();
  const auto weights = gnn::GnnModelWeights::random(gnn::gin_model(), ds, 23);
  Rng data(10);
  nn::Matrix x(ds.graph.node_count(), ds.feature_dim);
  x.fill_uniform(data, -1.0, 1.0);
  Rng rng(11);
  const nn::Matrix got = acc.forward(weights, ds.graph, x, rng, no_noise());
  const nn::Matrix want = gnn::reference_forward(weights, ds.graph, x);
  EXPECT_LT(got.relative_error(want), 0.15);
}

TEST(Functional, GatMatchesReference) {
  const GhostAccelerator acc(default_ghost_config());
  const auto ds = graph::tiny_dataset();
  const auto weights = gnn::GnnModelWeights::random(gnn::gat_model(), ds, 24);
  Rng data(12);
  nn::Matrix x(ds.graph.node_count(), ds.feature_dim);
  x.fill_uniform(data, -1.0, 1.0);
  Rng rng(13);
  const nn::Matrix got = acc.forward(weights, ds.graph, x, rng, no_noise());
  const nn::Matrix want = gnn::reference_forward(weights, ds.graph, x);
  // GAT chains two photonic stages per edge (scores then aggregation).
  EXPECT_LT(got.relative_error(want), 0.30);
}

TEST(Functional, NoisyGcnStaysClose) {
  const GhostAccelerator acc(default_ghost_config());
  const auto ds = graph::tiny_dataset();
  const auto weights = gnn::GnnModelWeights::random(gnn::gcn_model(), ds, 25);
  Rng data(14);
  nn::Matrix x(ds.graph.node_count(), ds.feature_dim);
  x.fill_uniform(data, -1.0, 1.0);
  Rng rng(15);
  const nn::Matrix got = acc.forward(weights, ds.graph, x, rng, phot::AnalogNoiseConfig{});
  const nn::Matrix want = gnn::reference_forward(weights, ds.graph, x);
  EXPECT_LT(got.relative_error(want), 0.5);
}

TEST(StaticPower, ScalesWithLanes) {
  GhostConfig small = default_ghost_config();
  small.lanes = 4;
  GhostConfig big = default_ghost_config();
  big.lanes = 64;
  EXPECT_LT(GhostAccelerator(small).static_power_w(), GhostAccelerator(big).static_power_w());
}

// The constructor rejects a bad field itself, naming it, before any unit is
// built from it.
void expect_rejected(const GhostConfig& cfg, const std::string& field) {
  try {
    const GhostAccelerator acc(cfg);
    ADD_FAILURE() << field << " accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(Construction, RejectsZeroSymbolRate) {
  GhostConfig cfg = default_ghost_config();
  cfg.symbol_rate_hz = 0.0;  // used to estimate inf latency and energy
  expect_rejected(cfg, "symbol_rate_hz");
}

TEST(Construction, RejectsZeroTransformArraysPerLane) {
  GhostConfig cfg = default_ghost_config();
  cfg.transform_arrays_per_lane = 0;  // used to estimate inf latency and energy
  expect_rejected(cfg, "transform_arrays_per_lane");
}

TEST(Construction, RejectsZeroInputBlockSize) {
  GhostConfig cfg = default_ghost_config();
  cfg.input_block_size = 0;  // used to fail only at the first estimate
  expect_rejected(cfg, "input_block_size");
}

TEST(Construction, RejectsZeroFeatureLanes) {
  GhostConfig cfg = default_ghost_config();
  cfg.feature_lanes = 0;  // used to fail inside the softmax LUT
  expect_rejected(cfg, "feature_lanes");
}

TEST(Construction, RejectsZeroReduceBranches) {
  GhostConfig cfg = default_ghost_config();
  cfg.reduce_branches = 0;  // used to fail inside the coherent summation unit
  expect_rejected(cfg, "reduce_branches");
}

// Pinned bits: `latency_s` and `total_energy_j` as hex floats.  The
// histogram-vs-reference parity pin cannot see a change that both costings
// share (the lane balance, the pass energies), and test_figures checks only
// bounds.
struct Pin {
  const char* model;
  const char* dataset;
  double latency_s;
  double total_energy_j;
};

void expect_pinned(const PerfReport& r, const Pin& pin) {
  EXPECT_EQ(r.latency_s, pin.latency_s) << pin.model << "/" << pin.dataset << std::hexfloat
                                        << " latency " << r.latency_s;
  EXPECT_EQ(r.total_energy_j, pin.total_energy_j)
      << pin.model << "/" << pin.dataset << std::hexfloat << " energy " << r.total_energy_j;
}

TEST(PinnedBits, Fig10Estimates) {
  const Pin pins[] = {
      {"GCN", "Cora", 0x1.8d2f0e46a5e7fp-17, 0x1.9b441905a4c77p-12},
      {"GCN", "Citeseer", 0x1.f874ac8b74f9ep-16, 0x1.13445280a498dp-10},
      {"GCN", "Pubmed", 0x1.5de6a14570b3bp-16, 0x1.96b7dc1d55042p-11},
      {"GraphSAGE", "Cora", 0x1.a4a36b8816edfp-17, 0x1.01bc8deb603e8p-10},
      {"GraphSAGE", "Citeseer", 0x1.06415172d3201p-15, 0x1.79fb8bac57531p-9},
      {"GraphSAGE", "Pubmed", 0x1.7ff58c3c41826p-16, 0x1.2eea79ccbad08p-9},
      {"GIN", "Cora", 0x1.9e993b5879468p-17, 0x1.55fc0222bc73bp-11},
      {"GIN", "Citeseer", 0x1.025db0e8c9354p-15, 0x1.e26508fd1db92p-10},
      {"GIN", "Pubmed", 0x1.7ee78071185fep-16, 0x1.83310c8b0c12ep-10},
      {"GAT", "Cora", 0x1.9fe955a44db0dp-17, 0x1.5b1b1132d5a64p-11},
      {"GAT", "Citeseer", 0x1.0282fb37f1654p-15, 0x1.e4c0e80d72a68p-10},
      {"GAT", "Pubmed", 0x1.a87043ab9ce5fp-16, 0x1.9cbe9932b3997p-10},
  };
  const GhostAccelerator acc(default_ghost_config());
  const Pin* pin = pins;
  for (const gnn::GnnModelConfig& model : gnn::gnn_model_zoo()) {
    for (const graph::GraphDataset& ds : graph::gnn_dataset_zoo()) {
      ASSERT_EQ(model.name, pin->model);
      ASSERT_EQ(ds.name, pin->dataset);
      expect_pinned(acc.estimate(model, ds), *pin++);
    }
  }
}

TEST(PinnedBits, Rmat12WithOptimisationsToggled) {
  graph::GraphDataset ds;
  ds.name = "rmat-12";
  ds.graph = graph::rmat(12, 8, {}, 5);
  ds.feature_dim = 64;
  ds.class_count = 16;
  // The default feature buffer holds this graph's partial aggregates, so
  // buffer-and-partition leaves its traffic at one sweep either way.
  const struct {
    bool buffer_and_partition;
    bool workload_balancing;
    double latency_s;
    double total_energy_j;
  } rows[] = {
      {true, true, 0x1.c450517c1e898p-21, 0x1.2899dcde284f8p-15},
      {true, false, 0x1.c633e668d3f52p-21, 0x1.28e5ac33c2805p-15},
      {false, true, 0x1.c450517c1e898p-21, 0x1.2899dcde284f8p-15},
      {false, false, 0x1.c633e668d3f52p-21, 0x1.28e5ac33c2805p-15},
  };
  for (const auto& row : rows) {
    GhostConfig cfg = default_ghost_config();
    cfg.buffer_and_partition = row.buffer_and_partition;
    cfg.workload_balancing = row.workload_balancing;
    SCOPED_TRACE(std::string("partition ") + (row.buffer_and_partition ? "on" : "off") +
                 ", balancing " + (row.workload_balancing ? "on" : "off"));
    expect_pinned(GhostAccelerator(cfg).estimate(gnn::gcn_model(), ds),
                  {"GCN", "rmat-12", row.latency_s, row.total_energy_j});
  }
  // A 64-byte feature buffer splits the sweep into more super-blocks than
  // there are tiles per input block, so the tile count sets the DRAM traffic.
  GhostConfig tile_bound = default_ghost_config();
  tile_bound.feature_buffer.capacity_bytes = 64;
  SCOPED_TRACE("tile-bound");
  expect_pinned(GhostAccelerator(tile_bound).estimate(gnn::gcn_model(), ds),
                {"GCN", "rmat-12", 0x1.50a3dc68a1293p-13, 0x1.0dc847615cbb5p-8});
}

// Dataset sweep: EPB identity and op accounting hold on every dataset.
class DatasetSweep : public ::testing::TestWithParam<int> {};

TEST_P(DatasetSweep, EpbIdentityHolds) {
  const auto datasets = graph::gnn_dataset_zoo();
  const auto& ds = datasets[static_cast<std::size_t>(GetParam())];
  const GhostAccelerator acc(default_ghost_config());
  const PerfReport r = acc.estimate(gnn::graphsage_model(), ds);
  EXPECT_NEAR(r.energy_per_bit_j() * static_cast<double>(r.op_count) * r.bits,
              r.total_energy_j, r.total_energy_j * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Datasets, DatasetSweep, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace lumos::ghost
