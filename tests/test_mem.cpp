// Tests for the CACTI-like SRAM/DRAM models.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "mem/sram.hpp"

namespace lumos::mem {
namespace {

TEST(Sram, EnergyGrowsWithCapacity) {
  SramConfig small{4 * 1024, 8, 1, 32.0};
  SramConfig big{2 * 1024 * 1024, 8, 1, 32.0};
  EXPECT_LT(SramModel(small).read_energy_j(), SramModel(big).read_energy_j());
}

TEST(Sram, LatencyGrowsWithCapacity) {
  SramConfig small{4 * 1024, 8, 1, 32.0};
  SramConfig big{2 * 1024 * 1024, 8, 1, 32.0};
  EXPECT_LT(SramModel(small).access_latency_s(), SramModel(big).access_latency_s());
}

TEST(Sram, BankingReducesLatencyAndEnergy) {
  SramConfig mono{1024 * 1024, 8, 1, 32.0};
  SramConfig banked{1024 * 1024, 8, 16, 32.0};
  EXPECT_GT(SramModel(mono).access_latency_s(), SramModel(banked).access_latency_s());
  EXPECT_GT(SramModel(mono).read_energy_j(), SramModel(banked).read_energy_j());
}

TEST(Sram, CalibrationAnchorsWithinTolerance) {
  // CACTI 7-ish anchors at 32 nm (DESIGN.md): checked to +-50% — the model is
  // a scaling law, not a layout tool.
  const SramModel k32({32 * 1024, 64, 1, 32.0});
  EXPECT_GT(k32.read_energy_j(), 4e-12);
  EXPECT_LT(k32.read_energy_j(), 80e-12);
  EXPECT_GT(k32.access_latency_s(), 0.2e-9);
  EXPECT_LT(k32.access_latency_s(), 1.5e-9);
}

TEST(Sram, WritesCostMoreThanReads) {
  const SramModel m({64 * 1024, 8, 1, 32.0});
  EXPECT_GT(m.write_energy_j(), m.read_energy_j());
}

TEST(Sram, LeakageLinearInCapacity) {
  const SramModel a({256 * 1024, 8, 1, 32.0});
  const SramModel b({512 * 1024, 8, 1, 32.0});
  EXPECT_NEAR(b.leakage_power_w(), 2.0 * a.leakage_power_w(), 1e-9);
}

TEST(Sram, TechnologyScaling) {
  const SramModel n32({64 * 1024, 8, 1, 32.0});
  const SramModel n16({64 * 1024, 8, 1, 16.0});
  EXPECT_NEAR(n16.read_energy_j(), 0.25 * n32.read_energy_j(), 1e-15);
  EXPECT_NEAR(n16.access_latency_s(), 0.5 * n32.access_latency_s(), 1e-12);
}

TEST(Sram, PeakBandwidthConsistent) {
  const SramModel m({64 * 1024, 16, 4, 32.0});
  EXPECT_NEAR(m.peak_bandwidth_bytes_per_s(), 64.0 / m.access_latency_s(), 1e-3);
}

TEST(Sram, TinyCapacityRejected) {
  EXPECT_THROW(SramModel({32, 8, 1, 32.0}), lumos::InvalidArgument);
}

TEST(Dram, EnergyPerBitApplied) {
  const DramModel d(DramConfig{});
  EXPECT_NEAR(d.transfer_energy_j(1), d.config().energy_per_bit_j * 8.0, 1e-18);
  EXPECT_NEAR(d.transfer_energy_j(1000), 1000.0 * d.transfer_energy_j(1), 1e-15);
}

TEST(Dram, LatencyHasFixedPlusStreaming) {
  const DramModel d(DramConfig{});
  const double small = d.transfer_latency_s(64);
  const double large = d.transfer_latency_s(1024 * 1024 * 256);
  EXPECT_GT(small, d.config().access_latency_s - 1e-12);
  EXPECT_GT(large, 100.0 * small);  // streaming term dominates
}

// Capacity sweep: energy/latency strictly increase with capacity.
class CapacitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CapacitySweep, MonotoneInCapacity) {
  const std::size_t cap = GetParam();
  const SramModel cur({cap, 8, 1, 32.0});
  const SramModel next({cap * 2, 8, 1, 32.0});
  EXPECT_LT(cur.read_energy_j(), next.read_energy_j());
  EXPECT_LT(cur.access_latency_s(), next.access_latency_s());
  EXPECT_LT(cur.leakage_power_w(), next.leakage_power_w());
}

INSTANTIATE_TEST_SUITE_P(Capacities, CapacitySweep,
                         ::testing::Values(std::size_t{4096}, std::size_t{65536},
                                           std::size_t{1048576}, std::size_t{8388608}));

}  // namespace
}  // namespace lumos::mem
