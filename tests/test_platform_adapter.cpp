// Tests for the electronic platform adapter (arch/platform_adapter.hpp) and
// the hybrid-fleet serving features built on it: registry coverage of the
// paper's comparison set, bit-identical delegation to the concrete roofline
// entry points, batched decode steps, cost-aware routing, dollar-cost
// metrics (attribution, merge, shard parity), and the campaign fleet-template
// axis.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "arch/platform_adapter.hpp"
#include "arch/registry.hpp"
#include "baselines/platforms.hpp"
#include "common/error.hpp"
#include "perf_report_matchers.hpp"
#include "serve/campaign.hpp"
#include "serve/shard.hpp"
#include "serve/simulator.hpp"
#include "sim/registry.hpp"

namespace lumos {
namespace {

using testing::expect_reports_identical;

// ---------------------------------------------------------------------------
// Adapter delegation: bit-identical to the concrete roofline entry points
// ---------------------------------------------------------------------------

TEST(PlatformAdapter, TransformerEstimatesMatchDirectModelBitForBit) {
  const nn::TransformerConfig model = sim::transformer_by_name("bert-base", 128);
  const arch::Workload w = arch::Workload::transformer("bert-base/128", model);
  for (const baselines::PlatformModel& platform : baselines::llm_baselines()) {
    const arch::PlatformAdapter adapter(platform);
    SCOPED_TRACE(platform.spec().name);
    expect_reports_identical(adapter.estimate(w), platform.estimate_transformer(model));
    EXPECT_TRUE(adapter.can_serve(w));
  }
}

TEST(PlatformAdapter, GnnEstimatesMatchDirectModelBitForBit) {
  const gnn::GnnModelConfig model = sim::gnn_eval_models().front();
  const auto dataset =
      std::make_shared<const graph::GraphDataset>(sim::gnn_eval_datasets().front());
  const arch::Workload w = arch::Workload::gnn("gnn-eval", model, dataset);
  for (const baselines::PlatformModel& platform : baselines::gnn_baselines()) {
    const arch::PlatformAdapter adapter(platform);
    SCOPED_TRACE(platform.spec().name);
    expect_reports_identical(adapter.estimate(w), platform.estimate_gnn(model, *dataset));
    EXPECT_TRUE(adapter.can_serve(w));
  }
}

TEST(PlatformAdapter, StaticPowerIsIdleFractionOfBoardPower) {
  const baselines::PlatformModel v100 = baselines::v100_gpu();
  const arch::PlatformAdapter adapter(v100);
  EXPECT_DOUBLE_EQ(adapter.static_power_w(),
                   v100.spec().idle_power_fraction * v100.spec().board_power_w);
}

// A decode step of B lanes re-streams the weights once, so it must cost less
// than B separate batch-1 steps (the continuous-batching win).
TEST(PlatformAdapter, BatchedDecodeStepAmortisesWeightStreaming) {
  const nn::TransformerConfig model = sim::transformer_by_name("bert-base", 128);
  const arch::Workload w = arch::Workload::transformer("bert-base/128", model);
  const arch::PlatformAdapter adapter(baselines::v100_gpu());
  const double one = adapter.estimate_decode_step(w, 1, 128).latency_s;
  const double eight = adapter.estimate_decode_step(w, 8, 128).latency_s;
  EXPECT_GT(one, 0.0);
  EXPECT_LT(eight, 8.0 * one);
  EXPECT_GE(eight, one);
}

// ---------------------------------------------------------------------------
// Registry coverage of the paper's electronic comparison set
// ---------------------------------------------------------------------------

TEST(PlatformRegistry, ServesAllFifteenElectronicSpecs) {
  const std::vector<std::string> electronic = {
      "xeon",  "v100", "tpu-v2", "transpim", "fpga-acc1", "vaqf",  "fpga-acc2", "a100",
      "tpu-v4", "grip", "hygcn",  "engn",     "hw-acc",    "regnn", "regraphx"};
  const std::vector<std::string>& names = arch::spec_names();
  for (const std::string& name : electronic) {
    SCOPED_TRACE(name);
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
    EXPECT_TRUE(arch::is_platform_spec(name));
    // Electronic platforms price both kinds, so they serve both.
    EXPECT_TRUE(arch::spec_serves(name, arch::WorkloadKind::kTransformer));
    EXPECT_TRUE(arch::spec_serves(name, arch::WorkloadKind::kGnn));
    const auto acc = arch::make_accelerator(name);
    EXPECT_NE(dynamic_cast<const arch::PlatformAdapter*>(acc.get()), nullptr);
    EXPECT_EQ(acc->spec().name, name);
  }
  // Photonic fabrics are not platforms and still serve their kind only.
  EXPECT_FALSE(arch::is_platform_spec("tron"));
  EXPECT_TRUE(arch::spec_serves("tron", arch::WorkloadKind::kTransformer));
  EXPECT_FALSE(arch::spec_serves("tron", arch::WorkloadKind::kGnn));
}

TEST(PlatformRegistry, ScaledPlatformSpecScalesRooflineAndPower) {
  const baselines::PlatformSpec base = arch::platform_spec_by_name("v100");
  const baselines::PlatformSpec doubled = arch::platform_spec_by_name("v100@2");
  EXPECT_DOUBLE_EQ(doubled.peak_ops_per_s, 2.0 * base.peak_ops_per_s);
  EXPECT_DOUBLE_EQ(doubled.memory_bandwidth_bps, 2.0 * base.memory_bandwidth_bps);
  EXPECT_DOUBLE_EQ(doubled.board_power_w, 2.0 * base.board_power_w);
  EXPECT_TRUE(arch::is_platform_spec("v100@2"));
}

TEST(PlatformRegistry, UnknownSpecErrorEnumeratesGrownNameSet) {
  try {
    (void)arch::make_accelerator("h100");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    for (const char* name : {"tron", "ghost", "v100", "regraphx"}) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
  EXPECT_THROW((void)arch::spec_serves("h100", arch::WorkloadKind::kTransformer),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Cost-aware routing and dollar-cost metrics
// ---------------------------------------------------------------------------

// One transformer tenant; a hybrid 2-slot fleet (one photonic, one
// electronic); requests spaced so both slots are always idle at dispatch.
serve::Scenario hybrid_trace_scenario(double slo_s, std::size_t requests) {
  serve::Scenario s;
  s.catalog.add_transformer("bert-base/128", sim::transformer_by_name("bert-base", 128));
  s.catalog.set_slo(0, slo_s);
  s.fleet = serve::FleetConfig::cycled({"tron", "v100"}, 2, serve::RoutingPolicy::kCostAware);
  s.batch.max_batch = 1;
  for (std::size_t i = 0; i < requests; ++i) {
    serve::Request r;
    r.id = i;
    r.arrival_s = static_cast<double>(i) * 0.1;  // far apart: no queueing
    s.trace.push_back(r);
  }
  return s;
}

TEST(CostAwareRouting, PicksCheaperSlotWhenBothMakeSlo) {
  serve::WorkloadCatalog catalog;
  catalog.add_transformer("bert-base/128", sim::transformer_by_name("bert-base", 128));
  const double lat_tron = serve::EstimateCache("tron", catalog).estimate(0, 1).latency_s;
  const double lat_v100 = serve::EstimateCache("v100", catalog).estimate(0, 1).latency_s;
  ASSERT_LT(lat_tron, lat_v100);  // photonic is the fast slot

  // Generous SLO: both slots are feasible, so routing must follow dollars.
  serve::Scenario s = hybrid_trace_scenario(/*slo_s=*/1e3 * lat_v100, /*requests=*/8);
  // Make the photonic slot overwhelmingly expensive per slot-hour so the
  // electronic slot wins on cost despite its energy.
  s.fleet.cost.slot_hour_overrides = {{"tron", 1e6}, {"v100", 1e-9}};
  const serve::FleetMetrics cheap = simulate(s);
  EXPECT_EQ(cheap.completed, 8u);
  // Every request served at v100 latency (no queueing by construction).
  EXPECT_NEAR(cheap.mean_latency_s, lat_v100, 1e-12 + 1e-9 * lat_v100);

  // Invert the rates: the photonic slot is now also the cheap one.
  serve::Scenario s2 = hybrid_trace_scenario(/*slo_s=*/1e3 * lat_v100, /*requests=*/8);
  s2.fleet.cost.slot_hour_overrides = {{"tron", 1e-9}, {"v100", 1e6}};
  const serve::FleetMetrics fast = simulate(s2);
  EXPECT_NEAR(fast.mean_latency_s, lat_tron, 1e-12 + 1e-9 * lat_tron);
}

TEST(CostAwareRouting, FallsBackPastSlotsThatMissSlo) {
  serve::WorkloadCatalog catalog;
  catalog.add_transformer("bert-base/128", sim::transformer_by_name("bert-base", 128));
  const double lat_tron = serve::EstimateCache("tron", catalog).estimate(0, 1).latency_s;
  const double lat_v100 = serve::EstimateCache("v100", catalog).estimate(0, 1).latency_s;

  // SLO between the two service times: only the photonic slot is feasible,
  // so it must win even though the electronic slot is priced far cheaper.
  serve::Scenario s = hybrid_trace_scenario(/*slo_s=*/0.5 * (lat_tron + lat_v100),
                                            /*requests=*/8);
  s.fleet.cost.slot_hour_overrides = {{"tron", 1e6}, {"v100", 1e-9}};
  const serve::FleetMetrics m = simulate(s);
  EXPECT_EQ(m.completed, 8u);
  EXPECT_NEAR(m.mean_latency_s, lat_tron, 1e-12 + 1e-9 * lat_tron);
  EXPECT_DOUBLE_EQ(m.slo_attainment, 1.0);
}

TEST(CostMetrics, FleetCostCoversTenantAttribution) {
  serve::Scenario s = hybrid_trace_scenario(/*slo_s=*/1.0, /*requests=*/16);
  const serve::FleetMetrics m = simulate(s);
  EXPECT_GT(m.fleet_cost_usd, 0.0);
  EXPECT_DOUBLE_EQ(m.cost_per_request_usd,
                   m.fleet_cost_usd / static_cast<double>(m.completed));
  ASSERT_EQ(m.tenants.size(), 1u);
  EXPECT_GT(m.tenants[0].cost_usd, 0.0);
  // Attribution covers only the served share; idle slot-time and static
  // energy land on the fleet total.
  EXPECT_LT(m.tenants[0].cost_usd, m.fleet_cost_usd);
}

TEST(CostMetrics, SlotHourRatePrefersOverrides) {
  serve::CostModel cost;
  cost.usd_per_watt_hour = 0.01;
  cost.slot_hour_overrides = {{"v100", 7.5}};
  EXPECT_DOUBLE_EQ(cost.slot_hour_rate("v100", 300.0), 7.5);
  EXPECT_DOUBLE_EQ(cost.slot_hour_rate("tron", 300.0), 3.0);  // power-derived
}

// ---------------------------------------------------------------------------
// Merge and shard parity of the cost fields (satellite: FleetMetrics::merge)
// ---------------------------------------------------------------------------

serve::Scenario open_hybrid_scenario(std::size_t requests, std::uint64_t seed) {
  serve::Scenario s;
  s.catalog = serve::WorkloadCatalog::tron_default();
  s.fleet = serve::FleetConfig::cycled({"tron", "v100"}, 4,
                                       serve::RoutingPolicy::kCostAware);
  s.batch.max_batch = 8;
  s.traffic.open.offered_qps = 30000.0;
  s.traffic.open.request_count = requests;
  s.traffic.open.seed = seed;
  return s;
}

TEST(CostMetrics, MergeAddsDollarsExactlyAndRecomputesPerRequest) {
  // The merge needs both sides' latency state.
  serve::Scenario sa = open_hybrid_scenario(6000, 11);
  sa.sim.keep_latency_state = true;
  serve::Scenario sb = open_hybrid_scenario(4000, 77);
  sb.sim.keep_latency_state = true;
  const serve::FleetMetrics a = simulate(sa);
  const serve::FleetMetrics b = simulate(sb);
  ASSERT_GT(a.fleet_cost_usd, 0.0);
  ASSERT_GT(b.fleet_cost_usd, 0.0);
  serve::FleetMetrics merged = a;
  merged.merge(b);
  // Disjoint slot-time and energy: dollars add bit-exactly.
  EXPECT_EQ(merged.fleet_cost_usd, a.fleet_cost_usd + b.fleet_cost_usd);
  EXPECT_DOUBLE_EQ(merged.cost_per_request_usd,
                   merged.fleet_cost_usd /
                       static_cast<double>(a.completed + b.completed));
  ASSERT_EQ(merged.tenants.size(), a.tenants.size());
  for (std::size_t w = 0; w < merged.tenants.size(); ++w) {
    EXPECT_EQ(merged.tenants[w].cost_usd,
              a.tenants[w].cost_usd + b.tenants[w].cost_usd);
  }
}

TEST(CostMetrics, CellsOneShardFoldIsBitIdenticalIncludingCost) {
  const serve::Scenario s = open_hybrid_scenario(10000, 29);
  const serve::FleetMetrics serial = simulate(s);
  const serve::FleetMetrics sharded = simulate_sharded(s, 1);
  EXPECT_EQ(serial.completed, sharded.completed);
  EXPECT_EQ(serial.fleet_cost_usd, sharded.fleet_cost_usd);
  EXPECT_EQ(serial.cost_per_request_usd, sharded.cost_per_request_usd);
  EXPECT_EQ(serial.fleet_energy_j, sharded.fleet_energy_j);
  EXPECT_EQ(serial.p99_latency_s, sharded.p99_latency_s);
  ASSERT_EQ(serial.tenants.size(), sharded.tenants.size());
  for (std::size_t w = 0; w < serial.tenants.size(); ++w) {
    EXPECT_EQ(serial.tenants[w].cost_usd, sharded.tenants[w].cost_usd);
  }
}

// ---------------------------------------------------------------------------
// Campaign fleet-template axis
// ---------------------------------------------------------------------------

serve::CampaignConfig small_campaign() {
  serve::CampaignConfig config;
  config.base.catalog = serve::WorkloadCatalog::tron_default();
  config.base.traffic.open.request_count = 2000;
  config.base.traffic.open.seed = 5;
  config.qps = {20000.0, 60000.0};
  config.schedulers = {serve::SchedulerKind::kDynamicBatch};
  config.fleet_sizes = {2};
  config.max_batches = {4};
  return config;
}

TEST(CampaignTemplates, TemplateAxisIsOutermostAndPreservesPerPointSeeds) {
  serve::CampaignConfig single = small_campaign();
  serve::CampaignConfig hybrid = small_campaign();
  hybrid.fleet_templates = {{"tron"}, {"tron", "v100"}};
  const auto base = run_campaign(single);
  const auto grid = run_campaign(hybrid);
  ASSERT_EQ(grid.size(), 2 * base.size());
  // First half: the photonic template, bit-identical to the single-template
  // campaign (the axis is outermost, so inner grid indices — and with them
  // per-point trace seeds — are unchanged).
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(grid[i].fleet_template, std::vector<std::string>{"tron"});
    EXPECT_EQ(grid[i].qps, base[i].qps);
    EXPECT_EQ(grid[i].metrics.completed, base[i].metrics.completed);
    EXPECT_EQ(grid[i].metrics.p99_latency_s, base[i].metrics.p99_latency_s);
    EXPECT_EQ(grid[i].metrics.fleet_cost_usd, base[i].metrics.fleet_cost_usd);
  }
  // Second half: the hybrid template, with cost metrics populated.
  for (std::size_t i = base.size(); i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].fleet_template, (std::vector<std::string>{"tron", "v100"}));
    EXPECT_GT(grid[i].metrics.fleet_cost_usd, 0.0);
  }
  // The whole grid is deterministic: a re-run is bit-identical.
  const auto again = run_campaign(hybrid);
  ASSERT_EQ(again.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].metrics.p99_latency_s, again[i].metrics.p99_latency_s);
    EXPECT_EQ(grid[i].metrics.fleet_cost_usd, again[i].metrics.fleet_cost_usd);
  }
}

TEST(CampaignTemplates, EmptyTemplateEntryIsRejected) {
  serve::CampaignConfig config = small_campaign();
  config.fleet_templates = {{"tron"}, {}};
  EXPECT_THROW(validate_campaign(config), InvalidArgument);
}

}  // namespace
}  // namespace lumos
