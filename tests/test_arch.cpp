// Tests for the `arch` accelerator abstraction: the tagged Workload type,
// the TRON/GHOST adapters, the spec registry, and — most importantly — parity
// pins proving the refactored estimate and serve paths are bit-identical to
// the pre-refactor concrete-type code: adapters vs `tron::TronAccelerator` /
// `ghost::GhostAccelerator` PerfReports, and `serve::simulate` vs an
// independent re-implementation of the original event loop written directly
// against the concrete accelerators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "arch/registry.hpp"
#include "common/error.hpp"
#include "perf_report_matchers.hpp"
#include "serve/campaign.hpp"
#include "serve/simulator.hpp"
#include "sim/figures.hpp"
#include "sim/registry.hpp"

namespace lumos::arch {
namespace {

using lumos::testing::expect_reports_identical;

// serve::Scenario over an explicit pre-materialised trace.
serve::FleetMetrics simulate_trace(serve::FleetConfig fleet, serve::WorkloadCatalog catalog,
                                   std::vector<serve::Request> trace,
                                   serve::SchedulerKind scheduler,
                                   const serve::BatchPolicy& policy,
                                   const serve::SimConfig& sim = {}) {
  serve::Scenario scenario;
  scenario.fleet = std::move(fleet);
  scenario.catalog = std::move(catalog);
  scenario.scheduler = scheduler;
  scenario.batch = policy;
  scenario.sim = sim;
  scenario.trace = std::move(trace);
  return serve::simulate(scenario);
}

// ---------------------------------------------------------------------------
// Workload tagged union
// ---------------------------------------------------------------------------

TEST(Workload, TransformerAccessorsAndKind) {
  const Workload w = Workload::transformer("bert", sim::transformer_by_name("bert-base"));
  EXPECT_EQ(w.kind(), WorkloadKind::kTransformer);
  EXPECT_EQ(w.name(), "bert");
  EXPECT_EQ(w.transformer_config().name, sim::transformer_by_name("bert-base").name);
  EXPECT_THROW((void)w.gnn_model(), InvalidArgument);
  EXPECT_THROW((void)w.dataset(), InvalidArgument);
}

TEST(Workload, GnnAccessorsAndKind) {
  const Workload w =
      Workload::gnn("gcn/cora", sim::gnn_by_name("gcn"), sim::dataset_by_name("cora"));
  EXPECT_EQ(w.kind(), WorkloadKind::kGnn);
  EXPECT_EQ(w.dataset().name, sim::dataset_by_name("cora").name);
  EXPECT_THROW((void)w.transformer_config(), InvalidArgument);
}

TEST(Workload, WrongKindErrorNamesWorkloadAndKind) {
  const Workload w = Workload::transformer("vit", sim::transformer_by_name("vit"));
  try {
    (void)w.gnn_model();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("vit"), std::string::npos) << what;
    EXPECT_NE(what.find("transformer"), std::string::npos) << what;
  }
}

TEST(Workload, CopiesShareTheDataset) {
  const Workload a =
      Workload::gnn("gcn/cora", sim::gnn_by_name("gcn"), sim::dataset_by_name("cora"));
  const Workload b = a;
  EXPECT_EQ(&a.dataset(), &b.dataset());
}

// ---------------------------------------------------------------------------
// Adapters: bit-identical delegation + kind gating
// ---------------------------------------------------------------------------

TEST(Adapters, TronEstimatesBitIdenticalToConcreteAccelerator) {
  const tron::TronConfig config = tron::default_tron_config();
  const TronAdapter adapter(config);
  const tron::TronAccelerator concrete(config);
  for (const char* name : {"bert-base", "gpt2"}) {
    const nn::TransformerConfig model = sim::transformer_by_name(name, 128);
    const Workload w = Workload::transformer(name, model);
    expect_reports_identical(adapter.estimate(w), concrete.estimate(model));
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      expect_reports_identical(adapter.estimate(w, batch), concrete.estimate(model, batch));
    }
  }
  EXPECT_EQ(adapter.static_power_w(), concrete.static_power_w());
}

TEST(Adapters, GhostEstimatesBitIdenticalToConcreteAccelerator) {
  const ghost::GhostConfig config = ghost::default_ghost_config();
  const GhostAdapter adapter(config);
  const ghost::GhostAccelerator concrete(config);
  const gnn::GnnModelConfig model = sim::gnn_by_name("graphsage");
  const Workload w = Workload::gnn("graphsage/citeseer", model,
                                   sim::dataset_by_name("citeseer"));
  expect_reports_identical(adapter.estimate(w), concrete.estimate(model, w.dataset()));
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
    expect_reports_identical(adapter.estimate(w, batch),
                             concrete.estimate(model, w.dataset(), batch));
  }
  EXPECT_EQ(adapter.static_power_w(), concrete.static_power_w());
}

TEST(Adapters, RefuseForeignWorkloadKindsNamingBothSides) {
  const TronAdapter tron_acc(tron::default_tron_config());
  const Workload gnn_w =
      Workload::gnn("gcn/cora", sim::gnn_by_name("gcn"), sim::dataset_by_name("cora"));
  EXPECT_FALSE(tron_acc.can_serve(gnn_w));
  try {
    (void)tron_acc.estimate(gnn_w);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tron"), std::string::npos) << what;
    EXPECT_NE(what.find("gcn/cora"), std::string::npos) << what;
  }
}

TEST(Adapters, BreakdownEntriesCoverTheBreakdownFields) {
  const TronAdapter acc(tron::default_tron_config());
  const PerfReport r =
      acc.estimate(Workload::transformer("bert", sim::transformer_by_name("bert-base")));
  double time_sum = 0.0;
  double energy_sum = 0.0;
  for (const BreakdownEntry& e : breakdown_entries(r)) {
    time_sum += e.time_s;
    energy_sum += e.energy_j;
  }
  const PerfBreakdown& b = r.breakdown;
  EXPECT_DOUBLE_EQ(time_sum, b.matmul_time_s + b.softmax_time_s + b.elementwise_time_s +
                                 b.aggregation_time_s + b.memory_stall_s);
  EXPECT_DOUBLE_EQ(energy_sum,
                   b.laser_dac_adc_energy_j + b.partial_sum_energy_j + b.softmax_energy_j +
                       b.elementwise_energy_j + b.aggregation_energy_j + b.sram_energy_j +
                       b.dram_energy_j);
}

// ---------------------------------------------------------------------------
// Spec registry
// ---------------------------------------------------------------------------

TEST(SpecRegistry, AllNamesRoundTripAndSelfDescribe) {
  for (const std::string& name : spec_names()) {
    const auto acc = make_accelerator(name);
    ASSERT_NE(acc, nullptr) << name;
    EXPECT_EQ(acc->spec().name, name);
    EXPECT_GT(acc->static_power_w(), 0.0) << name;
  }
}

TEST(SpecRegistry, UnknownNameListsAcceptedNames) {
  try {
    (void)make_accelerator("quantum9000");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quantum9000"), std::string::npos) << what;
    for (const std::string& name : spec_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << what << " missing " << name;
    }
  }
}

TEST(SpecRegistry, EcoVariantsTradeStaticPowerForLatency) {
  const auto tron_full = make_accelerator("tron");
  const auto tron_eco = make_accelerator("tron-eco");
  EXPECT_LT(tron_eco->static_power_w(), tron_full->static_power_w());
  // Latency can only get worse with half the fabric (equal when the model is
  // memory-bound rather than array-bound).
  const Workload w = Workload::transformer("bert", sim::transformer_by_name("bert-base"));
  EXPECT_GE(tron_eco->estimate(w).latency_s, tron_full->estimate(w).latency_s);
  const auto ghost_full = make_accelerator("ghost");
  const auto ghost_eco = make_accelerator("ghost-eco");
  EXPECT_LT(ghost_eco->static_power_w(), ghost_full->static_power_w());
}

TEST(SpecRegistry, ScaledVariantsParseAndScaleTheFabric) {
  const tron::TronConfig base = tron_config_by_name("tron");
  const tron::TronConfig half = tron_config_by_name("tron@0.5");
  EXPECT_EQ(half.head_units, std::max<std::size_t>(1, base.head_units / 2));
  EXPECT_EQ(half.ff_arrays, std::max<std::size_t>(1, base.ff_arrays / 2));
  const ghost::GhostConfig doubled = ghost_config_by_name("ghost@2");
  EXPECT_EQ(doubled.lanes, 2 * ghost_config_by_name("ghost").lanes);
  // Scaled names key their own specs (and so their own fleet caches).
  EXPECT_EQ(make_accelerator("tron@0.5")->spec().name, "tron@0.5");
  // Tiny scales clamp to one unit instead of zero.
  EXPECT_GE(tron_config_by_name("tron@0.001").head_units, 1u);
}

TEST(SpecRegistry, BadScaleSuffixesThrow) {
  EXPECT_THROW((void)make_accelerator("tron@"), InvalidArgument);
  EXPECT_THROW((void)make_accelerator("tron@abc"), InvalidArgument);
  EXPECT_THROW((void)make_accelerator("tron@0"), InvalidArgument);
  EXPECT_THROW((void)make_accelerator("tron@-1"), InvalidArgument);
  EXPECT_THROW((void)make_accelerator("tron@1e30"), InvalidArgument);  // llround overflow
  EXPECT_THROW((void)make_accelerator("bogus@2"), InvalidArgument);
}

TEST(SpecRegistry, RegistryAcceleratorMatchesDirectConstruction) {
  const auto from_registry = make_accelerator("tron");
  const tron::TronAccelerator direct(tron::default_tron_config());
  const Workload w = Workload::transformer("gpt2", sim::transformer_by_name("gpt2", 256));
  expect_reports_identical(from_registry->estimate(w),
                           direct.estimate(w.transformer_config()));
}

// ---------------------------------------------------------------------------
// Serve-path parity: the new simulator vs an independent re-implementation
// of the pre-refactor event loop written against the concrete accelerators.
// ---------------------------------------------------------------------------

// Reference FIFO fleet simulation (the original algorithm, restated): strict
// arrival order, one request per dispatch, first-idle routing, completions
// processed before arrivals at equal times.  Uses `tron::TronAccelerator`
// directly — no arch, no caches, no masks.
struct ReferenceResult {
  std::size_t completed = 0;
  double p50 = 0.0, p99 = 0.0;
  double mean_latency = 0.0;
  double fleet_energy_j = 0.0;
  std::size_t dispatches = 0;
  double duration_s = 0.0;
};

ReferenceResult reference_fifo_tron(const serve::WorkloadCatalog& catalog,
                                    const std::vector<serve::Request>& trace,
                                    std::size_t n_acc) {
  const tron::TronAccelerator acc(tron::default_tron_config());
  std::vector<PerfReport> reports;
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    reports.push_back(acc.estimate(catalog.workload(w).transformer_config(), 1));
  }

  std::vector<double> free_at(n_acc, 0.0);
  std::vector<double> busy(n_acc, 0.0);
  struct Done {
    double completion_s;
    std::uint64_t seq;  // dispatch order (arrival order under FIFO)
    double latency_s;
    double energy_j;
  };
  std::vector<Done> done;
  double last_completion = 0.0;

  // FIFO with first-idle routing degenerates to: each request starts at
  // max(arrival, earliest-free accelerator), on the lowest-index accelerator
  // free at that instant — equal-time completion/arrival ordering included,
  // because a completion at time t frees its slot before an arrival at t
  // dispatches (completions process first in the original loop).
  std::uint64_t seq = 0;
  for (const serve::Request& r : trace) {
    double earliest = free_at[0];
    for (std::size_t i = 1; i < n_acc; ++i) earliest = std::min(earliest, free_at[i]);
    const double start = std::max(r.arrival_s, earliest);
    std::size_t slot = 0;
    while (slot < n_acc && free_at[slot] > start) ++slot;
    const PerfReport& rep = reports[r.workload];
    free_at[slot] = start + rep.latency_s;
    busy[slot] += rep.latency_s;
    done.push_back({free_at[slot], seq++, free_at[slot] - r.arrival_s, rep.total_energy_j});
    last_completion = std::max(last_completion, free_at[slot]);
  }

  // The original loop accumulates sums in completion order (time, then
  // dispatch seq); replay that order so the floating-point sums are
  // bit-identical, not merely equal to rounding.
  std::sort(done.begin(), done.end(), [](const Done& a, const Done& b) {
    if (a.completion_s != b.completion_s) return a.completion_s < b.completion_s;
    return a.seq < b.seq;
  });
  std::vector<double> latencies;
  double dispatched_j = 0.0;
  double mean_sum = 0.0;
  for (const Done& d : done) {
    latencies.push_back(d.latency_s);
    mean_sum += d.latency_s;
    dispatched_j += d.energy_j;
  }

  ReferenceResult out;
  out.completed = trace.size();
  out.dispatches = trace.size();
  out.duration_s = last_completion;
  out.mean_latency = mean_sum / static_cast<double>(trace.size());
  double idle_j = 0.0;
  for (std::size_t i = 0; i < n_acc; ++i) {
    idle_j += std::max(0.0, last_completion - busy[i]) * acc.static_power_w();
  }
  out.fleet_energy_j = dispatched_j + idle_j;
  out.p50 = serve::percentile(latencies, 0.50);
  out.p99 = serve::percentile(latencies, 0.99);
  return out;
}

TEST(ServeParity, SimulatorMatchesReferenceFifoLoopBitForBit) {
  const serve::WorkloadCatalog catalog = serve::WorkloadCatalog::tron_default();
  serve::TraceConfig tc;
  tc.offered_qps = 0.8 * serve::fleet_capacity_qps(catalog, "tron", 3, 1);
  tc.request_count = 4000;
  tc.seed = 77;
  const std::vector<serve::Request> trace = serve::generate_trace(catalog, tc);

  const serve::FleetMetrics m =
      simulate_trace(serve::FleetConfig::homogeneous("tron", 3), catalog, trace,
                      serve::SchedulerKind::kFifo, serve::BatchPolicy{});
  const ReferenceResult ref = reference_fifo_tron(catalog, trace, 3);

  EXPECT_EQ(m.completed, ref.completed);
  EXPECT_EQ(m.dispatches, ref.dispatches);
  EXPECT_EQ(m.duration_s, ref.duration_s);
  EXPECT_EQ(m.mean_latency_s, ref.mean_latency);
  EXPECT_EQ(m.p50_latency_s, ref.p50);
  EXPECT_EQ(m.p99_latency_s, ref.p99);
  EXPECT_EQ(m.fleet_energy_j, ref.fleet_energy_j);
}

// The full-path pin for the batched scheduler: the arch-routed simulator's
// service times must be exactly the concrete accelerators' estimates, so a
// single-accelerator dynamic-batch run must finish at the sum of its batch
// latencies (no queue-induced drift, no cache divergence).
TEST(ServeParity, BatchedServiceTimesComeFromConcreteEstimates) {
  serve::WorkloadCatalog catalog;
  catalog.add_transformer("bert-base/128", sim::transformer_by_name("bert-base", 128));
  // A burst of 8 simultaneous requests through max_batch=4: exactly two
  // batch-of-4 dispatches, back to back.
  std::vector<serve::Request> trace;
  for (std::uint64_t i = 0; i < 8; ++i) trace.push_back({i, 0.0, 0});
  serve::BatchPolicy policy;
  policy.max_batch = 4;
  policy.max_wait_s = 0.0;
  const serve::FleetMetrics m =
      simulate_trace(serve::FleetConfig::homogeneous("tron", 1), catalog, trace,
                      serve::SchedulerKind::kDynamicBatch, policy);
  const tron::TronAccelerator acc(tron::default_tron_config());
  const PerfReport batch4 = acc.estimate(sim::transformer_by_name("bert-base", 128), 4);
  EXPECT_EQ(m.dispatches, 2u);
  EXPECT_EQ(m.duration_s, 2.0 * batch4.latency_s);
  EXPECT_EQ(m.max_latency_s, 2.0 * batch4.latency_s);
  EXPECT_EQ(m.p50_latency_s, batch4.latency_s);
}

// Campaign-level pin: the arch-routed campaign over the default TRON catalog
// must be bit-identical to a direct simulate() of the same grid point.
TEST(ServeParity, CampaignMatchesDirectSimulation) {
  const serve::WorkloadCatalog catalog = serve::WorkloadCatalog::tron_default();
  serve::CampaignConfig cfg;
  cfg.base.catalog = catalog;
  cfg.base.traffic.open.request_count = 3000;
  cfg.base.traffic.open.seed = 5;
  cfg.qps = {0.6 * serve::fleet_capacity_qps(catalog, "tron", 2, 8)};
  cfg.schedulers = {serve::SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {2};
  cfg.max_batches = {8};
  const std::vector<serve::CampaignPoint> points = serve::run_campaign(cfg);
  ASSERT_EQ(points.size(), 1u);

  serve::TraceConfig tc;
  tc.offered_qps = cfg.qps[0];
  tc.request_count = cfg.base.traffic.open.request_count;
  tc.seed = cfg.base.traffic.open.seed + 0x9E3779B9u * 1;
  serve::BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait_s = cfg.base.batch.max_wait_s;
  serve::SimConfig sim_cfg;
  const serve::FleetMetrics direct =
      simulate_trace(serve::FleetConfig::homogeneous("tron", 2), catalog,
                      serve::generate_trace(catalog, tc), serve::SchedulerKind::kDynamicBatch,
                      policy, sim_cfg);
  EXPECT_EQ(points[0].metrics.p99_latency_s, direct.p99_latency_s);
  EXPECT_EQ(points[0].metrics.goodput_qps, direct.goodput_qps);
  EXPECT_EQ(points[0].metrics.fleet_energy_j, direct.fleet_energy_j);
}

// Figure-path parity: the polymorphic figure runner must reproduce the
// concrete accelerators' estimates cell by cell.
TEST(ServeParity, FigureRunnerReportsMatchConcreteEstimates) {
  const tron::TronConfig config = tron::default_tron_config();
  const sim::FigureData f = sim::run_fig8_epb_llm(TronAdapter(config));
  const tron::TronAccelerator concrete(config);
  const std::vector<arch::Workload> workloads = sim::llm_eval_workloads();
  ASSERT_EQ(f.workloads.size(), workloads.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    expect_reports_identical(f.reports[w][0],
                             concrete.estimate(workloads[w].transformer_config()));
  }
}

}  // namespace
}  // namespace lumos::arch
