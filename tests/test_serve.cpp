// Tests for the serving simulator subsystem: the workload registry, trace
// generation, the estimate cache (bit-identical to uncached calls), the
// schedulers, the Scenario-driven discrete-event loop, and campaign
// determinism (the parallel_for sweep must equal a serial simulation of the
// same point).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "arch/registry.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "perf_report_matchers.hpp"
#include "serve/campaign.hpp"
#include "serve/simulator.hpp"
#include "sim/registry.hpp"

namespace lumos::serve {
namespace {

// Scenario over an explicit pre-materialised trace (the shape most tests
// want: hand the loop exactly these requests).
FleetMetrics simulate_trace(const FleetConfig& fleet, const WorkloadCatalog& catalog,
                            std::vector<Request> trace, SchedulerKind scheduler,
                            const BatchPolicy& policy, const SimConfig& sim = {}) {
  Scenario scenario;
  scenario.fleet = fleet;
  scenario.catalog = catalog;
  scenario.scheduler = scheduler;
  scenario.batch = policy;
  scenario.sim = sim;
  scenario.trace = std::move(trace);
  return simulate(scenario);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, TransformerLookupsMatchZooConfigs) {
  const nn::TransformerConfig bert = sim::transformer_by_name("bert-base", 128);
  EXPECT_EQ(bert.name, nn::bert_base(128).name);
  EXPECT_EQ(bert.layers, nn::bert_base(128).layers);
  EXPECT_EQ(bert.d_model, nn::bert_base(128).d_model);
  EXPECT_EQ(sim::transformer_by_name("gpt2", 256).seq_len, nn::gpt2_small(256).seq_len);
}

TEST(Registry, DatasetLookupHasPublishedDimensions) {
  const graph::GraphDataset cora = sim::dataset_by_name("cora");
  EXPECT_EQ(cora.graph.node_count(), 2708u);
  EXPECT_EQ(cora.feature_dim, 1433u);
}

TEST(Registry, UnknownNamesThrow) {
  EXPECT_THROW((void)sim::transformer_by_name("bort"), InvalidArgument);
  EXPECT_THROW((void)sim::gnn_by_name("gnn9000"), InvalidArgument);
  EXPECT_THROW((void)sim::dataset_by_name("imagenet"), InvalidArgument);
}

// The error text must list every accepted name so a caller can self-correct.
TEST(Registry, UnknownNameErrorsListAcceptedNames) {
  const auto expect_lists = [](const auto& call, const std::vector<std::string>& names,
                               const char* bad) {
    try {
      call();
      FAIL() << "expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(bad), std::string::npos) << what;
      for (const std::string& name : names) {
        EXPECT_NE(what.find(name), std::string::npos) << what << " missing " << name;
      }
    }
  };
  expect_lists([] { (void)sim::transformer_by_name("bort"); }, sim::transformer_names(),
               "bort");
  expect_lists([] { (void)sim::gnn_by_name("gnn9000"); }, sim::gnn_names(), "gnn9000");
  expect_lists([] { (void)sim::dataset_by_name("imagenet"); }, sim::dataset_names(),
               "imagenet");
}

TEST(Registry, NameListsRoundTrip) {
  for (const std::string& name : sim::transformer_names()) {
    EXPECT_NO_THROW((void)sim::transformer_by_name(name));
  }
  for (const std::string& name : sim::gnn_names()) EXPECT_NO_THROW((void)sim::gnn_by_name(name));
  for (const std::string& name : sim::dataset_names()) {
    EXPECT_NO_THROW((void)sim::dataset_by_name(name));
  }
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

TEST(Trace, IsDeterministicAndSorted) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  TraceConfig cfg;
  cfg.offered_qps = 5000.0;
  cfg.request_count = 2000;
  cfg.seed = 42;
  const std::vector<Request> a = generate_trace(catalog, cfg);
  const std::vector<Request> b = generate_trace(catalog, cfg);
  ASSERT_EQ(a.size(), cfg.request_count);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].workload, b[i].workload);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
    }
    EXPECT_LT(a[i].workload, catalog.size());
  }
}

TEST(Trace, PoissonHitsOfferedRate) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  TraceConfig cfg;
  cfg.offered_qps = 10000.0;
  cfg.request_count = 100000;
  cfg.seed = 3;
  const std::vector<Request> trace = generate_trace(catalog, cfg);
  const double rate = static_cast<double>(trace.size()) / trace.back().arrival_s;
  EXPECT_NEAR(rate, cfg.offered_qps, 0.05 * cfg.offered_qps);
}

TEST(Trace, BurstyKeepsLongRunRate) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  TraceConfig cfg;
  cfg.offered_qps = 10000.0;
  cfg.request_count = 200000;
  cfg.process = ArrivalProcess::kBursty;
  cfg.seed = 5;
  const std::vector<Request> trace = generate_trace(catalog, cfg);
  const double rate = static_cast<double>(trace.size()) / trace.back().arrival_s;
  EXPECT_NEAR(rate, cfg.offered_qps, 0.10 * cfg.offered_qps);
}

TEST(Trace, MixFollowsWeights) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();  // weights 4:2:3:1
  TraceConfig cfg;
  cfg.offered_qps = 1000.0;
  cfg.request_count = 50000;
  cfg.seed = 9;
  const std::vector<Request> trace = generate_trace(catalog, cfg);
  std::vector<double> counts(catalog.size(), 0.0);
  for (const Request& r : trace) counts[r.workload] += 1.0;
  const double total = static_cast<double>(trace.size());
  for (std::size_t w = 0; w < catalog.size(); ++w) {
    const double want = catalog.at(w).mix_weight / catalog.total_weight();
    EXPECT_NEAR(counts[w] / total, want, 0.01) << "workload " << w;
  }
}

// ---------------------------------------------------------------------------
// Estimate cache
// ---------------------------------------------------------------------------

using lumos::testing::expect_reports_identical;

TEST(EstimateCache, TronReportsBitIdenticalToUncached) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const EstimateCache cache("tron", catalog);
  const tron::TronAccelerator acc(arch::tron_config_by_name("tron"));
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      expect_reports_identical(
          cache.estimate(w, batch),
          acc.estimate_batch(catalog.workload(w).transformer_config(), batch));
    }
  }
}

TEST(EstimateCache, GhostReportsBitIdenticalToUncached) {
  const WorkloadCatalog catalog = WorkloadCatalog::ghost_default();
  const EstimateCache cache("ghost", catalog);
  const ghost::GhostAccelerator acc(arch::ghost_config_by_name("ghost"));
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    const arch::Workload& wl = catalog.workload(w);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      expect_reports_identical(cache.estimate(w, batch),
                               acc.estimate_batch(wl.gnn_model(), wl.dataset(), batch));
    }
  }
}

TEST(EstimateCache, MissesOncePerKey) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const EstimateCache cache("tron", catalog);
  (void)cache.estimate(0, 1);
  (void)cache.estimate(0, 1);
  (void)cache.estimate(0, 2);
  (void)cache.estimate(0, 1);
  EXPECT_EQ(cache.lookups(), 4u);
  EXPECT_EQ(cache.misses(), 2u);
}

// ---------------------------------------------------------------------------
// GHOST batched estimates
// ---------------------------------------------------------------------------

TEST(GhostBatch, BatchOneMatchesEstimateBitForBit) {
  const ghost::GhostAccelerator acc(ghost::default_ghost_config());
  const gnn::GnnModelConfig model = sim::gnn_by_name("graphsage");
  const graph::GraphDataset ds = sim::dataset_by_name("citeseer");
  expect_reports_identical(acc.estimate(model, ds), acc.estimate_batch(model, ds, 1));
}

TEST(GhostBatch, LatencySubLinearAndEnergyAmortised) {
  const ghost::GhostAccelerator acc(ghost::default_ghost_config());
  const gnn::GnnModelConfig model = sim::gnn_by_name("gcn");
  const graph::GraphDataset ds = sim::dataset_by_name("cora");
  const PerfReport one = acc.estimate_batch(model, ds, 1);
  const PerfReport eight = acc.estimate_batch(model, ds, 8);
  EXPECT_GE(eight.latency_s, one.latency_s);
  EXPECT_LT(eight.latency_s, 8.0 * one.latency_s);
  EXPECT_EQ(eight.op_count, 8 * one.op_count);
  // Per-request energy improves: the weight stream amortises.
  EXPECT_LT(eight.total_energy_j / 8.0, one.total_energy_j);
}

// ---------------------------------------------------------------------------
// Schedulers
// ---------------------------------------------------------------------------

Request make_request(std::uint64_t id, double arrival_s, std::uint32_t workload) {
  return {id, arrival_s, workload};
}

TEST(Scheduler, FifoServesInArrivalOrder) {
  const auto sched = make_scheduler(SchedulerKind::kFifo, {});
  sched->enqueue(make_request(0, 0.0, 2), 0.0);
  sched->enqueue(make_request(1, 0.1, 0), 0.1);
  EXPECT_TRUE(sched->ready(0.1));
  const std::vector<Request> first = sched->pop(0.1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].id, 0u);
  EXPECT_EQ(sched->pop(0.1)[0].id, 1u);
  EXPECT_FALSE(sched->ready(0.2));
}

TEST(Scheduler, DynamicBatchDispatchesFullBucketImmediately) {
  BatchPolicy policy;
  policy.max_batch = 4;
  policy.max_wait_s = 1.0;
  const auto sched = make_scheduler(SchedulerKind::kDynamicBatch, policy);
  for (std::uint64_t i = 0; i < 4; ++i) {
    sched->enqueue(make_request(i, 0.0, 7), 0.0);
  }
  EXPECT_TRUE(sched->ready(0.0));  // full bucket: no deadline wait
  const std::vector<Request> batch = sched->pop(0.0);
  ASSERT_EQ(batch.size(), 4u);
  for (const Request& r : batch) EXPECT_EQ(r.workload, 7u);
  EXPECT_EQ(sched->queued(), 0u);
}

TEST(Scheduler, DynamicBatchWaitsForDeadlineWhenUnderfull) {
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait_s = 0.5;
  const auto sched = make_scheduler(SchedulerKind::kDynamicBatch, policy);
  sched->enqueue(make_request(0, 1.0, 3), 1.0);
  EXPECT_FALSE(sched->ready(1.2));
  EXPECT_EQ(sched->next_deadline_s(), 1.5);
  EXPECT_TRUE(sched->ready(1.5));
  const std::vector<Request> batch = sched->pop(1.5);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 0u);
}

TEST(Scheduler, MaskedPopSkipsDisallowedWorkloads) {
  // Kind-aware routing: a mask hides workloads with no idle compatible
  // accelerator; pops serve the oldest allowed request and leave the rest.
  const std::vector<char> only_workload_1{0, 1};
  const WorkloadMask mask(&only_workload_1);

  const auto fifo = make_scheduler(SchedulerKind::kFifo, {});
  fifo->enqueue(make_request(0, 0.0, 0), 0.0);
  fifo->enqueue(make_request(1, 0.1, 1), 0.1);
  EXPECT_TRUE(fifo->ready(0.1));
  EXPECT_TRUE(fifo->ready(0.1, mask));
  const std::vector<Request> batch = fifo->pop(0.1, mask);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 1u);  // skipped the disallowed head
  EXPECT_EQ(fifo->queued(), 1u);
  EXPECT_FALSE(fifo->ready(0.1, mask));  // only workload 0 remains

  BatchPolicy policy;
  policy.max_batch = 2;
  policy.max_wait_s = 0.0;
  const auto batcher = make_scheduler(SchedulerKind::kDynamicBatch, policy);
  batcher->enqueue(make_request(0, 0.0, 0), 0.0);
  batcher->enqueue(make_request(1, 0.1, 1), 0.1);
  EXPECT_EQ(batcher->next_deadline_s(mask), 0.1);  // workload 0's deadline hidden
  const std::vector<Request> b = batcher->pop(0.2, mask);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].workload, 1u);
}

TEST(Scheduler, DynamicBatchServesLongestWaitingBucketFirst) {
  BatchPolicy policy;
  policy.max_batch = 2;
  policy.max_wait_s = 0.0;  // everything is ready immediately
  const auto sched = make_scheduler(SchedulerKind::kDynamicBatch, policy);
  sched->enqueue(make_request(0, 0.2, 5), 0.2);
  sched->enqueue(make_request(1, 0.1, 9), 0.1);
  const std::vector<Request> first = sched->pop(0.3);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].workload, 9u);  // oldest head-of-bucket wins
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

TEST(Percentile, NearestRankOnKnownSamples) {
  std::vector<double> v{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_EQ(percentile(v, 0.5), 3.0);
  EXPECT_EQ(percentile(v, 1.0), 5.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 0.99), 0.0);
}

TEST(Percentile, SampleRunSumsInArrivalOrderSortsAndMerges) {
  // (0.3 + 0.2) + 0.1 and (0.1 + 0.2) + 0.3 round differently: the carried
  // sum must be the arrival-order one a running sum would give.
  SampleRun run({0.3, 0.2, 0.1});
  EXPECT_EQ(run.mean(), ((0.3 + 0.2) + 0.1) / 3.0);
  EXPECT_NE(run.mean(), ((0.1 + 0.2) + 0.3) / 3.0);
  EXPECT_EQ(run.values(), (std::vector<double>{0.1, 0.2, 0.3}));
  EXPECT_EQ(run.max(), 0.3);
  EXPECT_EQ(run.percentile(0.5), 0.2);

  run.merge(SampleRun({0.25, 0.0}));
  EXPECT_EQ(run.values(), (std::vector<double>{0.0, 0.1, 0.2, 0.25, 0.3}));
  EXPECT_EQ(run.mean(), (((0.3 + 0.2) + 0.1) + (0.25 + 0.0)) / 5.0);

  const SampleRun none;
  EXPECT_EQ(none.mean(), 0.0);
  EXPECT_EQ(none.max(), 0.0);
  EXPECT_EQ(none.percentile(0.99), 0.0);
}

// The fleet percentiles select across the tenants' sorted runs instead of
// sorting their union; the selection must return exactly what sorting the
// concatenation would.  0-8 runs, with empty runs, singletons, and values on
// four levels in every other trial so ties straddle runs.
TEST(Percentile, SelectionAcrossRunsMatchesSortedConcatenation) {
  Rng rng(17);
  for (std::uint32_t trial = 0; trial < 360; ++trial) {
    std::vector<SampleRun> runs;
    std::vector<double> all;
    for (std::uint32_t r = 0; r < trial % 9; ++r) {
      const std::uint32_t size = rng.next_below(3) == 0 ? rng.next_below(2) : rng.next_below(40);
      std::vector<double> samples;
      for (std::uint32_t i = 0; i < size; ++i) {
        samples.push_back(trial % 2 == 0 ? static_cast<double>(rng.next_below(4))
                                         : rng.uniform(0.0, 1e-3));
      }
      all.insert(all.end(), samples.begin(), samples.end());
      runs.emplace_back(std::move(samples));
    }
    for (const double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0}) {
      std::vector<double> sorted = all;
      EXPECT_EQ(percentile_of_runs(runs, q), percentile(sorted, q))
          << "trial " << trial << ", " << runs.size() << " runs, " << all.size()
          << " samples, q=" << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

struct SimSetup {
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  FleetConfig fleet = FleetConfig::homogeneous("tron", 4);
  double capacity = fleet_capacity_qps(catalog, "tron", 4, 8);
};

FleetMetrics run_sim(const SimSetup& s, double qps_fraction, SchedulerKind scheduler,
                     std::size_t requests = 10000, std::uint64_t seed = 21) {
  // The generated-trace path: traffic knobs in the Scenario, the trace
  // materialised inside simulate() by the OpenLoopSource.
  Scenario scenario;
  scenario.fleet = s.fleet;
  scenario.catalog = s.catalog;
  scenario.scheduler = scheduler;
  scenario.batch.max_batch = 8;
  scenario.traffic.open.offered_qps = qps_fraction * s.capacity;
  scenario.traffic.open.request_count = requests;
  scenario.traffic.open.seed = seed;
  return simulate(scenario);
}

TEST(Simulator, CompletesEveryRequestAndConservesCounts) {
  const SimSetup s;
  const FleetMetrics m = run_sim(s, 0.6, SchedulerKind::kDynamicBatch);
  EXPECT_EQ(m.completed, 10000u);
  std::size_t dispatched_requests = 0;
  std::size_t dispatches = 0;
  for (std::size_t b = 0; b < m.batch_histogram.size(); ++b) {
    dispatched_requests += b * m.batch_histogram[b];
    dispatches += m.batch_histogram[b];
  }
  EXPECT_EQ(dispatched_requests, m.completed);
  EXPECT_EQ(dispatches, m.dispatches);
  EXPECT_GT(m.fleet_energy_j, 0.0);
  EXPECT_GT(m.p99_latency_s, 0.0);
  EXPECT_GE(m.p99_latency_s, m.p50_latency_s);
  EXPECT_GE(m.max_latency_s, m.p999_latency_s);
}

TEST(Simulator, LightLoadMeetsSlo) {
  const SimSetup s;
  const FleetMetrics m = run_sim(s, 0.3, SchedulerKind::kDynamicBatch);
  EXPECT_EQ(m.slo_attainment, 1.0);
  EXPECT_NEAR(m.goodput_qps, m.throughput_qps, 1e-9);
}

TEST(Simulator, OverloadSaturatesAndQueues) {
  const SimSetup s;
  const FleetMetrics m = run_sim(s, 3.0, SchedulerKind::kDynamicBatch);
  // Offered 3x capacity: the fleet pins at ~capacity and queues grow deep.
  EXPECT_LT(m.throughput_qps, 1.2 * s.capacity);
  EXPECT_GT(m.fleet_utilization, 0.95);
  EXPECT_GT(m.peak_queue_depth, 100u);
  EXPECT_LT(m.slo_attainment, 0.5);
}

TEST(Simulator, BatchingBeatsFifoUnderLoad) {
  const SimSetup s;
  const FleetMetrics fifo = run_sim(s, 0.8, SchedulerKind::kFifo);
  const FleetMetrics batch = run_sim(s, 0.8, SchedulerKind::kDynamicBatch);
  // 0.8x the *batched* capacity overloads the unbatched fleet.
  EXPECT_GT(batch.goodput_qps, 2.0 * fifo.goodput_qps);
  EXPECT_LT(batch.p99_latency_s, fifo.p99_latency_s);
}

TEST(Simulator, RunsAreBitReproducible) {
  const SimSetup s;
  const FleetMetrics a = run_sim(s, 0.7, SchedulerKind::kDynamicBatch);
  const FleetMetrics b = run_sim(s, 0.7, SchedulerKind::kDynamicBatch);
  EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.p999_latency_s, b.p999_latency_s);
  EXPECT_EQ(a.fleet_energy_j, b.fleet_energy_j);
  EXPECT_EQ(a.mean_queue_depth, b.mean_queue_depth);
  EXPECT_EQ(a.dispatches, b.dispatches);
}

TEST(Simulator, HeterogeneousEnergyRoutingCompletes) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const FleetConfig fleet =
      FleetConfig::cycled({"tron", "tron-eco"}, 4, RoutingPolicy::kEnergyAware);
  TraceConfig cfg;
  cfg.offered_qps = 0.3 * fleet_capacity_qps(catalog, "tron", 4, 8);
  cfg.request_count = 5000;
  cfg.seed = 33;
  BatchPolicy policy;
  const FleetMetrics m = simulate_trace(fleet, catalog, generate_trace(catalog, cfg),
                                        SchedulerKind::kDynamicBatch, policy);
  EXPECT_EQ(m.completed, 5000u);
  EXPECT_GT(m.energy_per_request_j, 0.0);
}

// ---------------------------------------------------------------------------
// Mixed-kind catalogs and fleets (kind-aware routing)
// ---------------------------------------------------------------------------

TEST(MixedFleet, ServesMixedCatalogEndToEnd) {
  const WorkloadCatalog catalog = WorkloadCatalog::mixed_default();
  EXPECT_TRUE(catalog.has_kind(arch::WorkloadKind::kTransformer));
  EXPECT_TRUE(catalog.has_kind(arch::WorkloadKind::kGnn));
  const FleetConfig fleet = FleetConfig::cycled({"tron", "ghost"}, 4);
  TraceConfig cfg;
  cfg.offered_qps = 0.5 * fleet_capacity_qps(catalog, fleet, 8);
  cfg.request_count = 8000;
  cfg.seed = 44;
  BatchPolicy policy;
  const FleetMetrics m = simulate_trace(fleet, catalog, generate_trace(catalog, cfg),
                                        SchedulerKind::kDynamicBatch, policy);
  // Every request completes; kind-aware routing is what makes this possible
  // (a TRON slot refuses GNN batches, so any mis-route would throw inside
  // the adapter).
  EXPECT_EQ(m.completed, 8000u);
  EXPECT_GT(m.fleet_energy_j, 0.0);
}

TEST(MixedFleet, MixedRunsAreBitReproducible) {
  const WorkloadCatalog catalog = WorkloadCatalog::mixed_default();
  const FleetConfig fleet = FleetConfig::cycled({"tron", "ghost"}, 4);
  TraceConfig cfg;
  cfg.offered_qps = 0.7 * fleet_capacity_qps(catalog, fleet, 8);
  cfg.request_count = 6000;
  cfg.seed = 55;
  BatchPolicy policy;
  const std::vector<Request> trace = generate_trace(catalog, cfg);
  const FleetMetrics a = simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy);
  const FleetMetrics b = simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, policy);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.fleet_energy_j, b.fleet_energy_j);
  EXPECT_EQ(a.dispatches, b.dispatches);
}

TEST(MixedFleet, MixedFifoCompletesDespiteHeadOfLineKinds) {
  const WorkloadCatalog catalog = WorkloadCatalog::mixed_default();
  const FleetConfig fleet = FleetConfig::cycled({"tron", "ghost"}, 2);
  TraceConfig cfg;
  cfg.offered_qps = 0.3 * fleet_capacity_qps(catalog, fleet, 1);
  cfg.request_count = 3000;
  cfg.seed = 66;
  const FleetMetrics m = simulate_trace(fleet, catalog, generate_trace(catalog, cfg),
                                        SchedulerKind::kFifo, BatchPolicy{});
  EXPECT_EQ(m.completed, 3000u);
}

TEST(MixedFleet, SingleKindFleetCannotServeMixedCatalog) {
  const WorkloadCatalog catalog = WorkloadCatalog::mixed_default();
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 4);
  TraceConfig cfg;
  cfg.offered_qps = 1000.0;
  cfg.request_count = 100;
  const std::vector<Request> trace = generate_trace(catalog, cfg);
  try {
    (void)simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, BatchPolicy{});
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot serve"), std::string::npos) << what;
    EXPECT_NE(what.find("gnn"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Construction-time validation (InvalidArgument naming the bad field)
// ---------------------------------------------------------------------------

void expect_invalid(const std::function<void()>& call, const char* field) {
  try {
    call();
    FAIL() << "expected InvalidArgument naming " << field;
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(Validation, CatalogRejectsNonPositiveMixWeights) {
  WorkloadCatalog c;
  expect_invalid(
      [&] { c.add_transformer("bad", sim::transformer_by_name("bert-base"), 0.0); },
      "mix_weight");
  expect_invalid(
      [&] { c.add_transformer("bad", sim::transformer_by_name("bert-base"), -2.0); },
      "mix_weight");
}

TEST(Validation, ScenarioNamesBadField) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  TraceConfig tc;
  tc.request_count = 10;
  const std::vector<Request> trace = generate_trace(catalog, tc);
  const FleetConfig fleet = FleetConfig::homogeneous("tron", 1);

  FleetConfig empty_fleet;
  expect_invalid(
      [&] {
        (void)simulate_trace(empty_fleet, catalog, trace, SchedulerKind::kFifo,
                             BatchPolicy{});
      },
      "FleetConfig.accelerators");
  expect_invalid(
      [&] {
        (void)simulate_trace(fleet, WorkloadCatalog{}, trace, SchedulerKind::kFifo,
                             BatchPolicy{});
      },
      "WorkloadCatalog");
  BatchPolicy zero;
  zero.max_batch = 0;
  expect_invalid(
      [&] { (void)simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, zero); },
      "max_batch");
  const std::vector<Request> bogus{{0, 0.0, 99}};  // workload index out of range
  expect_invalid(
      [&] { (void)simulate_trace(fleet, catalog, bogus, SchedulerKind::kFifo, BatchPolicy{}); },
      "workload index");
  // Explicit traces must be arrival-ordered: reversed, negative and NaN
  // arrival times name the request instead of tripping an internal check.
  // Equal times stay legal.
  std::vector<Request> reversed = trace;
  std::reverse(reversed.begin(), reversed.end());
  std::vector<Request> negative = trace;
  negative[3].arrival_s = -1e-3;
  std::vector<Request> not_a_number = trace;
  not_a_number[0].arrival_s = std::nan("");
  for (const std::vector<Request>* bad : {&reversed, &negative, &not_a_number}) {
    expect_invalid(
        [&] { (void)simulate_trace(fleet, catalog, *bad, SchedulerKind::kFifo, BatchPolicy{}); },
        "arrival_s");
  }
  std::vector<Request> ties = trace;
  for (Request& r : ties) r.arrival_s = ties.front().arrival_s;
  EXPECT_EQ(simulate_trace(fleet, catalog, ties, SchedulerKind::kFifo, BatchPolicy{}).completed,
            ties.size());

  // Traffic-config validation: an empty explicit trace means "generate", so
  // the generator knobs must be sane.
  Scenario scenario;
  scenario.fleet = fleet;
  scenario.catalog = catalog;
  scenario.traffic.open.request_count = 0;
  expect_invalid([&] { (void)simulate(scenario); }, "request_count");
  scenario.traffic.open.request_count = 100;
  scenario.traffic.open.offered_qps = -1.0;
  expect_invalid([&] { (void)simulate(scenario); }, "offered_qps");
  scenario.traffic.open.offered_qps = 1000.0;
  scenario.traffic.mode = LoopMode::kClosed;
  scenario.traffic.closed.sessions = 0;
  expect_invalid([&] { (void)simulate(scenario); }, "sessions");
  scenario.traffic.closed.sessions = 4;
  scenario.traffic.closed.requests_per_session = 0;
  expect_invalid([&] { (void)simulate(scenario); }, "requests_per_session");
  scenario.traffic.closed.requests_per_session = 10;
  scenario.traffic.closed.think_time_mean_s = -1.0;
  expect_invalid([&] { (void)simulate(scenario); }, "think_time_mean_s");
}

TEST(Validation, CatalogRejectsBadSeqLenConfigs) {
  WorkloadCatalog tron = WorkloadCatalog::tron_default();
  SeqLenConfig cfg;
  cfg.dist = SeqLenDist::kUniform;
  cfg.bucket = 0;
  expect_invalid([&] { tron.set_seqlen(0, cfg); }, "bucket");
  cfg = SeqLenConfig{};
  cfg.dist = SeqLenDist::kUniform;
  cfg.min_len = 512;
  cfg.max_len = 16;
  expect_invalid([&] { tron.set_seqlen(0, cfg); }, "min_len <= max_len");
  cfg = SeqLenConfig{};
  cfg.dist = SeqLenDist::kLogNormal;
  cfg.log_sigma = 0.0;
  expect_invalid([&] { tron.set_seqlen(0, cfg); }, "log_sigma");

  // GNN entries have no sequence dimension: only kFixed is accepted.
  WorkloadCatalog ghost = WorkloadCatalog::ghost_default();
  cfg = SeqLenConfig{};
  cfg.dist = SeqLenDist::kUniform;
  expect_invalid([&] { ghost.set_seqlen(0, cfg); }, "cannot sample sequence lengths");
  EXPECT_NO_THROW(ghost.set_seqlen(0, SeqLenConfig{}));
  // apply_seqlen_dist over a mixed catalog touches only transformer entries.
  WorkloadCatalog mixed = WorkloadCatalog::mixed_default();
  EXPECT_NO_THROW(mixed.apply_seqlen_dist(SeqLenDist::kLogNormal));
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    const bool is_transformer =
        mixed.workload(i).kind() == arch::WorkloadKind::kTransformer;
    EXPECT_EQ(mixed.at(i).seqlen.dist != SeqLenDist::kFixed, is_transformer);
  }
}

TEST(Validation, FleetFactoriesRejectEmptyAndZero) {
  expect_invalid([] { (void)FleetConfig::cycled({}, 4); }, "specs");
  expect_invalid([] { (void)FleetConfig::homogeneous("tron", 0); }, "fleet size");
}

TEST(Validation, CampaignConfigNamesBadField) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  CampaignConfig good;
  good.qps = {1000.0};
  good.requests_per_point = 100;

  CampaignConfig c = good;
  c.qps.clear();
  expect_invalid([&] { (void)run_campaign(c, catalog); }, "CampaignConfig.qps");
  c = good;
  c.qps = {-5.0};
  expect_invalid([&] { (void)run_campaign(c, catalog); }, "CampaignConfig.qps");
  c = good;
  c.schedulers.clear();
  expect_invalid([&] { (void)run_campaign(c, catalog); }, "CampaignConfig.schedulers");
  c = good;
  c.fleet_sizes = {0};
  expect_invalid([&] { (void)run_campaign(c, catalog); }, "CampaignConfig.fleet_sizes");
  c = good;
  c.max_batches = {0};
  expect_invalid([&] { (void)run_campaign(c, catalog); }, "CampaignConfig.max_batches");
  c = good;
  c.requests_per_point = 0;
  expect_invalid([&] { (void)run_campaign(c, catalog); },
                 "CampaignConfig.requests_per_point");
  c = good;
  c.fleet_template.clear();
  expect_invalid([&] { (void)run_campaign(c, catalog); }, "CampaignConfig.fleet_template");
}

// ---------------------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------------------

TEST(Campaign, ParallelSweepMatchesSerialSimulation) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  CampaignConfig cfg;
  cfg.fleet_template = {"tron"};
  cfg.qps = {0.6 * fleet_capacity_qps(catalog, "tron", 2, 8)};
  cfg.schedulers = {SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {2};
  cfg.max_batches = {8};
  cfg.requests_per_point = 5000;
  cfg.seed = 17;
  const std::vector<CampaignPoint> points = run_campaign(cfg, catalog);
  ASSERT_EQ(points.size(), 1u);

  // Re-run the same grid point serially with the campaign's derived seed: the
  // parallel_for sweep must be bit-identical (this plus the CI LUMOS_THREADS
  // matrix locks in determinism across thread counts).
  TraceConfig trace_cfg;
  trace_cfg.offered_qps = cfg.qps[0];
  trace_cfg.request_count = cfg.requests_per_point;
  trace_cfg.seed = cfg.seed + 0x9E3779B9u * 1;
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait_s = cfg.max_wait_s;
  SimConfig sim_cfg;
  sim_cfg.slo_scale = cfg.slo_scale;
  const FleetMetrics serial =
      simulate_trace(FleetConfig::homogeneous("tron", 2), catalog,
                     generate_trace(catalog, trace_cfg), SchedulerKind::kDynamicBatch,
                     policy, sim_cfg);
  EXPECT_EQ(points[0].metrics.p99_latency_s, serial.p99_latency_s);
  EXPECT_EQ(points[0].metrics.goodput_qps, serial.goodput_qps);
  EXPECT_EQ(points[0].metrics.fleet_energy_j, serial.fleet_energy_j);
  EXPECT_EQ(points[0].metrics.dispatches, serial.dispatches);
}

TEST(Campaign, FifoPointsIgnoreBatchGrid) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  CampaignConfig cfg;
  cfg.fleet_template = {"tron"};
  cfg.qps = {1000.0, 2000.0};
  cfg.schedulers = {SchedulerKind::kFifo, SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {1};
  cfg.max_batches = {4, 8};
  cfg.requests_per_point = 200;
  const std::vector<CampaignPoint> points = run_campaign(cfg, catalog);
  // FIFO collapses the batch dimension: 2 qps + 2 batches x 2 qps = 6 points.
  EXPECT_EQ(points.size(), 6u);
}

TEST(Campaign, MixedFleetTemplateSweepCompletes) {
  const WorkloadCatalog catalog = WorkloadCatalog::mixed_default();
  CampaignConfig cfg;
  cfg.fleet_template = {"tron", "ghost"};
  cfg.qps = {0.5 * fleet_capacity_qps(catalog, FleetConfig::cycled({"tron", "ghost"}, 4), 8)};
  cfg.schedulers = {SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {4};
  cfg.max_batches = {8};
  cfg.requests_per_point = 4000;
  cfg.seed = 23;
  const std::vector<CampaignPoint> points = run_campaign(cfg, catalog);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].metrics.completed, 4000u);
  EXPECT_GT(points[0].metrics.goodput_qps, 0.0);
}

}  // namespace
}  // namespace lumos::serve
