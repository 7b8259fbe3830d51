// Tests for autoregressive decode serving: the TRON per-step cost model,
// decode-length sampling, catalog decode plumbing, the event loop's
// prefill+decode split (TTFT/TPOT accounting, token conservation under
// faults), the monolithic-vs-continuous scheduling contract, scheduler
// `pop_joiners` semantics, and parity across the sharded and campaign entry
// points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "arch/accelerator.hpp"
#include "arch/registry.hpp"
#include "common/error.hpp"
#include "serve/campaign.hpp"
#include "serve/shard.hpp"
#include "serve/simulator.hpp"
#include "sim/registry.hpp"

namespace lumos::serve {
namespace {

// Scenario over an explicit pre-materialised trace (see test_serve.cpp).
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

// A decoding TRON scenario over generated open-loop traffic; the decode mode
// is the knob the mono-vs-continuous tests flip.
Scenario decode_scenario(double qps_fraction, std::size_t requests, DecodeMode mode,
                         SeqLenDist dist = SeqLenDist::kFixed, std::size_t tokens = 8) {
  Scenario scenario;
  scenario.catalog = WorkloadCatalog::tron_default();
  scenario.catalog.apply_decode(dist, tokens);
  scenario.fleet = FleetConfig::homogeneous("tron", 2);
  scenario.batch.max_batch = 8;
  scenario.sim.decode_mode = mode;
  scenario.traffic.open.offered_qps =
      qps_fraction * fleet_capacity_qps(scenario.catalog, "tron", 2, 8);
  scenario.traffic.open.request_count = requests;
  scenario.traffic.open.seed = 29;
  return scenario;
}

// ---------------------------------------------------------------------------
// TRON decode-step cost model
// ---------------------------------------------------------------------------

// Decode is memory-bound: the per-step weight re-stream is paid once no
// matter how many lanes share the step, so a batched step costs far less
// than one step per lane — the amortisation continuous batching exists
// to exploit.
TEST(TronDecode, BatchedStepAmortisesTheWeightStream) {
  const auto accel = arch::make_accelerator("tron");
  const arch::Workload workload =
      arch::Workload::transformer("bert-base", sim::transformer_by_name("bert-base", 128));
  const double one = accel->estimate_decode_step(workload, 1, 128).latency_s;
  const double eight = accel->estimate_decode_step(workload, 8, 128).latency_s;
  EXPECT_GE(eight, one);
  EXPECT_LT(eight, 8.0 * one);
}

TEST(TronDecode, GhostHasNoDecodePath) {
  const auto ghost = arch::make_accelerator("ghost");
  EXPECT_FALSE(ghost->can_generate());
  const gnn::GnnModelConfig gcn = sim::gnn_by_name("gcn");
  const arch::Workload workload = arch::Workload::gnn("gcn", gcn, sim::dataset_by_name("cora"));
  EXPECT_THROW((void)ghost->estimate_decode_step(workload, 1, 128), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Decode-length sampling (LengthDist at floor 1 and grid 1)
// ---------------------------------------------------------------------------

// A disabled decode consumes no draw, so decode-free entries never perturb
// the rng stream they share with decoding entries (the same contract
// prompt-length sampling keeps).
TEST(DecodeSampling, DisabledConsumesNoDraw) {
  const LengthDist off;
  const LengthDist uniform{SeqLenDist::kUniform, 32};
  Rng with_disabled(7);
  EXPECT_EQ(off.sample(with_disabled), 0u);
  Rng fresh(7);
  EXPECT_EQ(uniform.sample(with_disabled), uniform.sample(fresh));
}

// Fixed is the center; uniform spans [max(1, c/2), 2c], both ends drawn (15
// is odd, so c/2 rounds down to 7); log-normal stays in [1, 4c].
TEST(DecodeSampling, FixedAndBoundedDraws) {
  Rng rng(11);
  EXPECT_EQ((LengthDist{SeqLenDist::kFixed, 24}.sample(rng)), 24u);
  const LengthDist uniform{SeqLenDist::kUniform, 15};
  const LengthDist lognormal{SeqLenDist::kLogNormal, 32};
  EXPECT_EQ(uniform.upper(), 30u);
  EXPECT_EQ(lognormal.upper(), 128u);
  std::uint32_t lowest = 0xFFFFFFFFu;
  std::uint32_t highest = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t u = uniform.sample(rng);
    lowest = std::min(lowest, u);
    highest = std::max(highest, u);
    const std::uint32_t l = lognormal.sample(rng);
    EXPECT_GE(l, 1u);
    EXPECT_LE(l, 128u);
  }
  EXPECT_EQ(lowest, 7u);
  EXPECT_EQ(highest, 30u);
}

// ---------------------------------------------------------------------------
// Catalog decode plumbing
// ---------------------------------------------------------------------------

TEST(CatalogDecode, ApplyDecodeTargetsEveryTransformerEntry) {
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  EXPECT_FALSE(catalog.has_decode());
  catalog.apply_decode(SeqLenDist::kFixed, 16);
  EXPECT_TRUE(catalog.has_decode());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_TRUE(catalog.at(i).decode.enabled());
    EXPECT_EQ(catalog.at(i).decode.tokens.shape, SeqLenDist::kFixed);
    EXPECT_EQ(catalog.at(i).decode.tokens.center, 16u);
  }
}

TEST(CatalogDecode, MixedCatalogLeavesGnnEntriesDisabled) {
  WorkloadCatalog catalog = WorkloadCatalog::mixed_default();
  catalog.apply_decode(SeqLenDist::kLogNormal, 32);
  EXPECT_TRUE(catalog.has_decode());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog.workload(i).kind() == arch::WorkloadKind::kGnn) {
      EXPECT_FALSE(catalog.at(i).decode.enabled());
    } else {
      EXPECT_TRUE(catalog.at(i).decode.enabled());
    }
  }
}

TEST(CatalogDecode, GnnEntriesRejectDecode) {
  // No transformer entry to decode on at all.
  WorkloadCatalog ghost = WorkloadCatalog::ghost_default();
  EXPECT_THROW(ghost.apply_decode(SeqLenDist::kFixed, 8), InvalidArgument);
}

// Every draw must fit the request's 32-bit decode length: the center itself
// when fixed, 2c when uniform, 4c when log-normal.  Zero tokens is no decode.
TEST(CatalogDecode, CentersKeepEveryDrawIn32Bits) {
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  EXPECT_THROW(catalog.apply_decode(SeqLenDist::kFixed, 0), InvalidArgument);
  EXPECT_THROW(catalog.apply_decode(SeqLenDist::kFixed, 0x100000000ull), InvalidArgument);
  EXPECT_NO_THROW(catalog.apply_decode(SeqLenDist::kFixed, 0xFFFFFFFFull));
  EXPECT_NO_THROW(catalog.apply_decode(SeqLenDist::kUniform, 0x7FFFFFFFull));
  EXPECT_THROW(catalog.apply_decode(SeqLenDist::kUniform, 0x80000000ull), InvalidArgument);
  EXPECT_NO_THROW(catalog.apply_decode(SeqLenDist::kLogNormal, 0x3FFFFFFFull));
  EXPECT_THROW(catalog.apply_decode(SeqLenDist::kLogNormal, 0x40000000ull), InvalidArgument);
  // The bound the CLI reports for --decode is the one the catalog applies.
  EXPECT_EQ(LengthDist::max_center(SeqLenDist::kFixed), 0xFFFFFFFFu);
  EXPECT_EQ(LengthDist::max_center(SeqLenDist::kUniform), 0x7FFFFFFFu);
  EXPECT_EQ(LengthDist::max_center(SeqLenDist::kLogNormal), 0x3FFFFFFFu);
}

TEST(CatalogDecode, TokenSlosApplyToDecodingEntriesOnly) {
  WorkloadCatalog catalog = WorkloadCatalog::mixed_default();
  catalog.apply_decode(SeqLenDist::kFixed, 8);
  catalog.apply_token_slos(500e-6, 100e-6);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog.at(i).decode.enabled()) {
      EXPECT_DOUBLE_EQ(catalog.at(i).decode.ttft_slo_s, 500e-6);
      EXPECT_DOUBLE_EQ(catalog.at(i).decode.tpot_slo_s, 100e-6);
    } else {
      EXPECT_DOUBLE_EQ(catalog.at(i).decode.ttft_slo_s, 0.0);
    }
  }
  // A negative or non-finite per-token SLO is an error, not a disabled gate.
  EXPECT_THROW(catalog.apply_token_slos(-1e-3, 0.0), InvalidArgument);
  EXPECT_THROW(catalog.apply_token_slos(0.0, -1e-6), InvalidArgument);
  EXPECT_THROW(catalog.apply_token_slos(std::numeric_limits<double>::quiet_NaN(), 0.0),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Event loop: decode-free bit-identity, TTFT/TPOT accounting
// ---------------------------------------------------------------------------

// The decode mode knob must be inert on a decode-free catalog: both modes
// take the historical event loop path bit for bit.
TEST(DecodeLoop, DecodeFreeRunIsBitIdenticalAcrossModes) {
  Scenario scenario;
  scenario.catalog = WorkloadCatalog::tron_default();
  scenario.fleet = FleetConfig::homogeneous("tron", 2);
  scenario.traffic.open.offered_qps =
      0.8 * fleet_capacity_qps(scenario.catalog, "tron", 2, 8);
  scenario.traffic.open.request_count = 3000;
  scenario.traffic.open.seed = 5;

  scenario.sim.decode_mode = DecodeMode::kMonolithic;
  const FleetMetrics mono = simulate(scenario);
  scenario.sim.decode_mode = DecodeMode::kContinuous;
  const FleetMetrics cont = simulate(scenario);

  EXPECT_EQ(mono.completed, cont.completed);
  EXPECT_EQ(mono.dispatches, cont.dispatches);
  EXPECT_EQ(mono.p99_latency_s, cont.p99_latency_s);
  EXPECT_EQ(mono.mean_latency_s, cont.mean_latency_s);
  EXPECT_EQ(mono.fleet_energy_j, cont.fleet_energy_j);
  EXPECT_EQ(mono.goodput_qps, cont.goodput_qps);
  EXPECT_EQ(mono.decode_requests, 0u);
  EXPECT_EQ(mono.generated_tokens, 0u);
  EXPECT_EQ(mono.decode_steps, 0u);
  EXPECT_EQ(mono.mean_ttft_s, 0.0);
}

// One request, fixed decode length: TTFT is exactly the unloaded prefill
// latency (arrival at t=0, idle fleet) and the end-to-end latency decomposes
// into TTFT plus (tokens - 1) decode steps scored as TPOT.
TEST(DecodeLoop, SingleRequestTtftIsPrefillAndLatencyDecomposes) {
  constexpr std::uint32_t kTokens = 8;
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  catalog.apply_decode(SeqLenDist::kFixed, kTokens);

  std::vector<Request> trace(1);
  trace[0].id = 1;
  trace[0].arrival_s = 0.0;
  trace[0].workload = 0;
  trace[0].decode_tokens = kTokens;

  const FleetMetrics m =
      simulate_trace(FleetConfig::homogeneous("tron", 1), catalog, trace,
                     SchedulerKind::kFifo, BatchPolicy{});

  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.decode_requests, 1u);
  EXPECT_EQ(m.generated_tokens, kTokens);
  EXPECT_EQ(m.decode_steps, kTokens - 1u);

  const auto accel = arch::make_accelerator("tron");
  const double prefill_s = accel->estimate(catalog.workload(0), 1).latency_s;
  EXPECT_DOUBLE_EQ(m.mean_ttft_s, prefill_s);
  EXPECT_DOUBLE_EQ(m.max_ttft_s, m.mean_ttft_s);
  // latency = ttft + tpot * (tokens - 1), up to the division round-trip.
  EXPECT_NEAR(m.mean_latency_s,
              m.mean_ttft_s + m.mean_tpot_s * static_cast<double>(kTokens - 1),
              1e-12 * m.mean_latency_s);
  EXPECT_GT(m.mean_tpot_s, 0.0);
  // A single lane decoding alone: every step ran at occupancy 1.
  EXPECT_DOUBLE_EQ(m.mean_decode_occupancy, 1.0);
  ASSERT_GT(m.decode_occupancy.size(), 1u);
  EXPECT_EQ(m.decode_occupancy[1], static_cast<std::size_t>(kTokens - 1u));
  // No per-token SLO configured: attainment reports 1 by convention.
  EXPECT_DOUBLE_EQ(m.ttft_attainment, 1.0);
  EXPECT_DOUBLE_EQ(m.tpot_attainment, 1.0);
}

// The tentpole contract: under load, admitting waiting prefills into free
// decode lanes must cut TTFT relative to monolithic batches — while serving
// exactly the same work (token conservation across modes).
TEST(DecodeLoop, ContinuousBatchingImprovesTtftUnderLoad) {
  const FleetMetrics mono =
      simulate(decode_scenario(1.2, 4000, DecodeMode::kMonolithic, SeqLenDist::kLogNormal, 32));
  const FleetMetrics cont =
      simulate(decode_scenario(1.2, 4000, DecodeMode::kContinuous, SeqLenDist::kLogNormal, 32));

  ASSERT_GT(mono.decode_requests, 0u);
  EXPECT_EQ(mono.completed, cont.completed);
  EXPECT_EQ(mono.generated_tokens, cont.generated_tokens);
  EXPECT_LT(cont.mean_ttft_s, mono.mean_ttft_s);
  EXPECT_LT(cont.p95_ttft_s, mono.p95_ttft_s);
  // Refilled lanes run fuller batches than draining monolithic ones.
  EXPECT_GE(cont.mean_decode_occupancy, mono.mean_decode_occupancy);
}

// Mid-decode slot failures abort the batch and requeue its requests from
// scratch; with retries-from-zero the fixed decode length makes conservation
// exact: every completion generated all its tokens, and the aborted partial
// progress is accounted separately.
TEST(DecodeLoop, FaultAbortsConserveTokenAccounting) {
  constexpr std::uint32_t kTokens = 6;
  Scenario scenario = decode_scenario(0.7, 3000, DecodeMode::kContinuous,
                                      SeqLenDist::kFixed, kTokens);
  scenario.sim.faults.mtbf_s = 20e-3;
  scenario.sim.faults.mttr_s = 2e-3;
  scenario.sim.faults.seed = 3;

  const FleetMetrics m = simulate(scenario);
  EXPECT_GT(m.slot_failures, 0u);
  EXPECT_GT(m.requeued_requests, 0u);
  EXPECT_EQ(m.completed, 3000u);  // no timeouts/admission: every request completes
  EXPECT_EQ(m.generated_tokens, m.completed * kTokens);
  EXPECT_GT(m.aborted_decode_tokens, 0u);
}

// ---------------------------------------------------------------------------
// Scheduler pop_joiners and per-workload queue counts
// ---------------------------------------------------------------------------

Request make_request(std::uint64_t id, double arrival_s, std::uint32_t workload,
                     std::uint32_t seq_len = 0) {
  Request r;
  r.id = id;
  r.arrival_s = arrival_s;
  r.first_arrival_s = arrival_s;
  r.workload = workload;
  r.seq_len = seq_len;
  return r;
}

TEST(PopJoiners, FifoAppendsMatchingWorkloadInArrivalOrder) {
  BatchPolicy policy;
  const auto scheduler = make_scheduler(SchedulerKind::kFifo, policy);
  scheduler->enqueue(make_request(1, 0.0, 0), 0.0);
  scheduler->enqueue(make_request(2, 1e-3, 1), 1e-3);  // other workload: not a joiner
  scheduler->enqueue(make_request(3, 2e-3, 0), 2e-3);
  scheduler->enqueue(make_request(4, 3e-3, 0), 3e-3);

  std::vector<Request> out;
  out.push_back(make_request(99, 0.0, 0));  // must survive: joiners append
  const std::size_t joined = scheduler->pop_joiners(0, 2, 4e-3, out);
  EXPECT_EQ(joined, 2u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 99u);
  EXPECT_EQ(out[1].id, 1u);
  EXPECT_EQ(out[2].id, 3u);
  EXPECT_EQ(scheduler->queued(), 2u);  // request 4 and the workload-1 request
  EXPECT_EQ(scheduler->queued(0), 1u);
  EXPECT_EQ(scheduler->queued(1), 1u);
  EXPECT_EQ(scheduler->queued(7), 0u);  // a workload never enqueued

  out.clear();
  EXPECT_EQ(scheduler->pop_joiners(0, 4, 5e-3, out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 4u);
  EXPECT_EQ(scheduler->pop_joiners(0, 4, 6e-3, out), 0u);
}

TEST(PopJoiners, DynamicBatchJoinsOldestHeadAcrossSeqBuckets) {
  BatchPolicy policy;
  policy.max_batch = 8;
  const auto scheduler = make_scheduler(SchedulerKind::kDynamicBatch, policy);
  // Two seq buckets of workload 0; the joiner order follows arrival across
  // buckets, not bucket order.  Workload 1's bucket is never a joiner.
  scheduler->enqueue(make_request(1, 0.0, 0, 256), 0.0);
  scheduler->enqueue(make_request(2, 1e-3, 0, 128), 1e-3);
  scheduler->enqueue(make_request(3, 2e-3, 0, 256), 2e-3);
  scheduler->enqueue(make_request(4, 2e-3, 1, 32), 2e-3);
  EXPECT_EQ(scheduler->queued(0), 3u);  // summed across its seq buckets

  std::vector<Request> out;
  EXPECT_EQ(scheduler->pop_joiners(0, 4, 3e-3, out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[1].id, 2u);
  EXPECT_EQ(out[2].id, 3u);
  EXPECT_EQ(scheduler->queued(), 1u);
  EXPECT_EQ(scheduler->queued(0), 0u);
  EXPECT_EQ(scheduler->queued(1), 1u);
}

// ---------------------------------------------------------------------------
// Driver parity: sharding and campaigns
// ---------------------------------------------------------------------------

TEST(DecodeParity, CellsOneShardingMatchesSerialSimulation) {
  const Scenario scenario =
      decode_scenario(0.8, 4000, DecodeMode::kContinuous, SeqLenDist::kLogNormal, 16);
  const FleetMetrics serial = simulate(scenario);
  const FleetMetrics sharded = simulate_sharded(scenario, 1);
  EXPECT_EQ(serial.completed, sharded.completed);
  EXPECT_EQ(serial.p99_latency_s, sharded.p99_latency_s);
  EXPECT_EQ(serial.generated_tokens, sharded.generated_tokens);
  EXPECT_EQ(serial.decode_steps, sharded.decode_steps);
  EXPECT_EQ(serial.mean_ttft_s, sharded.mean_ttft_s);
  EXPECT_EQ(serial.p95_ttft_s, sharded.p95_ttft_s);
  EXPECT_EQ(serial.p95_tpot_s, sharded.p95_tpot_s);
  EXPECT_EQ(serial.mean_decode_occupancy, sharded.mean_decode_occupancy);
  EXPECT_EQ(serial.fleet_energy_j, sharded.fleet_energy_j);
}

TEST(DecodeParity, CampaignPointMatchesDirectSimulation) {
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  catalog.apply_decode(SeqLenDist::kLogNormal, 16);

  CampaignConfig cfg;
  cfg.base.catalog = catalog;
  cfg.base.sim.decode_mode = DecodeMode::kContinuous;
  cfg.base.traffic.open.request_count = 3000;
  cfg.base.traffic.open.seed = 17;
  cfg.qps = {0.7 * fleet_capacity_qps(catalog, "tron", 2, 8)};
  cfg.schedulers = {SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {2};
  cfg.max_batches = {8};
  const std::vector<CampaignPoint> points = run_campaign(cfg);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_GT(points[0].metrics.decode_requests, 0u);

  TraceConfig trace_cfg;
  trace_cfg.offered_qps = cfg.qps[0];
  trace_cfg.request_count = cfg.base.traffic.open.request_count;
  trace_cfg.seed = cfg.base.traffic.open.seed + 0x9E3779B9u * 1;
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait_s = cfg.base.batch.max_wait_s;
  SimConfig sim_cfg;
  sim_cfg.decode_mode = DecodeMode::kContinuous;
  const FleetMetrics serial =
      simulate_trace(FleetConfig::homogeneous("tron", 2), catalog,
                     generate_trace(catalog, trace_cfg), SchedulerKind::kDynamicBatch,
                     policy, sim_cfg);
  EXPECT_EQ(points[0].metrics.p99_latency_s, serial.p99_latency_s);
  EXPECT_EQ(points[0].metrics.generated_tokens, serial.generated_tokens);
  EXPECT_EQ(points[0].metrics.tokens_per_s, serial.tokens_per_s);
  EXPECT_EQ(points[0].metrics.p95_ttft_s, serial.p95_ttft_s);
  EXPECT_EQ(points[0].metrics.p95_tpot_s, serial.p95_tpot_s);
}

}  // namespace
}  // namespace lumos::serve
