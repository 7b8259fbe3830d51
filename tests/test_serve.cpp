// Tests for the serving simulator subsystem: the workload registry, trace
// generation, the estimate cache (bit-identical to uncached calls), the
// schedulers, the Scenario-driven discrete-event loop, and campaign
// determinism (the parallel_for sweep must equal a serial simulation of the
// same point).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/registry.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "perf_report_matchers.hpp"
#include "serve/campaign.hpp"
#include "serve/event.hpp"
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
      expect_reports_identical(cache.estimate(w, batch),
                               acc.estimate(catalog.workload(w).transformer_config(), batch));
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
                               acc.estimate(wl.gnn_model(), wl.dataset(), batch));
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

// The event loop holds reports across later lookups (a decoding slot keeps
// its step's price), so 640 keys, which grow each keyspace's index several
// times, must leave every earlier reference at its address and its bits; a
// prefill and a decode key of the same (workload, batch, length) stay apart.
TEST(EstimateCache, ReferencesSurviveGrowth) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  const EstimateCache cache("tron", catalog);
  const std::unique_ptr<arch::Accelerator> acc = arch::make_accelerator("tron");
  struct Held {
    std::uint32_t workload;
    std::size_t batch;
    std::uint32_t length;
    const PerfReport* prefill;
    const PerfReport* step;
  };
  std::vector<Held> held;
  for (std::uint32_t length = 32; length <= 512; length += 32) {
    for (const std::size_t batch : {1, 2, 3, 5, 8}) {
      for (std::uint32_t w = 0; w < catalog.size(); ++w) {
        held.push_back({w, batch, length, &cache.estimate(w, batch, length),
                        &cache.decode_step(w, batch, length)});
      }
    }
  }
  ASSERT_EQ(held.size(), 320u);
  EXPECT_EQ(cache.lookups(), 640u);
  EXPECT_EQ(cache.misses(), 640u);
  for (const Held& h : held) {
    SCOPED_TRACE(std::to_string(h.workload) + " x" + std::to_string(h.batch) + " @" +
                 std::to_string(h.length));
    EXPECT_EQ(&cache.estimate(h.workload, h.batch, h.length), h.prefill);
    EXPECT_EQ(&cache.decode_step(h.workload, h.batch, h.length), h.step);
    EXPECT_NE(h.prefill, h.step);
    const arch::Workload& wl = catalog.workload(h.workload);
    expect_reports_identical(*h.prefill, acc->estimate(wl.with_seq_len(h.length), h.batch));
    expect_reports_identical(*h.step, acc->estimate_decode_step(wl, h.batch, h.length));
  }
  EXPECT_EQ(cache.lookups(), 1280u);
  EXPECT_EQ(cache.misses(), 640u);
}

// ---------------------------------------------------------------------------
// GHOST batched estimates
// ---------------------------------------------------------------------------

TEST(GhostBatch, LatencySubLinearAndEnergyAmortised) {
  const ghost::GhostAccelerator acc(ghost::default_ghost_config());
  const gnn::GnnModelConfig model = sim::gnn_by_name("gcn");
  const graph::GraphDataset ds = sim::dataset_by_name("cora");
  const PerfReport one = acc.estimate(model, ds, 1);
  const PerfReport eight = acc.estimate(model, ds, 8);
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

Request make_request(std::uint64_t id, double arrival_s, std::uint32_t workload,
                     std::uint32_t seq_len) {
  Request r = make_request(id, arrival_s, workload);
  r.seq_len = seq_len;
  return r;
}

// The pop that empties a bucket erases it: nothing of it is left to wake the
// event loop, to report ready, or to count as queued.
TEST(Scheduler, DrainedBucketLeavesNoDeadlineReadinessOrQueue) {
  BatchPolicy policy;
  policy.max_batch = 2;
  policy.max_wait_s = 0.5;
  const auto sched = make_scheduler(SchedulerKind::kDynamicBatch, policy);
  sched->enqueue(make_request(0, 1.0, 3, 64), 1.0);
  sched->enqueue(make_request(1, 1.1, 3, 64), 1.1);
  EXPECT_EQ(sched->pop(1.1).size(), 2u);  // full bucket, drained by pop
  EXPECT_EQ(sched->next_deadline_s(), kNever);
  EXPECT_FALSE(sched->ready(10.0));
  EXPECT_EQ(sched->queued(3), 0u);
  EXPECT_EQ(sched->queued(), 0u);

  sched->enqueue(make_request(2, 2.0, 3, 64), 2.0);
  std::vector<Request> out;
  EXPECT_EQ(sched->pop_joiners(3, 4, 2.0, out), 1u);  // drained by pop_joiners
  EXPECT_EQ(sched->next_deadline_s(), kNever);
  EXPECT_FALSE(sched->ready(10.0));
  EXPECT_EQ(sched->queued(3), 0u);
  EXPECT_EQ(sched->queued(), 0u);
}

TEST(Scheduler, RequestReenteringDrainedBucketGetsItsOwnDeadline) {
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait_s = 0.5;
  const auto sched = make_scheduler(SchedulerKind::kDynamicBatch, policy);
  sched->enqueue(make_request(0, 1.0, 1, 128), 1.0);
  EXPECT_EQ(sched->pop(1.5).size(), 1u);  // deadline pop drains the bucket
  sched->enqueue(make_request(1, 4.0, 1, 128), 4.0);
  EXPECT_EQ(sched->next_deadline_s(), 4.5);
  EXPECT_FALSE(sched->ready(4.25));
  EXPECT_TRUE(sched->ready(4.5));

  std::vector<Request> out;
  EXPECT_EQ(sched->pop_joiners(1, 1, 4.25, out), 1u);  // drained again
  sched->enqueue(make_request(2, 6.0, 1, 128), 6.0);
  EXPECT_EQ(sched->next_deadline_s(), 6.5);
  EXPECT_FALSE(sched->ready(6.25));
  EXPECT_TRUE(sched->ready(6.5));
}

TEST(Scheduler, LongestWaitingOrderHoldsAcrossThousandDrainedBuckets) {
  BatchPolicy policy;
  policy.max_batch = 1;  // every bucket is full, so each pop drains one
  policy.max_wait_s = 0.5;
  const auto sched = make_scheduler(SchedulerKind::kDynamicBatch, policy);
  // Bucket (s % 4, s) arrives at (1000 - s) ms: the longest-waiting order is
  // descending s, against the map's key order.
  constexpr std::uint32_t kBuckets = 1000;
  for (std::uint32_t s = 1; s <= kBuckets; ++s) {
    const double arrival_s = (kBuckets - s) * 1e-3;
    sched->enqueue(make_request(s, arrival_s, s % 4, s), arrival_s);
  }
  for (std::uint32_t s = kBuckets; s >= 1; --s) {
    const std::vector<Request> batch = sched->pop(1.0);
    ASSERT_EQ(batch.size(), 1u);
    ASSERT_EQ(batch[0].seq_len, s);
  }
  EXPECT_EQ(sched->queued(), 0u);
  EXPECT_EQ(sched->next_deadline_s(), kNever);
  EXPECT_FALSE(sched->ready(2.0));

  // Refilled in scattered key order, the buckets still pop oldest first.
  const std::uint32_t refill[] = {500, 3, 999, 42, 1};
  for (std::uint32_t k = 0; k < 5; ++k) {
    const double arrival_s = 2.0 + k * 1e-3;
    sched->enqueue(make_request(k, arrival_s, refill[k] % 4, refill[k]), arrival_s);
  }
  EXPECT_EQ(sched->next_deadline_s(), 2.5);
  for (const std::uint32_t s : refill) {
    const std::vector<Request> batch = sched->pop(3.0);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].seq_len, s);
  }
  EXPECT_EQ(sched->queued(), 0u);
}

// An enqueue reports a possible change to `ready` or `next_deadline_s` only
// when it opens a bucket (a new deadline) or fills one to max_batch (FIFO:
// when a workload's sub-queue leaves empty); the event loop skips its
// dispatch round on every other push.
TEST(Scheduler, EnqueueReportsOpenAndFillOnly) {
  BatchPolicy policy;
  policy.max_batch = 4;
  policy.max_wait_s = 0.5;
  const auto sched = make_scheduler(SchedulerKind::kDynamicBatch, policy);
  const bool expected[] = {true, false, false, true, false};
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sched->enqueue(make_request(i, 1.0, 2, 64), 1.0), expected[i]) << "push " << i;
  }
  EXPECT_TRUE(sched->enqueue(make_request(5, 1.0, 2, 128), 1.0));  // second seq bucket
  EXPECT_EQ(sched->pop(1.0).size(), 4u);  // the full bucket leaves one behind
  EXPECT_FALSE(sched->enqueue(make_request(6, 1.1, 2, 64), 1.1));
  EXPECT_EQ(sched->pop(1.5).size(), 2u);  // deadline pop drains and erases it
  EXPECT_TRUE(sched->enqueue(make_request(7, 1.6, 2, 64), 1.6));

  policy.max_batch = 1;
  const auto single = make_scheduler(SchedulerKind::kDynamicBatch, policy);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(single->enqueue(make_request(i, 1.0, i % 2, 64), 1.0)) << "push " << i;
    EXPECT_EQ(single->pop(1.0).size(), 1u);
  }
  EXPECT_TRUE(single->enqueue(make_request(4, 1.0, 0, 64), 1.0));
  EXPECT_TRUE(single->enqueue(make_request(5, 1.0, 0, 128), 1.0));

  const auto fifo = make_scheduler(SchedulerKind::kFifo, {});
  EXPECT_TRUE(fifo->enqueue(make_request(0, 0.0, 1), 0.0));
  EXPECT_FALSE(fifo->enqueue(make_request(1, 0.1, 1), 0.1));
  EXPECT_TRUE(fifo->enqueue(make_request(2, 0.2, 0), 0.2));  // another sub-queue
  EXPECT_FALSE(fifo->enqueue(make_request(3, 0.3, 0), 0.3));
  EXPECT_EQ(fifo->pop(0.3)[0].id, 0u);
  EXPECT_FALSE(fifo->enqueue(make_request(4, 0.4, 1), 0.4));  // one still waits
  EXPECT_EQ(fifo->pop(0.4)[0].id, 1u);
  EXPECT_EQ(fifo->pop(0.4)[0].id, 2u);
  EXPECT_EQ(fifo->pop(0.4)[0].id, 3u);
  EXPECT_EQ(fifo->pop(0.4)[0].id, 4u);
  EXPECT_TRUE(fifo->enqueue(make_request(5, 0.5, 1), 0.5));  // empty again
}

// `queued(workload)` and `queued()` equal a count of the requests the test
// still holds after every operation of a seeded mix: enqueues across
// workloads and seq buckets, masked pops, and joiner pops (one workload past
// the enqueued ones asks about work that never arrived).
TEST(Scheduler, QueuedMatchesABruteForceCount) {
  constexpr std::uint32_t kWorkloads = 4;
  BatchPolicy policy;
  policy.max_batch = 3;
  policy.max_wait_s = 2e-3;
  for (const SchedulerKind kind : {SchedulerKind::kFifo, SchedulerKind::kDynamicBatch}) {
    SCOPED_TRACE(kind == SchedulerKind::kFifo ? "fifo" : "dynamic batching");
    const auto sched = make_scheduler(kind, policy, {0, 1, 0, 1});
    Rng rng(17, 0x0E0E);
    std::vector<Request> held;
    std::size_t popped = 0;
    std::size_t joined = 0;
    double now_s = 0.0;
    for (std::uint64_t id = 0; id < 4000; ++id) {
      now_s += rng.uniform(0.0, 1e-3);
      std::vector<Request> out;
      const std::uint64_t roll = rng.next_below(10);
      if (roll < 6) {
        const auto workload = static_cast<std::uint32_t>(rng.next_below(kWorkloads));
        const auto seq_len = static_cast<std::uint32_t>(32 * (1 + rng.next_below(3)));
        const Request r = make_request(id, now_s, workload, seq_len);
        sched->enqueue(r, now_s);
        held.push_back(r);
      } else if (roll < 8) {
        std::vector<char> allowed(kWorkloads);
        for (char& a : allowed) a = static_cast<char>(rng.next_below(2));
        sched->pop(now_s, WorkloadMask(&allowed), out);
        popped += out.size();
      } else {
        joined += sched->pop_joiners(static_cast<std::uint32_t>(rng.next_below(kWorkloads + 1)),
                                     1 + rng.next_below(4), now_s, out);
      }
      for (const Request& r : out) {
        const auto it = std::find_if(held.begin(), held.end(),
                                     [&](const Request& h) { return h.id == r.id; });
        ASSERT_NE(it, held.end()) << "request " << r.id << " popped twice";
        held.erase(it);
      }
      ASSERT_EQ(sched->queued(), held.size()) << "after operation " << id;
      for (std::uint32_t w = 0; w <= kWorkloads; ++w) {
        const auto count = static_cast<std::size_t>(std::count_if(
            held.begin(), held.end(), [&](const Request& h) { return h.workload == w; }));
        ASSERT_EQ(sched->queued(w), count) << "workload " << w << " after operation " << id;
      }
    }
    EXPECT_GT(popped, 0u);
    EXPECT_GT(joined, 0u);
    EXPECT_GT(held.size(), 0u);
  }
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
  // A deadline that never fires (or compares false) names the field instead
  // of tripping the event loop's or the scheduler's internal checks.
  for (const double wait : {std::numeric_limits<double>::infinity(), std::nan("")}) {
    BatchPolicy endless;
    endless.max_wait_s = wait;
    expect_invalid(
        [&] {
          (void)simulate_trace(fleet, catalog, trace, SchedulerKind::kDynamicBatch, endless);
        },
        "max_wait_s");
  }
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
  for (const double qps : {-1.0, std::numeric_limits<double>::infinity(), std::nan("")}) {
    scenario.traffic.open.offered_qps = qps;
    expect_invalid([&] { (void)simulate(scenario); }, "offered_qps");
  }
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

TEST(Validation, SeqLenDistsSampleTransformerEntriesOnly) {
  // A catalog of GNN entries only has nothing to sample lengths for.
  WorkloadCatalog ghost = WorkloadCatalog::ghost_default();
  expect_invalid([&] { ghost.apply_seqlen_dist(SeqLenDist::kLogNormal); },
                 "no transformer entry");
  // apply_seqlen_dist over a mixed catalog touches only transformer entries.
  WorkloadCatalog mixed = WorkloadCatalog::mixed_default();
  EXPECT_NO_THROW(mixed.apply_seqlen_dist(SeqLenDist::kLogNormal));
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    const bool is_transformer =
        mixed.workload(i).kind() == arch::WorkloadKind::kTransformer;
    EXPECT_EQ(mixed.at(i).seqlen != SeqLenDist::kFixed, is_transformer);
    EXPECT_EQ(mixed.at(i).prompt().center,
              is_transformer ? mixed.workload(i).transformer_config().seq_len : 0u);
  }
}

TEST(Validation, FleetFactoriesRejectEmptyAndZero) {
  expect_invalid([] { (void)FleetConfig::cycled({}, 4); }, "specs");
  expect_invalid([] { (void)FleetConfig::homogeneous("tron", 0); }, "fleet size");
}

TEST(Validation, CampaignConfigNamesBadField) {
  CampaignConfig good;
  good.base.catalog = WorkloadCatalog::tron_default();
  good.base.traffic.open.request_count = 100;
  good.qps = {1000.0};

  CampaignConfig c = good;
  c.qps.clear();
  expect_invalid([&] { (void)run_campaign(c); }, "CampaignConfig.qps");
  c = good;
  c.qps = {-5.0};
  expect_invalid([&] { (void)run_campaign(c); }, "CampaignConfig.qps");
  c = good;
  c.schedulers.clear();
  expect_invalid([&] { (void)run_campaign(c); }, "CampaignConfig.schedulers");
  c = good;
  c.fleet_sizes = {0};
  expect_invalid([&] { (void)run_campaign(c); }, "CampaignConfig.fleet_sizes");
  c = good;
  c.max_batches = {0};
  expect_invalid([&] { (void)run_campaign(c); }, "BatchPolicy.max_batch");
  c = good;
  c.base.traffic.open.request_count = 0;
  expect_invalid([&] { (void)run_campaign(c); }, "TraceConfig.request_count");
  c = good;
  c.fleet_templates.clear();
  expect_invalid([&] { (void)run_campaign(c); }, "CampaignConfig.fleet_templates");
  c = good;
  c.base.catalog = WorkloadCatalog();
  expect_invalid([&] { (void)run_campaign(c); }, "Scenario.catalog");
}

// A campaign sweeps offered open-loop load: a base Scenario that replays a
// trace, drives closed-loop sessions or carries observers has no load to
// sweep, so run_campaign rejects it.
TEST(Validation, CampaignBaseMustBeGeneratedOpenLoop) {
  CampaignConfig good;
  good.base.catalog = WorkloadCatalog::tron_default();
  good.base.traffic.open.request_count = 100;
  good.qps = {1000.0};
  ASSERT_NO_THROW((void)run_campaign(good));

  CampaignConfig c = good;
  TraceConfig trace_cfg;
  trace_cfg.request_count = 100;
  c.base.trace = generate_trace(c.base.catalog, trace_cfg);
  expect_invalid([&] { (void)run_campaign(c); }, "CampaignConfig.base");
  c = good;
  c.base.traffic.mode = LoopMode::kClosed;
  expect_invalid([&] { (void)run_campaign(c); }, "CampaignConfig.base");
  c = good;
  c.base.observe.profile = true;
  expect_invalid([&] { (void)run_campaign(c); }, "CampaignConfig.base");
}

// ---------------------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------------------

TEST(Campaign, ParallelSweepMatchesSerialSimulation) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  CampaignConfig cfg;
  cfg.base.catalog = catalog;
  cfg.base.traffic.open.request_count = 5000;
  cfg.base.traffic.open.seed = 17;
  cfg.qps = {0.6 * fleet_capacity_qps(catalog, "tron", 2, 8)};
  cfg.schedulers = {SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {2};
  cfg.max_batches = {8};
  const std::vector<CampaignPoint> points = run_campaign(cfg);
  ASSERT_EQ(points.size(), 1u);

  // Re-run the same grid point serially with the campaign's derived seed: the
  // parallel_for sweep must be bit-identical (this plus the CI LUMOS_THREADS
  // matrix locks in determinism across thread counts).
  TraceConfig trace_cfg;
  trace_cfg.offered_qps = cfg.qps[0];
  trace_cfg.request_count = cfg.base.traffic.open.request_count;
  trace_cfg.seed = cfg.base.traffic.open.seed + 0x9E3779B9u * 1;
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait_s = cfg.base.batch.max_wait_s;
  SimConfig sim_cfg;
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
  CampaignConfig cfg;
  cfg.base.catalog = WorkloadCatalog::tron_default();
  cfg.base.traffic.open.request_count = 200;
  cfg.qps = {1000.0, 2000.0};
  cfg.schedulers = {SchedulerKind::kFifo, SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {1};
  cfg.max_batches = {4, 8};
  const std::vector<CampaignPoint> points = run_campaign(cfg);
  // FIFO collapses the batch dimension: 2 qps + 2 batches x 2 qps = 6 points.
  EXPECT_EQ(points.size(), 6u);
}

TEST(Campaign, MixedFleetTemplateSweepCompletes) {
  const WorkloadCatalog catalog = WorkloadCatalog::mixed_default();
  CampaignConfig cfg;
  cfg.base.catalog = catalog;
  cfg.base.traffic.open.request_count = 4000;
  cfg.base.traffic.open.seed = 23;
  cfg.fleet_templates = {{"tron", "ghost"}};
  cfg.qps = {0.5 * fleet_capacity_qps(catalog, FleetConfig::cycled({"tron", "ghost"}, 4), 8)};
  cfg.schedulers = {SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {4};
  cfg.max_batches = {8};
  const std::vector<CampaignPoint> points = run_campaign(cfg);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].metrics.completed, 4000u);
  EXPECT_GT(points[0].metrics.goodput_qps, 0.0);
}

// ---------------------------------------------------------------------------
// Pinned bits
// ---------------------------------------------------------------------------

// A small TRON decode run: two slots, the default transformer mix decoding
// log-normal 16-token tails, under `mode`.
Scenario pinned_decode_run(DecodeMode mode) {
  Scenario decode;
  decode.catalog = WorkloadCatalog::tron_default();
  decode.catalog.apply_decode(SeqLenDist::kLogNormal, 16);
  decode.fleet = FleetConfig::homogeneous("tron", 2);
  decode.batch.max_batch = 8;
  decode.sim.decode_mode = mode;
  decode.traffic.open.offered_qps = 2000.0;
  decode.traffic.open.request_count = 4000;
  decode.traffic.open.seed = 29;
  return decode;
}

// Latency statistics recorded as hex floats before the end-of-run sample runs
// sorted on the pool: every percentile, maximum and arrival-order mean keeps
// its bits whichever thread sorts which run (ctest runs this under one and
// four pool threads).
TEST(PinnedBits, SerialAndDecodeLatencies) {
  // fleetbench's serve_tron_serial scenario at 100k requests.
  Scenario serial;
  serial.fleet = FleetConfig::homogeneous("tron", 16);
  serial.catalog = WorkloadCatalog::tron_default();
  serial.scheduler = SchedulerKind::kDynamicBatch;
  serial.batch.max_batch = 8;
  serial.sim.percentile_mode = PercentileMode::kExact;
  serial.traffic.open.offered_qps = 94400.0;
  serial.traffic.open.request_count = 100000;
  serial.traffic.open.seed = 1;
  const FleetMetrics m = simulate(serial);
  EXPECT_EQ(m.p50_latency_s, 0x1.4afc130f8d7cp-10);
  EXPECT_EQ(m.p95_latency_s, 0x1.d03750c16a2p-10);
  EXPECT_EQ(m.p99_latency_s, 0x1.0365b2314c5p-9);
  EXPECT_EQ(m.p999_latency_s, 0x1.2776cc22cacccp-9);
  EXPECT_EQ(m.mean_latency_s, 0x1.1fc5e9d8af09fp-10);
  EXPECT_EQ(m.max_latency_s, 0x1.7114646a40cp-9);
  const struct {
    const char* name;
    double p50, p99, max, mean;
  } tenants[] = {
      {"bert-base/128", 0x1.2544da54f98p-11, 0x1.a1ce6f8cc17cp-11, 0x1.3d10de72dd2p-9,
       0x1.2c0d7767fa9bp-11},
      {"bert-large/128", 0x1.aa10ff90ccdp-10, 0x1.1452f37ae348p-9, 0x1.53cb0be010ap-9,
       0x1.b100bd87ab3c1p-10},
      {"gpt2/256", 0x1.6611ebe9776p-10, 0x1.b9989907de94p-10, 0x1.589b915a49cp-9,
       0x1.6aa2fcef2080dp-10},
      {"vit", 0x1.37b69d5807cp-10, 0x1.16774ebe4154p-9, 0x1.7114646a40cp-9,
       0x1.44159e9fec233p-10},
  };
  ASSERT_EQ(m.tenants.size(), std::size(tenants));
  for (std::size_t w = 0; w < m.tenants.size(); ++w) {
    const TenantMetrics& t = m.tenants[w];
    SCOPED_TRACE(t.name);
    EXPECT_EQ(t.name, tenants[w].name);
    EXPECT_EQ(t.p50_latency_s, tenants[w].p50);
    EXPECT_EQ(t.p99_latency_s, tenants[w].p99);
    EXPECT_EQ(t.max_latency_s, tenants[w].max);
    EXPECT_EQ(t.mean_latency_s, tenants[w].mean);
  }

  // A small continuous-batching decode run: the TTFT and TPOT runs.
  const FleetMetrics d = simulate(pinned_decode_run(DecodeMode::kContinuous));
  ASSERT_EQ(d.decode_requests, 4000u);
  EXPECT_EQ(d.p50_ttft_s, 0x1.38a0bc0a9914p-6);
  EXPECT_EQ(d.p99_ttft_s, 0x1.1b2c62a2f3ffcp-3);
  EXPECT_EQ(d.mean_ttft_s, 0x1.f2039017b822ep-6);
  EXPECT_EQ(d.p50_tpot_s, 0x1.cb59d7a31a186p-13);
  EXPECT_EQ(d.p99_tpot_s, 0x1.c5f2e994634ecp-11);
  EXPECT_EQ(d.mean_tpot_s, 0x1.49909f54051bdp-12);
}

// The decode loop's outcomes, recorded as hex floats before counter-only
// token boundaries kept their step's cached price: the decode run above in
// monolithic mode, the continuous run with slot faults aborting it mid-step,
// a FIFO decode run whose requests time out and retry, and a small cost-aware
// TRON+V100 closed loop.  Each row holds only fields that read the same bits
// with and without FMA contraction (Release and Debug builds), so the hybrid
// row pins times and counters and no roofline energy.  The lookup counts were
// recorded later, once counter-only boundaries looked their price up only at a
// bucket crossing, from the code before lanes derived their counters.
TEST(PinnedBits, DecodeLoops) {
  Scenario faulted = pinned_decode_run(DecodeMode::kContinuous);
  faulted.sim.faults.mtbf_s = 0.05;
  faulted.sim.faults.mttr_s = 0.005;
  faulted.sim.faults.seed = 3;
  Scenario fifo = pinned_decode_run(DecodeMode::kContinuous);
  fifo.scheduler = SchedulerKind::kFifo;
  fifo.traffic.open.offered_qps = 300.0;
  fifo.catalog.apply_timeout(0.015);
  fifo.sim.retry.max_attempts = 3;
  fifo.sim.retry.base_backoff_s = 1e-3;
  fifo.sim.retry.seed = 5;
  Scenario hybrid;
  hybrid.fleet = FleetConfig::cycled({"tron", "v100"}, 4, RoutingPolicy::kCostAware);
  hybrid.catalog = WorkloadCatalog::tron_default();
  hybrid.catalog.apply_seqlen_dist(SeqLenDist::kLogNormal);
  hybrid.catalog.apply_decode(SeqLenDist::kLogNormal, 16);
  hybrid.batch.max_batch = 8;
  hybrid.sim.decode_mode = DecodeMode::kContinuous;
  hybrid.traffic.mode = LoopMode::kClosed;
  hybrid.traffic.closed.sessions = 32;
  hybrid.traffic.closed.requests_per_session = 50;
  hybrid.traffic.closed.think_time_mean_s = 1e-3;
  hybrid.traffic.closed.seed = 31;

  const struct Pin {
    const char* name;
    Scenario scenario;
    std::size_t completed, generated_tokens, aborted_decode_tokens, decode_steps, dispatches,
        attempt_timeouts, retried_attempts, within_slo, estimate_misses, estimate_lookups;
    double duration_s, p99_latency_s, mean_latency_s, p50_ttft_s, p99_ttft_s, mean_ttft_s,
        p50_tpot_s, p99_tpot_s, mean_tpot_s, busy_slot_s;
  } pins[] = {
      {"monolithic", pinned_decode_run(DecodeMode::kMonolithic), 4000, 74468, 0, 17170, 510, 0,
       0, 22, 67, 4300, 0x1.30bbd0e9b4439p+1, 0x1.a744300a5d51cp-2, 0x1.d6e2bed4e2589p-3,
       0x1.e8124de62aa84p-3, 0x1.a42aad1edc9e8p-2, 0x1.cdebfc4731f74p-3, 0x1.5e8f57765e8p-13,
       0x1.3698bac3d84p-11, 0x1.053ad04289f11p-12, 0x1.304eef4253cf4p+2},
      {"faulted continuous", faulted, 4000, 74468, 5225, 10966, 105, 0, 0, 156, 90, 6853,
       0x1.0920388d1f3d8p+1, 0x1.7dd8cf59cf664p-3, 0x1.1af220609dc76p-4, 0x1.e76ebceed675p-5,
       0x1.620b40a121418p-3, 0x1.0419c4fc8b585p-4, 0x1.d1b01aec3daabp-13, 0x1.be7b8c7986cp-11,
       0x1.4c0857f010fe6p-12, 0x1.d6f2f400c3157p+1},
      {"fifo with timeouts", fifo, 1895, 30113, 67901, 92995, 5448, 7096, 4991, 346, 13, 10965,
       0x1.a46fc7a5ebfdfp+3, 0x1.b34efd362334p-5, 0x1.24d9c84bfa196p-6, 0x1.58e05795fb5p-7,
       0x1.971588a494bcp-5, 0x1.eaa88cf52aacdp-7, 0x1.5e8f57766p-13, 0x1.3698bac3d82p-11,
       0x1.a9637deb5e1b9p-13, 0x1.90e5d2c921fd7p+4},
      {"tron+v100 closed loop", hybrid, 1600, 29700, 0, 6313, 42, 0, 0, 825, 604, 3988,
       0x1.24b8ca9b9ad4fp+0, 0x1.f48413aebca3cp-4, 0x1.b6bd21880c1aep-7, 0x1.85cccb765ebp-11,
       0x1.0616b94fa6dbcp-4, 0x1.d4dc51c9adc57p-9, 0x1.e6fe16583ad55p-13, 0x1.e474fba6ef895p-9,
       0x1.228c6327f6b71p-11, 0x1.dd3c9c302d5ddp+1},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const FleetMetrics m = simulate(pin.scenario);
    EXPECT_EQ(m.completed, pin.completed);
    EXPECT_EQ(m.decode_requests, pin.completed);
    EXPECT_EQ(m.generated_tokens, pin.generated_tokens);
    EXPECT_EQ(m.aborted_decode_tokens, pin.aborted_decode_tokens);
    EXPECT_EQ(m.decode_steps, pin.decode_steps);
    EXPECT_EQ(m.dispatches, pin.dispatches);
    EXPECT_EQ(m.attempt_timeouts, pin.attempt_timeouts);
    EXPECT_EQ(m.retried_attempts, pin.retried_attempts);
    EXPECT_EQ(m.within_slo, pin.within_slo);
    EXPECT_EQ(m.estimate_misses, pin.estimate_misses);
    EXPECT_EQ(m.estimate_lookups, pin.estimate_lookups);
    EXPECT_EQ(m.duration_s, pin.duration_s);
    EXPECT_EQ(m.p99_latency_s, pin.p99_latency_s);
    EXPECT_EQ(m.mean_latency_s, pin.mean_latency_s);
    EXPECT_EQ(m.p50_ttft_s, pin.p50_ttft_s);
    EXPECT_EQ(m.p99_ttft_s, pin.p99_ttft_s);
    EXPECT_EQ(m.mean_ttft_s, pin.mean_ttft_s);
    EXPECT_EQ(m.p50_tpot_s, pin.p50_tpot_s);
    EXPECT_EQ(m.p99_tpot_s, pin.p99_tpot_s);
    EXPECT_EQ(m.mean_tpot_s, pin.mean_tpot_s);
    EXPECT_EQ(m.tally.busy_slot_s, pin.busy_slot_s);
  }
}

// Two TRON slots of four lanes over an explicit trace of 900 gpt2/256
// requests whose decode lengths mix 0, 1, 2, 5 and 17 tokens (and prompts of
// the native 256, 96 and 240 tokens), under `mode`.  A 0- or 1-token request
// that boards at a token boundary is a joiner that finishes at the end of the
// step that prefills it; with `faults`, slot failures abort decode steps,
// joining steps among them.
Scenario pinned_lane_run(DecodeMode mode, bool faults) {
  Scenario s;
  s.catalog = WorkloadCatalog::tron_default();
  s.fleet = FleetConfig::homogeneous("tron", 2);
  s.batch.max_batch = 4;
  s.sim.decode_mode = mode;
  if (faults) {
    s.sim.faults.mtbf_s = 0.03;
    s.sim.faults.mttr_s = 0.003;
    s.sim.faults.seed = 7;
  }
  Rng rng(43);
  const std::uint32_t lengths[] = {0, 1, 2, 5, 17};
  const std::uint32_t prompts[] = {0, 96, 240};
  double t = 0.0;
  for (std::uint64_t id = 0; id < 900; ++id) {
    t += rng.exponential(3e-4);
    Request r;
    r.id = id;
    r.arrival_s = t;
    r.workload = 2;
    r.seq_len = prompts[rng.next_below(3)];
    r.decode_tokens = lengths[rng.next_below(5)];
    s.trace.push_back(r);
  }
  return s;
}

// The decode lanes' edge cases, recorded as hex floats before lanes derived
// their token counters from their slot's step count: the same bits in the
// Release and the Debug+ASan build.
TEST(PinnedBits, DecodeLanes) {
  const struct Pin {
    const char* name;
    Scenario scenario;
    std::size_t decode_requests, aborted_decode_tokens, decode_steps, estimate_lookups,
        estimate_misses;
    double duration_s, p50_ttft_s, p99_ttft_s, mean_ttft_s, p50_tpot_s, p99_tpot_s,
        mean_tpot_s;
  } pins[] = {
      {"continuous", pinned_lane_run(DecodeMode::kContinuous, false), 724, 0, 1498, 1547, 27,
       0x1.2297902ac00f8p-2, 0x1.49dad0acbc7p-11, 0x1.2f604193862p-9, 0x1.ab1942ab947d7p-11,
       0x1.e2051842c1fp-13, 0x1.db6049a7fafp-12, 0x1.00db3b1f8a58p-12},
      {"faulted continuous", pinned_lane_run(DecodeMode::kContinuous, true), 724, 261, 1403,
       1467, 27, 0x1.22ebf426a522cp-2, 0x1.0b0f29a7131p-10, 0x1.c2993ec2882cp-8,
       0x1.a8eba93549047p-10, 0x1.e2051842c1fp-13, 0x1.db6049a7fafp-12,
       0x1.034d30ff80fb9p-12},
      {"monolithic", pinned_lane_run(DecodeMode::kMonolithic, false), 724, 0, 2438, 671, 27,
       0x1.2365f50761ea4p-2, 0x1.f5b20c295109p-9, 0x1.9ee082e815358p-7, 0x1.4180681a14c02p-8,
       0x1.5e8f57765e8p-13, 0x1.5e8f57765e82p-13, 0x1.5e8f57765e8p-13},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const FleetMetrics m = simulate(pin.scenario);
    EXPECT_EQ(m.completed, 900u);
    EXPECT_EQ(m.decode_requests, pin.decode_requests);
    EXPECT_EQ(m.generated_tokens, 4367u);
    EXPECT_EQ(m.aborted_decode_tokens, pin.aborted_decode_tokens);
    EXPECT_EQ(m.decode_steps, pin.decode_steps);
    EXPECT_EQ(m.estimate_lookups, pin.estimate_lookups);
    EXPECT_EQ(m.estimate_misses, pin.estimate_misses);
    EXPECT_EQ(m.duration_s, pin.duration_s);
    EXPECT_EQ(m.p50_ttft_s, pin.p50_ttft_s);
    EXPECT_EQ(m.p99_ttft_s, pin.p99_ttft_s);
    EXPECT_EQ(m.mean_ttft_s, pin.mean_ttft_s);
    EXPECT_EQ(m.p50_tpot_s, pin.p50_tpot_s);
    EXPECT_EQ(m.p99_tpot_s, pin.p99_tpot_s);
    EXPECT_EQ(m.mean_tpot_s, pin.mean_tpot_s);
  }
}

}  // namespace
}  // namespace lumos::serve
