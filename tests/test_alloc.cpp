// Heap allocations of the serving loop: a counting global `operator new`
// measures how many allocations `simulate` makes, and the tests require that
// the count does not grow with the request count.  The scheduler's batching
// buckets keep their storage once opened, and the end-of-run sample runs sort
// in place, so a longer run of the same shape allocates only as its
// growing vectors double.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "serve/simulator.hpp"
#include "sim/registry.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// The plain and nothrow forms count; every delete frees.  The aligned forms
// keep the library's own pair.
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lumos::serve {
namespace {

// Allocations one `simulate` of `scenario` makes.
std::uint64_t allocations_of(const Scenario& scenario) {
  const std::uint64_t before = g_allocations.load();
  const FleetMetrics m = simulate(scenario);
  const std::uint64_t after = g_allocations.load();
  EXPECT_GT(m.completed, 0u);
  return after - before;
}

// 16 TRON slots, dynamic batching up to 8, exact percentiles and Poisson
// arrivals at 70% of capacity: the serial open loop, without decode.
Scenario tron_open_loop(std::size_t requests) {
  Scenario s;
  s.fleet = FleetConfig::homogeneous("tron", 16);
  s.catalog = WorkloadCatalog::tron_default();
  s.scheduler = SchedulerKind::kDynamicBatch;
  s.batch.max_batch = 8;
  s.sim.percentile_mode = PercentileMode::kExact;
  s.traffic.open.offered_qps = 94400.0;
  s.traffic.open.request_count = requests;
  s.traffic.open.seed = 1;
  return s;
}

// 512 closed-loop sessions on 8 alternating TRON / V100 slots under
// cost-aware routing: three tenants on two tiers with log-normal prompt and
// decode lengths, continuous-batching decode, slot faults, and timeouts with
// up to two retries.
Scenario hybrid_closed_loop(std::size_t requests_per_session) {
  WorkloadCatalog catalog;
  catalog.add_transformer("vit-premium", sim::transformer_by_name("vit"), 0.5);
  catalog.add_transformer("bert-base/128", sim::transformer_by_name("bert-base", 128), 5.0);
  catalog.add_transformer("gpt2/256", sim::transformer_by_name("gpt2", 256), 4.5);
  catalog.set_priority(1, 1);
  catalog.set_priority(2, 1);
  catalog.apply_seqlen_dist(SeqLenDist::kLogNormal);
  catalog.apply_decode(SeqLenDist::kLogNormal, 32);
  catalog.apply_token_slos(500e-6, 100e-6);
  for (std::uint32_t w = 0; w < catalog.size(); ++w) catalog.set_slo(w, 0.02);
  catalog.apply_timeout(0.05);

  Scenario s;
  s.fleet = FleetConfig::cycled({"tron", "v100"}, 8, RoutingPolicy::kCostAware);
  s.catalog = std::move(catalog);
  s.scheduler = SchedulerKind::kDynamicBatch;
  s.batch.max_batch = 8;
  s.sim.decode_mode = DecodeMode::kContinuous;
  s.sim.faults.mtbf_s = 0.5;
  s.sim.faults.mttr_s = 0.005;
  s.sim.faults.seed = 1;
  s.sim.retry.max_attempts = 3;
  s.sim.retry.base_backoff_s = 1e-4;
  s.sim.retry.seed = 1;
  s.traffic.mode = LoopMode::kClosed;
  s.traffic.closed.sessions = 512;
  s.traffic.closed.requests_per_session = requests_per_session;
  s.traffic.closed.think_time_mean_s = 0.25;
  s.traffic.closed.seed = 1;
  return s;
}

// Four times the requests of the open loop cost at most 50 more allocations:
// the trace, the latency samples and the batch buffers grow by doubling, and
// a drained bucket keeps its storage for the next arrival.  (A scheduler that
// erases each drained bucket and rebuilds it makes 22,512 more.)
TEST(Allocations, OpenLoopDoesNotAllocatePerRequest) {
  (void)allocations_of(tron_open_loop(2000));  // one-time set-up off the count
  const std::uint64_t small = allocations_of(tron_open_loop(20000));
  const std::uint64_t large = allocations_of(tron_open_loop(80000));
  EXPECT_LE(large, small + 50) << "20k requests: " << small << ", 80k requests: " << large;
}

// The hybrid-shaped closed loop keeps per-session and per-slot state, so a
// run allocates a fixed amount plus less than one allocation per ten added
// requests.  (A scheduler that erases each drained bucket adds 3.2 per
// request.)
TEST(Allocations, HybridClosedLoopDoesNotAllocatePerRequest) {
  (void)allocations_of(hybrid_closed_loop(5));
  const std::uint64_t small = allocations_of(hybrid_closed_loop(50));    // 25,600 requests
  const std::uint64_t large = allocations_of(hybrid_closed_loop(200));   // 102,400 requests
  const double per_request =
      (static_cast<double>(large) - static_cast<double>(small)) / (102400.0 - 25600.0);
  EXPECT_LT(per_request, 0.1) << "25,600 requests: " << small << ", 102,400 requests: " << large;
}

}  // namespace
}  // namespace lumos::serve
