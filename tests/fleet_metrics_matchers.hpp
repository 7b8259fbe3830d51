// Shared test helper: bit-identity check over every scalar FleetMetrics
// field and every tenant's, used by the shard and generated-scenario suites.
// One copy so a new FleetMetrics field only needs adding here to stay covered
// everywhere.  `slot_availability` is left out: a merge concatenates it in
// call order.
#pragma once

#include <gtest/gtest.h>

#include "serve/metrics.hpp"

namespace lumos::testing {

// Every scalar field of `a` and `b`, and of their tenants, agrees bit for bit.
inline void expect_bit_identical(const serve::FleetMetrics& a, const serve::FleetMetrics& b) {
#define EXPECT_SAME(field) EXPECT_EQ(a.field, b.field) << #field
  EXPECT_SAME(offered_qps);
  EXPECT_SAME(completed);
  EXPECT_SAME(within_slo);
  EXPECT_SAME(duration_s);
  EXPECT_SAME(throughput_qps);
  EXPECT_SAME(goodput_qps);
  EXPECT_SAME(slo_latency_s);
  EXPECT_SAME(slo_attainment);
  EXPECT_SAME(p50_latency_s);
  EXPECT_SAME(p95_latency_s);
  EXPECT_SAME(p99_latency_s);
  EXPECT_SAME(p999_latency_s);
  EXPECT_SAME(mean_latency_s);
  EXPECT_SAME(max_latency_s);
  EXPECT_SAME(mean_queue_depth);
  EXPECT_SAME(peak_queue_depth);
  EXPECT_SAME(dispatches);
  EXPECT_SAME(batch_histogram);
  EXPECT_SAME(mean_batch_size);
  EXPECT_SAME(fleet_energy_j);
  EXPECT_SAME(energy_per_request_j);
  EXPECT_SAME(fleet_utilization);
  EXPECT_SAME(fleet_cost_usd);
  EXPECT_SAME(cost_per_request_usd);
  EXPECT_SAME(autoscale_grows);
  EXPECT_SAME(autoscale_shrinks);
  EXPECT_SAME(initial_fleet_size);
  EXPECT_SAME(peak_fleet_size);
  EXPECT_SAME(final_fleet_size);
  EXPECT_SAME(mean_fleet_size);
  EXPECT_SAME(shed_requests);
  EXPECT_SAME(timed_out_requests);
  EXPECT_SAME(attempt_timeouts);
  EXPECT_SAME(retried_attempts);
  EXPECT_SAME(failed_batches);
  EXPECT_SAME(requeued_requests);
  EXPECT_SAME(slot_failures);
  EXPECT_SAME(slot_recoveries);
  EXPECT_SAME(drop_rate);
  EXPECT_SAME(fleet_availability);
  EXPECT_SAME(observed_mttr_s);
  EXPECT_SAME(sessions);
  EXPECT_SAME(mean_session_s);
  EXPECT_SAME(p50_session_s);
  EXPECT_SAME(p99_session_s);
  EXPECT_SAME(max_session_s);
  EXPECT_SAME(decode_requests);
  EXPECT_SAME(generated_tokens);
  EXPECT_SAME(aborted_decode_tokens);
  EXPECT_SAME(decode_steps);
  EXPECT_SAME(tokens_per_s);
  EXPECT_SAME(mean_ttft_s);
  EXPECT_SAME(p50_ttft_s);
  EXPECT_SAME(p95_ttft_s);
  EXPECT_SAME(p99_ttft_s);
  EXPECT_SAME(max_ttft_s);
  EXPECT_SAME(mean_tpot_s);
  EXPECT_SAME(p50_tpot_s);
  EXPECT_SAME(p95_tpot_s);
  EXPECT_SAME(p99_tpot_s);
  EXPECT_SAME(max_tpot_s);
  EXPECT_SAME(ttft_slo_requests);
  EXPECT_SAME(within_ttft_slo);
  EXPECT_SAME(tpot_slo_requests);
  EXPECT_SAME(within_tpot_slo);
  EXPECT_SAME(ttft_attainment);
  EXPECT_SAME(tpot_attainment);
  EXPECT_SAME(decode_occupancy);
  EXPECT_SAME(mean_decode_occupancy);
  EXPECT_SAME(estimate_lookups);
  EXPECT_SAME(estimate_misses);
  EXPECT_SAME(tally);
#undef EXPECT_SAME
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t w = 0; w < a.tenants.size(); ++w) {
    const serve::TenantMetrics& ta = a.tenants[w];
    const serve::TenantMetrics& tb = b.tenants[w];
#define EXPECT_SAME(field) EXPECT_EQ(ta.field, tb.field) << #field << " of tenant " << w
    EXPECT_SAME(name);
    EXPECT_SAME(priority);
    EXPECT_SAME(slo_latency_s);
    EXPECT_SAME(completed);
    EXPECT_SAME(within_slo);
    EXPECT_SAME(slo_attainment);
    EXPECT_SAME(goodput_qps);
    EXPECT_SAME(mean_latency_s);
    EXPECT_SAME(p50_latency_s);
    EXPECT_SAME(p99_latency_s);
    EXPECT_SAME(max_latency_s);
    EXPECT_SAME(shed);
    EXPECT_SAME(timed_out);
    EXPECT_SAME(drop_rate);
    EXPECT_SAME(cost_usd);
#undef EXPECT_SAME
  }
}

}  // namespace lumos::testing
