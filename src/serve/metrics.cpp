#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/units.hpp"

namespace lumos::serve {

namespace {

// Zero-based nearest-rank index of quantile q among n >= 1 ascending samples.
std::size_t rank_index(std::size_t n, double q) {
  LUMOS_EXPECTS(q >= 0.0 && q <= 1.0);
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return std::min(index, n - 1);
}

}  // namespace

double percentile(std::vector<double>& samples, double q) {
  LUMOS_EXPECTS(q >= 0.0 && q <= 1.0);
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[rank_index(samples.size(), q)];
}

SampleRun::SampleRun(std::vector<double> samples) : values_(std::move(samples)) {
  for (const double v : values_) sum_ += v;
  std::sort(values_.begin(), values_.end());
}

void SampleRun::merge(const SampleRun& other) {
  const auto mid = static_cast<std::ptrdiff_t>(values_.size());
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  std::inplace_merge(values_.begin(), values_.begin() + mid, values_.end());
  sum_ += other.sum_;
}

double SampleRun::mean() const noexcept {
  return empty() ? 0.0 : sum_ / static_cast<double>(values_.size());
}

double SampleRun::percentile(double q) const {
  return empty() ? 0.0 : values_[rank_index(values_.size(), q)];
}

double percentile_of_runs(std::span<const SampleRun> runs, double q) {
  std::size_t total = 0;
  for (const SampleRun& r : runs) total += r.size();
  if (total == 0) return 0.0;
  // The k-th smallest v has fewer than k samples below it and at least k at
  // or below it.  In the run holding it, it is the first element with at
  // least k at or below: a binary search of counts, each T binary searches.
  const std::size_t k = rank_index(total, q) + 1;
  const auto count = [&](double v, bool inclusive) {
    std::size_t c = 0;
    for (const SampleRun& r : runs) {
      const std::vector<double>& x = r.values();
      c += static_cast<std::size_t>(
          (inclusive ? std::upper_bound(x.begin(), x.end(), v)
                     : std::lower_bound(x.begin(), x.end(), v)) -
          x.begin());
    }
    return c;
  };
  for (const SampleRun& r : runs) {
    const std::vector<double>& x = r.values();
    const auto it = std::partition_point(
        x.begin(), x.end(), [&](double v) { return count(v, true) < k; });
    if (it != x.end() && count(*it, false) < k) return *it;
  }
  LUMOS_ENSURES(false);  // unreachable: the k-th smallest is in some run
  return 0.0;
}

double FleetMetrics::estimate_hit_rate() const noexcept {
  if (estimate_lookups == 0) return 1.0;
  return static_cast<double>(estimate_lookups - estimate_misses) /
         static_cast<double>(estimate_lookups);
}

Tally& Tally::operator+=(const Tally& other) noexcept {
  latency_s += other.latency_s;
  busy_slot_s += other.busy_slot_s;
  active_slot_s += other.active_slot_s;
  queue_depth_s += other.queue_depth_s;
  window_slot_s += other.window_slot_s;
  down_slot_s += other.down_slot_s;
  repair_s += other.repair_s;
  return *this;
}

namespace {

// num / den, or `none` when nothing was counted.
double ratio(double num, std::size_t den, double none = 0.0) {
  return den > 0 ? num / static_cast<double>(den) : none;
}
double ratio(std::size_t num, std::size_t den, double none = 0.0) {
  return ratio(static_cast<double>(num), den, none);
}

}  // namespace

void finalize(FleetMetrics& m) {
  const Tally& tally = m.tally;
  const double duration = std::max(m.duration_s, 1e-300);
  const auto per_s = [&](std::size_t count) { return static_cast<double>(count) / duration; };

  // Traffic, queueing and batching.
  m.throughput_qps = per_s(m.completed);
  m.goodput_qps = per_s(m.within_slo);
  m.slo_attainment = ratio(m.within_slo, m.completed);
  m.mean_latency_s = ratio(tally.latency_s, m.completed);
  m.drop_rate = ratio(m.shed_requests + m.timed_out_requests,
                      m.completed + m.shed_requests + m.timed_out_requests);
  m.mean_queue_depth = tally.queue_depth_s / duration;
  m.mean_batch_size = static_cast<double>(m.completed) /
                      static_cast<double>(std::max<std::size_t>(m.dispatches, 1));

  // Fleet time, energy, dollars and availability.
  m.mean_fleet_size = tally.active_slot_s / duration;
  m.fleet_utilization = tally.busy_slot_s / std::max(tally.active_slot_s, 1e-300);
  m.energy_per_request_j = ratio(m.fleet_energy_j, m.completed);
  m.cost_per_request_usd = ratio(m.fleet_cost_usd, m.completed);
  m.fleet_availability =
      tally.window_slot_s > 0.0
          ? std::max(0.0, tally.window_slot_s - tally.down_slot_s) / tally.window_slot_s
          : 1.0;
  m.observed_mttr_s = ratio(tally.repair_s, m.slot_recoveries);

  // Decode.
  m.tokens_per_s = per_s(m.generated_tokens);
  m.ttft_attainment = ratio(m.within_ttft_slo, m.ttft_slo_requests, 1.0);
  m.tpot_attainment = ratio(m.within_tpot_slo, m.tpot_slo_requests, 1.0);
  std::size_t steps = 0;
  std::size_t lane_steps = 0;
  for (std::size_t lanes = 0; lanes < m.decode_occupancy.size(); ++lanes) {
    steps += m.decode_occupancy[lanes];
    lane_steps += lanes * m.decode_occupancy[lanes];
  }
  m.mean_decode_occupancy = ratio(lane_steps, steps);

  // Latency statistics.  A SampleRun and an HdrHistogram answer the same
  // mean/max/percentile calls; the fleet sketch merges the tenants' (bucket
  // counts add).
  const LatencyState& st = *m.latency_state;
  HdrHistogram all(st.hdr ? st.hdr_relative_error : 0.01);
  m.max_latency_s = 0.0;
  const auto tenant = [&](TenantMetrics& t, const auto& samples) {
    t.drop_rate = ratio(t.shed + t.timed_out, t.completed + t.shed + t.timed_out);
    t.slo_attainment = ratio(t.within_slo, t.completed);
    t.goodput_qps = per_s(t.within_slo);
    t.mean_latency_s = samples.mean();
    t.max_latency_s = samples.max();
    t.p50_latency_s = samples.percentile(0.50);
    t.p99_latency_s = samples.percentile(0.99);
    m.max_latency_s = std::max(m.max_latency_s, t.max_latency_s);
  };
  for (std::size_t w = 0; w < m.tenants.size(); ++w) {
    if (st.hdr) {
      all.merge(st.tenant_hist[w]);
      tenant(m.tenants[w], st.tenant_hist[w]);
    } else {
      tenant(m.tenants[w], st.tenant_samples[w]);
    }
  }
  const auto fleet = [&](double q) {
    return st.hdr ? all.percentile(q) : percentile_of_runs(st.tenant_samples, q);
  };
  m.p50_latency_s = fleet(0.50);
  m.p95_latency_s = fleet(0.95);
  m.p99_latency_s = fleet(0.99);
  m.p999_latency_s = fleet(0.999);
  m.mean_session_s = st.session_samples.mean();
  m.max_session_s = st.session_samples.max();
  m.p50_session_s = st.session_samples.percentile(0.50);
  m.p99_session_s = st.session_samples.percentile(0.99);
  // Decode phase latencies are always sample-exact (see LatencyState), so the
  // merged TTFT/TPOT statistics are true union percentiles.
  m.mean_ttft_s = st.ttft_samples.mean();
  m.max_ttft_s = st.ttft_samples.max();
  m.p50_ttft_s = st.ttft_samples.percentile(0.50);
  m.p95_ttft_s = st.ttft_samples.percentile(0.95);
  m.p99_ttft_s = st.ttft_samples.percentile(0.99);
  m.mean_tpot_s = st.tpot_samples.mean();
  m.max_tpot_s = st.tpot_samples.max();
  m.p50_tpot_s = st.tpot_samples.percentile(0.50);
  m.p95_tpot_s = st.tpot_samples.percentile(0.95);
  m.p99_tpot_s = st.tpot_samples.percentile(0.99);
}

namespace {

// Element-wise `into += from`, growing `into` to cover `from`.
void add_histogram(std::vector<std::size_t>& into, const std::vector<std::size_t>& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

}  // namespace

void FleetMetrics::merge(const FleetMetrics& other) {
  if (tenants.size() != other.tenants.size()) {
    throw InvalidArgument("FleetMetrics::merge: tenant counts differ (" +
                          std::to_string(tenants.size()) + " vs " +
                          std::to_string(other.tenants.size()) +
                          "): both sides must describe the same catalog");
  }
  if (latency_state == nullptr || other.latency_state == nullptr) {
    throw InvalidArgument(
        "FleetMetrics::merge: both sides must retain their latency state "
        "(run them with SimConfig::keep_latency_state set)");
  }
  if (latency_state->hdr != other.latency_state->hdr) {
    throw InvalidArgument("FleetMetrics::merge: latency states mix exact and hdr modes");
  }

  // Latency state.  Copy-on-write: a shared state (metrics copied with its
  // pointer) must not be mutated behind the copy's back.
  if (latency_state.use_count() > 1) {
    latency_state = std::make_shared<LatencyState>(*latency_state);
  }
  LatencyState& st = *latency_state;
  const LatencyState& ot = *other.latency_state;
  if (st.hdr) {
    for (std::size_t w = 0; w < st.tenant_hist.size(); ++w) {
      st.tenant_hist[w].merge(ot.tenant_hist[w]);  // throws on eps mismatch
    }
  } else {
    // Tenants' runs are disjoint: each merges on its own pool task.
    parallel_for(0, st.tenant_samples.size(), 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t w = begin; w < end; ++w) {
        st.tenant_samples[w].merge(ot.tenant_samples[w]);
      }
    });
  }
  st.session_samples.merge(ot.session_samples);
  st.ttft_samples.merge(ot.ttft_samples);
  st.tpot_samples.merge(ot.tpot_samples);

  // Counters and raw sums add; maxima take the max.
  for (std::size_t w = 0; w < tenants.size(); ++w) {
    TenantMetrics& t = tenants[w];
    const TenantMetrics& o = other.tenants[w];
    t.completed += o.completed;
    t.within_slo += o.within_slo;
    t.shed += o.shed;
    t.timed_out += o.timed_out;
    t.cost_usd += o.cost_usd;
    t.slo_latency_s = std::max(t.slo_latency_s, o.slo_latency_s);
  }
  offered_qps += other.offered_qps;
  completed += other.completed;
  within_slo += other.within_slo;
  dispatches += other.dispatches;
  add_histogram(batch_histogram, other.batch_histogram);
  fleet_energy_j += other.fleet_energy_j;
  fleet_cost_usd += other.fleet_cost_usd;
  autoscale_grows += other.autoscale_grows;
  autoscale_shrinks += other.autoscale_shrinks;
  initial_fleet_size += other.initial_fleet_size;
  peak_fleet_size += other.peak_fleet_size;
  final_fleet_size += other.final_fleet_size;
  shed_requests += other.shed_requests;
  timed_out_requests += other.timed_out_requests;
  attempt_timeouts += other.attempt_timeouts;
  retried_attempts += other.retried_attempts;
  failed_batches += other.failed_batches;
  requeued_requests += other.requeued_requests;
  slot_failures += other.slot_failures;
  slot_recoveries += other.slot_recoveries;
  slot_availability.insert(slot_availability.end(), other.slot_availability.begin(),
                           other.slot_availability.end());
  sessions += other.sessions;
  decode_requests += other.decode_requests;
  generated_tokens += other.generated_tokens;
  aborted_decode_tokens += other.aborted_decode_tokens;
  decode_steps += other.decode_steps;
  ttft_slo_requests += other.ttft_slo_requests;
  within_ttft_slo += other.within_ttft_slo;
  tpot_slo_requests += other.tpot_slo_requests;
  within_tpot_slo += other.within_tpot_slo;
  add_histogram(decode_occupancy, other.decode_occupancy);
  estimate_lookups += other.estimate_lookups;
  estimate_misses += other.estimate_misses;
  tally += other.tally;
  duration_s = std::max(duration_s, other.duration_s);
  slo_latency_s = std::max(slo_latency_s, other.slo_latency_s);
  peak_queue_depth = std::max(peak_queue_depth, other.peak_queue_depth);
  finalize(*this);
}

Table FleetMetrics::to_table(const std::string& title) const {
  Table t(title);
  t.add_row({"metric", "value"});
  t.add_row({"offered QPS", Table::num(offered_qps, 1)});
  t.add_row({"completed", std::to_string(completed)});
  t.add_row({"throughput QPS", Table::num(throughput_qps, 1)});
  t.add_row({"goodput QPS", Table::num(goodput_qps, 1)});
  t.add_row({"SLO latency (us)", Table::num(units::to_us(slo_latency_s), 1)});
  t.add_row({"SLO attainment", Table::num(slo_attainment, 4)});
  t.add_row({"p50 latency (us)", Table::num(units::to_us(p50_latency_s), 1)});
  t.add_row({"p95 latency (us)", Table::num(units::to_us(p95_latency_s), 1)});
  t.add_row({"p99 latency (us)", Table::num(units::to_us(p99_latency_s), 1)});
  t.add_row({"p99.9 latency (us)", Table::num(units::to_us(p999_latency_s), 1)});
  t.add_row({"mean latency (us)", Table::num(units::to_us(mean_latency_s), 1)});
  t.add_row({"max latency (us)", Table::num(units::to_us(max_latency_s), 1)});
  t.add_row({"mean queue depth", Table::num(mean_queue_depth, 2)});
  t.add_row({"peak queue depth", std::to_string(peak_queue_depth)});
  t.add_row({"dispatches", std::to_string(dispatches)});
  t.add_row({"mean batch size", Table::num(mean_batch_size, 2)});
  t.add_row({"fleet energy (J)", Table::num(fleet_energy_j, 4)});
  t.add_row({"energy/request (uJ)", Table::num(energy_per_request_j * 1e6, 3)});
  if (fleet_cost_usd > 0.0) {
    t.add_row({"fleet cost ($)", Table::num(fleet_cost_usd, 6)});
    t.add_row({"cost/request ($)", Table::num(cost_per_request_usd, 9)});
  }
  t.add_row({"fleet utilization", Table::num(fleet_utilization, 3)});
  t.add_row({"estimate lookups", std::to_string(estimate_lookups)});
  t.add_row({"estimate misses", std::to_string(estimate_misses)});
  t.add_row({"estimate hit rate", Table::num(estimate_hit_rate(), 4)});
  // Robustness section only when some robustness machinery actually fired:
  // fault-free, admission-free, timeout-free runs keep the compact table.
  // Every counter is in the gate so no nonzero row can ever be suppressed.
  if (shed_requests > 0 || timed_out_requests > 0 || attempt_timeouts > 0 ||
      retried_attempts > 0 || failed_batches > 0 || requeued_requests > 0 ||
      slot_failures > 0 || slot_recoveries > 0) {
    t.add_row({"shed (admission)", std::to_string(shed_requests)});
    t.add_row({"timed out", std::to_string(timed_out_requests)});
    t.add_row({"attempt timeouts", std::to_string(attempt_timeouts)});
    t.add_row({"retried attempts", std::to_string(retried_attempts)});
    t.add_row({"drop rate", Table::num(drop_rate, 4)});
    t.add_row({"slot failures", std::to_string(slot_failures)});
    t.add_row({"slot recoveries", std::to_string(slot_recoveries)});
    t.add_row({"failed batches", std::to_string(failed_batches)});
    t.add_row({"requeued requests", std::to_string(requeued_requests)});
    t.add_row({"fleet availability", Table::num(fleet_availability, 4)});
    t.add_row({"observed MTTR (us)", Table::num(units::to_us(observed_mttr_s), 1)});
  }
  // Decode section only when the run actually generated (or aborted) tokens;
  // every decode counter is in the gate so no nonzero row is suppressed.
  if (decode_requests > 0 || generated_tokens > 0 || aborted_decode_tokens > 0 ||
      decode_steps > 0) {
    t.add_row({"decode requests", std::to_string(decode_requests)});
    t.add_row({"generated tokens", std::to_string(generated_tokens)});
    t.add_row({"aborted decode tokens", std::to_string(aborted_decode_tokens)});
    t.add_row({"decode steps", std::to_string(decode_steps)});
    t.add_row({"tokens/s", Table::num(tokens_per_s, 1)});
    t.add_row({"mean decode occupancy", Table::num(mean_decode_occupancy, 2)});
    t.add_row({"mean TTFT (us)", Table::num(units::to_us(mean_ttft_s), 1)});
    t.add_row({"p50 TTFT (us)", Table::num(units::to_us(p50_ttft_s), 1)});
    t.add_row({"p95 TTFT (us)", Table::num(units::to_us(p95_ttft_s), 1)});
    t.add_row({"p99 TTFT (us)", Table::num(units::to_us(p99_ttft_s), 1)});
    t.add_row({"max TTFT (us)", Table::num(units::to_us(max_ttft_s), 1)});
    t.add_row({"mean TPOT (us)", Table::num(units::to_us(mean_tpot_s), 1)});
    t.add_row({"p50 TPOT (us)", Table::num(units::to_us(p50_tpot_s), 1)});
    t.add_row({"p95 TPOT (us)", Table::num(units::to_us(p95_tpot_s), 1)});
    t.add_row({"p99 TPOT (us)", Table::num(units::to_us(p99_tpot_s), 1)});
    t.add_row({"max TPOT (us)", Table::num(units::to_us(max_tpot_s), 1)});
    if (ttft_slo_requests > 0) {
      t.add_row({"TTFT attainment", Table::num(ttft_attainment, 4)});
    }
    if (tpot_slo_requests > 0) {
      t.add_row({"TPOT attainment", Table::num(tpot_attainment, 4)});
    }
  }
  if (sessions > 0) {
    t.add_row({"sessions", std::to_string(sessions)});
    t.add_row({"mean session (ms)", Table::num(mean_session_s * 1e3, 3)});
    t.add_row({"p50 session (ms)", Table::num(p50_session_s * 1e3, 3)});
    t.add_row({"p99 session (ms)", Table::num(p99_session_s * 1e3, 3)});
    t.add_row({"max session (ms)", Table::num(max_session_s * 1e3, 3)});
  }
  if (autoscale_grows > 0 || autoscale_shrinks > 0 ||
      peak_fleet_size != initial_fleet_size) {
    t.add_row({"fleet size (init/peak/final)", std::to_string(initial_fleet_size) + "/" +
                                                   std::to_string(peak_fleet_size) + "/" +
                                                   std::to_string(final_fleet_size)});
    t.add_row({"mean fleet size", Table::num(mean_fleet_size, 2)});
    t.add_row({"autoscale grows", std::to_string(autoscale_grows)});
    t.add_row({"autoscale shrinks", std::to_string(autoscale_shrinks)});
  }
  return t;
}

Table FleetMetrics::tenant_table(const std::string& title) const {
  Table t(title);
  t.add_row({"tenant", "tier", "completed", "shed", "timeout", "drop", "SLO us",
             "attainment", "goodput QPS", "p50 us", "p99 us", "max us", "cost $"});
  for (const TenantMetrics& tenant : tenants) {
    t.add_row({tenant.name, std::to_string(tenant.priority),
               std::to_string(tenant.completed), std::to_string(tenant.shed),
               std::to_string(tenant.timed_out), Table::num(tenant.drop_rate, 4),
               Table::num(units::to_us(tenant.slo_latency_s), 1),
               Table::num(tenant.slo_attainment, 4), Table::num(tenant.goodput_qps, 1),
               Table::num(units::to_us(tenant.p50_latency_s), 1),
               Table::num(units::to_us(tenant.p99_latency_s), 1),
               Table::num(units::to_us(tenant.max_latency_s), 1),
               Table::num(tenant.cost_usd, 6)});
  }
  return t;
}

}  // namespace lumos::serve
