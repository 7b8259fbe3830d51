// Tests for the observability layer: the observers-never-change-results
// contract (disabled AND enabled runs are bit-identical to the unobserved
// simulator), span/counter conservation between the lifecycle tracer and
// FleetMetrics under faults + retries + admission, timeline window sums,
// event-loop profiler counts, deterministic id-hash sampling, the
// HdrHistogram percentile sketch (bounded relative error vs the exact path,
// insertion-order independence, merging), the hdr percentile mode of the
// simulator/campaign, and the FleetMetrics::to_table section gates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "serve/campaign.hpp"
#include "serve/names.hpp"
#include "serve/observe.hpp"
#include "serve/simulator.hpp"

namespace lumos::serve {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// Open-loop TRON scenario with every robustness feature on: seeded slot
// faults (aborts + requeues), tenant timeouts with retries, and queue-cap
// admission under 2x overload — so every observer hook fires.
Scenario faulty_scenario(std::size_t requests = 8000) {
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  Scenario scenario;
  scenario.fleet = FleetConfig::homogeneous("tron", 2);
  const double capacity = fleet_capacity_qps(catalog, "tron", 2, 8);
  catalog.apply_timeout(4e-3);
  scenario.catalog = catalog;
  scenario.scheduler = SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = 8;
  scenario.sim.faults.mtbf_s = 40e-3;
  scenario.sim.faults.mttr_s = 5e-3;
  scenario.sim.retry.max_attempts = 3;
  scenario.sim.admission.policy = AdmissionPolicy::kQueueCap;
  scenario.sim.admission.queue_cap = 48;
  scenario.traffic.open.offered_qps = 2.0 * capacity;
  scenario.traffic.open.request_count = requests;
  scenario.traffic.open.seed = 77;
  return scenario;
}

// A timeline window's counters by their export names, listed apart from the
// exporters' own list so that a name paired with the wrong member fails.
const std::pair<const char*, std::size_t TimelineWindow::*> kWindowCounters[] = {
    {"arrivals", &TimelineWindow::arrivals}, {"admitted", &TimelineWindow::admitted},
    {"shed", &TimelineWindow::shed}, {"completed", &TimelineWindow::completed},
    {"within_slo", &TimelineWindow::within_slo}, {"timed_out", &TimelineWindow::timed_out},
    {"attempt_timeouts", &TimelineWindow::attempt_timeouts}, {"retries", &TimelineWindow::retries},
    {"requeued", &TimelineWindow::requeued}, {"dispatches", &TimelineWindow::dispatches},
    {"batch_aborts", &TimelineWindow::batch_aborts},
    {"slot_failures", &TimelineWindow::slot_failures},
    {"slot_recoveries", &TimelineWindow::slot_recoveries},
    {"autoscale_grows", &TimelineWindow::autoscale_grows},
    {"autoscale_shrinks", &TimelineWindow::autoscale_shrinks},
    {"queue_depth_last", &TimelineWindow::queue_depth_last},
    {"queue_depth_max", &TimelineWindow::queue_depth_max},
    {"active_slots", &TimelineWindow::active_slots},
    {"failed_slots", &TimelineWindow::failed_slots},
};

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::istringstream in(line);
  for (std::string cell; std::getline(in, cell, ',');) cells.push_back(cell);
  return cells;
}

// Member `key` of one window line of the JSON timeline, as written: a number,
// or an array's "[...]".
std::string json_member(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\": ");
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size() + 4;
  const std::size_t end =
      line[begin] == '[' ? line.find(']', begin) + 1 : line.find_first_of(",}", begin);
  return line.substr(begin, end - begin);
}

std::string json_list(const std::vector<std::size_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(values[i]);
  }
  return out + "]";
}

void expect_bit_identical(const FleetMetrics& a, const FleetMetrics& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.p999_latency_s, b.p999_latency_s);
  EXPECT_EQ(a.goodput_qps, b.goodput_qps);
  EXPECT_EQ(a.fleet_energy_j, b.fleet_energy_j);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  EXPECT_EQ(a.timed_out_requests, b.timed_out_requests);
  EXPECT_EQ(a.attempt_timeouts, b.attempt_timeouts);
  EXPECT_EQ(a.retried_attempts, b.retried_attempts);
  EXPECT_EQ(a.failed_batches, b.failed_batches);
  EXPECT_EQ(a.requeued_requests, b.requeued_requests);
  EXPECT_EQ(a.slot_failures, b.slot_failures);
  EXPECT_EQ(a.fleet_availability, b.fleet_availability);
}

std::size_t count_kind(const std::vector<RequestEvent>& events, RequestEventKind kind) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [kind](const RequestEvent& e) { return e.kind == kind; }));
}

double rel_err(double estimate, double exact) {
  return std::abs(estimate - exact) / std::max(std::abs(exact), 1e-300);
}

// ---------------------------------------------------------------------------
// Config validation + sampling
// ---------------------------------------------------------------------------

TEST(Observe, DisabledConfigIsValidAndInert) {
  const ObserveConfig config;
  EXPECT_FALSE(config.enabled());
  EXPECT_NO_THROW(validate_observe(config));
}

TEST(Observe, ValidationNamesTheBadField) {
  ObserveConfig config;
  config.trace.enabled = true;
  config.trace.sample = 1.5;
  try {
    validate_observe(config);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("sample"), std::string::npos);
  }
  config.trace.sample = 1.0;
  config.trace.max_request_events = 0;
  EXPECT_THROW(validate_observe(config), InvalidArgument);
  config.trace.max_request_events = 1;
  config.trace.max_batch_spans = 0;
  EXPECT_THROW(validate_observe(config), InvalidArgument);

  ObserveConfig timeline;
  timeline.timeline.enabled = true;
  timeline.timeline.window_s = 0.0;
  try {
    validate_observe(timeline);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("window_s"), std::string::npos);
  }
  // A disabled observer's knobs are never inspected.
  ObserveConfig off;
  off.trace.sample = -3.0;
  off.timeline.window_s = -1.0;
  EXPECT_NO_THROW(validate_observe(off));
}

TEST(Observe, IdHashSamplingIsDeterministicAndSeedDependent) {
  for (std::uint64_t id = 0; id < 64; ++id) {
    EXPECT_TRUE(trace_sampled(id, 1, 1.0));
    EXPECT_FALSE(trace_sampled(id, 1, 0.0));
    EXPECT_EQ(trace_sampled(id, 9, 0.5), trace_sampled(id, 9, 0.5));
  }
  // Roughly half the ids pass at sample 0.5, and distinct seeds pick
  // distinct subsets.
  std::size_t hits = 0;
  std::size_t seed_disagreements = 0;
  for (std::uint64_t id = 0; id < 4096; ++id) {
    hits += trace_sampled(id, 1, 0.5) ? 1 : 0;
    seed_disagreements += trace_sampled(id, 1, 0.5) != trace_sampled(id, 2, 0.5) ? 1 : 0;
  }
  EXPECT_GT(hits, 1600u);
  EXPECT_LT(hits, 2500u);
  EXPECT_GT(seed_disagreements, 0u);
}

// The sampler compares the hash with `sample` scaled to 2^64 once.  The
// reference scales each hash down instead, as the decision was first
// written; the two must agree on every id, also where the scaled hash
// equals `sample` exactly and one ulp either side of it.
TEST(Observe, ScaledThresholdSamplingMatchesTheScaledHash) {
  const auto reference = [](std::uint64_t id, std::uint64_t seed, double sample) {
    if (sample >= 1.0) return true;
    if (sample <= 0.0) return false;
    std::uint64_t x = (id ^ seed) + 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    x ^= x >> 31;
    return std::ldexp(static_cast<double>(x), -64) < sample;
  };
  std::vector<double> samples = {0.0,   -0.0, -1.0, 5e-324, 1e-300, 1.0 / 64.0, 0.5,
                                 std::nextafter(1.0, 0.0), 1.0, 2.0, std::nan("")};
  for (const std::uint64_t id : {3ull, 77ull, 4096ull}) {
    const double at = std::ldexp(static_cast<double>(splitmix64(id ^ 1)), -64);
    samples.insert(samples.end(), {at, std::nextafter(at, 0.0), std::nextafter(at, 2.0)});
  }
  for (const double sample : samples) {
    for (std::uint64_t id = 0; id < 4096; ++id) {
      ASSERT_EQ(trace_sampled(id, 1, sample), reference(id, 1, sample))
          << "id " << id << ", sample " << sample;
    }
  }
}

// ---------------------------------------------------------------------------
// Observers never change results
// ---------------------------------------------------------------------------

TEST(Observe, EnabledObserversNeverChangeResults) {
  Scenario plain = faulty_scenario();
  const FleetMetrics unobserved = simulate(plain);

  Scenario observed = faulty_scenario();
  observed.observe.trace.enabled = true;
  observed.observe.timeline.enabled = true;
  observed.observe.profile = true;
  Observation obs;
  const FleetMetrics watched = simulate(observed, &obs);

  expect_bit_identical(unobserved, watched);
  ASSERT_NE(obs.tracer, nullptr);
  ASSERT_NE(obs.timeline, nullptr);
  ASSERT_NE(obs.profiler, nullptr);

  // A disabled config hands back no observers.
  Scenario off = faulty_scenario();
  Observation empty;
  const FleetMetrics again = simulate(off, &empty);
  expect_bit_identical(unobserved, again);
  EXPECT_EQ(empty.tracer, nullptr);
  EXPECT_EQ(empty.timeline, nullptr);
  EXPECT_EQ(empty.profiler, nullptr);
}

// ---------------------------------------------------------------------------
// Span/counter conservation
// ---------------------------------------------------------------------------

TEST(Observe, TracedSpansReconcileWithFleetMetricsCounters) {
  Scenario scenario = faulty_scenario();
  scenario.observe.trace.enabled = true;  // sample 1.0: every request traced
  Observation obs;
  const FleetMetrics m = simulate(scenario, &obs);
  ASSERT_NE(obs.tracer, nullptr);
  const LifecycleTracer& tracer = *obs.tracer;
  EXPECT_EQ(tracer.dropped_requests(), 0u);
  EXPECT_EQ(tracer.dropped_batch_spans(), 0u);

  // The run actually exercised every path it claims to reconcile.
  EXPECT_GT(m.shed_requests, 0u);
  EXPECT_GT(m.retried_attempts, 0u);
  EXPECT_GT(m.failed_batches, 0u);

  const std::vector<RequestEvent>& events = tracer.request_events();
  const std::size_t arrivals = count_kind(events, RequestEventKind::kArrival);
  const std::size_t completes = count_kind(events, RequestEventKind::kComplete);
  const std::size_t sheds = count_kind(events, RequestEventKind::kShed);
  const std::size_t timeouts = count_kind(events, RequestEventKind::kTimeout);

  // Every request's span is whole: one arrival, one terminal, and the
  // terminals partition exactly as the metrics counters say.
  EXPECT_EQ(arrivals, scenario.traffic.open.request_count);
  EXPECT_EQ(tracer.sampled_requests(), arrivals);
  EXPECT_EQ(completes, m.completed);
  EXPECT_EQ(sheds, m.shed_requests);
  EXPECT_EQ(timeouts, m.timed_out_requests);
  EXPECT_EQ(completes + sheds + timeouts, arrivals);

  EXPECT_EQ(count_kind(events, RequestEventKind::kRetry), m.retried_attempts);
  EXPECT_EQ(count_kind(events, RequestEventKind::kAttemptTimeout), m.attempt_timeouts);
  EXPECT_EQ(count_kind(events, RequestEventKind::kRequeue), m.requeued_requests);

  // Batch spans: one per dispatch, aborted spans match failed batches, and
  // per-request dispatch events sum to the spans' sizes.
  const std::vector<BatchSpan>& spans = tracer.batch_spans();
  EXPECT_EQ(spans.size(), m.dispatches);
  std::size_t aborted = 0;
  std::size_t span_requests = 0;
  for (const BatchSpan& s : spans) {
    aborted += s.aborted ? 1 : 0;
    span_requests += s.size;
    EXPECT_GE(s.end_s, s.start_s);
  }
  EXPECT_EQ(aborted, m.failed_batches);
  EXPECT_EQ(count_kind(events, RequestEventKind::kDispatch), span_requests);

  // The Chrome export of the same run is non-empty and names the slots.
  std::ostringstream trace_json;
  tracer.write_chrome_trace(trace_json);
  EXPECT_NE(trace_json.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json.str().find("slot 1 [tron]"), std::string::npos);
  EXPECT_NE(trace_json.str().find("batch-abort"), std::string::npos);
}

TEST(Observe, SaturationDropsWholeRequestsNeverTruncates) {
  Scenario scenario = faulty_scenario(4000);
  scenario.observe.trace.enabled = true;
  scenario.observe.trace.max_request_events = 64;  // force saturation
  scenario.observe.trace.max_batch_spans = 16;     // force ring wrap
  Observation obs;
  (void)simulate(scenario, &obs);
  const LifecycleTracer& tracer = *obs.tracer;
  EXPECT_GT(tracer.dropped_requests(), 0u);
  EXPECT_GT(tracer.dropped_batch_spans(), 0u);
  EXPECT_LE(tracer.batch_spans().size(), 16u);
  // Every request that made it into the buffer has a balanced span.
  const std::vector<RequestEvent>& events = tracer.request_events();
  EXPECT_EQ(count_kind(events, RequestEventKind::kComplete) +
                count_kind(events, RequestEventKind::kShed) +
                count_kind(events, RequestEventKind::kTimeout),
            count_kind(events, RequestEventKind::kArrival));
}

// ---------------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------------

TEST(Observe, TimelineWindowSumsMatchTotals) {
  Scenario scenario = faulty_scenario();
  scenario.observe.timeline.enabled = true;
  scenario.observe.timeline.window_s = 2e-3;
  Observation obs;
  const FleetMetrics m = simulate(scenario, &obs);
  ASSERT_NE(obs.timeline, nullptr);
  const TimelineRecorder& timeline = *obs.timeline;
  ASSERT_GT(timeline.windows().size(), 1u);

  TimelineWindow total;
  total.tenant_completed.resize(scenario.catalog.size(), 0);
  for (const TimelineWindow& w : timeline.windows()) {
    total.arrivals += w.arrivals;
    total.shed += w.shed;
    total.completed += w.completed;
    total.within_slo += w.within_slo;
    total.timed_out += w.timed_out;
    total.attempt_timeouts += w.attempt_timeouts;
    total.retries += w.retries;
    total.requeued += w.requeued;
    total.dispatches += w.dispatches;
    total.batch_aborts += w.batch_aborts;
    total.slot_failures += w.slot_failures;
    total.slot_recoveries += w.slot_recoveries;
    ASSERT_EQ(w.tenant_completed.size(), total.tenant_completed.size());
    for (std::size_t t = 0; t < w.tenant_completed.size(); ++t) {
      total.tenant_completed[t] += w.tenant_completed[t];
    }
  }
  EXPECT_EQ(total.arrivals, scenario.traffic.open.request_count);
  EXPECT_EQ(total.shed, m.shed_requests);
  EXPECT_EQ(total.completed, m.completed);
  EXPECT_EQ(total.timed_out, m.timed_out_requests);
  EXPECT_EQ(total.attempt_timeouts, m.attempt_timeouts);
  EXPECT_EQ(total.retries, m.retried_attempts);
  EXPECT_EQ(total.requeued, m.requeued_requests);
  EXPECT_EQ(total.dispatches, m.dispatches);
  EXPECT_EQ(total.batch_aborts, m.failed_batches);
  EXPECT_EQ(total.slot_failures, m.slot_failures);
  EXPECT_EQ(total.slot_recoveries, m.slot_recoveries);
  for (std::size_t t = 0; t < total.tenant_completed.size(); ++t) {
    EXPECT_EQ(total.tenant_completed[t], m.tenants[t].completed);
  }

  // CSV export: one header plus one row per window, with per-tenant columns.
  std::ostringstream csv;
  timeline.write_csv(csv);
  std::size_t lines = 0;
  std::string line;
  std::istringstream in(csv.str());
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, timeline.windows().size() + 1);
  EXPECT_NE(csv.str().find("queue_depth_max"), std::string::npos);
  EXPECT_NE(csv.str().find("_within_slo"), std::string::npos);

  std::ostringstream json;
  timeline.write_json(json);
  EXPECT_NE(json.str().find("\"window_s\""), std::string::npos);
  EXPECT_NE(json.str().find("\"windows\""), std::string::npos);

  // Both exports read back field by field: every CSV row and every JSON
  // window holds its window's time, counters and tenant counts.
  const double window_s = scenario.observe.timeline.window_s;
  std::vector<std::string> expected_header{"t_s"};
  for (const auto& [name, member] : kWindowCounters) expected_header.emplace_back(name);
  expected_header.insert(expected_header.end(), {"throughput_qps", "goodput_qps"});
  for (std::size_t t = 0; t < scenario.catalog.size(); ++t) {
    expected_header.push_back(scenario.catalog.workload(t).name() + "_completed");
    expected_header.push_back(scenario.catalog.workload(t).name() + "_within_slo");
  }
  std::istringstream csv_in(csv.str());
  ASSERT_TRUE(std::getline(csv_in, line));
  EXPECT_EQ(split_csv(line), expected_header);
  std::istringstream json_in(json.str());
  for (std::size_t i = 0; i < timeline.windows().size(); ++i) {
    const TimelineWindow& w = timeline.windows()[i];
    const double t_s = static_cast<double>(i) * window_s;
    ASSERT_TRUE(std::getline(csv_in, line));
    const std::vector<std::string> row = split_csv(line);
    ASSERT_EQ(row.size(), expected_header.size()) << "CSV row " << i;
    EXPECT_DOUBLE_EQ(std::stod(row[0]), t_s);
    std::size_t col = 1;
    for (const auto& [name, member] : kWindowCounters) {
      EXPECT_EQ(std::stoull(row[col++]), w.*member) << "CSV row " << i << " " << name;
    }
    EXPECT_DOUBLE_EQ(std::stod(row[col++]), static_cast<double>(w.completed) / window_s);
    EXPECT_DOUBLE_EQ(std::stod(row[col++]), static_cast<double>(w.within_slo) / window_s);
    for (std::size_t t = 0; t < w.tenant_completed.size(); ++t) {
      EXPECT_EQ(std::stoull(row[col++]), w.tenant_completed[t]) << "CSV row " << i;
      EXPECT_EQ(std::stoull(row[col++]), w.tenant_within_slo[t]) << "CSV row " << i;
    }

    do {
      ASSERT_TRUE(std::getline(json_in, line)) << "JSON window " << i << " missing";
    } while (line.find("{\"t_s\": ") == std::string::npos);
    EXPECT_DOUBLE_EQ(std::stod(json_member(line, "t_s")), t_s);
    for (const auto& [name, member] : kWindowCounters) {
      EXPECT_EQ(std::stoull(json_member(line, name)), w.*member)
          << "JSON window " << i << " " << name;
    }
    EXPECT_EQ(json_member(line, "tenant_completed"), json_list(w.tenant_completed));
    EXPECT_EQ(json_member(line, "tenant_within_slo"), json_list(w.tenant_within_slo));
  }
  EXPECT_FALSE(std::getline(csv_in, line)) << "CSV rows beyond the last window";
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

TEST(Observe, ProfilerEventCountsMatchTheRun) {
  Scenario scenario = faulty_scenario();
  scenario.observe.profile = true;
  Observation obs;
  const FleetMetrics m = simulate(scenario, &obs);
  ASSERT_NE(obs.profiler, nullptr);
  const EventLoopProfiler& prof = *obs.profiler;
  EXPECT_EQ(prof.events(LoopSource::kArrivals), scenario.traffic.open.request_count);
  EXPECT_EQ(prof.events(LoopSource::kDispatch), m.dispatches);
  // Dispatch rounds: at most one per iteration, and only the rounds that ran.
  EXPECT_GT(prof.calls(LoopSource::kDispatch), 0u);
  EXPECT_LE(prof.calls(LoopSource::kDispatch), prof.iterations());
  EXPECT_EQ(prof.calls(LoopSource::kArrivals), prof.iterations());
  EXPECT_EQ(prof.calls(LoopSource::kSchedulerPop), prof.events(LoopSource::kSchedulerPop));
  EXPECT_EQ(prof.events(LoopSource::kCompletions), m.dispatches - m.failed_batches);
  EXPECT_EQ(prof.events(LoopSource::kRetries), m.retried_attempts);
  EXPECT_GT(prof.events(LoopSource::kFaults), 0u);
  EXPECT_GT(prof.events(LoopSource::kSchedulerPop), 0u);
  EXPECT_GT(prof.events(LoopSource::kEstimate), 0u);
  EXPECT_GT(prof.iterations(), 0u);
  EXPECT_GE(prof.accounted_wall_s(), 0.0);

  std::ostringstream table;
  prof.to_table("event-loop profile").print(table);
  EXPECT_NE(table.str().find("scheduler-pop"), std::string::npos);
  EXPECT_NE(table.str().find("calls"), std::string::npos);
  EXPECT_NE(table.str().find("loop total"), std::string::npos);
}

// A fault-free continuous-decode run, profiled and with a timeline: every
// loop iteration records each source once, every completion event is a
// prefill batch or a decode step, and the timeline's queue-depth gauges keep
// the sums recorded before counter-only token steps kept their cached price
// (the lanes stay full, so the queue is non-empty at most token boundaries).
TEST(Observe, DecodeRunCountsEveryTokenStep) {
  Scenario scenario;
  scenario.catalog = WorkloadCatalog::tron_default();
  scenario.catalog.apply_decode(SeqLenDist::kLogNormal, 16);
  scenario.fleet = FleetConfig::homogeneous("tron", 2);
  scenario.batch.max_batch = 8;
  scenario.sim.decode_mode = DecodeMode::kContinuous;
  scenario.traffic.open.offered_qps = 2000.0;
  scenario.traffic.open.request_count = 4000;
  scenario.traffic.open.seed = 29;
  scenario.observe.profile = true;
  scenario.observe.timeline.enabled = true;
  Observation obs;
  const FleetMetrics m = simulate(scenario, &obs);
  ASSERT_NE(obs.profiler, nullptr);
  ASSERT_NE(obs.timeline, nullptr);
  const EventLoopProfiler& prof = *obs.profiler;
  EXPECT_EQ(m.decode_steps, 12386u);
  EXPECT_EQ(prof.calls(LoopSource::kCompletions), prof.iterations());
  EXPECT_EQ(prof.calls(LoopSource::kArrivals), prof.iterations());
  EXPECT_EQ(prof.events(LoopSource::kCompletions), m.dispatches + m.decode_steps);

  std::size_t depth_last = 0;
  std::size_t depth_max = 0;
  for (const TimelineWindow& w : obs.timeline->windows()) {
    depth_last += w.queue_depth_last;
    depth_max += w.queue_depth_max;
  }
  EXPECT_EQ(obs.timeline->windows().size(), 1990u);
  EXPECT_EQ(depth_last, 119237u);
  EXPECT_EQ(depth_max, 121655u);
}

// ---------------------------------------------------------------------------
// HdrHistogram
// ---------------------------------------------------------------------------

TEST(HdrHistogram, BoundedRelativeErrorOnThreeDistributions) {
  const double eps = 0.01;
  const std::vector<double> quantiles{0.5, 0.95, 0.99, 0.999};
  for (int dist = 0; dist < 3; ++dist) {
    Rng rng(42 + static_cast<std::uint64_t>(dist));
    std::vector<double> samples;
    samples.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
      switch (dist) {
        case 0: samples.push_back(rng.uniform(1e-5, 1e-2)); break;
        case 1: samples.push_back(rng.exponential(1e-3) + 1e-9); break;
        default: samples.push_back(std::exp(rng.normal(std::log(1e-3), 0.7)));
      }
    }
    HdrHistogram hist(eps);
    for (const double s : samples) hist.add(s);
    EXPECT_EQ(hist.count(), samples.size());
    for (const double q : quantiles) {
      std::vector<double> copy = samples;
      const double exact = percentile(copy, q);
      EXPECT_LE(rel_err(hist.percentile(q), exact), 1.05 * eps)
          << "dist " << dist << " q " << q;
    }
    EXPECT_EQ(hist.min(), *std::min_element(samples.begin(), samples.end()));
    EXPECT_EQ(hist.max(), *std::max_element(samples.begin(), samples.end()));
  }
}

TEST(HdrHistogram, InsertionOrderNeverMatters) {
  Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.exponential(2e-3));
  HdrHistogram forward(0.01);
  HdrHistogram backward(0.01);
  for (const double s : samples) forward.add(s);
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) backward.add(*it);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(forward.percentile(q), backward.percentile(q));
  }
  // The percentiles are pure functions of the bucket counts (bit-equal
  // above); the mean sums in insertion order, so it only agrees to rounding.
  EXPECT_NEAR(forward.mean(), backward.mean(), 1e-12 * forward.mean());
}

TEST(HdrHistogram, MergeEqualsSingleHistogram) {
  Rng rng(11);
  HdrHistogram all(0.02);
  HdrHistogram left(0.02);
  HdrHistogram right(0.02);
  for (int i = 0; i < 4000; ++i) {
    const double v = rng.exponential(1e-3);
    all.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  for (const double q : {0.5, 0.99}) EXPECT_EQ(left.percentile(q), all.percentile(q));

  HdrHistogram other_eps(0.05);
  other_eps.add(1.0);
  EXPECT_THROW(left.merge(other_eps), InvalidArgument);
}

TEST(HdrHistogram, RejectsBadConfiguration) {
  EXPECT_THROW(HdrHistogram(0.0), InvalidArgument);
  EXPECT_THROW(HdrHistogram(1.0), InvalidArgument);
  EXPECT_THROW(HdrHistogram(-0.1), InvalidArgument);
  EXPECT_THROW(HdrHistogram(0.01, 0.0), InvalidArgument);
  EXPECT_NO_THROW(HdrHistogram(0.5, 1e-12));
}

// ---------------------------------------------------------------------------
// hdr percentile mode in the simulator + campaign
// ---------------------------------------------------------------------------

TEST(PercentileModes, HdrTracksExactWithinConfiguredError) {
  Scenario exact_run = faulty_scenario();
  const FleetMetrics exact = simulate(exact_run);

  Scenario hdr_run = faulty_scenario();
  hdr_run.sim.percentile_mode = PercentileMode::kHdr;
  hdr_run.sim.hdr_relative_error = 0.01;
  const FleetMetrics hdr = simulate(hdr_run);

  // Counters and exact statistics do not change with the percentile mode.
  EXPECT_EQ(exact.completed, hdr.completed);
  EXPECT_EQ(exact.shed_requests, hdr.shed_requests);
  EXPECT_EQ(exact.mean_latency_s, hdr.mean_latency_s);
  EXPECT_EQ(exact.max_latency_s, hdr.max_latency_s);
  EXPECT_EQ(exact.fleet_energy_j, hdr.fleet_energy_j);
  // Percentiles agree within the configured relative error.
  EXPECT_LE(rel_err(hdr.p50_latency_s, exact.p50_latency_s), 1.05 * 0.01);
  EXPECT_LE(rel_err(hdr.p95_latency_s, exact.p95_latency_s), 1.05 * 0.01);
  EXPECT_LE(rel_err(hdr.p99_latency_s, exact.p99_latency_s), 1.05 * 0.01);
  EXPECT_LE(rel_err(hdr.p999_latency_s, exact.p999_latency_s), 1.05 * 0.01);
  for (std::size_t t = 0; t < exact.tenants.size(); ++t) {
    EXPECT_EQ(exact.tenants[t].completed, hdr.tenants[t].completed);
    EXPECT_LE(rel_err(hdr.tenants[t].p99_latency_s, exact.tenants[t].p99_latency_s),
              1.05 * 0.01);
  }

  // The sketched path is itself bit-reproducible.
  Scenario hdr_again = faulty_scenario();
  hdr_again.sim.percentile_mode = PercentileMode::kHdr;
  hdr_again.sim.hdr_relative_error = 0.01;
  const FleetMetrics hdr2 = simulate(hdr_again);
  EXPECT_EQ(hdr.p50_latency_s, hdr2.p50_latency_s);
  EXPECT_EQ(hdr.p99_latency_s, hdr2.p99_latency_s);
  EXPECT_EQ(hdr.p999_latency_s, hdr2.p999_latency_s);
}

TEST(PercentileModes, CampaignWiresTheModeThrough) {
  const WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  CampaignConfig cfg;
  cfg.base.catalog = catalog;
  cfg.base.sim.percentile_mode = PercentileMode::kHdr;
  cfg.base.sim.hdr_relative_error = 0.02;
  cfg.base.traffic.open.request_count = 5000;
  cfg.base.traffic.open.seed = 5;
  cfg.qps = {0.8 * fleet_capacity_qps(catalog, "tron", 2, 8)};
  cfg.schedulers = {SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {2};
  cfg.max_batches = {8};
  const std::vector<CampaignPoint> points = run_campaign(cfg);
  ASSERT_EQ(points.size(), 1u);

  // Campaign point 0 == a direct simulate with the point-0 derived seed.
  Scenario scenario;
  scenario.fleet = FleetConfig::cycled(cfg.fleet_templates.front(), 2, cfg.base.fleet.routing);
  scenario.catalog = catalog;
  scenario.scheduler = SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = 8;
  scenario.batch.max_wait_s = cfg.base.batch.max_wait_s;
  scenario.sim.percentile_mode = cfg.base.sim.percentile_mode;
  scenario.sim.hdr_relative_error = cfg.base.sim.hdr_relative_error;
  scenario.traffic.open.offered_qps = cfg.qps.front();
  scenario.traffic.open.request_count = cfg.base.traffic.open.request_count;
  scenario.traffic.open.seed = cfg.base.traffic.open.seed + 0x9E3779B9u;
  const FleetMetrics direct = simulate(scenario);
  EXPECT_EQ(points.front().metrics.p50_latency_s, direct.p50_latency_s);
  EXPECT_EQ(points.front().metrics.p99_latency_s, direct.p99_latency_s);
  EXPECT_EQ(points.front().metrics.completed, direct.completed);

  const FleetMetrics again = simulate(scenario);
  EXPECT_EQ(direct.p99_latency_s, again.p99_latency_s);
}

TEST(PercentileModes, NamesRoundTripAndBadValuesThrow) {
  EXPECT_EQ(percentile_mode_from_name("exact"), PercentileMode::kExact);
  EXPECT_EQ(percentile_mode_from_name("hdr"), PercentileMode::kHdr);
  EXPECT_STREQ(percentile_mode_name(PercentileMode::kHdr), "hdr");
  EXPECT_THROW((void)percentile_mode_from_name("bogus"), InvalidArgument);
  Scenario bad = faulty_scenario();
  bad.sim.percentile_mode = PercentileMode::kHdr;
  bad.sim.hdr_relative_error = 1.0;
  EXPECT_THROW(simulate(bad), InvalidArgument);
}

// ---------------------------------------------------------------------------
// FleetMetrics::to_table section gates
// ---------------------------------------------------------------------------

TEST(FleetMetricsTable, SuppressesAllZeroRobustnessAndAutoscaleSections) {
  WorkloadCatalog catalog = WorkloadCatalog::tron_default();
  Scenario scenario;
  scenario.fleet = FleetConfig::homogeneous("tron", 2);
  scenario.catalog = catalog;
  scenario.scheduler = SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = 8;
  scenario.traffic.open.offered_qps = 0.5 * fleet_capacity_qps(catalog, "tron", 2, 8);
  scenario.traffic.open.request_count = 3000;
  scenario.traffic.open.seed = 3;
  const FleetMetrics clean = simulate(scenario);
  std::ostringstream clean_table;
  clean.to_table("clean").print(clean_table);
  EXPECT_EQ(clean_table.str().find("slot failures"), std::string::npos);
  EXPECT_EQ(clean_table.str().find("shed (admission)"), std::string::npos);
  EXPECT_EQ(clean_table.str().find("autoscale grows"), std::string::npos);
  EXPECT_NE(clean_table.str().find("p99 latency"), std::string::npos);

  const FleetMetrics faulty = simulate(faulty_scenario(4000));
  std::ostringstream faulty_table;
  faulty.to_table("faulty").print(faulty_table);
  EXPECT_NE(faulty_table.str().find("slot failures"), std::string::npos);
  EXPECT_NE(faulty_table.str().find("shed (admission)"), std::string::npos);
  EXPECT_NE(faulty_table.str().find("requeued requests"), std::string::npos);
}

}  // namespace
}  // namespace lumos::serve
