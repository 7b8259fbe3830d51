#include "serve/campaign.hpp"

#include <limits>
#include <utility>

#include "arch/registry.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "serve/names.hpp"
#include "serve/shard.hpp"

namespace lumos::serve {

namespace {

// Mean of `cost` over a fixed-seed draw of 512 lengths from `dist`, or its
// one value when `dist` is fixed: deterministic, and cheap because the grid
// collapses the draws onto a handful of distinct cache keys.
template <class Cost>
double mean_cost(const LengthDist& dist, std::uint32_t floor, std::uint32_t grid, Rng rng,
                 Cost cost) {
  if (dist.shape == SeqLenDist::kFixed) return cost(dist.center);
  constexpr std::size_t kSamples = 512;
  double sum = 0.0;
  for (std::size_t i = 0; i < kSamples; ++i) sum += cost(dist.sample(rng, floor, grid));
  return sum / static_cast<double>(kSamples);
}

// Expected per-request service time of one catalog entry at `batch`.  Fixed
// entries price at the native length (one exact lookup, bit-identical to the
// pre-seqlen estimate); sampled entries average over their prompt lengths.
double expected_service_s(const EstimateCache& cache, const WorkloadCatalog& catalog,
                          std::uint32_t w, std::size_t batch) {
  return mean_cost(catalog.at(w).prompt(), kPromptFloor, kPromptGrid, Rng(0xCAFAC17, w),
                   [&](std::uint32_t seq) { return cache.estimate(w, batch, seq).latency_s; }) /
         static_cast<double>(batch);
}

// Expected per-request *decode* time of one catalog entry at `batch` lanes:
// (E[tokens] - 1) decode steps priced at the entry's native context,
// amortised over the lanes sharing each step.  0 for decode-free entries (or
// accelerators with no decode path), so pre-decode capacity numbers are
// untouched.
double expected_decode_s(const EstimateCache& cache, const WorkloadCatalog& catalog,
                         std::uint32_t w, std::size_t batch) {
  const DecodeConfig& decode = catalog.at(w).decode;
  if (!decode.enabled() || !cache.can_generate()) return 0.0;
  const double mean_tokens = mean_cost(decode.tokens, 1, 1, Rng(0xDECAF, w),
                                       [](std::uint32_t n) { return static_cast<double>(n); });
  if (mean_tokens <= 1.0) return 0.0;  // the prefill already made the only token
  const arch::Workload& wl = catalog.workload(w);
  std::uint32_t ctx = 1;
  if (wl.kind() == arch::WorkloadKind::kTransformer) {
    ctx = static_cast<std::uint32_t>(wl.transformer_config().seq_len);
  }
  ctx = (std::max(ctx, 1u) + kDecodeContextGrid - 1) / kDecodeContextGrid * kDecodeContextGrid;
  const double step_s = cache.decode_step(w, batch, ctx).latency_s;
  return (mean_tokens - 1.0) * step_s / static_cast<double>(batch);
}

// "a+b" join of a fleet template's spec names (labels, JSON).
std::string template_label(const std::vector<std::string>& specs) {
  std::string label;
  for (const std::string& spec : specs) {
    if (!label.empty()) label += '+';
    label += spec;
  }
  return label;
}

}  // namespace

double fleet_capacity_qps(const WorkloadCatalog& catalog, const std::string& spec,
                          std::size_t fleet_size, std::size_t batch) {
  if (fleet_size < 1) throw InvalidArgument("fleet_size must be >= 1");
  if (batch < 1) throw InvalidArgument("batch must be >= 1");
  const EstimateCache cache(spec, catalog);
  double weighted_service_s = 0.0;
  double served_weight = 0.0;
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    if (!cache.can_serve(w)) continue;
    const double per_request_s = expected_service_s(cache, catalog, w, batch) +
                                 expected_decode_s(cache, catalog, w, batch);
    weighted_service_s += catalog.at(w).mix_weight * per_request_s;
    served_weight += catalog.at(w).mix_weight;
  }
  if (served_weight <= 0.0) {
    throw InvalidArgument("accelerator spec '" + spec +
                          "' serves no workload in the catalog");
  }
  weighted_service_s /= served_weight;
  return static_cast<double>(fleet_size) / weighted_service_s;
}

double fleet_capacity_qps(const WorkloadCatalog& catalog, const FleetConfig& fleet,
                          std::size_t batch) {
  if (batch < 1) throw InvalidArgument("batch must be >= 1");
  if (fleet.accelerators.empty()) {
    throw InvalidArgument("FleetConfig.accelerators must not be empty");
  }
  if (catalog.empty()) throw InvalidArgument("WorkloadCatalog must not be empty");
  // Distinct specs with their slot counts (a homogeneous fleet stays one
  // group, so its capacity is exactly fleet_size / mean service time).
  std::vector<std::pair<std::string, std::size_t>> groups;
  for (const std::string& spec : fleet.accelerators) {
    bool found = false;
    for (auto& [name, count] : groups) {
      if (name == spec) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) groups.emplace_back(spec, 1);
  }
  // Per workload kind: the kind's slots sustain their summed rate against the
  // kind's sub-mix, and the offered load splits by mix weight.
  double capacity = std::numeric_limits<double>::infinity();
  for (const arch::WorkloadKind kind :
       {arch::WorkloadKind::kTransformer, arch::WorkloadKind::kGnn}) {
    if (!catalog.has_kind(kind)) continue;
    double kind_weight = 0.0;
    for (std::uint32_t w = 0; w < catalog.size(); ++w) {
      if (catalog.workload(w).kind() == kind) kind_weight += catalog.at(w).mix_weight;
    }
    const double traffic_fraction = kind_weight / catalog.total_weight();
    double rate = 0.0;  // requests/s the kind's slots sustain together
    for (const auto& [spec, count] : groups) {
      if (!arch::spec_serves(spec, kind)) continue;
      // A multi-kind platform splits its unloaded rate across the kinds it
      // serves in proportion to their mix weight; a single-kind fabric's
      // factor is x/x == 1.0 exactly, keeping photonic-only fleets
      // bit-identical to the kind-matched accounting.
      double served_weight = 0.0;
      for (std::uint32_t w = 0; w < catalog.size(); ++w) {
        if (arch::spec_serves(spec, catalog.workload(w).kind())) {
          served_weight += catalog.at(w).mix_weight;
        }
      }
      rate += fleet_capacity_qps(catalog, spec, count, batch) *
              (kind_weight / served_weight);
    }
    if (rate <= 0.0) {
      throw InvalidArgument("fleet '" + fleet.label() + "' has no accelerator for " +
                            std::string(arch::workload_kind_name(kind)) + " workloads");
    }
    capacity = std::min(capacity, rate / traffic_fraction);
  }
  return capacity;
}

void validate_campaign(const CampaignConfig& config) {
  const auto check = [](bool ok, const std::string& message) {
    if (!ok) throw InvalidArgument("CampaignConfig." + message);
  };
  check(config.base.trace.empty() && config.base.traffic.mode == LoopMode::kOpen &&
            !config.base.observe.enabled(),
        "base must serve generated open-loop traffic with no observers: a campaign "
        "sweeps offered load");
  check(config.cells >= 1, "cells must be >= 1");
  check(!config.fleet_templates.empty(), "fleet_templates must not be empty");
  for (const std::vector<std::string>& t : config.fleet_templates) {
    check(!t.empty(), "fleet_templates entries must not be empty");
  }
  check(!config.fleet_sizes.empty(), "fleet_sizes must not be empty");
  for (const std::size_t n : config.fleet_sizes) {
    check(n >= 1, "fleet_sizes entries must be >= 1");
    check(config.cells <= n, "cells (" + std::to_string(config.cells) +
                                 ") must not exceed any fleet size (got fleet size " +
                                 std::to_string(n) + ")");
  }
  check(!config.schedulers.empty(), "schedulers must not be empty");
  check(!config.max_batches.empty(), "max_batches must not be empty");
  check(!config.autoscalers.empty(), "autoscalers must not be empty");
  check(!config.admissions.empty(), "admissions must not be empty");
  check(!config.fault_mtbfs_s.empty(), "fault_mtbfs_s must not be empty");
  for (const double mtbf_s : config.fault_mtbfs_s) {
    check(mtbf_s >= 0.0, "fault_mtbfs_s points must be >= 0, got " + std::to_string(mtbf_s));
  }
  check(!config.qps.empty(), "qps must not be empty");
  for (const double q : config.qps) {
    check(q > 0.0, "qps points must be positive, got " + std::to_string(q));
  }
  // Every other knob is the base's or an axis value inside a Scenario.
  const std::vector<CampaignPoint> points = campaign_grid(config);
  for (std::size_t i = 0; i < points.size(); ++i) {
    validate_scenario(campaign_scenario(config, points[i], i));
  }
}

std::vector<CampaignPoint> campaign_grid(const CampaignConfig& config) {
  std::vector<CampaignPoint> points;
  for (const std::vector<std::string>& fleet_template : config.fleet_templates) {
    for (const std::size_t fleet_size : config.fleet_sizes) {
      for (const SchedulerKind scheduler : config.schedulers) {
        // FIFO ignores the batch policy: one grid point per (fleet, qps).
        const std::vector<std::size_t> batches =
            scheduler == SchedulerKind::kFifo ? std::vector<std::size_t>{1}
                                              : config.max_batches;
        for (const std::size_t max_batch : batches) {
          for (const AutoscalerPolicy autoscaler : config.autoscalers) {
            for (const AdmissionPolicy admission : config.admissions) {
              for (const double fault_mtbf_s : config.fault_mtbfs_s) {
                for (const double qps : config.qps) {
                  CampaignPoint p;
                  p.fleet_template = fleet_template;
                  p.qps = qps;
                  p.scheduler = scheduler;
                  p.fleet_size = fleet_size;
                  p.max_batch = max_batch;
                  p.autoscaler = autoscaler;
                  p.admission = admission;
                  p.fault_mtbf_s = fault_mtbf_s;
                  points.push_back(p);
                }
              }
            }
          }
        }
      }
    }
  }
  return points;
}

Scenario campaign_scenario(const CampaignConfig& config, const CampaignPoint& point,
                           std::size_t index) {
  Scenario scenario = config.base;
  scenario.fleet.accelerators =
      FleetConfig::cycled(point.fleet_template, point.fleet_size).accelerators;
  scenario.scheduler = point.scheduler;
  scenario.batch.max_batch = point.max_batch;
  scenario.sim.autoscaler.policy = point.autoscaler;
  scenario.sim.admission.policy = point.admission;
  scenario.sim.faults.mtbf_s = point.fault_mtbf_s;
  scenario.traffic.open.offered_qps = point.qps;
  // Trace seeds mix the grid index so points draw independent arrival
  // sequences.
  scenario.traffic.open.seed += 0x9E3779B9u * (static_cast<std::uint64_t>(index) + 1);
  return scenario;
}

std::vector<CampaignPoint> run_campaign(const CampaignConfig& config) {
  validate_campaign(config);
  std::vector<CampaignPoint> points = campaign_grid(config);
  // Grid points are independent; each simulates serially in its own chunk and
  // writes only its own slot, so the sweep is bit-reproducible across thread
  // counts.
  parallel_for(0, points.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      points[i].metrics =
          simulate_sharded(campaign_scenario(config, points[i], i), config.cells);
    }
  });
  return points;
}

Table campaign_table(const std::vector<CampaignPoint>& points, const std::string& title) {
  Table t(title);
  // Robustness columns only when some point exercises them, so fault-free
  // campaign tables keep their familiar shape.
  bool robust = false;
  bool decode = false;
  // The template column appears only when the campaign actually swept
  // templates, so single-template tables keep their familiar shape.
  bool multi_template = false;
  for (const CampaignPoint& p : points) {
    robust = robust || p.admission != AdmissionPolicy::kNone || p.fault_mtbf_s > 0.0 ||
             p.metrics.drop_rate > 0.0;
    decode = decode || p.metrics.decode_requests > 0;
    multi_template =
        multi_template || p.fleet_template != points.front().fleet_template;
  }
  std::vector<std::string> header{"fleet", "sched", "batch", "scaler", "offered QPS",
                                  "goodput QPS", "p50 us", "p99 us", "p99.9 us",
                                  "mean batch", "uJ/req", "$/req", "util"};
  if (multi_template) header.insert(header.begin(), "template");
  // The "admit" column slots between "scaler" and "offered QPS", one place
  // further right when the template column leads.
  const std::size_t admit_at = multi_template ? 5 : 4;
  if (robust) {
    header.insert(header.begin() + static_cast<std::ptrdiff_t>(admit_at), "admit");
    header.push_back("drop");
    header.push_back("avail");
  }
  if (decode) {
    header.push_back("tok/s");
    header.push_back("p95 TTFT us");
    header.push_back("p95 TPOT us");
  }
  t.add_row(header);
  for (const CampaignPoint& p : points) {
    const FleetMetrics& m = p.metrics;
    std::string fleet_cell = std::to_string(p.fleet_size);
    if (p.autoscaler != AutoscalerPolicy::kNone) {
      fleet_cell += "->" + std::to_string(m.final_fleet_size) + " (peak " +
                    std::to_string(m.peak_fleet_size) + ")";
    }
    std::vector<std::string> row{
        fleet_cell, scheduler_name(p.scheduler), std::to_string(p.max_batch),
        autoscaler_name(p.autoscaler), Table::num(p.qps, 1), Table::num(m.goodput_qps, 1),
        Table::num(units::to_us(m.p50_latency_s), 1),
        Table::num(units::to_us(m.p99_latency_s), 1),
        Table::num(units::to_us(m.p999_latency_s), 1), Table::num(m.mean_batch_size, 2),
        Table::num(m.energy_per_request_j * 1e6, 3),
        Table::num(m.cost_per_request_usd, 9), Table::num(m.fleet_utilization, 3)};
    if (multi_template) row.insert(row.begin(), template_label(p.fleet_template));
    if (robust) {
      row.insert(row.begin() + static_cast<std::ptrdiff_t>(admit_at),
                 admission_name(p.admission));
      row.push_back(Table::num(m.drop_rate, 4));
      row.push_back(Table::num(m.fleet_availability, 4));
    }
    if (decode) {
      row.push_back(Table::num(m.tokens_per_s, 1));
      row.push_back(Table::num(units::to_us(m.p95_ttft_s), 1));
      row.push_back(Table::num(units::to_us(m.p95_tpot_s), 1));
    }
    t.add_row(row);
  }
  return t;
}

void write_campaign_json(JsonWriter& w, const CampaignConfig& config,
                         const std::vector<CampaignPoint>& points) {
  w.begin_object()
      .field("campaign", config.name)
      .field("fleet_template", template_label(config.fleet_templates.front()))
      .field("process", process_name(config.base.traffic.open.process))
      .field("routing", routing_name(config.base.fleet.routing))
      .field("requests_per_point", config.base.traffic.open.request_count)
      .field("cells", config.cells)
      .field("decode_mode", decode_mode_name(config.base.sim.decode_mode))
      .begin_array("points");
  for (const CampaignPoint& p : points) {
    const FleetMetrics& m = p.metrics;
    w.begin_object()
        .field("fleet_template", template_label(p.fleet_template))
        .field("fleet", p.fleet_size)
        .field("scheduler", scheduler_name(p.scheduler))
        .field("max_batch", p.max_batch)
        .field("autoscaler", autoscaler_name(p.autoscaler))
        .field("admission", admission_name(p.admission))
        .field("fault_mtbf_s", p.fault_mtbf_s)
        .field("offered_qps", p.qps)
        .field("throughput_qps", m.throughput_qps)
        .field("goodput_qps", m.goodput_qps)
        .field("slo_latency_s", m.slo_latency_s)
        .field("slo_attainment", m.slo_attainment)
        .field("p50_latency_s", m.p50_latency_s)
        .field("p95_latency_s", m.p95_latency_s)
        .field("p99_latency_s", m.p99_latency_s)
        .field("p999_latency_s", m.p999_latency_s)
        .field("mean_queue_depth", m.mean_queue_depth)
        .field("peak_queue_depth", m.peak_queue_depth)
        .field("mean_batch", m.mean_batch_size)
        .field("energy_per_request_j", m.energy_per_request_j)
        .field("fleet_energy_j", m.fleet_energy_j)
        .field("fleet_cost_usd", m.fleet_cost_usd)
        .field("cost_per_request_usd", m.cost_per_request_usd)
        .field("utilization", m.fleet_utilization)
        .field("peak_fleet", m.peak_fleet_size)
        .field("final_fleet", m.final_fleet_size)
        .field("mean_fleet", m.mean_fleet_size)
        .field("autoscale_grows", m.autoscale_grows)
        .field("autoscale_shrinks", m.autoscale_shrinks)
        .field("estimate_lookups", m.estimate_lookups)
        .field("estimate_misses", m.estimate_misses)
        .field("shed", m.shed_requests)
        .field("timed_out", m.timed_out_requests)
        .field("retries", m.retried_attempts)
        .field("failed_batches", m.failed_batches)
        .field("requeued", m.requeued_requests)
        .field("slot_failures", m.slot_failures)
        .field("availability", m.fleet_availability)
        .field("drop_rate", m.drop_rate)
        .field("decode_requests", m.decode_requests)
        .field("generated_tokens", m.generated_tokens)
        .field("aborted_decode_tokens", m.aborted_decode_tokens)
        .field("tokens_per_s", m.tokens_per_s)
        .field("mean_ttft_s", m.mean_ttft_s)
        .field("p95_ttft_s", m.p95_ttft_s)
        .field("p99_ttft_s", m.p99_ttft_s)
        .field("mean_tpot_s", m.mean_tpot_s)
        .field("p95_tpot_s", m.p95_tpot_s)
        .field("ttft_attainment", m.ttft_attainment)
        .field("tpot_attainment", m.tpot_attainment)
        .field("mean_decode_occupancy", m.mean_decode_occupancy)
        .begin_array("tenants");
    for (const TenantMetrics& t : m.tenants) {
      w.begin_object()
          .field("name", t.name)
          .field("priority", t.priority)
          .field("slo_latency_s", t.slo_latency_s)
          .field("completed", t.completed)
          .field("slo_attainment", t.slo_attainment)
          .field("goodput_qps", t.goodput_qps)
          .field("shed", t.shed)
          .field("timed_out", t.timed_out)
          .field("drop_rate", t.drop_rate)
          .field("cost_usd", t.cost_usd)
          .field("p50_latency_s", t.p50_latency_s)
          .field("p99_latency_s", t.p99_latency_s)
          .end();
    }
    w.end().end();
  }
  w.end().end();
}

}  // namespace lumos::serve
