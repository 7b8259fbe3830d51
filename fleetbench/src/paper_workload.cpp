// The paper-estimates workload: Figs. 8-11 and the headline claims on the
// TRON and GHOST adapters and the 15 electronic baselines, with no serving
// and no estimate cache.  The set-up builds the accelerators and the
// evaluation workloads (the graph datasets among them) once; the timed pass
// runs `sim::run_figure` on them, so the cost models (`tron`, `ghost`,
// `graph`, `baselines` through `arch`) do the timed work.  The cost models
// take no random input, so the seed changes nothing here; it is only
// recorded.
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/platform_adapter.hpp"
#include "arch/registry.hpp"
#include "bench.hpp"
#include "sim/figures.hpp"

namespace fleetbench {
namespace {

using namespace lumos;

constexpr int kMinReps = 5;

// The paper's claims are lower bounds on the minimum gain over every
// baseline (abstract and Section VI).
constexpr double kTronThroughputClaim = 14.0;
constexpr double kTronEpbClaim = 8.0;
constexpr double kGhostThroughputClaim = 10.2;
constexpr double kGhostEpbClaim = 3.8;

struct PaperInputs {
  std::unique_ptr<arch::Accelerator> tron;
  std::unique_ptr<arch::Accelerator> ghost;
  std::vector<arch::Workload> llm;
  std::vector<arch::Workload> gnn;
};

// The set-up, timed as two layers: the catalog (the TRON and GHOST
// accelerators and the transformer evaluation workloads) and the GNN
// evaluation workloads, whose graph datasets dominate.
SetupTimes set_up_once(PaperInputs& in) {
  const auto t0 = Clock::now();
  in.tron = arch::make_accelerator("tron");
  in.ghost = arch::make_accelerator("ghost");
  in.llm = sim::llm_eval_workloads();
  const double catalog_s = seconds_since(t0);
  in.gnn = sim::gnn_eval_workloads();
  return {catalog_s, seconds_since(t0) - catalog_s};
}

// One pass: every figure and the claims.
struct Pass {
  std::vector<sim::FigureData> figures;  // Figs. 8, 9, 10, 11
  sim::HeadlineClaims claims;
  std::size_t estimates = 0;
};

// The claims are each figure's smallest improvement, as
// `sim::run_headline_claims` takes them; the run checks once that the two
// agree bit for bit.
sim::HeadlineClaims claims_of(const std::vector<sim::FigureData>& f) {
  sim::HeadlineClaims c;
  c.tron_min_epb_gain = f[0].min_improvement();
  c.tron_min_throughput_gain = f[1].min_improvement();
  c.ghost_min_epb_gain = f[2].min_improvement();
  c.ghost_min_throughput_gain = f[3].min_improvement();
  return c;
}

// `span` wraps each runner call when tracing.  The figures run on the
// workloads the set-up built, the way `sim::run_fig8_epb_llm` and its
// siblings run them on freshly built ones.
template <typename Span>
Pass run_pass(const PaperInputs& s, Span&& span) {
  Pass p;
  const auto figure = [&](const char* name, const arch::Accelerator& acc,
                          const std::vector<arch::Workload>& workloads, sim::Metric metric) {
    span(name, [&] { p.figures.push_back(sim::run_figure(acc, workloads, metric, name)); });
  };
  figure("fig8", *s.tron, s.llm, sim::Metric::kEnergyPerBit);
  figure("fig9", *s.tron, s.llm, sim::Metric::kThroughputOps);
  figure("fig10", *s.ghost, s.gnn, sim::Metric::kEnergyPerBit);
  figure("fig11", *s.ghost, s.gnn, sim::Metric::kThroughputOps);
  span("claims", [&] { p.claims = claims_of(p.figures); });
  for (const sim::FigureData& f : p.figures) p.estimates += f.workloads.size() * f.platforms.size();
  return p;
}

Pass run_untraced_pass(const PaperInputs& s) {
  return run_pass(s, [](const char*, auto&& body) { body(); });
}

std::vector<double> claim_values(const sim::HeadlineClaims& c) {
  return {c.tron_min_throughput_gain, c.tron_min_epb_gain, c.ghost_min_throughput_gain,
          c.ghost_min_epb_gain};
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) return false;
  }
  return true;
}

std::vector<double> pass_values(const Pass& p) {
  std::vector<double> v = claim_values(p.claims);
  for (const sim::FigureData& f : p.figures) {
    for (std::size_t w = 0; w < f.workloads.size(); ++w) {
      for (std::size_t k = 0; k < f.platforms.size(); ++k) v.push_back(f.value(w, k));
    }
  }
  return v;
}

bool identical(const Pass& a, const Pass& b) { return same_bits(pass_values(a), pass_values(b)); }

// Checks every ratio against its claim, reports each with its margin, and
// checks that `sim::run_headline_claims` (which rebuilds the evaluation
// workloads) gives the same bits as the timed pass.
void check_claims(const sim::HeadlineClaims& c, const PaperInputs& in, Report& report) {
  report.check("claims_match_runner",
               same_bits(claim_values(c),
                         claim_values(sim::run_headline_claims(*in.tron, *in.ghost))));
  const struct {
    const char* name;
    double value;
    double claim;
  } ratios[] = {
      {"tron_min_throughput_x", c.tron_min_throughput_gain, kTronThroughputClaim},
      {"tron_min_epb_x", c.tron_min_epb_gain, kTronEpbClaim},
      {"ghost_min_throughput_x", c.ghost_min_throughput_gain, kGhostThroughputClaim},
      {"ghost_min_epb_x", c.ghost_min_epb_gain, kGhostEpbClaim},
  };
  for (const auto& r : ratios) {
    char detail[96];
    std::snprintf(detail, sizeof detail, "%.4f x against a claim of >= %.1f x (margin %+.2f%%)",
                  r.value, r.claim, (r.value / r.claim - 1.0) * 100.0);
    report.check(std::string(r.name) + "_meets_claim", r.value >= r.claim, detail);
    report.e2e(r.name, r.value, "x");
    report.e2e(std::string(r.name) + "_margin", r.value / r.claim - 1.0, "ratio");
  }
}

// Appends the wall, in us, of single `estimate` calls of `acc` over
// `workloads`; `sink` keeps the results live.
template <typename Acc>
void time_estimates(const Acc& acc, const std::vector<arch::Workload>& workloads,
                    std::vector<double>& us_out, double& sink) {
  constexpr int kRounds = 5;
  for (int r = 0; r < kRounds; ++r) {
    for (const arch::Workload& w : workloads) {
      const auto t0 = Clock::now();
      sink += acc.estimate(w).latency_s;
      us_out.push_back(seconds_since(t0) * 1e6);
    }
  }
}

void run_untraced(const Options& options, Report& report) {
  report.note("seed: recorded only; the cost models take no random input");
  PaperInputs in;
  SetupSampler setup;
  std::vector<double> walls;
  Pass first;
  bool repeat_ok = true;
  repeat_for(options.seconds, kMinReps, [&] {
    setup.slice([&] { return set_up_once(in); });
    Pass p;
    const double wall = timed(report, "figures", [&] { p = run_untraced_pass(in); });
    if (wall < 0.0) return false;
    walls.push_back(wall);
    if (walls.size() == 1) {
      first = std::move(p);
    } else {
      repeat_ok = repeat_ok && identical(first, p);
    }
    return true;
  });
  if (walls.empty()) throw std::runtime_error("no figure pass succeeded");
  report.check("repeat_bit_identical", repeat_ok, std::to_string(walls.size()) + " passes");

  const double wall = median(walls);
  char line[160];
  std::snprintf(line, sizeof line,
                "figure pass wall: median %.4f s, quartiles %.4f-%.4f s, n=%zu, %zu estimates",
                wall, quantile(walls, 0.25), quantile(walls, 0.75), walls.size(),
                first.estimates);
  report.note(line);
  // BENCHMARK.json bounds one throughput, `requests_per_s`, on every
  // workload; here a request is one cost-model estimate, so it is the same
  // number as `estimates_per_s`.
  const double rate = static_cast<double>(first.estimates) / wall;
  report.e2e("estimates_per_s", rate, "1/s");
  report.e2e("requests_per_s", rate, "1/s");
  report.e2e("setup_s", setup.total_s(), "s");
  check_claims(first.claims, in, report);
}

void run_traced(const Options& options, Report& report) {
  PaperInputs in;
  SetupSampler setup;
  Pass reference;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<std::vector<double>> figure_s;  // per pass: fig8..fig11, claims
  std::vector<double> unattributed;
  std::vector<Span> last_spans;
  bool traced_ok = true;
  repeat_for(options.seconds, kMinReps, [&] {
    setup.slice([&] { return set_up_once(in); });
    Pass untraced;
    const double wall = timed(report, "figures", [&] { untraced = run_untraced_pass(in); });
    if (wall < 0.0) return false;
    if (untraced_walls.empty()) reference = std::move(untraced);
    untraced_walls.push_back(wall);

    SpanRecorder rec;
    Pass traced;
    double traced_wall = 0.0;
    const double ok = timed(report, "traced figures", [&] {
      const double start = rec.since_origin();
      traced = run_pass(in, [&](const char* name, auto&& body) {
        const ScopedSpan span(rec, name);
        body();
      });
      traced_wall = rec.since_origin() - start;
    });
    if (ok < 0.0) return false;
    traced_ok = traced_ok && identical(reference, traced);
    const std::vector<Span> spans = rec.spans();
    std::vector<double> times;
    for (const Span& s : spans) times.push_back(s.duration_s());
    figure_s.push_back(times);
    unattributed.push_back(unattributed_fraction(spans, wall));
    traced_walls.push_back(traced_wall);
    last_spans = spans;
    return true;
  });
  if (figure_s.empty()) throw std::runtime_error("no traced figure pass succeeded");

  report.check("traced_matches_untraced", traced_ok);
  report_ledger(unattributed, report);
  for (const Span& s : last_spans) {
    char line[96];
    std::snprintf(line, sizeof line, "span %-8s %.6f s", s.name.c_str(), s.duration_s());
    report.note(line);
  }

  std::vector<double> tron_us;
  std::vector<double> ghost_us;
  std::vector<double> platform_us;
  double sink = 0.0;
  time_estimates(*in.tron, in.llm, tron_us, sink);
  time_estimates(*in.ghost, in.gnn, ghost_us, sink);
  for (baselines::PlatformModel& m : baselines::llm_baselines()) {
    time_estimates(arch::PlatformAdapter(std::move(m)), in.llm, platform_us, sink);
  }
  for (baselines::PlatformModel& m : baselines::gnn_baselines()) {
    time_estimates(arch::PlatformAdapter(std::move(m)), in.gnn, platform_us, sink);
  }
  if (!std::isfinite(sink)) report.note("non-finite estimate latency");

  report.layer("arch.tron_estimate_us", median(tron_us), "us");
  report.layer("arch.ghost_estimate_us", median(ghost_us), "us");
  report.layer("arch.platform_estimate_us", median(platform_us), "us");
  const char* figure_names[] = {"figures.fig8_s", "figures.fig9_s", "figures.fig10_s",
                                "figures.fig11_s", "figures.claims_s"};
  for (std::size_t i = 0; i < 5; ++i) {
    std::vector<double> v;
    for (const auto& pass : figure_s) v.push_back(pass[i]);
    report.layer(figure_names[i], median(v), "s");
  }
  const SetupTimes setup_times = setup.layers();
  report.layer("setup.catalog_s", setup_times.catalog_s, "s");
  report.layer("setup.eval_workloads_s", setup_times.eval_workloads_s, "s");
  report.layer("ledger.trace_overhead_x", median(traced_walls) / median(untraced_walls), "ratio");
}

}  // namespace

void run_paper_estimates(const Options& options, Report& report) {
  if (options.trace) {
    run_traced(options, report);
  } else {
    run_untraced(options, report);
  }
}

}  // namespace fleetbench
