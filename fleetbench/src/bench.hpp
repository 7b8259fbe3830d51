// Shared plumbing of the fleet benchmark: command-line options, the result
// report one run fills, and the timed-repetition loop.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "measure.hpp"

namespace fleetbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

// What one benchmark run reports: end-to-end metrics (untraced run),
// per-layer metrics (traced run), output checks, context notes, and the
// tally of attempted and failed operations behind `error_rate`.
class Report {
 public:
  void e2e(std::string name, double value, std::string unit) {
    e2e_.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layers_.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes_.push_back(std::move(line)); }

  // One output check; a failed check is a failed operation.
  void check(std::string name, bool ok, std::string detail = {}) {
    operation(ok);
    checks_.push_back({std::move(name), ok, std::move(detail)});
  }
  void operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  [[nodiscard]] double error_rate() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) / static_cast<double>(attempted_);
  }
  [[nodiscard]] const std::vector<Metric>& e2e() const noexcept { return e2e_; }
  [[nodiscard]] const std::vector<Metric>& layers() const noexcept { return layers_; }
  [[nodiscard]] const std::vector<Check>& checks() const noexcept { return checks_; }
  [[nodiscard]] const std::vector<std::string>& notes() const noexcept { return notes_; }
  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::vector<Check> checks_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// Wall time of one call of `op`, or a negative value when it threw (the
// failure is tallied in `report` and named on stderr).
template <typename Op>
double timed(Report& report, const char* what, Op&& op) {
  try {
    const auto t0 = Clock::now();
    op();
    const double wall = seconds_since(t0);
    report.operation(true);
    return wall;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s failed: %s\n", what, e.what());
    report.operation(false);
    return -1.0;
  }
}

// Calls `step` until `seconds` have passed and at least `min_reps` calls were
// made; `step` returns false to stop early (a failed call).
template <typename Step>
void repeat_for(double seconds, int min_reps, Step&& step) {
  const auto start = Clock::now();
  for (int rep = 0;; ++rep) {
    if (rep >= min_reps && seconds_since(start) >= seconds) return;
    if (!step()) return;
  }
}

// The layers of one set-up.
struct SetupTimes {
  double catalog_s = 0.0;         // catalog, scenario, accelerators
  double eval_workloads_s = 0.0;  // graph datasets of the GNN evaluation workloads
};

// Set-up runs in short slices spread over the whole run, one before every
// timed call, and reports medians over the slices: the host's speed drifts
// over seconds, so one burst of set-ups at the start would report whichever
// drift it met.  A slice repeats the set-up back to back and is timed as one
// interval, so even a set-up of under a microsecond is measured far above
// the clock's resolution.
class SetupSampler {
 public:
  static constexpr double kSliceSeconds = 0.02;

  // Repeats `once` (which rebuilds the set-up and returns its layers' times)
  // for one slice, at least once, and keeps the slice's mean per set-up.
  template <typename Once>
  void slice(Once&& once) {
    SetupTimes sum;
    double n = 0.0;
    const auto t0 = Clock::now();
    repeat_for(kSliceSeconds, 1, [&] {
      const SetupTimes t = once();
      sum.catalog_s += t.catalog_s;
      sum.eval_workloads_s += t.eval_workloads_s;
      n += 1.0;
      return true;
    });
    total_s_.push_back(seconds_since(t0) / n);
    catalog_s_.push_back(sum.catalog_s / n);
    eval_s_.push_back(sum.eval_workloads_s / n);
  }

  // One whole set-up (`setup_s`).
  [[nodiscard]] double total_s() const { return median(total_s_); }
  // Its layers, each timed on its own inside the set-ups.
  [[nodiscard]] SetupTimes layers() const { return {median(catalog_s_), median(eval_s_)}; }

 private:
  std::vector<double> catalog_s_;
  std::vector<double> eval_s_;
  std::vector<double> total_s_;
};

// The ledger closes when the top-level spans of the traced passes account for
// the untraced wall of the same repetitions to within this share (median over
// the passes).  The band holds the repetition-to-repetition noise of two
// separate calls; work that the traced decomposition skips, or that runs
// outside every span, shows as a larger share.
inline constexpr double kLedgerBand = 0.05;

// Reports `ledger.unattributed_fraction` and the `ledger_closes` check from
// the per-pass unattributed shares.
inline void report_ledger(const std::vector<double>& unattributed, Report& report) {
  const double share = median(unattributed);
  char detail[128];
  std::snprintf(detail, sizeof detail,
                "median unattributed %+.4f of the untraced wall over %zu passes (band %.2f)",
                share, unattributed.size(), kLedgerBand);
  report.check("ledger_closes", std::abs(share) <= kLedgerBand, detail);
  report.layer("ledger.unattributed_fraction", share, "ratio");
}

// The four workloads.  Each fills `report` from its untraced (`trace` off)
// or traced (`trace` on) run.
void run_serve_tron_serial(const Options& options, Report& report);
void run_serve_tron_sharded(const Options& options, Report& report);
void run_serve_hybrid_closed(const Options& options, Report& report);
void run_paper_estimates(const Options& options, Report& report);

}  // namespace fleetbench
