// fleetbench: the named benchmark of the lumos fleet simulator.
//
//   fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--source-id <id>]
//
// Prints context lines (provenance, load, checks, spans, metrics with their
// units) and, as the last line, one JSON report: `correct`, `attempted`,
// `failed`, the end-to-end metrics (untraced run) or per-layer metrics
// (traced run), the checks and the provenance.  fleetbench/run.py builds
// this binary and turns that report into the benchmark's result line.
// Exits 2 on bad arguments and 1 when a workload cannot run at all.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/provenance.hpp"

namespace {

using fleetbench::Metric;
using fleetbench::Options;
using fleetbench::Report;

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"serve_tron_serial", fleetbench::run_serve_tron_serial},
    {"serve_tron_sharded", fleetbench::run_serve_tron_sharded},
    {"serve_hybrid_closed", fleetbench::run_serve_hybrid_closed},
    {"paper_estimates", fleetbench::run_paper_estimates},
};

[[noreturn]] void usage(const char* error) {
  std::fprintf(stderr,
               "fleetbench: %s\nusage: fleetbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--source-id <id>]\nworkloads:",
               error);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// Peak resident memory of this process image.  VmHWM starts afresh at exec;
// getrusage's ru_maxrss (the fallback) carries over the peak of the process
// that exec'd this one, so under run.py it would read Python's footprint.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + lumos::json_escape(metrics[i].name) +
           "\": {\"value\": " + number(metrics[i].value) + ", \"unit\": \"" +
           lumos::json_escape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string source_id = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (have_workload && options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown or missing --workload");

  const std::size_t threads = lumos::ThreadPool::global().thread_count();
  const std::string provenance =
      "{\"source\": \"" + lumos::json_escape(source_id) + "\", \"compiler\": \"" +
      lumos::json_escape(lumos::build_compiler()) + "\", \"build_type\": \"" +
      lumos::build_type() + "\", \"threads\": " + std::to_string(threads) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"seed\": " + std::to_string(options.seed) + ", \"seconds\": " +
      number(options.seconds) + ", \"trace\": " + (options.trace ? "1" : "0") + "}";
  std::printf("# %s provenance %s\n", workload->name, provenance.c_str());

  Report report;
  try {
    workload->run(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s cannot run: %s\n", workload->name, e.what());
    return 1;
  }
  if (!options.trace) {
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    report.e2e("error_rate", report.error_rate(), "ratio");
  }

  for (const std::string& line : report.notes()) std::printf("# %s\n", line.c_str());
  std::string checks = "[";
  for (const fleetbench::Check& c : report.checks()) {
    std::printf("# check %-32s %s  %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
    checks += (checks.size() > 1 ? ", {\"name\": \"" : "{\"name\": \"") +
              lumos::json_escape(c.name) + "\", \"ok\": " + (c.ok ? "true" : "false") +
              ", \"detail\": \"" + lumos::json_escape(c.detail) + "\"}";
  }
  checks += "]";
  const std::vector<Metric>& metrics = options.trace ? report.layers() : report.e2e();
  for (const Metric& m : metrics) {
    std::printf("# %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf(
      "{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s, \"checks\": %s, \"provenance\": %s}\n",
      workload->name, report.failed() == 0 ? "true" : "false", report.attempted(),
      report.failed(), metrics_json(metrics).c_str(), checks.c_str(), provenance.c_str());
  return 0;
}
