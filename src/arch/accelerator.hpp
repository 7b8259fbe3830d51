// Polymorphic accelerator abstraction over the paper's photonic fabrics.
//
// `arch::Accelerator` is the one device interface every higher layer programs
// against: the serving simulator, the figure runners, the sensitivity sweeps,
// the CLI, and the benches all take an `Accelerator&` and never mention TRON
// or GHOST by type.  An accelerator advertises what it can serve
// (`can_serve`), estimates a batch of a workload (`estimate`, delegating to
// the concrete analytic mapping bit-for-bit), and exposes its
// fabric-wide static draw plus `SpecInfo` metadata keyed by the registry name
// (see arch/registry.hpp).  Adding a third fabric means one new adapter, not
// a new `switch` in every consumer.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "arch/workload.hpp"
#include "common/perf.hpp"
#include "ghost/accelerator.hpp"
#include "tron/accelerator.hpp"

namespace lumos::arch {

// Registry metadata of one accelerator configuration.  `name` keys the spec
// (fleet slots with the same name share estimate caches); `family` is the
// fabric it derives from ("TRON" / "GHOST"); `serves` is the workload kind
// its estimates accept.
struct SpecInfo {
  std::string name = "tron";
  std::string family = "TRON";
  WorkloadKind serves = WorkloadKind::kTransformer;
};

// One named stage of a PerfReport breakdown (structured view of
// `PerfBreakdown`'s parallel time/energy fields, in presentation order).
struct BreakdownEntry {
  const char* stage = "";
  double time_s = 0.0;
  double energy_j = 0.0;
};

// All breakdown stages of `report`, including zero-valued ones, so consumers
// can tabulate or diff reports field by field without knowing the struct
// layout.  The entries' times sum to the breakdown's time fields and the
// energies to its dynamic-energy fields.
[[nodiscard]] std::vector<BreakdownEntry> breakdown_entries(const PerfReport& report);

class Accelerator {
 public:
  virtual ~Accelerator() = default;

  [[nodiscard]] virtual const SpecInfo& spec() const noexcept = 0;

  // Whether this accelerator's estimates accept `workload`.  The default
  // matches the spec's primary kind; multi-kind fabrics (electronic roofline
  // platforms price both transformer and GNN passes) override it.
  [[nodiscard]] virtual bool can_serve(const Workload& workload) const noexcept {
    return workload.kind() == spec().serves;
  }

  // Analytic mapping of `batch` pipelined inferences of `workload` (weight
  // streams amortised).  Workloads the accelerator cannot serve throw
  // `InvalidArgument` naming both sides.  Overrides repeat the default, so a
  // call through the base and one through a concrete adapter agree.
  [[nodiscard]] virtual PerfReport estimate(const Workload& workload,
                                            std::size_t batch = 1) const = 0;

  // Autoregressive generation support.  A generating accelerator prices a
  // request as one prefill (`estimate` at the prompt length) plus a
  // per-token decode step per generated token; fabrics without a decode path
  // (GHOST: GNN inference has no autoregressive loop) return false and
  // `estimate_decode_step` throws `InvalidArgument`.
  [[nodiscard]] virtual bool can_generate() const noexcept { return false; }

  // ONE decode step of `batch` concurrent lanes at KV context `context_len`
  // (see tron::TronAccelerator::estimate_decode_step for the cost model).
  [[nodiscard]] virtual PerfReport estimate_decode_step(const Workload& workload,
                                                        std::size_t batch,
                                                        std::size_t context_len) const;

  // A whole generation of `tokens` tokens after a `prompt_len`-token prompt:
  // the field-wise sum of the batch-1 decode steps at contexts `prompt_len`
  // .. `prompt_len + tokens - 1` (latency, op count, every breakdown field,
  // and the dynamic, static and total energies), so the steps the serving
  // simulator schedules add up to it by construction.  Throws
  // `InvalidArgument` for a zero prompt or token count, and wherever
  // `estimate_decode_step` throws.
  [[nodiscard]] PerfReport estimate_generation(const Workload& workload,
                                               std::size_t prompt_len,
                                               std::size_t tokens) const;

  // Fabric-wide static (hold) power.
  [[nodiscard]] virtual double static_power_w() const = 0;

 protected:
  // Throws unless `can_serve(workload)`.
  void require_serveable(const Workload& workload) const;
};

// TRON behind the polymorphic interface.
class TronAdapter final : public Accelerator {
 public:
  explicit TronAdapter(const tron::TronConfig& config, SpecInfo info = SpecInfo{});

  [[nodiscard]] const SpecInfo& spec() const noexcept override { return info_; }
  [[nodiscard]] PerfReport estimate(const Workload& workload,
                                    std::size_t batch = 1) const override;
  [[nodiscard]] bool can_generate() const noexcept override { return true; }
  [[nodiscard]] PerfReport estimate_decode_step(const Workload& workload, std::size_t batch,
                                                std::size_t context_len) const override;
  [[nodiscard]] double static_power_w() const override;

  // The concrete device, for TRON-only faces (area, forward).
  [[nodiscard]] const tron::TronAccelerator& device() const noexcept { return device_; }

 private:
  SpecInfo info_;
  tron::TronAccelerator device_;
};

// GHOST behind the polymorphic interface.
class GhostAdapter final : public Accelerator {
 public:
  explicit GhostAdapter(const ghost::GhostConfig& config,
                        SpecInfo info = SpecInfo{"ghost", "GHOST", WorkloadKind::kGnn});

  [[nodiscard]] const SpecInfo& spec() const noexcept override { return info_; }
  [[nodiscard]] PerfReport estimate(const Workload& workload,
                                    std::size_t batch = 1) const override;
  [[nodiscard]] double static_power_w() const override;

  [[nodiscard]] const ghost::GhostAccelerator& device() const noexcept { return device_; }

 private:
  SpecInfo info_;
  ghost::GhostAccelerator device_;
};

}  // namespace lumos::arch
