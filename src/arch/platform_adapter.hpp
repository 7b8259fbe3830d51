// Electronic roofline platforms behind the polymorphic accelerator interface.
//
// `PlatformAdapter` wraps a `baselines::PlatformModel` (the paper's Section VI
// comparison set: V100, A100, TPU v2/v4, Xeon, and the FPGA/PIM accelerators)
// as a third fabric next to TRON and GHOST, so serving fleets, campaigns, and
// the CLI can mix photonic and electronic slots.  Every estimate, at any
// batch, is the roofline's own `estimate_transformer` / `estimate_gnn`; the
// adapter adds no formula.  Unlike the photonic fabrics, every platform
// prices both workload kinds (the roofline has a utilisation figure for
// each), so `can_serve` accepts both and the spec's `serves` only records the
// platform's primary comparison set.
//
// Decode: electronic slots join continuous batching through a roofline-priced
// `estimate_decode_step` (one token of `batch` lanes re-streams the weights
// once and reads each lane's KV cache); a whole generation is the sum of
// batch-1 steps, as on every accelerator (`Accelerator::estimate_generation`).
#pragma once

#include <cstddef>

#include "arch/accelerator.hpp"
#include "baselines/platforms.hpp"

namespace lumos::arch {

class PlatformAdapter final : public Accelerator {
 public:
  // SpecInfo defaults to the platform's own name under the "ELECTRONIC"
  // family (the registry passes its registry name instead).
  explicit PlatformAdapter(baselines::PlatformModel model);
  PlatformAdapter(baselines::PlatformModel model, SpecInfo info);

  [[nodiscard]] const SpecInfo& spec() const noexcept override { return info_; }
  // Electronic platforms price both kinds; the roofline just switches
  // utilisation/bandwidth-efficiency class.
  [[nodiscard]] bool can_serve(const Workload& workload) const noexcept override {
    (void)workload;
    return true;
  }
  [[nodiscard]] PerfReport estimate(const Workload& workload,
                                    std::size_t batch = 1) const override;
  [[nodiscard]] bool can_generate() const noexcept override { return true; }
  [[nodiscard]] PerfReport estimate_decode_step(const Workload& workload, std::size_t batch,
                                                std::size_t context_len) const override;
  [[nodiscard]] double static_power_w() const override;

  // The concrete roofline model, for platform-only faces (figure benches).
  [[nodiscard]] const baselines::PlatformModel& model() const noexcept { return model_; }

 private:
  SpecInfo info_;
  baselines::PlatformModel model_;
};

}  // namespace lumos::arch
