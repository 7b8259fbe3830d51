// Memoized accelerator estimates for the serving simulator.
//
// `estimate()` on an `arch::Accelerator` is pure: the same (spec, workload,
// batch, seq-bucket) always yields the same PerfReport, so the event loop
// looks service times and energies up in a spec x workload x batch x
// seq-bucket cache instead of re-running the analytic mapping per dispatch.
// That is what lets a simulation push millions of requests through a fleet in
// seconds: sequence lengths are bucketised (see LengthDist), so the
// distinct keys number in the dozens-to-hundreds while dispatches number in
// the millions.  Cached reports are bit-identical to uncached calls; seq 0
// (the fixed-length default) scores the entry's native config.
//
// Each keyspace (prefill estimates, decode steps) is an open-addressing index
// over one 64-bit key: linear probing from a Fibonacci-hashed home slot, at
// most half full, key 0 marking an empty slot (no key is 0: every batch is at
// least 1).  A hit usually takes the one probe at its home slot.  The reports
// live apart from the index, in storage whose addresses never move, so a
// returned reference survives the index's growth.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "arch/accelerator.hpp"
#include "common/perf.hpp"
#include "serve/workload.hpp"

namespace lumos::serve {

// Decode steps key on the KV context rounded up to a multiple of this, so the
// step cache stays small while contexts grow token by token.
inline constexpr std::uint32_t kDecodeContextGrid = 32;

class EstimateCache {
 public:
  // Takes ownership of `accelerator`; `catalog` must outlive the cache and
  // must not be empty.
  EstimateCache(std::unique_ptr<arch::Accelerator> accelerator,
                const WorkloadCatalog& catalog);
  // Convenience: builds the accelerator from an `arch` registry spec name.
  EstimateCache(const std::string& spec_name, const WorkloadCatalog& catalog);

  // The memoized PerfReport of serving `batch` pipelined requests of
  // `workload` at sequence length `seq_len` (0: the entry's native config) on
  // this accelerator.  References stay valid for the cache's lifetime.  The
  // workload must be serveable (`can_serve`).
  const PerfReport& estimate(std::uint32_t workload, std::size_t batch,
                             std::uint32_t seq_len = 0) const;

  // The memoized PerfReport of ONE decode step of `batch` lanes of `workload`
  // at KV context `context_len` (callers round the context up to
  // kDecodeContextGrid first, to keep the keyspace bounded).  Lives in its
  // own keyspace so decode steps never collide with prefill estimates.  The
  // accelerator must generate (`can_generate`).
  const PerfReport& decode_step(std::uint32_t workload, std::size_t batch,
                                std::uint32_t context_len) const;

  [[nodiscard]] bool can_serve(std::uint32_t workload) const;
  [[nodiscard]] bool can_generate() const noexcept { return acc_->can_generate(); }
  [[nodiscard]] double static_power_w() const;
  [[nodiscard]] const arch::SpecInfo& spec() const noexcept { return acc_->spec(); }
  [[nodiscard]] std::size_t lookups() const noexcept { return lookups_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }

 private:
  // One keyspace: nonzero keys to reports (see the file comment).
  class ReportIndex {
   public:
    ReportIndex();
    // The report under `key`, or nullptr.
    [[nodiscard]] const PerfReport* find(std::uint64_t key) const noexcept {
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> shift_;; i = (i + 1) & mask) {
        if (slots_[i].key == key) return slots_[i].report;
        if (slots_[i].key == 0) return nullptr;
      }
    }
    // Stores `report` under `key`, which must be absent; returns the stored
    // report, whose address never changes.
    const PerfReport& insert(std::uint64_t key, PerfReport report);

   private:
    struct Slot {
      std::uint64_t key = 0;
      const PerfReport* report = nullptr;
    };
    void place(std::uint64_t key, const PerfReport* report) noexcept;

    std::vector<Slot> slots_;
    int shift_;
    std::deque<PerfReport> reports_;
  };

  std::unique_ptr<arch::Accelerator> acc_;
  const WorkloadCatalog* catalog_;
  mutable ReportIndex reports_;
  mutable ReportIndex decode_reports_;
  mutable std::size_t lookups_ = 0;
  mutable std::size_t misses_ = 0;
};

}  // namespace lumos::serve
