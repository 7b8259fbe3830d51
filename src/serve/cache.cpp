#include "serve/cache.hpp"

#include <bit>
#include <utility>

#include "arch/registry.hpp"
#include "common/error.hpp"

namespace lumos::serve {

namespace {
constexpr std::size_t kFirstIndexSlots = 16;
}  // namespace

EstimateCache::ReportIndex::ReportIndex()
    : slots_(kFirstIndexSlots), shift_(64 - std::countr_zero(kFirstIndexSlots)) {}

const PerfReport& EstimateCache::ReportIndex::insert(std::uint64_t key, PerfReport report) {
  LUMOS_EXPECTS(key != 0);
  if (2 * (reports_.size() + 1) > slots_.size()) {
    // Double the index; the reports stay where they are.
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    --shift_;
    for (const Slot& slot : old) {
      if (slot.key != 0) place(slot.key, slot.report);
    }
  }
  reports_.push_back(std::move(report));
  place(key, &reports_.back());
  return reports_.back();
}

void EstimateCache::ReportIndex::place(std::uint64_t key, const PerfReport* report) noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> shift_;
  while (slots_[i].key != 0) i = (i + 1) & mask;
  slots_[i] = {key, report};
}

EstimateCache::EstimateCache(std::unique_ptr<arch::Accelerator> accelerator,
                             const WorkloadCatalog& catalog)
    : acc_(std::move(accelerator)), catalog_(&catalog) {
  LUMOS_EXPECTS_MSG(acc_ != nullptr, "EstimateCache needs an accelerator");
  LUMOS_EXPECTS_MSG(!catalog.empty(), "EstimateCache needs a non-empty workload catalog");
}

EstimateCache::EstimateCache(const std::string& spec_name, const WorkloadCatalog& catalog)
    : EstimateCache(arch::make_accelerator(spec_name), catalog) {}

const PerfReport& EstimateCache::estimate(std::uint32_t workload, std::size_t batch,
                                          std::uint32_t seq_len) const {
  // Key layout: workload 16 bits | seq bucket 32 bits | batch 16 bits.
  LUMOS_EXPECTS(workload < catalog_->size() && catalog_->size() < (std::size_t{1} << 16));
  LUMOS_EXPECTS(batch >= 1 && batch < (std::size_t{1} << 16));
  ++lookups_;
  const std::uint64_t key = (static_cast<std::uint64_t>(workload) << 48) |
                            (static_cast<std::uint64_t>(seq_len) << 16) |
                            static_cast<std::uint64_t>(batch);
  if (const PerfReport* hit = reports_.find(key)) return *hit;
  ++misses_;
  PerfReport r =
      seq_len == 0
          ? acc_->estimate(catalog_->workload(workload), batch)
          : acc_->estimate(catalog_->workload(workload).with_seq_len(seq_len), batch);
  return reports_.insert(key, std::move(r));
}

const PerfReport& EstimateCache::decode_step(std::uint32_t workload, std::size_t batch,
                                             std::uint32_t context_len) const {
  // Same key layout as estimate(): workload 16 | context bucket 32 | batch 16.
  LUMOS_EXPECTS(workload < catalog_->size() && catalog_->size() < (std::size_t{1} << 16));
  LUMOS_EXPECTS(batch >= 1 && batch < (std::size_t{1} << 16));
  LUMOS_EXPECTS(context_len >= 1);
  ++lookups_;
  const std::uint64_t key = (static_cast<std::uint64_t>(workload) << 48) |
                            (static_cast<std::uint64_t>(context_len) << 16) |
                            static_cast<std::uint64_t>(batch);
  if (const PerfReport* hit = decode_reports_.find(key)) return *hit;
  ++misses_;
  return decode_reports_.insert(
      key, acc_->estimate_decode_step(catalog_->workload(workload), batch, context_len));
}

bool EstimateCache::can_serve(std::uint32_t workload) const {
  LUMOS_EXPECTS(workload < catalog_->size());
  return acc_->can_serve(catalog_->workload(workload));
}

double EstimateCache::static_power_w() const { return acc_->static_power_w(); }

}  // namespace lumos::serve
