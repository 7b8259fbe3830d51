#include "serve/cache.hpp"

#include "arch/registry.hpp"
#include "common/error.hpp"

namespace lumos::serve {

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
  const auto it = reports_.find(key);
  if (it != reports_.end()) return it->second;
  ++misses_;
  PerfReport r =
      seq_len == 0
          ? acc_->estimate(catalog_->workload(workload), batch)
          : acc_->estimate(catalog_->workload(workload).with_seq_len(seq_len), batch);
  return reports_.emplace(key, std::move(r)).first->second;
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
  const auto it = decode_reports_.find(key);
  if (it != decode_reports_.end()) return it->second;
  ++misses_;
  PerfReport r =
      acc_->estimate_decode_step(catalog_->workload(workload), batch, context_len);
  return decode_reports_.emplace(key, std::move(r)).first->second;
}

bool EstimateCache::can_serve(std::uint32_t workload) const {
  LUMOS_EXPECTS(workload < catalog_->size());
  return acc_->can_serve(catalog_->workload(workload));
}

double EstimateCache::static_power_w() const { return acc_->static_power_w(); }

}  // namespace lumos::serve
