#include "serve/workload.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sim/registry.hpp"

namespace lumos::serve {

namespace {

// How far above its center a shape's draws reach, as a multiple of it.
std::uint32_t reach(SeqLenDist shape) {
  return shape == SeqLenDist::kUniform ? 2 : shape == SeqLenDist::kLogNormal ? 4 : 1;
}

// `shape` around `center`, rejected unless the center is at least 1 and every
// draw fits 32 bits.
LengthDist checked_dist(SeqLenDist shape, std::size_t center, const char* caller) {
  const std::uint32_t most = LengthDist::max_center(shape);
  if (center < 1 || center > most) {
    throw InvalidArgument(std::string(caller) + ": lengths around " + std::to_string(center) +
                          " must be in [1, " + std::to_string(most) + "] to fit 32 bits");
  }
  return {shape, static_cast<std::uint32_t>(center)};
}

}  // namespace

std::uint64_t LengthDist::upper(std::uint32_t floor) const noexcept {
  return std::max<std::uint64_t>(floor, std::uint64_t{reach(shape)} * center);
}

std::uint32_t LengthDist::max_center(SeqLenDist shape) noexcept {
  return 0xFFFFFFFFu / reach(shape);
}

std::uint32_t LengthDist::sample(Rng& rng, std::uint32_t floor, std::uint32_t grid) const {
  if (shape == SeqLenDist::kFixed) return center;
  const std::uint64_t hi = upper(floor);
  std::uint64_t lo = floor;
  double len;
  if (shape == SeqLenDist::kUniform) {
    lo = std::max<std::uint64_t>(floor, center / 2);
    len = static_cast<double>(lo + rng.next_below(static_cast<std::uint32_t>(hi - lo + 1)));
  } else {
    len = std::exp(rng.normal(std::log(static_cast<double>(center)), 0.5));
  }
  const double clamped = std::clamp(len, static_cast<double>(lo), static_cast<double>(hi));
  const auto raw = static_cast<std::uint64_t>(std::ceil(clamped));
  return static_cast<std::uint32_t>(std::min(hi, (raw + grid - 1) / grid * grid));
}

LengthDist CatalogEntry::prompt() const {
  if (seqlen == SeqLenDist::kFixed) return {};
  return {seqlen, static_cast<std::uint32_t>(workload.transformer_config().seq_len)};
}

void WorkloadCatalog::add(arch::Workload workload, double weight) {
  if (!(weight > 0.0) || !std::isfinite(weight)) {
    throw InvalidArgument("mix_weight for workload '" + workload.name() +
                          "' must be positive and finite, got " + std::to_string(weight));
  }
  entries_.push_back(CatalogEntry{std::move(workload), weight, 0.0, 0, SeqLenDist::kFixed, 0.0,
                                  DecodeConfig{}});
}

void WorkloadCatalog::add_transformer(std::string name, nn::TransformerConfig config,
                                      double weight) {
  add(arch::Workload::transformer(std::move(name), std::move(config)), weight);
}

void WorkloadCatalog::add_gnn(std::string name, gnn::GnnModelConfig model,
                              graph::GraphDataset dataset, double weight) {
  std::shared_ptr<const graph::GraphDataset> shared;
  for (const auto& existing : datasets_) {
    if (existing->name == dataset.name) {
      shared = existing;
      break;
    }
  }
  if (!shared) {
    shared = std::make_shared<const graph::GraphDataset>(std::move(dataset));
    datasets_.push_back(shared);
  }
  add(arch::Workload::gnn(std::move(name), std::move(model), std::move(shared)), weight);
}

void WorkloadCatalog::set_slo(std::size_t i, double slo_latency_s) {
  LUMOS_EXPECTS(i < entries_.size());
  if (!(slo_latency_s > 0.0) || !std::isfinite(slo_latency_s)) {
    throw InvalidArgument("slo_latency_s for workload '" + entries_[i].workload.name() +
                          "' must be positive and finite, got " +
                          std::to_string(slo_latency_s));
  }
  entries_[i].slo_latency_s = slo_latency_s;
}

void WorkloadCatalog::set_priority(std::size_t i, std::uint32_t priority) {
  LUMOS_EXPECTS(i < entries_.size());
  entries_[i].priority = priority;
}

void WorkloadCatalog::set_timeout(std::size_t i, double timeout_s) {
  LUMOS_EXPECTS(i < entries_.size());
  if (!(timeout_s > 0.0) || !std::isfinite(timeout_s)) {
    throw InvalidArgument("timeout_s for workload '" + entries_[i].workload.name() +
                          "' must be positive and finite, got " +
                          std::to_string(timeout_s));
  }
  entries_[i].timeout_s = timeout_s;
}

void WorkloadCatalog::apply_timeout(double timeout_s) {
  for (std::size_t i = 0; i < entries_.size(); ++i) set_timeout(i, timeout_s);
}

void WorkloadCatalog::apply_default_tiers() {
  if (entries_.empty()) return;
  const double mean = total_weight() / static_cast<double>(entries_.size());
  for (CatalogEntry& e : entries_) e.priority = e.mix_weight >= mean ? 0 : 1;
}

void WorkloadCatalog::apply_seqlen_dist(SeqLenDist dist) {
  bool any = false;
  for (CatalogEntry& e : entries_) {
    if (e.workload.kind() != arch::WorkloadKind::kTransformer) continue;
    any = true;
    (void)checked_dist(dist, e.workload.transformer_config().seq_len, "apply_seqlen_dist");
    e.seqlen = dist;
  }
  if (!any) {
    throw InvalidArgument(
        "apply_seqlen_dist: catalog holds no transformer entry to sample lengths for");
  }
}

void WorkloadCatalog::apply_decode(SeqLenDist dist, std::size_t tokens) {
  const LengthDist length = checked_dist(dist, tokens, "apply_decode");
  bool any = false;
  for (CatalogEntry& e : entries_) {
    if (e.workload.kind() != arch::WorkloadKind::kTransformer) continue;
    any = true;
    e.decode = DecodeConfig{length};
  }
  if (!any) {
    throw InvalidArgument(
        "apply_decode: catalog holds no transformer entry to decode on");
  }
}

void WorkloadCatalog::apply_token_slos(double ttft_slo_s, double tpot_slo_s) {
  for (const double slo : {ttft_slo_s, tpot_slo_s}) {
    if (!(slo >= 0.0) || !std::isfinite(slo)) {
      throw InvalidArgument("apply_token_slos: per-token SLOs must be >= 0 and finite, got " +
                            std::to_string(slo));
    }
  }
  for (CatalogEntry& e : entries_) {
    if (!e.decode.enabled()) continue;
    e.decode.ttft_slo_s = ttft_slo_s;
    e.decode.tpot_slo_s = tpot_slo_s;
  }
}

bool WorkloadCatalog::has_decode() const noexcept {
  for (const CatalogEntry& e : entries_) {
    if (e.decode.enabled()) return true;
  }
  return false;
}

const CatalogEntry& WorkloadCatalog::at(std::size_t i) const {
  LUMOS_EXPECTS(i < entries_.size());
  return entries_[i];
}

double WorkloadCatalog::total_weight() const noexcept {
  double total = 0.0;
  for (const CatalogEntry& e : entries_) total += e.mix_weight;
  return total;
}

std::vector<std::uint32_t> WorkloadCatalog::priorities() const {
  bool tiered = false;
  for (const CatalogEntry& e : entries_) tiered = tiered || e.priority != 0;
  if (!tiered) return {};
  std::vector<std::uint32_t> tiers;
  tiers.reserve(entries_.size());
  for (const CatalogEntry& e : entries_) tiers.push_back(e.priority);
  return tiers;
}

bool WorkloadCatalog::has_kind(arch::WorkloadKind kind) const noexcept {
  for (const CatalogEntry& e : entries_) {
    if (e.workload.kind() == kind) return true;
  }
  return false;
}

WorkloadCatalog WorkloadCatalog::tron_default() {
  WorkloadCatalog c;
  c.add_transformer("bert-base/128", sim::transformer_by_name("bert-base", 128), 4.0);
  c.add_transformer("bert-large/128", sim::transformer_by_name("bert-large", 128), 2.0);
  c.add_transformer("gpt2/256", sim::transformer_by_name("gpt2", 256), 3.0);
  c.add_transformer("vit", sim::transformer_by_name("vit"), 1.0);
  return c;
}

WorkloadCatalog WorkloadCatalog::ghost_default() {
  WorkloadCatalog c;
  c.add_gnn("gcn/cora", sim::gnn_by_name("gcn"), sim::dataset_by_name("cora"), 4.0);
  c.add_gnn("graphsage/citeseer", sim::gnn_by_name("graphsage"),
            sim::dataset_by_name("citeseer"), 3.0);
  c.add_gnn("gin/pubmed", sim::gnn_by_name("gin"), sim::dataset_by_name("pubmed"), 2.0);
  c.add_gnn("gat/cora", sim::gnn_by_name("gat"), sim::dataset_by_name("cora"), 1.0);
  return c;
}

WorkloadCatalog WorkloadCatalog::mixed_default() {
  WorkloadCatalog c = tron_default();
  const WorkloadCatalog ghost = ghost_default();
  for (std::size_t i = 0; i < ghost.size(); ++i) {
    c.add(ghost.at(i).workload, ghost.at(i).mix_weight);
  }
  // Adopt the source catalog's dataset registry too, so later add_gnn calls
  // keep deduplicating against the graphs the copied workloads share.
  c.datasets_.insert(c.datasets_.end(), ghost.datasets_.begin(), ghost.datasets_.end());
  return c;
}

}  // namespace lumos::serve
