#include "serve/workload.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sim/registry.hpp"

namespace lumos::serve {

void validate_seqlen(const SeqLenConfig& config, const std::string& workload) {
  if (config.dist == SeqLenDist::kFixed) return;
  if (config.bucket < 1) {
    throw InvalidArgument("seqlen.bucket for workload '" + workload + "' must be >= 1");
  }
  if (config.min_len < 1 || config.max_len < config.min_len) {
    throw InvalidArgument("seqlen bounds for workload '" + workload +
                          "' must satisfy 1 <= min_len <= max_len, got [" +
                          std::to_string(config.min_len) + ", " +
                          std::to_string(config.max_len) + "]");
  }
  if (config.max_len > 0xFFFFFFFFull) {
    throw InvalidArgument("seqlen.max_len for workload '" + workload +
                          "' must fit 32 bits");
  }
  if (config.dist == SeqLenDist::kLogNormal &&
      (!std::isfinite(config.log_mean) || !(config.log_sigma > 0.0) ||
       !std::isfinite(config.log_sigma))) {
    throw InvalidArgument("seqlen log-normal parameters for workload '" + workload +
                          "' must be finite with log_sigma > 0");
  }
}

std::uint32_t sample_seq_len(const SeqLenConfig& config, Rng& rng) {
  if (config.dist == SeqLenDist::kFixed) return 0;
  double len;
  if (config.dist == SeqLenDist::kUniform) {
    const auto span = static_cast<std::uint32_t>(config.max_len - config.min_len + 1);
    len = static_cast<double>(config.min_len + rng.next_below(span));
  } else {
    len = std::exp(rng.normal(config.log_mean, config.log_sigma));
  }
  const double clamped = std::clamp(len, static_cast<double>(config.min_len),
                                    static_cast<double>(config.max_len));
  // Discretise: round up to the bucket grid, capped at max_len (which may sit
  // off-grid — then max_len itself is the last bucket).
  const auto bucket = static_cast<std::uint64_t>(config.bucket);
  const auto raw = static_cast<std::uint64_t>(std::ceil(clamped));
  const std::uint64_t gridded = ((raw + bucket - 1) / bucket) * bucket;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(gridded, static_cast<std::uint64_t>(config.max_len)));
}

void validate_decode(const DecodeConfig& config, const std::string& workload) {
  if (!config.enabled()) return;
  if (config.ctx_bucket < 1) {
    throw InvalidArgument("decode.ctx_bucket for workload '" + workload + "' must be >= 1");
  }
  if (config.dist == SeqLenDist::kFixed) {
    if (config.tokens > 0xFFFFFFFFull) {
      throw InvalidArgument("decode.tokens for workload '" + workload +
                            "' must fit 32 bits");
    }
  } else {
    if (config.min_tokens < 1 || config.max_tokens < config.min_tokens) {
      throw InvalidArgument("decode bounds for workload '" + workload +
                            "' must satisfy 1 <= min_tokens <= max_tokens, got [" +
                            std::to_string(config.min_tokens) + ", " +
                            std::to_string(config.max_tokens) + "]");
    }
    if (config.max_tokens > 0xFFFFFFFFull) {
      throw InvalidArgument("decode.max_tokens for workload '" + workload +
                            "' must fit 32 bits");
    }
  }
  if (config.dist == SeqLenDist::kLogNormal &&
      (!std::isfinite(config.log_mean) || !(config.log_sigma > 0.0) ||
       !std::isfinite(config.log_sigma))) {
    throw InvalidArgument("decode log-normal parameters for workload '" + workload +
                          "' must be finite with log_sigma > 0");
  }
  for (const auto& [slo, what] : {std::pair<double, const char*>{config.ttft_slo_s, "ttft_slo_s"},
                                  {config.tpot_slo_s, "tpot_slo_s"}}) {
    if (slo < 0.0 || !std::isfinite(slo)) {
      throw InvalidArgument(std::string("decode.") + what + " for workload '" + workload +
                            "' must be >= 0 and finite, got " + std::to_string(slo));
    }
  }
}

std::uint32_t sample_decode_tokens(const DecodeConfig& config, Rng& rng) {
  if (!config.enabled()) return 0;
  if (config.dist == SeqLenDist::kFixed) return static_cast<std::uint32_t>(config.tokens);
  double tokens;
  if (config.dist == SeqLenDist::kUniform) {
    const auto span = static_cast<std::uint32_t>(config.max_tokens - config.min_tokens + 1);
    tokens = static_cast<double>(config.min_tokens + rng.next_below(span));
  } else {
    tokens = std::exp(rng.normal(config.log_mean, config.log_sigma));
  }
  const double clamped = std::clamp(tokens, static_cast<double>(config.min_tokens),
                                    static_cast<double>(config.max_tokens));
  return static_cast<std::uint32_t>(std::ceil(clamped));
}

void WorkloadCatalog::add(arch::Workload workload, double weight) {
  if (!(weight > 0.0) || !std::isfinite(weight)) {
    throw InvalidArgument("mix_weight for workload '" + workload.name() +
                          "' must be positive and finite, got " + std::to_string(weight));
  }
  entries_.push_back(CatalogEntry{std::move(workload), weight, 0.0, 0, SeqLenConfig{}, 0.0,
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

void WorkloadCatalog::set_seqlen(std::size_t i, const SeqLenConfig& config) {
  LUMOS_EXPECTS(i < entries_.size());
  CatalogEntry& e = entries_[i];
  validate_seqlen(config, e.workload.name());
  if (config.dist != SeqLenDist::kFixed &&
      e.workload.kind() != arch::WorkloadKind::kTransformer) {
    throw InvalidArgument("workload '" + e.workload.name() + "' is a " +
                          arch::workload_kind_name(e.workload.kind()) +
                          " workload and cannot sample sequence lengths");
  }
  e.seqlen = config;
}

void WorkloadCatalog::apply_seqlen_dist(SeqLenDist dist) {
  bool any = false;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const CatalogEntry& e = entries_[i];
    if (e.workload.kind() != arch::WorkloadKind::kTransformer) continue;
    any = true;
    if (dist == SeqLenDist::kFixed) {
      set_seqlen(i, SeqLenConfig{});
      continue;
    }
    const std::size_t native = e.workload.transformer_config().seq_len;
    SeqLenConfig cfg;
    cfg.dist = dist;
    if (dist == SeqLenDist::kUniform) {
      cfg.min_len = std::max<std::size_t>(16, native / 2);
      cfg.max_len = std::max<std::size_t>(cfg.min_len, 2 * native);
    } else {
      cfg.min_len = 16;
      cfg.max_len = std::max<std::size_t>(cfg.min_len, 4 * native);
      cfg.log_mean = std::log(static_cast<double>(std::max<std::size_t>(native, 1)));
      cfg.log_sigma = 0.5;
    }
    set_seqlen(i, cfg);
  }
  if (!any) {
    throw InvalidArgument(
        "apply_seqlen_dist: catalog holds no transformer entry to sample lengths for");
  }
}

void WorkloadCatalog::set_decode(std::size_t i, const DecodeConfig& config) {
  LUMOS_EXPECTS(i < entries_.size());
  CatalogEntry& e = entries_[i];
  validate_decode(config, e.workload.name());
  if (config.enabled() && e.workload.kind() != arch::WorkloadKind::kTransformer) {
    throw InvalidArgument("workload '" + e.workload.name() + "' is a " +
                          arch::workload_kind_name(e.workload.kind()) +
                          " workload and cannot decode tokens");
  }
  e.decode = config;
}

void WorkloadCatalog::apply_decode(SeqLenDist dist, std::size_t tokens) {
  if (tokens == 0) throw InvalidArgument("apply_decode: tokens must be >= 1");
  bool any = false;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const CatalogEntry& e = entries_[i];
    if (e.workload.kind() != arch::WorkloadKind::kTransformer) continue;
    any = true;
    DecodeConfig cfg;
    cfg.dist = dist;
    if (dist == SeqLenDist::kFixed) {
      cfg.tokens = tokens;
    } else if (dist == SeqLenDist::kUniform) {
      cfg.min_tokens = std::max<std::size_t>(1, tokens / 2);
      cfg.max_tokens = std::max<std::size_t>(cfg.min_tokens, 2 * tokens);
    } else {
      cfg.min_tokens = 1;
      cfg.max_tokens = std::max<std::size_t>(1, 4 * tokens);
      cfg.log_mean = std::log(static_cast<double>(tokens));
      cfg.log_sigma = 0.5;
    }
    set_decode(i, cfg);
  }
  if (!any) {
    throw InvalidArgument(
        "apply_decode: catalog holds no transformer entry to decode on");
  }
}

void WorkloadCatalog::apply_token_slos(double ttft_slo_s, double tpot_slo_s) {
  for (CatalogEntry& e : entries_) {
    if (!e.decode.enabled()) continue;
    DecodeConfig cfg = e.decode;
    cfg.ttft_slo_s = ttft_slo_s;
    cfg.tpot_slo_s = tpot_slo_s;
    validate_decode(cfg, e.workload.name());
    e.decode = cfg;
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

std::vector<std::string> WorkloadCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const CatalogEntry& e : entries_) out.push_back(e.workload.name());
  return out;
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
