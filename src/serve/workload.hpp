// Serving workload catalogs over the `arch` accelerator abstraction.
//
// A `WorkloadCatalog` is the set of inference jobs a fleet serves — tagged
// `arch::Workload`s (transformer configs, GNN model x dataset pairs) with
// their relative arrival weights.  Catalogs may mix workload kinds: a
// heterogeneous TRON+GHOST fleet serves one mixed catalog with kind-aware
// routing (see simulator.hpp).  The catalog shares graph datasets by name, so
// a synthetic graph is generated once and referenced by every workload,
// cache, and simulation point that scores it.
//
// Accelerator configurations are named `arch::SpecRegistry` specs ("tron",
// "ghost-eco", "tron@0.5", ...) — see arch/registry.hpp; the old
// dual-config `AcceleratorSpec` struct is gone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/workload.hpp"
#include "common/rng.hpp"

namespace lumos::serve {

// Per-request sequence-length distribution of one catalog entry.  Sampled
// lengths are discretised: rounded up to a multiple of `bucket` and clamped to
// [min_len, max_len], so batches can share a (workload, seq-bucket) key and
// the estimate cache stays bounded.  `kFixed` samples nothing — requests carry
// seq 0, meaning "the entry's native config" — and is the bit-compatible
// default for every pre-seqlen trace and simulation.
enum class SeqLenDist {
  kFixed,      // every request uses the entry's native sequence length
  kUniform,    // uniform over [min_len, max_len]
  kLogNormal,  // exp(N(log_mean, log_sigma)), clamped to [min_len, max_len]
};

struct SeqLenConfig {
  SeqLenDist dist = SeqLenDist::kFixed;
  std::size_t min_len = 16;   // lower clamp (uniform lower bound)
  std::size_t max_len = 512;  // upper clamp (uniform upper bound)
  double log_mean = 5.0;      // log-normal: mean of ln(length)
  double log_sigma = 0.5;     // log-normal: stddev of ln(length)
  std::size_t bucket = 32;    // sampled lengths round up to a multiple of this
};

// Throws `InvalidArgument` naming `workload` and the bad field (zero bucket,
// inverted bounds, non-finite / non-positive log-normal parameters).  A
// kFixed config is always valid.
void validate_seqlen(const SeqLenConfig& config, const std::string& workload);

// One sampled, bucketised sequence length (0 for kFixed: no draw is consumed,
// so fixed entries never perturb the rng stream shared with sampled entries).
[[nodiscard]] std::uint32_t sample_seq_len(const SeqLenConfig& config, Rng& rng);

// Per-request decode-length distribution of one catalog entry (autoregressive
// generation).  The default — kFixed with `tokens == 0` — disables decode:
// the entry serves one monolithic prefill, bit-identical to the pre-decode
// event loop.  Any enabled shape makes each request generate a sampled number
// of tokens after its prefill, scheduled per token (continuous batching).
// `ttft_slo_s` / `tpot_slo_s` are the per-token SLO contracts reported next
// to the end-to-end SLO (0 disables each).
struct DecodeConfig {
  SeqLenDist dist = SeqLenDist::kFixed;
  std::size_t tokens = 0;        // kFixed: tokens per request (0 = decode off)
  std::size_t min_tokens = 1;    // lower clamp (uniform lower bound)
  std::size_t max_tokens = 256;  // upper clamp (uniform upper bound)
  double log_mean = 4.0;         // log-normal: mean of ln(tokens)
  double log_sigma = 0.5;        // log-normal: stddev of ln(tokens)
  std::size_t ctx_bucket = 32;   // KV context rounds up to this grid in the step cache
  double ttft_slo_s = 0.0;       // time-to-first-token SLO; 0 disables
  double tpot_slo_s = 0.0;       // time-per-output-token SLO; 0 disables

  [[nodiscard]] bool enabled() const noexcept {
    return dist != SeqLenDist::kFixed || tokens > 0;
  }
};

// Throws `InvalidArgument` naming `workload` and the bad field (zero
// ctx_bucket, inverted bounds, non-finite log-normal parameters, negative /
// non-finite per-token SLOs).  A disabled config is always valid.
void validate_decode(const DecodeConfig& config, const std::string& workload);

// One sampled decode length, clamped to the config's bounds (0 when decode is
// disabled: no draw is consumed, so decode-free entries never perturb the rng
// stream shared with decoding entries).
[[nodiscard]] std::uint32_t sample_decode_tokens(const DecodeConfig& config, Rng& rng);

// One entry of a serving mix.  `slo_latency_s` and `priority` make SLOs and
// scheduling tiers per-tenant: a catalog entry is one tenant's contract;
// `seqlen` is the tenant's per-request sequence-length distribution.
struct CatalogEntry {
  arch::Workload workload;
  double mix_weight = 1.0;     // relative arrival probability
  double slo_latency_s = 0.0;  // per-tenant SLO; 0 falls back to the sim-wide SLO
  std::uint32_t priority = 0;  // strict scheduler tier (lower = more urgent)
  SeqLenConfig seqlen;         // per-request sequence lengths (default: fixed)
  double timeout_s = 0.0;      // per-request timeout; 0 (default) disables
  DecodeConfig decode;         // per-request decode lengths (default: disabled)
};

// The (possibly mixed-kind) workload mix a fleet serves.
class WorkloadCatalog {
 public:
  // Rejects non-positive and non-finite weights with `InvalidArgument`
  // naming the workload.
  void add(arch::Workload workload, double weight = 1.0);
  void add_transformer(std::string name, nn::TransformerConfig config, double weight = 1.0);
  // Adding a dataset the catalog already holds (by name) reuses it.
  void add_gnn(std::string name, gnn::GnnModelConfig model, graph::GraphDataset dataset,
               double weight = 1.0);

  // Per-tenant contracts.  `set_slo` rejects non-positive / non-finite
  // latencies with `InvalidArgument` naming the workload.
  void set_slo(std::size_t i, double slo_latency_s);
  void set_priority(std::size_t i, std::uint32_t priority);
  // Per-request timeout of entry `i` (queued and in-flight attempts past it
  // are cancelled; see RetryPolicy for what happens next).  Rejects
  // non-positive / non-finite timeouts with `InvalidArgument` naming the
  // workload; `apply_timeout` sets every entry.
  void set_timeout(std::size_t i, double timeout_s);
  void apply_timeout(double timeout_s);
  // Two-tier demo assignment: entries with at least mean mix weight (the bulk
  // of traffic, read: interactive tenants) get tier 0, the rest tier 1.
  void apply_default_tiers();

  // Per-tenant sequence-length distributions.  Validates `config` (see
  // validate_seqlen); a non-fixed distribution on a GNN entry throws
  // `InvalidArgument` (graphs have no sequence dimension).
  void set_seqlen(std::size_t i, const SeqLenConfig& config);
  // Convenience: `dist` over every transformer entry, with bounds derived
  // from each entry's native sequence length (uniform: [native/2, 2*native];
  // log-normal: median at the native length, clamped to [16, 4*native]).
  // Throws when the catalog holds no transformer entry.  GNN entries stay
  // fixed.
  void apply_seqlen_dist(SeqLenDist dist);

  // Per-tenant decode-length distributions.  Validates `config` (see
  // validate_decode); an enabled decode on a GNN entry throws
  // `InvalidArgument` (graphs have no autoregressive loop).
  void set_decode(std::size_t i, const DecodeConfig& config);
  // Convenience: decode of `dist` shape around `tokens` generated tokens on
  // every transformer entry (fixed: exactly `tokens`; uniform:
  // [max(1, tokens/2), 2*tokens]; log-normal: median at `tokens`, clamped to
  // [1, 4*tokens]).  Throws when the catalog holds no transformer entry to
  // decode on.  GNN entries stay disabled.
  void apply_decode(SeqLenDist dist, std::size_t tokens);
  // Per-token SLOs on every decode-enabled entry (0 leaves that gate off).
  void apply_token_slos(double ttft_slo_s, double tpot_slo_s);
  // True if any entry decodes.
  [[nodiscard]] bool has_decode() const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const CatalogEntry& at(std::size_t i) const;
  [[nodiscard]] const arch::Workload& workload(std::size_t i) const { return at(i).workload; }
  [[nodiscard]] double total_weight() const noexcept;
  // True if any entry is of `kind`.
  [[nodiscard]] bool has_kind(arch::WorkloadKind kind) const noexcept;
  // Per-workload-index scheduler tiers (empty when every entry is tier 0, the
  // form schedulers treat as "no priorities": bit-identical to pre-tier runs).
  [[nodiscard]] std::vector<std::uint32_t> priorities() const;
  // Entry names in catalog order (timeline exports, per-tenant labelling).
  [[nodiscard]] std::vector<std::string> names() const;

  // Default serving mixes over the registry's models/datasets.
  [[nodiscard]] static WorkloadCatalog tron_default();
  [[nodiscard]] static WorkloadCatalog ghost_default();
  // Both of the above in one catalog (multi-tenant TRON+GHOST serving).
  [[nodiscard]] static WorkloadCatalog mixed_default();

 private:
  std::vector<CatalogEntry> entries_;
  std::vector<std::shared_ptr<const graph::GraphDataset>> datasets_;
};

}  // namespace lumos::serve
