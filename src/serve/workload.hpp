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
// Each entry draws its requests' prompt and decode lengths from one
// `LengthDist` each, a shape around a center with one bounds rule: prompts
// around the native sequence length (at least kPromptFloor tokens, on a
// kPromptGrid grid), decode around the token count `apply_decode` names.
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

// The shape of a per-request length distribution around a center c (see
// LengthDist).  Prompt lengths and decode lengths share it.
enum class SeqLenDist {
  kFixed,      // c itself; no draw
  kUniform,    // uniform over [max(floor, c/2), max(that, 2c)]
  kLogNormal,  // exp(N(ln c, 0.5)), clamped to [floor, max(floor, 4c)]
};

// One per-request length distribution: a shape around a center.  A draw
// rounds up to a multiple of `grid`, capped at its upper bound (which may sit
// off the grid; then it is the last bucket).  Prompts center on the entry's
// native sequence length with floor kPromptFloor and grid kPromptGrid, so
// batches share a (workload, seq-bucket) key and the estimate cache stays
// bounded; decode lengths center on the requested token count with floor 1
// and grid 1.
struct LengthDist {
  SeqLenDist shape = SeqLenDist::kFixed;
  std::uint32_t center = 0;

  // The largest draw: max(floor, c), max(floor, 2c) or max(floor, 4c).
  [[nodiscard]] std::uint64_t upper(std::uint32_t floor = 1) const noexcept;
  // The largest center whose draws all fit 32 bits under `shape`: 2^32 - 1,
  // half that or a quarter (a floor never binds, since it fits 32 bits too).
  [[nodiscard]] static std::uint32_t max_center(SeqLenDist shape) noexcept;
  // One draw.  kFixed returns the center and consumes no draw, so fixed
  // entries never perturb the rng stream they share with sampled entries.
  [[nodiscard]] std::uint32_t sample(Rng& rng, std::uint32_t floor = 1,
                                     std::uint32_t grid = 1) const;
};

inline constexpr std::uint32_t kPromptFloor = 16;
inline constexpr std::uint32_t kPromptGrid = 32;

// Per-request decode (autoregressive generation) of one catalog entry.  The
// default, a center of 0, disables decode: the entry serves one monolithic
// prefill, bit-identical to the pre-decode event loop.  An enabled entry
// generates `tokens.sample(rng)` tokens after each prefill, scheduled per
// token.  `ttft_slo_s` / `tpot_slo_s` are the per-token SLO contracts
// reported next to the end-to-end SLO (0 disables each).
struct DecodeConfig {
  LengthDist tokens;
  double ttft_slo_s = 0.0;  // time-to-first-token SLO; 0 disables
  double tpot_slo_s = 0.0;  // time-per-output-token SLO; 0 disables

  [[nodiscard]] bool enabled() const noexcept { return tokens.center > 0; }
};

// One entry of a serving mix.  `slo_latency_s` and `priority` make SLOs and
// scheduling tiers per-tenant: a catalog entry is one tenant's contract;
// `seqlen` is the shape of the tenant's prompt lengths.
struct CatalogEntry {
  arch::Workload workload;
  double mix_weight = 1.0;     // relative arrival probability
  double slo_latency_s = 0.0;  // per-tenant SLO; 0 falls back to the sim-wide SLO
  std::uint32_t priority = 0;  // strict scheduler tier (lower = more urgent)
  SeqLenDist seqlen = SeqLenDist::kFixed;  // prompt-length shape (default: fixed)
  double timeout_s = 0.0;      // per-request timeout; 0 (default) disables
  DecodeConfig decode;         // per-request decode lengths (default: disabled)

  // The prompt-length distribution: `seqlen` around the native sequence
  // length.  A fixed entry centers on 0, "the entry's native config".
  [[nodiscard]] LengthDist prompt() const;
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

  // Prompt lengths of shape `dist` around each transformer entry's native
  // sequence length (see LengthDist).  GNN entries, which have no sequence
  // dimension, stay fixed.  Throws `InvalidArgument` when the catalog holds no
  // transformer entry, or when a draw could pass 32 bits.
  void apply_seqlen_dist(SeqLenDist dist);
  // Decode of shape `dist` around `tokens` generated tokens on every
  // transformer entry, resetting its per-token SLOs.  GNN entries, which have
  // no autoregressive loop, stay disabled.  Throws `InvalidArgument` for 0
  // tokens, when a draw could pass 32 bits, or when the catalog holds no
  // transformer entry to decode on.
  void apply_decode(SeqLenDist dist, std::size_t tokens);
  // Per-token SLOs on every decode-enabled entry (0 leaves that gate off).
  // Throws `InvalidArgument` for a negative or non-finite SLO.
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
