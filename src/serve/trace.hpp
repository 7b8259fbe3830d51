// Open-loop request traces for the serving simulator.
//
// Traces are materialised up front (arrival time + workload index + sampled
// prompt and decode lengths per request) so a simulation is exactly
// replayable: the same `TraceConfig` always produces the same trace,
// independent of scheduler, fleet, and `LUMOS_THREADS`.  Arrival processes:
// Poisson, and a two-state Markov-modulated Poisson process (bursty) whose
// long-run rate equals the offered QPS: its high state arrives
// kBurstMultiplier (4) times faster than its low state, is occupied
// kBurstFraction (0.2) of the time in the long run, and has exponential dwells
// of mean kMeanBurstS (50 ms).  Arrival times, the workload mix, prompt
// lengths and decode lengths draw from independent rng streams, so catalogs
// whose entries are all fixed-length produce arrival sequences bit-identical
// to pre-seqlen traces.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/workload.hpp"

namespace lumos::serve {

struct Request {
  // Open-loop requests have no session.
  static constexpr std::uint32_t kNoSession = 0xFFFFFFFFu;

  std::uint64_t id = 0;
  double arrival_s = 0.0;
  std::uint32_t workload = 0;  // WorkloadCatalog index
  // Sampled prompt length (on the kPromptGrid grid; see LengthDist); 0 means
  // "the entry's native config", the only value fixed-length entries produce.
  std::uint32_t seq_len = 0;
  // Closed-loop session that issued the request (kNoSession for open loop).
  std::uint32_t session = kNoSession;
  // Retry attempt index (0: first issue).  Retried requests keep their id and
  // bump this; `arrival_s` moves to the re-issue instant while
  // `first_arrival_s` keeps the client-perceived start (the simulator scores
  // latency from it).
  std::uint32_t attempt = 0;
  double first_arrival_s = 0.0;
  // Sampled decode length: tokens to generate after the prefill (see
  // DecodeConfig).  0 — the only value decode-disabled entries produce —
  // means the request completes at its prefill, as in the pre-decode loop.
  std::uint32_t decode_tokens = 0;
};

enum class ArrivalProcess { kPoisson, kBursty };

// The bursty process's high-to-low rate ratio, long-run share of time in the
// high state, and mean high-state dwell.
inline constexpr double kBurstMultiplier = 4.0;
inline constexpr double kBurstFraction = 0.2;
inline constexpr double kMeanBurstS = 0.05;

struct TraceConfig {
  double offered_qps = 1000.0;
  std::size_t request_count = 100000;
  ArrivalProcess process = ArrivalProcess::kPoisson;
  std::uint64_t seed = 1;
};

// Arrival-time-ordered trace over `catalog`'s mix (weights are the workloads'
// `mix_weight`s; each request draws its entry's prompt and decode lengths).
[[nodiscard]] std::vector<Request> generate_trace(const WorkloadCatalog& catalog,
                                                  const TraceConfig& config);

}  // namespace lumos::serve
