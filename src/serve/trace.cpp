#include "serve/trace.hpp"

#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace lumos::serve {

std::vector<Request> generate_trace(const WorkloadCatalog& catalog,
                                    const TraceConfig& config) {
  LUMOS_EXPECTS(config.offered_qps > 0.0);
  LUMOS_EXPECTS(config.request_count >= 1);
  LUMOS_EXPECTS(catalog.size() >= 1);

  // Independent streams: arrival times stay identical when only the mix
  // changes, the mix when only the length distributions change, and so on.
  Rng arrival_rng(config.seed, /*stream=*/0xA221);
  Rng mix_rng(config.seed, /*stream=*/0x317C);
  Rng seqlen_rng(config.seed, /*stream=*/0x5E9B);
  Rng decode_rng(config.seed, /*stream=*/0xDEC0);

  std::vector<double> cumulative;
  cumulative.reserve(catalog.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    acc += catalog.at(i).mix_weight;
    cumulative.push_back(acc);
  }

  // Two-state MMPP with the long-run mean pinned to offered_qps:
  //   f * high + (1 - f) * low = qps,  high = m * low
  //   => low = qps / (1 + f * (m - 1)).
  const double f = kBurstFraction;
  const double m = kBurstMultiplier;
  const double low_qps = config.process == ArrivalProcess::kPoisson
                             ? config.offered_qps
                             : config.offered_qps / (1.0 + f * (m - 1.0));
  const double high_qps = config.process == ArrivalProcess::kPoisson ? low_qps : m * low_qps;
  const double mean_low_dwell_s = kMeanBurstS * (1.0 - f) / f;

  std::vector<Request> trace;
  trace.reserve(config.request_count);
  double now = 0.0;
  bool high = false;
  double state_end_s = config.process == ArrivalProcess::kPoisson
                           ? std::numeric_limits<double>::infinity()
                           : arrival_rng.exponential(mean_low_dwell_s);
  for (std::uint64_t id = 0; id < config.request_count; ++id) {
    for (;;) {
      const double rate = high ? high_qps : low_qps;
      const double dt = arrival_rng.exponential(1.0 / rate);
      if (now + dt <= state_end_s) {
        now += dt;
        break;
      }
      // The exponential is memoryless: discard the draw past the state switch
      // and redraw at the new state's rate from the switch instant.
      now = state_end_s;
      high = !high;
      state_end_s =
          now + arrival_rng.exponential(high ? kMeanBurstS : mean_low_dwell_s);
    }
    const double u = mix_rng.next_double() * cumulative.back();
    std::uint32_t workload = 0;
    while (cumulative[workload] <= u && workload + 1 < cumulative.size()) ++workload;
    const CatalogEntry& entry = catalog.at(workload);
    trace.push_back(
        {id, now, workload, entry.prompt().sample(seqlen_rng, kPromptFloor, kPromptGrid)});
    // Decode lengths draw from their own stream (and decode-free entries draw
    // nothing), so decode-disabled catalogs replay bit-identical traces.
    trace.back().decode_tokens = entry.decode.tokens.sample(decode_rng);
  }
  return trace;
}

}  // namespace lumos::serve
