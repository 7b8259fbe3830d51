#include "serve/shard.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace lumos::serve {

namespace {

// Per-cell seed salt: a distinct odd multiplier-spread offset per cell, so
// every seeded process (arrivals, faults, retry jitter) in every cell draws
// from its own stream.  The golden-ratio constant spreads consecutive cell
// indices across the seed space.
std::uint64_t cell_salt(std::size_t cell) noexcept {
  return (0xCE11ull + static_cast<std::uint64_t>(cell)) * 0x9E3779B97F4A7C15ull;
}

// Balanced contiguous share: item counts of cell `c` when `total` items split
// over `cells` cells (first total%cells cells take one extra).
std::size_t balanced_share(std::size_t total, std::size_t cells, std::size_t c) noexcept {
  return total / cells + (c < total % cells ? 1 : 0);
}

}  // namespace

CellPlan CellPlan::build(const Scenario& scenario, std::size_t cells) {
  validate_scenario(scenario);
  if (cells == 0) throw InvalidArgument("CellPlan: cells must be >= 1");
  CellPlan plan;
  if (cells == 1) {
    // The serial run, unchanged: no seed salt, no state retention — the
    // cells == 1 bit-identity contract.
    plan.cells.push_back(scenario);
    return plan;
  }
  const std::size_t fleet_size = scenario.fleet.accelerators.size();
  if (cells > fleet_size) {
    throw InvalidArgument("CellPlan: " + std::to_string(cells) + " cells need at least " +
                          std::to_string(cells) + " fleet slots, got " +
                          std::to_string(fleet_size));
  }
  if (scenario.observe.enabled()) {
    throw InvalidArgument(
        "CellPlan: observers are per event loop and unsupported for cells > 1; "
        "run cells=1 to trace");
  }
  if (!scenario.trace.empty()) {
    throw InvalidArgument(
        "CellPlan: an explicit trace is unsupported for cells > 1; cells draw their own "
        "traffic");
  }

  plan.cells.reserve(cells);
  std::size_t slot_begin = 0;
  std::size_t requests_assigned = 0;  // open loop: cumulative proportional split
  for (std::size_t c = 0; c < cells; ++c) {
    const std::size_t cell_slots = balanced_share(fleet_size, cells, c);
    Scenario cell = scenario;
    cell.fleet.accelerators.assign(
        scenario.fleet.accelerators.begin() + static_cast<std::ptrdiff_t>(slot_begin),
        scenario.fleet.accelerators.begin() +
            static_cast<std::ptrdiff_t>(slot_begin + cell_slots));
    slot_begin += cell_slots;
    // Cells retain raw latency state, which the merge needs to recompute
    // percentiles exactly; simulate_sharded drops it from the merged result
    // unless the top-level scenario asked to keep it.
    cell.sim.keep_latency_state = true;
    cell.sim.faults.seed += cell_salt(c);
    cell.sim.retry.seed += cell_salt(c);
    if (scenario.traffic.mode == LoopMode::kClosed) {
      const std::size_t share =
          balanced_share(scenario.traffic.closed.sessions, cells, c);
      if (share == 0) {
        throw InvalidArgument("CellPlan: " + std::to_string(cells) +
                              " cells need at least one closed-loop session each, got " +
                              std::to_string(scenario.traffic.closed.sessions) +
                              " sessions");
      }
      cell.traffic.closed.sessions = share;
      cell.traffic.closed.seed += cell_salt(c);
    } else {
      // Open loop: request count proportional to the cell's slot share
      // (cumulative rounding so the shares sum exactly), offered QPS scaled
      // by the same fraction — every cell runs at the fleet's per-slot load.
      const std::size_t total = scenario.traffic.open.request_count;
      const std::size_t upto =
          total * (slot_begin) / fleet_size;  // slot_begin is already cumulative
      const std::size_t share = upto - requests_assigned;
      if (share == 0) {
        throw InvalidArgument("CellPlan: open-loop request_count " +
                              std::to_string(total) + " leaves cell " + std::to_string(c) +
                              " of " + std::to_string(cells) + " empty");
      }
      requests_assigned = upto;
      cell.traffic.open.request_count = share;
      cell.traffic.open.offered_qps = scenario.traffic.open.offered_qps *
                                      static_cast<double>(cell_slots) /
                                      static_cast<double>(fleet_size);
      cell.traffic.open.seed += cell_salt(c);
    }
    plan.cells.push_back(std::move(cell));
  }
  return plan;
}

FleetMetrics simulate_sharded(const Scenario& scenario, std::size_t cells) {
  if (cells == 1) return simulate(scenario);
  CellPlan plan = CellPlan::build(scenario, cells);
  // One chunk per cell: chunk boundaries depend only on the cell count, each
  // cell writes its own slot, and the fold below is ascending — results are
  // bit-identical across LUMOS_THREADS settings.
  std::vector<FleetMetrics> per_cell(plan.cells.size());
  parallel_for(0, plan.cells.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      per_cell[c] = simulate(plan.cells[c]);
    }
  });
  FleetMetrics merged = std::move(per_cell.front());
  for (std::size_t c = 1; c < per_cell.size(); ++c) {
    merged.merge(per_cell[c]);
  }
  if (!scenario.sim.keep_latency_state) merged.latency_state.reset();
  return merged;
}

}  // namespace lumos::serve
