// Cell-sharded parallel simulation: simulate a datacenter, not a rack.
//
// A serving fleet at datacenter scale is operated as independent *cells*:
// disjoint slices of the fleet, each with its own scheduler, queue, and slice
// of the traffic, sharing nothing at simulation time.  That independence is
// the classic conservative-parallelism argument (Fujimoto, CACM '90): events
// in different cells cannot affect each other, so the cells' event loops can
// run concurrently with no synchronisation at all and the run is exactly the
// K serial simulations it decomposes into.
//
// `CellPlan::build(scenario, K)` partitions a Scenario into K per-cell
// Scenarios:
//   * fleet    — contiguous balanced slices of `fleet.accelerators` (cell c
//     gets N/K slots, the first N%K cells one extra).  Every cell must still
//     cover the catalog (a cell that cannot serve some workload throws when
//     it simulates, same as any under-provisioned fleet).
//   * traffic  — open-loop cells draw their own arrival stream: request
//     counts split proportionally to each cell's slot share, offered QPS
//     scales by the same share, and each cell's trace seed is salted by its
//     cell index, so cells see independent arrival processes at the same
//     per-slot load.  Closed-loop session pools split the same way.  Cells
//     serve generated traffic only: an explicit trace is rejected for K > 1.
//   * seeds    — every seeded process a cell owns (traffic, faults, retry
//     jitter) is salted with `(0xCE11 + cell) * golden-ratio`, so no two
//     cells share an rng stream.
//
// `simulate_sharded(scenario, K)` runs the plan's cells on the global thread
// pool and folds their `FleetMetrics` in ascending cell order via
// `FleetMetrics::merge` (cells retain raw latency state, so merged
// percentiles are exact over the union of samples).  Determinism contracts:
//   * K == 1 returns `simulate(scenario)` — bit-identical to the serial run.
//   * For fixed K, results are bit-identical across `LUMOS_THREADS` settings:
//     cells are chunked by index only, each writes its own result slot, and
//     the merge order is fixed.
//   * K > 1 is not equivalent to K == 1: it simulates K fleets of 1/K the
//     size, which draw different (salted) arrival streams and queue
//     independently, so they lose statistical multiplexing.  A 16-slot TRON
//     fleet at 70% of capacity keeps its goodput within 0.3% of serial up to
//     8 cells, while its p99 grows to 1.70x serial at 8 cells (ROADMAP M4).
//
// Observers are per-event-loop and unsupported for K > 1 (throws; run K == 1
// to trace), and so is an explicit trace (throws; generate the traffic).
#pragma once

#include <cstddef>
#include <vector>

#include "serve/simulator.hpp"

namespace lumos::serve {

// The per-cell Scenarios a sharded run simulates.  Exposed (rather than
// hidden inside simulate_sharded) so tests can simulate the cells serially
// and pin the parallel path bit-identical to the serial fold.
struct CellPlan {
  std::vector<Scenario> cells;

  // Partitions `scenario` into `cells` independent cells (see file comment
  // for the split rules).  Throws InvalidArgument for cells == 0, more cells
  // than fleet slots, fewer requests / sessions than cells (a cell would be
  // empty), or an explicit trace or observers with cells > 1.  cells == 1
  // returns the scenario unchanged (no seed salt — the serial run).
  [[nodiscard]] static CellPlan build(const Scenario& scenario, std::size_t cells);
};

// Simulates `scenario` as `cells` independent cells on the global thread pool
// and returns the merged fleet metrics (ascending-cell-order fold of
// `FleetMetrics::merge`).  cells == 1 short-circuits to `simulate(scenario)`.
// The merged result keeps its raw latency state only when
// `scenario.sim.keep_latency_state` asks for it.
[[nodiscard]] FleetMetrics simulate_sharded(const Scenario& scenario, std::size_t cells);

}  // namespace lumos::serve
