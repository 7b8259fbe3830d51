#!/usr/bin/env python3
"""CI bench-regression gate.

Compares a freshly produced BENCH_*_smoke.json against the committed
per-scenario baseline (bench/baselines/) and exits non-zero on regression, so
perf regressions fail the job instead of shipping silently behind a `cat`.

Two metric classes, two tolerance bands:

* deterministic metrics (simulated latencies, goodput, SLO attainment, queue
  depths, ...) are bit-reproducible by the simulator's contract and must match
  the baseline within --det-tol relative error (default 1e-3, loose enough to
  absorb compiler/fp-contraction differences across the CI matrix);
* timing metrics (median_ms, requests_per_s, wall_s) are hardware- and
  load-dependent: they only fail when worse than the baseline by more than
  --time-tol x (default 4.0), a band wide enough for runner noise yet narrow
  enough to catch order-of-magnitude regressions.

The serve observer_overhead section gets two extra gates: the observed run's
p99/goodput must match the unobserved run within --det-tol (observers must
never change results), and the relative wall-clock overhead of observing must
stay under --overhead-tol (default 0.35; the denominator is the *unobserved*
loop, which the `if constexpr` observer-free instantiation made faster — the
same absolute observer cost now reads as a larger fraction).

The "provenance" object (compiler, build type, schema version, threads) is
context for humans, never gated: baselines produced by a different toolchain
still diff cleanly on their numbers.

The serve continuous_batching section carries its own in-file acceptance
gate on top of the baseline diff: at every load point, continuous batching's
mean TTFT must not lose to the monolithic (static-batching) baseline — the
section's whole reason to exist — independent of what the committed baseline
recorded.

`--baseline`/`--current` repeat to check several pairs in one invocation
(paired in order); every failing gate across every pair is reported before
the nonzero exit, so one CI run surfaces the full regression list.

Usage:
  bench_check.py --baseline bench/baselines/BENCH_serve_smoke.json \
                 --current BENCH_serve_smoke.json [--time-tol 4.0] [--det-tol 1e-3] \
                 [--overhead-tol 0.25]
  bench_check.py --baseline <kernels baseline> --current <kernels current> \
                 --baseline <serve baseline> --current <serve current>
  bench_check.py --self-test --baseline <file>   # gate must pass the baseline
                                                 # against itself and fail an
                                                 # injected regression

The file kind (kernels / serve) is auto-detected from the "bench" field.
"""

import argparse
import copy
import json
import sys

# Deterministic fields of a serve campaign point / headline / tenant entry.
DET_POINT_FIELDS = [
    "offered_qps", "throughput_qps", "goodput_qps", "slo_latency_s",
    "slo_attainment", "p50_latency_s", "p95_latency_s", "p99_latency_s",
    "p999_latency_s", "mean_queue_depth", "peak_queue_depth", "mean_batch",
    "energy_per_request_j", "fleet_energy_j", "utilization", "peak_fleet",
    "final_fleet", "mean_fleet", "autoscale_grows", "autoscale_shrinks",
    # Robustness counters (PR 6): seeded fault injection, timeouts/retries,
    # and admission shedding are all bit-reproducible by contract.
    "shed", "timed_out", "retries", "failed_batches", "requeued",
    "slot_failures", "availability", "drop_rate",
]
DET_HEADLINE_FIELDS = ["p99_latency_s", "goodput_qps"]
DET_TENANT_FIELDS = [
    "priority", "slo_latency_s", "completed", "slo_attainment", "goodput_qps",
    "p50_latency_s", "p99_latency_s", "shed", "timed_out", "drop_rate",
]
# Closed-loop scenario entries: per-request tails plus end-to-end session
# latencies and the cache counters (all bit-reproducible by contract).
DET_CLOSED_LOOP_FIELDS = [
    "sessions", "requests_per_session", "completed", "throughput_qps",
    "goodput_qps", "slo_attainment", "p50_latency_s", "p99_latency_s",
    "mean_session_s", "p50_session_s", "p99_session_s", "max_session_s",
    "mean_batch", "estimate_lookups", "estimate_misses",
]
TIMING_HEADLINE_FIELDS = ["requests_per_s"]  # higher is better
# Observer-overhead entries: the simulated results (bit-reproducible, and
# identical whether or not observers watch the run) plus the trace/timeline
# volume counters, which are functions of the same deterministic event stream.
DET_OBSERVER_FIELDS = [
    "requests", "trace_sample", "off_p99_latency_s", "on_p99_latency_s",
    "off_goodput_qps", "on_goodput_qps", "sampled_requests", "request_events",
    "batch_spans", "timeline_windows",
]
TIMING_OBSERVER_FIELDS = ["off_requests_per_s", "on_requests_per_s"]
# Sharded-simulation entries: simulated results are deterministic for a fixed
# cell count (salted per-cell seeds, ascending merge), so they are gated like
# every other det field; wall clocks and speedups are host-dependent timing.
# `threads` is context (like provenance): a 1-core runner's ~1x speedup only
# fails against its own 1-core baseline's band, never an absolute floor.
DET_SHARDED_FIELDS = [
    "requests", "fleet", "serial_completed", "serial_p99_latency_s",
    "serial_goodput_qps", "scale_requests", "scale_cells", "scale_completed",
    "scale_p99_latency_s", "scale_goodput_qps",
]
DET_SHARDED_POINT_FIELDS = ["completed", "p99_latency_s", "goodput_qps"]
TIMING_SHARDED_FIELDS = ["serial_requests_per_s", "scale_requests_per_s"]
TIMING_SHARDED_POINT_FIELDS = ["requests_per_s", "speedup"]  # higher is better
# Continuous-batching entries: the monolithic-vs-continuous decode comparison.
# Every simulated per-mode metric is deterministic; requests_per_s is the
# only timing field (wall clock over all four runs).
DET_CONTINUOUS_FIELDS = ["requests", "fleet", "decode_tokens", "capacity_qps"]
DET_CONTINUOUS_POINT_FIELDS = [
    "capacity_x", "offered_qps",
    "mono_mean_ttft_s", "mono_p95_ttft_s", "mono_mean_tpot_s", "mono_p95_tpot_s",
    "mono_tokens_per_s", "mono_p99_latency_s", "mono_goodput_qps",
    "mono_ttft_attainment", "mono_decode_occupancy",
    "cont_mean_ttft_s", "cont_p95_ttft_s", "cont_mean_tpot_s", "cont_p95_tpot_s",
    "cont_tokens_per_s", "cont_p99_latency_s", "cont_goodput_qps",
    "cont_ttft_attainment", "cont_decode_occupancy", "ttft_ratio",
]
TIMING_CONTINUOUS_FIELDS = ["requests_per_s"]
# Hybrid-fleet TCO entries: photonic / electronic / hybrid fleets serving one
# decode catalog under cost-aware routing.  Every simulated metric — dollar
# costs included — is deterministic; requests_per_s is the only timing field.
DET_HYBRID_FIELDS = ["requests", "fleet", "capacity_qps"]
DET_HYBRID_POINT_FIELDS = [
    "capacity_x", "offered_qps", "completed", "p99_latency_s", "goodput_qps",
    "slo_attainment", "tier0_attainment", "mean_ttft_s", "tokens_per_s",
    "energy_per_request_j", "fleet_cost_usd", "cost_per_request_usd",
]
TIMING_HYBRID_FIELDS = ["requests_per_s"]


class Failure(Exception):
    pass


def rel_diff(a, b):
    denom = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / denom


def check_det(what, baseline, current, fields, det_tol, errors):
    for field in fields:
        if field not in baseline:
            continue  # older baseline without the field: nothing to pin
        if field not in current:
            errors.append(f"{what}: deterministic field '{field}' missing from current")
            continue
        base_v, cur_v = baseline[field], current[field]
        if rel_diff(float(base_v), float(cur_v)) > det_tol:
            errors.append(
                f"{what}: deterministic field '{field}' drifted: "
                f"baseline {base_v} vs current {cur_v}"
            )


def check_kernels(baseline, current, time_tol, det_tol, errors):
    del det_tol  # kernel medians are all timing
    cur_by_name = {r["name"]: r for r in current.get("results", [])}
    for base in baseline.get("results", []):
        name = base["name"]
        cur = cur_by_name.get(name)
        if cur is None:
            errors.append(f"kernels: scenario '{name}' missing from current results")
            continue
        if "median_ms" not in cur:
            errors.append(f"kernels: '{name}' has no median_ms in current results")
            continue
        if cur["median_ms"] > base["median_ms"] * time_tol:
            errors.append(
                f"kernels: '{name}' regressed: median {cur['median_ms']:.4f} ms vs "
                f"baseline {base['median_ms']:.4f} ms (tolerance {time_tol}x)"
            )


def check_observer_overhead(baseline, current, time_tol, det_tol, overhead_tol,
                            errors):
    cur_entries = {o["label"]: o for o in current.get("observer_overhead", [])}
    for base in baseline.get("observer_overhead", []):
        label = base["label"]
        cur = cur_entries.get(label)
        if cur is None:
            errors.append(f"serve: observer_overhead '{label}' missing from current")
            continue
        what = f"serve observer_overhead '{label}'"
        check_det(what, base, cur, DET_OBSERVER_FIELDS, det_tol, errors)
        # Observers must not change results: on-vs-off parity within the
        # current file (not just vs the baseline).
        for metric in ("p99_latency_s", "goodput_qps"):
            off_v, on_v = cur.get(f"off_{metric}"), cur.get(f"on_{metric}")
            if off_v is None or on_v is None:
                continue
            if rel_diff(float(off_v), float(on_v)) > det_tol:
                errors.append(
                    f"{what}: observed run changed {metric}: "
                    f"unobserved {off_v} vs observed {on_v}"
                )
        if "overhead_fraction" in cur and cur["overhead_fraction"] > overhead_tol:
            errors.append(
                f"{what}: observer overhead {cur['overhead_fraction']:.3f} exceeds "
                f"tolerance {overhead_tol}"
            )
        for field in TIMING_OBSERVER_FIELDS:
            if field not in base or field not in cur:
                continue
            if cur[field] * time_tol < base[field]:
                errors.append(
                    f"{what}: {field} regressed: {cur[field]:.0f} vs baseline "
                    f"{base[field]:.0f} (tolerance {time_tol}x)"
                )


def check_timing(what, baseline, current, fields, time_tol, errors):
    """Higher-is-better timing fields: fail when worse than baseline / time_tol."""
    for field in fields:
        if field not in baseline:
            continue
        if field not in current:
            errors.append(f"{what}: timing field '{field}' missing from current")
            continue
        if current[field] * time_tol < baseline[field]:
            errors.append(
                f"{what}: {field} regressed: {current[field]:.2f} vs baseline "
                f"{baseline[field]:.2f} (tolerance {time_tol}x)"
            )


def check_sharded(baseline, current, time_tol, det_tol, errors):
    cur_entries = {s["label"]: s for s in current.get("sharded", [])}
    for base in baseline.get("sharded", []):
        label = base["label"]
        cur = cur_entries.get(label)
        if cur is None:
            errors.append(f"serve: sharded scenario '{label}' missing from current")
            continue
        what = f"serve sharded '{label}'"
        check_det(what, base, cur, DET_SHARDED_FIELDS, det_tol, errors)
        check_timing(what, base, cur, TIMING_SHARDED_FIELDS, time_tol, errors)
        base_points = {p["cells"]: p for p in base.get("points", [])}
        cur_points = {p["cells"]: p for p in cur.get("points", [])}
        for cells, base_point in base_points.items():
            cur_point = cur_points.get(cells)
            if cur_point is None:
                errors.append(f"{what}: cells={cells} point missing from current")
                continue
            point_what = f"{what} cells={cells}"
            check_det(point_what, base_point, cur_point, DET_SHARDED_POINT_FIELDS,
                      det_tol, errors)
            check_timing(point_what, base_point, cur_point,
                         TIMING_SHARDED_POINT_FIELDS, time_tol, errors)
        # In-file parity at zero tolerance: the cells == 1 point ran the same
        # binary in the same process as the serial reference, so its simulated
        # results must be bit-identical (the cells == 1 contract), not merely
        # within det tolerance.
        one = cur_points.get(1)
        if one is not None:
            for point_field, serial_field in (
                    ("completed", "serial_completed"),
                    ("p99_latency_s", "serial_p99_latency_s"),
                    ("goodput_qps", "serial_goodput_qps")):
                if point_field not in one or serial_field not in cur:
                    continue
                if one[point_field] != cur[serial_field]:
                    errors.append(
                        f"{what}: cells=1 broke bit-parity with the serial run: "
                        f"{point_field} {one[point_field]} vs {cur[serial_field]}"
                    )


def check_continuous_batching(baseline, current, time_tol, det_tol, errors):
    cur_entries = {c["label"]: c for c in current.get("continuous_batching", [])}
    for base in baseline.get("continuous_batching", []):
        label = base["label"]
        cur = cur_entries.get(label)
        if cur is None:
            errors.append(f"serve: continuous_batching '{label}' missing from current")
            continue
        what = f"serve continuous_batching '{label}'"
        check_det(what, base, cur, DET_CONTINUOUS_FIELDS, det_tol, errors)
        check_timing(what, base, cur, TIMING_CONTINUOUS_FIELDS, time_tol, errors)
        base_points = base.get("points", [])
        cur_points = cur.get("points", [])
        if len(base_points) != len(cur_points):
            errors.append(
                f"{what}: point count changed "
                f"({len(base_points)} -> {len(cur_points)})"
            )
            continue
        for i, (base_point, cur_point) in enumerate(zip(base_points, cur_points)):
            point_what = f"{what} point {i} ({cur_point.get('capacity_x', '?')}x)"
            check_det(point_what, base_point, cur_point,
                      DET_CONTINUOUS_POINT_FIELDS, det_tol, errors)
            # In-file acceptance gate, independent of the baseline: at every
            # load, continuous batching must not lose to the static-batching
            # baseline on mean TTFT (freeing lanes at token boundaries can
            # only admit waiting prefills earlier).
            mono = cur_point.get("mono_mean_ttft_s")
            cont = cur_point.get("cont_mean_ttft_s")
            if mono is not None and cont is not None and cont > mono:
                errors.append(
                    f"{point_what}: continuous batching lost to monolithic on "
                    f"mean TTFT: {cont} vs {mono}"
                )


def check_hybrid_fleet(baseline, current, time_tol, det_tol, errors):
    cur_entries = {h["label"]: h for h in current.get("hybrid_fleet", [])}
    for base in baseline.get("hybrid_fleet", []):
        label = base["label"]
        cur = cur_entries.get(label)
        if cur is None:
            errors.append(f"serve: hybrid_fleet '{label}' missing from current")
            continue
        what = f"serve hybrid_fleet '{label}'"
        check_det(what, base, cur, DET_HYBRID_FIELDS, det_tol, errors)
        check_timing(what, base, cur, TIMING_HYBRID_FIELDS, time_tol, errors)
        base_points = {(p["fleet_label"], p["capacity_x"]): p
                       for p in base.get("points", [])}
        cur_points = {(p["fleet_label"], p["capacity_x"]): p
                      for p in cur.get("points", [])}
        for key, base_point in base_points.items():
            cur_point = cur_points.get(key)
            if cur_point is None:
                errors.append(f"{what}: point {key} missing from current")
                continue
            check_det(f"{what} point {key}", base_point, cur_point,
                      DET_HYBRID_POINT_FIELDS, det_tol, errors)
        # In-file acceptance gate, independent of the baseline: at every load,
        # the hybrid fleet's tier-0 attainment must not lose to the *worse*
        # homogeneous fleet (adding slots of a second fabric may not help the
        # premium tenant, but cost-aware routing must never leave it worse off
        # than the weaker single-fabric fleet).
        by_capacity = {}
        for point in cur.get("points", []):
            by_capacity.setdefault(point["capacity_x"], {})[
                point["fleet_label"]] = point
        for capacity_x, points in sorted(by_capacity.items()):
            hybrid = [p for name, p in points.items() if "hybrid" in name]
            homogeneous = [p for name, p in points.items() if "hybrid" not in name]
            if not hybrid or not homogeneous:
                continue
            floor = min(p.get("tier0_attainment", 0.0) for p in homogeneous)
            for p in hybrid:
                if p.get("tier0_attainment", 0.0) < floor - 1e-9:
                    errors.append(
                        f"{what} at {capacity_x}x: hybrid fleet "
                        f"'{p['fleet_label']}' tier-0 attainment "
                        f"{p.get('tier0_attainment')} lost to the worse "
                        f"homogeneous fleet's {floor}"
                    )


def check_serve(baseline, current, time_tol, det_tol, errors):
    cur_headlines = {h["fleet_label"]: h for h in current.get("headlines", [])}
    for base in baseline.get("headlines", []):
        label = base["fleet_label"]
        cur = cur_headlines.get(label)
        if cur is None:
            errors.append(f"serve: headline '{label}' missing from current results")
            continue
        check_det(f"serve headline '{label}'", base, cur, DET_HEADLINE_FIELDS,
                  det_tol, errors)
        for field in TIMING_HEADLINE_FIELDS:
            if field not in base:
                continue
            if field not in cur:
                errors.append(
                    f"serve headline '{label}': timing field '{field}' missing "
                    f"from current"
                )
                continue
            if cur[field] * time_tol < base[field]:
                errors.append(
                    f"serve headline '{label}': {field} regressed: "
                    f"{cur[field]:.0f} vs baseline {base[field]:.0f} "
                    f"(tolerance {time_tol}x)"
                )

    cur_closed = {c["label"]: c for c in current.get("closed_loop", [])}
    for base in baseline.get("closed_loop", []):
        label = base["label"]
        cur = cur_closed.get(label)
        if cur is None:
            errors.append(f"serve: closed-loop scenario '{label}' missing from current")
            continue
        what = f"serve closed-loop '{label}'"
        check_det(what, base, cur, DET_CLOSED_LOOP_FIELDS, det_tol, errors)
        for field in TIMING_HEADLINE_FIELDS:
            if field not in base:
                continue
            if field not in cur:
                errors.append(f"{what}: timing field '{field}' missing from current")
                continue
            if cur[field] * time_tol < base[field]:
                errors.append(
                    f"{what}: {field} regressed: {cur[field]:.0f} vs baseline "
                    f"{base[field]:.0f} (tolerance {time_tol}x)"
                )

    # Both campaign-shaped sections share one checker: the ordinary saturation
    # sweeps and the overload_faults robustness sweep (shed / retry /
    # availability counters gated at det tolerance like every other
    # deterministic field).
    for section in ("campaigns", "overload_faults"):
        cur_campaigns = {c["campaign"]: c for c in current.get(section, [])}
        for base_campaign in baseline.get(section, []):
            name = base_campaign["campaign"]
            cur_campaign = cur_campaigns.get(name)
            if cur_campaign is None:
                errors.append(
                    f"serve: {section} campaign '{name}' missing from current results"
                )
                continue
            base_points = base_campaign.get("points", [])
            cur_points = cur_campaign.get("points", [])
            if len(base_points) != len(cur_points):
                errors.append(
                    f"serve campaign '{name}': point count changed "
                    f"({len(base_points)} -> {len(cur_points)})"
                )
                continue
            for i, (base, cur) in enumerate(zip(base_points, cur_points)):
                what = f"serve campaign '{name}' point {i}"
                for key in ("fleet", "scheduler", "max_batch", "autoscaler",
                            "admission", "fault_mtbf_s"):
                    if key in base and base.get(key) != cur.get(key):
                        errors.append(
                            f"{what}: grid key '{key}' changed "
                            f"({base.get(key)} -> {cur.get(key)})"
                        )
                check_det(what, base, cur, DET_POINT_FIELDS, det_tol, errors)
                base_tenants = base.get("tenants", [])
                cur_tenants = {t["name"]: t for t in cur.get("tenants", [])}
                for tenant in base_tenants:
                    cur_tenant = cur_tenants.get(tenant["name"])
                    if cur_tenant is None:
                        errors.append(f"{what}: tenant '{tenant['name']}' missing")
                        continue
                    check_det(f"{what} tenant '{tenant['name']}'", tenant, cur_tenant,
                              DET_TENANT_FIELDS, det_tol, errors)


def run_check(baseline, current, time_tol, det_tol, overhead_tol=0.35):
    kind = baseline.get("bench")
    if current.get("bench") != kind:
        return [f"bench kind mismatch: baseline '{kind}' vs current "
                f"'{current.get('bench')}'"]
    errors = []
    if kind == "kernels":
        check_kernels(baseline, current, time_tol, det_tol, errors)
    elif kind == "serve":
        check_serve(baseline, current, time_tol, det_tol, errors)
        check_observer_overhead(baseline, current, time_tol, det_tol, overhead_tol,
                                errors)
        check_sharded(baseline, current, time_tol, det_tol, errors)
        check_continuous_batching(baseline, current, time_tol, det_tol, errors)
        check_hybrid_fleet(baseline, current, time_tol, det_tol, errors)
    else:
        errors.append(f"unknown bench kind: {kind!r}")
    return errors


def inject_regression(data):
    """Perturb one timing and one deterministic metric far past any band."""
    perturbed = copy.deepcopy(data)
    if perturbed.get("bench") == "kernels":
        perturbed["results"][0]["median_ms"] *= 100.0
    else:
        perturbed["headlines"][0]["requests_per_s"] /= 100.0
        perturbed["campaigns"][0]["points"][0]["p99_latency_s"] *= 1.5
        if perturbed.get("closed_loop"):
            perturbed["closed_loop"][0]["p99_session_s"] *= 1.5
        if perturbed.get("overload_faults"):
            perturbed["overload_faults"][0]["points"][0]["availability"] *= 0.5
    return perturbed


def self_test(baseline, time_tol, det_tol):
    clean = run_check(baseline, baseline, time_tol, det_tol)
    if clean:
        print("bench_check self-test FAILED: baseline does not pass against itself:")
        for e in clean:
            print(f"  {e}")
        return 1
    dirty = run_check(baseline, inject_regression(baseline), time_tol, det_tol)
    if not dirty:
        print("bench_check self-test FAILED: injected regression was not detected")
        return 1
    if baseline.get("closed_loop"):
        # The closed-loop section must be gated on its own, not ride along on
        # the headline/campaign perturbations.
        closed_only = copy.deepcopy(baseline)
        closed_only["closed_loop"][0]["p99_session_s"] *= 1.5
        if not run_check(baseline, closed_only, time_tol, det_tol):
            print("bench_check self-test FAILED: closed-loop regression was not detected")
            return 1
    if baseline.get("overload_faults"):
        # The overload_faults section must be gated on its own too: an
        # availability regression (more down slot-time than the seeded fault
        # process should produce) has to trip the gate by itself.
        avail_only = copy.deepcopy(baseline)
        avail_only["overload_faults"][0]["points"][0]["availability"] *= 0.5
        if not run_check(baseline, avail_only, time_tol, det_tol):
            print("bench_check self-test FAILED: overload_faults availability "
                  "regression was not detected")
            return 1
    if baseline.get("sharded"):
        # A sharded point's simulated result drifting must trip the gate by
        # itself (det band) ...
        drifted = copy.deepcopy(baseline)
        drifted["sharded"][0]["points"][-1]["p99_latency_s"] *= 1.5
        if not run_check(baseline, drifted, time_tol, det_tol):
            print("bench_check self-test FAILED: sharded point drift was not detected")
            return 1
        # ... and so must a cells=1 result that is no longer bit-identical to
        # the serial run, even when the drift is far below det tolerance.
        parity = copy.deepcopy(baseline)
        for point in parity["sharded"][0].get("points", []):
            if point.get("cells") == 1:
                point["p99_latency_s"] *= 1.0 + 1e-12
        if not run_check(baseline, parity, time_tol, det_tol):
            print("bench_check self-test FAILED: sharded cells=1 parity break "
                  "was not detected")
            return 1
        # A collapsed speedup (e.g. the cells all serialised behind a lock)
        # must trip the timing band.
        slow = copy.deepcopy(baseline)
        for point in slow["sharded"][0].get("points", []):
            point["speedup"] /= 100.0
            point["requests_per_s"] /= 100.0
        if not run_check(baseline, slow, time_tol, det_tol):
            print("bench_check self-test FAILED: sharded speedup collapse "
                  "was not detected")
            return 1
    if baseline.get("continuous_batching"):
        # A drifting decode metric must trip the det band by itself ...
        drifted = copy.deepcopy(baseline)
        drifted["continuous_batching"][0]["points"][0]["cont_mean_ttft_s"] *= 1.5
        if not run_check(baseline, drifted, time_tol, det_tol):
            print("bench_check self-test FAILED: continuous_batching drift "
                  "was not detected")
            return 1
        # ... and the in-file TTFT gate must fire on its own: a file whose
        # continuous mode lost to monolithic fails even as its own baseline
        # (no det drift to ride on).
        lost = copy.deepcopy(baseline)
        for point in lost["continuous_batching"][0].get("points", []):
            point["cont_mean_ttft_s"] = point.get("mono_mean_ttft_s", 1.0) * 2.0
        if not run_check(lost, lost, time_tol, det_tol):
            print("bench_check self-test FAILED: continuous batching losing to "
                  "monolithic on TTFT was not detected")
            return 1
    if baseline.get("hybrid_fleet"):
        # A drifting dollar metric must trip the det band by itself ...
        drifted = copy.deepcopy(baseline)
        drifted["hybrid_fleet"][0]["points"][0]["cost_per_request_usd"] *= 1.5
        if not run_check(baseline, drifted, time_tol, det_tol):
            print("bench_check self-test FAILED: hybrid_fleet cost drift "
                  "was not detected")
            return 1
        # ... and the in-file tier-0 gate must fire on its own: a file whose
        # hybrid fleet lost to the worse homogeneous fleet fails even as its
        # own baseline (no det drift to ride on).
        lost = copy.deepcopy(baseline)
        for point in lost["hybrid_fleet"][0].get("points", []):
            if "hybrid" in point.get("fleet_label", ""):
                point["tier0_attainment"] = -1.0
        if not run_check(lost, lost, time_tol, det_tol):
            print("bench_check self-test FAILED: hybrid fleet losing tier-0 "
                  "attainment to the worse homogeneous fleet was not detected")
            return 1
    if baseline.get("observer_overhead"):
        # Runaway observer overhead must trip the gate by itself ...
        slow_observed = copy.deepcopy(baseline)
        slow_observed["observer_overhead"][0]["overhead_fraction"] = 10.0
        if not run_check(baseline, slow_observed, time_tol, det_tol):
            print("bench_check self-test FAILED: observer overhead regression "
                  "was not detected")
            return 1
        # ... and so must an observed run that changed the simulated results.
        parity_broken = copy.deepcopy(baseline)
        parity_broken["observer_overhead"][0]["on_p99_latency_s"] = (
            parity_broken["observer_overhead"][0].get("off_p99_latency_s", 1.0) * 1.5)
        if not run_check(baseline, parity_broken, time_tol, det_tol):
            print("bench_check self-test FAILED: observer result-parity break "
                  "was not detected")
            return 1
    # Provenance is context, never a gated value: a baseline produced by a
    # different toolchain must still pass on its numbers.
    other_toolchain = copy.deepcopy(baseline)
    other_toolchain["provenance"] = {"schema_version": 0, "compiler": "other 0.0",
                                     "build_type": "debug", "threads": 1}
    if run_check(baseline, other_toolchain, time_tol, det_tol):
        print("bench_check self-test FAILED: provenance differences were gated")
        return 1
    print(f"bench_check self-test OK: baseline passes, injected regression "
          f"caught ({len(dirty)} finding(s))")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True, action="append",
                        help="committed baseline JSON (repeat to check several "
                             "baseline/current pairs in one invocation)")
    parser.add_argument("--current", action="append",
                        help="freshly produced bench JSON (repeat to match "
                             "each --baseline, paired in order)")
    parser.add_argument("--time-tol", type=float, default=4.0,
                        help="allowed slowdown factor for timing metrics (default 4.0)")
    parser.add_argument("--det-tol", type=float, default=1e-3,
                        help="relative tolerance for deterministic metrics (default 1e-3)")
    parser.add_argument("--overhead-tol", type=float, default=0.35,
                        help="allowed observer_overhead fraction (default 0.35)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate passes the baseline against itself and "
                             "fails an injected regression")
    args = parser.parse_args()

    baselines = []
    for path in args.baseline:
        with open(path) as f:
            baselines.append(json.load(f))

    if args.self_test:
        rc = 0
        for baseline in baselines:
            rc = max(rc, self_test(baseline, args.time_tol, args.det_tol))
        sys.exit(rc)

    if not args.current:
        parser.error("--current is required unless --self-test is given")
    if len(args.current) != len(args.baseline):
        parser.error(f"--baseline given {len(args.baseline)} time(s) but --current "
                     f"{len(args.current)} time(s); they pair in order")

    # Check every pair and report every failing gate before exiting nonzero,
    # so one CI run surfaces the complete regression list.
    total_errors = 0
    for base_path, cur_path, baseline in zip(args.baseline, args.current, baselines):
        with open(cur_path) as f:
            current = json.load(f)
        errors = run_check(baseline, current, args.time_tol, args.det_tol,
                           args.overhead_tol)
        if errors:
            total_errors += len(errors)
            print(f"bench_check: {len(errors)} regression(s) vs {base_path}:")
            for e in errors:
                print(f"  {e}")
        else:
            print(f"bench_check OK: {cur_path} within tolerance of {base_path}")
    if total_errors:
        print(f"bench_check: {total_errors} total regression(s) across "
              f"{len(args.baseline)} pair(s)")
        sys.exit(1)


if __name__ == "__main__":
    main()
