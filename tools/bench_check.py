#!/usr/bin/env python3
"""CI bench-regression gate.

Compares a freshly produced BENCH_*_smoke.json against the committed baseline
(bench/baselines/) and exits non-zero on any finding, so regressions fail the
job instead of shipping silently behind a `cat`.

One walker pairs every leaf of the baseline with the current file: object
keys by name, list items by position.  Every key of a baseline object must
exist in the current object; extra current keys are ignored (a bench that grew
a field still passes).  A current list may be longer than the baseline's, but
never shorter.  One name rule (`classify`) decides how each leaf compares:

* the `provenance` object and `threads` are context for humans and are
  skipped, so a baseline from another toolchain still diffs on its numbers;
* names ending in `wall_s`, and `overhead_fraction` with its spread fields,
  are info and never compared;
* names ending in `requests_per_s`, and `speedup`, are host timing where higher
  is better; names ending in `median_ms` are host timing where lower is better.
  They fail only when worse than the baseline by more than --time-tol x
  (default 4.0: wide enough for runner noise, narrow enough for an
  order-of-magnitude regression).  `--time-tol inf` turns timing off;
* every other number is deterministic (bit-reproducible by the simulator's
  contract) and must match within --det-tol relative error (default 1e-3,
  which absorbs fp-contraction differences across the CI compilers);
* strings and booleans must be equal, so labels and grid keys are checked too.

Four in-file gates read the current file alone, whatever the baseline says:

* observer_overhead: the observed run's p99 and goodput equal the unobserved
  run's within --det-tol (observers never change results), and the median
  overhead fraction stays under OVERHEAD_BOUND (host timing: off with
  `--time-tol inf`);
* sharded: the cells=1 point is bit-identical to the serial run;
* continuous_batching: continuous mean TTFT is no worse than monolithic at
  every load;
* hybrid_fleet: the hybrid fleet's tier-0 attainment is no worse than the
  worse homogeneous fleet's at every load.

`--self-test` checks the gate itself on a baseline: the file must pass against
itself with timing off; perturbing every leaf by its class in one copy must
give exactly one finding per deterministic and timing leaf and none elsewhere;
and each in-file gate must fire on an injected violation.

Usage:
  bench_check.py --baseline bench/baselines/BENCH_serve_smoke.json \\
                 --current BENCH_serve_smoke.json [--time-tol 4.0] [--det-tol 1e-3]
  bench_check.py --baseline <kernels baseline> --current <kernels current> \\
                 --baseline <serve baseline> --current <serve current>
  bench_check.py --self-test --baseline <file> [--baseline <file> ...]

Pairs are checked in order, and every finding across every pair is reported
before the nonzero exit, so one CI run surfaces the full regression list.
"""

import argparse
import collections
import copy
import json
import math
import sys

OVERHEAD_BOUND = 0.35  # observed / unobserved wall time - 1, median over pairs

SKIP, INFO, DET, HIGHER, LOWER = "skip", "info", "det", "higher", "lower"


def classify(name):
    """The one rule: how a leaf named `name` (or a list under it) compares."""
    if name in ("provenance", "threads"):
        return SKIP
    if name.endswith("wall_s") or name.startswith("overhead_fraction"):
        return INFO
    if name.endswith("requests_per_s") or name == "speedup":
        return HIGHER
    if name.endswith("median_ms"):
        return LOWER
    return DET


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(kind, base, cur, det_tol, time_tol):
    """Why leaf `cur` fails against `base` under its class, or None."""
    if not is_number(base):
        return None if cur == base else f"changed: {base!r} -> {cur!r}"
    if not is_number(cur):
        return f"expected a number, got {cur!r}"
    if kind == DET and rel_diff(base, cur) > det_tol:
        return f"drifted: baseline {base} vs current {cur}"
    if kind == HIGHER and cur * time_tol < base:
        return f"regressed: {cur:.4g} vs baseline {base:.4g} (tolerance {time_tol}x)"
    if kind == LOWER and cur > base * time_tol:
        return f"regressed: {cur:.4g} vs baseline {base:.4g} (tolerance {time_tol}x)"
    return None


def walk(base, cur, det_tol, time_tol, kind=DET, path=""):
    """Yield (path, why) for every baseline leaf the current file fails."""
    if kind in (SKIP, INFO):
        return
    if isinstance(base, dict):
        if not isinstance(cur, dict):
            yield path, f"expected an object, got {type(cur).__name__}"
            return
        for key, child in base.items():
            sub = f"{path}.{key}" if path else key
            if key not in cur:
                yield sub, "missing from current"
            else:
                yield from walk(child, cur[key], det_tol, time_tol, classify(key), sub)
    elif isinstance(base, list):
        if not isinstance(cur, list) or len(cur) < len(base):
            got = len(cur) if isinstance(cur, list) else type(cur).__name__
            yield path, f"expected a list of at least {len(base)} item(s), got {got}"
            return
        for i, (b, c) in enumerate(zip(base, cur)):
            yield from walk(b, c, det_tol, time_tol, kind, f"{path}[{i}]")
    else:
        why = compare(kind, base, cur, det_tol, time_tol)
        if why:
            yield path, why


# In-file gates: each reads the current file alone and yields (path, why).

def observer_gate(data, det_tol, time_tol):
    for i, o in enumerate(data.get("observer_overhead", [])):
        for metric in ("p99_latency_s", "goodput_qps"):
            off, on = o[f"off_{metric}"], o[f"on_{metric}"]
            if rel_diff(off, on) > det_tol:
                yield (f"observer_overhead[{i}].on_{metric}",
                       f"observed run changed {metric}: unobserved {off} vs observed {on}")
        if math.isfinite(time_tol) and o["overhead_fraction"] > OVERHEAD_BOUND:
            yield (f"observer_overhead[{i}].overhead_fraction",
                   f"observer overhead {o['overhead_fraction']:.3f} exceeds {OVERHEAD_BOUND}")


def sharded_gate(data, det_tol, time_tol):
    for i, s in enumerate(data.get("sharded", [])):
        for j, p in enumerate(s["points"]):
            for field in ("completed", "p99_latency_s", "goodput_qps"):
                if p["cells"] == 1 and p[field] != s[f"serial_{field}"]:
                    yield (f"sharded[{i}].points[{j}].{field}",
                           f"cells=1 broke bit-parity with the serial run: "
                           f"{p[field]} vs {s[f'serial_{field}']}")


def continuous_gate(data, det_tol, time_tol):
    for i, c in enumerate(data.get("continuous_batching", [])):
        for j, p in enumerate(c["points"]):
            if p["cont_mean_ttft_s"] > p["mono_mean_ttft_s"]:
                yield (f"continuous_batching[{i}].points[{j}].cont_mean_ttft_s",
                       f"continuous batching lost to monolithic on mean TTFT: "
                       f"{p['cont_mean_ttft_s']} vs {p['mono_mean_ttft_s']}")


def hybrid_gate(data, det_tol, time_tol):
    for i, h in enumerate(data.get("hybrid_fleet", [])):
        by_load = collections.defaultdict(list)
        for j, p in enumerate(h["points"]):
            by_load[p["capacity_x"]].append((j, p))
        for x, points in sorted(by_load.items()):
            homogeneous = [p["tier0_attainment"] for _, p in points
                           if "hybrid" not in p["fleet_label"]]
            if not homogeneous:
                continue
            floor = min(homogeneous)
            for j, p in points:
                if "hybrid" in p["fleet_label"] and p["tier0_attainment"] < floor - 1e-9:
                    yield (f"hybrid_fleet[{i}].points[{j}].tier0_attainment",
                           f"'{p['fleet_label']}' tier-0 attainment {p['tier0_attainment']} "
                           f"at {x}x lost to the worse homogeneous fleet's {floor}")


GATES = (observer_gate, sharded_gate, continuous_gate, hybrid_gate)


def run_check(baseline, current, det_tol, time_tol):
    """Every finding of `current` against `baseline`, as (path, why) pairs."""
    findings = list(walk(baseline, current, det_tol, time_tol))
    for gate in GATES:
        try:
            findings += gate(current, det_tol, time_tol)
        except (KeyError, TypeError) as e:
            findings.append((gate.__name__, f"cannot evaluate ({e!r})"))
    return findings


def perturb(node, timing_on, kind=DET, path=""):
    """Perturb every leaf under `node` in place by its class, yielding
    (path, class, flagged) per leaf; the paths and classes are the ones
    `walk` reports and compares by, and each flagged leaf must give exactly
    one walker finding."""
    for key in (node.keys() if isinstance(node, dict) else range(len(node))):
        if isinstance(node, dict):
            sub = f"{path}.{key}" if path else key
            child_kind = kind if kind in (SKIP, INFO) else classify(key)
        else:
            sub, child_kind = f"{path}[{key}]", kind
        value = node[key]
        if isinstance(value, (dict, list)):
            yield from perturb(value, timing_on, child_kind, sub)
        elif child_kind in (HIGHER, LOWER):
            node[key] = value / 100.0 if child_kind == HIGHER else value * 100.0
            yield sub, child_kind, timing_on
        elif is_number(value):
            node[key] = value * 1.5 if value else value + 1
            yield sub, child_kind, child_kind == DET
        else:
            node[key] = not value if isinstance(value, bool) else f"{value}~"
            yield sub, "label" if child_kind == DET else child_kind, child_kind == DET


def gate_injections(data, time_tol):
    """(what, injected copy) for each in-file gate that `data` exercises."""
    def cells_one(s):
        for p in s["points"]:
            if p["cells"] == 1:
                p["p99_latency_s"] *= 1.0 + 1e-12

    def cont_loses(c):
        for p in c["points"]:
            p["cont_mean_ttft_s"] = 2.0 * p["mono_mean_ttft_s"]

    def hybrid_loses(h):
        for p in h["points"]:
            if "hybrid" in p["fleet_label"]:
                p["tier0_attainment"] = -1.0

    def overhead(o):
        o["overhead_fraction"] = 10.0

    def observed_drift(o):
        o["on_p99_latency_s"] = 1.5 * o["off_p99_latency_s"]

    injections = [("cells=1 p99 x (1 + 1e-12)", "sharded", cells_one),
                  ("continuous mean TTFT 2x monolithic", "continuous_batching", cont_loses),
                  ("hybrid tier-0 attainment -1", "hybrid_fleet", hybrid_loses),
                  ("observed p99 1.5x unobserved", "observer_overhead", observed_drift)]
    if math.isfinite(time_tol):  # the overhead bound is host timing
        injections.append(("observer overhead 10", "observer_overhead", overhead))
    for what, section, mutate in injections:
        if data.get(section):
            injected = copy.deepcopy(data)
            for entry in injected[section]:
                mutate(entry)
            yield what, injected


def self_test(data, det_tol, time_tol):
    """0 when every gate passes `data` against itself and fails on cue."""
    problems = [f"clean pass: {p}: {why}" for p, why in run_check(data, data, det_tol, math.inf)]

    perturbed = copy.deepcopy(data)
    leaves = list(perturb(perturbed, math.isfinite(time_tol)))
    must_flag = {path for path, _, flagged in leaves if flagged}
    counts = collections.Counter(kind for _, kind, _ in leaves)
    found = collections.Counter(p for p, _ in walk(data, perturbed, det_tol, time_tol))
    problems += [f"perturbed leaf not flagged: {p}" for p in sorted(must_flag - set(found))]
    problems += [f"unexpected finding at {p} (x{n})" for p, n in sorted(found.items())
                 if p not in must_flag or n != 1]

    # The walk rules: a missing baseline key and a shorter list fail; an
    # extra current key and another toolchain's provenance pass.
    missing = {k: v for k, v in data.items() if k != "bench"}
    shorter = {k: v[:-1] if isinstance(v, list) else v for k, v in data.items()}
    for what, current, should_fail in (("a missing key", missing, True),
                                       ("shorter lists", shorter, True),
                                       ("an extra key", dict(data, extra=1), False),
                                       ("other provenance", dict(data, provenance={}), False)):
        if any(walk(data, current, det_tol, time_tol)) != should_fail:
            problems.append(f"walk rule broken: {what}")

    # Each in-file gate must fire on its injection.  The injected file is read
    # against itself, so no walker finding can stand in for the gate's.
    clean = set(run_check(data, data, det_tol, time_tol))
    injections = list(gate_injections(data, time_tol))
    for what, injected in injections:
        if not set(run_check(injected, injected, det_tol, time_tol)) - clean:
            problems.append(f"in-file gate missed: {what}")

    if problems:
        print(f"bench_check self-test FAILED ({data.get('bench')}):")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"bench_check self-test OK ({data.get('bench')}): {len(must_flag)} of "
          f"{len(leaves)} perturbed leaves flagged once each, the rest none "
          f"(leaves per class: {dict(counts)}); {len(injections)} in-file gate "
          f"injection(s) caught")
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
                        help="allowed slowdown factor for timing metrics (default 4.0; "
                             "inf turns every timing comparison off)")
    parser.add_argument("--det-tol", type=float, default=1e-3,
                        help="relative tolerance for deterministic metrics (default 1e-3)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate passes each baseline against itself and "
                             "fails every injected regression")
    args = parser.parse_args()

    baselines = []
    for path in args.baseline:
        with open(path) as f:
            baselines.append(json.load(f))

    if args.self_test:
        sys.exit(max(self_test(b, args.det_tol, args.time_tol) for b in baselines))

    if len(args.current or []) != len(args.baseline):
        parser.error(f"--baseline given {len(args.baseline)} time(s) but --current "
                     f"{len(args.current or [])} time(s); they pair in order unless "
                     f"--self-test is given")

    total = 0
    for base_path, cur_path, baseline in zip(args.baseline, args.current, baselines):
        with open(cur_path) as f:
            current = json.load(f)
        findings = run_check(baseline, current, args.det_tol, args.time_tol)
        if findings:
            total += len(findings)
            print(f"bench_check: {len(findings)} finding(s) vs {base_path}:")
            for path, why in findings:
                print(f"  {path}: {why}")
        else:
            print(f"bench_check OK: {cur_path} within tolerance of {base_path}")
    if total:
        print(f"bench_check: {total} total finding(s) across {len(args.baseline)} pair(s)")
        sys.exit(1)


if __name__ == "__main__":
    main()
