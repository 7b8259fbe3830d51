#!/usr/bin/env python3
"""Alternating fleetbench pairs: this tree against a parent commit.

usage: python3 tools/fleetbench_pairs.py --parent <ref> --workload <name>
           [--seed N] [--pairs N] [--trace 0|1] [--work-dir DIR]
       python3 tools/fleetbench_pairs.py --self-test

Run from anywhere inside the repository.  The script
  1. exports <ref> with `git archive` into a work directory (a fresh temp
     dir, removed afterwards, unless --work-dir names one to keep), and
     copies this working tree there too: its tracked files as they are on
     disk, uncommitted edits included, and the untracked files git does not
     ignore, without `.git`.  Both sides then run from an export, so
     fleetbench/run.py gives both the same kind of source id (a hash of the
     sources), and the id's length cannot move one side's memory;
  2. builds the parent and the change through fleetbench/run.py, each
     under its own CARGO_TARGET_DIR, with one short discarded run;
  3. runs --pairs pairs of BENCHMARK.json's run_seconds each, alternating
     which side goes first: untraced (--trace 0, the default) or traced
     (--trace 1);
  4. prints both sides' digests and failed checks and, per metric of
     BENCHMARK.json (the end-to-end metrics untraced, the per-layer ones
     traced, leaving out a layer that reads 0 on both sides), each side's
     median and quartiles, the change/parent ratio of the medians, in how
     many pairs the change was better, and the median and quartiles of the
     per-pair change/parent ratios.

Each pair line and the summary name the pool's thread count, read from each
run's provenance; the summary names the change by `git describe --always
--dirty`.  A failed check does not stop the pairs; the script exits 1
after printing if any run failed one, or if the two sides ran with different
thread counts (a speedup is only comparable at one core count).

A claim holds when the per-pair ratios' first quartile is above 1 (a
higher-is-better metric) or their third quartile is below 1 (lower is
better): the `holds` column.  Each ratio compares two runs taken back to
back, so a host whose speed drifts between pairs moves both sides of a pair
together and leaves the ratios tight.  The older rule, the median gain above
the parent's interquartile range (the `>IQR` column), reads that drift as
noise in the parent's runs and can hide a gain every pair shows.
`--self-test` checks both rules on canned samples.
"""
import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(commit, dest):
    """Extracts `git archive <commit>` into `dest` (kept if already there)."""
    if os.path.exists(os.path.join(dest, "fleetbench", "run.py")):
        return
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def export_worktree(dest):
    """Copies the working tree's files into `dest`, replacing what was there."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        stdout=subprocess.PIPE, check=True).stdout.decode()
    for rel in sorted(set(listed.split("\0")) - {""}):
        source = os.path.join(ROOT, rel)
        if not os.path.lexists(source):
            continue  # a tracked file deleted in the working tree
        target = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target, follow_symlinks=False)


def run(tree, target_dir, workload, seed, seconds, trace):
    """One fleetbench/run.py pass; returns (metrics, digest, reps, threads, failed checks)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "fleetbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"fleetbench failed in {tree}:\n{proc.stdout}")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])
    digest = "-"
    failed = []
    for check in report.get("checks", []):
        found = re.search(r"digest ([0-9a-f]+)", check.get("detail", ""))
        if check["name"] == "repeat_bit_identical" and found:
            digest = found.group(1)
        if not check["ok"]:
            failed.append(f"{check['name']} ({check.get('detail', '')})")
    if result["failed"] and not failed:
        failed.append(f"{result['failed']} failed operations")
    reps = "?"
    for line in lines:
        found = re.search(r"wall: median .* n=(\d+)", line)
        if line.startswith("#") and found:
            reps = found.group(1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, digest, reps, report["provenance"]["threads"], failed


def quartiles(values):
    """(q1, median, q3) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def number(x):
    return f"{x:,.0f}" if 1e4 <= abs(x) < 1e12 else f"{x:.4g}"


def spread(q):
    return f"{number(q[1])} [{number(q[0])}, {number(q[2])}]"


def summarize(higher, parent, change):
    """One metric's summary over aligned pairs: each side's quartiles, the
    ratio of the medians, the change's wins, whether the median gain beats
    the parent's IQR, and the per-pair ratios' quartiles with the claim rule."""
    p, c = quartiles(parent), quartiles(change)
    wins = sum((b > a) if higher else (b < a) for a, b in zip(parent, change))
    gain = (c[1] - p[1]) if higher else (p[1] - c[1])
    ratios = [b / a for a, b in zip(parent, change) if a]
    pair = quartiles(ratios) if ratios else (float("nan"),) * 3
    return {"parent": p, "change": c, "ratio": c[1] / p[1] if p[1] else float("nan"),
            "wins": wins, "beats_iqr": gain > p[2] - p[0], "pair": pair,
            "holds": pair[0] > 1 if higher else pair[2] < 1}


def self_test():
    """Feeds canned pairs to `summarize`; returns the exit code."""
    # A host that drifted between 20 s windows: the parent read 325k-525k
    # req/s while every pair's change/parent ratio read 1.16-1.43.
    drift_parent = [325e3, 525e3, 352e3, 498e3, 371e3, 463e3, 389e3, 441e3, 402e3, 517e3]
    drift_ratios = [1.16, 1.43, 1.18, 1.21, 1.37, 1.17, 1.30, 1.19, 1.24, 1.16]
    drift_change = [a * r for a, r in zip(drift_parent, drift_ratios)]
    # No change: the pairs scatter on both sides of 1.
    same_ratios = [0.95, 1.05, 1.02, 0.97, 1.0, 1.03, 0.98, 0.96, 1.04, 1.01]
    same_change = [a * r for a, r in zip(drift_parent, same_ratios)]
    cases = [  # (case, higher is better, parent, change, >IQR expected, holds expected)
        ("drifting host, higher is better", True, drift_parent, drift_change, False, True),
        ("drifting host, lower is better", False, drift_parent,
         [a / r for a, r in zip(drift_parent, drift_ratios)], False, True),
        ("no change", True, drift_parent, same_change, False, False),
        ("no change, lower is better", False, drift_parent, same_change, False, False),
    ]
    failed = 0
    for name, higher, parent, change, beats_iqr, holds in cases:
        row = summarize(higher, parent, change)
        ok = row["beats_iqr"] == beats_iqr and row["holds"] == holds
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: >IQR {row['beats_iqr']} (want {beats_iqr}), "
              f"pair ratios {spread(row['pair'])} holds {row['holds']} (want {holds})")
    print(f"fleetbench_pairs self-test {'FAILED' if failed else 'OK'}: {len(cases)} cases")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="git ref to compare against")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", help="keep the export and builds here")
    parser.add_argument("--self-test", action="store_true",
                        help="check the claim rules on canned samples and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.workload:
        parser.error("--parent and --workload are required")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"]
    commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", args.parent + "^{commit}"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    change = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    work = args.work_dir or tempfile.mkdtemp(prefix="fleetbench_pairs_")
    try:
        parent_tree = os.path.join(work, "parent-" + commit[:12])
        export(commit, parent_tree)
        change_tree = os.path.join(work, "change")
        export_worktree(change_tree)
        sides = {"parent": (parent_tree, parent_tree + "_build"),
                 "change": (change_tree, change_tree + "_build")}
        for name, (tree, target) in sides.items():
            print(f"building {name} ...", flush=True)
            run(tree, target, args.workload, args.seed, 1, args.trace)

        samples = {name: [] for name in sides}
        digests = {name: set() for name in sides}
        threads = {name: set() for name in sides}
        failures = {name: [] for name in sides}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for name in order:
                metrics, digest, reps, count, failed = run(*sides[name], args.workload,
                                                           args.seed, seconds, args.trace)
                samples[name].append(metrics)
                digests[name].add(digest)
                threads[name].add(count)
                failures[name] += failed
                shown = ("" if args.trace else
                         f"requests_per_s {number(metrics['requests_per_s'])}"
                         f"  peak_rss_mb {number(metrics['peak_rss_mb'])}  reps {reps}  ")
                print(f"pair {i + 1} {name:6} {shown}threads {count}  digest {digest}  "
                      f"failed {len(failed)}", flush=True)
    finally:
        if not args.work_dir:
            shutil.rmtree(work, ignore_errors=True)

    mode = "traced" if args.trace else "untraced"
    print(f"\n{args.workload} seed {args.seed}: {args.pairs} {mode} pairs of {seconds:g} s, "
          f"parent {args.parent} ({commit[:12]}), change {change}")
    for name in samples:
        print(f"  {name} threads {' '.join(map(str, sorted(threads[name])))}  "
              f"digest {' '.join(sorted(digests[name]))}")
        for failed in sorted(set(failures[name])):
            print(f"  {name} FAILED x{failures[name].count(failed)}: {failed}")
    if digests["parent"] != digests["change"]:
        print("  DIGESTS DIFFER")
    mixed_threads = len(threads["parent"] | threads["change"]) > 1
    if mixed_threads:
        print("  THREAD COUNTS DIFFER: the ratios below compare different core counts")
    width = max(len(spec["name"]) for spec in metric_specs)
    print(f"  {'metric':{width}} {'better':6} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'ratio':>7} {'wins':>6} {'>IQR':>5} "
          f"{'pair ratios median [q1, q3]':>28} {'holds':>5}")
    for spec in metric_specs:
        name = spec["name"]
        parent = [s[name] for s in samples["parent"]]
        change = [s[name] for s in samples["change"]]
        if not any(parent + change):
            continue
        row = summarize(spec["better"] == "higher", parent, change)
        wins = f"{row['wins']}/{len(parent)}"
        pair = "{:.3f} [{:.3f}, {:.3f}]".format(row["pair"][1], row["pair"][0], row["pair"][2])
        print(f"  {name:{width}} {spec['better']:6} {spread(row['parent']):>36} "
              f"{spread(row['change']):>36} {row['ratio']:7.3f} {wins:>6} "
              f"{'yes' if row['beats_iqr'] else 'no':>5} {pair:>28} "
              f"{'yes' if row['holds'] else 'no':>5}")
    return 1 if any(failures.values()) or mixed_threads else 0


if __name__ == "__main__":
    sys.exit(main())
