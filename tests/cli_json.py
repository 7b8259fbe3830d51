#!/usr/bin/env python3
"""JSON contracts of lumos_cli's --json mode (run by ctest).

usage: cli_json.py <path/to/lumos_cli> parse|point0|threads|gauges|rounds

  parse    the stdout of every --json mode, and a --timeline-out *.json
           file, load with the json module
  point0   an observed run (--profile) reports the same p50/p99/p99.9
           latency and goodput as campaign grid point 0
  threads  campaign JSON is byte-identical under LUMOS_THREADS=1 and 4
  gauges   a faulted, autoscaled run's timeline never counts more down slots
           than active ones (failed_slots <= active_slots in every window)
  rounds   profiled runs skip the dispatch rounds that cannot dispatch: the
           dispatch source's calls are at most half of the loop iterations
           on a decoding hybrid run, and at most 0.4 of them on a serial
           open loop
"""
import json
import os
import subprocess
import sys
import tempfile


def run(cli, *args, threads=None):
    env = dict(os.environ)
    if threads is not None:
        env["LUMOS_THREADS"] = str(threads)
    return subprocess.run([cli, "--json", *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def check_parse(cli):
    with tempfile.TemporaryDirectory() as tmp:
        timeline = os.path.join(tmp, "timeline.json")
        modes = [
            ["list"],
            ["tron", "bert-base"],
            ["ghost", "gat", "cora"],
            ["generate", "gpt2", "16", "8"],
            ["serve", "mixed", "--requests", "4000"],
            ["serve", "tron", "--loop", "closed", "--sessions", "8", "--requests", "2000"],
            ["serve", "tron", "--requests", "2000", "--profile",
             "--timeline-out", timeline],
            # A slot rate for the variant --grow-scale grows prices those slots.
            ["serve", "tron", "--autoscale", "queue", "--grow-scale", "0.5",
             "--slot-rate", "tron@0.5=9", "--requests", "20000", "--qps", "200000"],
        ]
        for args in modes:
            json.loads(run(cli, *args))
        with open(timeline) as f:
            json.load(f)
    return f"{len(modes)} --json outputs and a timeline parse"


def check_point0(cli):
    args = ["serve", "tron", "--requests", "4000"]
    point = json.loads(run(cli, *args))["points"][0]
    observed = json.loads(run(cli, *args, "--profile"))
    for key in ("p50_latency_s", "p99_latency_s", "p999_latency_s", "goodput_qps"):
        if point[key] != observed[key]:
            raise SystemExit(f"{key}: campaign point 0 {point[key]} vs observed "
                             f"{observed[key]}")
    return "observed run matches campaign point 0"


def check_threads(cli):
    for args in (["serve", "mixed", "--sched", "fifo", "--requests", "4000"],
                 ["serve", "tron", "--fleet", "8", "--cells", "4", "--requests", "8000"]):
        if run(cli, *args, threads=1) != run(cli, *args, threads=4):
            raise SystemExit(f"{' '.join(args)}: JSON differs between 1 and 4 threads")
    return "campaign JSON is thread-count invariant"


def check_gauges(cli):
    # The autoscaler shrinks this fleet while slots are down, so a retired
    # down slot must leave the failed-slot gauge.
    with tempfile.TemporaryDirectory() as tmp:
        timeline = os.path.join(tmp, "timeline.json")
        run(cli, "serve", "tron", "--requests", "100000", "--autoscale", "util",
            "--mtbf-us", "5000", "--mttr-us", "2000", "--fleet", "4", "--max-fleet", "4",
            "--scale-interval-us", "1000", "--timeline-out", timeline)
        with open(timeline) as f:
            windows = json.load(f)["windows"]
    over = [i for i, w in enumerate(windows) if w["failed_slots"] > w["active_slots"]]
    if over:
        raise SystemExit(f"{len(over)} of {len(windows)} timeline windows count more "
                         f"failed than active slots (first: window {over[0]})")
    return f"failed_slots <= active_slots in all {len(windows)} timeline windows"


def check_rounds(cli):
    # Most iterations of a decoding run are token steps of busy slots, which
    # change neither the queue nor which slots can take a batch.  Most
    # arrivals of the serial open loop join a bucket that is neither empty
    # nor full, which changes no readiness either.
    runs = (("decoding hybrid", 0.5,
             ["serve", "tron,v100", "--fleet", "8", "--routing", "cost", "--decode", "32",
              "--requests", "4000", "--profile"]),
            ("serial open loop", 0.4,
             ["serve", "tron", "--fleet", "16", "--qps", "94400", "--requests", "50000",
              "--profile"]))
    found = []
    for name, bound, args in runs:
        profile = json.loads(run(cli, *args))["profile"]
        calls = {s["source"]: s["calls"] for s in profile["sources"]}["dispatch"]
        iterations = profile["iterations"]
        if calls > bound * iterations:
            raise SystemExit(f"{name}: {calls} dispatch rounds in {iterations} loop "
                             f"iterations, more than {bound:g} of them")
        found.append(f"{name} {calls} dispatch rounds in {iterations} loop iterations")
    return "; ".join(found)


def main():
    checks = {"parse": check_parse, "point0": check_point0, "threads": check_threads,
              "gauges": check_gauges, "rounds": check_rounds}
    if len(sys.argv) != 3 or sys.argv[2] not in checks:
        raise SystemExit(__doc__)
    print("cli_json OK:", checks[sys.argv[2]](sys.argv[1]))


if __name__ == "__main__":
    main()
