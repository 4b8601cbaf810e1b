#!/usr/bin/env python3
"""Builds and runs the simulator's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own Cargo package
(`perfbench/Cargo.toml`) built three ways under `$CARGO_TARGET_DIR`
(default `.bench_build`): plain, with the engine's `profile` counters, and
with the latency `ledger`. All three are built on every invocation, so the
first one pays for the builds and later ones find them up to date.

`--trace 0` runs the plain build and prints its end-to-end metrics.
`--trace 1` runs the `profile` build with spans recorded around every
public call (written to `<target>/perfbench-spans/`), then the plain and
`ledger` builds briefly, and prints the per-layer metrics, including the
tracing overhead and the ledger's cost. The three builds must simulate
identically: their outcome digests are compared.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every output check passed.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILDS = {"plain": [], "profile": ["--features", "profile"], "ledger": ["--features", "ledger"]}


def build(target_root):
    """Builds every configuration; returns {name: binary path}."""
    bins = {}
    for name, flags in BUILDS.items():
        target = os.path.join(target_root, "perfbench-" + name)
        cmd = ["cargo", "build", "--release", "--quiet", "--offline",
               "--manifest-path", os.path.join(HERE, "Cargo.toml"),
               "--target-dir", target] + flags
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(f"error: building the {name} benchmark failed")
        bins[name] = os.path.join(target, "release", "perfbench")
    return bins


def run(binary, args):
    """Runs one benchmark process to completion; returns (code, lines, result)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"error: {os.path.basename(binary)} {' '.join(args)} printed no result "
                 f"(exit code {proc.returncode})")
    return proc.returncode, lines, result


def digest(lines):
    match = re.search(r"digest ([0-9a-f]{16})", lines[0])
    return match.group(1) if match else None


def declared_per_layer():
    """The per-layer metric names BENCHMARK.json declares, if it is present."""
    try:
        with open("BENCHMARK.json") as f:
            return {m["name"] for m in json.load(f)["per_layer"]}
    except OSError:
        return None


def traced(bins, common, seconds, spans):
    """The per-layer leg: traced run, then untraced and ledger runs to compare."""
    leg = max(1, seconds // 4)
    code, lines, res = run(bins["profile"], common + [
        "--seconds", str(max(1, seconds // 2)), "--min-rounds", "1",
        "--traced", "--spans-out", spans])
    print("\n".join(lines[:-1]))
    walls = {"profile": res["metrics"].pop("traced_wall_s")["value"]}
    digests = {"profile": digest(lines)}
    ok = code == 0 and res["correct"]
    for name in ("plain", "ledger"):
        c, l, r = run(bins[name], common + ["--seconds", str(leg), "--min-rounds", "1"])
        ok = ok and c == 0 and r["correct"]
        walls[name] = r["metrics"]["wall_s"]["value"]
        digests[name] = digest(l)
    print(f"  builds: wall_s {walls}, digests {digests}")
    if len(set(digests.values())) != 1 or None in digests.values():
        print("  FAILED: the profile, plain and ledger builds simulated differently")
        ok = False
    pct = lambda name: 100.0 * (walls[name] - walls["plain"]) / walls["plain"]
    res["metrics"]["host.trace_overhead_pct"] = {"value": pct("profile"), "unit": "%"}
    res["metrics"]["serve.ledger_cost_pct"] = {"value": pct("ledger"), "unit": "%"}
    res["correct"] = ok
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        sys.exit("error: --seed must be >= 0 and --seconds >= 1")

    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bins = build(target_root)
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.trace == 0:
        code, lines, res = run(bins["plain"], common + ["--seconds", str(a.seconds)])
        print("\n".join(lines[:-1]))
    else:
        spans = os.path.join(target_root, "perfbench-spans", f"{a.workload}-seed{a.seed}.jsonl")
        res = traced(bins, common, a.seconds, spans)
        code = 0 if res["correct"] else 1
        declared = declared_per_layer()
        if declared is not None and declared != set(res["metrics"]):
            print(f"  FAILED: per-layer metrics differ from BENCHMARK.json: "
                  f"{sorted(declared ^ set(res['metrics']))}")
            res["correct"], code = False, 1
    print(json.dumps(res))
    sys.exit(code if res["correct"] else max(code, 1))


if __name__ == "__main__":
    main()
