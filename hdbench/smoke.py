#!/usr/bin/env python3
"""Smoke run of the benchmark on the small `tiny` dataset.

    python3 hdbench/smoke.py

Runs every workload of BENCHMARK.json for one second, untraced and traced,
with the `tiny` registry dataset in place of the workload's own. It checks
that each run prints every end-to-end (untraced) or per-layer (traced)
metric by name with its unit, that the result is marked correct, and that
no operation failed. Exits non-zero on the first problem.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace), "--spec", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            where = f"{w['name']} trace={trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}, no result")
                continue
            r = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {expected[trace]}")
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append(f"{where}: correct={r['correct']} attempted={r['attempted']} "
                                f"failed={r['failed']}")
            print(f"{where}: attempted {r['attempted']}, failed {r['failed']}, "
                  f"{len(got)} metrics", flush=True)
    for p in problems:
        print(f"SMOKE FAILED: {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
