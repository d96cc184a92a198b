#!/usr/bin/env python3
"""HD-Index benchmark runner.

Run from the root of a checkout:

    python3 hdbench/run.py --workload sun-query --seed 13 --seconds 30 --trace 0

It builds the repository's main project and the benchmark program with sbt
(once per source state; the classpath is cached under .bench_build/hdbench),
then runs one workload in a fresh JVM and prints the result as one JSON
object on the last line of standard output. Progress and a readable summary
go to standard error. `--spec tiny` swaps the workload's dataset for the
small test dataset (used by smoke.py).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_build", "hdbench")
WORKLOADS = ("sun-query", "sift10k-churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"hdbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files():
    """Every file the build reads: the root project and the benchmark's own."""
    tops = [os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "project"),
            os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
            os.path.join(BENCH_DIR, "build.sbt"), os.path.join(BENCH_DIR, "project"),
            os.path.join(BENCH_DIR, "src")]
    files = []
    for top in tops:
        if os.path.isfile(top):
            files.append(top)
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))
            files.extend(os.path.join(d, n) for n in sorted(names))
    return files


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def classpath(build_stamp):
    """Compiles with sbt when the sources changed and returns the runtime classpath."""
    cache = os.path.join(WORK, "classpath.json")
    if os.path.exists(cache):
        with open(cache) as fh:
            cached = json.load(fh)
        if cached.get("stamp") == build_stamp:
            return cached["classpath"]
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        env["SBT_OPTS"] = ("-Dsbt.offline=true -Dsbt.override.build.repos=true "
                           "-Dsbt.repository.config=" + os.path.expanduser("~/.sbt/repositories"))
    print("hdbench: compiling with sbt", file=sys.stderr)
    try:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
             "export Runtime/fullClasspath"],
            cwd=BENCH_DIR, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            timeout=BUILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("sbt build timed out")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    sys.stderr.write("".join(l + "\n" for l in lines[:-1]))
    if proc.returncode != 0 or not lines or "hdbench" not in lines[-1]:
        fail(f"sbt build failed (exit {proc.returncode})")
    os.makedirs(WORK, exist_ok=True)
    with open(cache, "w") as fh:
        json.dump({"stamp": build_stamp, "classpath": lines[-1]}, fh)
    return lines[-1]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spec", help="registry dataset replacing the workload's own")
    a = p.parse_args()

    for needed in ("build.sbt", os.path.join("src", "main", "scala")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from the root of a full checkout")

    build_stamp = stamp()
    cp = classpath(build_stamp)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The serial collector copies the index's key arrays in one deterministic
    # order. With the parallel default their heap layout, and with it the
    # window scan's cache behaviour, changed from JVM to JVM and split query
    # latency into two modes about 20% apart. The 1 GB young generation keeps
    # collections rare enough that few timed operations contain one, and the
    # heap is touched at start-up so that no timed operation waits on a first
    # page fault.
    cmd = ["java", "-Xms2g", "-Xmx2g", "-Xmn1g", "-XX:+UseSerialGC", "-XX:+AlwaysPreTouch",
           f"-Djava.io.tmpdir={tmp}",
           "-cp", cp, "hdbench.Main",
           "--workload", a.workload, "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work-dir", WORK, "--stamp", build_stamp]
    if a.seed is not None:
        cmd += ["--seed", str(a.seed)]
    if a.spec:
        cmd += ["--spec", a.spec]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark program failed (exit {proc.returncode})")
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result {lines[-1]}")
    for name, m in result["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            fail(f"metric {name} has no finite value: {m}")
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
