#!/usr/bin/env python3
"""Corpus serving benchmark: build the servebench package and run one workload.

Usage (from the repository root):

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds servebench/ (its own CMake package over the repository's src/) in
Release with the test oracles compiled out, under $CARGO_TARGET_DIR
(default .bench_build), then runs the servebench binary. The binary prints
a human-readable report and, as its last line, the result object
{correct, attempted, failed, metrics}. This script checks that the metric
names are exactly those BENCHMARK.json lists for the mode (end_to_end for
--trace 0, per_layer for --trace 1), that the simulated metrics repeat those
of any earlier run of the same sources, workload and seed, and prints the
report with the result as the last line.

Exit status: 0 when the run is correct; 1 when the build fails, the binary
fails, or the correctness gate fails (the result line is then printed with
"correct": false); 2 on bad arguments.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "servebench")
BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    """Configure and build; returns the binary path or None on failure."""
    cmake_dir = os.path.join(out_dir, "servebench-cmake")
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Compiler temporaries stay inside the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", jobs, "--target", "servebench"],
    ]
    for cmd in steps:
        try:
            p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(cmake_dir, "servebench")


def source_digest(workload_files):
    """sha256 over the simulator sources, the benchmark and its traces."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "servebench"):
        for dirpath, dirnames, names in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(names)]
    files += [os.path.join(ROOT, f) for f in workload_files]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_sha():
    # Only a checkout that is itself a git work tree has a sha; never let
    # git walk up into an enclosing repository.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace == 1 else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def valid_result(line, trace):
    try:
        r = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(r["attempted"], int) or r["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(r["failed"], int) or r["failed"] < 0:
        return "failed must be a whole number"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in r["metrics"].items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    return None


# Metrics computed in simulated time: a pure function of the sources and
# the seed, so every run of the same code and seed must repeat them exactly.
SIMULATED = ("sim.", "dram.", "stall.", "lat.", "node.")


def repeats_earlier_run(results, args, digest, result):
    """Compare the simulated metrics with an earlier run of the same source
    digest, workload, seed and mode; the first run records them."""
    sim = {k: v["value"] for k, v in result["metrics"].items()
           if k.startswith(SIMULATED)}
    path = os.path.join(
        results, f"simulated-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    try:
        with open(path) as f:
            ref = json.load(f)
    except (OSError, ValueError):
        ref = None
    if ref is not None and ref.get("digest") == digest:
        return ref.get("metrics") == sim
    with open(path, "w") as f:
        json.dump({"digest": digest, "metrics": sim}, f)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    results = os.path.join(out_dir, "servebench-out")
    os.makedirs(results, exist_ok=True)

    digest = source_digest(["tests/data/serving.trace",
                            "tests/data/prefill.trace"])
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", results, "--git-sha", git_sha(),
           "--source-digest", digest]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {BINARY_TIMEOUT_S} s")
        return 1
    lines = p.stdout.rstrip("\n").splitlines()
    if p.returncode not in (0, 1) or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        log(f"servebench exited with status {p.returncode}")
        return 1
    error = valid_result(lines[-1], args.trace)
    if error is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"bad result: {error}")
        return 1
    result = json.loads(lines[-1])
    if not repeats_earlier_run(results, args, digest, result):
        lines.insert(-1, "FAIL simulated metrics differ from an earlier run "
                         "of the same sources and seed")
        result["correct"] = False
        lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
