#!/usr/bin/env python3
"""Build and run the store benchmark.

    python3 perfbench/run.py --workload <hot_reads|degraded_file>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (and the src/ tree it benchmarks) into .bench_build/perfbench;
later runs rebuild incrementally. The benchmark binary's output is passed through;
its last line is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is the binary's: 0 only when every operation
returned the right bytes and every self-check held.

File devices live in a scratch directory under .bench_build that is
removed when the run ends, also on failure. Traced runs write their spans
to .bench_build/perfbench/traces/. Each run's metadata is kept under
.bench_build/perfbench/meta/; a run whose metadata differs from the
previous run of the same workload and mode says it is not comparable.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

# The binary's time beyond --seconds: build-free setup, rebuilds and
# read-backs of every round.
TIMEOUT_MARGIN_S = 120
# Knobs that would change what is measured: the benchmark runs the
# defaults (flush policy, I/O backend, GF SIMD tier) on both sides.
SCRUBBED_ENV = ("ECFRM_FSYNC", "ECFRM_IO_BACKEND", "ECFRM_SIMD")
# Metadata fields that may differ between comparable runs.
PER_RUN_META = ("seed",)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "store", "stripe_store.h")):
        fail("no store sources under src/: run from the repository root")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed (log: {log_path})")
    return os.path.join(build_dir, "perfbench")


def check_comparable(meta_dir, meta_line):
    meta = json.loads(meta_line[len("meta: "):])
    os.makedirs(meta_dir, exist_ok=True)
    path = os.path.join(meta_dir, f"{meta['workload']}-{meta['mode']}.json")
    if os.path.isfile(path):
        with open(path) as f:
            previous = json.load(f)
        differs = sorted(k for k in set(meta) | set(previous)
                         if k not in PER_RUN_META and meta.get(k) != previous.get(k))
        if differs:
            print("comparable: no -- metadata differs from the previous run in this checkout: "
                  + ", ".join(f"{k}={previous.get(k)!r}->{meta.get(k)!r}" for k in differs))
        else:
            print("comparable: yes -- metadata matches the previous run in this checkout")
    with open(path, "w") as f:
        json.dump(meta, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(root, build_dir)

    scratch = os.path.join(build_dir, "scratch", str(os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--scratch", scratch]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}

    timeout_s = 2 * args.seconds + TIMEOUT_MARGIN_S
    last = ""
    try:
        os.makedirs(scratch, exist_ok=True)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        try:
            out, _ = proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"timed out after {timeout_s:g} s")
        lines = out.splitlines()
        for line in lines[:-1]:
            print(line)
            if line.startswith("meta: "):
                check_comparable(os.path.join(build_dir, "meta"), line)
        last = lines[-1] if lines else ""
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    try:
        result = json.loads(last)
    except ValueError:
        fail(f"perfbench binary exited {proc.returncode} without a result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print(last, flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
