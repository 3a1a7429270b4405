#!/usr/bin/env python3
"""End-to-end reveal benchmark: pcap -> vantage pipeline -> socket -> collector.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Steps: build the library and the benchmark binary from source (CMake, into
.bench_build/ or $CARGO_TARGET_DIR), generate the workload's traffic from
the seed into per-vantage pcap files (reused while the same workload and
seed are asked for again), print each pcap's packet count and SHA-256, then
replay the pcaps for S seconds and check the collector's output. The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).

See perfbench/NOTES.md for the workloads, the metrics and what they mean.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sharded_exact_close", "rhhh_carpet_fleet", "memento_sliding_fleet")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    """Run cmd with output to log_path; on failure show the log and exit."""
    with open(log_path, "w") as log:
        try:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            rc = -1
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail(f"{' '.join(cmd)} failed")


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "-S", BENCH_DIR, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
               os.path.join(build_dir, "configure.log"), BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", cmake_dir, "-j", jobs],
               os.path.join(build_dir, "build.log"), BUILD_TIMEOUT_S)
    return os.path.join(cmake_dir, "perfbench")


def generate(binary, build_dir, workload, seed):
    """Per-vantage pcaps for (workload, seed); only one data set is kept.

    The generator reuses the pcaps already in `data` when they were made
    from the same workload definition and seed.
    """
    root = os.path.join(build_dir, "data")
    data = os.path.join(root, f"{workload}-s{seed}")
    if os.path.isdir(root):
        for entry in os.listdir(root):
            if entry != os.path.basename(data):
                shutil.rmtree(os.path.join(root, entry), ignore_errors=True)
    run_logged([binary, "gen", f"--workload={workload}", f"--seed={seed}", f"--out={data}"],
               os.path.join(build_dir, "gen.log"), RUN_TIMEOUT_S)
    return data


def print_inputs(data):
    manifest = {}
    with open(os.path.join(data, "manifest.txt")) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            manifest[key] = value
    for v in range(int(manifest["vantages"])):
        path = os.path.join(data, f"vantage{v}.pcap")
        digest = hashlib.sha256()
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
        print(f"input vantage{v}.pcap packets={manifest[f'packets_v{v}']} "
              f"bytes={os.path.getsize(path)} sha256={digest.hexdigest()}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    data = generate(binary, build_dir, args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}")
    print_inputs(data)
    sys.stdout.flush()

    socket = os.path.join(build_dir, "collector.sock")
    cmd = [binary, "run", f"--workload={args.workload}", f"--data={data}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--socket={socket}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"replay did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"replay exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
