#!/usr/bin/env python3
"""The repository's benchmark: one command; BENCHMARK.json lists two workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then runs one workload:

  sim_paper_n50        the paper's Fig 5a point on the simulator (n=50, one
                       clan of 32, 2000 tx/proposal); simulator speed and the
                       consensus dissemination layer.
  sim_ingress_heal_n4  AppNode + ingress on the simulator, node 3 cut off for
                       3 s from about 3 s in, then healed; ingress refusal and
                       retry, the timeout path and sync catch-up.
  tcp_ingress_n4       the same stack over localhost TCP at 16k req/s; sockets,
                       signature checks and real threads, in wall time. Runnable,
                       but not listed in BENCHMARK.json: its latency follows
                       hypervisor steal by more than any bound the benchmark
                       may set.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. Lines before it are the run's
stamp (source id, build type, compiler, CPU, nproc, steal share) and notes.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sim_paper_n50", "sim_ingress_heal_n4", "tcp_ingress_n4")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The git commit when there is one, else a hash of the sources built."""
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
            return f"git:{sha}"
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return f"tree-sha256:{digest.hexdigest()[:16]}"


def build(root, build_dir):
    """Configures once, then builds incrementally; build output goes to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    for needed in ("src/CMakeLists.txt", "bench/alloc_counter.cc", "bench/bench_util.h"):
        if not (root / needed).is_file():
            fail(f"{needed} is missing: run from the root of a full source checkout")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    binary = build_dir / ("perfbench_traced" if args.trace else "perfbench")
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source", source_id(root)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} did not end with a result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        fail(f"{args.workload} printed a malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
