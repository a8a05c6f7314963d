#!/usr/bin/env python3
"""Builds the Iris benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <whatif-plan|whatif-slo|fleet-loop> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark program (perfbench/*.cpp) is compiled together with the
library sources under src/ into .bench_build/perfbench; later runs reuse
that build. The program's stdout passes through unchanged, so the last line
printed is its JSON result. A traced run also writes its span log to
.bench_build/spans/. Exits non-zero, without a result, when the sources
are missing or the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("whatif-plan", "whatif-slo", "fleet-loop")
RUN_TIMEOUT_S = 175


def build(bench_dir: Path, build_dir: Path) -> bool:
    """Configures (once) and builds the program; build output goes to stderr."""
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=False)
        if configure.returncode != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    made = subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                          stdout=sys.stderr, check=False)
    return made.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("seed must be >= 0 and seconds in [1, 600]")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("run.py: library sources not found under src/; "
              "run from a full checkout", file=sys.stderr)
        return 2
    build_dir = root / ".bench_build" / "perfbench"
    if not build(bench_dir, build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [str(build_dir / "iris_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = root / ".bench_build" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
