#!/usr/bin/env python3
"""latbeam benchmark.

    python3 perfbench/run.py --workload demo-serial --seed 13 --seconds 60 --trace 0

Run from the root of a checkout. With --trace 0 it runs the workload's
commands through the latbeam command line, each as its own process, in
a closed loop (the next command starts when the previous one exits)
for --seconds, set-up included, and prints the end-to-end metrics. With
--trace 1 it runs the commands once through the command line, then
alternates untraced and traced in-process passes over the same work,
and prints the per-layer metrics. Every run checks the outputs from outside. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOADS = ("demo-serial", "long-lattice")


def main(argv=None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description="latbeam benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke test")
    args = parser.parse_args(argv)
    args.started = started
    if not (SRC / "latbeam" / "cli.py").is_file():
        print(f"perfbench: no latbeam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    work = harness.STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "out").mkdir(parents=True)
    try:
        return harness.measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
