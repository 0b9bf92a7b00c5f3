#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the mutexlb CLI and the
benchmark executable with dune, then runs the workload. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero on any build failure, usage error or correctness mismatch.
See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["certify-exhaustive", "store-workers", "serve-mixed", "check"]


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--jobs", type=int, default=0,
                    help="domains per certify (default: 1)")
    ap.add_argument("--workers", type=int, default=0,
                    help="certify --workers K (default: 1)")
    ap.add_argument("--clients", type=int, default=0,
                    help="closed-loop serve clients (default: 1)")
    ap.add_argument("--goldens", default="perfbench/goldens")
    args = ap.parse_args()

    cores = nproc()
    for name in ("jobs", "workers", "clients"):
        v = getattr(args, name)
        if v < 0 or v > cores:
            sys.exit(f"run.py: --{name} {v} is outside 0..nproc ({cores}); "
                     "all load must come from at most nproc jobs, workers "
                     "or clients")
    if args.seconds <= 0:
        sys.exit("run.py: --seconds must be positive")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("bin/mutexlb.ml")):
        sys.exit("run.py: run from the root of a mutexlb source checkout "
                 "(dune-project, lib/ and bin/ not found)")

    # --cache=disabled: the build writes only to _build in the checkout
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "-j", str(cores),
         "./bin/mutexlb.exe", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit(f"run.py: dune build failed ({build.returncode})")

    # With one lane (the default) the untraced run pins itself and every
    # process it starts to one CPU. The work is serial either way; on a
    # VM, a client and a server waking each other across vCPUs pay for
    # cross-vCPU wake-ups whose cost swings with the host's load (serve
    # quartile spread 0.3-0.5 unpinned, under 0.1 pinned).
    pinned = "none"
    if args.trace == 0 and max(args.jobs, args.workers, args.clients) <= 1:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        pinned = str(cpu)

    cmd = ["_build/default/perfbench/bench.exe", "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(cores), "--jobs", str(args.jobs),
           "--workers", str(args.workers), "--clients", str(args.clients),
           "--exe", "_build/default/bin/mutexlb.exe",
           "--goldens", args.goldens, "--work", ".perfbench",
           "--commit", commit(), "--pinned", pinned]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
