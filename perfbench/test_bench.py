#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of the checkout:

    python3 perfbench/test_bench.py

- a one-round run of every workload, untraced and traced, emits exactly
  the metrics BENCHMARK.json names, with their units, and passes the
  correctness gate;
- a deliberately wrong golden makes the gate fail (non-zero exit,
  "correct": false);
- more jobs, workers or clients than cores is refused;
- in a directory holding only BENCHMARK.json and perfbench/ the
  benchmark exits non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

SCRATCH = ".perfbench-test"


def run(args, cwd="."):
    p = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                       capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, p


def check_metrics(result, expected, where):
    got = result["metrics"]
    assert set(got) == set(expected), \
        f"{where}: metric names differ: {sorted(set(got) ^ set(expected))}"
    for name, spec in expected.items():
        m = got[name]
        assert m["unit"] == spec["unit"], f"{where}: {name} unit {m['unit']}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), \
            f"{where}: {name} value {m['value']!r}"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    failures = []

    def case(name, fn):
        try:
            fn()
            print(f"ok   {name}", flush=True)
        except AssertionError as e:
            failures.append(name)
            print(f"FAIL {name}: {e}", flush=True)

    for w in bench["workloads"]:
        for trace, expected in ((0, e2e), (1, per_layer)):
            def one(w=w["name"], trace=trace, expected=expected):
                code, result, p = run(["--workload", w, "--seed", "1",
                                       "--seconds", "1", "--trace", str(trace)])
                assert code == 0 and result is not None, \
                    f"exit {code}: {p.stderr[-2000:]}"
                assert result["correct"] is True and result["failed"] == 0
                assert isinstance(result["attempted"], int) and result["attempted"] >= 1
                check_metrics(result, expected, f"{w} trace={trace}")
                if trace == 0:
                    for name, m in result["metrics"].items():
                        assert m["value"] > 0, f"{name} is {m['value']}"
            case(f"{w['name']} trace={trace} emits every metric", one)

    def wrong_golden():
        bad = os.path.join(SCRATCH, "goldens")
        shutil.rmtree(SCRATCH, ignore_errors=True)
        shutil.copytree("perfbench/goldens", bad)
        path = os.path.join(bad, "cert", "tournament-n6-p720-s1.txt")
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text.replace("max=72 ", "max=73 ", 1))
        for w in ("certify-exhaustive",):
            code, result, _ = run(["--workload", w, "--seed", "1", "--seconds",
                                   "1", "--trace", "0", "--goldens", bad])
            assert code != 0, f"{w}: gate passed with a wrong golden"
            assert result is not None and result["correct"] is False \
                and result["failed"] >= 1
        with open(os.path.join(bad, "check.txt")) as f:
            text = f.read()
        with open(os.path.join(bad, "check.txt"), "w") as f:
            f.write(text.replace(" 40539 ", " 40540 ", 1))
        code, result, _ = run(["--workload", "check", "--seed", "1", "--seconds",
                               "1", "--trace", "0", "--goldens", bad])
        assert code != 0 and result is not None and result["correct"] is False
    case("a wrong golden fails the gate", wrong_golden)

    def too_many():
        cores = len(os.sched_getaffinity(0))
        for flag in ("--jobs", "--workers", "--clients"):
            code, result, _ = run(["--workload", "check", "--seed", "1",
                                   "--seconds", "1", flag, str(cores + 1)])
            assert code != 0 and result is None, f"{flag} {cores + 1} accepted"
    case("more load than cores is refused", too_many)

    def bare_dir():
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
        code, result, _ = run(["--workload", "check", "--seed", "1",
                               "--seconds", "1"], cwd=bare)
        assert code != 0 and result is None, "ran without the sources"
    case("a directory without the sources fails", bare_dir)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    if failures:
        sys.exit(f"{len(failures)} failed: {', '.join(failures)}")
    print("all benchmark tests passed")


if __name__ == "__main__":
    main()
