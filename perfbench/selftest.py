"""Smoke test of the benchmark itself.

Usage: python3 perfbench/selftest.py   (from the root of a checkout; about three minutes)

For every workload it runs ``run.py`` once with ``--trace 0`` at full size
on the reference seed (so the records are compared with reference.json) and
once with ``--trace 1`` at ``--tiny`` size.  Each run must print a correct
result holding exactly the metrics BENCHMARK.json names, each with its
unit.  Two traced runs of the in-process workloads must report the same
per-trial counts.  Finally the benchmark must refuse to run, with a nonzero
exit code and no result, in a directory holding only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
#: per-layer metrics that are counts of the program's own work, fixed by the inputs
EXACT = ("calls_per_trial", "forge_success_ratio", "forge_attempts_per_trial")


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str], str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return done.returncode, done.stdout.splitlines(), done.stderr


def result_of(args: tuple[str, ...], expected: dict[str, str], failures: list[str]) -> dict:
    code, lines, stderr = bench(*args)
    where = " ".join(args)
    if code != 0 or not lines:
        failures.append(f"{where}: exit code {code}\n{stderr[-2000:]}")
        return {}
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        failures.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") or result.get("attempted", 0) < 1:
        failures.append(f"{where}: not correct, {result.get('failed')} of {result.get('attempted')} failed\n{stderr[-2000:]}")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        failures.append(f"{where}: metrics and units {got}, expected {expected}")
    for name, m in result.get("metrics", {}).items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            failures.append(f"{where}: metric {name} is {m}")
    return result.get("metrics", {})


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures: list[str] = []
    for w in (w["name"] for w in spec["workloads"]):
        print(f"{w}: full size on the reference seed, then traced at tiny size", flush=True)
        result_of(("--workload", w, "--seed", "0", "--seconds", "1", "--trace", "0"), end_to_end, failures)
        traced = ("--workload", w, "--seed", "1", "--seconds", "1", "--trace", "1", "--tiny")
        first = result_of(traced, per_layer, failures)
        if w == "cli-startup":
            continue
        again = result_of(traced, per_layer, failures)
        for name in per_layer:
            if name.endswith(EXACT) and first.get(name) != again.get(name):
                failures.append(f"{w}: {name} differs between two traced runs: {first.get(name)} vs {again.get(name)}")
        if w == "honest-wide":
            print(f"  protocol.check_claim.calls_per_trial = {first.get('protocol.check_claim.calls_per_trial')}")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path), ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = bench("--workload", "honest-wide", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        failures.append(f"without src/ the benchmark exited {code} and printed {lines[-1:]}")
    shutil.rmtree(bare)

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
