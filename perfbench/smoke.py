#!/usr/bin/env python3
"""Smoke test of the benchmark harness (not part of the pytest suite).

Runs every workload once at minimum length, untraced and traced, and
checks that the result line names every metric of BENCHMARK.json with its
unit and that no operation failed.  Then checks that the harness refuses
to run, with a nonzero exit code and no result line, in a directory that
holds only BENCHMARK.json and the benchmark's own files.

Run from the root of a checkout:

    python3 perfbench/smoke.py

It takes about two minutes on two cores and exits 1 on the first problem.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload, trace, proc):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{where}: result keys {sorted(result)}"
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        return f"{where}: correct={result['correct']} failed={result['failed']} of {result['attempted']}"
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        return f"{where}: metrics differ from BENCHMARK.json: {set(got) ^ set(declared)}"
    bad = [name for name, m in result["metrics"].items()
           if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]]
    if bad:
        return f"{where}: non-numeric values for {bad}"
    if not trace and min(m["value"] for m in result["metrics"].values()) <= 0:
        return f"{where}: an end-to-end metric is not positive"
    return None


def check_bare_directory():
    """The harness must fail without the program's sources."""
    bare = ROOT / ".perfbench_runs" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-300:]!r}"
    return None


def main():
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            problem = check_result(workload, trace, run(ROOT, workload, trace))
            print(f"{workload} trace {trace}: {problem or 'ok'}")
            problems += [problem] if problem else []
    problem = check_bare_directory()
    print(f"bare directory refused: {problem or 'ok'}")
    problems += [problem] if problem else []
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
