#!/usr/bin/env python3
"""Toy-size self-check of the benchmark; finishes in under a minute.

    python3 perfbench/selfcheck.py

For every workload it runs `run.py --size toy` untraced and traced and
asserts that the run passes its output checks and prints every metric
declared in BENCHMARK.json with its unit.  It also reruns each workload on
the same seed and asserts identical output digests, and checks that the
benchmark refuses to run without the creditshap sources.  Exits non-zero
on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SECONDS = "0.5"


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    cmd = [
        sys.executable, str(cwd / BENCH_DIR.name / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", SECONDS, "--trace", str(trace), "--size", "toy",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_lines(proc, what: str):
    if proc.returncode != 0:
        raise SystemExit(f"{what}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_metrics(result: dict, declared: list, what: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{what}: output checks failed: {result}")
    emitted = result["metrics"]
    for metric in declared:
        got = emitted.get(metric["name"])
        if got is None or got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            raise SystemExit(f"{what}: metric {metric['name']} missing or wrong: {got}")
    extra = set(emitted) - {m["name"] for m in declared}
    if extra:
        raise SystemExit(f"{what}: undeclared metrics {sorted(extra)}")


def check_refuses_without_sources() -> None:
    """A directory holding only BENCHMARK.json and the benchmark must fail."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("ledger_report", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit("benchmark ran without the creditshap sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        record, result = result_lines(bench(workload, 0), f"{workload} untraced")
        check_metrics(result, spec["end_to_end"], f"{workload} untraced")
        _, traced = result_lines(bench(workload, 1), f"{workload} traced")
        check_metrics(traced, spec["per_layer"], f"{workload} traced")
        again, _ = result_lines(bench(workload, 0), f"{workload} rerun")
        if record["digest"] != again["digest"]:
            raise SystemExit(f"{workload}: same seed gave digests {record['digest']} and {again['digest']}")
        print(f"ok {workload}: {len(result['metrics'])} end-to-end and {len(traced['metrics'])} per-layer metrics")
    check_refuses_without_sources()
    print("ok benchmark refuses to run without the creditshap sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
