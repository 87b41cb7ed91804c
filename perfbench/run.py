#!/usr/bin/env python3
"""creditshap benchmark: one workload per invocation, in a child process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`).  The parent starts one child process with one BLAS/OpenMP thread,
takes the child's peak RSS from the kernel's rusage,
and prints two JSON lines: a record (provenance, sample counts, quartiles,
digests) and, last, the result `{"correct", "attempted", "failed",
"metrics"}`.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer metrics from a traced run.  Exit status is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from tracer import TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench"
# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_BUDGET_S
# (at most --seconds) have passed.
SETUP_MIN_REPEATS = 3
SETUP_BUDGET_S = 2.0
# The machine's speed drifts by up to 1.6x within seconds (README, "Speed
# probe"), so every timed operation is scaled by PROBE_REF_S / the time
# speed_probe() took around it: times read as on a machine where the probe
# takes PROBE_REF_S.
PROBE_REF_S = 1.0e-3
CHILD_TIMEOUT_S = 170
# One caller, one BLAS thread (within the nproc cap): on a shared 2-vCPU
# machine the vCPUs slow down at different times, and a BLAS call split
# across both waits for the slower one, which made the grid's time swing
# by a third between runs.
BLAS_THREADS = 1

WORKLOAD_NAMES = ("ledger_report", "ledger_ingest", "model_grid", "explain_accounts")
FAMILIES = ("logistic", "logistic_binned", "random_forest", "gradient_boosting", "oblivious_boosting", "mlp")

# End-to-end metric name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# Spans that only set-up calls: measured in a traced set-up pass.
SETUP_SPANS = ["boosting.grow_oblivious_tree", "ensemble.TreeEnsemble.load"]
# Span names recorded by the tracer in operations, fit_model split per family.
SPANS = [
    span
    for _, _, name in TARGETS
    if name != "ensemble.TreeEnsemble.load"
    for span in ([f"{name}.{f}" for f in FAMILIES] if name == "models.fit_model" else [name])
]
COUNTED_SPANS = [
    "pipeline.explain_account",
    "resampling.apply_strategy",
    *[f"models.fit_model.{f}" for f in FAMILIES],
    "boosting.BinnedMatrix",
    "boosting.grow_tree",
    "boosting.grow_oblivious_tree",
    "trees.Tree.predict",
    "metrics.cross_validate",
    "explain.tree_shap",
]


def per_layer_metrics() -> dict:
    """Per-layer metric name -> (unit, better)."""
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.s"] = ("s", "lower")
        metrics[f"{name}.self_s"] = ("s", "lower")
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = ("count", "lower")
    for name in SETUP_SPANS:
        metrics[f"setup.{name}.s"] = ("s", "lower")
    metrics.update(
        {
            "boosting.grow_oblivious_tree.ms_per_tree": ("ms", "lower"),
            "explain.tree_shap.ms_per_row": ("ms", "lower"),
            "resampling.rows_synthesized": ("count", "lower"),
            "boosting.trees_kept_ratio": ("ratio", "higher"),
            "explain.shap_unique_row_ratio": ("ratio", "higher"),
            "pipeline.artifact_bytes": ("bytes", "lower"),
            "trace.overhead_frac": ("ratio", "lower"),
            "trace.coverage_frac": ("ratio", "higher"),
            "ingest_accounts_per_s": ("accounts/s", "higher"),
            "explain_ms_p50": ("ms", "lower"),
            "explain_ms_tail": ("ms", "lower"),
            "grid_mean_gini": ("gini", "higher"),
            "failed_frac": ("ratio", "lower"),
        }
    )
    return metrics


PER_LAYER = per_layer_metrics()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full", help="toy: seconds-long self-check inputs")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- statistics ---------------------------------------------------------------
def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, pct):
    """Linear-interpolation percentile, as numpy's default."""
    ordered = sorted(values)
    rank = pct / 100 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return "max", max(values)
    pct = math.floor(100 * (n - 10) / n)
    return f"p{pct}", percentile(values, pct)


# -- speed probe --------------------------------------------------------------
_PROBE_RNG = np.random.default_rng(0)
_PROBE_CODES = _PROBE_RNG.integers(0, 16, 256)
_PROBE_WEIGHTS = _PROBE_RNG.random(256)
_PROBE_FLOATS = _PROBE_RNG.random(40).tolist()
_PROBE_MATRIX = _PROBE_RNG.random((48, 48)) / 48


def _calls(depth: int) -> int:
    return 1 if depth == 0 else _calls(depth - 1) + _calls(depth - 1)


def _probe_once() -> float:
    """A fixed mix of the kinds of work creditshap does, each part about a
    fifth of the time on a 2-vCPU Intel Xeon: dict updates in a loop,
    small-array numpy calls, float formatting and parsing, small matrix
    products, and recursive calls."""
    table = {}
    for i in range(1700):
        table[i % 61] = table.get(i % 61, 0) + i
    total = 0.0
    for _ in range(60):
        counts = np.bincount(_PROBE_CODES, weights=_PROBE_WEIGHTS, minlength=16)
        total += float(np.cumsum(counts)[-1])
    for _ in range(9):
        line = ",".join(f"{x:.6g}" for x in _PROBE_FLOATS)
        total += sum(float(v) for v in line.split(","))
    m = _PROBE_MATRIX
    for _ in range(36):
        m = m @ _PROBE_MATRIX
    return total + float(m[0, 0]) + _calls(11)


def speed_probe() -> float:
    """Seconds of the probe's work now: the median of three repeats, so an
    interrupt in one of them does not count."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_once()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def probed_setup(workload, seed):
    """One set-up, cut into stretches at the set-up's checkpoints: each
    stretch's (seconds, the mean of the probes at its two ends).  Probes
    run outside the stretches."""
    stretches = []
    probe, t0 = speed_probe(), time.perf_counter()

    def checkpoint():
        nonlocal probe, t0
        wall = time.perf_counter() - t0
        after = speed_probe()
        stretches.append((wall, (probe + after) / 2))
        probe, t0 = after, time.perf_counter()

    workload.setup(seed, checkpoint)
    checkpoint()
    return stretches


def scaled(op) -> float:
    """An operation's seconds as on a machine where the probe takes
    PROBE_REF_S."""
    wall, probe = op
    return wall * PROBE_REF_S / probe


# -- provenance ---------------------------------------------------------------
def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def provenance() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }


# -- child: one workload in this process ---------------------------------------
def run_child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import creditshap

    if Path(creditshap.__file__).resolve().parent != (ROOT / "src" / "creditshap").resolve():
        print(f"imported creditshap from {creditshap.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    # a fixed path: report artifacts embed a hash of the config, which
    # holds the data and output directories
    workdir = WORK_ROOT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # the program prints progress on stdout; keep ours for the result
        with contextlib.redirect_stdout(sys.stderr):
            result = measure(args, WORKLOADS[args.workload](workdir, args.size, bool(args.trace)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


class Loop:
    """The closed loop: one caller, the next operation when one returns."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def one_op(self, tracer=None):
        """Run, time and check one operation: (its seconds, the speed
        probes' mean seconds around it), or None if it raised."""
        workload = self.workload
        workload.before_op(self.attempted)
        gc.collect()  # start every operation with the same heap state
        self.attempted += 1
        before = speed_probe()
        t0 = time.perf_counter()
        try:
            out = workload.op()
        except Exception as exc:  # a raising operation is a failed one
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
        op = wall, (before + speed_probe()) / 2
        problem = workload.check(out)
        if problem:
            self.fail(problem)
        return op

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def run(self, seconds, max_ops=None, tracer=None):
        """Operations, at least one of each kind, until `seconds` have
        passed; one_op's result for each operation."""
        kinds = self.workload.kinds
        ops = []
        start = time.perf_counter()
        while len(ops) < kinds or time.perf_counter() - start < seconds:
            if max_ops is not None and self.attempted >= max_ops:
                break
            ops.append(self.one_op(tracer))
        if not any(ops):
            raise RuntimeError("no operation completed in the measured window")
        return ops


def unit_times(ops, workload):
    """Seconds per unit of each complete cycle through the operation kinds,
    as measured."""
    kinds = workload.kinds
    cycles = [ops[i : i + kinds] for i in range(0, len(ops) - kinds + 1, kinds)]
    return [sum(wall for wall, _ in c) / workload.inputs for c in cycles if None not in c]


def unit_seconds(ops, workload):
    """Each operation kind's (a ledger's report, a grid cell, an account)
    median scaled time, summed and divided by the number of inputs: one
    unit as a machine where the probe takes PROBE_REF_S would run it."""
    by_kind = {}
    for i, op in enumerate(ops):
        if op is not None:
            by_kind.setdefault(i % workload.kinds, []).append(scaled(op))
    return sum(statistics.median(times) for times in by_kind.values()) / workload.inputs


def measure(args, workload) -> dict:
    if args.trace:
        setup_tracer = Tracer()
        setup_tracer.patch()
        try:
            workload.setup(args.seed)
        finally:
            setup_tracer.unpatch()
    else:
        setups = []
        budget = min(SETUP_BUDGET_S, args.seconds)
        start = time.perf_counter()
        while len(setups) < SETUP_MIN_REPEATS or time.perf_counter() - start < budget:
            setups.append(probed_setup(workload, args.seed))

    loop = Loop(workload)
    loop.one_op()  # untimed warm-up: fills caches and finishes lazy set-up
    kinds = workload.kinds
    record = {"workload": args.workload, "seed": args.seed, "size": args.size, "params": workload.params}
    if args.trace:
        # a workload with a finite op supply leaves half of it, in whole
        # units, for the traced run
        limit = workload.max_ops and loop.attempted + (workload.max_ops - loop.attempted) // (2 * kinds) * kinds
        plain = loop.run(args.seconds / 2, limit)
        tracer = Tracer()
        tracer.patch()
        try:
            traced = loop.run(args.seconds / 2, workload.max_ops, tracer)
        finally:
            tracer.unpatch()
        metrics = layer_metrics(workload, plain, traced, tracer, loop)
        setup_busy = setup_tracer.summary()["busy"]
        metrics.update({f"setup.{name}.s": setup_busy.get(name, 0.0) for name in SETUP_SPANS})
        record["traced_units"] = len(traced) * workload.inputs / kinds
        write_spans(args, tracer)
    else:
        ops = loop.run(args.seconds, workload.max_ops)
        units = unit_times(ops, workload)
        setup_scaled = [sum(map(scaled, stretches)) for stretches in setups]
        metrics = {"setup_s": statistics.median(setup_scaled), "wall_s": unit_seconds(ops, workload)}
        tail_name, tail_value = tail(units)
        record.update(
            {
                "units": len(units),
                "measured_unit_s_quartiles": list(quartiles(units)),
                f"measured_unit_s_{tail_name}": tail_value,
                "probe_ms_quartiles": [1000 * q for q in quartiles([probe for _, probe in filter(None, ops)])],
                "setup_s_repeats": len(setups),
                "setup_s_quartiles": list(quartiles(setup_scaled)),
                "measured_setup_s_quartiles": list(quartiles([sum(w for w, _ in stretches) for stretches in setups])),
            }
        )
    record["digest"] = workload.digest
    record["errors"] = loop.errors[:10]
    record["provenance"] = provenance()
    return {"record": record, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}


def layer_metrics(workload, plain, traced, tracer, loop) -> dict:
    summary = tracer.summary()
    n_units = len(traced) * workload.inputs / workload.kinds
    busy, self_time, calls = summary["busy"], summary["self"], summary["calls"]
    m = {}
    for name in SPANS:
        m[f"{name}.s"] = busy.get(name, 0.0) / n_units
        m[f"{name}.self_s"] = self_time.get(name, 0.0) / n_units
    for name in COUNTED_SPANS:
        m[f"{name}.calls"] = calls.get(name, 0) / n_units

    def ratio(num, den):
        return num / den if den else 0.0

    plain_unit = unit_seconds(plain, workload)
    plain_ops = [scaled(op) for op in plain if op is not None]
    grown = calls.get("boosting.grow_tree", 0) + calls.get("boosting.grow_oblivious_tree", 0)
    explain = workload.name == "explain_accounts"
    m.update(
        {
            "boosting.grow_oblivious_tree.ms_per_tree": 1000 * ratio(
                busy.get("boosting.grow_oblivious_tree", 0.0), calls.get("boosting.grow_oblivious_tree", 0)
            ),
            "explain.tree_shap.ms_per_row": 1000 * ratio(
                busy.get("explain.tree_shap", 0.0), calls.get("explain.tree_shap", 0)
            ),
            "resampling.rows_synthesized": tracer.rows_synthesized / n_units,
            "boosting.trees_kept_ratio": ratio(tracer.boosted_trees_kept, grown),
            "explain.shap_unique_row_ratio": ratio(tracer.shap_unique_rows, calls.get("explain.tree_shap", 0)),
            "pipeline.artifact_bytes": statistics.median(workload.artifact_bytes) * workload.kinds / workload.inputs,
            "trace.overhead_frac": unit_seconds(traced, workload) / plain_unit - 1.0,
            "trace.coverage_frac": summary["in_layers"] / sum(wall for wall, _ in filter(None, traced)),
            "ingest_accounts_per_s": ratio(workload.accounts_per_unit, plain_unit)
            if workload.name == "ledger_ingest"
            else 0.0,
            "explain_ms_p50": 1000 * statistics.median(plain_ops) if explain else 0.0,
            "explain_ms_tail": 1000 * tail(plain_ops)[1] if explain else 0.0,
            "grid_mean_gini": getattr(workload, "mean_gini", 0.0),
            "failed_frac": loop.failed / loop.attempted,
        }
    )
    return m


def write_spans(args, tracer) -> None:
    """Spans stay in memory during the run and are written once, here."""
    path = WORK_ROOT / f"spans-{args.workload}.json"
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "parent", "start", "end"], "spans": tracer.spans}, fh)


# -- parent: isolate the workload in a child process ---------------------------
def run_parent(args) -> int:
    if not (ROOT / "src" / "creditshap" / "__init__.py").is_file():
        print(f"no creditshap sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    WORK_ROOT.mkdir(exist_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", *sys.argv[1:]]
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0 or not child.stdout.strip():
        print(f"workload {args.workload} exited with {child.returncode}", file=sys.stderr)
        return 1
    out = json.loads(child.stdout.strip().splitlines()[-1])
    # one child reaped so far, so RUSAGE_CHILDREN holds its peak alone (KiB)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    record = out["record"]
    record["peak_rss_mb"] = peak_mb
    if args.trace:
        metrics = out["metrics"]
        declared = PER_LAYER
    else:
        metrics = {**out["metrics"], "peak_rss_mb": peak_mb}
        declared = END_TO_END
    correct = out["failed"] == 0
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {k: {"value": metrics[k], "unit": spec[0]} for k, spec in declared.items()},
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_child(args) if args.child else run_parent(args)


if __name__ == "__main__":
    sys.exit(main())
