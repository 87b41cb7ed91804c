#!/usr/bin/env python3
"""Write BENCHMARK.json at the repository root from run.py's declarations.

    python3 perfbench/write_spec.py

The metric names, units, directions and bounds come from `run.END_TO_END`
and `run.PER_LAYER`, so the file always names what the benchmark emits;
`selfcheck.py` verifies that it does.
"""

from __future__ import annotations

import json
from pathlib import Path

import run

RUN_SECONDS = 20
WORKLOAD_WHY = {
    "ledger_report": "creditshap report on synthetic ledgers: the main user command, dominated by oblivious tree growth and TreeSHAP on 50-row batches",
    "ledger_ingest": "ingest, featurize and select a large ledger to features.csv with no model: the only workload dominated by tables, features and selection",
    "model_grid": "run_grid of five non-oblivious families x five resamplers on planted data: the only one exercising resampling, forest, plain trees, logistic and MLP",
    "explain_accounts": "one waterfall (single-row TreeSHAP, JSON, SVG) per account from a loaded model: shows single-row SHAP latency that batching could hurt",
}


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOAD_WHY[name]} for name in run.WORKLOAD_NAMES],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in run.END_TO_END.items()
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, (unit, better) in run.PER_LAYER.items()],
    }


def main() -> None:
    path = run.ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(spec(), indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
