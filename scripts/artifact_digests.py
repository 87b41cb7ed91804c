#!/usr/bin/env python3
"""Print the sha256 of every artifact that the CI smoke-test configs write.

Writes `write_ledger_fixture(150, seed=0)` to a temporary directory and runs,
through `creditshap.cli.main` and with the CI workflow's flags, `report`
under each config below, `explain --row A0003` for the tree families, and
the CI grid.  Prints one `sha256  config/path` line per file, sorted; the
commands' own output goes to stderr.  Two checkouts whose outputs are
identical wrote the same bytes, so a float change shows up as a diff.

Usage, with the package installed (or PYTHONPATH=src):
    python3 scripts/artifact_digests.py > digests.txt
"""

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

from creditshap.cli import main as cli
from creditshap.synthetic import write_ledger_fixture

ROUNDS = ["--set", "model.params.n_rounds=20"]
REPORTS = {  # config name -> `report` flags, as in the CI workflow
    "default": ROUNDS,
    "forest": ["--set", "model=random_forest", "--set", "model.params.n_trees=20"],
    "plain": ["--set", "model=gradient_boosting", *ROUNDS],
    "smote": ["--set", "resampling=smote", *ROUNDS],
    "svm_smote": ["--set", "resampling=svm_smote", *ROUNDS],
    "mlp": ["--set", "model=mlp", "--set", "model.params.epochs=5"],
    "binned": ["--set", "model=logistic_binned"],
    "top_k": ["--set", "feature_set=top_k", *ROUNDS],
}
EXPLAINED = ("default", "forest", "plain")  # the tree families
GRID = ["--seed", "0", "--models", "logistic,logistic_binned", "--resamplers", "smote,borderline_smote,svm_smote"]


def run(*argv) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli(list(argv))
    if rc != 0:
        raise SystemExit(f"creditshap {' '.join(argv)} exited with {rc}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data = str(write_ledger_fixture(root / "data", n_accounts=150, seed=0))
        out = root / "out"
        for name, flags in REPORTS.items():
            run("report", "--data", data, "--out", str(out / name), "--seed", "0", *flags)
        for name in EXPLAINED:
            run("explain", "--data", data, "--out", str(out / name), "--row", "A0003", *REPORTS[name])
        for command, flags in (("featurize", []), ("select", []), ("grid", GRID)):
            run(command, "--data", data, "--out", str(out / "grid"), *flags)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    main()
