"""The four benchmark workloads, each driven through creditshap's public API.

A workload is set up from the workload seed; `before_op(i)` prepares
operation i of the closed loop (untimed), `op()` runs it (timed) and
`check()` verifies its outputs.  The program itself always runs with seed
0: only its inputs depend on the workload seed.  See README.md for why
each workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import shutil
from pathlib import Path

import numpy as np

from creditshap import cli, pipeline, synthetic
from creditshap.features import FeatureMatrix, median_impute
from creditshap.models import FittedModel, ModelSpec, TreeEnsemble

# Input sizes: "full" is the benchmark, "toy" the seconds-long self-check.
SIZES = {
    "full": {
        "ledger_report": {"accounts": 150, "n_rounds": 3, "ledgers": 16},
        "ledger_ingest": {"accounts": 800},
        "model_grid": {"n": 300, "folds": 2},
        "explain_accounts": {"accounts": 150, "n_rounds": 10, "models": 6, "repeated_accounts": 5},
    },
    "toy": {
        "ledger_report": {"accounts": 40, "n_rounds": 2, "ledgers": 2},
        "ledger_ingest": {"accounts": 60},
        "model_grid": {"n": 120, "folds": 2},
        "explain_accounts": {"accounts": 100, "n_rounds": 2, "models": 2, "repeated_accounts": 3},
    },
}

GRID_RESAMPLERS = ["none", "smote", "borderline_smote", "svm_smote", "sqrt_balanced"]
# run_grid passes model_params only to config.model, so every family runs
# with itself as config.model and the params below.
GRID_PARAMS = {
    "full": {
        "logistic": {},
        "logistic_binned": {},
        "random_forest": {"n_trees": 5, "max_depth": 6},
        "gradient_boosting": {"n_rounds": 10},
        "mlp": {"epochs": 10},
    },
    "toy": {
        "logistic": {},
        "logistic_binned": {},
        "random_forest": {"n_trees": 2, "max_depth": 3},
        "gradient_boosting": {"n_rounds": 3},
        "mlp": {"epochs": 2},
    },
}

ADDITIVITY_TOL = 1e-9
# The workloads that fit models draw several ledgers per run ("ledgers",
# "models" above): the report's SHAP time and the cost of a single-row
# explanation depend on the fitted model (see README.md), so each run
# averages over several.
# Share of loan labels flipped in the ledgers that models are fitted on.
# The raw fixture is separable, so oblivious trees stop at a depth between
# 2 and 6 that depends on the seed; with flipped labels every tree reaches
# depth 6 and the work per operation no longer depends on the seed.
LABEL_FLIP = 0.1
# Oblivious fits without a validation split grow exactly n_rounds trees.
FIXED_ROUNDS = "model.params.validation_fraction=0"


def sub_seed(seed: int, k: int) -> int:
    """Seed of the k-th of several inputs drawn for one workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def noisy_ledger(path: Path, accounts: int, seed: int) -> Path:
    """write_ledger_fixture with LABEL_FLIP of the loan outcomes flipped."""
    synthetic.write_ledger_fixture(path, accounts, seed=seed)
    loans = path / "loans.csv"
    with open(loans, newline="") as fh:
        rows = list(csv.reader(fh))
    flip = np.random.default_rng(seed).random(len(rows) - 1) < LABEL_FLIP
    for row, flipped in zip(rows[1:], flip):
        if flipped:
            row[2] = str(1 - int(row[2]))
    with open(loans, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def no_checkpoint() -> None:
    """The default set-up checkpoint: nothing to mark."""


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    """Operations cycle through `kinds` kinds: `inputs` inputs drawn from
    the seed times the operations of one unit (one report, one ingest pass,
    one whole grid as 24 cells, one account explanation).  Metrics are per
    unit, averaged over the inputs."""

    kinds = 1
    inputs = 1
    max_ops = None  # None: the loop runs until time is up
    accounts_per_unit = 0

    def __init__(self, workdir: Path, size: str, trace: bool = False):
        self.workdir = workdir
        self.size = size
        self.trace = trace
        self.params = SIZES[size][self.name]
        self.reference = {}  # first output per kind, for determinism checks
        self.artifact_bytes = []
        self.digest = None

    def setup(self, seed: int, checkpoint=no_checkpoint) -> None:
        """Build the inputs from the seed.  A set-up made of many inputs
        calls `checkpoint()` after each, so that run.py can take the
        machine's speed at each of them."""
        raise NotImplementedError

    def before_op(self, i: int) -> None:
        """Untimed preparation of operation i."""

    def op(self):
        raise NotImplementedError

    def check(self, result):
        """Return None when the outputs are right, else what is wrong."""
        raise NotImplementedError

    def same_as_first(self, kind, value, what: str):
        first = self.reference.setdefault(kind, value)
        return None if value == first else f"{what} differs from the first operation's"


class LedgerReport(Workload):
    """`creditshap report` in-process on synthetic ledgers, default config;
    a unit is one report on each ledger."""

    name = "ledger_report"

    def setup(self, seed, checkpoint=no_checkpoint):
        self.kinds = self.inputs = self.params["ledgers"]
        self.out = self.workdir / "report"
        rounds = f"model.params.n_rounds={self.params['n_rounds']}"
        self.argvs = []
        for k in range(self.kinds):
            data = noisy_ledger(self.workdir / f"ledger{k}", self.params["accounts"], sub_seed(seed, k))
            self.argvs.append(
                ["report", "--data", str(data), "--out", str(self.out), "--seed", "0", "--set", rounds, "--set", FIXED_ROUNDS]
            )
            checkpoint()
        self.accounts_per_unit = self.params["accounts"]

    def before_op(self, i):
        self.ledger = i % self.kinds
        self.argv = self.argvs[self.ledger]
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self):
        return cli.main(self.argv)

    def check(self, rc):
        files = [p for p in self.out.iterdir() if p.is_file()]
        self.artifact_bytes.append(sum(p.stat().st_size for p in files))
        if rc != 0:
            return f"report exited with {rc}"
        if not (self.out / "summary.json").is_file():
            return "report wrote no summary.json"
        digest = digest_files(files)
        if self.ledger == 0:
            self.digest = digest
        return self.same_as_first(self.ledger, digest, f"report artifact digest of ledger {self.ledger}")


class LedgerIngest(Workload):
    """ingest -> featurize -> select -> features.csv, with no model."""

    name = "ledger_ingest"

    def setup(self, seed, checkpoint=no_checkpoint):
        self.data = self.workdir / "ledger"
        synthetic.write_ledger_fixture(self.data, self.params["accounts"], seed=seed)
        self.out = self.workdir / "ingest"
        self.out.mkdir(parents=True, exist_ok=True)
        self.csv = self.out / "features.csv"
        self.config = pipeline.PipelineConfig(data_dir=str(self.data), out_dir=str(self.out))
        self.accounts_per_unit = self.params["accounts"]

    def before_op(self, i):
        self.csv.unlink(missing_ok=True)

    def op(self):
        bundle = pipeline.ingest_stage(self.data)
        matrix = pipeline.featurize_stage(bundle)
        pruned, _ = pipeline.select_stage(matrix, self.config)
        pruned.to_csv(self.csv)
        return pruned

    def check(self, pruned):
        self.artifact_bytes.append(self.csv.stat().st_size)
        if not pruned.row_ids or not pruned.columns:
            return "selection left an empty matrix"
        self.digest = digest_files([self.csv])
        return self.same_as_first(0, self.digest, "features.csv digest")


class ModelGrid(Workload):
    """run_grid over five non-oblivious families x five resamplers, one
    cell per operation; a unit is one pass over all cells."""

    name = "model_grid"

    def setup(self, seed, checkpoint=no_checkpoint):
        n = self.params["n"]
        X, y, names = synthetic.planted_signal_dataset(n, 20, 0.111, seed=seed)
        self.matrices = {"pruned": FeatureMatrix([f"r{i}" for i in range(n)], names, X, y)}
        self.cells = []
        for family, params in GRID_PARAMS[self.size].items():
            config = pipeline.PipelineConfig(model=family, model_params=params, cv_folds=self.params["folds"])
            # one single-cell grid for each cell run_grid runs for this family
            for label in pipeline.GridSpec(models=[family], resamplers=GRID_RESAMPLERS).cells():
                _, resampler, _ = label.split("|")
                self.cells.append((pipeline.GridSpec(models=[family], resamplers=[resampler]), config))
        self.kinds = len(self.cells)
        self.ginis = {}

    def before_op(self, i):
        self.cell = i % self.kinds

    def op(self):
        grid, config = self.cells[self.cell]
        return pipeline.run_grid(grid, self.matrices, config)

    def check(self, rows):
        self.artifact_bytes.append(0)
        (row,) = rows
        if row["error"]:
            return f"grid cell {row['model']}|{row['resampling']} failed: {row['error']}"
        self.ginis[self.cell] = (row["model"], row["resampling"], row["mean_gini"])
        if len(self.ginis) == self.kinds:
            ordered = [self.ginis[k] for k in range(self.kinds)]
            self.mean_gini = float(np.mean([g for _, _, g in ordered]))
            self.digest = hashlib.sha256(repr(ordered).encode()).hexdigest()
        return self.same_as_first(self.cell, row["mean_gini"], f"Gini of {row['model']}|{row['resampling']}")


class ExplainAccounts(Workload):
    """One waterfall (SHAP + JSON + SVG) per account from a loaded model.

    A run fits one model on each ledger.  Untraced, a unit is one account
    explanation, and operations cycle over the first `repeated_accounts`
    accounts of each model's seeded order, so that each account's median
    time can be taken.  Traced, accounts are taken in seeded order, each at
    most once, one model after the other."""

    name = "explain_accounts"

    def setup(self, seed, checkpoint=no_checkpoint):
        self.n_models = self.params["models"]
        self.models = []
        rounds = f"model.params.n_rounds={self.params['n_rounds']}"
        for k in range(self.n_models):
            data = noisy_ledger(self.workdir / f"ledger{k}", self.params["accounts"], sub_seed(seed, k))
            model_dir = self.workdir / f"model{k}"
            common = ["--data", str(data), "--out", str(model_dir), "--seed", "0"]
            for argv in (["featurize", *common], ["select", *common], ["train", *common, "--set", rounds, "--set", FIXED_ROUNDS]):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"creditshap {argv[0]} failed during set-up")
            ensemble = TreeEnsemble.load(model_dir / "model.json")
            matrix = FeatureMatrix.from_csv(model_dir / "features_pruned.csv")
            _, medians = median_impute(matrix.values)
            fitted = FittedModel(ModelSpec("oblivious_boosting"), ensemble, medians)
            order = np.random.default_rng(sub_seed(seed, k)).permutation(len(matrix.row_ids))
            self.models.append((fitted, matrix, [matrix.row_ids[i] for i in order]))
            checkpoint()
        if self.trace:
            self.kinds = self.inputs = self.n_models
            self.max_ops = self.n_models * min(len(queue) for _, _, queue in self.models)
        else:
            self.kinds = self.inputs = self.n_models * self.params["repeated_accounts"]
        self.accounts_per_unit = 1
        self.out = self.workdir / "explain"

    def before_op(self, i):
        self.fitted, self.matrix, queue = self.models[i % self.n_models]
        position = i // self.n_models if self.trace else i % self.kinds // self.n_models
        self.row_id = queue[position]
        for path in self.files():  # every operation writes new files
            path.unlink(missing_ok=True)

    def files(self):
        return [self.out / f"waterfall_{self.row_id}.{ext}" for ext in ("json", "svg")]

    def op(self):
        return pipeline.explain_account(self.fitted, self.matrix, self.row_id, self.out)

    def check(self, data):
        files = self.files()
        self.artifact_bytes.append(sum(p.stat().st_size for p in files if p.is_file()))
        if not all(p.is_file() for p in files):
            return f"missing waterfall files for {self.row_id}"
        if self.digest is None:  # the first account of the first model
            self.digest = digest_files(files)
        gap = abs(data["baseline"] + sum(c["shap"] for c in data["contributions"]) - data["margin"])
        if not gap <= ADDITIVITY_TOL:
            return f"additivity gap {gap:.3e} for {self.row_id}"
        return None


WORKLOADS = {cls.name: cls for cls in (LedgerReport, LedgerIngest, ModelGrid, ExplainAccounts)}
