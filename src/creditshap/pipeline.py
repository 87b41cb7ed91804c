"""End-to-end orchestration: config, staged runs, the experiment grid and
per-account explanation artifacts.

Every artifact embeds the config hash and seed so a rerun with the same
inputs is byte-identical (timestamps are deliberately absent).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import explain, plots, selection
from .features import FeatureMatrix, build_feature_matrix, drop_inactive_accounts
from .metrics import CvResult, TrainSplit, cross_validate, roc_auc
from .models import FittedModel, ModelSpec, TreeEnsemble, classify, fit_model
from .resampling import ResamplingStrategy
from .tables import (
    DataError,
    LedgerBundle,
    SanityReport,
    join_bundle,
    load_table,
    reconstruct_bundle_balances,
    validate_bundle,
)


class ConfigError(Exception):
    """Invalid pipeline configuration."""


@dataclass
class PipelineConfig:
    data_dir: str = "."
    out_dir: str = "out"
    seed: int = 0
    correlation_threshold: float = 0.95
    missing_threshold: float = 0.5
    zero_as_missing: bool = False
    resampling: str = "none"
    k_neighbors: int = 5
    model: str = "oblivious_boosting"
    model_params: dict = field(default_factory=dict)
    feature_set: str = "pruned"  # pruned | top_k
    top_k: int = 20
    cv_folds: int = 5

    def __post_init__(self):
        from .models import MODEL_FAMILIES
        from .resampling import STRATEGY_KINDS

        if self.model not in MODEL_FAMILIES:
            raise ConfigError(f"unknown model family {self.model!r}")
        if self.resampling not in STRATEGY_KINDS:
            raise ConfigError(f"unknown resampling strategy {self.resampling!r}")
        if self.feature_set not in ("pruned", "top_k"):
            raise ConfigError(f"feature_set must be pruned or top_k, not {self.feature_set!r}")

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def selection_settings(self) -> dict:
        """The keys that decide which columns select keeps."""
        return {k: getattr(self, k) for k in ("correlation_threshold", "missing_threshold", "zero_as_missing")}

    def stamp(self) -> dict:
        """The config hash and seed that every stage artifact embeds."""
        return {"config_hash": self.hash(), "seed": self.seed}

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "PipelineConfig":
        """JSON config with flat dotted keys; explicit overrides win."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"missing config file {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON in {path}: {exc}") from exc
        raw.update(overrides or {})
        return cls.from_flat(raw)

    @classmethod
    def from_flat(cls, raw: dict) -> "PipelineConfig":
        kwargs = {}
        params = {}
        for key, value in raw.items():
            if key.startswith("model.params."):
                params[key.split(".", 2)[2]] = value
            elif key in cls.__dataclass_fields__:
                kwargs[key] = value
            else:
                raise ConfigError(f"unknown config key {key!r}")
        if params:
            kwargs.setdefault("model_params", {}).update(params)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def cell_seed(global_seed: int, label: str) -> int:
    """Per-cell seed independent of scheduling order."""
    digest = hashlib.sha256(f"{global_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def evaluate_cell(spec, strategy, matrix: FeatureMatrix, k: int, seed: int) -> CvResult:
    """k-fold CV Gini; each fold fits on its training split only."""

    def fit_and_score(split: TrainSplit, X_test, y_test):
        return fit_model(spec, split, strategy, seed).predict_proba(X_test)

    result = cross_validate(fit_and_score, matrix.values, matrix.y, k=k, seed=seed)
    result.config.update({"model": spec.family, "resampling": strategy.kind})
    return result


def ingest_stage(data_dir) -> LedgerBundle:
    data = Path(data_dir)
    clients = load_table(data / "clients.csv", "clients")
    accounts = load_table(data / "accounts.csv", "accounts")
    transactions = load_table(data / "transactions.csv", "transactions")
    loans = load_table(data / "loans.csv", "loans")
    bundle = join_bundle(clients, accounts, transactions, loans)
    reconstruct_bundle_balances(bundle)
    return bundle


def featurize_stage(bundle) -> FeatureMatrix:
    return drop_inactive_accounts(build_feature_matrix(bundle))


def select_stage(matrix: FeatureMatrix, config: PipelineConfig):
    """Constant, missing and correlation pruning; merged report."""
    m1, r1 = selection.drop_constant(matrix)
    m2, r2 = selection.prune_missing(m1, config.missing_threshold, config.zero_as_missing)
    m3, r3 = selection.correlation_prune(m2, config.correlation_threshold)
    merged = selection.SelectionReport(list(matrix.columns), settings=config.selection_settings())
    for rep in (r1, r2, r3):
        merged.removed.update(rep.removed)
    merged.finish()
    return m3, merged


def shap_reduce_stage(matrix: FeatureMatrix, config: PipelineConfig):
    """Fit the benchmark oblivious booster on the pruned matrix, rank by
    mean |SHAP| and keep the top-k columns."""
    spec = ModelSpec("oblivious_boosting", {"n_rounds": 150})
    fitted = fit_model(spec, TrainSplit(matrix.values, matrix.y, matrix.columns), seed=config.seed)
    phi = explain.shap_matrix(fitted.model, fitted.impute(matrix.values))
    imp = explain.global_importance(matrix.columns, phi)
    reduced, report = selection.select_top_k_by_shap(matrix, imp.as_dict(), config.top_k)
    return reduced, report, imp


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class PipelineStageError(Exception):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class Run:
    """What each stage hands on to the next.  A staged subcommand fills in
    the inputs of its stage from the artifacts already in out_dir."""

    config: PipelineConfig
    bundle: LedgerBundle | None = None
    sanity: SanityReport | None = None
    features: FeatureMatrix | None = None  # every KPI column
    selection: selection.SelectionReport | None = None
    working: FeatureMatrix | None = None  # the columns the model sees
    fitted: FittedModel | None = None
    cv: CvResult | None = None

    @property
    def out(self) -> Path:
        return Path(self.config.out_dir)

    @property
    def strategy(self) -> ResamplingStrategy:
        return ResamplingStrategy(self.config.resampling, self.config.k_neighbors, self.config.seed)

    def write_json(self, name: str, payload: dict) -> None:
        """An artifact stamped with the config hash and seed."""
        _write_json(self.out / name, {**self.config.stamp(), **payload})


def run_ingest(run: Run) -> None:
    run.bundle = ingest_stage(run.config.data_dir)
    run.sanity = validate_bundle(run.bundle)
    run.write_json("sanity.json", asdict(run.sanity))


def run_featurize(run: Run) -> None:
    run.features = featurize_stage(run.bundle)
    run.features.to_csv(run.out / "features.csv")


def run_select(run: Run) -> None:
    pruned, run.selection = select_stage(run.features, run.config)
    run.selection.to_json(run.out / "selection.json")
    pruned.to_csv(run.out / "features_pruned.csv")
    run.working = pruned
    if run.config.feature_set == "top_k":
        run.working, _, imp = shap_reduce_stage(pruned, run.config)
        run.write_json("top_k.json", {"ranking": imp.ranking(), "kept": run.working.columns})


def fit_final(run: Run) -> None:
    """Fit the configured model on every working row."""
    split = TrainSplit(run.working.values, run.working.y, run.working.columns)
    spec = ModelSpec(run.config.model, run.config.model_params)
    run.fitted = fit_model(spec, split, run.strategy, run.config.seed)


def run_train(run: Run) -> None:
    fit_final(run)
    if isinstance(run.fitted.model, TreeEnsemble):
        _write_json(run.out / "model.json", {**run.fitted.model.to_dict(), "stamp": run.config.stamp()})


def run_evaluate(run: Run) -> None:
    config = run.config
    if run.fitted is None:  # the staged evaluate: fit the final model as train does
        fit_final(run)
    run.cv = evaluate_cell(run.fitted.spec, run.strategy, run.working, config.cv_folds, config.seed)
    roc = roc_auc(run.working.y, run.fitted.predict_proba(run.working.values))
    run.write_json(
        "eval.json",
        {
            "model": config.model,
            "resampling": config.resampling,
            "feature_set": config.feature_set,
            "folds": run.cv.fold_ginis,
            "mean": run.cv.mean,
            "std": run.cv.std,
            "train_auc": roc.auc,
            "train_gini": roc.gini,
            "roc": roc.points(),
        },
    )


def run_explain(run: Run) -> None:
    """Global importance and summary data from one SHAP matrix over the
    first 50 rows; models other than tree ensembles have none."""
    model = run.fitted.model
    if not isinstance(model, TreeEnsemble):
        return
    X = run.fitted.impute(run.working.values[:50])
    phi = explain.shap_matrix(model, X)
    ranking = explain.global_importance(model.feature_names, phi).ranking()
    run.write_json("importance.json", {"ranking": ranking})
    (run.out / "importance.svg").write_text(plots.importance_bar_svg(ranking))
    run.write_json("summary.json", explain.summary_data(model.feature_names, X, phi))


# The stages of `report`, in order.  Each reads what the stages before it
# left in the Run; a staged subcommand loads those inputs from out_dir.
STAGES = {
    "ingest": run_ingest,
    "featurize": run_featurize,
    "select": run_select,
    "train": run_train,
    "evaluate": run_evaluate,
    "explain": run_explain,
}


def run_stage(name: str, run: Run) -> None:
    """Run one stage, writing its artifacts under out_dir.  A failure leaves
    `<name>.partial` there and raises PipelineStageError."""
    run.out.mkdir(parents=True, exist_ok=True)
    (run.out / f"{name}.partial").unlink(missing_ok=True)
    try:
        STAGES[name](run)
    except (DataError, ValueError) as exc:
        (run.out / f"{name}.partial").write_text(f"stage {name} failed: {exc}\n")
        raise PipelineStageError(name, exc) from exc


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage, writing artifacts under config.out_dir."""
    run = Run(config)
    for name in STAGES:
        run_stage(name, run)
    return {"out_dir": str(run.out), **config.stamp()}


@dataclass
class GridSpec:
    models: list[str] = field(
        default_factory=lambda: ["logistic", "oblivious_boosting"]
    )
    resamplers: list[str] = field(default_factory=lambda: ["none", "smote"])
    feature_sets: list[str] = field(default_factory=lambda: ["pruned"])

    def __post_init__(self):
        if next(self.cells(), None) is None:
            raise ConfigError(f"the grid has no cells: {self} (random_forest skips class-weight strategies)")

    def cells(self):
        # class-weight strategies only pair with weighted-loss models
        for fs in self.feature_sets:
            for model in self.models:
                for res in self.resamplers:
                    if res in ("class_weight", "sqrt_balanced") and model == "random_forest":
                        continue
                    yield f"{model}|{res}|{fs}"


def run_grid(grid: GridSpec, matrices: dict[str, FeatureMatrix], config: PipelineConfig, out_path=None):
    """One row per (model, resampler, feature_set) cell: mean Gini (std)."""
    rows = []
    for label in grid.cells():
        model, res, fs = label.split("|")
        seed = cell_seed(config.seed, label)
        row = {"model": model, "resampling": res, "feature_set": fs}
        try:
            spec = ModelSpec(model, config.model_params if model == config.model else {})
            strategy = ResamplingStrategy(res, config.k_neighbors, seed)
            cv = evaluate_cell(spec, strategy, matrices[fs], config.cv_folds, seed)
            row.update(
                mean_gini=round(cv.mean, 6), std_gini=round(cv.std, 6), formatted=cv.formatted(), error=""
            )
        except Exception as exc:  # cell failure must not abort the grid
            row.update(mean_gini="", std_gini="", formatted="", error=str(exc))
        rows.append(row)
    if out_path is not None:
        import csv as _csv

        with open(out_path, "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return rows


def format_grid(rows) -> str:
    head = f"{'model':20s} {'resampling':18s} {'features':8s} gini"
    lines = [head, "-" * len(head)]
    for r in rows:
        cell = r["formatted"] or f"ERROR: {r['error']}"
        lines.append(f"{r['model']:20s} {r['resampling']:18s} {r['feature_set']:8s} {cell}")
    return "\n".join(lines)


def explain_account(fitted: FittedModel, matrix: FeatureMatrix, row_id: str, out_dir, threshold: float = 0.5):
    """Waterfall artifact for one row, labeled TP/TN/FP/FN."""
    if row_id not in matrix.row_ids:
        raise DataError(f"unknown row id {row_id!r}")
    if not isinstance(fitted.model, TreeEnsemble):
        raise ValueError("per-account explanation targets tree ensembles")
    i = matrix.row_ids.index(row_id)
    x = fitted.impute(matrix.values[i : i + 1])[0]
    p = float(fitted.predict_proba(x[None, :])[0])
    pred = int(classify(np.array([p]), threshold)[0])
    truth = int(matrix.y[i])
    label = {(1, 1): "true positive", (0, 0): "true negative", (1, 0): "false positive", (0, 1): "false negative"}[(pred, truth)]
    data = explain.waterfall_data(fitted.model, x)
    data.update({"row_id": row_id, "true_label": truth, "predicted_label": pred, "case": label})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / f"waterfall_{row_id}.json", data)
    with open(out / f"waterfall_{row_id}.svg", "w") as fh:
        fh.write(plots.waterfall_svg(data))
    return data
