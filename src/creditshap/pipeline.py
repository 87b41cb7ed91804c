"""End-to-end orchestration: config, staged runs, the experiment grid and
per-account explanation artifacts.

sanity.json, top_k.json, eval.json, importance.json and summary.json carry
the config hash (of the settings, not the paths) and seed at the top level,
model.json under `stamp`; selection.json and the waterfalls carry neither.
No artifact holds a timestamp, so a rerun with the same inputs is
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import explain, plots, selection
from .features import FeatureMatrix, build_feature_matrix, drop_inactive_accounts, median_impute
from .metrics import CvResult, TrainSplit, cross_validate, roc_auc
from .models import FittedModel, ModelSpec, TreeEnsemble, classify, fit_model
from .models.ensemble import ENSEMBLE_KINDS
from .resampling import ResamplingStrategy
from .settings import check_setting
from .tables import (
    DataError,
    LedgerBundle,
    SanityReport,
    join_bundle,
    load_table,
    validate_bundle,
)


class ConfigError(Exception):
    """Invalid pipeline configuration."""


# The JSON artifacts that staged commands read back: the stage that writes
# each and the config keys its content depends on, recorded under `settings`.
SELECTION_KEYS = ("correlation_threshold", "missing_threshold", "zero_as_missing")
FIT_KEYS = ("model", "model_params", "resampling", "k_neighbors", "seed", "feature_set", "top_k", *SELECTION_KEYS)
ARTIFACTS = {"selection.json": ("select", SELECTION_KEYS), "top_k.json": ("select", (*SELECTION_KEYS, "top_k", "seed")),
             "model.json": ("train", FIT_KEYS)}


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
        try:  # the strategy checks resampling, k_neighbors and seed; model parameter values wait for train
            ModelSpec(self.model, self.model_params)
            ResamplingStrategy(self.resampling, self.k_neighbors, self.seed)
            check_setting("correlation_threshold", self.correlation_threshold, numbers.Real, least=0, most=1)
            check_setting("missing_threshold", self.missing_threshold, numbers.Real, least=0, most=1)
            check_setting("top_k", self.top_k, numbers.Integral, least=1)
            check_setting("cv_folds", self.cv_folds, numbers.Integral, least=2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.feature_set not in ("pruned", "top_k"):
            raise ConfigError(f"feature_set must be pruned or top_k, not {self.feature_set!r}")
        if not isinstance(self.zero_as_missing, bool):
            raise ConfigError(f"zero_as_missing must be true or false, not {self.zero_as_missing!r}")

    def hash(self) -> str:
        settings = {k: v for k, v in asdict(self).items() if k not in ("data_dir", "out_dir")}
        blob = json.dumps(settings, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def settings(self, artifact: str) -> dict:
        """This config's values of the keys that `artifact` depends on."""
        return {k: getattr(self, k) for k in ARTIFACTS[artifact][1]}

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
        if not isinstance(raw, dict):
            raise ConfigError(f"{path} must hold a JSON object of settings, not {type(raw).__name__}")
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

    return cross_validate(fit_and_score, matrix.values, matrix.y, k=k, seed=seed)


def ingest_stage(data_dir) -> LedgerBundle:
    data = Path(data_dir)
    clients = load_table(data / "clients.csv", "clients")
    accounts = load_table(data / "accounts.csv", "accounts")
    transactions = load_table(data / "transactions.csv", "transactions")
    loans = load_table(data / "loans.csv", "loans")
    return join_bundle(clients, accounts, transactions, loans)


def featurize_stage(bundle) -> FeatureMatrix:
    return drop_inactive_accounts(build_feature_matrix(bundle))


def select_stage(matrix: FeatureMatrix, config: PipelineConfig):
    """Constant, missing and correlation pruning, in one report.  A column both
    constant and missing-heavy is reported constant; the correlation scan sees
    the columns the first two checks keep."""
    report = selection.SelectionReport(list(matrix.columns), selection.drop_constant(matrix), config.settings("selection.json"))
    for col, reason in selection.prune_missing(matrix, config.missing_threshold, config.zero_as_missing).items():
        report.removed.setdefault(col, reason)
    pruned, correlated = selection.correlation_prune(matrix.subset_columns(report.surviving), config.correlation_threshold)
    report.removed.update(correlated.removed)
    return pruned, report


def shap_reduce_stage(matrix: FeatureMatrix, config: PipelineConfig):
    """(top-k matrix, ranking): fit the benchmark oblivious booster on the
    pruned matrix, rank its columns by mean |SHAP| and keep the first top_k.
    A top_k above the pruned column count is a ConfigError, before the fit."""
    if config.top_k > len(matrix.columns):
        raise ConfigError(f"top_k={config.top_k} exceeds the {len(matrix.columns)} columns left after pruning")
    spec = ModelSpec("oblivious_boosting", {"n_rounds": 150})
    fitted = fit_model(spec, TrainSplit(matrix.values, matrix.y, matrix.columns), seed=config.seed)
    phi = explain.shap_matrix(fitted.model, fitted.impute(matrix.values))
    ranking = explain.global_importance(matrix.columns, phi)
    return selection.select_top_k_by_shap(matrix, ranking, config.top_k), ranking


def _json_text(o, pad: str = "\n") -> str:
    """o as `json.dumps(o, indent=2, sort_keys=True)` writes it, nested at pad
    (a newline and the enclosing indent); a key that is not a str raises
    TypeError.  The tests run in json's order with the float test moved up,
    which changes no result: only a bool passes two of them, and the
    identity tests take it before the int test."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join(_item_texts(o, inner)) + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


_NUMBER_KINDS = {float, int, type(None)}
_NULL = {"None": "null"}


def _item_texts(o, pad: str) -> list:
    """The `_json_text` of each item of the non-empty sequence o, at pad,
    a column at a time where the items allow it.  Items that are all exact
    str, or all exact float, int or None, take one map: a float's repr is
    json's text unless it is nan or ±inf, and among these reprs only those
    and None's "None" hold an "n", so one count finds them.  Dicts sharing
    one set of str keys, and lists or tuples of one length, are joined from
    one column per key or position.  Anything else (bools, numpy scalars,
    NaN, mixed containers, non-str keys) goes item by item."""
    kinds = set(map(type, o))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, o))
    if kinds <= _NUMBER_KINDS:
        texts = list(map(repr, o))
        nulls = o.count(None) if type(None) in kinds else 0
        if "".join(texts).count("n") == nulls:
            return list(map(_NULL.get, texts, texts)) if nulls else texts
    elif kinds == {dict}:
        keys = o[0].keys()
        if keys and set(map(type, keys)) == {str} and all(map(keys.__eq__, map(dict.keys, o))):
            names = sorted(keys)
            heads = [encode_basestring_ascii(k) + ": " for k in names]
            return _shaped_texts("{}", heads, [list(map(itemgetter(k), o)) for k in names], pad)
    elif kinds <= {list, tuple}:
        width = len(o[0])
        if width and all(map(width.__eq__, map(len, o))):
            return _shaped_texts("[]", [""] * width, list(zip(*o)), pad)
    return [_json_text(v, pad) for v in o]


def _shaped_texts(brackets: str, heads: list, columns: list, pad: str) -> list:
    """Items of one shape, at pad, from their columns: each item joins its
    brackets, and a head and the `_item_texts` of each column."""
    inner = pad + "  "
    seps = [brackets[0] + inner] + ["," + inner] * (len(heads) - 1)
    parts = []
    for sep, head, column in zip(seps, heads, columns):
        parts += (repeat(sep + head), _item_texts(column, inner))
    return list(map("".join, zip(*parts, repeat(pad + brackets[1]))))


def _write_json(path, payload):
    """payload as `json.dump(payload, indent=2, sort_keys=True)` writes it, and a newline."""
    with open(path, "w") as fh:
        fh.write(_json_text(payload) + "\n")


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
        run.working, ranking = shap_reduce_stage(pruned, run.config)
        run.write_json("top_k.json", {"ranking": ranking, "kept": run.working.columns, "settings": run.config.settings("top_k.json")})


def read_artifact(config: PipelineConfig, name: str) -> tuple[Path, dict]:
    """(path, content) of the JSON object `name` in out_dir, whose `settings` must be this config's
    `settings(name)` as JSON reads them back; a DataError names the file and each key that differs."""
    stage, path = ARTIFACTS[name][0], Path(config.out_dir) / name
    if not path.exists():
        raise DataError(f"{path} not found; run the {stage} stage first")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path}: not a JSON object")
    recorded, wanted = data.get("settings", {}), json.loads(json.dumps(config.settings(name)))
    if not isinstance(recorded, dict):
        raise DataError(f"{path}: settings is not a JSON object; rerun {stage}")
    keys = {**wanted, **recorded}  # wanted's order, then any key only recorded
    differs = [f"{k}={recorded.get(k)!r}, not {wanted.get(k)!r}" for k in keys if recorded.get(k) != wanted.get(k)]
    if differs:
        raise DataError(f"{path} has {'; '.join(differs)}; rerun {stage}")
    return path, data


def load_model(config: PipelineConfig, working: FeatureMatrix) -> FittedModel:
    """train's tree ensemble for this config from model.json, with the medians of `working` that it was fitted on."""
    path, data = read_artifact(config, "model.json")
    ensemble = TreeEnsemble.load(path, data)
    if ensemble.feature_names != working.columns:
        raise DataError(f"{path} was fitted on other columns ({ensemble.n_features}) than the {len(working.columns)} selected; rerun train")
    return FittedModel(ModelSpec(config.model, config.model_params), ensemble, median_impute(working.values)[1])


def fit_final(run: Run) -> FittedModel:
    """The configured model fitted on every working row."""
    split = TrainSplit(run.working.values, run.working.y, run.working.columns)
    return fit_model(ModelSpec(run.config.model, run.config.model_params), split, run.strategy, run.config.seed)


def run_train(run: Run) -> None:
    run.fitted = fit_final(run)
    path, settings = run.out / "model.json", run.config.settings("model.json")
    if isinstance(run.fitted.model, TreeEnsemble):
        _write_json(path, {**run.fitted.model.to_dict(), "settings": settings, "stamp": run.config.stamp()})
    else:  # only tree ensembles are saved; an earlier train's must not outlive this fit
        path.unlink(missing_ok=True)


def run_evaluate(run: Run) -> None:
    config = run.config
    if run.fitted is None:  # the staged evaluate: train's model, which only tree families save
        run.fitted = load_model(config, run.working) if config.model in ENSEMBLE_KINDS else fit_final(run)
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
    """Global importance and summary data from one SHAP matrix and its one
    ranking over the first 50 rows; models other than tree ensembles have none."""
    model = run.fitted.model
    if not isinstance(model, TreeEnsemble):
        return
    X = run.fitted.impute(run.working.values[:50])
    phi = explain.shap_matrix(model, X)
    ranking = explain.global_importance(model.feature_names, phi)
    run.write_json("importance.json", {"ranking": ranking})
    (run.out / "importance.svg").write_text(plots.importance_bar_svg(ranking))
    run.write_json("summary.json", explain.summary_data(model.feature_names, X, phi, ranking))


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
    except (ConfigError, DataError, ValueError) as exc:
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


def explain_account(fitted: FittedModel, matrix: FeatureMatrix, row_id: str, out_dir):
    """Waterfall artifact for one row, labeled TP/TN/FP/FN."""
    if row_id not in matrix.row_ids:
        raise DataError(f"unknown row id {row_id!r}")
    if not isinstance(fitted.model, TreeEnsemble):
        raise ValueError("per-account explanation targets tree ensembles")
    i = matrix.row_ids.index(row_id)
    x = fitted.impute(matrix.values[i : i + 1])[0]
    data = explain.waterfall_data(fitted.model, x)
    pred = int(classify(np.array([data["probability"]]))[0])
    truth = int(matrix.y[i])
    label = {(1, 1): "true positive", (0, 0): "true negative", (1, 0): "false positive", (0, 1): "false negative"}[(pred, truth)]
    data.update({"row_id": row_id, "true_label": truth, "predicted_label": pred, "case": label})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / f"waterfall_{row_id}.json", data)
    with open(out / f"waterfall_{row_id}.svg", "w") as fh:
        fh.write(plots.waterfall_svg(data))
    return data
