"""Command-line harness.

Subcommands: ingest, featurize, select, train, evaluate, grid, explain,
report.  `report` runs every stage of `pipeline.STAGES`; each staged
subcommand loads its stage's inputs from --out and runs that one stage.
Exit codes: 0 ok, 2 config error, 3 data error, 4 compute error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import pipeline
from .features import FeatureMatrix, median_impute
from .models import FittedModel, ModelSpec, TreeEnsemble
from .pipeline import ConfigError, GridSpec, PipelineConfig, PipelineStageError
from .tables import DataError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4


def _load_config(args) -> PipelineConfig:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass  # keep raw string
        overrides[key] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if getattr(args, "data", None) is not None:
        overrides["data_dir"] = args.data
    if args.config:
        return PipelineConfig.from_file(args.config, overrides)
    return PipelineConfig.from_flat(overrides)


def _artifact(config: PipelineConfig, name: str, stage: str) -> Path:
    path = Path(config.out_dir) / name
    if not path.exists():
        raise DataError(f"{path} not found; run the {stage} stage first")
    return path


def _json_field(config: PipelineConfig, name: str, stage: str, key: str, kind: type):
    """(path, entry `key`) of the JSON object `name`; an absent entry reads
    as kind(), and one that is not a kind (dict or list) is a data error."""
    path = _artifact(config, name, stage)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path}: not a JSON object")
    value = data.get(key, kind())
    if not isinstance(value, kind):
        raise DataError(f"{path}: {key} is not a JSON {'object' if kind is dict else 'array'}; rerun {stage}")
    return path, value


def _load_matrix(config: PipelineConfig) -> FeatureMatrix:
    return FeatureMatrix.from_csv(_artifact(config, "features.csv", "featurize"))


def _working_matrix(config: PipelineConfig) -> FeatureMatrix:
    """features_pruned.csv, narrowed to top_k.json's columns for top_k; select
    must have run with this config's selection settings."""
    matrix = FeatureMatrix.from_csv(_artifact(config, "features_pruned.csv", "select"))
    _, recorded = _json_field(config, "selection.json", "select", "settings", dict)
    for key, value in config.selection_settings().items():
        if recorded.get(key) != value:
            raise DataError(f"selection.json has {key}={recorded.get(key)!r}, not {value!r}; rerun select")
    if config.feature_set == "top_k":
        path, kept = _json_field(config, "top_k.json", "select", "kept", list)
        if len(kept) != config.top_k:
            raise DataError(f"top_k.json keeps {len(kept)} columns, not top_k={config.top_k}; rerun select")
        unknown = [name for name in kept if not isinstance(name, str) or name not in matrix.columns]
        if unknown:
            raise DataError(f"{path} keeps {unknown[0]!r}, not a column of features_pruned.csv; rerun select")
        matrix = matrix.subset_columns(kept)
    return matrix


def cmd_ingest(config: PipelineConfig, args) -> int:
    run = pipeline.Run(config)
    pipeline.run_stage("ingest", run)
    print(f"{run.sanity.n_accounts} accounts, {run.sanity.n_labeled} labeled")
    for w in run.sanity.warnings:
        print(f"warning: {w}")
    return EXIT_OK


def cmd_featurize(config: PipelineConfig, args) -> int:
    run = pipeline.Run(config, bundle=pipeline.ingest_stage(config.data_dir))
    pipeline.run_stage("featurize", run)
    print(f"wrote {len(run.features.row_ids)} rows x {len(run.features.columns)} KPI columns")
    return EXIT_OK


def cmd_select(config: PipelineConfig, args) -> int:
    run = pipeline.Run(config, features=_load_matrix(config))
    pipeline.run_stage("select", run)
    print(run.selection.table())
    return EXIT_OK


def cmd_train(config: PipelineConfig, args) -> int:
    run = pipeline.Run(config, working=_working_matrix(config))
    pipeline.run_stage("train", run)
    if isinstance(run.fitted.model, TreeEnsemble):
        print(f"saved {config.model} with {len(run.fitted.model.trees)} trees")
    else:
        print(f"fitted {config.model} (non-tree models are not serialized)")
    return EXIT_OK


def cmd_evaluate(config: PipelineConfig, args) -> int:
    run = pipeline.Run(config, working=_working_matrix(config))
    pipeline.run_stage("evaluate", run)
    print(f"{config.model} x {config.resampling}: gini {run.cv.formatted()}")
    return EXIT_OK


def cmd_grid(config: PipelineConfig, args) -> int:
    top = f"top_{config.top_k}"
    feature_sets = [top if f == "top_k" else f for f in (args.feature_sets or "pruned").split(",")]
    for name in feature_sets:
        if name not in ("pruned", top):
            raise ConfigError(f"unknown feature set {name!r}; choose from pruned, top_k ({top})")
    grid = GridSpec(
        models=args.models.split(",") if args.models else ["logistic", "oblivious_boosting"],
        resamplers=args.resamplers.split(",") if args.resamplers else ["none", "smote"],
        feature_sets=feature_sets,
    )
    matrix, _ = pipeline.select_stage(_load_matrix(config), config)
    matrices = {"pruned": matrix}
    if top in feature_sets:
        matrices[top], _, _ = pipeline.shap_reduce_stage(matrix, config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = pipeline.run_grid(grid, matrices, config, out / "grid.csv")
    print(pipeline.format_grid(rows))
    return EXIT_OK


def cmd_explain(config: PipelineConfig, args) -> int:
    matrix = _working_matrix(config)
    path = _artifact(config, "model.json", "train")
    ensemble = TreeEnsemble.load(path)
    if ensemble.kind != config.model:
        raise DataError(f"{path} has kind {ensemble.kind}, not the configured model {config.model}; rerun train")
    if ensemble.feature_names != matrix.columns:
        raise DataError(
            f"{path} was fitted on other columns ({ensemble.n_features}) than the {len(matrix.columns)} this config selects; rerun train"
        )
    _, medians = median_impute(matrix.values)
    fitted = FittedModel(ModelSpec(config.model), ensemble, medians)
    row_id = args.row or matrix.row_ids[0]
    data = pipeline.explain_account(fitted, matrix, row_id, config.out_dir)
    print(f"{row_id}: p(bad) = {data['probability']:.3f} -> {data['case']}")
    return EXIT_OK


def cmd_report(config: PipelineConfig, args) -> int:
    result = pipeline.run_pipeline(config)
    print(f"artifacts in {result['out_dir']} (config {result['config_hash']})")
    return EXIT_OK


COMMANDS = {
    "ingest": cmd_ingest,
    "featurize": cmd_featurize,
    "select": cmd_select,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "grid": cmd_grid,
    "explain": cmd_explain,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="creditshap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file with flat dotted keys")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--data", default=None, help="directory holding the four CSV tables")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
        if name == "grid":
            p.add_argument("--models", default=None, help="comma list of model families")
            p.add_argument("--resamplers", default=None, help="comma list of strategies")
            p.add_argument("--feature-sets", dest="feature_sets", default=None)
        if name == "explain":
            p.add_argument("--row", default=None, help="row id to explain")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](_load_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PipelineStageError as exc:
        code = EXIT_DATA if isinstance(exc.cause, DataError) else EXIT_COMPUTE
        print(f"{exc}", file=sys.stderr)
        return code
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
