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
from .features import FeatureMatrix
from .pipeline import ENSEMBLE_KINDS, ConfigError, GridSpec, PipelineConfig, PipelineStageError
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
    for key, value in (("seed", args.seed), ("out_dir", args.out), ("data_dir", args.data)):
        if value is not None:
            overrides[key] = value
    if args.config:
        return PipelineConfig.from_file(args.config, overrides)
    return PipelineConfig.from_flat(overrides)


def _working_matrix(config: PipelineConfig) -> FeatureMatrix:
    """features_pruned.csv, narrowed to top_k.json's columns for top_k; select
    must have run with this config's settings."""
    pipeline.read_artifact(config, "selection.json")
    matrix = FeatureMatrix.from_csv(Path(config.out_dir) / "features_pruned.csv")
    if config.feature_set == "top_k":
        path, data = pipeline.read_artifact(config, "top_k.json")
        kept = data.get("kept")
        if not isinstance(kept, list):
            raise DataError(f"{path}: kept is not a JSON array; rerun select")
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
    run = pipeline.Run(config, features=FeatureMatrix.from_csv(Path(config.out_dir) / "features.csv"))
    pipeline.run_stage("select", run)
    print(run.selection.table())
    return EXIT_OK


def cmd_train(config: PipelineConfig, args) -> int:
    run = pipeline.Run(config, working=_working_matrix(config))
    pipeline.run_stage("train", run)
    if config.model in ENSEMBLE_KINDS:
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
    lists = {key: getattr(args, key).split(",") for key in ("models", "resamplers") if getattr(args, key)}
    grid = GridSpec(**lists, feature_sets=feature_sets)  # GridSpec's defaults for the lists not given
    matrix, _ = pipeline.select_stage(FeatureMatrix.from_csv(Path(config.out_dir) / "features.csv"), config)
    matrices = {"pruned": matrix}
    if top in feature_sets:
        matrices[top], _ = pipeline.shap_reduce_stage(matrix, config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = pipeline.run_grid(grid, matrices, config, out / "grid.csv")
    print(pipeline.format_grid(rows))
    return EXIT_OK


def cmd_explain(config: PipelineConfig, args) -> int:
    if config.model not in ENSEMBLE_KINDS:
        raise ConfigError(f"explain needs a tree ensemble model ({', '.join(ENSEMBLE_KINDS)}), not {config.model}")
    matrix = _working_matrix(config)
    fitted = pipeline.load_model(config, matrix)
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
        code = EXIT_DATA if isinstance(exc.cause, DataError) else EXIT_CONFIG if isinstance(exc.cause, ConfigError) else EXIT_COMPUTE
        print(f"{exc}", file=sys.stderr)
        return code
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
