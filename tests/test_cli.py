import csv
import json
import shutil
from pathlib import Path

import pytest

from creditshap import pipeline
from creditshap.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from creditshap.models import ModelSpec
from creditshap.pipeline import PipelineConfig
from creditshap.resampling import ResamplingStrategy
from creditshap.synthetic import write_ledger_fixture


@pytest.fixture(scope="module")
def ledger_dir(tmp_path_factory):
    return write_ledger_fixture(tmp_path_factory.mktemp("ledger"), n_accounts=50, seed=0)


def run(*argv):
    return main(list(argv))


class TestStagedFlow:
    def test_ingest_featurize_select_train_evaluate_explain(self, ledger_dir, tmp_path):
        out = str(tmp_path / "out")
        common = ["--data", str(ledger_dir), "--out", out, "--seed", "7"]
        assert run("ingest", *common) == EXIT_OK
        assert (Path(out) / "sanity.json").exists()

        assert run("featurize", *common) == EXIT_OK
        with open(Path(out) / "features.csv") as fh:
            header = next(csv.reader(fh))
        assert len(header) == 108  # row_id + 106 KPIs + performance

        assert run("select", *common) == EXIT_OK
        selection = json.loads((Path(out) / "selection.json").read_text())
        assert selection["surviving"]
        assert selection["settings"] == {"correlation_threshold": 0.95, "missing_threshold": 0.5, "zero_as_missing": False}

        fast = ["--set", 'model.params.n_rounds=40', "--set", "cv_folds=3"]
        assert run("train", *common, *fast) == EXIT_OK
        model = json.loads((Path(out) / "model.json").read_text())
        assert model["kind"] == "oblivious_boosting"
        assert model["trees"]

        assert run("evaluate", *common, *fast) == EXIT_OK
        ev = json.loads((Path(out) / "eval.json").read_text())
        assert len(ev["folds"]) == 3
        assert -1.0 <= ev["mean"] <= 1.0

        assert run("explain", *common, *fast, "--row", "A0003") == EXIT_OK
        wf = json.loads((Path(out) / "waterfall_A0003.json").read_text())
        assert wf["case"] in ("true positive", "true negative", "false positive", "false negative")
        assert (Path(out) / "waterfall_A0003.svg").exists()
        total = wf["baseline"] + sum(c["shap"] for c in wf["contributions"])
        assert abs(total - wf["margin"]) < 1e-8

    def test_grid_writes_csv(self, ledger_dir, tmp_path):
        out = str(tmp_path / "out")
        common = ["--data", str(ledger_dir), "--out", out]
        assert run("featurize", *common) == EXIT_OK
        rc = run(
            "grid", *common, "--set", "cv_folds=3",
            "--models", "logistic,oblivious_boosting",
            "--resamplers", "none,undersample",
            "--set", 'model.params.n_rounds=30',
        )
        assert rc == EXIT_OK
        with open(Path(out) / "grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(r["error"] == "" for r in rows)

    def test_grid_labels_top_k_rows_with_top_k(self, ledger_dir, tmp_path, capsys):
        common = ["--data", str(ledger_dir), "--out", str(tmp_path / "out")]
        assert run("featurize", *common) == EXIT_OK
        rc = run(
            "grid", *common, "--set", "cv_folds=3", "--set", "top_k=5",
            "--models", "logistic", "--resamplers", "none", "--feature-sets", "pruned,top_k",
        )
        assert rc == EXIT_OK
        with open(tmp_path / "out" / "grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["feature_set"] for r in rows] == ["pruned", "top_5"]
        assert all(r["error"] == "" for r in rows)
        capsys.readouterr()
        rc = run("grid", *common, "--set", "top_k=5", "--models", "logistic", "--feature-sets", "pruned,top_20")
        assert rc == EXIT_CONFIG
        assert "unknown feature set 'top_20'; choose from pruned, top_k (top_5)" in capsys.readouterr().err

    def test_grid_csv_with_failing_cell(self, ledger_dir, tmp_path):
        matrix, _ = pipeline.select_stage(pipeline.featurize_stage(pipeline.ingest_stage(ledger_dir)), PipelineConfig())
        config = PipelineConfig(cv_folds=3)
        grid = pipeline.GridSpec(models=["logistic", "no_such_model"], resamplers=["none"])
        path = tmp_path / "grid.csv"
        pipeline.run_grid(grid, {"pruned": matrix}, config, path)
        seed = pipeline.cell_seed(config.seed, "logistic|none|pruned")
        cv = pipeline.evaluate_cell(ModelSpec("logistic"), ResamplingStrategy("none", 5, seed), matrix, 3, seed)
        assert path.read_bytes().decode() == (
            "model,resampling,feature_set,mean_gini,std_gini,formatted,error\r\n"
            f"logistic,none,pruned,{round(cv.mean, 6)},{round(cv.std, 6)},{cv.formatted()},\r\n"
            "no_such_model,none,pruned,,,,unknown model family 'no_such_model'\r\n"
        )

    def test_report_end_to_end(self, ledger_dir, tmp_path):
        out = tmp_path / "out"
        rc = run(
            "report", "--data", str(ledger_dir), "--out", str(out),
            "--set", 'model.params.n_rounds=40', "--set", "cv_folds=3",
        )
        assert rc == EXIT_OK
        for name in ("sanity.json", "features.csv", "selection.json", "model.json", "eval.json", "importance.json", "importance.svg", "summary.json"):
            assert (out / name).exists(), name


class TestStagedMatchesReport:
    @pytest.mark.parametrize("feature_set", ["pruned", "top_k"])
    def test_staged_artifacts_equal_report(self, ledger_dir, tmp_path, feature_set):
        out = tmp_path / "out"
        flags = [
            "--data", str(ledger_dir), "--out", str(out), "--seed", "3",
            "--set", "model.params.n_rounds=30", "--set", "cv_folds=3", "--set", f"feature_set={feature_set}",
        ]
        for command in ("ingest", "featurize", "select", "train", "evaluate"):
            assert run(command, *flags) == EXIT_OK, command
        staged = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        assert run("report", *flags) == EXIT_OK
        report = {p.name: p.read_bytes() for p in out.iterdir()}
        for name in sorted(staged.keys() & report.keys()):
            assert staged[name] == report[name], f"{name} differs between the staged run and report"
        assert staged.keys() <= report.keys()


class TestDeterminism:
    def test_report_rerun_byte_identical(self, ledger_dir, tmp_path):
        out = tmp_path / "out"
        args = (
            "report", "--data", str(ledger_dir), "--out", str(out),
            "--seed", "3", "--set", 'model.params.n_rounds=30', "--set", "cv_folds=3",
        )
        assert run(*args) == EXIT_OK
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(*args) == EXIT_OK
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between reruns"

    def test_seed_changes_outputs(self, ledger_dir, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"out{seed}"
            run(
                "report", "--data", str(ledger_dir), "--out", str(out),
                "--seed", seed, "--set", 'model.params.n_rounds=30', "--set", "cv_folds=3",
            )
            outs.append(json.loads((out / "eval.json").read_text()))
        assert outs[0]["folds"] != outs[1]["folds"]


class TestExitCodes:
    def test_unknown_resampling_is_config_error(self, ledger_dir, tmp_path):
        rc = run("evaluate", "--data", str(ledger_dir), "--out", str(tmp_path), "--set", "resampling=adasyn")
        assert rc == EXIT_CONFIG

    def test_bad_set_syntax_is_config_error(self, tmp_path):
        rc = run("ingest", "--out", str(tmp_path), "--set", "no-equals-sign")
        assert rc == EXIT_CONFIG

    def test_unknown_config_key_is_config_error(self, tmp_path):
        rc = run("ingest", "--out", str(tmp_path), "--set", "typo_key=1")
        assert rc == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        rc = run("ingest", "--config", str(tmp_path / "nope.json"))
        assert rc == EXIT_CONFIG

    def test_missing_data_dir_is_data_error(self, tmp_path):
        rc = run("ingest", "--data", str(tmp_path / "nothing"), "--out", str(tmp_path / "o"))
        assert rc == EXIT_DATA

    def test_select_without_features_is_data_error(self, tmp_path):
        rc = run("select", "--data", str(tmp_path), "--out", str(tmp_path / "o"))
        assert rc == EXIT_DATA

    def test_single_class_labels_fail_compute(self, tmp_path):
        data = write_ledger_fixture(tmp_path / "ledger", n_accounts=30, seed=1, bad_rate=0.0)
        out = str(tmp_path / "out")
        common = ["--data", str(data), "--out", out]
        assert run("featurize", *common) == EXIT_OK
        assert run("select", *common) == EXIT_OK
        rc = run("evaluate", *common, "--set", "cv_folds=3")
        assert rc in (EXIT_DATA, EXIT_COMPUTE)
        assert rc != EXIT_OK

    def test_grid_without_cells_is_config_error(self, ledger_dir, tmp_path, capsys):
        common = ["--data", str(ledger_dir), "--out", str(tmp_path / "out")]
        assert run("featurize", *common) == EXIT_OK
        capsys.readouterr()
        assert run("grid", *common, "--models", "random_forest", "--resamplers", "class_weight") == EXIT_CONFIG
        assert "the grid has no cells" in capsys.readouterr().err
        assert not (tmp_path / "out" / "grid.csv").exists()

    def test_train_without_select_is_data_error(self, ledger_dir, tmp_path):
        common = ["--data", str(ledger_dir), "--out", str(tmp_path / "out")]
        assert run("featurize", *common) == EXIT_OK
        assert run("train", *common) == EXIT_DATA
        assert not (tmp_path / "out" / "model.json").exists()

    def test_top_k_mismatch_with_select_is_data_error(self, ledger_dir, tmp_path):
        common = ["--data", str(ledger_dir), "--out", str(tmp_path / "out"), "--set", "feature_set=top_k"]
        assert run("featurize", *common) == EXIT_OK
        assert run("select", *common, "--set", "top_k=6") == EXIT_OK
        assert run("train", *common, "--set", "top_k=5") == EXIT_DATA
        assert not (tmp_path / "out" / "model.json").exists()

    def test_selection_settings_mismatch_with_select_is_data_error(self, ledger_dir, tmp_path, capsys):
        common = ["--data", str(ledger_dir), "--out", str(tmp_path / "out")]
        assert run("featurize", *common) == EXIT_OK
        assert run("select", *common) == EXIT_OK
        capsys.readouterr()
        rc = run("train", *common, "--set", "correlation_threshold=0.3", "--set", "missing_threshold=0.01")
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "correlation_threshold" in err and "rerun select" in err
        assert not (tmp_path / "out" / "model.json").exists()

    def test_failed_stage_leaves_partial_until_it_succeeds(self, tmp_path):
        data = write_ledger_fixture(tmp_path / "ledger", n_accounts=30, seed=1, bad_rate=0.0)
        out = tmp_path / "out"
        common = ["--data", str(data), "--out", str(out)]
        assert run("featurize", *common) == EXIT_OK
        (out / "select.partial").write_text("stale\n")
        assert run("select", *common) == EXIT_OK
        assert not (out / "select.partial").exists()
        assert run("evaluate", *common, "--set", "cv_folds=3") != EXIT_OK
        assert (out / "evaluate.partial").exists()

    def test_config_file_round_trip(self, ledger_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data_dir": str(ledger_dir),
            "out_dir": str(tmp_path / "out"),
            "seed": 11,
            "cv_folds": 3,
            "model.params.n_rounds": 30,
        }))
        assert run("ingest", "--config", str(cfg)) == EXIT_OK
        sanity = json.loads((tmp_path / "out" / "sanity.json").read_text())
        assert sanity["seed"] == 11
