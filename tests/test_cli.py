import csv
import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditshap import pipeline
from creditshap.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from creditshap.features import FeatureMatrix
from creditshap.models import BoostConfig, ForestConfig, MlpConfig, ModelSpec, TreeEnsemble
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


def json_reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Payloads for the writer's oracle: lists of one scalar kind, of records
# sharing one key set (some keys holding "%") and of lists of one length
# are written a column at a time; NaN, ±inf, bools next to ints, numpy
# floats, mixed kinds, unshared key sets and empty containers fall back to
# writing value by value.
json_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7]),
)
json_texts = st.one_of(
    st.text(max_size=6), st.sampled_from(['"', "\\", "\n", "\x00\x1f\x7f", "é 日本", "\U0001f600", "None", "nan"])
)
json_keys = st.one_of(st.sampled_from(["a", "b", "%s", "50%", "%(x)d", "é", "", 'q"']), st.text(max_size=3))
json_scalars = st.one_of(json_floats, st.integers(), st.booleans(), st.none(), json_texts, json_floats.map(np.float64))


def json_containers(children):
    records = st.lists(json_keys, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: children for k in keys}), max_size=5)
    )
    rows = st.integers(0, 3).flatmap(
        lambda width: st.lists(st.lists(children, min_size=width, max_size=width).map(tuple), max_size=5)
    )
    return st.one_of(
        st.lists(st.one_of(json_floats, st.none())),
        st.lists(st.floats(allow_nan=False, allow_infinity=False)),
        st.lists(st.integers()),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.lists(st.one_of(json_floats, json_floats.map(np.float64))),
        st.lists(json_texts),
        records,
        rows,
        st.lists(children, max_size=5),
        st.lists(st.dictionaries(json_keys, children, max_size=3), max_size=4),
        st.dictionaries(json_keys, children, max_size=4),
    )


json_payloads = st.recursive(json_scalars, json_containers, max_leaves=40)


class TestJsonWriter:
    """`pipeline._write_json` writes the text of `json.dumps(indent=2, sort_keys=True)`."""

    @pytest.fixture(scope="class")
    def demo_dir(self, tmp_path_factory):
        return write_ledger_fixture(tmp_path_factory.mktemp("demo"), n_accounts=60, seed=0)

    @pytest.mark.parametrize(
        "settings",
        [
            ["model.params.n_rounds=20"],
            ["model=random_forest", "model.params.n_trees=20"],
            ["model=gradient_boosting", "model.params.n_rounds=20"],
            ["feature_set=top_k", "model.params.n_rounds=20"],
        ],
        ids=["oblivious", "random_forest", "gradient_boosting", "top_k"],
    )
    def test_report_and_explain_payloads(self, demo_dir, tmp_path, monkeypatch, settings):
        written = []
        write = pipeline._write_json

        def recording(path, payload):
            written.append((Path(path), payload))
            write(path, payload)

        monkeypatch.setattr(pipeline, "_write_json", recording)
        flags = ["--data", str(demo_dir), "--out", str(tmp_path), "--seed", "0"]
        for setting in settings:
            flags += ["--set", setting]
        assert run("report", *flags) == EXIT_OK
        assert run("explain", *flags, "--row", "A0003") == EXIT_OK
        names = {"sanity.json", "model.json", "eval.json", "importance.json", "summary.json", "waterfall_A0003.json"}
        assert names <= {path.name for path, _ in written}
        for path, payload in written:
            assert pipeline._json_text(payload) + "\n" == json_reference(payload), path.name
            assert path.read_text() == json_reference(payload), path.name

    EDGE = {
        "floats": [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, 1 / 3, -2.5e-7, np.float64(0.3), np.float64(-math.inf)],
        "ints": [0, -7, 2**63, -(2**63) - 1, 10**40, True, False, None],
        "tuple": (1, ("a", ()), {}),
        "empty": [[], {}, [[]], [{}], {"a": {}}, {"b": [[], {}]}],
        "": "",
        'quo"te \\ key\n': 'say "hi" \\ back\\slash \x00\x01\x1f\x7f\t\r\n é ü 日本 \U0001f600',
        "non-ascii é 日": {"\x01": 1, "日": 2, "Z": 3, "a": 4, "é": 5},
    }

    def test_edge_corpus(self):
        for payload in (self.EDGE, *self.EDGE.values(), *self.EDGE["floats"], *self.EDGE["ints"]):
            assert pipeline._json_text(payload) + "\n" == json_reference(payload)

    @given(json_payloads)
    @settings(max_examples=400, deadline=None)
    def test_matches_json_dumps(self, payload):
        assert pipeline._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize("payload", [{1: "a"}, {None: 1}, {1.5: 1}, {True: 1}, {"a": {2: 3}}, [{"a": 1, 2: 3}], [{1: "a"}, {1: "b"}]])
    def test_non_str_key_is_a_type_error(self, payload):
        with pytest.raises(TypeError):
            pipeline._json_text(payload)

    @pytest.mark.parametrize("value", [object(), np.int64(1), {1, 2}, b"x"])
    def test_unserializable_value_is_a_type_error(self, value):
        for payload in (value, [value], {"a": value}):
            with pytest.raises(TypeError):
                json.dumps(payload, indent=2, sort_keys=True)
            with pytest.raises(TypeError):
                pipeline._json_text(payload)


class TestDeterminism:
    def test_report_rerun_byte_identical(self, ledger_dir, tmp_path):
        # into the same directory and into another: the config hash leaves the paths out
        args = (
            "report", "--data", str(ledger_dir),
            "--seed", "3", "--set", 'model.params.n_rounds=30', "--set", "cv_folds=3",
        )
        runs = []
        for out in (tmp_path / "out", tmp_path / "out", tmp_path / "elsewhere"):
            assert run(*args, "--out", str(out)) == EXIT_OK
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        first, *others = runs
        for other in others:
            assert first.keys() == other.keys()
            for name in first:
                assert first[name] == other[name], f"{name} differs between reruns"

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

    @pytest.mark.parametrize("text", ["[1]", "3", '"seed"', "null"])
    def test_config_file_not_an_object_is_config_error(self, text, ledger_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = run("report", "--config", str(cfg), "--data", str(ledger_dir), "--out", str(tmp_path / "out"))
        assert rc == EXIT_CONFIG
        assert f"{cfg} must hold a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.fixture(scope="class")
    def staged_dir(self, ledger_dir, tmp_path_factory):
        """features.csv through model.json of a short staged run."""
        out = tmp_path_factory.mktemp("staged")
        common = ["--data", str(ledger_dir), "--out", str(out), "--set", "model.params.n_rounds=5"]
        for stage in ("featurize", "select", "train"):
            assert run(stage, *common) == EXIT_OK
        return out

    @staticmethod
    def _edit_cell(text, line, edit):
        lines = text.splitlines()
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("name, command, corrupt, where", [
        ("features.csv", "select", lambda text: "", "features.csv: not a feature-matrix CSV"),
        ("features.csv", "select", lambda text: text.splitlines()[0] + "\n", "features.csv: no rows below the header"),
        ("features_pruned.csv", "evaluate", lambda text: TestExitCodes._edit_cell(text, 3, lambda c: [c[0], "abc", *c[2:]]),
         "features_pruned.csv:3: could not convert"),
        ("features_pruned.csv", "evaluate", lambda text: TestExitCodes._edit_cell(text, 4, lambda c: c[:-1]),
         "features_pruned.csv:4: expected"),
        ("features_pruned.csv", "train", lambda text: TestExitCodes._edit_cell(text, 2, lambda c: [*c[:-1], "bad"]),
         "features_pruned.csv:2: invalid literal"),
        ("model.json", "explain", lambda text: text.replace('"kind"', '"kinds"'), "model.json: not a model file (KeyError"),
        ("model.json", "explain", lambda text: text[:-10], "model.json: bad JSON"),
        ("model.json", "explain", lambda text: "[]", "model.json: not a JSON object"),
        ("selection.json", "evaluate", lambda text: text[:-10], "selection.json: bad JSON"),
        ("selection.json", "train", lambda text: "[]", "selection.json: not a JSON object"),
    ], ids=["empty_features", "header_only_features", "text_cell", "short_row", "bad_label", "model_without_kind", "model_bad_json",
            "model_not_object", "selection_bad_json", "selection_not_object"])
    def test_corrupt_stage_artifact_is_data_error_naming_it(self, name, command, corrupt, where, staged_dir,
                                                            ledger_dir, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(staged_dir, out)
        path = out / name
        path.write_text(corrupt(path.read_text()))
        capsys.readouterr()
        rc = run(command, "--data", str(ledger_dir), "--out", str(out), "--set", "model.params.n_rounds=5")
        assert rc == EXIT_DATA
        assert f"{out / where}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate", "explain"])
    def test_selection_settings_not_an_object_is_data_error(self, command, staged_dir, ledger_dir, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(staged_dir, out)
        path = out / "selection.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "settings": [1]}))
        capsys.readouterr()
        rc = run(command, "--data", str(ledger_dir), "--out", str(out), "--set", "model.params.n_rounds=5")
        assert rc == EXIT_DATA
        assert f"{path}: settings is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("kept, where", [
        (lambda columns: ["nope", *columns[1:20]], "top_k.json keeps 'nope', not a column"),
        (lambda columns: [*columns[:19], 7], "top_k.json keeps 7, not a column"),
        (lambda columns: {"kept": columns[:20]}, "top_k.json: kept is not a JSON array"),
    ], ids=["unknown_column", "not_a_name", "not_a_list"])
    def test_unknown_top_k_column_is_data_error_naming_it(self, kept, where, staged_dir, ledger_dir, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(staged_dir, out)
        columns = FeatureMatrix.from_csv(out / "features_pruned.csv").columns
        settings = PipelineConfig().settings("top_k.json")  # those the train below reads back
        (out / "top_k.json").write_text(json.dumps({"kept": kept(columns), "settings": settings}))
        capsys.readouterr()
        rc = run("train", "--data", str(ledger_dir), "--out", str(out), "--set", "model.params.n_rounds=5",
                 "--set", "feature_set=top_k")
        assert rc == EXIT_DATA
        assert f"{out / where}" in capsys.readouterr().err

    def test_missing_data_dir_is_data_error(self, tmp_path):
        rc = run("ingest", "--data", str(tmp_path / "nothing"), "--out", str(tmp_path / "o"))
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("amount", ["1" * 20, "9" * 401], ids=["20_digits", "401_digits"])
    def test_out_of_range_amount_is_data_error(self, amount, ledger_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(ledger_dir, data)
        path = data / "transactions.csv"
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:3] + [amount])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("report", "--data", str(data), "--out", str(tmp_path / "o")) == EXIT_DATA
        assert "transactions.csv:4: currency amount" in capsys.readouterr().err

    @pytest.mark.parametrize("column, text, message", [
        (3, "²", "transactions.csv:4: bad currency amount '²'"),
        (3, "٣.5", "transactions.csv:4: bad currency amount '٣.5'"),
        (2, "20240226", "transactions.csv:4: date: bad date '20240226'"),
        (2, "2024-W09-1", "transactions.csv:4: date: bad date '2024-W09-1'"),
        (0, "T000000", "transactions.csv:4: duplicate key 'T000000'"),
    ], ids=["superscript", "arabic_indic", "compact_date", "week_date", "duplicate_id"])
    def test_bad_transaction_cell_is_data_error_naming_the_line(self, column, text, message, ledger_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(ledger_dir, data)
        path = data / "transactions.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[3].split(",")
        cells[column] = text
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("featurize", "--data", str(data), "--out", str(tmp_path / "o")) == EXIT_DATA
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("key, value", [
        ("correlation_threshold", "abc"),
        ("correlation_threshold", "1.5"),
        ("correlation_threshold", "true"),
        ("missing_threshold", "abc"),
        ("missing_threshold", "-0.1"),
        ("cv_folds", "2.5"),
        ("cv_folds", "1"),
        ("top_k", "0"),
        ("k_neighbors", "0"),
        ("k_neighbors", "1.5"),
        ("seed", '"abc"'),
        ("seed", "1.5"),
        ("seed", "-1"),
        ("seed", "true"),
        ("zero_as_missing", '"abc"'),
        ("zero_as_missing", "1"),
        ("zero_as_missing", "null"),
    ])
    def test_bad_selection_or_cv_setting_is_config_error(self, key, value, ledger_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run("report", "--data", str(ledger_dir), "--out", str(out),
                 "--set", "feature_set=top_k", "--set", f"{key}={value}")
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()  # no stage ran

    def test_negative_seed_flag_is_config_error(self, ledger_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("report", "--data", str(ledger_dir), "--out", str(out), "--seed", "-1") == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_forest_without_trees_is_compute_error(self, ledger_dir, tmp_path, capsys):
        # the forest without trees, and counts that are not integers or are too small
        for i, (model, key, value) in enumerate([
            ("random_forest", "n_trees", "0"),
            ("random_forest", "n_trees", "2.5"),
            ("gradient_boosting", "n_rounds", "2.5"),
            ("gradient_boosting", "n_rounds", "0"),
            ("gradient_boosting", "max_depth", "0"),
            ("oblivious_boosting", "max_depth", "-2"),
            ("oblivious_boosting", "max_bins", "0"),
            ("oblivious_boosting", "max_bins", "8.5"),
            ("mlp", "batch_size", "0"),
            ("mlp", "epochs", "0"),
            ("mlp", "epochs", "1.5"),
            # values of the wrong type: a non-number for a real field, a bool count
            ("gradient_boosting", "learning_rate", '"x"'),
            ("oblivious_boosting", "reg_lambda", "null"),
            ("oblivious_boosting", "validation_fraction", '"0.1"'),
            ("oblivious_boosting", "n_rounds", "true"),
            ("gradient_boosting", "patience", "2.5"),
            ("random_forest", "max_features", "true"),
            ("random_forest", "max_depth", "false"),
            ("mlp", "learning_rate", '"x"'),
            ("mlp", "momentum", "null"),
            ("mlp", "validation_fraction", '"x"'),
            ("mlp", "epochs", "true"),
            # NaN passes every `<=` test; ranges, and a layer list that is not one
            ("gradient_boosting", "learning_rate", "NaN"),
            ("oblivious_boosting", "reg_lambda", "NaN"),
            ("oblivious_boosting", "validation_fraction", "NaN"),
            ("mlp", "learning_rate", "NaN"),
            ("mlp", "learning_rate", "0"),
            ("mlp", "momentum", "-5"),
            ("mlp", "momentum", "1"),
            ("mlp", "validation_fraction", "0.9"),
            ("mlp", "hidden_layers", '"x"'),
            ("mlp", "hidden_layers", "[8, 0]"),
            ("mlp", "hidden_layers", "[8, 2.5]"),
            ("mlp", "hidden_layers", "8"),
            ("mlp", "hidden_layers", "[true]"),
            # the binned logistic's bin count: an integer of at least 2
            ("logistic_binned", "n_bins", "1.5"),
            ("logistic_binned", "n_bins", '"x"'),
            ("logistic_binned", "n_bins", "true"),
            ("logistic_binned", "n_bins", "-3"),
            ("logistic_binned", "n_bins", "0"),
            ("logistic_binned", "n_bins", "1"),
        ]):
            out = tmp_path / f"out{i}"
            rc = run(
                "report", "--data", str(ledger_dir), "--out", str(out),
                "--set", f"model={model}", "--set", f"model.params.{key}={value}",
            )
            assert rc == EXIT_COMPUTE, (model, key, value)
            assert (out / "train.partial").exists()
            assert not (out / "model.json").exists()
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["logistic", "logistic_binned", "random_forest",
                                        "gradient_boosting", "oblivious_boosting", "mlp"])
    def test_unknown_model_param_is_config_error(self, family, ledger_dir, tmp_path, capsys):
        configs = {"random_forest": ForestConfig, "gradient_boosting": BoostConfig,
                   "oblivious_boosting": BoostConfig, "mlp": MlpConfig}
        fixed = {"seed", "min_samples_leaf"} if family == "oblivious_boosting" else {"seed"}
        if family in configs:
            accepted = sorted(f.name for f in dataclasses.fields(configs[family]) if f.name not in fixed)
        else:
            accepted = ["n_bins"] if family == "logistic_binned" else []
        unknown = [("bogus", "1")]
        if configs.get(family) is BoostConfig:
            assert len(accepted) == 9 - len(fixed)  # ordered and ordered_blocks are not among them
            unknown += [("ordered", "true"), ("ordered_blocks", "8")]
        if family == "oblivious_boosting":
            unknown.append(("min_samples_leaf", "3"))  # oblivious growth ignores it
        for key, value in unknown:
            out = tmp_path / key
            rc = run(
                "train", "--data", str(ledger_dir), "--out", str(out),
                "--set", f"model={family}", "--set", f"model.params.{key}={value}",
            )
            assert rc == EXIT_CONFIG, key
            named, listed = capsys.readouterr().err.split("accepted: ")
            assert f"parameter(s) {key};" in named
            assert listed.strip() == (", ".join(accepted) or "none")
            assert not out.exists()  # no stage ran

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

    def test_explain_with_model_of_other_columns_is_data_error(self, ledger_dir, tmp_path, capsys):
        out = tmp_path / "out"
        common = ["--data", str(ledger_dir), "--out", str(out)]
        assert run("featurize", *common) == EXIT_OK
        assert run("select", *common) == EXIT_OK
        assert run("train", *common, "--set", "model.params.n_rounds=5") == EXIT_OK
        narrow = ["--set", "correlation_threshold=0.5"]
        assert run("select", *common, *narrow) == EXIT_OK  # keeps fewer columns than model.json was fitted on
        capsys.readouterr()
        assert run("explain", *common, *narrow, "--row", "A0003") == EXIT_DATA
        err = capsys.readouterr().err
        assert "model.json" in err and "rerun train" in err
        assert not (out / "waterfall_A0003.json").exists()

    @pytest.mark.parametrize("command, settings, code, message", [
        pytest.param(command, settings, code, message, id=f"{'evaluate-' * (command == 'evaluate')}{settings[-1].removeprefix('model=')}")
        for command, settings, code, message in [
            *[(command, settings, EXIT_DATA, differs) for command in ("explain", "evaluate") for settings, differs in [
                (["model=random_forest"], "model='oblivious_boosting', not 'random_forest'"),
                (["model.params.n_rounds=500"], "model_params={'n_rounds': 5}, not {'n_rounds': 500}"),
                (["model.params.n_rounds=5", "resampling=smote"], "resampling='none', not 'smote'"),
                (["model.params.n_rounds=5", "seed=1"], "seed=0, not 1"),
            ]],
            ("explain", ["model=logistic"], EXIT_CONFIG,
             "explain needs a tree ensemble model (random_forest, gradient_boosting, oblivious_boosting), not logistic"),
            ("explain", ["model.params.n_rounds=5", "cv_folds=3"], EXIT_OK, ""),  # a fitted model does not depend on cv_folds
            ("evaluate", ["model.params.n_rounds=5", "cv_folds=3"], EXIT_OK, ""),
        ]
    ])
    def test_explain_with_model_of_other_family_is_data_error(self, command, settings, code, message, staged_dir,
                                                                ledger_dir, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(staged_dir, out)  # model.json holds the default oblivious booster, fitted for 5 rounds
        flags = [flag for setting in settings for flag in ("--set", setting)]
        if command == "explain":
            flags += ["--row", "A0003"]
        capsys.readouterr()
        assert run(command, "--data", str(ledger_dir), "--out", str(out), *flags) == code
        if code == EXIT_DATA:  # the first key that differs comes first
            message = f"{out / 'model.json'} has {message}"
        assert message in capsys.readouterr().err
        written = out / ("waterfall_A0003.json" if command == "explain" else "eval.json")
        assert written.exists() == (code == EXIT_OK)

    def test_staged_evaluate_reuses_train_model(self, staged_dir, ledger_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        shutil.copytree(staged_dir, out)
        common = ["--data", str(ledger_dir), "--out", str(out), "--set", "model.params.n_rounds=5", "--set", "cv_folds=3"]
        (out / "model.json").rename(out / "trained.json")
        capsys.readouterr()
        assert run("evaluate", *common) == EXIT_DATA
        assert f"{out / 'model.json'} not found; run the train stage first" in capsys.readouterr().err
        (out / "trained.json").rename(out / "model.json")
        fit = pipeline.fit_model
        calls = []
        monkeypatch.setattr(pipeline, "fit_model", lambda *args, **kwargs: calls.append(args[0]) or fit(*args, **kwargs))
        assert run("evaluate", *common) == EXIT_OK
        assert len(calls) == 3  # one per CV fold: the final model is train's

    def test_model_json_with_ordered_flag_explains_identically(self, staged_dir, ledger_dir, tmp_path):
        # boosted model.json files once recorded "ordered": false under meta.config;
        # meta is opaque to the loader, so such a file explains as the current one does
        outs = {name: tmp_path / name for name in ("current", "older")}
        for out in outs.values():
            shutil.copytree(staged_dir, out)
        model = outs["older"] / "model.json"
        text = model.read_text()
        assert text.count('      "patience": ') == 1 and '"ordered"' not in text
        model.write_text(text.replace('      "patience": ', '      "ordered": false,\n      "patience": '))
        assert TreeEnsemble.load(model).meta["config"]["ordered"] is False
        for out in outs.values():
            assert run("explain", "--data", str(ledger_dir), "--out", str(out), "--set", "model.params.n_rounds=5",
                       "--row", "A0003") == EXIT_OK
        written = sorted(p.name for p in outs["current"].iterdir() if p.name.startswith("waterfall_"))
        assert written == sorted(p.name for p in outs["older"].iterdir() if p.name.startswith("waterfall_"))
        assert written  # the JSON payload and its SVG
        for name in written:
            assert (outs["current"] / name).read_bytes() == (outs["older"] / name).read_bytes(), name

    def test_non_tree_train_removes_model_json(self, staged_dir, ledger_dir, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(staged_dir, out)
        assert run("train", "--data", str(ledger_dir), "--out", str(out), "--set", "model=logistic") == EXIT_OK
        assert not (out / "model.json").exists()  # an older tree model.json would stand for this fit

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
