"""Command-line interface: artifacts, formats, error handling."""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import wdmix
from wdmix import MixtureModel, davies_bouldin, micro_f1, model_from_parameters
from wdmix.cli import (
    assignments_from_model,
    main,
    read_assignments_csv,
    read_dataset_csv,
    write_assignments_csv,
    write_dataset_csv,
)
from wdmix.errors import WdmixError
from wdmix.initialization import default_weights


def run_cli(*argv):
    return main([str(a) for a in argv])


def _console_script_target(name):
    """(module, attribute) that pyproject.toml's [project.scripts] names for ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    return module, attr


def _run_script(command, cwd, *argv):
    """Run ``command`` in a fresh process on the wdmix package this process imported."""
    env = dict(os.environ)
    package_root = str(Path(wdmix.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([*command, *[str(a) for a in argv]], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "easy.csv"
    code = run_cli(
        "generate", "--profile", "easy", "--n", 200, "--outlier-fraction", "0.3",
        "--seed", 0, "--out", path,
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def fitted(small_csv, tmp_path_factory):
    prefix = tmp_path_factory.mktemp("fit") / "run"
    code = run_cli(
        "fit", "--input", small_csv, "--algorithm", "wd", "--k", 5,
        "--seed", 0, "--tol", "1e-6", "--out", prefix,
    )
    assert code == 0
    return prefix


class TestGenerate:
    def test_row_count_and_header(self, tmp_path):
        path = tmp_path / "easy.csv"
        code = run_cli(
            "generate", "--profile", "easy", "--n", 600,
            "--outlier-fraction", "0.5", "--seed", 1, "--out", path,
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,label,outlier"
        assert len(lines) == 1 + 900  # 600 inliers + 300 uniform outliers

    def test_round_trip_through_reader(self, small_csv):
        ds = read_dataset_csv(small_csv)
        assert ds.n == 260
        assert ds.d == 2
        assert int(ds.outlier_flag.sum()) == 60
        assert np.all(ds.labels[ds.outlier_flag] == -1)

    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(
                "generate", "--profile", "mixed", "--n", 150,
                "--outlier-fraction", "0.2", "--seed", 9, "--out", path,
            )
        assert a.read_bytes() == b.read_bytes()

    def test_repr_floats_survive_round_trip(self, tmp_path):
        path = tmp_path / "tiny.csv"
        run_cli("generate", "--profile", "easy", "--n", 5, "--seed", 3, "--out", path)
        from wdmix import generate_sim

        direct = generate_sim("easy", 5, seed=3)
        ds = read_dataset_csv(path)
        assert np.array_equal(ds.points, direct.points)  # exact, not approximate


class TestFit:
    def test_writes_three_artifacts(self, fitted):
        for suffix in (".model.json", ".report.json", ".assignments.csv"):
            assert (fitted.parent / (fitted.name + suffix)).exists()

    def test_model_payload_schema(self, fitted):
        payload = json.loads((fitted.parent / (fitted.name + ".model.json")).read_text())
        assert payload["schema_version"] == 1
        assert payload["fit"]["algorithm"] == "wd"
        assert payload["fit"]["seed"] == 0
        assert payload["fit"]["q"] == 20
        assert payload["fit"]["sigma"] == 100.0
        model = MixtureModel.from_dict(payload)
        assert model.n_components == 5
        assert model.d == 2

    def test_report_has_weight_means_for_wd(self, fitted, small_csv):
        payload = json.loads((fitted.parent / (fitted.name + ".report.json")).read_text())
        assert payload["algorithm"] == "wd"
        assert len(payload["weight_means"]) == 260
        assert payload["iterations"] >= 1
        trace = payload["objective_trace"]
        assert len(trace) == payload["iterations"] + 1

    def test_assignments_file(self, fitted):
        assignments = read_assignments_csv(fitted.parent / (fitted.name + ".assignments.csv"))
        assert assignments.shape == (260,)
        assert set(np.unique(assignments)) <= set(range(5))

    def test_gmm_report_has_no_weight_means(self, small_csv, tmp_path):
        prefix = tmp_path / "gmm"
        code = run_cli(
            "fit", "--input", small_csv, "--algorithm", "gmm", "--k", 3,
            "--seed", 0, "--out", prefix,
        )
        assert code == 0
        payload = json.loads((tmp_path / "gmm.report.json").read_text())
        assert "weight_means" not in payload
        model_payload = json.loads((tmp_path / "gmm.model.json").read_text())
        assert model_payload["fit"] == {"algorithm": "gmm", "seed": 0}

    def test_diagonal_covariance_flag(self, small_csv, tmp_path):
        prefix = tmp_path / "diag"
        code = run_cli(
            "fit", "--input", small_csv, "--algorithm", "fwd", "--k", 3,
            "--covariance", "diagonal", "--seed", 0, "--out", prefix,
        )
        assert code == 0
        payload = json.loads((tmp_path / "diag.model.json").read_text())
        model = MixtureModel.from_dict(payload)
        assert all(c.is_diagonal for c in model.components)


class TestSelect:
    def test_selects_five_on_easy(self, tmp_path):
        data = tmp_path / "easy600.csv"
        run_cli("generate", "--profile", "easy", "--n", 600, "--seed", 0, "--out", data)
        prefix = tmp_path / "sel"
        code = run_cli(
            "select", "--input", data, "--k-high", 10, "--seed", 0, "--out", prefix,
        )
        assert code == 0
        payload = json.loads((tmp_path / "sel.report.json").read_text())
        assert payload["selected_k"] == 5
        assert payload["algorithm"] == "select-wd"
        assert payload["converged"] is True
        assert payload["best_length"] == pytest.approx(min(payload["checkpoint_lengths"]))
        assert len(payload["weight_means"]) == 600
        hist = payload["kplus_history"]
        assert hist[0] <= 10 and all(a >= b for a, b in zip(hist, hist[1:]))

    def test_equal_bounds_mean_no_annihilation_events(self, small_csv, tmp_path):
        prefix = tmp_path / "pinned"
        code = run_cli(
            "select", "--input", small_csv, "--k-high", 4, "--k-low", 4,
            "--seed", 0, "--out", prefix,
        )
        assert code == 0
        payload = json.loads((tmp_path / "pinned.report.json").read_text())
        assert payload["selected_k"] == 4
        assert payload["annihilation_log"] == []

    def test_zero_epsilon_never_converges(self, small_csv, tmp_path):
        prefix = tmp_path / "eps0"
        code = run_cli(
            "select", "--input", small_csv, "--k-high", 3, "--epsilon", 0,
            "--max-sweeps", 25, "--seed", 0, "--out", prefix,
        )
        assert code == 0
        payload = json.loads((tmp_path / "eps0.report.json").read_text())
        assert payload["converged"] is False
        assert payload["iterations"] == 25

    def test_fixed_weight_mode(self, small_csv, tmp_path):
        prefix = tmp_path / "fwd"
        code = run_cli(
            "select", "--input", small_csv, "--k-high", 6, "--weight-mode", "fixed",
            "--seed", 0, "--out", prefix,
        )
        assert code == 0
        payload = json.loads((tmp_path / "fwd.report.json").read_text())
        assert payload["algorithm"] == "select-fwd"
        assert "weight_means" not in payload

    @pytest.mark.parametrize("mode", ["random", "fixed"])
    def test_kernel_flags_set_the_default_weights(self, mode, small_csv, tmp_path):
        prefix = tmp_path / "sel"
        code = run_cli(
            "select", "--input", small_csv, "--k-high", 4, "--weight-mode", mode, "--q", 10,
            "--sigma", 50, "--restarts", 2, "--seed", 0, "--out", prefix,
        )
        assert code == 0
        data = read_dataset_csv(small_csv)
        config = wdmix.MmlConfig(k_high=4, weight_mode=mode)
        want = wdmix.select_model(
            data, config, weights=default_weights(data, config.weight_mode, 10, 50.0), seed=0, restarts=2
        )
        payload = json.loads((tmp_path / "sel.report.json").read_text())
        assert payload["objective_trace"] == list(want.objective_trace)
        assert payload["checkpoint_lengths"] == list(want.checkpoint_lengths)
        assert payload["selected_k"] == want.final_model.n_components
        assert read_assignments_csv(f"{prefix}.assignments.csv").tolist() == (
            want.final_responsibilities.hard_assignments().tolist()
        )
        default = wdmix.select_model(data, config, seed=0, restarts=2)  # q = 20, bandwidth = 100
        assert payload["objective_trace"] != list(default.objective_trace)

    def test_small_sample_warning_reaches_stderr(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.csv"
        assert run_cli("generate", "--profile", "easy", "--n", 30, "--seed", 0, "--out", tiny) == 0
        capsys.readouterr()
        code = run_cli("select", "--input", tiny, "--k-high", 12, "--seed", 0,
                       "--out", tmp_path / "tiny")
        err = capsys.readouterr().err
        assert code == 0, err
        lines = [line for line in err.splitlines() if line.startswith("warning:")]
        assert lines == [
            "warning: only 30 points for k_high=12 components (5 parameters each); "
            "selection may be unstable"
        ]
        assert (tmp_path / "tiny.report.json").exists()


class TestEvaluate:
    def test_db_and_f1_match_direct_computation(self, fitted, small_csv, tmp_path):
        out = tmp_path / "metrics.json"
        code = run_cli(
            "evaluate", "--model", f"{fitted}.model.json",
            "--assignments", f"{fitted}.assignments.csv",
            "--truth", small_csv, "--metrics", "db,f1", "--out", out,
        )
        assert code == 0
        metrics = json.loads(out.read_text())
        ds = read_dataset_csv(small_csv)
        payload = json.loads((fitted.parent / (fitted.name + ".model.json")).read_text())
        model = MixtureModel.from_dict(payload)
        centers = np.vstack([c.mean for c in model.components])
        assignments = read_assignments_csv(fitted.parent / (fitted.name + ".assignments.csv"))
        assert metrics["db_all"] == pytest.approx(
            davies_bouldin(ds.points, assignments, centers)
        )
        inl = ~ds.outlier_flag
        assert metrics["db_inliers"] == pytest.approx(
            davies_bouldin(ds.points[inl], assignments[inl], centers)
        )
        assert metrics["micro_f1"] == pytest.approx(micro_f1(assignments, ds.labels))

    def test_db_inliers_null_when_every_point_is_an_outlier(self, fitted, small_csv, tmp_path):
        truth = tmp_path / "all_outliers.csv"
        lines = small_csv.read_text().splitlines()
        assert lines[0].endswith(",outlier")
        truth.write_text("\n".join([lines[0]] + [row.rsplit(",", 1)[0] + ",1" for row in lines[1:]]) + "\n")
        out = tmp_path / "metrics.json"
        code = run_cli(
            "evaluate", "--model", f"{fitted}.model.json",
            "--assignments", f"{fitted}.assignments.csv",
            "--truth", truth, "--metrics", "db", "--out", out,
        )
        assert code == 0
        assert json.loads(out.read_text())["db_inliers"] is None

    def test_assignments_recomputed_from_model_match_stored(
        self, fitted, small_csv, tmp_path
    ):
        with_file = tmp_path / "with.json"
        without_file = tmp_path / "without.json"
        base = [
            "evaluate", "--model", f"{fitted}.model.json", "--truth", small_csv,
            "--metrics", "db,f1",
        ]
        assert run_cli(*base, "--assignments", f"{fitted}.assignments.csv",
                       "--out", with_file) == 0
        assert run_cli(*base, "--out", without_file) == 0
        assert with_file.read_bytes() == without_file.read_bytes()

    def test_outlier_metrics_need_report(self, fitted, small_csv, tmp_path, capsys):
        code = run_cli(
            "evaluate", "--model", f"{fitted}.model.json", "--truth", small_csv,
            "--metrics", "outliers", "--out", tmp_path / "x.json",
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_outlier_metrics_with_report(self, fitted, small_csv, tmp_path):
        out = tmp_path / "outliers.json"
        code = run_cli(
            "evaluate", "--model", f"{fitted}.model.json", "--truth", small_csv,
            "--metrics", "outliers", "--report", f"{fitted}.report.json",
            "--out", out,
        )
        assert code == 0
        section = json.loads(out.read_text())["outliers"]
        assert section["outlier_mean_weight"] < section["inlier_mean_weight"]
        assert 0.0 <= section["auc"] <= 1.0

    def test_metrics_to_stdout_by_default(self, fitted, small_csv, capsys):
        code = run_cli(
            "evaluate", "--model", f"{fitted}.model.json",
            "--assignments", f"{fitted}.assignments.csv",
            "--truth", small_csv, "--metrics", "db",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "db_all" in payload

    def test_unknown_metric_rejected(self, fitted, small_csv, capsys):
        code = run_cli(
            "evaluate", "--model", f"{fitted}.model.json", "--truth", small_csv,
            "--metrics", "db,silhouette",
        )
        assert code == 1
        assert "unknown metrics" in capsys.readouterr().err

    def test_plot_written_for_2d(self, fitted, small_csv, tmp_path):
        svg = tmp_path / "scatter.svg"
        code = run_cli(
            "evaluate", "--model", f"{fitted}.model.json",
            "--assignments", f"{fitted}.assignments.csv",
            "--truth", small_csv, "--metrics", "db",
            "--report", f"{fitted}.report.json",
            "--plot", svg, "--out", tmp_path / "m.json",
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "ellipse" in text

    @pytest.mark.parametrize("flags", [("--metrics", "db", "--assignments"), ("--metrics", "f1", "--plot")])
    def test_model_of_another_dimension_exits_one(self, flags, fitted, small_csv, tmp_path, capsys):
        # A 3-D model on 2-D data: db died with a raw ValueError, and f1
        # exited 0 with a plot of the components' first two coordinates.
        model = model_from_parameters([np.zeros(3), np.full(3, 8.0)], [np.eye(3), np.eye(3)], [0.5, 0.5])
        model_path = tmp_path / "d3.model.json"
        model_path.write_text(json.dumps({**model.to_dict(), "fit": {"algorithm": "gmm", "seed": 0}}))
        target = f"{fitted}.assignments.csv" if flags[-1] == "--assignments" else tmp_path / "d3.svg"
        code = run_cli("evaluate", "--model", model_path, "--truth", small_csv, *flags, target)
        assert code == 1
        assert "error: the model is 3-D but the data are 2-D" in capsys.readouterr().err
        assert not (tmp_path / "d3.svg").exists()

    def test_plot_skipped_for_higher_dimensions(self, tmp_path, capsys):
        # Hand-written 5-D dataset and a matching model: the metrics still
        # come out but the plot is skipped with a warning.
        gen = np.random.default_rng(0)
        pts = np.vstack([gen.normal(0.0, 1.0, (30, 5)), gen.normal(8.0, 1.0, (30, 5))])
        labels = np.repeat([0, 1], 30)
        data_path = tmp_path / "d5.csv"
        from wdmix import validate_dataset

        write_dataset_csv(data_path, validate_dataset(pts, labels=labels))
        model = model_from_parameters(
            [np.zeros(5), np.full(5, 8.0)], [np.eye(5), np.eye(5)], [0.5, 0.5]
        )
        model_path = tmp_path / "d5.model.json"
        payload = model.to_dict()
        payload["fit"] = {"algorithm": "gmm", "seed": 0}
        model_path.write_text(json.dumps(payload))
        svg = tmp_path / "d5.svg"
        code = run_cli(
            "evaluate", "--model", model_path, "--truth", data_path,
            "--metrics", "db,f1", "--plot", svg, "--out", tmp_path / "d5.json",
        )
        assert code == 0
        assert not svg.exists()
        assert "skipping plot" in capsys.readouterr().err
        metrics = json.loads((tmp_path / "d5.json").read_text())
        assert metrics["micro_f1"] == 1.0


class TestSmallFile:
    """Fewer points than the default q=20 neighbours: every command caps q at n-1."""

    @pytest.fixture(scope="class")
    def tiny_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tiny") / "tiny.csv"
        assert run_cli("generate", "--profile", "easy", "--n", 15, "--seed", 1, "--out", path) == 0
        return path

    # Carried rates are not in the model file: evaluate recomputes prior-rate
    # assignments only and asks for --assignments otherwise.
    @pytest.mark.parametrize(
        "mode, rates", [("random", "prior"), ("fixed", "carried"), ("random", "carried")]
    )
    def test_select_then_evaluate(self, tiny_csv, tmp_path, capsys, mode, rates):
        prefix = tmp_path / "sel"
        assert run_cli("select", "--input", tiny_csv, "--k-high", 3, "--weight-mode", mode,
                       "--assignment-rates", rates, "--seed", 0, "--out", prefix) == 0
        capsys.readouterr()
        code = run_cli("evaluate", "--model", f"{prefix}.model.json", "--truth", tiny_csv,
                       "--metrics", "f1", "--out", tmp_path / "m.json")
        payload = json.loads(Path(f"{prefix}.model.json").read_text())
        assert payload["fit"]["assignment_rates"] == rates
        model = MixtureModel.from_dict(payload)
        if (mode, rates) == ("random", "carried"):
            assert code == 1
            assert "--assignments" in capsys.readouterr().err
            with pytest.raises(WdmixError, match="--assignments"):
                assignments_from_model(read_dataset_csv(tiny_csv), model, payload["fit"])
            return
        assert code == 0
        recomputed = assignments_from_model(read_dataset_csv(tiny_csv), model, payload["fit"])
        assert np.array_equal(recomputed, read_assignments_csv(f"{prefix}.assignments.csv"))

    @pytest.mark.parametrize("algorithm", ["wd", "fwd"])
    def test_fit(self, tiny_csv, tmp_path, algorithm):
        code = run_cli("fit", "--input", tiny_csv, "--algorithm", algorithm, "--k", 2,
                       "--seed", 0, "--out", tmp_path / "fit")
        assert code == 0
        assert (tmp_path / "fit.assignments.csv").exists()


class TestErrorHandling:
    def test_missing_input_file_exits_one(self, capsys, tmp_path):
        code = run_cli(
            "fit", "--input", tmp_path / "missing.csv", "--k", 2, "--out", tmp_path / "x"
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("generate", "--profile", "easy")  # --out missing
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            run_cli("frobnicate")
        assert excinfo.value.code == 2

    def test_nan_tolerance_exits_one(self, small_csv, tmp_path, capsys):
        code = run_cli(
            "fit", "--input", small_csv, "--k", 2, "--tol", "nan", "--out", tmp_path / "x"
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [("fit", "--k", 2), ("select", "--k-high", 3)], ids=["fit", "select"]
    )
    def test_no_restarts_exits_one(self, command, small_csv, tmp_path, capsys):
        code = run_cli(*command, "--input", small_csv, "--restarts", 0, "--out", tmp_path / "x")
        assert code == 1
        assert "error: restarts must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_assignment_label_without_center_exits_one(self, fitted, small_csv, tmp_path, capsys):
        labels = read_assignments_csv(f"{fitted}.assignments.csv")
        labels[-1] = 7  # the model has five components
        stray = tmp_path / "stray.assignments.csv"
        write_assignments_csv(stray, labels)
        code = run_cli(
            "evaluate", "--model", f"{fitted}.model.json", "--assignments", stray,
            "--truth", small_csv, "--metrics", "db",
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["1.5", "1.5,abc", "1.5,2.5,3.5"])
    def test_malformed_dataset_row_exits_one(self, row, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n0.0,1.0\n" + row + "\n2.0,3.0\n")
        code = run_cli("fit", "--input", bad, "--k", 1, "--out", tmp_path / "x")
        assert code == 1
        assert f"error: {bad} line 3:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, row",
        [("x1,x2,label", "1_5,2.5,0"), ("x1,x2,label", "1.5,2.5,1_0"), ("x1,x2,note", "1.5,2.5")],
        ids=["feature_underscore", "label_underscore", "short_of_an_unused_column"],
    )
    def test_dataset_row_the_parsers_would_misread_exits_one(self, header, row, tmp_path, capsys):
        # float() and int() read 1_5 as 15; a short row used to read when only unused columns were missing.
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n0.0,1.0,0\n{row}\n2.0,3.0,1\n")
        code = run_cli("fit", "--input", bad, "--k", 1, "--out", tmp_path / "x")
        assert code == 1
        assert f"error: {bad} line 3:" in capsys.readouterr().err

    def test_header_naming_a_column_twice_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,label,label\n0.0,1.0,0,1\n1.5,2.5,1,0\n")
        code = run_cli("fit", "--input", bad, "--k", 1, "--out", tmp_path / "x")
        assert code == 1
        assert f"error: {bad} line 1: a column name appears twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column, good, bad", [("outlier", "0", "2"), ("modality", "a", "audio")], ids=["flag_2", "long_tag"]
    )
    def test_side_cell_a_cast_would_change_exits_one(self, column, good, bad, tmp_path, capsys):
        # The dtype cast would read the flag 2 as an outlier and the tag 'audio' as 'a'.
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,{column}\n0.0,1.0,{good}\n1.5,2.5,{bad}\n2.0,3.0,{good}\n")
        code = run_cli("fit", "--input", path, "--k", 1, "--out", tmp_path / "x")
        assert code == 1
        assert f"error: {path} line 3:" in capsys.readouterr().err

    def test_whole_number_side_cells_read_as_integers(self, tmp_path):
        # As Dataset takes labels=[1.0] and outlier_flag=[1.0]; integer text stays exact beyond 2**53.
        path = tmp_path / "whole.csv"
        path.write_text(
            "x1,x2,label,outlier\n0.0,1.0,1.0,0.0\n1.5,2.5,9007199254740993,1.0\n2.0,3.0,-1e0,1\n"
        )
        assert run_cli("fit", "--input", path, "--k", 1, "--out", tmp_path / "x") == 0
        data = read_dataset_csv(path)
        assert data.labels.tolist() == [1, 2**53 + 1, -1]
        assert data.outlier_flag.tolist() == [False, True, True]

    @pytest.mark.parametrize(
        "column, bad", [("label", "1.5"), ("label", "abc"), ("outlier", "nan"), ("outlier", "0.5")]
    )
    def test_side_cell_not_a_whole_number_exits_one(self, column, bad, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,{column}\n0.0,1.0,0\n1.5,2.5,{bad}\n2.0,3.0,1\n")
        code = run_cli("fit", "--input", path, "--k", 1, "--out", tmp_path / "x")
        assert code == 1
        assert f"error: {path} line 3: {column} '{bad}' is not a whole number" in capsys.readouterr().err

    def test_assignments_line_without_cluster_exits_one(self, fitted, small_csv, tmp_path, capsys):
        bad = tmp_path / "bad.assignments.csv"
        for line in ("1", "1,0,7"):  # one field too few, one too many
            bad.write_text(f"index,cluster\n0,1\n{line}\n")
            code = run_cli(
                "evaluate", "--model", f"{fitted}.model.json", "--assignments", bad,
                "--truth", small_csv,
            )
            assert code == 1
            assert f"error: {bad} line 3:" in capsys.readouterr().err

    def test_assignments_underscore_exits_one(self, fitted, small_csv, tmp_path, capsys):
        bad = tmp_path / "bad.assignments.csv"
        bad.write_text("index,cluster\n0,1\n1,1_0\n")  # int() reads 1_0 as 10
        code = run_cli(
            "evaluate", "--model", f"{fitted}.model.json", "--assignments", bad, "--truth", small_csv,
        )
        assert code == 1
        assert f"error: {bad} line 3: '_' in a value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows", ["0,1\n7,1\n7,0", "0,1\n2,0\n1,0", "foo,2"], ids=["repeated", "reordered", "non_numeric"]
    )
    def test_assignments_index_out_of_place_exits_one(self, rows, fitted, small_csv, tmp_path, capsys):
        # Row i must carry index i, as written: a reordered or hand-edited
        # file would otherwise score the wrong points.
        bad = tmp_path / "bad.assignments.csv"
        bad.write_text(f"index,cluster\n{rows}\n")
        code = run_cli(
            "evaluate", "--model", f"{fitted}.model.json", "--assignments", bad,
            "--truth", small_csv,
        )
        assert code == 1
        line = 2 if rows.startswith("foo") else 3
        assert f"error: {bad} line {line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_mean", [float("nan"), float("inf"), 0.0])
    def test_non_finite_weight_mean_exits_one(self, bad_mean, fitted, small_csv, tmp_path, capsys):
        payload = json.loads(Path(f"{fitted}.report.json").read_text())
        payload["weight_means"][3] = bad_mean
        report = tmp_path / "bad.report.json"
        report.write_text(json.dumps(payload))
        out = tmp_path / "metrics.json"
        code = run_cli(
            "evaluate", "--model", f"{fitted}.model.json", "--truth", small_csv,
            "--metrics", "outliers", "--report", report, "--out", out,
        )
        assert code == 1
        assert "error: marginal weight means must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda means: means[:-1], "marginal_mean must have one entry per point"),
            (lambda means: means[:3] + [float("nan")] + means[4:], "must be positive and finite"),
        ],
        ids=["short", "nan"],
    )
    def test_bad_weight_means_on_plot_path_exit_one(self, edit, message, fitted, small_csv, tmp_path, capsys):
        # The plot reads the report's weight means as the outlier score does,
        # through one validated WeightState.
        payload = json.loads(Path(f"{fitted}.report.json").read_text())
        payload["weight_means"] = edit(payload["weight_means"])
        report = tmp_path / "bad.report.json"
        report.write_text(json.dumps(payload))
        svg = tmp_path / "s.svg"
        code = run_cli(
            "evaluate", "--model", f"{fitted}.model.json", "--truth", small_csv,
            "--metrics", "db", "--plot", svg, "--report", report, "--out", tmp_path / "m.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not svg.exists()

    def test_k_means_short_of_k_high_exits_one(self, tmp_path, capsys):
        points = np.random.default_rng(0).normal(size=(200, 2)) + 1e8
        data = tmp_path / "far.csv"
        write_dataset_csv(data, wdmix.validate_dataset(points))
        code = run_cli("select", "--input", data, "--k-high", 8, "--seed", 0, "--out", tmp_path / "sel")
        assert code == 1
        assert "error: k-means left cluster" in capsys.readouterr().err
        assert not (tmp_path / "sel.model.json").exists()

    def test_model_file_not_an_object_exits_one(self, small_csv, tmp_path, capsys):
        bad = tmp_path / "list.model.json"
        bad.write_text("[1, 2]\n")
        code = run_cli("evaluate", "--model", bad, "--truth", small_csv)
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_fit_metadata_not_an_object_exits_one(self, fitted, small_csv, tmp_path, capsys):
        payload = json.loads(Path(f"{fitted}.model.json").read_text())
        payload["fit"] = [1, 2]
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(payload))
        code = run_cli("evaluate", "--model", bad, "--truth", small_csv)
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("key", ["covariance_shape", "q"])
    def test_model_missing_field_exits_one(self, key, fitted, small_csv, tmp_path, capsys):
        payload = json.loads(Path(f"{fitted}.model.json").read_text())
        del (payload["fit"] if key == "q" else payload)[key]  # "q" lives in the fit metadata
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(payload))
        code = run_cli("evaluate", "--model", bad, "--truth", small_csv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}'" in err

    def test_corrupt_model_json_exits_one(self, small_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli("evaluate", "--model", bad, "--truth", small_csv)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_cluster_id_beyond_int64_exits_one(self, fitted, small_csv, tmp_path, capsys):
        bad = tmp_path / "bad.assignments.csv"
        bad.write_text("index,cluster\n0,99999999999999999999\n")
        code = run_cli(
            "evaluate", "--model", f"{fitted}.model.json", "--assignments", bad, "--truth", small_csv,
        )
        assert code == 1
        assert f"error: {bad} line 2: cluster id 99999999999999999999" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "fit", "select"])
    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_bad_seed_is_a_usage_error(self, command, seed, small_csv, tmp_path, capsys):
        flags = {
            "generate": ("--profile", "easy"),
            "fit": ("--input", small_csv, "--k", 2),
            "select": ("--input", small_csv, "--k-high", 3),
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, *flags, "--seed", seed, "--out", tmp_path / "x")
        assert excinfo.value.code == 2
        assert "--seed: expected a non-negative integer" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_console_script_entry_point(self, tmp_path):
        # End-to-end subprocess runs through the [project.scripts] target,
        # called the way an installed wrapper calls it; no install needed.
        module, attr = _console_script_target("wdmix")
        command = [
            sys.executable, "-c",
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'wdmix'; sys.exit({attr}())",
        ]
        out = tmp_path / "cli.csv"
        proc = _run_script(command, tmp_path, "generate", "--profile", "easy",
                           "--n", "20", "--seed", "0", "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

        # The wrapper exits with main()'s return value.
        proc = _run_script(command, tmp_path, "fit", "--input", tmp_path / "missing.csv",
                           "--k", "2", "--out", tmp_path / "x")
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr

    @pytest.mark.skipif(shutil.which("wdmix") is None,
                        reason="wdmix console script not installed")
    def test_installed_console_script(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = _run_script([shutil.which("wdmix")], tmp_path, "generate", "--profile",
                           "easy", "--n", "20", "--seed", "0", "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


# ---------------------------------------------------------------------------
# fuzzing main with malformed files and flag values

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Where a JSON value replaces part of a valid report.
_REPORT_EDITS = st.tuples(st.sampled_from(["report", "weight_means", "one_entry", "every_entry"]), _JSON)
_ASSIGNMENT_LINES = st.one_of(
    st.text(alphabet="0123456789,-+. e_x\t", max_size=24),
    st.builds("{},{}".format, st.integers(-3, 90), st.integers()),
)
_SEEDS = st.one_of(
    st.integers(-(10**25), 10**25).map(str),
    st.sampled_from(["-0", "0.5", "1e9", "nan", "inf", "", "x"]),
)
# Flag values for generate: finite ones capped so that no example draws more than a few thousand points.
_SPECIAL_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "-0.0", "0", "-1", "1e308"])
_GENERATE_N = st.one_of(st.integers(-3, 300).map(str), _SPECIAL_NUMBERS)
_FRACTIONS = st.one_of(st.floats(-1.0, 5.0).map(repr), _SPECIAL_NUMBERS)
# Line edits of a dataset CSV: (line, field, action, value).
_CSV_VALUES = st.one_of(
    st.sampled_from(["x", "nan", "inf", "-inf", "", "1e999", "99999999999999999999", "-1", "1.5"]),
    st.text(alphabet="0123456789-+.eainfx ", max_size=6),
)
_DATASET_EDITS = st.lists(
    st.tuples(
        st.integers(0, 200),
        st.integers(0, 10),
        st.sampled_from(["drop", "extra", "blank", "delete", "set"]),
        _CSV_VALUES,
    ),
    min_size=1,
    max_size=4,
)
# Where a JSON value replaces part of a valid model file: a top-level field,
# a field of the fit metadata, one proportion, a component's mean or
# covariance, or a single entry of either.
_MODEL_PATHS = st.one_of(
    st.sampled_from(["schema_version", "covariance_shape", "proportions", "components", "fit"]).map(
        lambda key: (key,)
    ),
    st.sampled_from(["algorithm", "seed", "q", "sigma", "assignment_rates"]).map(lambda key: ("fit", key)),
    st.tuples(st.just("proportions"), st.integers(0, 2)),
    st.tuples(st.just("components"), st.integers(0, 2), st.sampled_from(["mean", "covariance"])),
    st.tuples(st.just("components"), st.integers(0, 2), st.just("mean"), st.integers(0, 1)),
    st.tuples(st.just("components"), st.integers(0, 2), st.just("covariance"), st.integers(0, 1), st.integers(0, 1)),
)
_MODEL_VALUES = st.one_of(
    st.sampled_from([None, "x", 0, -1, 0.5, [], {}, [[1, 2], [3]], math.nan, math.inf, -math.inf, 1e308, True]),
    _JSON,
)
# Numeric flags of fit and select, with their values; --restarts and the
# iteration budgets are capped so that no example runs long.
_RUN_FLAGS = {
    "--q": st.integers(-2, 200).map(str),
    "--sigma": st.floats(allow_nan=False).map(repr),
    "--restarts": st.integers(-2, 3).map(str),
}
_FIT_FLAGS = {
    **_RUN_FLAGS,
    "--k": st.integers(-2, 12).map(str),
    "--max-iter": st.integers(-2, 60).map(str),
    "--tol": st.floats(allow_nan=False).map(repr),
}
_SELECT_FLAGS = {
    **_RUN_FLAGS,
    "--k-high": st.integers(-2, 12).map(str),
    "--k-low": st.integers(-2, 12).map(str),
    "--epsilon": st.floats(allow_nan=False).map(repr),
    "--max-sweeps": st.integers(-2, 60).map(str),
}


def _flag_edits(flags):
    """One to three (flag, value) pairs; a value is a special number, 0.5 or the flag's own draw."""
    pair = st.sampled_from(sorted(flags)).flatmap(
        lambda flag: st.tuples(st.just(flag), _SPECIAL_NUMBERS | st.just("0.5") | flags[flag])
    )
    return st.lists(pair, min_size=1, max_size=3)


_FUZZ = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def tiny_fit(tmp_path_factory):
    """An 81-point 2-D dataset and its wd fit at k = 3: (dataset path, run prefix)."""
    root = tmp_path_factory.mktemp("fuzz")
    data, prefix = root / "tiny.csv", root / "run"
    assert run_cli("generate", "--profile", "easy", "--n", 62, "--outlier-fraction", "0.3",
                   "--seed", 0, "--out", data) == 0
    assert run_cli("fit", "--input", data, "--k", 3, "--seed", 0, "--out", prefix) == 0
    return data, prefix


def _outcome(argv, usage_error_allowed=False):
    """Run main on ``argv``; assert exit 0, exit 1 with one error: line, or (if allowed) argparse's exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = run_cli(*argv)
        except SystemExit as exc:
            assert usage_error_allowed and exc.code == 2, err.getvalue()
            return 2
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert (code, len(errors)) in {(0, 0), (1, 1)}, err.getvalue()
    return code


def _edit_line(lines, line, field, action, value):
    """Apply one :data:`_DATASET_EDITS` edit to a CSV's lines in place."""
    if action == "empty":
        lines.clear()
    if not lines:
        return
    i = line % len(lines)
    if action == "blank":
        lines.insert(i, "")
    elif action == "delete":
        del lines[i]
    else:
        fields = lines[i].split(",")
        if action == "drop":
            del fields[field % len(fields)]
        elif action == "extra":
            fields.append("0")
        else:
            fields[field % len(fields)] = value
        lines[i] = ",".join(fields)


class TestFuzzMain:
    """main never lets an exception out, whatever the files or flag values."""

    @_FUZZ
    @given(edit=_REPORT_EDITS, metrics=st.sampled_from(["outliers", "db", "db,outliers"]), plot=st.booleans())
    @example(edit=("report", None), metrics="outliers", plot=False)
    @example(edit=("report", 3), metrics="outliers", plot=False)
    @example(edit=("report", True), metrics="outliers", plot=False)
    @example(edit=("report", "weights"), metrics="outliers", plot=False)
    @example(edit=("weight_means", "abc"), metrics="outliers", plot=False)
    @example(edit=("every_entry", "x"), metrics="outliers", plot=False)
    @example(edit=("weight_means", {"a": 1}), metrics="db", plot=True)
    @example(edit=("weight_means", [[1.0, 2.0], [3.0]]), metrics="outliers", plot=False)
    @example(edit=("one_entry", 10**400), metrics="outliers", plot=False)  # beyond float64
    def test_report(self, tiny_fit, edit, metrics, plot):
        data, prefix = tiny_fit
        payload = json.loads(Path(f"{prefix}.report.json").read_text())
        where, value = edit
        if where == "report":
            payload = value
        elif where == "weight_means":
            payload["weight_means"] = value
        elif where == "one_entry":
            payload["weight_means"][len(str(value)) % len(payload["weight_means"])] = value
        else:
            payload["weight_means"] = [value] * len(payload["weight_means"])
        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp) / "r.json"
            report.write_text(json.dumps(payload))
            _outcome(["evaluate", "--model", f"{prefix}.model.json", "--truth", data, "--metrics", metrics,
                      "--report", report, *(["--plot", Path(tmp) / "s.svg"] if plot else [])])

    @_FUZZ
    @given(edits=st.lists(st.tuples(st.integers(0, 200), st.none() | _ASSIGNMENT_LINES), min_size=1, max_size=4))
    @example(edits=[(1, "0,99999999999999999999")])  # line 0 is the header
    @example(edits=[(1, "0,1_0")])  # read as cluster 10
    def test_assignments(self, tiny_fit, edits):
        data, prefix = tiny_fit
        lines = Path(f"{prefix}.assignments.csv").read_text().splitlines()
        for position, text in edits:
            position %= len(lines) + 1
            if text is None:
                del lines[min(position, len(lines) - 1)]
            elif position == len(lines):
                lines.append(text)
            else:
                lines[position] = text
        with tempfile.TemporaryDirectory() as tmp:
            assignments = Path(tmp) / "a.csv"
            assignments.write_text("\n".join(lines) + "\n")
            _outcome(["evaluate", "--model", f"{prefix}.model.json", "--truth", data,
                      "--assignments", assignments, "--metrics", "db,f1"])

    @_FUZZ
    @given(command=st.sampled_from(["generate", "fit", "select"]), seed=_SEEDS)
    @example(command="generate", seed="-1")
    @example(command="fit", seed="-1")
    @example(command="select", seed="-1")
    def test_seed(self, tiny_fit, command, seed):
        data, _ = tiny_fit
        flags = {
            "generate": ("--profile", "easy", "--n", 20),
            "fit": ("--input", data, "--k", 2, "--restarts", 1),
            "select": ("--input", data, "--k-high", 2, "--restarts", 1),
        }[command]
        with tempfile.TemporaryDirectory() as tmp:
            code = _outcome([command, *flags, "--seed", seed, "--out", Path(tmp) / "x"], usage_error_allowed=True)
        assert code == (0 if seed.lstrip("-").isdigit() and int(seed) >= 0 else 2)

    @_FUZZ
    @given(n=_GENERATE_N, fraction=_FRACTIONS, margin=_FRACTIONS)
    @example(n="20", fraction="nan", margin="0.1")  # wrote clean data and exited 0
    @example(n="20", fraction="-0.5", margin="0.1")  # wrote clean data and exited 0
    @example(n="20", fraction="inf", margin="0.1")  # OverflowError
    @example(n="20", fraction="0.3", margin="nan")  # OverflowError
    @example(n="20", fraction="0.3", margin="inf")  # OverflowError
    @example(n="20", fraction="0.3", margin="1e308")  # overflow warning, then OverflowError
    @example(n="1", fraction="1e308", margin="0.1")  # more outliers than an array holds
    @example(n="20", fraction="0", margin="nan")  # checked at fraction 0 as well
    def test_generate_flags(self, n, fraction, margin):
        with tempfile.TemporaryDirectory() as tmp:
            # The --flag=value form lets argparse take values such as -inf.
            code = _outcome(["generate", "--profile", "easy", f"--n={n}", f"--outlier-fraction={fraction}",
                             f"--margin={margin}", "--out", Path(tmp) / "g.csv"], usage_error_allowed=True)
        if not n.lstrip("-").isdigit():
            assert code == 2
            return
        if not (int(n) >= 1 and all(0.0 <= float(v) < math.inf for v in (fraction, margin))):
            assert code == 1
        elif max(float(fraction), float(margin)) <= 5.0:  # 1e308 may pass or fail, with an error: line
            assert code == 0

    @_FUZZ
    @given(edits=_DATASET_EDITS, command=st.sampled_from(["fit", "evaluate"]))
    @example(edits=[(0, 0, "empty", None)], command="fit")
    @example(edits=[(0, 0, "empty", None)], command="evaluate")
    @example(edits=[(5, 2, "set", "99999999999999999999")], command="fit")  # a label beyond int64
    @example(edits=[(5, 2, "set", "99999999999999999999")], command="evaluate")
    @example(edits=[(5, 3, "set", "2")], command="fit")  # an outlier flag other than 0 or 1
    @example(edits=[(5, 0, "set", "1_5")], command="fit")  # read as 15.0
    @example(edits=[(5, 2, "set", "1_0")], command="evaluate")  # read as label 10
    def test_dataset_csv(self, tiny_fit, edits, command):
        data, prefix = tiny_fit
        lines = Path(data).read_text().splitlines()
        assert lines[0].split(",")[2] == "label"
        for edit in edits:
            _edit_line(lines, *edit)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_text("".join(line + "\n" for line in lines))
            flags = {
                "fit": ("--input", path, "--k", 2, "--restarts", 1, "--out", Path(tmp) / "x"),
                "evaluate": ("--model", f"{prefix}.model.json", "--truth", path, "--metrics", "db,f1"),
            }[command]
            _outcome([command, *flags])

    @_FUZZ
    @given(path=_MODEL_PATHS, value=_MODEL_VALUES, with_assignments=st.booleans(), diagonal=st.booleans())
    @example(path=("fit", "algorithm"), value=[], with_assignments=False, diagonal=False)  # unhashable type
    @example(path=("fit", "algorithm"), value={}, with_assignments=False, diagonal=False)
    @example(path=("fit", "algorithm"), value=[[1, 2], [3]], with_assignments=False, diagonal=False)
    @example(path=("fit", "q"), value=math.inf, with_assignments=False, diagonal=False)  # float infinity to integer
    @example(path=("fit", "q"), value=-math.inf, with_assignments=False, diagonal=False)
    @example(path=("components",), value=[{"mean": [0.0] * 3, "covariance": np.eye(3).tolist()}] * 3,
             with_assignments=True, diagonal=False)  # a 3-D model on 2-D data: a raw ValueError
    @example(path=("components", 0, "covariance"), value=[1.0, 1.0], with_assignments=True,
             diagonal=True)  # variances as a vector: np.diagonal's raw ValueError
    def test_model(self, tiny_fit, path, value, with_assignments, diagonal):
        data, prefix = tiny_fit
        payload = json.loads(Path(f"{prefix}.model.json").read_text())
        if diagonal:  # the fitted model with its covariances' off-diagonal entries zeroed
            payload["covariance_shape"] = "diagonal"
            for comp in payload["components"]:
                comp["covariance"] = np.diag(np.diag(comp["covariance"])).tolist()
        parent = payload
        for key in path[:-1]:
            parent = parent[key % len(parent)] if isinstance(key, int) else parent[key]
        last = path[-1]
        parent[last % len(parent) if isinstance(last, int) else last] = value
        with tempfile.TemporaryDirectory() as tmp:
            model = Path(tmp) / "m.json"
            model.write_text(json.dumps(payload))
            assignments = ["--assignments", f"{prefix}.assignments.csv"] if with_assignments else []
            _outcome(["evaluate", "--model", model, "--truth", data, "--metrics", "db", *assignments])

    @_FUZZ
    @given(edits=_flag_edits(_FIT_FLAGS))
    def test_fit_flags(self, tiny_fit, edits):
        data, _ = tiny_fit
        with tempfile.TemporaryDirectory() as tmp:
            # Later flags override the valid defaults; --flag=value lets argparse take -inf.
            _outcome(["fit", "--input", data, "--k", 3, "--restarts", 1, "--max-iter", 60,
                      *(f"{flag}={value}" for flag, value in edits), "--out", Path(tmp) / "x"],
                     usage_error_allowed=True)

    @_FUZZ
    @given(edits=_flag_edits(_SELECT_FLAGS))
    def test_select_flags(self, tiny_fit, edits):
        data, _ = tiny_fit
        with tempfile.TemporaryDirectory() as tmp:
            _outcome(["select", "--input", data, "--k-high", 3, "--restarts", 1, "--max-sweeps", 60,
                      *(f"{flag}={value}" for flag, value in edits), "--out", Path(tmp) / "x"],
                     usage_error_allowed=True)
