"""Command-line interface: artifacts, formats, error handling."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wdmix
from wdmix import MixtureModel, davies_bouldin, micro_f1, model_from_parameters
from wdmix.cli import (
    main,
    read_assignments_csv,
    read_dataset_csv,
    write_dataset_csv,
)


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

    def test_corrupt_model_json_exits_one(self, small_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli("evaluate", "--model", bad, "--truth", small_csv)
        assert code == 1
        assert "error:" in capsys.readouterr().err

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
