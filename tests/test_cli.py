import csv
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import frechet_svt
from frechet_svt import regression
from frechet_svt.cli import main
from frechet_svt.dataio import SchemaError, load_sim_configs, read_covariates, read_dataset
from frechet_svt.metric_spaces import midpoint_grid

SMOKE_CONFIG = """\
[campaign]
master_seed = 7
trials = 3
test_size = 40
eval_points = 8
quantile_points = 21
lambda_points = 6

[cell:smoke]
n = 30
p = 10
noise_kind = gaussian
"""


def write_config(tmp_path, text=SMOKE_CONFIG):
    path = tmp_path / "campaign.cfg"
    path.write_text(text)
    return path


def write_euclidean_train(tmp_path, rng, n=30, p=3, name="train.csv", scale=1.0):
    x = scale * rng.standard_normal((n, p))
    beta = np.array([1.0, -2.0, 0.5])
    y = 0.7 + x @ beta
    path = tmp_path / name
    with open(path, "w") as fh:
        fh.write(",".join([f"x{i}" for i in range(1, p + 1)]) + ",y1\n")
        for xi, yi in zip(x, y):
            fh.write(",".join(repr(float(v)) for v in xi) + f",{float(yi)!r}\n")
    return path, x, y, beta


def write_queries(tmp_path, queries, name="queries.csv"):
    path = tmp_path / name
    p = queries.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join([f"x{i}" for i in range(1, p + 1)]) + "\n")
        for row in queries:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def write_wasserstein_train(tmp_path, rng, n=12, p=2, m=9, name="wtrain.csv", corrupt_row=None, grid=None):
    grid = midpoint_grid(m) if grid is None else grid
    x = rng.standard_normal((n, p))
    q = np.sort(rng.standard_normal((n, m)), axis=1)
    if corrupt_row is not None:
        q[corrupt_row] = q[corrupt_row][::-1].copy()
    path = tmp_path / name
    with open(path, "w") as fh:
        fh.write(",".join([f"x{i}" for i in range(1, p + 1)] + [f"q{i}" for i in range(1, m + 1)]) + "\n")
        fh.write("," * p + ",".join(repr(float(v)) for v in grid) + "\n")
        for xi, qi in zip(x, q):
            fh.write(",".join(repr(float(v)) for v in xi) + "," + ",".join(repr(float(v)) for v in qi) + "\n")
    return path, x, q, grid


def read_csv_rows(path):
    with open(path) as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


class TestSimulateCommand:
    def test_smoke_run_writes_results(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv_rows(out / "results.csv")
        assert rows[0] == [
            "n", "p", "noise_kind", "estimator", "bias", "sqrt_var", "mse", "mspe", "lambda_hat", "cell",
        ]
        assert [r[3] for r in rows[1:]] == ["REF", "EIV", "SVT"]
        assert all(r[-1] == "smoke" for r in rows[1:])
        for row in rows[1:]:
            assert all(np.isfinite(float(v)) for v in row[4:9])
        assert (out / "manifest.txt").exists()
        assert (out / "profile.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--seed", "99", "--out", str(out2)])
        assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()

    def test_multi_cell_campaign(self, tmp_path):
        cfg = write_config(
            tmp_path,
            SMOKE_CONFIG + "\n[cell:laplace-small]\nn = 25\np = 8\nnoise_kind = laplace\n",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv_rows(out / "results.csv")
        assert len(rows) == 1 + 6  # header + 2 cells x 3 estimators
        assert {r[2] for r in rows[1:]} == {"gaussian", "laplace"}
        assert {r[-1] for r in rows[1:]} == {"smoke", "laplace-small"}
        profile_rows = read_csv_rows(out / "profile.csv")
        assert {r[-1] for r in profile_rows[1:]} == {"smoke", "laplace-small"}

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[cell:broken]\nn = 30\n")  # missing p
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "broken" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[cell:a]\nn = 30\np = 5\nbogus = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_single_covariate_cell_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[cell:thin]\nn = 30\np = 1\ntrials = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "thin" in err and "p must be at least 2" in err

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_grid_points_below_one_exits_2(self, tmp_path, capsys, points):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--grid-points", points,
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: --grid-points must be at least 1, got {points}\n"
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--seed", "-3", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: --seed must be nonnegative, got -3\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key", ["sigma_eps", "sigma_eta", "ig_shape", "ig_scale", "alpha_intercept", "condition_number"]
    )
    def test_non_finite_float_field_exits_2(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, SMOKE_CONFIG + f"{key} = nan\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1.0", "0.0"])
    def test_non_positive_ig_scale_exits_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, SMOKE_CONFIG + f"ig_scale = {value}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "ig_scale must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[cell:a]\nn = 30\np = 5\n\n[cell:a]\nn = 20\np = 5\n",
        "[cell:a]\nn = 30\nn = 20\np = 5\n",
        "n = 30\np = 5\n",
        "[cell:a]\nn = 30\np = 5\nnoise_kind = 100%\n",
    ], ids=["duplicate-section", "duplicate-key", "no-section-header", "bad-interpolation"])
    def test_unparsable_config_exits_2(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")

    @pytest.mark.parametrize("second", ["a", "cell: a"])
    def test_two_sections_naming_one_cell_exit_2(self, tmp_path, capsys, second):
        cfg = write_config(tmp_path, f"[cell:a]\nn = 20\np = 4\n\n[{second}]\nn = 20\np = 4\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: sections [cell:a] and [{second}] both name cell 'a'\n"
        assert not (out / "results.csv").exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_bytes(SMOKE_CONFIG.encode() + b"# caf\xe9\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")

    def test_bool_field_takes_only_yes_and_no_words(self, tmp_path, capsys):
        for value, expected in [("1", True), ("True", True), ("YES", True), ("0", False), ("false", False), ("No", False)]:
            cfg = write_config(tmp_path, SMOKE_CONFIG + f"laplace_variance_matched = {value}\n")
            assert load_sim_configs(cfg)[0][0].laplace_variance_matched is expected, value
        for value in ["maybe", "on", "2", ""]:
            cfg = write_config(tmp_path, SMOKE_CONFIG + f"laplace_variance_matched = {value}\n")
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2, value
            assert "key 'laplace_variance_matched': bad value" in capsys.readouterr().err

    def test_one_row_test_set_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMOKE_CONFIG + "test_size = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "test_size must be at least 2" in capsys.readouterr().err


class TestFitPredictCommand:
    def test_exact_linear_predictions(self, tmp_path):
        rng = np.random.default_rng(0)
        train, x, y, beta = write_euclidean_train(tmp_path, rng)
        queries = rng.standard_normal((5, 3))
        qpath = write_queries(tmp_path, queries)
        out = tmp_path / "out"
        code = main(
            ["fit-predict", "--train", str(train), "--queries", str(qpath),
             "--kind", "euclidean", "--lambda", "0", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv_rows(out / "predictions.csv")
        assert rows[0] == ["y1"]
        preds = np.array([float(r[0]) for r in rows[1:]])
        truth = 0.7 + queries @ beta
        assert np.max(np.abs(preds - truth)) <= 1e-6

    def test_query_at_mean_returns_response_mean(self, tmp_path):
        rng = np.random.default_rng(1)
        train, x, y, beta = write_euclidean_train(tmp_path, rng)
        qpath = write_queries(tmp_path, x.mean(axis=0)[None])
        out = tmp_path / "out"
        main(["fit-predict", "--train", str(train), "--queries", str(qpath),
              "--kind", "euclidean", "--lambda", "0.8", "--out", str(out)])
        rows = read_csv_rows(out / "predictions.csv")
        assert abs(float(rows[1][0]) - y.mean()) <= 1e-10

    def test_auto_lambda_echoes_choice(self, tmp_path):
        rng = np.random.default_rng(2)
        train, x, y, beta = write_euclidean_train(tmp_path, rng)
        holdout, *_ = write_euclidean_train(tmp_path, rng, name="holdout.csv")
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        out = tmp_path / "out"
        code = main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "euclidean", "--lambda", "auto", "--holdout", str(holdout),
                     "--out", str(out)])
        assert code == 0
        first = (out / "predictions.csv").read_text().splitlines()[0]
        assert first.startswith("# lambda_hat = ")
        float(first.split("=")[1])

    def test_auto_without_holdout_exits_2(self, tmp_path):
        rng = np.random.default_rng(3)
        train, *_ = write_euclidean_train(tmp_path, rng)
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "euclidean", "--lambda", "auto", "--out", str(tmp_path / "o")]) == 2

    def test_holdout_with_a_fixed_lambda_exits_2_before_computing(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        train, *_ = write_euclidean_train(tmp_path, rng)
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        out = tmp_path / "o"
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath), "--kind", "euclidean",
                     "--lambda", "0.05", "--holdout", str(tmp_path / "missing.csv"), "--out", str(out)]) == 2
        assert "--holdout goes only with --lambda auto" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_points_with_a_fixed_lambda_exits_2_before_computing(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        train, *_ = write_euclidean_train(tmp_path, rng)
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        out = tmp_path / "o"
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath), "--kind", "euclidean",
                     "--lambda", "0.05", "--grid-points", "7", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --grid-points goes only with --lambda auto, got --lambda 0.05\n"
        assert not out.exists()

    def test_manifest_records_the_resolved_grid_points(self, tmp_path):
        # A --lambda auto run can be repeated from its manifest, grid size included.
        rng = np.random.default_rng(2)
        train, *_ = write_euclidean_train(tmp_path, rng)
        holdout, *_ = write_euclidean_train(tmp_path, rng, name="holdout.csv")
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        auto = ["--lambda", "auto", "--holdout", str(holdout)]
        runs = {
            "seven": (auto + ["--grid-points", "7"], "grid_points = 7"),
            "default": (auto, "grid_points = 40"),
            "forty": (auto + ["--grid-points", "40"], "grid_points = 40"),
            "fixed": (["--lambda", "0.1"], "grid_points = "),
        }
        for name, (flags, line) in runs.items():
            assert main(["fit-predict", "--train", str(train), "--queries", str(qpath), "--kind", "euclidean",
                         *flags, "--out", str(tmp_path / name)]) == 0
            manifest = (tmp_path / name / "manifest.txt").read_text().splitlines()
            assert line in manifest
        predictions = {name: (tmp_path / name / "predictions.csv").read_bytes() for name in runs}
        assert predictions["default"] == predictions["forty"]

    def test_manifest_records_the_numpy_and_python_versions(self, tmp_path):
        # The l1/sup-norm outputs hang on the last bits, so a rerun elsewhere needs both versions.
        import platform

        rng = np.random.default_rng(3)
        train, *_ = write_euclidean_train(tmp_path, rng)
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        out = tmp_path / "o"
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath), "--kind", "euclidean",
                     "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[:4] == [
            "command = fit-predict",
            f"version = {frechet_svt.__version__}",
            f"numpy = {np.__version__}",
            f"python = {platform.python_version()}",
        ]

    def test_training_file_with_a_byte_order_mark(self, tmp_path):
        rng = np.random.default_rng(4)
        train, *_ = write_euclidean_train(tmp_path, rng)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + train.read_bytes())
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        for path, out in [(train, "plain"), (marked, "marked")]:
            assert main(["fit-predict", "--train", str(path), "--queries", str(qpath),
                         "--kind", "euclidean", "--lambda", "0.1", "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "marked" / "predictions.csv").read_bytes() == (
            tmp_path / "plain" / "predictions.csv"
        ).read_bytes()

    def test_auto_holdout_with_wrong_width_exits_2(self, tmp_path):
        rng = np.random.default_rng(9)
        train, *_ = write_euclidean_train(tmp_path, rng)
        holdout = tmp_path / "holdout.csv"
        rows = rng.standard_normal((5, 3))
        holdout.write_text("x1,x2,y1\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "euclidean", "--lambda", "auto", "--holdout", str(holdout),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("m, grid", [(7, None), (9, np.linspace(0.05, 0.95, 9))],
                             ids=["fewer-levels", "other-levels"])
    def test_auto_holdout_on_another_grid_exits_2(self, tmp_path, capsys, m, grid):
        rng = np.random.default_rng(17)
        train, *_ = write_wasserstein_train(tmp_path, rng, n=14)
        holdout, *_ = write_wasserstein_train(tmp_path, rng, n=10, m=m, name="whold.csv", grid=grid)
        qpath = write_queries(tmp_path, rng.standard_normal((2, 2)))
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "wasserstein", "--lambda", "auto", "--holdout", str(holdout),
                     "--grid-points", "8", "--out", str(tmp_path / "o")]) == 2
        assert f"{holdout}: holdout grid levels differ from the training grid" in capsys.readouterr().err

    def test_auto_holdout_with_other_response_width_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        train, *_ = write_euclidean_train(tmp_path, rng)
        holdout = tmp_path / "holdout.csv"
        rows = rng.standard_normal((6, 5))
        holdout.write_text("x1,x2,x3,y1,y2\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "euclidean", "--lambda", "auto", "--holdout", str(holdout),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{holdout}: holdout responses have shape" in capsys.readouterr().err

    def test_nan_threshold_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(18)
        train, *_ = write_euclidean_train(tmp_path, rng)
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "euclidean", "--lambda", "nan", "--out", str(tmp_path / "o")]) == 2
        assert "--lambda must be a nonnegative number" in capsys.readouterr().err
        assert not (tmp_path / "o" / "predictions.csv").exists()

    def test_one_row_training_file_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        train, *_ = write_euclidean_train(tmp_path, rng, n=1)
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "euclidean", "--lambda", "0", "--out", str(tmp_path / "o")]) == 2
        assert f"{train}: training file needs at least two data rows" in capsys.readouterr().err

    def test_one_row_holdout_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        train, *_ = write_euclidean_train(tmp_path, rng)
        holdout, *_ = write_euclidean_train(tmp_path, rng, n=1, name="holdout.csv")
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "euclidean", "--lambda", "auto", "--holdout", str(holdout),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{holdout}: holdout file needs at least two data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_grid_points_below_one_exits_2(self, tmp_path, capsys, points):
        rng = np.random.default_rng(15)
        train, *_ = write_euclidean_train(tmp_path, rng)
        holdout, *_ = write_euclidean_train(tmp_path, rng, name="holdout.csv")
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "euclidean", "--lambda", "auto", "--holdout", str(holdout),
                     "--grid-points", points, "--out", str(tmp_path / "o")]) == 2
        assert "--grid-points must be at least 1" in capsys.readouterr().err

    def test_auto_with_constant_covariates_exits_2(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("x1,x2,y1\n1,2,0.5\n1,2,1.5\n1,2,-0.25\n")
        qpath = write_queries(tmp_path, np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "euclidean", "--lambda", "auto", "--holdout", str(train),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{train}: training covariates are constant" in capsys.readouterr().err
        assert not (tmp_path / "o" / "predictions.csv").exists()

    def test_wasserstein_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        train, x, q, grid = write_wasserstein_train(tmp_path, rng)
        queries = rng.standard_normal((3, 2))
        qpath = write_queries(tmp_path, queries)
        out = tmp_path / "out"
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "wasserstein", "--lambda", "0.1", "--out", str(out)]) == 0
        # re-ingest predictions as responses: distances must agree exactly
        none_x, preds, space = read_dataset(out / "predictions.csv", "wasserstein")
        assert none_x is None
        assert np.allclose(space.grid, grid)
        from frechet_svt.regression import Dataset, fit

        model = fit(Dataset(x, q, space), 0.1)
        direct = model.predict_many(queries)
        assert np.array_equal(space.distances_to(preds, direct[0]), space.distances_to(direct, direct[0]))

    def test_correlation_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        from oracles import random_correlation_matrix

        n, p, r = 10, 2, 3
        x = rng.standard_normal((n, p))
        mats = np.stack([random_correlation_matrix(r, rng) for _ in range(n)])
        train = tmp_path / "ctrain.csv"
        header = [f"x{i}" for i in range(1, p + 1)]
        header += [f"c{i}{j}" for i in range(1, r + 1) for j in range(1, r + 1)]
        with open(train, "w") as fh:
            fh.write(",".join(header) + "\n")
            for xi, mi in zip(x, mats):
                cells = [repr(float(v)) for v in xi] + [repr(float(v)) for v in mi.ravel()]
                fh.write(",".join(cells) + "\n")
        qpath = write_queries(tmp_path, rng.standard_normal((2, p)))
        out = tmp_path / "out"
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "correlation", "--lambda", "0.05", "--out", str(out)]) == 0
        none_x, preds, space = read_dataset(out / "predictions.csv", "correlation")
        assert none_x is None
        assert preds.shape == (2, r, r)
        for mat in preds:  # outputs are valid correlation matrices
            assert np.allclose(np.diag(mat), 1.0, atol=1e-10)
            assert np.linalg.eigvalsh(mat)[0] >= -1e-8

    def test_wasserstein_auto_lambda(self, tmp_path):
        rng = np.random.default_rng(9)
        train, *_ = write_wasserstein_train(tmp_path, rng, n=14)
        holdout, *_ = write_wasserstein_train(tmp_path, rng, n=10, name="whold.csv")
        qpath = write_queries(tmp_path, rng.standard_normal((2, 2)))
        out = tmp_path / "out"
        code = main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "wasserstein", "--lambda", "auto", "--holdout", str(holdout),
                     "--grid-points", "8", "--out", str(out)])
        assert code == 0
        first = (out / "predictions.csv").read_text().splitlines()[0]
        assert first.startswith("# lambda_hat = ")

    def test_non_finite_input_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        train, *_ = write_euclidean_train(tmp_path, rng)
        bad = tmp_path / "badq.csv"
        bad.write_text("x1,x2,x3\n0.1,inf,0.3\n")
        code = main(["fit-predict", "--train", str(train), "--queries", str(bad),
                     "--kind", "euclidean", "--lambda", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_non_monotone_quantiles_rejected_with_row(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        train, *_ = write_wasserstein_train(tmp_path, rng, corrupt_row=4)
        qpath = write_queries(tmp_path, rng.standard_normal((2, 2)))
        code = main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "wasserstein", "--lambda", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "row 7" in capsys.readouterr().err  # header + grid row + 4 data rows

    def test_non_psd_correlation_rejected_with_row(self, tmp_path, capsys):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        mats = [np.eye(3), np.eye(3), bad, np.eye(3)]
        train = tmp_path / "ctrain.csv"
        header = ["x1"] + [f"c{i}{j}" for i in range(1, 4) for j in range(1, 4)]
        with open(train, "w") as fh:
            fh.write(",".join(header) + "\n")
            for i, m in enumerate(mats):
                fh.write(",".join([repr(float(i))] + [repr(float(v)) for v in m.ravel()]) + "\n")
        qpath = write_queries(tmp_path, np.zeros((1, 1)))
        code = main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "correlation", "--lambda", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 4" in err and "positive semidefinite" in err  # header + 2 good rows

    def test_short_query_row_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        train, *_ = write_euclidean_train(tmp_path, rng)
        bad = tmp_path / "shortq.csv"
        bad.write_text("x1,x2,x3\n0.1,0.2,0.3\n0.1,0.2\n")
        code = main(["fit-predict", "--train", str(train), "--queries", str(bad),
                     "--kind", "euclidean", "--lambda", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    def test_blank_covariates_in_first_query_row_exits_2(self, tmp_path, capsys):
        # y columns have no grid row, so a first row with blank covariates is bad data, not a grid row
        rng = np.random.default_rng(13)
        train, *_ = write_euclidean_train(tmp_path, rng)
        bad = tmp_path / "blankq.csv"
        bad.write_text("x1,x2,x3,y1\n,,,5.0\n1,2,3,3\n3,4,5,5\n")
        code = main(["fit-predict", "--train", str(train), "--queries", str(bad),
                     "--kind", "euclidean", "--lambda", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "row 2: column x1" in capsys.readouterr().err

    def test_kind_mismatch_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        train, *_ = write_euclidean_train(tmp_path, rng)
        qpath = write_queries(tmp_path, rng.standard_normal((2, 3)))
        assert main(["fit-predict", "--train", str(train), "--queries", str(qpath),
                     "--kind", "wasserstein", "--lambda", "0", "--out", str(tmp_path / "o")]) == 2


class TestReadCovariates:
    def test_short_row_is_a_schema_error(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0\n")
        with pytest.raises(SchemaError, match="row 3"):
            read_covariates(path)

    def test_row_numbers_count_the_skipped_grid_row(self, tmp_path):
        rng = np.random.default_rng(12)
        path, *_ = write_wasserstein_train(tmp_path, rng, n=4)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "oops"
        lines[2] = ",".join(cells)  # first data row, file row 3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="row 3: column x2"):
            read_covariates(path)


def run_python(*args, **env):
    """Run a fresh interpreter on this checkout's package, with extra environment variables.

    A variable given as None is removed from the environment.
    """
    src = str(Path(frechet_svt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in {**os.environ, "PYTHONPATH": path, **env}.items() if v is not None}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture
def forked_workers():
    """Pool workers start by fork, so they see what a test replaced; the start method set before comes back."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("a replaced function reaches the workers only by fork")
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    yield
    multiprocessing.set_start_method(before, force=True)


class TestWorkerCount:
    def test_default_counts_the_cores_this_process_may_run_on(self, monkeypatch):
        import frechet_svt.cli as cli

        monkeypatch.delenv(cli.THREADS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert cli._worker_count() == 2

    def test_default_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        import frechet_svt.cli as cli

        monkeypatch.delenv(cli.THREADS_ENV, raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert cli._worker_count() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._worker_count() == 1

    def test_environment_overrides_the_default(self, monkeypatch):
        import frechet_svt.cli as cli

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setenv(cli.THREADS_ENV, "5")
        assert cli._worker_count() == 5


# A desk-scale design (n = 100, p = 150) whose tables, before the program
# set BLAS to one thread itself, changed with OPENBLAS_NUM_THREADS.
BLAS_SENSITIVE_CONFIG = """\
[campaign]
master_seed = 1
trials = 2
test_size = 100
eval_points = 10
quantile_points = 101
sigma_eps = 0.05
lambda_points = 40

[cell:gaussian]
n = 100
p = 150
noise_kind = gaussian
"""


class TestBlasThreads:
    def test_tables_do_not_depend_on_the_blas_environment(self, tmp_path):
        cfg = write_config(tmp_path, BLAS_SENSITIVE_CONFIG)
        runs = [("1", None), ("1", "1"), ("1", "2"), ("2", None)]  # (workers, OPENBLAS_NUM_THREADS)
        tables = []
        for workers, blas in runs:
            out = tmp_path / f"out-{workers}-{blas}"
            done = run_python(
                "-m", "frechet_svt", "simulate", "--config", str(cfg), "--out", str(out),
                FRECHET_SVT_THREADS=workers, OPENBLAS_NUM_THREADS=blas,
            )
            assert done.returncode == 0, done.stderr
            tables.append([(out / name).read_bytes() for name in ("results.csv", "profile.csv")])
            manifest = (out / "manifest.txt").read_text().splitlines()
            assert "blas_threads = 1" in manifest
            assert any(line.startswith("blas = ") and "openblas" in line for line in manifest)
        assert all(t == tables[0] for t in tables[1:])


class TestColdStart:
    def test_import_loads_no_scipy(self):
        # Nor the process pool: only a simulate with more than one worker starts one.
        code = (
            "import sys, frechet_svt, frechet_svt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing') "
            "or m == 'concurrent.futures.process'))"
        )
        done = run_python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_sweeps_load_no_masked_arrays(self, tmp_path):
        # np.unique and np.median import numpy.ma, which costs every process
        # that sweeps a threshold grid time and memory for nothing.
        rng = np.random.default_rng(2)
        train, *_ = write_euclidean_train(tmp_path, rng)
        holdout, *_ = write_euclidean_train(tmp_path, rng, name="holdout.csv")
        queries = write_queries(tmp_path, rng.standard_normal((2, 3)))
        calls = [
            ["simulate", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "sim")],
            ["fit-predict", "--train", str(train), "--queries", str(queries), "--kind", "euclidean",
             "--lambda", "auto", "--holdout", str(holdout), "--out", str(tmp_path / "fit")],
        ]
        code = (
            "import sys; from frechet_svt.cli import main; "
            f"codes = [main(argv) for argv in {calls!r}]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
        )
        done = run_python("-c", code, FRECHET_SVT_THREADS="1")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0] []"

    @staticmethod
    def run_commands_and_probe(tmp_path, name, preload_hashlib):
        """simulate (smoke, two workers) and verify-lemmas through one fresh ``main``; the probe as a dict."""
        calls = [
            ["simulate", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / name)],
            ["verify-lemmas", "--instances", "3"],
        ]
        code = (
            ("import hashlib\n" if preload_hashlib else "")
            + "import json, sys\n"
            "from frechet_svt.cli import main\n"
            "eager = 'numpy.random' in sys.modules\n"
            f"codes = [main(argv) for argv in {calls!r}]\n"
            "with open('/proc/self/maps') as fh:\n"
            "    libcrypto = 'libcrypto' in fh.read()\n"
            "import hashlib\n"
            "print(json.dumps({'eager': eager, 'codes': codes, 'libcrypto': libcrypto,\n"
            "                  'blocked': sys.modules.get('_hashlib', False) is None,\n"
            "                  'sha256': hashlib.sha256(b'abc').hexdigest()}))\n"
        )
        done = run_python("-c", code, FRECHET_SVT_THREADS="2")
        assert done.returncode == 0, done.stderr
        probe = json.loads(done.stdout.splitlines()[-1])
        assert probe["codes"] == [0, 0]
        probe["tables"] = [(tmp_path / name / t).read_bytes() for t in ("results.csv", "profile.csv")]
        return probe

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
    def test_commands_keep_openssl_out_of_the_process(self, tmp_path):
        if importlib.util.find_spec("_hashlib") is None:
            pytest.skip("this Python has no OpenSSL module")
        # Control: an interpreter that imported hashlib before main keeps OpenSSL.
        kept = self.run_commands_and_probe(tmp_path, "kept", preload_hashlib=True)
        if not kept["libcrypto"]:
            pytest.skip("this Python maps no libcrypto library even with hashlib loaded")
        assert not kept["blocked"]
        fresh = self.run_commands_and_probe(tmp_path, "fresh", preload_hashlib=False)
        if fresh["eager"]:
            pytest.skip("numpy loaded numpy.random at import, before main could block OpenSSL")
        assert fresh["blocked"]
        assert not fresh["libcrypto"]
        # The built-in digests give the standard answers, and the tables do not change.
        sha256_abc = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        assert fresh["sha256"] == kept["sha256"] == sha256_abc
        assert fresh["tables"] == kept["tables"]

    def test_version_exits_0(self):
        done = run_python("-m", "frechet_svt", "--version")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == frechet_svt.__version__


_EXTREMES = [sign * v for sign in (1.0, -1.0) for v in (0.0, 5e-324, 1e-300, 1e-8, 1.0, 1e8, 1e150, 1e300, 1.7e308)]
# The campaign floats, each with the values a config accepts for it.
_CAMPAIGN_FLOATS = {
    "sigma_eps": lambda v: v >= 0,
    "sigma_eta": lambda v: v >= 0,
    "alpha_intercept": lambda v: True,
    "ig_shape": lambda v: v > 2,
    "ig_scale": lambda v: v > 0,
    "condition_number": lambda v: v > 1,
}
_CAMPAIGN_FLOAT_DRAWS = st.one_of(
    # Any extreme value for every field: nearly every draw is a config error ...
    st.fixed_dictionaries({name: st.sampled_from(_EXTREMES) for name in _CAMPAIGN_FLOATS}),
    # ... so as many draws take only accepted values, and reach the trials.
    st.fixed_dictionaries(
        {name: st.sampled_from([v for v in _EXTREMES if ok(v)]) for name, ok in _CAMPAIGN_FLOATS.items()}
    ),
)
_CAMPAIGN_MODELS = ["model = wasserstein", *(f"model = linear\nmetric = {m}" for m in ("euclidean", "l1", "linf"))]


class TestSolverExitCode:
    def test_dead_worker_exits_3_naming_the_trial(self, tmp_path):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the replaced trial reaches the workers only by fork")
        # A forked worker runs the replaced trial function, which ends the worker at once.
        argv = ["simulate", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o")]
        code = (
            "import multiprocessing, os, sys\n"
            "import frechet_svt.simulation as sim\n"
            "from frechet_svt.cli import main\n"
            "multiprocessing.set_start_method('fork', force=True)\n"
            "def die(config, b):\n"
            "    os._exit(1)\n"
            "sim._run_trial = die\n"
            f"sys.exit(main({argv!r}))\n"
        )
        done = run_python("-c", code, FRECHET_SVT_THREADS="2")
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith(
            "solver error: cell smoke: a worker process died while trial 0 was still unread:"
            " A process in the process pool was terminated abruptly"
        ), done.stderr
        assert "Traceback" not in done.stderr

    @staticmethod
    def assert_overflow_exit(done):
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("solver error: "), done.stderr
        assert "overflow" in done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr

    def test_fit_predict_on_overflowing_covariance_exits_3(self, tmp_path):
        # Covariates near 1e200 are finite, but the covariance eigenvalues
        # overflow; this once kept no component and printed the mean.
        rng = np.random.default_rng(11)
        train, *_ = write_euclidean_train(tmp_path, rng, n=20, scale=1e200)
        queries = write_queries(tmp_path, 1e200 * rng.standard_normal((4, 3)))
        done = run_python(
            "-m", "frechet_svt", "fit-predict", "--train", str(train),
            "--queries", str(queries), "--kind", "euclidean", "--out", str(tmp_path / "o"),
        )
        self.assert_overflow_exit(done)
        assert not (tmp_path / "o" / "predictions.csv").exists()

    @pytest.mark.parametrize("kind", ["euclidean", "l1"])
    def test_fit_predict_with_overflowing_responses_exits_3(self, tmp_path, kind):
        # Responses up to 1.7e308 are finite, but their blends overflow; this
        # once exited 0 with inf and nan predictions after RuntimeWarnings.
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 3))
        y = 1.7e308 * rng.uniform(-1.0, 1.0, (20, 2))
        y[0, 0] = 1.7e308
        train = tmp_path / "train.csv"
        with open(train, "w") as fh:
            fh.write("x1,x2,x3,y1,y2\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in np.column_stack([x, y]).tolist())
        queries = write_queries(tmp_path, rng.standard_normal((3, 3)))
        out = tmp_path / "o"
        done = run_python(
            "-m", "frechet_svt", "fit-predict", "--train", str(train), "--queries", str(queries),
            "--kind", kind, "--lambda", "0", "--out", str(out),
        )
        self.assert_overflow_exit(done)
        assert "RuntimeWarning" not in done.stderr
        assert not (out / "predictions.csv").exists()

    def test_simulate_with_overflowing_noise_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, SMOKE_CONFIG + "sigma_eps = 1e300\n")
        done = run_python(
            "-m", "frechet_svt", "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
            FRECHET_SVT_THREADS="1",
        )
        self.assert_overflow_exit(done)
        assert "trial 0 failed" in done.stderr

    def test_simulate_with_overflowing_intercept_writes_no_table(self, tmp_path):
        # Responses near 1e308 are finite, but their blends and distances
        # overflow; this once exited 0 with inf and nan in both tables, and
        # later exited 3 after printing numpy RuntimeWarnings. The trial now
        # fails at the overflow, in a pool worker as in the main process.
        cfg = write_config(tmp_path, SMOKE_CONFIG + "alpha_intercept = 1e308\n")
        for workers in ("1", "2"):
            out = tmp_path / f"o{workers}"
            done = run_python(
                "-m", "frechet_svt", "simulate", "--config", str(cfg), "--out", str(out),
                FRECHET_SVT_THREADS=workers,
            )
            self.assert_overflow_exit(done)
            assert "cell smoke: trial 0 failed" in done.stderr
            assert "RuntimeWarning" not in done.stderr
            assert not (out / "results.csv").exists() and not (out / "profile.csv").exists()

    def test_degenerate_cell_exits_3_naming_the_cell(self, tmp_path):
        # At this intercept the response noise rounds away, so every response
        # is one point and the null model's test error, the profile's
        # divisor, is 0. This once ended in a bare "invalid value
        # encountered in divide".
        cfg = write_config(tmp_path, """\
[campaign]
trials = 2
test_size = 4
eval_points = 2
quantile_points = 5
lambda_points = 3
alpha_intercept = -1e150

[cell:flat]
n = 6
p = 3
""")
        out = tmp_path / "o"
        done = run_python(
            "-m", "frechet_svt", "simulate", "--config", str(cfg), "--out", str(out), FRECHET_SVT_THREADS="1"
        )
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("solver error: profile.csv: cell flat: "), done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr
        assert not (out / "results.csv").exists() and not (out / "profile.csv").exists()

    def test_non_finite_table_value_writes_no_table(self, tmp_path, capsys, monkeypatch):
        # A value that reaches a table non-finite without raising on the way
        # is caught before either table is written.
        import dataclasses

        import frechet_svt.cli as cli

        def with_nan(configs, workers=1):
            cells = run_campaign(configs, workers=workers)
            profile = dataclasses.replace(cells[0].profile, eiv=float("nan"))
            return [dataclasses.replace(cells[0], profile=profile), *cells[1:]]

        run_campaign = cli.run_campaign
        monkeypatch.setattr(cli, "run_campaign", with_nan)
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(out)])
        assert code == 3
        assert "solver error: profile.csv: cell smoke, estimator EIV, column nmspe is nan" in capsys.readouterr().err
        assert not (out / "results.csv").exists() and not (out / "profile.csv").exists()

    def test_non_finite_results_value_writes_no_table(self, tmp_path, capsys, monkeypatch):
        # The results.csv half of the check: a value of the first table is caught too.
        import dataclasses

        import frechet_svt.cli as cli

        def with_inf(configs, workers=1):
            cells = run_campaign(configs, workers=workers)
            report = cells[0].report
            report = dataclasses.replace(report, mspe={**report.mspe, "EIV": float("inf")})
            return [dataclasses.replace(cells[0], report=report), *cells[1:]]

        run_campaign = cli.run_campaign
        monkeypatch.setattr(cli, "run_campaign", with_inf)
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(out)])
        assert code == 3
        assert "solver error: results.csv: cell smoke, estimator EIV, column mspe is inf" in capsys.readouterr().err
        assert not (out / "results.csv").exists() and not (out / "profile.csv").exists()

    # What numpy raises for an array it cannot allocate; no test allocates for real.
    NO_MEMORY = "Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type float64"

    def refuse_memory(self, *args, **kwargs):
        raise MemoryError(self.NO_MEMORY)

    def test_simulate_out_of_memory_exits_3_naming_the_command(self, tmp_path, capsys, monkeypatch):
        import frechet_svt.simulation as sim

        monkeypatch.setenv("FRECHET_SVT_THREADS", "1")
        monkeypatch.setattr(sim, "lambda_grid", self.refuse_memory)  # the grid np.linspace allocates
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"solver error: simulate ran out of memory: {self.NO_MEMORY}\n"
        assert not (out / "results.csv").exists() and not (out / "profile.csv").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_simulate_out_of_memory_in_a_trial_names_the_cell_and_trial(
        self, tmp_path, capsys, monkeypatch, forked_workers, workers
    ):
        monkeypatch.setenv("FRECHET_SVT_THREADS", workers)
        monkeypatch.setattr(regression, "_blend_path", self.refuse_memory)  # a trial's affine blends
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"solver error: cell smoke: trial 0 ran out of memory: {self.NO_MEMORY}\n"
        assert not (out / "results.csv").exists() and not (out / "profile.csv").exists()

    @pytest.mark.parametrize("kind", ["euclidean", "l1"])
    def test_fit_predict_out_of_memory_exits_3_naming_the_command(self, tmp_path, capsys, monkeypatch, kind):
        rng = np.random.default_rng(12)
        train, *_ = write_euclidean_train(tmp_path, rng, n=20)
        queries = write_queries(tmp_path, rng.standard_normal((4, 3)))
        # The rank path allocates the affine blends, the weights feed the l1 solver's work arrays.
        monkeypatch.setattr(regression, "_blend_path" if kind == "euclidean" else "rank_weights", self.refuse_memory)
        out = tmp_path / "o"
        argv = ["fit-predict", "--train", str(train), "--queries", str(queries), "--kind", kind, "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"solver error: fit-predict ran out of memory: {self.NO_MEMORY}\n"
        assert not (out / "predictions.csv").exists()

    def test_diagnose_with_overflowing_threshold_and_query_exits_3(self, tmp_path):
        # A finite threshold and query near 1e308 overflow in the bias term
        # and the weight check; this once exited 0 with inf and nan in the table.
        rng = np.random.default_rng(7)
        train, x, *_ = write_euclidean_train(tmp_path, rng, n=20)
        noisy = write_queries(tmp_path, x + 0.01 * rng.standard_normal(x.shape), name="noisy.csv")
        out = tmp_path / "o"
        done = run_python(
            "-m", "frechet_svt", "diagnose", "--train", str(train), "--noisy", str(noisy),
            "--kind", "euclidean", "--lambda", "1e308", "--x=1e308,1e308,1e308", "--out", str(out),
        )
        self.assert_overflow_exit(done)
        assert "RuntimeWarning" not in done.stderr
        assert not (out / "diagnostics.csv").exists()

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        exponents=st.lists(st.integers(-300, 300), min_size=3, max_size=3),
        kind=st.sampled_from(["euclidean", "l1"]),
        lam=st.sampled_from(["0", "1", "1e300"]),
    )
    @example(seed=0, exponents=[300, 300, 300], kind="euclidean", lam="0")
    @example(seed=1, exponents=[-300, -300, -300], kind="l1", lam="0")
    @example(seed=2, exponents=[-300, 0, 300], kind="euclidean", lam="1")
    def test_fit_predict_on_extreme_covariates_exits_cleanly(self, tmp_path_factory, seed, exponents, kind, lam):
        # Finite covariates and queries of any magnitude either predict
        # finite values or exit with a documented code, with no warning.
        tmp_path = tmp_path_factory.mktemp("extreme")
        rng = np.random.default_rng(seed)
        scale = 10.0 ** np.array(exponents, dtype=float)
        x = scale * rng.standard_normal((20, 3))
        train = tmp_path / "train.csv"
        with open(train, "w") as fh:
            fh.write("x1,x2,x3,y1,y2\n")
            rows = np.column_stack([x, rng.standard_normal((20, 2))]).tolist()
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
        queries = write_queries(tmp_path, scale * rng.standard_normal((4, 3)))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(
                ["fit-predict", "--train", str(train), "--queries", str(queries),
                 "--kind", kind, "--lambda", lam, "--out", str(out)]
            )
        assert code in (0, 2, 3)
        if code == 0:
            preds = np.array([[float(v) for v in r] for r in read_csv_rows(out / "predictions.csv")[1:]])
            assert preds.shape == (4, 2) and np.all(np.isfinite(preds))
        else:
            assert not (out / "predictions.csv").exists()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        floats=_CAMPAIGN_FLOAT_DRAWS,
        model=st.sampled_from(_CAMPAIGN_MODELS),
    )
    # The truth's mean scale once overflowed lgamma here: a traceback and exit 1.
    @example(
        floats={"sigma_eps": 1e-300, "sigma_eta": 1.0, "alpha_intercept": 1.0,
                "ig_shape": 1.7e308, "ig_scale": 1.7e308, "condition_number": 1e8},
        model="model = wasserstein",
    )
    def test_simulate_on_extreme_campaign_floats_exits_cleanly(self, tmp_path_factory, floats, model):
        # Finite campaign floats of any magnitude either give tables of
        # finite values or exit with a documented code, writing no table and
        # no warning.
        tmp_path = tmp_path_factory.mktemp("extreme-sim")
        lines = [f"{name} = {value!r}" for name, value in floats.items()]
        cfg = write_config(tmp_path, "\n".join([
            "[campaign]", "master_seed = 0", "trials = 2", "test_size = 3", "eval_points = 2",
            "quantile_points = 5", "lambda_points = 2", *lines, "[cell:c]", "n = 6", "p = 3", model, "",
        ]))
        out = tmp_path / "o"
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            mp.setenv("FRECHET_SVT_THREADS", "1")
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        tables = [out / "results.csv", out / "profile.csv"]
        if code == 0:
            for table in tables:
                with open(table, newline="") as fh:
                    for row in csv.DictReader(fh):
                        for column, value in row.items():
                            if column not in ("noise_kind", "estimator", "cell"):
                                assert np.isfinite(float(value)), (table.name, column, value)
        else:
            assert not any(table.exists() for table in tables)


class TestDiagnoseCommand:
    def run_diagnose(self, tmp_path, noisy_name="noisy.csv", lam="0.1", corrupt=False):
        rng = np.random.default_rng(7)
        train, x, y, beta = write_euclidean_train(tmp_path, rng, n=20)
        noisy = x if not corrupt else x + 0.01 * rng.standard_normal(x.shape)
        npath = write_queries(tmp_path, noisy, name=noisy_name)
        out = tmp_path / "out"
        query = ",".join(repr(float(v)) for v in x.mean(axis=0))
        code = main(["diagnose", "--train", str(train), "--noisy", str(npath),
                     "--kind", "euclidean", "--lambda", lam, "--x=" + query, "--out", str(out)])
        assert code == 0
        rows = read_csv_rows(out / "diagnostics.csv")
        return dict(zip(rows[0], rows[1]))

    def test_zero_noise_diagnostics(self, tmp_path):
        record = self.run_diagnose(tmp_path)
        assert float(record["noise_norm"]) == 0.0
        assert float(record["snr_reciprocal"]) == 0.0
        assert float(record["bound_rhs"]) == 0.0
        assert float(record["observed_lhs"]) <= 1e-12
        assert record["rowspace_ok"] == "true"

    def test_noisy_pair_respects_bounds(self, tmp_path):
        record = self.run_diagnose(tmp_path, corrupt=True)
        assert record["precondition_ok"] == "true"
        assert float(record["observed_lhs"]) <= float(record["bound_rhs"]) + 1e-12
        assert float(record["weight_lhs"]) <= float(record["weight_rhs"]) + 1e-12

    def test_threshold_above_spectrum_serializes_inf(self, tmp_path):
        record = self.run_diagnose(tmp_path, corrupt=True, lam="1000.0")
        assert record["signal_floor"] == "inf"
        assert record["bound_rhs"] == "inf"

    @pytest.mark.parametrize("lam, query, message", [
        ("nan", "0,0,0", "--lambda must be a nonnegative number"),
        ("0.1", "nan,0,0", "--x must be finite"),
    ], ids=["nan-threshold", "nan-query"])
    def test_non_finite_argument_exits_2(self, tmp_path, capsys, lam, query, message):
        rng = np.random.default_rng(19)
        train, x, *_ = write_euclidean_train(tmp_path, rng)
        npath = write_queries(tmp_path, x, name="noisy.csv")
        code = main(["diagnose", "--train", str(train), "--noisy", str(npath), "--kind", "euclidean",
                     "--lambda", lam, "--x=" + query, "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "diagnostics.csv").exists()

    @staticmethod
    def write_linear_pair(tmp_path, x, rng):
        """A training file with linear responses on ``x``, and a noisy copy of ``x``."""
        n, p = x.shape
        train = tmp_path / "train.csv"
        with open(train, "w") as fh:
            fh.write(",".join(f"x{i}" for i in range(1, p + 1)) + ",y1\n")
            for xi, yi in zip(x, x @ rng.standard_normal(p)):
                fh.write(",".join(repr(float(v)) for v in xi) + f",{float(yi)!r}\n")
        return train, write_queries(tmp_path, x + 0.01 * rng.standard_normal((n, p)), name="noisy.csv")

    def test_query_outside_the_row_space(self, tmp_path):
        # The bounds' precondition fails: flagged, and the weight check is skipped.
        rng = np.random.default_rng(22)
        x = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 10))
        train, npath = self.write_linear_pair(tmp_path, x, rng)
        query = ",".join(repr(float(v)) for v in x.mean(axis=0) + rng.standard_normal(10))
        out = tmp_path / "out"
        code = main(["diagnose", "--train", str(train), "--noisy", str(npath), "--kind", "euclidean",
                     "--lambda", "0.1", "--x=" + query, "--out", str(out)])
        assert code == 0
        header, row = read_csv_rows(out / "diagnostics.csv")
        record = dict(zip(header, row))
        assert record["rowspace_ok"] == record["precondition_ok"] == "false"
        assert record["weight_lhs"] == record["weight_rhs"] == "nan"
        assert np.isfinite(float(record["bound_rhs"]))

    def test_one_svd_per_design_and_no_eigh(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(20)
        n, p = 200, 10
        x = rng.standard_normal((n, p)) * np.geomspace(1.0, 0.1, p)
        train, npath = self.write_linear_pair(tmp_path, x, rng)
        query = ",".join(repr(float(v)) for v in x.mean(axis=0))
        calls = {"svd": 0, "eigh": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        code = main(["diagnose", "--train", str(train), "--noisy", str(npath), "--kind", "euclidean",
                     "--lambda", "0.05", "--x=" + query, "--out", str(tmp_path / "o")])
        assert code == 0
        # X, Z and the noise Z - X once each.
        assert calls["svd"] == 3
        assert calls["eigh"] == 0

    def test_one_row_training_file_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(16)
        train, x, *_ = write_euclidean_train(tmp_path, rng, n=1)
        npath = write_queries(tmp_path, x, name="noisy.csv")
        code = main(["diagnose", "--train", str(train), "--noisy", str(npath), "--kind", "euclidean",
                     "--lambda", "0.1", "--x=0,0,0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{train}: training file needs at least two data rows" in capsys.readouterr().err


class TestUnusablePaths:
    """Input files that cannot be read and --out paths that cannot be directories exit 2."""

    def argv(self, tmp_path, command, **paths):
        rng = np.random.default_rng(21)
        train, x, *_ = write_euclidean_train(tmp_path, rng)
        covariates = write_queries(tmp_path, x, name="covariates.csv")
        files = {"train": train, "queries": covariates, "noisy": covariates, "out": tmp_path / "o", **paths}
        return {
            "simulate": ["simulate", "--config", str(write_config(tmp_path))],
            "fit-predict": ["fit-predict", "--train", str(files["train"]), "--queries", str(files["queries"]),
                            "--kind", "euclidean", "--lambda", "0"],
            "diagnose": ["diagnose", "--train", str(files["train"]), "--noisy", str(files["noisy"]),
                         "--kind", "euclidean", "--lambda", "0.1", "--x=0,0,0"],
            "verify-lemmas": ["verify-lemmas", "--instances", "2"],
        }[command] + ["--out", str(files["out"])]

    @pytest.mark.parametrize("command, role", [
        ("fit-predict", "train"), ("fit-predict", "queries"), ("diagnose", "noisy"),
    ])
    def test_missing_input_file_exits_2(self, tmp_path, capsys, command, role):
        missing = tmp_path / "missing.csv"
        assert main(self.argv(tmp_path, command, **{role: missing})) == 2
        assert f"error: {missing}: cannot read" in capsys.readouterr().err

    def test_directory_as_training_file_exits_2(self, tmp_path, capsys):
        assert main(self.argv(tmp_path, "fit-predict", train=tmp_path)) == 2
        assert f"error: {tmp_path}: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"x1,x2,x3,y1\n0.5,1.0,2.0,caf\xe9\n",
        b"x1,x2,x3,y1\n" + b"1" * 200_000 + b",1.0,2.0,3.0\n",
    ], ids=["non-utf8-byte", "field-over-csv-limit"])
    def test_undecodable_training_file_exits_2(self, tmp_path, capsys, content):
        train = tmp_path / "bad.csv"
        train.write_bytes(content)
        assert main(self.argv(tmp_path, "fit-predict", train=train)) == 2
        assert f"error: {train}: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "fit-predict", "diagnose", "verify-lemmas"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "path-under-file"])
    def test_out_on_a_file_exits_2_before_computing(self, tmp_path, capsys, command, under):
        blocker = tmp_path / "ok.csv"
        blocker.write_text("keep\n")
        out = blocker / "run" if under else blocker
        assert main(self.argv(tmp_path, command, out=out)) == 2
        captured = capsys.readouterr()
        assert f"error: --out {str(out)!r} is not a usable directory" in captured.err
        assert captured.out == ""  # every command prints only after it computes
        assert blocker.read_text() == "keep\n"

    @pytest.mark.parametrize("command, blocked, kept", [
        ("simulate", "manifest.txt", []),
        ("simulate", "profile.csv", ["manifest.txt", "results.csv"]),
        ("fit-predict", "predictions.csv", ["manifest.txt"]),
    ])
    def test_output_file_that_cannot_be_written_exits_2(self, tmp_path, command, blocked, kept):
        # A directory in the place of an output file; this once ended in an
        # IsADirectoryError traceback with exit 1.
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        done = run_python("-m", "frechet_svt", *self.argv(tmp_path, command, out=out), FRECHET_SVT_THREADS="1")
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ") and str(out / blocked) in done.stderr, done.stderr
        assert "Traceback" not in done.stderr
        assert sorted(f.name for f in out.iterdir() if f.is_file()) == kept


class TestInputFaults:
    """Each input fault exits 2 with one ``error:`` line, no traceback and no ``--out`` directory."""

    # id: (argv, error message, environment); {name} stands for a file of ``files``.
    CASES = {
        "queries of another width": (
            "fit-predict --train {train} --queries {narrow} --kind euclidean",
            "queries have 2 covariates but training data has 3", {},
        ),
        "training file without covariates": (
            "fit-predict --train {responses} --queries {queries} --kind euclidean",
            "{responses}: training file has no covariate columns", {},
        ),
        "lambda not a number": (
            "fit-predict --train {train} --queries {queries} --kind euclidean --lambda abc",
            "--lambda must be a number or 'auto', got 'abc'", {},
        ),
        "holdout of another width": (
            "fit-predict --train {train} --queries {queries} --kind euclidean --lambda auto --holdout {narrow}",
            "holdout has 2 covariates but training data has 3", {},
        ),
        "noisy file of another shape": (
            "diagnose --train {train} --noisy {narrow} --kind euclidean --lambda 0.1 --x=0,0,0",
            "noisy covariates (30, 2) do not match training (30, 3)", {},
        ),
        "x words": (
            "diagnose --train {train} --noisy {train} --kind euclidean --lambda 0.1 --x=a,b,c",
            "--x must be comma-separated numbers, got 'a,b,c'", {},
        ),
        "x empty entries": (
            "diagnose --train {train} --noisy {train} --kind euclidean --lambda 0.1 --x=,",
            "--x must be comma-separated numbers, got ','", {},
        ),
        "x too short": (
            "diagnose --train {train} --noisy {train} --kind euclidean --lambda 0.1 --x=0,0",
            "--x has 2 entries but data has 3 covariates", {},
        ),
        "config without a cell": ("simulate --config {cellless}", "config defines no cell sections", {}),
        "config that does not exist": ("simulate --config {missing}", "cannot read config file {missing}", {}),
        "empty dataset file": (
            "fit-predict --train {empty} --queries {queries} --kind euclidean",
            "{empty}: empty file", {},
        ),
        "q header without its grid row": (
            "fit-predict --train {gridless} --queries {queries} --kind wasserstein",
            "{gridless}: missing companion grid row under the header", {},
        ),
        "worker count not a number": (
            "simulate --config {config}",
            "FRECHET_SVT_THREADS must be an integer, got 'abc'", {"FRECHET_SVT_THREADS": "abc"},
        ),
    }

    @staticmethod
    def files(tmp_path) -> dict:
        rng = np.random.default_rng(22)
        train, x, *_ = write_euclidean_train(tmp_path, rng)
        files = {
            "train": train,
            "queries": write_queries(tmp_path, rng.standard_normal((2, 3))),
            "config": write_config(tmp_path),
            "missing": tmp_path / "missing.cfg",
            "out": tmp_path / "o",
        }
        for name, text in [
            # two covariates and a response, as many rows as the training file
            ("narrow", "x1,x2,y1\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in x.tolist())),
            ("responses", "y1\n1.0\n2.0\n"),
            ("empty", ""),
            ("gridless", "x1,q1,q2\n"),
            ("cellless", "[campaign]\ntrials = 2\n"),
        ]:
            files[name] = tmp_path / f"{name}.txt"
            files[name].write_text(text)
        return files

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_2_naming_the_fault(self, tmp_path, capsys, monkeypatch, case):
        argv, message, env = self.CASES[case]
        files = self.files(tmp_path)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main([word.format(**files) for word in (argv + " --out {out}").split()]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message.format(**files)}\n"
        assert "Traceback" not in err
        assert not files["out"].exists()


class TestVerifyCommand:
    def test_default_run_passes(self, tmp_path, capsys):
        assert main(["verify-lemmas", "--seed", "3", "--instances", "40"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 6

    def test_fault_injection_detected(self, tmp_path, capsys):
        assert main(["verify-lemmas", "--seed", "3", "--instances", "40", "--inject-fault"]) == 4
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("instances", ["0", "-5"])
    def test_instances_below_one_exits_2(self, capsys, instances):
        assert main(["verify-lemmas", "--instances", instances]) == 2
        captured = capsys.readouterr()
        assert "--instances must be at least 1" in captured.err
        assert "pass" not in captured.out

    def test_negative_seed_exits_2(self, capsys):
        assert main(["verify-lemmas", "--seed", "-1", "--instances", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be nonnegative, got -1\n"
        assert captured.out == ""

    def test_covariate_stats_once_per_design(self, capsys, monkeypatch):
        import frechet_svt

        original = regression.covariate_stats
        calls = []

        def counting(x):
            calls.append(1)
            return original(x)

        for module in [frechet_svt, *vars(frechet_svt).values()]:
            if getattr(module, "covariate_stats", None) is original:
                monkeypatch.setattr(module, "covariate_stats", counting)
        assert main(["verify-lemmas", "--seed", "1", "--instances", "100"]) == 0
        assert capsys.readouterr().out.count("pass") == 6
        assert 0 < len(calls) <= 200  # the clean and the noisy design of each instance

    def test_report_bytes_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify-lemmas", "--seed", "3", "--instances", "40", "--out", str(out1)])
        main(["verify-lemmas", "--seed", "3", "--instances", "40", "--out", str(out2)])
        assert (out1 / "verify_report.txt").read_bytes() == (out2 / "verify_report.txt").read_bytes()
