import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import rotinf
from rotinf.cli import main

E_DIV = 1.0 / (1.0 + np.e)  # divergence of the symmetric two-point fixture


@pytest.fixture
def runner():
    return CliRunner()


def write_fixture(tmp_path):
    np.savetxt(tmp_path / "cost.csv", np.array([[0.0, 1.0], [1.0, 0.0]]), delimiter=",")
    np.savetxt(tmp_path / "r.csv", np.array([0.5, 0.5]), delimiter=",")
    np.savetxt(tmp_path / "s.csv", np.array([0.5, 0.5]), delimiter=",")
    return {name: str(tmp_path / f"{name}.csv") for name in ("cost", "r", "s")}


def test_solve_two_point_fixture(runner, tmp_path):
    paths = write_fixture(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["solve", "--cost", paths["cost"], "--r", paths["r"],
                                  "--s", paths["s"], "--lambda", "1.0",
                                  "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert abs(payload["divergence"] - E_DIV) < 1e-6
    plan = np.loadtxt(payload["plan_file"], delimiter=",")
    assert abs(plan[0, 0] - 0.5 * np.e / (1 + np.e)) < 1e-6
    assert (out / "solve_manifest.json").exists()


def test_solve_missing_file_exits_3_no_partial_output(runner, tmp_path):
    paths = write_fixture(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["solve", "--cost", str(tmp_path / "nope.csv"),
                                  "--r", paths["r"], "--s", paths["s"],
                                  "--lambda", "1.0", "--out-dir", str(out)])
    assert result.exit_code == 3
    result = runner.invoke(main, ["solve", "--grid", "2", "--r", paths["r"],
                                  "--s", str(tmp_path / "bad_s.csv"),
                                  "--lambda", "1.0", "--out-dir", str(out)])
    assert result.exit_code == 3
    assert not (out / "plan.csv").exists()


def test_solve_usage_errors(runner, tmp_path):
    paths = write_fixture(tmp_path)
    # unknown flag
    result = runner.invoke(main, ["solve", "--wat", "1"])
    assert result.exit_code == 2
    # both lambda forms
    result = runner.invoke(main, ["solve", "--cost", paths["cost"], "--r", paths["r"],
                                  "--s", paths["s"], "--lambda", "1", "--lambda0", "2"])
    assert result.exit_code == 2
    # cost and grid together
    result = runner.invoke(main, ["solve", "--cost", paths["cost"], "--grid", "2",
                                  "--r", paths["r"], "--s", paths["s"],
                                  "--lambda", "1"])
    assert result.exit_code == 2


def test_solve_convergence_error_exit_4(runner, tmp_path):
    paths = write_fixture(tmp_path)
    np.savetxt(tmp_path / "r2.csv", np.array([0.3, 0.7]), delimiter=",")
    result = runner.invoke(main, ["solve", "--cost", paths["cost"],
                                  "--r", str(tmp_path / "r2.csv"), "--s", paths["s"],
                                  "--lambda", "0.01", "--max-iter", "2",
                                  "--tol", "1e-14", "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 4
    assert not (tmp_path / "o" / "plan.csv").exists()


def test_solve_rerun_bit_identical(runner, tmp_path):
    paths = write_fixture(tmp_path)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        result = runner.invoke(main, ["solve", "--cost", paths["cost"], "--r", paths["r"],
                                      "--s", paths["s"], "--lambda0", "2.0",
                                      "--out-dir", str(out)])
        assert result.exit_code == 0
        outs.append((result.output, (out / "plan.csv").read_bytes()))
    assert outs[0][1] == outs[1][1]


def test_solve_with_grid_flags(runner, tmp_path):
    rng = np.random.default_rng(1)
    np.savetxt(tmp_path / "r4.csv", rng.dirichlet(np.ones(4)), delimiter=",")
    np.savetxt(tmp_path / "s4.csv", rng.dirichlet(np.ones(4)), delimiter=",")
    result = runner.invoke(main, ["solve", "--grid", "2", "--extent", "1.0",
                                  "--metric", "euclidean", "--p", "1",
                                  "--r", str(tmp_path / "r4.csv"),
                                  "--s", str(tmp_path / "s4.csv"),
                                  "--lambda0", "2.0", "--normalize",
                                  "--out-dir", str(tmp_path / "g")])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    plan = np.loadtxt(payload["plan_file"], delimiter=",")
    assert plan.shape == (4, 4)
    assert payload["residual"] <= 1e-9


def test_variance_and_ci(runner, tmp_path):
    paths = write_fixture(tmp_path)
    result = runner.invoke(main, ["variance", "--cost", paths["cost"], "--r", paths["r"],
                                  "--s", paths["s"], "--lambda", "1.0",
                                  "--mode", "two", "--n", "100", "--m", "100",
                                  "--gradient-out", "grad.csv",
                                  "--out-dir", str(tmp_path / "v")])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["sigma_divergence"] >= 0
    assert payload["delta"] == 0.5
    grad = np.loadtxt(payload["plan_gradient_file"], delimiter=",")
    assert grad.shape == (4, 3)

    result = runner.invoke(main, ["ci", "--cost", paths["cost"], "--r", paths["r"],
                                  "--s", paths["s"], "--lambda", "1.0",
                                  "--alpha", "0.05", "--n", "400",
                                  "--out-dir", str(tmp_path / "ci")])
    assert result.exit_code == 0, result.output
    ci = json.loads(result.output)
    assert ci["lower"] <= ci["w"] <= ci["upper"]


def test_bootstrap_requires_seed(runner, tmp_path):
    paths = write_fixture(tmp_path)
    np.savetxt(tmp_path / "data.csv", np.zeros(30, dtype=int), delimiter=",", fmt="%d")
    result = runner.invoke(main, ["bootstrap", "--data", str(tmp_path / "data.csv"),
                                  "--cost", paths["cost"], "--s", paths["s"],
                                  "--lambda", "1.0", "--B", "10"])
    assert result.exit_code == 2


def test_bootstrap_runs(runner, tmp_path):
    paths = write_fixture(tmp_path)
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "data.csv", rng.integers(0, 2, size=60), fmt="%d")
    result = runner.invoke(main, ["bootstrap", "--data", str(tmp_path / "data.csv"),
                                  "--cost", paths["cost"], "--s", paths["s"],
                                  "--lambda", "1.0", "--B", "25", "--seed", "3",
                                  "--out-dir", str(tmp_path / "b")])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    vals = np.loadtxt(payload["samples_file"], delimiter=",")
    assert vals.size == 25


def test_mc_subcommand_and_thread_invariance(runner, tmp_path):
    cfg = {"L": 2, "lambda0": [2.0], "n": [20], "replicates": 40, "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    payloads = []
    for threads, name in ((1, "m1"), (3, "m2")):
        result = runner.invoke(main, ["mc", "--config", str(cfg_path),
                                      "--threads", str(threads),
                                      "--out-dir", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
        samples = (tmp_path / name / "mc_samples_l2_n20.csv").read_bytes()
        payloads.append((json.loads(result.output)["cells"][0]["ks_normal"], samples))
    assert payloads[0][0] == payloads[1][0]
    assert payloads[0][1] == payloads[1][1]


def test_mc_requires_seed(runner, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"L": 2, "lambda0": [1.0], "n": [10],
                                    "replicates": 5}))
    result = runner.invoke(main, ["mc", "--config", str(cfg_path)])
    assert result.exit_code == 2


def write_images(tmp_path):
    ys, xs = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
    a = np.exp(-((xs - 2) ** 2 + (ys - 2) ** 2) / 4.0) + 1e-3
    b = np.exp(-((xs - 3) ** 2 + (ys - 3) ** 2) / 4.0) + 1e-3
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    np.savetxt(pa, a, delimiter=",")
    np.savetxt(pb, b, delimiter=",")
    return str(pa), str(pb)


def test_rcol_subcommand_deterministic(runner, tmp_path):
    pa, pb = write_images(tmp_path)
    curves = []
    for threads, name in ((1, "r1"), (2, "r2")):
        result = runner.invoke(main, ["rcol", "--imgA", pa, "--imgB", pb,
                                      "--resample", "150", "--lambda0", "1.0",
                                      "--band", "bootstrap", "--B", "50",
                                      "--seed", "7", "--threads", str(threads),
                                      "--out-dir", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        curves.append((tmp_path / name / "rcol_curve.csv").read_bytes())
        assert payload["n"] == 150
    assert curves[0] == curves[1]


def test_rcol_bootstrap_refuses_few_replicates(runner, tmp_path):
    pa, pb = write_images(tmp_path)
    result = runner.invoke(main, ["rcol", "--imgA", pa, "--imgB", pb,
                                  "--resample", "150", "--lambda0", "1.0",
                                  "--band", "bootstrap", "--B", "20", "--seed", "7",
                                  "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "at least 50" in result.output


def test_rcol_requires_seed(runner, tmp_path):
    pa, pb = write_images(tmp_path)
    result = runner.invoke(main, ["rcol", "--imgA", pa, "--imgB", pb,
                                  "--resample", "100", "--lambda0", "1.0"])
    assert result.exit_code == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_rcol_refuses_nonfinite_image(runner, tmp_path, bad):
    pa, pb = write_images(tmp_path)
    bad_path = tmp_path / f"{bad}.csv"
    bad_path.write_text("1,2,3\n4,%s,6\n7,8,9\n" % bad)
    start = time.perf_counter()
    result = runner.invoke(main, ["rcol", "--imgA", pa, "--imgB", str(bad_path),
                                  "--resample", "100", "--lambda0", "1.0", "--seed", "7",
                                  "--band", "none", "--out-dir", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert f"{bad}.csv: intensities must be finite" in result.stderr


def test_manifest_replay_reproduces_outputs(runner, tmp_path):
    paths = write_fixture(tmp_path)
    first = tmp_path / "first"
    res = runner.invoke(main, ["solve", "--cost", paths["cost"], "--r", paths["r"],
                               "--s", paths["s"], "--lambda0", "2.0",
                               "--out-dir", str(first)])
    assert res.exit_code == 0, res.output
    replay = tmp_path / "replay"
    res = runner.invoke(main, ["solve", "--config", str(first / "solve_manifest.json"),
                               "--out-dir", str(replay)])
    assert res.exit_code == 0, res.output
    assert (first / "plan.csv").read_bytes() == (replay / "plan.csv").read_bytes()


def test_mc_accepts_manifest_as_config(runner, tmp_path):
    cfg = {"L": 2, "lambda0": [2.0], "n": [12], "replicates": 15, "seed": 4}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["mc", "--config", str(cfg_path),
                               "--out-dir", str(tmp_path / "m1")])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["mc", "--config", str(tmp_path / "m1" / "mc_manifest.json"),
                               "--out-dir", str(tmp_path / "m2")])
    assert res.exit_code == 0, res.output
    assert ((tmp_path / "m1" / "mc_samples_l2_n12.csv").read_bytes()
            == (tmp_path / "m2" / "mc_samples_l2_n12.csv").read_bytes())


def test_threads_env_fallback(runner, tmp_path, monkeypatch):
    cfg = {"L": 2, "lambda0": [2.0], "n": [15], "replicates": 20, "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("ROT_THREADS", "2")
    res_env = runner.invoke(main, ["mc", "--config", str(cfg_path),
                                   "--out-dir", str(tmp_path / "env")])
    assert res_env.exit_code == 0, res_env.output
    monkeypatch.delenv("ROT_THREADS")
    res_flag = runner.invoke(main, ["mc", "--config", str(cfg_path),
                                    "--threads", "1",
                                    "--out-dir", str(tmp_path / "flag")])
    assert res_flag.exit_code == 0
    assert ((tmp_path / "env" / "mc_samples_l2_n15.csv").read_bytes()
            == (tmp_path / "flag" / "mc_samples_l2_n15.csv").read_bytes())


def test_config_file_overrides_flags(runner, tmp_path):
    paths = write_fixture(tmp_path)
    conf = tmp_path / "override.json"
    conf.write_text(json.dumps({"lam": 1.0}))
    # flag says lambda0, config overrides with an absolute lambda
    result = runner.invoke(main, ["solve", "--cost", paths["cost"], "--r", paths["r"],
                                  "--s", paths["s"], "--lambda0", "2.0",
                                  "--config", str(conf),
                                  "--out-dir", str(tmp_path / "cfg_out")])
    assert result.exit_code == 2  # both lambda values now set: ambiguous

    conf.write_text(json.dumps({"lam": 1.0, "lam0": None}))
    result = runner.invoke(main, ["solve", "--cost", paths["cost"], "--r", paths["r"],
                                  "--s", paths["s"], "--lambda0", "2.0",
                                  "--config", str(conf),
                                  "--out-dir", str(tmp_path / "cfg_out")])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert abs(payload["divergence"] - E_DIV) < 1e-6  # lambda = 1 applied


def test_config_file_missing_exits_3(runner, tmp_path):
    paths = write_fixture(tmp_path)
    missing = str(tmp_path / "nope.json")
    result = runner.invoke(main, ["solve", "--config", missing, "--cost", paths["cost"],
                                  "--r", paths["r"], "--s", paths["s"], "--lambda", "1",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 3, result.output
    result = runner.invoke(main, ["rcol", "--config", missing])
    assert result.exit_code == 3, result.output


def test_config_file_malformed_exits_2(runner, tmp_path):
    paths = write_fixture(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    result = runner.invoke(main, ["solve", "--config", str(bad), "--cost", paths["cost"],
                                  "--r", paths["r"], "--s", paths["s"], "--lambda", "1",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output


def test_mc_config_not_an_object_exits_2(runner, tmp_path):
    cfg_path = tmp_path / "arr.json"
    cfg_path.write_text("[1, 2]")
    result = runner.invoke(main, ["mc", "--config", str(cfg_path),
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize("command", ["solve", "variance"])
@pytest.mark.parametrize("grid, r_size, s_size", [(3, 4, 9), (2, 9, 4), (2, 4, 9)])
def test_marginal_size_mismatch_exits_2(runner, tmp_path, command, grid, r_size, s_size):
    rng = np.random.default_rng(2)
    for name, size in (("r", r_size), ("s", s_size)):
        np.savetxt(tmp_path / f"{name}.csv", rng.dirichlet(np.ones(size)), delimiter=",")
    result = runner.invoke(main, [command, "--grid", str(grid), "--r", str(tmp_path / "r.csv"),
                                  "--s", str(tmp_path / "s.csv"), "--lambda", "1",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "o" / "plan.csv").exists()


@pytest.mark.parametrize("flags", [["--lambda", "nan"], ["--lambda", "inf"],
                                   ["--lambda", "1", "--tol", "nan"],
                                   ["--lambda", "nan", "--reg", "burg"],
                                   ["--lambda", "inf", "--reg", "burg"],
                                   ["--lambda", "1", "--tol", "inf"]])
def test_nonfinite_lambda_or_tol_exits_2(runner, tmp_path, flags):
    paths = write_fixture(tmp_path)
    result = runner.invoke(main, ["solve", "--cost", paths["cost"], "--r", paths["r"],
                                  "--s", paths["s"], *flags, "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize("args", [["ci", "--n", "0"], ["ci", "--n", "-3"],
                                  ["ci", "--n", "0", "--m", "0"],
                                  ["bootstrap", "--B", "1", "--seed", "3"]])
def test_sizes_that_would_print_nan_exit_2(runner, tmp_path, args):
    paths = write_fixture(tmp_path)
    np.savetxt(tmp_path / "data.csv", np.array([0, 1, 1, 0]), fmt="%d")
    inputs = (["--data", str(tmp_path / "data.csv")] if args[0] == "bootstrap"
              else ["--r", paths["r"]])
    result = runner.invoke(main, [*args, *inputs, "--cost", paths["cost"], "--s", paths["s"],
                                  "--lambda", "1", "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert "NaN" not in result.output


@pytest.mark.parametrize("command", ["solve", "variance", "ci", "bootstrap", "rcol"])
def test_manifest_replay_every_subcommand(runner, tmp_path, command):
    paths = write_fixture(tmp_path)
    problem = ["--cost", paths["cost"], "--r", paths["r"], "--s", paths["s"],
               "--lambda0", "2.0"]
    if command == "bootstrap":
        np.savetxt(tmp_path / "data.csv", np.random.default_rng(0).integers(0, 2, 40),
                   fmt="%d")
        args = ["--data", str(tmp_path / "data.csv"), "--cost", paths["cost"],
                "--s", paths["s"], "--lambda", "1.0", "--B", "20", "--seed", "3",
                "--threads", "1"]
    elif command == "rcol":
        pa, pb = write_images(tmp_path)
        args = ["--imgA", pa, "--imgB", pb, "--lambda0", "1.0", "--band", "gaussian",
                "--M", "200", "--seed", "7", "--threads", "2"]
    elif command == "variance":
        args = [*problem, "--mode", "two", "--n", "50", "--m", "150",
                "--gradient-out", "grad.csv"]
    elif command == "ci":
        args = [*problem, "--n", "400", "--m", "100", "--alpha", "0.1"]
    else:
        args = problem
    manifests, data_files = [], []
    for name, run_args in (("first", args),
                           ("replay", ["--config", str(tmp_path / "first" /
                                                       f"{command}_manifest.json")])):
        out = tmp_path / name
        result = runner.invoke(main, [command, *run_args, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        manifests.append(json.loads((out / f"{command}_manifest.json").read_text()))
        data_files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                           if not p.name.endswith("_manifest.json")})
    assert data_files[0] == data_files[1]
    assert manifests[0]["config"] == manifests[1]["config"]
    for manifest in manifests:
        assert "out_dir" not in manifest["config"]
        assert "threads" not in manifest["config"]


def test_mc_vanishing_variance_exits_numerical(runner, tmp_path):
    # a replicate whose plug-in variance vanishes under a nonzero statistic is
    # a numerical failure, not a solver that failed to converge
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"L": 2, "lambda0": [2.0], "n": [12],
                                    "replicates": 15, "seed": 4}))
    result = runner.invoke(main, ["mc", "--config", str(cfg_path), "--seed", "9",
                                  "--threads", "1", "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 5, result.output
    assert "1 of 15 replicates failed" in result.output
    assert "vanishing variance" in result.output


def test_mc_all_replicates_failed_exits_numerical(runner, tmp_path):
    # n = 1 puts every replicate on a single atom, where the plug-in variance
    # vanishes; an allowed failure rate of one must not leave an empty sample
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"L": 2, "lambda0": [2.0], "n": [1], "replicates": 10,
                                    "seed": 3, "max_failure_rate": 1.0}))
    result = runner.invoke(main, ["mc", "--config", str(cfg_path),
                                  "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 5, result.output
    assert "10 of 10 replicates failed" in result.output
    assert "vanishing variance" in result.output


@pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
def test_mc_bad_failure_rate_exits_2(runner, tmp_path, rate):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"L": 2, "lambda0": [2.0], "n": [10], "replicates": 5,
                                    "seed": 3, "max_failure_rate": rate}))
    result = runner.invoke(main, ["mc", "--config", str(cfg_path),
                                  "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "max_failure_rate" in result.output


@pytest.mark.parametrize("key, value, expected", [
    ("max_failure_rate", "0.5", "a number"),
    ("replicates", 5.0, "an integer"),
    ("studentize", 1, "true or false"),
    ("lambda0", ["2.0"], "a number or a list of numbers"),
    ("n", [10, 2.5], "an integer or a list of integers"),
])
def test_mc_config_of_the_wrong_type_exits_2(runner, tmp_path, key, value, expected):
    cfg = {"L": 2, "lambda0": [2.0], "n": [10], "replicates": 5, "seed": 3}
    cfg[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    result = runner.invoke(main, ["mc", "--config", str(cfg_path),
                                  "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"'{key}' must be {expected}" in result.output


@pytest.mark.parametrize("n", [[0], [25, -2]])
def test_mc_sample_size_below_one_exits_2(runner, tmp_path, n):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"L": 2, "lambda0": [2.0], "n": n, "replicates": 5,
                                    "seed": 3}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["mc", "--config", str(cfg_path),
                                      "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "MCConfig key 'n'" in result.output
    assert caught == []


@pytest.mark.parametrize("key, value", [("max_iter", 0), ("max_iter", -5), ("tol", 0.0),
                                        ("tol", -1e-9), ("tol", float("inf")),
                                        ("tol", float("nan"))])
def test_mc_bad_solver_setting_exits_2(runner, tmp_path, key, value):
    cfg = {"L": 2, "lambda0": [2.0], "n": [10], "replicates": 5, "seed": 3, key: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    result = runner.invoke(main, ["mc", "--config", str(cfg_path),
                                  "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"MCConfig key '{key}'" in result.output


@pytest.mark.parametrize("key, value", [("n", [1]), ("n", [10, 1]), ("kappa", 0.0),
                                        ("kappa", -1.0)])
def test_mc_lambda_of_n_needs_two_points_and_positive_kappa(runner, tmp_path, key, value):
    cfg = {"L": 2, "lambda0": [2.0], "n": [10], "replicates": 5, "seed": 3,
           "lambda_of_n": True, key: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["mc", "--config", str(cfg_path),
                                      "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"MCConfig key '{key}'" in result.output
    assert caught == []


@pytest.mark.parametrize("key, entries", [
    ("L", '"L": 1'), ("L", '"L": 1, "lambda_of_n": true'), ("L", '"L": 0'),
    ("lambda0", '"lambda0": [NaN]'), ("lambda0", '"lambda0": [2.0, Infinity]'),
    ("lambda0", '"lambda0": []'), ("seed", '"seed": -3'),
    ("dirichlet_alpha", '"dirichlet_alpha": NaN'), ("dirichlet_alpha", '"dirichlet_alpha": 0.0'),
    ("extent", '"extent": 1e400'), ("extent", '"extent": -1.0'),
])
def test_mc_out_of_range_setting_exits_2(runner, tmp_path, key, entries):
    # later entries of the JSON object override the earlier ones
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"L": 2, "lambda0": [2.0], "n": [10], "replicates": 5, "seed": 3, '
                        + entries + "}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["mc", "--config", str(cfg_path),
                                      "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"MCConfig key '{key}'" in result.output
    assert caught == []


def test_mc_plans_at_zero_cost_under_a_root_exit_numerical(runner, tmp_path):
    # n = 1 puts both sides of every replicate on one atom; on a shared atom the
    # plan sits at zero cost, where the p-th root has no gradient, so no plan of
    # the run goes into the stacked variance
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"L": 2, "lambda0": [1.0], "n": [1], "replicates": 1,
                                    "seed": 7, "mode": "two_sample", "p": 2.0,
                                    "max_failure_rate": 1.0}))
    result = runner.invoke(main, ["mc", "--config", str(cfg_path),
                                  "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 5, result.output
    assert "not differentiable at zero transport cost" in result.output


@pytest.mark.parametrize("flags", [["--max-iter", "0"], ["--max-iter", "-2"],
                                   ["--p", "-1"], ["--p", "0"], ["--p", "0.5"],
                                   ["--p", "inf"], ["--p", "nan"],
                                   ["--grid", "2", "--p", "0.5"], ["--grid", "2", "--p", "-1"]])
def test_solve_bad_iteration_budget_or_cost_power_exits_2(runner, tmp_path, flags):
    paths = write_fixture(tmp_path)
    np.savetxt(tmp_path / "q.csv", np.full(4, 0.25), delimiter=",")
    problem = (["--r", str(tmp_path / "q.csv"), "--s", str(tmp_path / "q.csv")]
               if "--grid" in flags else ["--cost", paths["cost"], "--r", paths["r"],
                                          "--s", paths["s"]])
    result = runner.invoke(main, ["solve", *problem, "--lambda", "1", *flags,
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "o" / "plan.csv").exists()


@pytest.mark.parametrize("power", ["0", "-1", "nan"])
def test_rcol_bad_cost_power_exits_2(runner, tmp_path, power):
    pa, pb = write_images(tmp_path)
    result = runner.invoke(main, ["rcol", "--imgA", pa, "--imgB", pb, "--resample", "100",
                                  "--lambda0", "1.0", "--p", power, "--band", "none",
                                  "--seed", "7", "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "cost power p" in result.output


def test_cli_import_leaves_unused_scipy_modules_unloaded():
    # every `rot` call pays for what `import rotinf.cli` loads; the statistics,
    # optimization and spatial modules wait for the functions that use them.
    # A Monte Carlo run against the transport limit (an exact baseline and
    # two-sample KS distances) loads the optimizer but not the statistics
    src = os.path.dirname(os.path.dirname(rotinf.__file__))
    mc = ("from rotinf.inference import MCConfig, mc_experiment; "
          "mc_experiment(MCConfig(L=2, lambda0=(0.5,), n=(50,), replicates=20, seed=3, "
          "mode='one_sample_eq', studentize=False, compare_ot_limit=True)); ")
    loaded = []
    for run in ("", mc):
        code = (f"import sys; sys.path.insert(0, {src!r}); import rotinf.cli; {run}"
                "print(sorted({'.'.join(m.split('.')[:2]) for m in sys.modules if "
                "m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'], "
                "['scipy', 'spatial'])}))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        loaded.append(out.stdout.strip())
    assert loaded[0] == "[]"
    assert "scipy.optimize" in loaded[1] and "scipy.stats" not in loaded[1]
