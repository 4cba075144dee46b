"""Every ``rot`` subcommand on fixed inputs against the results and output files
stored in ``tests/data/golden``, at 1e-12 relative.

The stored files of ``solve``, ``variance`` and ``ci`` (3 x 3 grid) were
written by commit 026ee6b, before the reduced-Gram factor was rewritten; those
of the seeded subcommands (``bootstrap`` on the same grid, two ``mc`` sweeps
and ``rcol --band bootstrap`` between two 8 x 8 phantoms) by commit 359f894,
before the replicate loop returned arrays. A refactor that claims the same
numbers is checked here. Counts and the text fields must match exactly.

``sinkhorn_solves.json`` holds single ``sinkhorn_matrix`` solves, inputs and
results, written by commit cb0d90a before the scalar Sinkhorn loop became a
stack of one: each takes one exit of the loop (absorption, an update that
cannot be formed, a Newton finish, failed Newtons, the ladder, ``max_iter``).
The result of ``stall_newton``, an r = s cold start, was written again by
commit 1881d4c, which skips the ladder where diag(r) is the unregularized
optimum; its input is unchanged. Their plans are checked at 1e-12 relative,
their counts, residuals and messages exactly.
"""

import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from rotinf.cli import main
from rotinf.exceptions import ConvergenceError
from rotinf.solver import sinkhorn_matrix

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")
INPUTS = ["--grid", "3", "--r", os.path.join(GOLDEN, "r.csv"),
          "--s", os.path.join(GOLDEN, "s.csv"), "--normalize"]
IMAGES = ["--imgA", os.path.join(GOLDEN, "img_a.csv"),
          "--imgB", os.path.join(GOLDEN, "img_b.csv")]

CASES = {
    "solve_entropy": ["solve", *INPUTS, "--lambda0", "0.5"],
    "solve_burg": ["solve", *INPUTS, "--lambda0", "1.0", "--reg", "burg"],
    "variance_one_fermi": ["variance", *INPUTS, "--lambda0", "1.0", "--reg", "fermi",
                           "--gradient-out", "grad.csv"],
    "variance_two_fermi": ["variance", *INPUTS, "--lambda0", "1.0", "--reg", "fermi",
                           "--mode", "two", "--n", "60", "--m", "90",
                           "--gradient-out", "grad.csv"],
    "ci": ["ci", *INPUTS, "--lambda0", "0.5", "--n", "400", "--m", "100"],
    "bootstrap": ["bootstrap", "--data", os.path.join(GOLDEN, "data.csv"), "--grid", "3",
                  "--s", os.path.join(GOLDEN, "s.csv"), "--normalize", "--lambda0", "0.5",
                  "--B", "40", "--seed", "11"],
    "mc_one_sample": ["mc", "--config", os.path.join(GOLDEN, "mc_one.json")],
    "mc_two_sample": ["mc", "--config", os.path.join(GOLDEN, "mc_two.json")],
    "rcol_bootstrap": ["rcol", *IMAGES, "--resample", "200", "--lambda0", "0.05",
                       "--band", "bootstrap", "--B", "50", "--seed", "7"],
}


def base_names(value):
    """The result with each output file, at any depth, named by its base name."""
    if isinstance(value, dict):
        return {k: os.path.basename(v) if k.endswith("_file") else base_names(v)
                for k, v in value.items()}
    if isinstance(value, list):
        return [base_names(v) for v in value]
    return value


def run_case(args, out_dir):
    """The subcommand's JSON result, with its output files named by base name."""
    result = CliRunner().invoke(main, [*args, "--out-dir", str(out_dir)])
    assert result.exit_code == 0, result.output
    return base_names(json.loads(result.output))


def assert_close(value, want, what):
    value, want = np.asarray(value, dtype=float), np.asarray(want, dtype=float)
    assert value.shape == want.shape, what
    assert np.abs(value - want).max() <= 1e-12 * np.abs(want).max(), what


def assert_matches(got, want, out_dir, stored, what):
    """Floats and the named files at 1e-12 relative, everything else exactly."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), what
        for key, expected in want.items():
            if key.endswith("_file"):
                assert got[key] == expected, key
                assert_close(np.loadtxt(os.path.join(out_dir, expected), delimiter=","),
                             np.loadtxt(os.path.join(stored, expected), delimiter=","), key)
            else:
                assert_matches(got[key], expected, out_dir, stored, f"{what}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), what
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, out_dir, stored, f"{what}[{k}]")
    elif isinstance(want, float):
        assert_close(got, want, what)
    else:
        assert got == want, what


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_stored_files(tmp_path, name):
    stored = os.path.join(GOLDEN, name)
    with open(os.path.join(stored, "result.json")) as fh:
        want = json.load(fh)
    got = run_case(CASES[name], tmp_path)
    assert_matches(got, want, str(tmp_path), stored, name)


with open(os.path.join(GOLDEN, "sinkhorn_solves.json")) as fh:
    SOLVES = json.load(fh)


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_single_solves_match_the_stored_results(name):
    case, want = SOLVES[name]["input"], SOLVES[name]["result"]
    init = None if case["init"] is None else tuple(np.array(x) for x in case["init"])
    args = (np.array(case["C"]), np.array(case["r"]), np.array(case["s"]), case["lam"])
    try:
        P, _, _, iterations, residual = sinkhorn_matrix(
            *args, tol=case["tol"], max_iter=case["max_iter"], init=init)
    except ConvergenceError as err:
        assert (str(err), err.iterations, err.residual) == (
            want["message"], want["iterations"], want["residual"])
        return
    assert "message" not in want
    assert (iterations, residual) == (want["iterations"], want["residual"])
    assert_close(P, want["plan"], name)
