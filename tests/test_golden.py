"""``rot solve``, ``rot variance`` and ``rot ci`` on fixed 3 x 3-grid inputs against
the results and CSVs stored in ``tests/data/golden``, at 1e-12 relative.

The stored files were written by commit 026ee6b, before the reduced-Gram
factor was rewritten, so a refactor that claims the same numbers is checked
here. Iteration counts and the text fields must match exactly. The
RNG-driven subcommands are left out.
"""

import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from rotinf.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")
INPUTS = ["--grid", "3", "--r", os.path.join(GOLDEN, "r.csv"),
          "--s", os.path.join(GOLDEN, "s.csv"), "--normalize"]

CASES = {
    "solve_entropy": ["solve", *INPUTS, "--lambda0", "0.5"],
    "solve_burg": ["solve", *INPUTS, "--lambda0", "1.0", "--reg", "burg"],
    "variance_one_fermi": ["variance", *INPUTS, "--lambda0", "1.0", "--reg", "fermi",
                           "--gradient-out", "grad.csv"],
    "variance_two_fermi": ["variance", *INPUTS, "--lambda0", "1.0", "--reg", "fermi",
                           "--mode", "two", "--n", "60", "--m", "90",
                           "--gradient-out", "grad.csv"],
    "ci": ["ci", *INPUTS, "--lambda0", "0.5", "--n", "400", "--m", "100"],
}


def run_case(args, out_dir):
    """The subcommand's JSON result, with each output file named by its base name."""
    result = CliRunner().invoke(main, [*args, "--out-dir", str(out_dir)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    return {k: os.path.basename(v) if k.endswith("_file") else v for k, v in payload.items()}


def assert_close(value, want, what):
    value, want = np.asarray(value, dtype=float), np.asarray(want, dtype=float)
    assert value.shape == want.shape, what
    assert np.abs(value - want).max() <= 1e-12 * np.abs(want).max(), what


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_stored_files(tmp_path, name):
    stored = os.path.join(GOLDEN, name)
    with open(os.path.join(stored, "result.json")) as fh:
        want = json.load(fh)
    got = run_case(CASES[name], tmp_path)
    assert sorted(got) == sorted(want)
    for key, expected in want.items():
        if key.endswith("_file"):
            assert got[key] == expected
            assert_close(np.loadtxt(tmp_path / expected, delimiter=","),
                         np.loadtxt(os.path.join(stored, expected), delimiter=","), key)
        elif isinstance(expected, float):
            assert_close(got[key], expected, key)
        else:
            assert got[key] == expected, key
