"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs the first units of every workload once, confirms that each workload's
checker accepts the real outputs, then feeds it corrupted copies and asserts
that it refuses every one. Exits 1 if a checker accepts a corrupted output
or refuses a real one. Takes about ten seconds.
"""

import copy
import json
import os
import shutil
import sys

import run_bench  # first: it pins the BLAS threads before numpy is imported

import numpy as np

import reference as ref
from workloads import WORKLOADS


def _scale_values(factor):
    def corrupt(loaded):
        for cell in loaded[0]["cells"]:
            cell["values"] = cell["values"] * factor
    return corrupt


def _swap_cells(loaded):
    # units after the first, which the reference comparison does not cover
    for item in loaded[1:]:
        cells = item["cells"]
        cells[0]["values"], cells[-1]["values"] = cells[-1]["values"], cells[0]["values"]


def _nan_value(loaded):
    loaded[-1]["cells"][0]["values"][0] = np.nan


def _later_units(corrupt_values):
    # units after the first, which the reference comparison does not cover
    def corrupt(loaded):
        for item in loaded[1:]:
            cell = item["cells"][0]
            cell["values"] = corrupt_values(item["seed"], cell)
    return corrupt


def _gaussian_limit_draws(seed, cell):
    """Draws from N(0, sigma^2), sigma^2 the plug-in variance at the population."""
    workload = WORKLOADS["mc_small_lambda"]
    C, r = workload._population(seed)
    P_pop, _, _ = ref.sinkhorn_symmetric(C, r, cell["lambda0"] * np.quantile(C.ravel(), 0.5))
    sd = np.sqrt(ref.one_sample_variance(P_pop, C, r))
    return sd * np.random.default_rng(seed).standard_normal(cell["values"].size)


def _rebanded(item, u, n):
    half = np.sqrt(2.0) * u / np.sqrt(n)
    item["result"]["u_quantile"] = u
    item["lower"] = np.clip(item["values"] - half, 0.0, 1.0)
    item["upper"] = np.clip(item["values"] + half, 0.0, 1.0)


def _not_monotone(loaded):
    v = loaded[0]["values"]
    i = int(np.flatnonzero(np.diff(v) > 1e-6)[0])
    v[i], v[i + 1] = v[i + 1], v[i]


def _short_of_one(n):
    def corrupt(loaded):
        item = loaded[0]
        item["values"] *= 0.98
        _rebanded(item, item["result"]["u_quantile"], n)
    return corrupt


def _bad_threshold(loaded):
    loaded[0]["thresholds"][1] += 0.5


def _band_off_curve(loaded):
    loaded[0]["lower"] = loaded[0]["lower"] + 1e-3


def _shifted_curve(n):
    def corrupt(loaded):
        item = loaded[0]
        item["values"][1:-1] += 1e-4 * (1.0 - item["values"][1:-1])
        _rebanded(item, item["result"]["u_quantile"], n)
    return corrupt


def _quantile_scaled(factor, n):
    def corrupt(loaded):
        for item in loaded:
            _rebanded(item, item["result"]["u_quantile"] * factor, n)
    return corrupt


CORRUPTIONS = {
    "mc_studentized": [
        ("studentized sample scaled by 2", _scale_values(2.0)),
        ("lambda0 = 2 and 0.2 samples swapped in later units", _swap_cells),
        ("a NaN in a sample", _nan_value),
    ],
    "mc_small_lambda": [
        ("sample scaled by 2", _scale_values(2.0)),
        ("later samples shrunk tenfold", _later_units(lambda seed, cell: cell["values"] / 10)),
        ("later samples drawn from the Gaussian limit", _later_units(_gaussian_limit_draws)),
    ],
    "band_bootstrap": [
        ("curve not monotone", _not_monotone),
        ("curve ends below mass 1", _short_of_one(2000)),
        ("threshold not a squared pixel distance", _bad_threshold),
        ("band not centred on the curve", _band_off_curve),
        ("curve raised by up to 1e-4 with a consistent band", _shifted_curve(2000)),
    ],
    "band_gaussian_large": [
        ("curve not monotone", _not_monotone),
        ("band quantile below its lower bound", _quantile_scaled(0.5, 2000)),
        ("band quantile above the Bonferroni bound", _quantile_scaled(3.0, 2000)),
        ("curve raised by up to 1e-4 with a consistent band", _shifted_curve(2000)),
    ],
}

UNITS = {"mc_studentized": 3, "mc_small_lambda": 50, "band_bootstrap": 1,
         "band_gaussian_large": 1}


def main():
    cli = run_bench.import_package()

    work = os.path.join(run_bench.OUT, f"selftest-{os.getpid()}")
    failures = 0
    try:
        for name, corruptions in CORRUPTIONS.items():
            workload = WORKLOADS[name]
            units = workload.make_units(0, os.path.join(work, name), count=UNITS[name])
            loaded = []
            for unit in units:
                code, out = run_bench.invoke(cli, unit.args)
                if code != 0:
                    sys.exit(f"{name}: rot exited {code} on {unit.args}")
                loaded.append(workload.load(unit, json.loads(out)))
            problems = workload.check(copy.deepcopy(loaded))
            status = "accepted" if not problems else "REFUSED: " + "; ".join(problems)
            print(f"{name}: real outputs {status}")
            failures += bool(problems)
            for label, corrupt in corruptions:
                bad = copy.deepcopy(loaded)
                corrupt(bad)
                problems = workload.check(bad)
                print(f"{name}: {label}: " + (f"refused ({problems[0]})" if problems
                                              else "ACCEPTED"))
                failures += not problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest " + ("passed" if not failures else f"failed ({failures})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
