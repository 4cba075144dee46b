"""Command line entry point: solve, variance, ci, bootstrap, mc, rcol.

Every subcommand resolves its configuration, computes, writes data artifacts
atomically (temp file plus rename, so failures leave no partial outputs),
records a run manifest, and prints a machine-readable JSON result on stdout.
All randomness flows from --seed; rerunning a seeded command is bit-identical.
--threads is accepted and ignored: replicates are solved in one batch.

Exit codes: 0 ok, 2 usage or configuration error, 3 I/O error,
4 convergence failure, 5 numerical failure.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tempfile
import time

import click
import numpy as np

from . import __version__
from . import coloc
from . import inference as inf
from . import regularizers as rg
from . import sensitivity as sens
from . import solver as sv
from .exceptions import ConvergenceError, DomainError, NumericalError, ReductionRequiredError
from .space import (CostVector, Prob, build_grid_space, check_power, cost_from_metric,
                    cost_quantile, empirical_distribution)

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONVERGENCE = 4
EXIT_NUMERICAL = 5

# First match wins: DomainError, ReductionRequiredError and LinAlgError are
# ValueErrors, so the numerical row must come before the usage row.
_EXIT_CODES = (
    (ConvergenceError, EXIT_CONVERGENCE),
    ((DomainError, NumericalError, ReductionRequiredError, np.linalg.LinAlgError),
     EXIT_NUMERICAL),
    (OSError, EXIT_IO),
    ((ValueError, TypeError), EXIT_USAGE),
)

# Parameters naming input files; the manifest records their digests.
_INPUT_PARAMS = ("cost", "r_path", "s_path", "data", "img_a", "img_b", "config_path")
# Parameters left out of the manifest config: they do not change the results.
_UNRECORDED = ("out_dir", "threads", "config_path")


def _read_config(path):
    """The JSON object in a config file; a run manifest yields its config."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "config" in data and "subcommand" in data:
        data = data["config"]
    if not isinstance(data, dict):
        raise click.UsageError("--config must hold a JSON object")
    return data


def _atomic_write(path, data):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rot-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, array):
    array = np.atleast_2d(np.asarray(array, dtype=float))
    lines = "\n".join(",".join(repr(float(x)) for x in row) for row in array)
    _atomic_write(path, lines + "\n")


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")


def _load_cost(cost, grid, extent, metric, p):
    """Cost from a CSV file or from grid flags."""
    if (cost is None) == (grid is None):
        raise click.UsageError("give exactly one of --cost FILE and --grid L")
    if cost is not None:
        M = np.atleast_2d(np.loadtxt(cost, delimiter=",", dtype=float))
        entries = M.ravel()
        if M.shape[0] != M.shape[1]:
            raise click.UsageError("cost CSV must be a square matrix")
        check_power(p)
        c_max = float(entries.max()) ** (1.0 / p) if entries.size else 0.0
        return CostVector(entries=entries, p=p, c_max=c_max)
    space = build_grid_space(grid, extent)
    return cost_from_metric(space, p=p, metric=metric)


def _resolve_lambda(lam, lam0, c):
    if (lam is None) == (lam0 is None):
        raise click.UsageError("give exactly one of --lambda and --lambda0")
    if lam is not None:
        return float(lam), {"lam": float(lam), "lam0": None, "lambda_resolved": float(lam)}
    value = float(lam0) * cost_quantile(c, 0.5)
    return value, {"lam": None, "lam0": float(lam0), "lambda_resolved": value}


def _load_prob(path, normalize):
    weights = np.loadtxt(path, delimiter=",", dtype=float).ravel()
    return Prob.from_weights(weights, normalize=normalize)


def _load_problem(r_path, s_path, lam, lam0, reg, normalize, **cost_args):
    """(cost, r, s, lambda, penalty, resolved lambda) for solve, variance and ci."""
    _require(r_path, "--r")
    _require(s_path, "--s")
    c = _load_cost(**cost_args)
    r = _load_prob(r_path, normalize)
    s = _load_prob(s_path, normalize)
    lam_value, resolved = _resolve_lambda(lam, lam0, c)
    return c, r, s, lam_value, rg.from_spec(reg), resolved


def _require(value, flag):
    if value is None:
        raise click.UsageError(f"{flag} is required (flag or --config entry)")
    return value


def _two_sample_delta(n_size, m_size):
    """Two-sample weight m / (n + m) from the two sample sizes."""
    if n_size is None or m_size is None:
        raise click.UsageError("two-sample variance needs --delta or both --n and --m")
    if min(n_size, m_size) < 1:
        raise click.UsageError("sample sizes --n and --m must be at least 1")
    return m_size / (n_size + m_size)


_cost_options = [
    click.option("--cost", type=click.Path(dir_okay=False), default=None,
                 help="Cost matrix CSV (N x N, row-major)."),
    click.option("--grid", type=int, default=None, help="Build an L x L grid instead."),
    click.option("--extent", type=float, default=1.0, show_default=True),
    click.option("--metric", type=click.Choice(["euclidean", "sqeuclidean"]),
                 default="euclidean", show_default=True),
    click.option("--p", type=float, default=1.0, show_default=True,
                 help="Cost power; the distance reported is the p-th root."),
]

_lambda_options = [
    click.option("--lambda", "lam", type=float, default=None,
                 help="Absolute regularization strength."),
    click.option("--lambda0", "lam0", type=float, default=None,
                 help="Regularization as a multiple of the median cost."),
]

_s_option = click.option("--s", "s_path", type=click.Path(dir_okay=False), default=None)
_normalize_option = click.option("--normalize", is_flag=True,
                                 help="Renormalize input weight vectors.")

_problem_options = [
    *_cost_options,
    click.option("--r", "r_path", type=click.Path(dir_okay=False), default=None),
    _s_option,
    *_lambda_options,
    click.option("--reg", default="entropy", show_default=True,
                 help="entropy | burg | fermi | beta:<b> | lpq:<p>"),
    _normalize_option,
]

_solver_options = [
    click.option("--tol", type=float, default=sv.DEFAULT_TOL, show_default=True),
    click.option("--max-iter", type=int, default=sv.DEFAULT_MAX_ITER, show_default=True),
]

_seed_options = [
    click.option("--seed", type=int, default=None,
                 help="Seed of every random stream; for mc it overrides the config seed."),
    click.option("--threads", type=int, default=None,
                 help="Accepted for compatibility; affects neither results nor speed."),
]

_config_option = click.option("--config", type=click.Path(dir_okay=False), default=None,
                              help="JSON file whose entries override the flags.")


@click.group()
@click.version_option(version=__version__, prog_name="rot")
def main():
    """Regularized transport solvers with statistical inference."""


def _subcommand(name, *option_groups):
    """Register the decorated body as the subcommand ``name``.

    The wrapper applies --config, creates --out-dir, drops --threads, maps
    exceptions to exit codes, writes ``<name>_manifest.json`` and echoes the
    result. The body gets the other parameters plus ``out``, which maps a
    file name into the output directory and records it as an output, and
    returns ``(result, resolved)``. The manifest config is the parameters
    outside ``_UNRECORDED``, updated with ``resolved``.
    """
    options = [opt for group in option_groups
               for opt in (group if isinstance(group, list) else [group])]
    options.append(click.option("--out-dir", type=click.Path(file_okay=False),
                                default=".", show_default=True))

    def register(body):
        @functools.wraps(body)
        def run(config=None, **params):
            t0 = time.monotonic()
            try:
                for key, value in (_read_config(config) if config else {}).items():
                    key = key.replace("-", "_")
                    if key in params:
                        params[key] = tuple(value) if isinstance(value, list) else value
                out_dir = params.pop("out_dir")
                os.makedirs(out_dir, exist_ok=True)
                recorded = {k: v for k, v in params.items() if k not in _UNRECORDED}
                params.pop("threads", None)  # accepted, but replicates are solved in one batch
                outputs = []

                def out(filename):
                    outputs.append(os.path.join(out_dir, filename))
                    return outputs[-1]

                result, resolved = body(out=out, **params)
                recorded.update(resolved)
                manifest = {
                    "subcommand": name,
                    "config": recorded,
                    "seed": recorded.get("seed"),
                    "version": __version__,
                    "inputs": {str(p): _digest(p)
                               for p in (params.get(k) for k in _INPUT_PARAMS) if p},
                    "outputs": sorted(outputs),
                    "wall_time_s": round(time.monotonic() - t0, 6),
                }
                _atomic_write(os.path.join(out_dir, f"{name}_manifest.json"),
                              _json_dumps(manifest) + "\n")
                click.echo(_json_dumps(result))
            except Exception as err:  # click's own exceptions match no row
                for types, code in _EXIT_CODES:
                    if isinstance(err, types):
                        click.echo(f"error: {err}", err=True)
                        sys.exit(code)
                raise

        for opt in reversed(options):
            run = opt(run)
        return main.command(name)(run)
    return register


@_subcommand("solve", _problem_options, _solver_options,
             click.option("--plan-out", default="plan.csv", show_default=True),
             _config_option)
def solve(out, plan_out, tol, max_iter, **problem):
    """Solve one regularized transport problem and write the plan."""
    c, r, s, lam, regularizer, resolved = _load_problem(**problem)
    sol = sv.solve_reduced(c, r.weights, s.weights, lam, reg=regularizer,
                           tol=tol, max_iter=max_iter)
    plan_path = out(plan_out)
    _write_csv(plan_path, sol.full_entries().reshape(r.dim, s.dim))
    result = {
        "plan_file": plan_path,
        "divergence": sol.divergence(),
        "iterations": sol.plan.iterations,
        "residual": sol.plan.residual,
    }
    return result, resolved


def _variance_core(c, r, s, lam_value, regularizer, mode, delta, tol, max_iter):
    sol = sv.solve_reduced(c, r.weights, s.weights, lam_value, reg=regularizer,
                           tol=tol, max_iter=max_iter)
    return sol, inf._sigma2_at(sol.plan, sol.cost, mode, delta)


@_subcommand("variance", _problem_options,
             click.option("--mode", type=click.Choice(["one", "two"]), default="one",
                          show_default=True),
             click.option("--delta", type=float, default=None,
                          help="Two-sample weight; inferred from --n/--m when omitted."),
             click.option("--n", "n_size", type=int, default=None),
             click.option("--m", "m_size", type=int, default=None),
             _solver_options,
             click.option("--gradient-out", default=None,
                          help="Write the plan gradient matrix as CSV."),
             _config_option)
def variance(out, mode, delta, n_size, m_size, tol, max_iter, gradient_out, **problem):
    """Limit variance of the empirical transport distance."""
    c, r, s, lam, regularizer, resolved = _load_problem(**problem)
    mode_name = "one_sample" if mode == "one" else "two_sample"
    if mode_name == "two_sample" and delta is None:
        delta = _two_sample_delta(n_size, m_size)
    sol, sigma2 = _variance_core(c, r, s, lam, regularizer, mode_name, delta,
                                 tol, max_iter)
    result = {
        "sigma_divergence": sigma2,
        "mode": mode_name,
        "delta": delta,
        "divergence": sol.divergence(),
        "orientation": "first marginal sampled; last column constraint dropped",
    }
    if gradient_out:
        grad = sens.plan_gradient(sol.plan.reg, sol.plan).grad_phi
        result["plan_gradient_file"] = out(gradient_out)
        _write_csv(result["plan_gradient_file"], grad)
    return result, {**resolved, "delta": delta}


@_subcommand("ci", _problem_options,
             click.option("--alpha", type=float, default=0.05, show_default=True),
             click.option("--n", "n_size", type=int, default=None,
                          help="Sample size behind r."),
             click.option("--m", "m_size", type=int, default=None,
                          help="Second sample size; switches to the two-sample variance."),
             _solver_options, _config_option)
def ci(out, alpha, n_size, m_size, tol, max_iter, **problem):
    """Normal confidence interval for the transport distance."""
    _require(n_size, "--n")
    c, r, s, lam, regularizer, resolved = _load_problem(**problem)
    if m_size is None:
        mode_name, delta = "one_sample", None
    else:
        mode_name, delta = "two_sample", _two_sample_delta(n_size, m_size)
    sol, sigma2 = _variance_core(c, r, s, lam, regularizer, mode_name, delta,
                                 tol, max_iter)
    w = sol.divergence()
    lower, upper = inf.confidence_interval(w, sigma2, n_size, alpha=alpha, m=m_size)
    result = {"w": w, "sigma_divergence": sigma2, "lower": lower, "upper": upper,
              "alpha": alpha, "n": n_size, "m": m_size}
    return result, resolved


@_subcommand("bootstrap",
             click.option("--data", type=click.Path(dir_okay=False), default=None,
                          help="CSV of observed point indices (0-based)."),
             _cost_options, _s_option, _lambda_options,
             click.option("--B", "n_boot", type=int, default=500, show_default=True),
             _seed_options, _solver_options, _normalize_option,
             click.option("--samples-out", default="bootstrap_samples.csv",
                          show_default=True),
             _config_option)
def bootstrap(out, data, s_path, lam, lam0, n_boot, seed, tol, max_iter,
              normalize, samples_out, **cost_args):
    """Naive n-out-of-n bootstrap sample of the transport distance."""
    if seed is None:
        raise click.UsageError("--seed is required for bootstrap runs")
    _require(data, "--data")
    _require(s_path, "--s")
    c = _load_cost(**cost_args)
    sample = np.loadtxt(data, delimiter=",", dtype=int).ravel()
    r_hat = empirical_distribution(sample, c.n_points)
    s = _load_prob(s_path, normalize)
    lam_value, resolved = _resolve_lambda(lam, lam0, c)
    dist = inf.bootstrap_statistic(r_hat, s, c, lam_value, B=n_boot, seed=seed,
                                   tol=tol, max_iter=max_iter)
    samples_path = out(samples_out)
    _write_csv(samples_path, dist.values[:, None])
    result = {"samples_file": samples_path, "B": n_boot, "n": dist.n,
              "mean": float(dist.values.mean()), "sd": float(dist.values.std(ddof=1))}
    return result, resolved


@_subcommand("mc",
             click.option("--config", "config_path",
                          type=click.Path(exists=True, dir_okay=False),
                          required=True, help="JSON MCConfig."),
             _seed_options)
def mc(out, config_path, seed):
    """Monte Carlo sweep of the limit-law approximation quality."""
    raw = _read_config(config_path)
    if seed is not None:
        raw["seed"] = seed
    if raw.get("seed") is None:
        raise click.UsageError("a seed is required (config key 'seed' or --seed)")
    config = inf.MCConfig.from_dict(raw)
    report = inf.mc_experiment(config)
    cells = []
    for cell in report.cells:
        path = out(f"mc_samples_l{cell.lambda0:g}_n{cell.n}.csv")
        _write_csv(path, cell.sample.values[:, None])
        cells.append({"lambda0": cell.lambda0, "lambda": cell.lam, "n": cell.n,
                      "ks_normal": cell.ks_normal, "ks_ot_limit": cell.ks_ot_limit,
                      "failures": cell.failures, "samples_file": path})
    result = {"cells": cells, "config": config.to_dict()}
    _atomic_write(out("mc_report.json"), _json_dumps(result) + "\n")
    return result, config.to_dict()


@_subcommand("rcol",
             click.option("--imgA", "img_a", type=click.Path(dir_okay=False), default=None),
             click.option("--imgB", "img_b", type=click.Path(dir_okay=False), default=None),
             click.option("--pixel-size", type=float, default=1.0, show_default=True),
             click.option("--resample", "n_resample", type=int, default=None,
                          help="Draws from each intensity distribution; defaults to "
                               "50 * sqrt(pixel count)."),
             _lambda_options,
             click.option("--p", type=float, default=1.0, show_default=True),
             click.option("--metric", type=click.Choice(["euclidean", "sqeuclidean"]),
                          default="sqeuclidean", show_default=True),
             click.option("--alpha", type=float, default=0.05, show_default=True),
             click.option("--band", type=click.Choice(["bootstrap", "gaussian", "none"]),
                          default="bootstrap", show_default=True),
             click.option("--B", "n_boot", type=int, default=100, show_default=True),
             click.option("--M", "n_draws", type=int, default=coloc.DEFAULT_BAND_DRAWS,
                          show_default=True),
             _seed_options, _solver_options,
             click.option("--curve-out", default="rcol_curve.csv", show_default=True),
             _config_option)
def rcol(out, img_a, img_b, pixel_size, n_resample, lam, lam0, p, metric, alpha, band,
         n_boot, n_draws, seed, tol, max_iter, curve_out):
    """Colocalization curve between two images with a uniform confidence band."""
    if seed is None:
        raise click.UsageError("--seed is required for rcol runs")
    _require(img_a, "--imgA")
    _require(img_b, "--imgB")
    if (lam is None) == (lam0 is None):
        raise click.UsageError("give exactly one of --lambda and --lambda0")
    image_a = coloc.read_image(img_a, pixel_size)
    image_b = coloc.read_image(img_b, pixel_size)
    if n_resample is None:
        n_resample = int(round(50.0 * np.sqrt(image_a.height * image_a.width)))
    analysis = coloc.rcol_pipeline(image_a, image_b, n=n_resample, seed=seed,
                                   lam=lam, lam0=lam0, p=p, metric=metric,
                                   band=band, B=n_boot, draws=n_draws, alpha=alpha,
                                   tol=tol, max_iter=max_iter)
    curve = analysis.curve
    if curve.lower is None:
        table = np.column_stack([curve.thresholds, curve.values])
    else:
        table = np.column_stack([curve.thresholds, curve.values, curve.lower, curve.upper])
    curve_path = out(curve_out)
    _write_csv(curve_path, table)
    result = {"curve_file": curve_path, "u_quantile": analysis.u_quantile,
              "n": analysis.n, "lambda": analysis.lam, "failures": analysis.failures,
              "band": band, "alpha": alpha,
              "support_sizes": list(analysis.support_sizes)}
    return result, {"n_resample": n_resample, "lambda_resolved": analysis.lam}


if __name__ == "__main__":
    main()
