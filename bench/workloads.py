"""The benchmark's workloads: their seeded inputs, and checks of their outputs.

A workload is a fixed list of units. A unit is one ``rot`` invocation with
its own seed and output directory; ``ops`` counts the replicates or draws it
performs. The benchmark's seed fixes the unit seeds, so one seed always
gives the same inputs.

Each workload's ``check`` receives the loaded outputs of every unit that
exited 0 and returns a list of problems; an empty list means correct. The
checks compare a fixed subset of instances (the first unit's first
replicates) with ``reference``, and test the statistical and structural
properties that the paper's criteria state.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy import stats

import reference as ref
from calibration import Calibration


@dataclass
class Unit:
    args: list
    out_dir: str
    seed: int
    ops: int
    params: dict


def unit_seeds(seed, count):
    """Unit seeds derived from the benchmark seed; disjoint across seeds."""
    return [int(seed) * 100_000 + k for k in range(count)]


def _read_csv(path):
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))


# ---------------------------------------------------------------------------
# Monte Carlo workloads (rot mc)


class MCWorkload:
    """``rot mc`` on one-sample cells with r = s, L x L grid, Euclidean cost."""

    calibration = Calibration(loops=[(16, 60)], nominal_s=0.8e-3)

    def __init__(self, name, units, config, subset, plan_atol, value_atol):
        self.name = name
        self.n_units = units
        self.config = config
        self.subset = subset          # replicates of the first unit checked by reference
        self.plan_atol = plan_atol
        self.value_atol = value_atol

    def make_units(self, seed, work, count=None):
        """One config file shared by the units; each unit passes its seed."""
        os.makedirs(work, exist_ok=True)
        path = os.path.join(work, "mc_config.json")
        with open(path, "w") as fh:
            json.dump(self.config, fh)
        cells = len(self.config["lambda0"]) * len(self.config["n"])
        units = []
        for k, s in enumerate(unit_seeds(seed, count or self.n_units)):
            out = os.path.join(work, f"u{k:03d}")
            units.append(Unit(args=["mc", "--config", path, "--seed", str(s), "--threads", "1",
                                    "--out-dir", out],
                              out_dir=out, seed=s, ops=cells * self.config["replicates"],
                              params={}))
        return units

    @staticmethod
    def reported_failures(result):
        return sum(int(c["failures"]) for c in result["cells"])

    @staticmethod
    def load(unit, result):
        cells = []
        for cell in result["cells"]:
            cells.append({**cell, "values": _read_csv(cell["samples_file"]).ravel()})
        return {"seed": unit.seed, "cells": cells}

    # -- reference ----------------------------------------------------------

    def _population(self, seed):
        L = self.config["L"]
        C = ref.grid_cost(L)
        r = ref.stream(seed, 0).dirichlet(np.ones(L * L))
        return C, r / r.sum()

    def _replicate(self, seed, cell_idx, k, r, n):
        rhat = ref.stream(ref.sub_seed(seed, 1, cell_idx), k).multinomial(n, r) / n
        rows = np.flatnonzero(rhat > 0)
        return rows, rhat[rows] / rhat[rows].sum()

    def check_reference(self, first):
        """Plan, divergence and plug-in variance of the first unit's first
        replicates against the reference, and the program's own solver and
        sensitivity on the same instances."""
        from rotinf import regularizers, sensitivity, solver

        problems = []
        cfg = self.config
        tol = cfg.get("tol", 1e-9)
        max_iter = cfg.get("max_iter", 100_000)
        C, r = self._population(first["seed"])
        q50 = np.quantile(C.ravel(), 0.5)
        for idx, cell in enumerate(first["cells"]):
            lam = cell["lambda0"] * q50
            n = cell["n"]
            P_pop, _, _ = ref.sinkhorn_symmetric(C, r, lam)
            w_pop = float((C * P_pop).sum())
            for k in range(self.subset):
                rows, a = self._replicate(first["seed"], idx, k, r, n)
                try:
                    # a tolerance 1e5 times tighter takes up to twice the iterations
                    P, _, _ = ref.sinkhorn(C[rows], a, r, lam, tol=max(1e-12, 1e-5 * tol),
                                           max_iter=2 * max_iter)
                except ArithmeticError as err:
                    problems.append(f"{self.name}: replicate {k} of lambda0={cell['lambda0']}: "
                                    f"{err}")
                    continue
                raw = np.sqrt(n) * (float((C[rows] * P).sum()) - w_pop)
                var = ref.one_sample_variance(P, C[rows], a)
                expect = float(raw / np.sqrt(var) if cfg["studentize"] else raw)
                got = float(cell["values"][k])
                if abs(got - expect) > self.value_atol * max(1.0, abs(expect)):
                    problems.append(f"{self.name}: cell lambda0={cell['lambda0']} replicate {k}: "
                                    f"output {got!r}, reference {expect!r}")
                sol = solver.solve_reduced(C, np.bincount(rows, a, minlength=r.size), r, lam,
                                           p=1.0, tol=tol, max_iter=max_iter)
                plan_err = float(np.abs(sol.plan.matrix - P).max())
                if plan_err > self.plan_atol:
                    problems.append(f"{self.name}: plan of lambda0={cell['lambda0']} replicate "
                                    f"{k} differs from the reference by {plan_err:.3e}")
                action = sensitivity.plan_covariance_action(regularizers.entropy(), sol.plan,
                                                            mode="one_sample")
                prog_var = float(action.quad_form(sol.cost.ravel()))
                if abs(prog_var - var) > 1e-6 * var + 1e3 * tol:
                    problems.append(f"{self.name}: plug-in variance of lambda0={cell['lambda0']} "
                                    f"replicate {k}: program {prog_var!r}, reference {var!r}")
        return problems

    def check_shape(self, loaded):
        problems = []
        want = [float(x) for x in self.config["lambda0"]]
        for item in loaded:
            got = [c["lambda0"] for c in item["cells"]]
            if got != want:
                problems.append(f"{self.name}: unit {item['seed']} has cells {got}, want {want}")
                continue
            for cell in item["cells"]:
                v = cell["values"]
                if v.size != self.config["replicates"] - cell["failures"] \
                        or not np.isfinite(v).all():
                    problems.append(f"{self.name}: unit {item['seed']} cell "
                                    f"{cell['lambda0']} has {v.size} finite values")
        return problems


class MCStudentized(MCWorkload):
    def check(self, loaded):
        problems = self.check_shape(loaded)
        if problems:
            return problems
        problems += self.check_reference(loaded[0])
        # criterion 5: KS distance to N(0, 1) rises as lambda0 falls; pooled
        # over the units' populations, each studentized sample targets N(0, 1)
        ks = []
        for idx, lam0 in enumerate(self.config["lambda0"]):
            pooled = np.concatenate([item["cells"][idx]["values"] for item in loaded])
            ks.append(float(stats.kstest(pooled, "norm").statistic))
        if not ks[0] < ks[1] < ks[2]:
            problems.append(f"{self.name}: KS to N(0,1) at lambda0 "
                            f"{self.config['lambda0']} is {ks}, not increasing")
        return problems


class MCSmallLambda(MCWorkload):
    limit_draws = 4000
    max_ks_ot = 0.15

    def pooled_ks(self, loaded):
        """KS distances to the uniform law of the replicates' probability
        integral transforms under the transport and the Gaussian limits."""
        vertices = ref.lipschitz_vertices(ref.grid_cost(self.config["L"]))
        pit_ot, pit_norm = [], []
        for item in loaded:
            C, r = self._population(item["seed"])
            lam = item["cells"][0]["lambda0"] * np.quantile(C.ravel(), 0.5)
            P_pop, _, _ = ref.sinkhorn_symmetric(C, r, lam)
            sd = np.sqrt(ref.one_sample_variance(P_pop, C, r))
            draws = np.sort(ref.ot_limit_draws(r, vertices, self.limit_draws,
                                               ref.stream(item["seed"], 3)))
            values = item["cells"][0]["values"]
            pit_ot.append(np.searchsorted(draws, values, side="right") / draws.size)
            pit_norm.append(stats.norm.cdf(values / max(sd, 1e-300)))
        return (float(stats.kstest(np.concatenate(pit_ot), "uniform").statistic),
                float(stats.kstest(np.concatenate(pit_norm), "uniform").statistic))

    def check(self, loaded):
        from rotinf import space, solver

        problems = self.check_shape(loaded)
        if problems:
            return problems
        problems += self.check_reference(loaded[0])
        # criterion 6: the unregularized transport limit fits, and fits better
        # than the Gaussian one. Each replicate is mapped through its own
        # population's limit CDFs (the reference transport limit, and
        # N(0, sigma^2) with the plug-in variance at the population plan), and
        # the pooled values are compared with the uniform law.
        ks_ot, ks_norm = self.pooled_ks(loaded)
        if not ks_ot < min(ks_norm, self.max_ks_ot):
            problems.append(f"{self.name}: pooled KS to the transport limit {ks_ot:.4f} is "
                            f"not below {self.max_ks_ot} and the pooled KS to the Gaussian "
                            f"{ks_norm:.4f}")
        # the exact transport value of r against itself is zero
        C, r = self._population(loaded[0]["seed"])
        grid = space.build_grid_space(self.config["L"])
        c = space.cost_from_metric(grid, p=1.0)
        prob = space.Prob.from_weights(r, normalize=True)
        value = float(solver.exact_ot_baseline(c, prob, prob).value)
        if abs(value) > 1e-12:
            problems.append(f"{self.name}: exact value of r against itself is {value!r}")
        return problems


# ---------------------------------------------------------------------------
# Colocalization band workloads (rot rcol)


class BandWorkload:
    """``rot rcol`` between two fixed phantom images, squared Euclidean cost,
    pixel size 1, so every threshold is a squared pixel distance."""

    alpha = 0.05

    def __init__(self, name, units, shape, blobs_a, blobs_b, n, settings, band,
                 tol, plan_atol, curve_atol, calibration):
        self.name = name
        self.n_units = units
        self.calibration = calibration
        self.shape = shape
        self.blobs_a = blobs_a
        self.blobs_b = blobs_b
        self.n = n
        self.settings = settings      # list of (lambda0, B or draws) per unit seed
        self.band = band
        self.tol = tol
        self.plan_atol = plan_atol
        self.curve_atol = curve_atol

    def images(self):
        return (ref.blob_image(self.shape, *self.blobs_a),
                ref.blob_image(self.shape, *self.blobs_b))

    def make_units(self, seed, work, count=None):
        img_a, img_b = self.images()
        os.makedirs(work, exist_ok=True)
        paths = []
        for tag, img in (("a", img_a), ("b", img_b)):
            path = os.path.join(work, f"phantom_{tag}.csv")
            with open(path, "w") as fh:
                fh.write("\n".join(",".join(repr(float(x)) for x in row) for row in img) + "\n")
            paths.append(path)
        units = []
        for k, s in enumerate(unit_seeds(seed, count or self.n_units)):
            for j, (lam0, size) in enumerate(self.settings):
                out = os.path.join(work, f"u{k:03d}_{j}")
                count_flag = "--B" if self.band == "bootstrap" else "--M"
                args = ["rcol", "--imgA", paths[0], "--imgB", paths[1],
                        "--resample", str(self.n), "--lambda0", repr(lam0),
                        "--tol", repr(self.tol), "--band", self.band, count_flag, str(size),
                        "--seed", str(s), "--threads", "1", "--out-dir", out]
                units.append(Unit(args=args, out_dir=out, seed=s, ops=size,
                                  params={"lambda0": lam0, "size": size}))
        return units

    @staticmethod
    def reported_failures(result):
        return int(result["failures"])

    @staticmethod
    def load(unit, result):
        table = _read_csv(result["curve_file"])
        return {"seed": unit.seed, "params": unit.params, "result": result,
                "thresholds": table[:, 0], "values": table[:, 1],
                "lower": table[:, 2], "upper": table[:, 3]}

    # -- reference ----------------------------------------------------------

    def _resampled(self, seed):
        """Reduced supports, marginals and cost of the unit's resampled pair."""
        h, w = self.shape
        pts = ref.pixel_points(h, w)
        out = []
        for key, img in enumerate(self.images()):
            weights = img.ravel() / img.sum()
            counts = ref.stream(seed, key).multinomial(self.n, weights)
            support = np.flatnonzero(counts)
            out.append((support, counts[support] / self.n))
        (rows, r), (cols, s) = out
        return rows, r / r.sum(), cols, s / s.sum(), ref.sq_dist(pts[rows], pts[cols])

    def _lambda(self, lam0):
        h, w = self.shape
        pts = ref.pixel_points(h, w)
        return lam0 * float(np.quantile(ref.sq_dist(pts, pts), 0.5))

    def check_structure(self, item):
        """Curve and band shape of one unit."""
        problems = []
        tag = f"{self.name}: unit {item['seed']} lambda0={item['params']['lambda0']}"
        t, v, lo, hi = item["thresholds"], item["values"], item["lower"], item["upper"]
        h, w = self.shape
        dy, dx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        grid_sq = np.unique(dx ** 2 + dy ** 2).astype(float)
        if (np.diff(t) <= 0).any() or not np.isin(t, grid_sq).all():
            problems.append(f"{tag}: thresholds are not distinct squared pixel distances")
        if (np.diff(v) < -1e-12).any():
            problems.append(f"{tag}: curve is not nondecreasing")
        if abs(v[-1] - 1.0) > 1e-9 or v.min() < -1e-12:
            problems.append(f"{tag}: curve runs from {float(v.min())!r} to {float(v[-1])!r}, "
                            "not up to mass 1")
        u = item["result"]["u_quantile"]
        if not (np.isfinite(u) and u > 0):
            problems.append(f"{tag}: band quantile {u!r} is not positive")
            return problems
        half = np.sqrt(2.0) * u / np.sqrt(self.n)
        if (np.abs(lo - np.clip(v - half, 0.0, 1.0)) > 1e-12).any() \
                or (np.abs(hi - np.clip(v + half, 0.0, 1.0)) > 1e-12).any():
            problems.append(f"{tag}: band is not the curve +- sqrt(2) u / sqrt(n)")
        lam = self._lambda(item["params"]["lambda0"])
        if abs(item["result"]["lambda"] - lam) > 1e-12 * lam:
            problems.append(f"{tag}: lambda {item['result']['lambda']!r}, reference {lam!r}")
        return problems

    def check_reference(self, item, with_variance):
        """Plan and curve of one unit against the reference; with_variance
        also checks the per-threshold variances and the band quantile."""
        from rotinf import regularizers, sensitivity, solver, space

        problems = []
        lam0 = item["params"]["lambda0"]
        tag = f"{self.name}: unit {item['seed']} lambda0={lam0}"
        rows, r, cols, s, C = self._resampled(item["seed"])
        if list(item["result"]["support_sizes"]) != [rows.size, cols.size]:
            return [f"{tag}: supports {item['result']['support_sizes']}, "
                    f"reference {[rows.size, cols.size]}"]
        thresholds = np.unique(C)
        if not np.array_equal(item["thresholds"], thresholds):
            return [f"{tag}: thresholds differ from the reduced support's costs"]
        lam = self._lambda(lam0)
        try:
            P, _, _ = ref.sinkhorn(C, r, s, lam, tol=1e-12)
        except ArithmeticError as err:
            return [f"{tag}: {err}"]
        curve = ref.cum_curve(C, P, thresholds)
        err = float(np.abs(curve - item["values"]).max())
        if err > self.curve_atol:
            problems.append(f"{tag}: curve differs from the reference by {err:.3e}")
        P_prog = solver.sinkhorn_matrix(C, r, s, lam, tol=self.tol)[0]
        err = float(np.abs(P_prog - P).max())
        if err > self.plan_atol:
            problems.append(f"{tag}: plan differs from the reference by {err:.3e}")
        if not with_variance:
            return problems
        var = ref.two_sample_threshold_variances(P, C, thresholds, r, s)
        # the program's covariance action on a few thresholds
        plan = solver.TransportPlan(entries=P_prog.ravel(), r=space.Prob(r), s=space.Prob(s),
                                    lam=lam, reg=regularizers.entropy(), p=1.0,
                                    iterations=0, residual=0.0)
        action = sensitivity.plan_covariance_action(plan.reg, plan, mode="two_sample",
                                                    delta=0.5)
        for i in np.linspace(0, thresholds.size - 2, 4).astype(int):
            got = float(action.quad_form((C <= thresholds[i]).ravel().astype(float)))
            if abs(got - var[i]) > 1e-6 * var.max():
                problems.append(f"{tag}: variance at threshold {thresholds[i]:g}: "
                                f"program {got!r}, reference {float(var[i])!r}")
        lower, upper = ref.band_quantile_bounds(np.sqrt(var), self.alpha,
                                                item["params"]["size"])
        u = item["result"]["u_quantile"]
        if not lower <= u <= upper:
            problems.append(f"{tag}: band quantile {u:.4f} outside "
                            f"[{lower:.4f}, {upper:.4f}]")
        return problems

    def check(self, loaded):
        problems = []
        for item in loaded:
            problems += self.check_structure(item)
        if problems:
            return problems
        seen = set()
        for item in loaded:
            lam0 = item["params"]["lambda0"]
            if lam0 not in seen:  # the first unit of each setting
                seen.add(lam0)
                problems += self.check_reference(item, with_variance=self.band == "gaussian")
        return problems


# ---------------------------------------------------------------------------
# The four workloads

CRITERION_9_A = ([(3.0, 3.0)], [1.6], [1.0])
CRITERION_9_B = ([(4.2, 4.0)], [1.8], [1.0])


def _scaled_phantoms(side):
    """The 64 x 64 memory-path phantom pair, scaled to side x side."""
    f = side / 64.0
    a = ([(24.0 * f, 24.0 * f), (40.0 * f, 38.0 * f)], [6.0 * f, 8.0 * f], [1.0, 0.7])
    b = ([(30.0 * f, 30.0 * f)], [9.0 * f], [1.0])
    return a, b


GAUSSIAN_SIDE = 40
_GA, _GB = _scaled_phantoms(GAUSSIAN_SIDE)

WORKLOADS = {
    w.name: w for w in (
        MCStudentized(
            "mc_studentized",
            units=100,
            config={"L": 4, "lambda0": [2.0, 0.6, 0.2], "n": [25], "replicates": 20,
                    "studentize": True},
            subset=2, plan_atol=1e-8, value_atol=1e-6),
        MCSmallLambda(
            "mc_small_lambda",
            units=300,
            # max_iter: at tol 1e-5 single replicates take up to ~90k iterations,
            # close to the default 100k, past which they would fail on some seeds
            config={"L": 2, "lambda0": [0.05], "n": [25], "replicates": 4,
                    "studentize": False, "compare_ot_limit": True, "tol": 1e-5,
                    "max_iter": 1_000_000},
            subset=2, plan_atol=1e-4, value_atol=1e-3),
        BandWorkload(
            "band_bootstrap",
            units=10, shape=(8, 8), blobs_a=CRITERION_9_A, blobs_b=CRITERION_9_B, n=2000,
            settings=[(2.0, 50), (0.01, 50)], band="bootstrap", tol=1e-7,
            plan_atol=3e-6, curve_atol=1e-5,
            calibration=Calibration(loops=[(16, 25), (64, 8)], argsort=30_000,
                                    nominal_s=1.3e-3)),
        BandWorkload(
            "band_gaussian_large",
            units=6, shape=(GAUSSIAN_SIDE, GAUSSIAN_SIDE), blobs_a=_GA, blobs_b=_GB, n=2000,
            settings=[(0.5, 100)], band="gaussian", tol=1e-9,
            plan_atol=1e-10, curve_atol=1e-7,
            calibration=Calibration(argsort=300_000, rows=4, nominal_s=43e-3)),
    )
}
