"""Per-layer spans recorded from the benchmark's side of each layer boundary.

``Tracer.install()`` replaces entry points of the package by module
attribute with timing wrappers and ``uninstall()`` puts the originals back;
nothing under ``src/`` changes. Every span records its duration and the part
of it covered by wrapped spans inside it, so a layer's self time is its
duration minus its children's. Counters (calls, iterations, draws, entries)
are taken at the same boundaries.

The untraced run never touches these attributes, so an entry point that a
later change removes only shows up here, as absent.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self._stack = []
        self._patched = []
        self.absent = []
        self.reset()

    def reset(self):
        """Start a fresh record (one per unit)."""
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.sinkhorn_iters = []

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn, on_result=None, on_args=None, on_error=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if on_args is not None:
                on_args(tracer, args, kwargs)
            frame = [0.0, name]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(tracer, err)
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                tracer.self_s[name] += dt - frame[0]
                tracer.total_s[name] += dt
                tracer.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(tracer, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, name, fn, *args, **kwargs):
        """Run fn inside an outermost span (one rot invocation)."""
        return self.span(name, fn)(*args, **kwargs)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, label, name, **hooks):
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(label)
            return
        setattr(owner, attr, self.span(name, original, **hooks))
        self._patched.append((owner, attr, original))

    def in_replicate(self):
        return any(frame[1] == "inference.replicate" for frame in self._stack)

    def install(self):
        from rotinf import coloc, inference, regularizers, sensitivity, solver, space

        def sinkhorn_done(tr, args, out):
            tr.sinkhorn_iters.append(int(out[3]))
            if tr.in_replicate():
                tr.counts["solver.sinkhorn.replicate_iterations"] += int(out[3])

        def sinkhorn_failed(tr, err):
            tr.counts["solver.sinkhorn.failures"] += 1
            its = getattr(err, "iterations", None)
            if its is not None:
                tr.sinkhorn_iters.append(int(its))

        def newton_done(tr, args, out):
            tr.counts["solver.newton.steps"] += int(out[2])

        def sample_args(tr, args, kwargs):
            tr.counts["sensitivity.sample.draws"] += int(args[1])

        def curve_args(tr, args, kwargs):
            tr.counts["coloc.curve_values.entries_sorted"] += int(np.size(args[0]))

        def cdist_done(tr, args, out):
            tr.counts["coloc.cdist.entries"] += int(np.size(out))

        def replicate_runner(original, span_name, failed_name, is_failure):
            def runner(fn, count, threads=1):
                results = original(self.span(span_name, fn), count, threads)
                self.counts[failed_name] += sum(1 for x in results if is_failure(x))
                return results
            return runner

        P = self._patch
        P(solver, "sinkhorn_matrix", "solver.sinkhorn_matrix", "solver.sinkhorn",
          on_result=sinkhorn_done, on_error=sinkhorn_failed)
        P(solver, "newton_matrix", "solver.newton_matrix", "solver.newton",
          on_result=newton_done)
        P(solver, "solve_reduced", "solver.solve_reduced", "solver.solve_reduced")
        P(solver, "exact_ot_baseline", "solver.exact_ot_baseline", "solver.exact_baseline")
        action = getattr(sensitivity, "PlanCovarianceAction", None)
        if action is None:
            self.absent.append("sensitivity.PlanCovarianceAction")
        else:
            P(action, "__init__", "PlanCovarianceAction.__init__", "sensitivity.action")
            P(action, "quad_form", "PlanCovarianceAction.quad_form", "sensitivity.quad_form")
            P(action, "sample", "PlanCovarianceAction.sample", "sensitivity.sample",
              on_args=sample_args)
        P(coloc, "_curve_values", "coloc._curve_values", "coloc.curve_values",
          on_args=curve_args)
        P(coloc, "cdist", "coloc.cdist", "coloc.cdist", on_result=cdist_done)
        P(coloc, "resample_distribution", "coloc.resample_distribution", "coloc.resample")
        P(inference, "rng_for", "inference.rng_for", "util.rng_for")
        P(coloc, "rng_for", "coloc.rng_for", "util.rng_for")
        P(inference, "mc_experiment", "inference.mc_experiment", "inference.mc_experiment")
        # the space and regularizers layers: constructors and helpers, by the
        # attribute their callers look up at call time
        for owner, attrs in ((space.Prob, ("__post_init__",)),
                             (space.CostVector, ("__post_init__",)),
                             (space.ConstraintOperator,
                              ("apply_reduced", "apply_transpose_reduced",
                               "materialize_reduced")),
                             (inference, ("build_grid_space", "cost_from_metric",
                                          "cost_quantile"))):
            for attr in attrs:
                P(owner, attr, f"{owner.__name__.split('.')[-1]}.{attr}", "space")
        for attr in ("entropy", "value", "grad", "hess_diag", "conjugate_grad",
                     "in_conjugate_domain"):
            P(regularizers, attr, f"regularizers.{attr}", "regularizers")
        P(coloc, "rcol_pipeline", "coloc.rcol_pipeline", "coloc.rcol_pipeline")
        # replicate loops: the per-replicate closures are only reachable
        # through the runner each module imported
        for module, span_name, failed_name, is_failure in (
                (inference, "inference.replicate", "inference.replicate.failures",
                 lambda x: x is None or (np.ndim(x) == 0 and np.isnan(x))),
                (coloc, "coloc.bootstrap", "coloc.bootstrap.failures",
                 lambda x: x is None)):
            original = getattr(module, "run_indexed", None)
            if original is None:
                self.absent.append(f"{module.__name__.split('.')[-1]}.run_indexed")
                continue
            setattr(module, "run_indexed",
                    replicate_runner(original, span_name, failed_name, is_failure))
            self._patched.append((module, "run_indexed", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def layer_metrics(record, sinkhorn_iters):
    """Per-layer metrics of one pass over a workload's units.

    ``record`` sums the units' self times and counts; ``sinkhorn_iters`` is
    the list of per-call Sinkhorn iteration counts.
    """
    s, c, total = record["self_s"], record["counts"], record["total_s"]
    iters = np.asarray(sinkhorn_iters, dtype=float)
    total_iters = int(iters.sum())
    replicates = c.get("inference.replicate.calls", 0)

    def q(p):
        return float(np.quantile(iters, p)) if iters.size else 0.0

    out = {
        "solver.sinkhorn.calls": (c.get("solver.sinkhorn.calls", 0), "count"),
        "solver.sinkhorn.iterations": (total_iters, "count"),
        "solver.sinkhorn.iter_p50": (q(0.5), "count"),
        "solver.sinkhorn.iter_p99": (q(0.99), "count"),
        "solver.sinkhorn.self_s": (s.get("solver.sinkhorn", 0.0), "s"),
        "solver.sinkhorn.us_per_iter": (
            1e6 * s.get("solver.sinkhorn", 0.0) / total_iters if total_iters else 0.0, "us"),
        "solver.sinkhorn.failures": (c.get("solver.sinkhorn.failures", 0), "count"),
        "solver.solve_reduced.calls": (c.get("solver.solve_reduced.calls", 0), "count"),
        "solver.solve_reduced.self_s": (s.get("solver.solve_reduced", 0.0), "s"),
        "solver.newton.calls": (c.get("solver.newton.calls", 0), "count"),
        "solver.newton.steps": (c.get("solver.newton.steps", 0), "count"),
        "solver.newton.self_s": (s.get("solver.newton", 0.0), "s"),
        "solver.exact_baseline.self_s": (s.get("solver.exact_baseline", 0.0), "s"),
        "sensitivity.action.builds": (c.get("sensitivity.action.calls", 0), "count"),
        "sensitivity.action.build_s": (s.get("sensitivity.action", 0.0), "s"),
        "sensitivity.quad_form.calls": (c.get("sensitivity.quad_form.calls", 0), "count"),
        "sensitivity.quad_form.self_s": (s.get("sensitivity.quad_form", 0.0), "s"),
        "sensitivity.sample.draws": (c.get("sensitivity.sample.draws", 0), "count"),
        "sensitivity.sample.self_s": (s.get("sensitivity.sample", 0.0), "s"),
        "inference.replicates": (replicates, "count"),
        "inference.replicate_failures": (c.get("inference.replicate.failures", 0), "count"),
        "inference.replicate_overhead_us": (
            1e6 * s.get("inference.replicate", 0.0) / replicates if replicates else 0.0, "us"),
        "inference.replicate.total_s": (total.get("inference.replicate", 0.0), "s"),
        "solver.sinkhorn.replicate_iterations": (
            c.get("solver.sinkhorn.replicate_iterations", 0), "count"),
        "inference.mc_experiment.self_s": (s.get("inference.mc_experiment", 0.0), "s"),
        "util.rng_for.calls": (c.get("util.rng_for.calls", 0), "count"),
        "util.rng_for.self_s": (s.get("util.rng_for", 0.0), "s"),
        "coloc.curve_values.calls": (c.get("coloc.curve_values.calls", 0), "count"),
        "coloc.curve_values.entries_sorted": (
            c.get("coloc.curve_values.entries_sorted", 0), "count"),
        "coloc.curve_values.self_s": (s.get("coloc.curve_values", 0.0), "s"),
        "coloc.bootstrap.replicates": (c.get("coloc.bootstrap.calls", 0), "count"),
        "coloc.bootstrap.failures": (c.get("coloc.bootstrap.failures", 0), "count"),
        "coloc.bootstrap.self_s": (s.get("coloc.bootstrap", 0.0), "s"),
        "coloc.cdist.entries": (c.get("coloc.cdist.entries", 0), "count"),
        "coloc.cdist.self_s": (s.get("coloc.cdist", 0.0), "s"),
        "coloc.resample.self_s": (s.get("coloc.resample", 0.0), "s"),
        "coloc.rcol_pipeline.self_s": (s.get("coloc.rcol_pipeline", 0.0), "s"),
        "space.calls": (c.get("space.calls", 0), "count"),
        "space.self_s": (s.get("space", 0.0), "s"),
        "regularizers.calls": (c.get("regularizers.calls", 0), "count"),
        "regularizers.self_s": (s.get("regularizers", 0.0), "s"),
        "cli.self_s": (s.get("cli", 0.0), "s"),
    }
    return out
