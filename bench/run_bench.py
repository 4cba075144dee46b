"""Benchmark of the rot command line tool on the paper's workloads.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from the
checkout's ``src/``; the run refuses to start without it. Each invocation
runs one workload in this one process: a fixed list of seeded units (one
``rot`` invocation each, in process, with ``--threads 1``) is cycled in
passes until ``--seconds`` is spent. Each invocation is timed against an
interleaved calibration kernel (see ``Passes``), and ``compute_s`` sums the
units' calibrated times. ``setup_s`` is the median of five cold imports of
the package (this process's own, from its start, and four fresh
interpreters) plus the time to build the workload's inputs. Outputs are
checked against the benchmark's own reference computations. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A full record, with the
environment, goes to ``.bench_out/``.
"""

import time

_T0 = time.perf_counter()

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
from coldstart import process_age  # noqa: E402

_START = _T0 - process_age()

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ROT_THREADS", None)

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess

ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
COLD_IMPORTS = 5  # this process's own import and four fresh interpreters


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import rotinf and rotinf.cli from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "rotinf", "cli.py")):
        sys.exit(f"error: {SRC}/rotinf not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import rotinf
    import rotinf.cli
    where = os.path.realpath(rotinf.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: rotinf was imported from {where}, not from {SRC}")
    return rotinf.cli


def fresh_imports(count):
    """Cold import times of rotinf and rotinf.cli in ``count`` fresh
    interpreters, one after another, each from its process's start."""
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, os.path.join(BENCH, "coldstart.py"), SRC],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # the config layout differs across numpy versions
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": openblas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "rot_threads": 1,
            "machine": platform.machine()}


def invoke(cli, args):
    """One in-process rot invocation; returns (exit code, stdout)."""
    import click

    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(args=args, prog_name="rot", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
        except click.exceptions.Abort:
            code = 1
    return code, buf.getvalue()


class Passes:
    """Cycles the unit list and records each unit's calibrated times.

    Every invocation is bracketed by two runs of the workload's calibration
    kernel (see calibration.py); the unit's time is scaled by the kernel's
    nominal time over the mean of its two brackets. A unit's value is the
    median over its passes.
    """

    def __init__(self, cli, workload, units):
        self.cli = cli
        self.workload = workload
        self.units = units
        self.calibration = workload.calibration
        self.times = [[] for _ in units]      # calibrated, per pass
        self.raw = [[] for _ in units]        # wall seconds, per pass
        self.first = [None] * len(units)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.records = [None] * len(units)

    def one(self, k, tracer=None):
        unit = self.units[k]
        if tracer is not None:
            tracer.reset()
        c0 = self.calibration.time()
        t0 = time.perf_counter()
        if tracer is not None:
            code, out = tracer.root("cli", invoke, self.cli, unit.args)
        else:
            code, out = invoke(self.cli, unit.args)
        dt = time.perf_counter() - t0
        scale = self.calibration.nominal_s / (0.5 * (c0 + self.calibration.time()))
        self.attempted += 1 + unit.ops
        if code != 0:
            self.failed += 1
            return
        self.failed += self.workload.reported_failures(json.loads(out))
        if self.first[k] is None:
            self.first[k] = out
        elif out != self.first[k]:
            self.problems.append(f"unit {k}: output differs between passes")
        if tracer is not None and dt * scale < (self.records[k] or {}).get("time", float("inf")):
            self.records[k] = {"time": dt * scale,
                               "self_s": {n: v * scale for n, v in tracer.self_s.items()},
                               "total_s": {n: v * scale for n, v in tracer.total_s.items()},
                               "counts": dict(tracer.counts),
                               "iters": list(tracer.sinkhorn_iters)}
        self.times[k].append(dt * scale)
        self.raw[k].append(dt)

    def run(self, budget, tracer=None):
        """Whole passes until the next one would overrun the budget."""
        t_start = time.perf_counter()
        passes = 0
        while True:
            for k in range(len(self.units)):
                self.one(k, tracer)
            passes += 1
            elapsed = time.perf_counter() - t_start
            if elapsed * (passes + 1) / passes > budget:
                return passes

    def compute_s(self):
        return sum(statistics.median(t) for t in self.times if t)


def traced_metrics(passes):
    from layers import layer_metrics

    summed = {"self_s": {}, "total_s": {}, "counts": {}}
    iters = []
    for rec in passes.records:
        if rec is None:
            continue
        for part, acc in summed.items():
            for key, val in rec[part].items():
                acc[key] = acc.get(key, 0) + val
        iters += rec["iters"]
    return layer_metrics(summed, iters)


def bytes_written(units):
    total = 0
    for unit in units:
        for dirpath, _, files in os.walk(unit.out_dir):
            total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def main(argv):
    args = parse_args(argv)
    cli = import_package()
    t_import = time.perf_counter()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        units = workload.make_units(args.seed, work)
        t_inputs = time.perf_counter()
        # the median: a cold import's time varies from process to process,
        # and the fast ones are too rare for the fastest of five to repeat
        imports = [t_import - _START] + fresh_imports(COLD_IMPORTS - 1)
        import_s = statistics.median(imports)
        setup = {"setup_s": import_s + t_inputs - t_import, "setup.import_s": import_s,
                 "setup.inputs_s": t_inputs - t_import}

        if args.trace:
            # the first half of the list, measured once untraced and once
            # traced, so that a traced run takes as long as an untraced one
            units = units[: (len(units) + 1) // 2]
        untraced = Passes(cli, workload, units)
        if not args.trace:
            n_passes = {"untraced": untraced.run(args.seconds)}
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": (setup["setup_s"], "s"),
                       "compute_s": (untraced.compute_s(), "s"),
                       "peak_rss_mb": (rss_mb, "MB")}
            runs = [untraced]
            absent = []
        else:
            from layers import Tracer

            n_passes = {"untraced": untraced.run(args.seconds / 2)}
            tracer = Tracer()
            tracer.install()
            traced = Passes(cli, workload, units)
            try:
                n_passes["traced"] = traced.run(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            layer = traced_metrics(traced)
            layer["cli.bytes_written"] = (bytes_written(units), "B")
            layer["setup.import_s"] = (setup["setup.import_s"], "s")
            layer["setup.inputs_s"] = (setup["setup.inputs_s"], "s")
            layer["trace.compute_untraced_s"] = (untraced.compute_s(), "s")
            layer["trace.compute_traced_s"] = (traced.compute_s(), "s")
            layer["trace.overhead_s"] = (traced.compute_s() - untraced.compute_s(), "s")
            metrics = layer
            runs = [untraced, traced]
            absent = tracer.absent

        problems = [p for run in runs for p in run.problems]
        loaded = [workload.load(u, json.loads(out))
                  for u, out in zip(units, untraced.first) if out is not None]
        if loaded:
            problems += workload.check(loaded)
        else:
            problems.append("no unit produced output")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": not problems,
              "attempted": sum(r.attempted for r in runs),
              "failed": sum(r.failed for r in runs),
              "metrics": {name: {"value": float(v), "unit": u}
                          for name, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "passes": n_passes,
              "units": len(units), "cold_imports_s": imports,
              "unit_calibrated_s": [statistics.median(t) if t else None for t in untraced.times],
              "unit_raw_s": untraced.raw, "problems": problems,
              "absent_entry_points": absent, "result": result}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("environment " + json.dumps(record["environment"]))
    if absent:
        print("absent entry points: " + ", ".join(absent))
    for problem in problems:
        print("problem: " + problem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
