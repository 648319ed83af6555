"""The lkapprox benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one closed-loop workload with one caller in this process (only the
program's own sweep pool adds threads), checks every output, and prints as
its last line one JSON object {correct, attempted, failed, metrics}.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 reports the per-layer metrics: ops alternate, two traced and two
untraced, so the tracing overhead is measured in the same run; a child with
OPENBLAS_NUM_THREADS=1 gives the single-threaded baseline; a table of
per-layer self time over the n x N grid is printed for information.

Workloads, metrics and the layer -> end-to-end predictions are described
in perfbench/README.md.  The program is imported from src/ of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("build-large", "sweep-small", "validate-oracle")
COLD_RUNS = 5
# On the workloads whose op does not include `lk critical-delay`, one such
# op runs after every MARGIN_EVERY ops.
MARGIN_EVERY = 2
MIN_SAMPLES = 3
GRID_N = (10, 20, 40, 80)

# The per-layer metrics, in the order they are printed.
_CALL_COUNTS = ("linalg.solve_lyapunov", "linalg.eigenvalues", "linalg.sym_eigen",
                "linalg.expm", "oracle.pair")
_PER_OP = ("linalg.solve_lyapunov", "linalg.eigenvalues", "linalg.sym_eigen",
           "linalg.expm")
_SELF = ("linalg.solve_lyapunov", "linalg.eigenvalues", "linalg.sym_eigen",
         "linalg.schur_complement", "linalg.expm",
         "functional.build_functional", "functional.k1", "functional.baseline_k1",
         "functional.critical_delay",
         "discretize.build_leg_model", "discretize.build_cheb_model",
         "discretize.discretize_leg",
         "oracle.build_delay_lyap", "oracle.assemble_quad", "oracle.k1_quad",
         "oracle.property_residuals")


def _p90(values):
    """The 90th percentile of two or more samples (linear between order statistics)."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _openblas_threads():
    """Thread count of each loaded OpenBLAS, read through its get-threads symbol."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        if not os.path.isfile(path):
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(seed):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "openblas_threads": _openblas_threads(),
        "LK_THREADS": os.environ.get("LK_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "sweep_workers": sweep_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def sweep_workers():
    """The pool size `lk sweep` chooses (read, never set)."""
    env = os.environ.get("LK_THREADS", "")
    return int(env) if env.isdigit() and int(env) > 0 else min(4, os.cpu_count() or 1)


class Tally:
    """Ops attempted and failed; a failure prints its traceback to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # every failure of an op is counted, none stops the run
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def _timed_op(workload, tally, scope=contextlib.nullcontext):
    """Run one op inside scope(); returns (seconds, check info) or None."""

    def op():
        with scope():
            t0 = time.perf_counter()
            out = workload.run()
            elapsed = time.perf_counter() - t0
        return elapsed, workload.check(out)

    return tally.call(op)


def _timed_margin(workload, tally):
    def op():
        t0 = time.perf_counter()
        out = workload.run_margin()
        elapsed = time.perf_counter() - t0
        workload.check_margin(out)
        return elapsed

    return tally.call(op)


def cold_setup(args, tally):
    """Wall time of COLD_RUNS fresh interpreters that each run the first op."""
    times = []
    for _ in range(COLD_RUNS):
        tally.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "cold.py"), args.workload,
             str(args.seed), OUT_DIR],
            stdout=subprocess.DEVNULL, timeout=60, check=False)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            tally.failed += 1
        times.append(elapsed)
    return times


def _op_loop(workload, tally, seconds, margin_loop):
    """Closed loop for `seconds` after a warm-up: (op latencies, margin latencies).

    With margin_loop, an `lk critical-delay` op follows every MARGIN_EVERY
    ops; otherwise the margin latency is the one the op reports, if any.
    """
    _timed_op(workload, tally)
    if margin_loop:
        _timed_margin(workload, tally)
    op_s, margin_s = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while (time.perf_counter() < deadline or len(op_s) < MIN_SAMPLES
           or (margin_loop and len(margin_s) < MIN_SAMPLES)):
        i += 1
        got = _timed_op(workload, tally)
        if got is not None:
            op_s.append(got[0])
            if "margin_s" in got[1]:
                margin_s.append(got[1]["margin_s"])
        if margin_loop and i % MARGIN_EVERY == 0:
            got = _timed_margin(workload, tally)
            if got is not None:
                margin_s.append(got)
        if tally.failed > 10:
            break
    return op_s, margin_s


def untraced_run(args, workload, tally):
    setup = cold_setup(args, tally)
    op_s, margin_s = _op_loop(workload, tally, args.seconds, not workload.MARGIN_IN_OP)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rel_err = tally.call(workload.rel_err)
    if len(op_s) < 2 or not margin_s or rel_err is None:
        return None, {}
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "op_s.p50": (statistics.median(op_s), "s", len(op_s)),
        "op_s.p90": (_p90(op_s), "s", len(op_s)),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s", len(op_s)),
        "margin_s.p50": (statistics.median(margin_s), "s", len(margin_s)),
        "oracle_k1_rel_err": (rel_err, "1", 1),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    return metrics, {}


def _blas1_baseline(args, seconds):
    """op_s.p50 of this workload in a child with OPENBLAS_NUM_THREADS=1."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0",
         "--ops-only"],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread baseline failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _grid_systems(seed):
    import numpy as np
    import lkapprox
    import workloads
    one = np.eye(1)
    systems = {1: (lkapprox.RfdeSystem(A0=[[-0.5]], A1=[[-1.0]], h=2.2),
                   lkapprox.CostWeights(Q0=one, Q1=one, Q2=0 * one))}
    for n, name in ((2, "sweep-small"), (6, "build-large")):
        config, _ = workloads.make_config(name, seed)
        systems[n] = workloads.system_and_weights(config)
    return systems


_GRID_COLUMNS = ("linalg.solve_lyapunov", "linalg.eigenvalues", "linalg.sym_eigen",
                 "linalg.schur_complement", "discretize.build_*_model",
                 "functional.build_functional", "functional.k1")


def grid_table(seed, tracer):
    """Per-layer self time (ms) of one build + k1 at each n x N x scheme cell."""
    import lkapprox
    import tracer as tr
    lines = ["grid: self time in ms of one build_functional + k1 (informational)",
             "   n    N  scheme       d    total  " + "  ".join(
                 c.split(".")[-1][:12].rjust(12) for c in _GRID_COLUMNS)]
    for n, (system, weights) in _grid_systems(seed).items():
        for N in GRID_N:
            for scheme in ("legendre", "cheb"):
                op = f"grid:{n}:{N}:{scheme}"
                first = len(tracer.spans)
                with tracer.tracing(op):
                    t0 = time.perf_counter()
                    fa = lkapprox.build_functional(system, weights, scheme=scheme, N=N)
                    lkapprox.k1(fa, check_psd=False)
                    total = time.perf_counter() - t0
                row = tr.per_op(tracer.spans[first:]).get(op, {})
                model = "discretize.build_leg_model" if scheme == "legendre" \
                    else "discretize.build_cheb_model"
                cells = [row.get(model if c.endswith("*_model") else c, [0, 0.0])[1]
                         for c in _GRID_COLUMNS]
                lines.append(f"{n:4d} {N:4d}  {scheme:8s} {n * (N + 1):5d} "
                             f"{1e3 * total:8.2f}  "
                             + "  ".join(f"{1e3 * c:12.3f}" for c in cells))
    return lines


def traced_run(args, workload, tally):
    import tracer as tr
    tracer = tr.Tracer()
    _timed_op(workload, tally)                      # warm-up
    traced_s, plain_s, busy, eff = [], [], [], []
    traced_ops = []
    workers = sweep_workers()
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline or len(traced_s) < 2 or len(plain_s) < 2:
        if (i // 2) % 2 == 0:
            got = _timed_op(workload, tally, lambda op_id=i: tracer.tracing(op_id))
            if got is not None:
                traced_s.append(got[0])
                traced_ops.append(i)
        else:
            got = _timed_op(workload, tally)
            if got is not None:
                plain_s.append(got[0])
                if "point_busy_s" in got[1]:
                    busy.append(got[1]["point_busy_s"])
                    eff.append(got[1]["point_busy_s"] / (got[1]["sweep_s"] * workers))
        i += 1
        if tally.failed > 10:
            break
    if not traced_s or not plain_s:
        return None, {}

    blas1 = tally.call(_blas1_baseline, args, max(2, args.seconds // 3))
    grid = tally.call(grid_table, args.seed, tracer)
    if blas1 is None or grid is None:
        return None, {}
    tally.attempted += blas1["attempted"]
    tally.failed += blas1["failed"]

    traced = set(traced_ops)
    op_spans = [s for s in tracer.spans if s[4] in traced]
    table = tr.per_op(op_spans)
    ops = len(traced_ops)

    def total(name, field):
        return sum(row.get(name, [0, 0.0, 0])[field] for row in table.values())

    def module_self(module):
        return sum(v[1] for row in table.values() for k, v in row.items()
                   if k.split(".")[0] == module) / ops

    metrics = {"trace.ops": (ops, "count", ops)}
    for name in _CALL_COUNTS:
        metrics[f"{name}.calls"] = (total(name, 0), "count", ops)
    for name in _PER_OP:
        metrics[f"{name}.per_op"] = (total(name, 0) / ops, "count/op", ops)
    metrics["linalg.solve_lyapunov.d3_sum"] = (
        total("linalg.solve_lyapunov", 2) / ops, "d3/op", ops)
    for name in _SELF:
        metrics[f"{name}.self_s"] = (total(name, 1) / ops, "s", ops)
    metrics["spectral.calls"] = (
        sum(v[0] for row in table.values() for k, v in row.items()
            if k.startswith("spectral.")), "count", ops)
    pair_calls = total("oracle.pair", 0)
    metrics["oracle.pair.hit_ratio"] = (
        1.0 - tr.expm_under_pair(op_spans) / pair_calls if pair_calls else 0.0,
        "1", pair_calls)
    metrics["cli.sweep.point_busy_s"] = (
        statistics.median(busy) if busy else 0.0, "s", len(busy))
    metrics["cli.sweep.parallel_eff"] = (
        statistics.median(eff) if eff else 0.0, "1", len(eff))
    for module in tr.MODULES:
        metrics[f"{module}.self_s"] = (module_self(module), "s", ops)
    plain_p50 = statistics.median(plain_s)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_s) / plain_p50 - 1.0, "1", len(traced_s))
    metrics["blas_default.op_s.p50"] = (plain_p50, "s", len(plain_s))
    metrics["blas1.op_s.p50"] = (blas1["op_s.p50"], "s", blas1["ops"])

    index = {id(s): k for k, s in enumerate(tracer.spans)}
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "size"],
                   "spans": [[s[0], s[1], s[2],
                              None if s[3] is None else index[id(s[3])],
                              s[4], s[5]] for s in tracer.spans]}, fh)
    return metrics, {"grid": grid, "spans": path}


def ops_only(args, workload):
    """Child mode of the single-thread baseline: the op loop alone."""
    tally = Tally()
    op_s, _ = _op_loop(workload, tally, args.seconds, False)
    print(json.dumps({"op_s.p50": statistics.median(op_s) if op_s else None,
                      "ops": len(op_s), "attempted": tally.attempted,
                      "failed": tally.failed}))
    return 0 if op_s and not tally.failed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not os.path.isfile(os.path.join(SRC, "lkapprox", "__init__.py")):
        print(f"run.py: no lkapprox package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.prepare(args.workload, args.seed, OUT_DIR)
    if args.ops_only:
        return ops_only(args, workload)

    context = run_context(args.seed)
    print("context: " + json.dumps(context, sort_keys=True))
    tally = Tally()
    run = traced_run if args.trace else untraced_run
    metrics, extra = run(args, workload, tally)
    for line in extra.get("grid", []):
        print(line)
    if "spans" in extra:
        print(f"spans: {extra['spans']}")
    correct = metrics is not None and tally.failed == 0
    for name, (value, unit, count) in (metrics or {}).items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={count})")
    print(f"{args.workload} failed_frac = {tally.failed / max(1, tally.attempted):.6g} "
          f"({tally.failed} of {tally.attempted} ops)")
    if metrics is None:
        print("run.py: no result; see the errors above", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
