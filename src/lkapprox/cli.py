"""Command-line front end.

    lk <command> --config <path-or-name> [options]

Commands: spectrum, build, eval, k1, critical-delay, sweep, validate.
Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
error.  Configs are JSON; the names example1, example2, and delay-free
resolve to packaged configurations.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import functional, oracle
from .discretize import (SCHEMES, CostWeights, FunctionSpec, RfdeSystem, _SEGMENTS,
                         _check_dimensions, build_model)
from .linalg import (
    ConvergenceError,
    NumericalFailureError,
    RangeError,
    SingularOperatorError,
    _lower_bound,
    eigenvalues,
)
from .oracle import LyapunovConditionError
from .spectral import _check_order

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Bytes of each stack of d x d matrices that one pass of an h sweep may
# hold.  At d = 42 a 40-point sweep runs as three passes: one pass over all
# 40 points raised the benchmark's peak RSS by 7%, three raise it by ~2%.
_PASS_BYTES = 2 ** 18

_NUMERIC_ERRORS = (
    ConvergenceError,
    SingularOperatorError,
    NumericalFailureError,
    RangeError,
    LyapunovConditionError,
    np.linalg.LinAlgError,
    ValueError,
    ArithmeticError,
)

_REQUIRED_KEYS = ("A0", "A1", "h", "Q0", "Q1")
_OPTIONAL_KEYS = ("Q2", "scheme", "N", "phi", "allow_incomplete")

_BUILTIN_CONFIGS = {
    "example1": "example1.json",
    "example2": "example2.json",
    "delay-free": "delay_free.json",
}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    system: RfdeSystem
    weights: CostWeights
    scheme: str
    N: int
    phi: FunctionSpec
    phi_label: str
    allow_incomplete: bool


def _parse_phi(raw_phi, n):
    """A config segment: a built-in name, {"constant": vec}, or
    {"polynomial": rows of theta-monomial coefficients}."""
    if raw_phi is None:
        return FunctionSpec.named("one", n), "one"
    if isinstance(raw_phi, str):
        try:
            return FunctionSpec.named(raw_phi, n), raw_phi
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if isinstance(raw_phi, dict) and len(raw_phi) == 1:
        kind, data = next(iter(raw_phi.items()))
        try:
            if kind == "constant":
                spec = FunctionSpec.constant(np.asarray(data, dtype=float))
            elif kind == "polynomial":
                spec = FunctionSpec.polynomial(np.asarray(data, dtype=float))
            else:
                raise ConfigError(f"unknown phi form {kind!r}")
            if spec.n != n:
                raise ConfigError(
                    f"phi is {spec.n}-dimensional but the system is {n}-dimensional"
                )
            return spec, kind
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid phi: {exc}") from exc
    raise ConfigError(
        "config phi must be a built-in name, {\"constant\": [...]}, "
        "or {\"polynomial\": [[...], ...]}"
    )


def _check_numbers(data, key):
    """ConfigError if a string or a boolean stands in `key`'s numbers,
    which NumPy would otherwise read as the number it spells."""
    if isinstance(data, (str, bool)):
        raise ConfigError(f"config {key} must hold JSON numbers, got {data!r}")
    if isinstance(data, list):
        for item in data:
            _check_numbers(item, key)


def _load_config(path_or_name):
    if path_or_name in _BUILTIN_CONFIGS and not os.path.exists(path_or_name):
        text = (
            resources.files("lkapprox")
            .joinpath("configs")
            .joinpath(_BUILTIN_CONFIGS[path_or_name])
            .read_text(encoding="utf-8")
        )
    else:
        try:
            with open(path_or_name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path_or_name!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")
    for key in raw:
        if key not in _REQUIRED_KEYS + _OPTIONAL_KEYS:
            raise ConfigError(f"config has unknown key {key!r}")
    try:
        system = RfdeSystem(A0=raw["A0"], A1=raw["A1"], h=raw["h"])
        n = system.n
        Q2 = raw.get("Q2")
        weights = CostWeights(Q0=raw["Q0"], Q1=raw["Q1"],
                              Q2=np.zeros((n, n)) if Q2 is None else Q2)
        _check_dimensions(system, weights)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc

    scheme = raw.get("scheme", "legendre")
    if scheme not in SCHEMES:
        raise ConfigError(
            f"config scheme must be {' or '.join(map(repr, SCHEMES))}, got {scheme!r}"
        )
    try:
        N = _check_order(raw.get("N", 20), "config N")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    phi, phi_label = _parse_phi(raw.get("phi"), n)
    allow_incomplete = raw.get("allow_incomplete", False)
    if not isinstance(allow_incomplete, bool):
        raise ConfigError("config allow_incomplete must be a boolean")
    # Last, so that a config rejected before keeps its message.
    for key in ("A0", "A1", "h", "Q0", "Q1", "Q2"):
        _check_numbers(raw.get(key), key)
    if isinstance(raw.get("phi"), dict):
        _check_numbers(raw["phi"][phi_label], f"phi {phi_label}")
    return RunConfig(system, weights, scheme, N, phi, phi_label, allow_incomplete)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            # Strict JSON has no Infinity/NaN literals.
            return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
        return x
    return obj


def _write(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out_path):
    _write(json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n", out_path)


def _fmt(x):
    return f"{x:.17g}"


def _scheme_and_N(cfg, args):
    scheme = getattr(args, "scheme", None) or cfg.scheme
    N = getattr(args, "N", None)
    try:
        return scheme, _check_order(cfg.N if N is None else N, "N")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _spectrum_payload(cfg, scheme, N):
    model = build_model(cfg.system, scheme, N)
    lam = sorted(eigenvalues(model.A), key=lambda z: (-z.real, -z.imag))
    rightmost = lam[0]
    return {
        "scheme": scheme,
        "N": N,
        "eigenvalues": [[z.real, z.imag] for z in lam],
        "rightmost": [rightmost.real, rightmost.imag],
        "hurwitz": rightmost.real < 0.0,
    }


def cmd_spectrum(cfg, args):
    scheme, N = _scheme_and_N(cfg, args)
    if args.both:
        payload = {s: _spectrum_payload(cfg, s, N) for s in SCHEMES}
    else:
        payload = _spectrum_payload(cfg, scheme, N)
    _emit_json(payload, args.out)
    return EXIT_OK


def _build_functional(cfg, args):
    scheme, N = _scheme_and_N(cfg, args)
    return functional.build_functional(
        cfg.system, cfg.weights, scheme=scheme, N=N,
        allow_incomplete=cfg.allow_incomplete,
    )


def _build_summary(fa):
    # The extremes are read before psd, which then takes its verdict from
    # them: one eigvalsh(P) and no Cholesky factorization.
    return {
        "scheme": fa.scheme,
        "N": fa.N,
        "n": fa.system.n,
        "h": fa.system.h,
        "coordinates": fa.model.coordinates,
        "residual": fa.residual,
        "hurwitz": fa.hurwitz,
        "max_re": fa.max_re,
        "lam_min": fa.lam_min,
        "lam_max": fa.lam_max,
        "psd": fa.psd,
    }


def cmd_build(cfg, args):
    fa = _build_functional(cfg, args)
    summary = _build_summary(fa)
    if args.out:
        P = np.ascontiguousarray(fa.P, dtype="<f8")
        with open(args.out, "wb") as fh:
            fh.write(P.tobytes())
        meta = dict(summary)
        meta["rows"] = P.shape[0]
        meta["cols"] = P.shape[1]
        meta["dtype"] = "float64-le"
        meta["order"] = "row-major"
        _emit_json(meta, args.out + ".meta.json")
    else:
        _emit_json(summary, None)
    return EXIT_OK


def cmd_eval(cfg, args):
    fa = _build_functional(cfg, args)
    if args.phi:
        phi, label = FunctionSpec.named(args.phi, cfg.system.n), args.phi
    else:
        phi, label = cfg.phi, cfg.phi_label
    value = functional.evaluate(fa, phi)
    payload = _build_summary(fa)
    payload.update({"phi": label, "value": value})
    _emit_json(payload, args.out)
    return EXIT_OK


def _baselines(cfg):
    """Both baseline k1 values and whether one failed.  A baseline that
    raises reads nan, and its error goes to stderr."""
    values, failed = {}, False
    for key, method in (("baseline_norm_ratio", "norm-ratio"),
                        ("baseline_alpha_max", "alpha-max")):
        try:
            values[key] = functional.baseline_k1(cfg.system, cfg.weights, method)
        except _NUMERIC_ERRORS as exc:
            values[key] = math.nan
            failed = True
            print(f"lk: numerical failure: {key}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    return values, failed


def cmd_k1(cfg, args):
    fa = _build_functional(cfg, args)
    payload = _build_summary(fa)
    payload["k1"] = functional.k1(fa, check_psd=False)
    baselines, failed = _baselines(cfg)
    payload.update(baselines, delay_free=not bool(np.any(cfg.system.A1)))
    _emit_json(payload, args.out)
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_critical_delay(cfg, args):
    scheme, N = _scheme_and_N(cfg, args)
    lo, hi = _parse_range(args.bracket or "1:10")
    tol = 1e-4 if args.tol is None else args.tol
    try:
        lo, hi, tol = functional._check_bracket((lo, hi), tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    h_crit = functional.critical_delay(
        cfg.system, scheme=scheme, N=N, bracket=(lo, hi), tol=tol
    )
    _emit_json(
        {"scheme": scheme, "N": N, "tol": tol, "bracket": [lo, hi], "h_critical": h_crit},
        args.out,
    )
    return EXIT_OK


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"range must look like a:b, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"range endpoints must be numbers: {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"range endpoints must be finite, got {text!r}")
    if not lo < hi:
        raise ConfigError(f"range must be increasing, got {text!r}")
    return lo, hi


def _sweep_pass(cfg, scheme, systems, N):
    """The cells of the sweep points at `systems`, all of order N, from one
    stage-major build (`functional._build_pass`) and each point's
    `functional.k1`; each point's wall_time_ms is the time of both split
    evenly over the points.  The psd verdict is read after the clock."""
    t0 = time.perf_counter()
    fas = functional._build_pass(systems, cfg.weights, scheme=scheme, N=N,
                                 allow_incomplete=cfg.allow_incomplete)
    bounds = [functional.k1(fa, check_psd=False) for fa in fas]
    wall_ms = _fmt(1e3 * (time.perf_counter() - t0) / len(systems))
    return [{
        "k1": _fmt(bound),
        "max_re": _fmt(fa.max_re),
        "psd": "true" if fa.psd else "false",
        "residual": _fmt(fa.residual),
        "wall_time_ms": wall_ms,
    } for fa, bound in zip(fas, bounds)]


def cmd_sweep(cfg, args):
    if not args.axis:
        raise ConfigError("sweep requires --axis N|h")
    if not args.range:
        raise ConfigError("sweep requires --range a:b")
    steps = 10 if args.steps is None else args.steps
    if steps < 1:
        raise ConfigError("--steps must be >= 1")
    lo, hi = _parse_range(args.range)
    scheme, N_fixed = _scheme_and_N(cfg, args)
    # Each point is (axis cell, system, N).
    if args.axis == "N":
        # Rounding can repeat an order; each is built once, in first-seen order.
        orders = dict.fromkeys(int(round(v)) for v in np.linspace(lo, hi, steps))
        if min(orders) < 1:
            raise ConfigError("N sweep range must stay >= 1")
        points = [(str(N), cfg.system, N) for N in orders]
    else:
        if lo <= 0.0:
            raise ConfigError("h sweep range must stay positive")
        points = [(_fmt(h), RfdeSystem(A0=cfg.system.A0, A1=cfg.system.A1, h=float(h)),
                   N_fixed) for h in np.linspace(lo, hi, steps)]

    baselines, failed = {}, False
    if args.axis == "h":
        baselines, failed = _baselines(cfg)
        baselines = {key: _fmt(v) for key, v in baselines.items()}

    def rows_of(points):
        """The rows of `points` from one pass or, where it raises, from one
        pass per point."""
        labels, systems, Ns = zip(*points)
        try:
            cells = [dict(c, error="", **baselines)
                     for c in _sweep_pass(cfg, scheme, systems, Ns[0])]
        except _NUMERIC_ERRORS as exc:
            if len(points) > 1:
                return [row for point in points for row in rows_of([point])]
            # A failed point writes its axis value, psd = false and the
            # error; every other column reads nan.
            cells = [{"psd": "false", "error": f"{type(exc).__name__}: {exc}"}]
        return [{args.axis: label, **c} for label, c in zip(labels, cells)]

    # A pass holds the closures, Schur factors and P of its points at once,
    # so it takes points of one order, and each run of one order splits
    # evenly into the fewest passes that keep such a stack of order-d
    # matrices within _PASS_BYTES.  An N sweep builds one point per pass.
    passes = []
    for N, run in itertools.groupby(points, key=lambda point: point[2]):
        run = list(run)
        d = cfg.system.n * (N + 1)
        count = -(-len(run) // max(1, _PASS_BYTES // (8 * d * d)))
        size = -(-len(run) // count)
        passes += [run[i:i + size] for i in range(0, len(run), size)]
    rows = [row for points in passes for row in rows_of(points)]
    header = [args.axis, "k1", "max_re", "psd", "residual", "wall_time_ms",
              *baselines, "error"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, header, restval="nan", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write(buf.getvalue(), args.out)
    return EXIT_NUMERIC if failed or any(row["error"] for row in rows) else EXIT_OK


def cmd_validate(cfg, args):
    N = _scheme_and_N(cfg, args)[1]
    failures, mats, k1s = {}, {}, {}
    report = {"N": N, "failures": failures}
    dl = None
    for route in (*SCHEMES, "psi", "quad_cc", "quad_gauss"):
        # A failure is keyed by the route until its matrix is built, and by
        # k1_<route> while its lower bound is taken.
        key = route
        try:
            if route in SCHEMES:
                fa = functional.build_functional(
                    cfg.system, cfg.weights, scheme=route, N=N,
                    allow_incomplete=cfg.allow_incomplete,
                )
                mats[route] = fa.grid_matrix()
                key = f"k1_{route}"
                k1s[route] = functional.k1(fa, check_psd=False)
            elif route == "psi":
                dl = oracle.build_delay_lyap(cfg.system, cfg.weights)
                report["psi_residuals"] = oracle.property_residuals(dl)
                report["psi_cond"] = dl.cond
            elif dl is not None:
                P, _ = oracle.assemble_quad(dl, cfg.weights, rule=route[5:], N=N)
                if route == "quad_cc":   # the gauss nodes are not the closures' grid
                    mats[route] = P
                key = f"k1_{route}"
                k1s[route] = _lower_bound(P, cfg.system.n)
        except _NUMERIC_ERRORS as exc:
            failures[key] = f"{type(exc).__name__}: {exc}"

    report["matrix_deviation"] = {
        f"{a}_vs_{b}": float(np.max(np.abs(mats[a] - mats[b])))
        for a, b in itertools.combinations(sorted(mats), 2)}
    if mats:
        report["matrix_scale"] = max(float(np.max(np.abs(M))) for M in mats.values())

    if k1s:
        lo, hi = min(k1s.values()), max(k1s.values())
        # -inf is infinitely far from a finite k1 and not at all from -inf.
        spread = 0.0 if lo == hi else hi - lo
        k1s["rel_spread"] = (spread / max(1e-300, abs(lo), abs(hi))
                             if math.isfinite(spread) else spread)
    report["k1"] = k1s

    _emit_json(report, args.out)
    return EXIT_NUMERIC if report["failures"] else EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "build": cmd_build,
    "eval": cmd_eval,
    "k1": cmd_k1,
    "critical-delay": cmd_critical_delay,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
}


@functools.cache   # the parser holds no state between parses
def _make_parser():
    parser = argparse.ArgumentParser(
        prog="lk",
        description="Spectral approximations of complete-type "
                    "Lyapunov-Krasovskii functionals for one-delay systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="JSON config path, or example1|example2|delay-free")
        if name != "validate":
            p.add_argument("--scheme", choices=SCHEMES)
        p.add_argument("-N", type=int, dest="N")
        p.add_argument("--out")
        if name == "spectrum":
            p.add_argument("--both", action="store_true",
                           help="report both schemes")
        if name == "eval":
            p.add_argument("--phi", choices=tuple(_SEGMENTS))
        if name == "critical-delay":
            p.add_argument("--bracket", help="h bracket a:b (default 1:10)")
            p.add_argument("--tol", type=float)
        if name == "sweep":
            p.add_argument("--axis", choices=("N", "h"))
            p.add_argument("--range", help="sweep range a:b")
            p.add_argument("--steps", type=int)
    return parser


def main(argv=None):
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"lk: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"lk: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _NUMERIC_ERRORS as exc:
        print(f"lk: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
