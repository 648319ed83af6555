"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload turns its seed into one config (the JSON that `lk` reads) by
rotating a fixed base system with a seeded orthogonal matrix Q:
A0 -> Q A0 Q', A1 -> Q A1 Q' and likewise every weight.  The rotation makes
every matrix dense and different per seed, but leaves the characteristic
roots, the delay margin and k1 unchanged, so the work per op, the analytic
margin the checks use and the oracle error are the same for every seed.

An op calls lkapprox through its public API or in-process through the `lk`
entry point.  `run` does the timed work and returns the raw outputs;
`check` raises CheckFailed when an output is wrong.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time

import numpy as np

import lkapprox
from lkapprox import cli

WORKLOADS = ("build-large", "sweep-small", "validate-oracle")

# |k1 quad_gauss - k1 legendre| / |k1 legendre| below this reads as this:
# a smaller oracle error is at rounding level for the tau closure's k1.
REL_ERR_FLOOR = 1e-11

# The base systems are lower triangular blocks, so their delay margin is
# the smallest crossing of the scalar factors lam = a + b exp(-lam h).
_EX2_A0 = [[-2.0, 0.0], [0.0, -0.9]]
_EX2_A1 = [[-1.0, 0.0], [-1.0, -1.0]]
_LARGE_BLOCKS = (
    (_EX2_A0, _EX2_A1),
    ([[-1.8, 0.0], [0.1, -0.88]], [[-0.9, 0.0], [-1.1, -1.0]]),
    ([[-2.2, 0.0], [-0.1, -0.92]], [[-1.1, 0.0], [-0.9, -1.0]]),
)
SWEEP_RANGE = (0.5, 9.5)
# Order of every `lk critical-delay` op; at n = 6, N = 20 it resolves the
# margin as well as N = 40 and takes a quarter of the time, so a run
# collects enough samples.
MARGIN_N = 20


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _scalar_margin(a, b):
    """Smallest h at which lam = a + b exp(-lam h) has a root on the axis."""
    if abs(b) <= -a:
        return math.inf
    return math.acos(-a / b) / math.sqrt(b * b - a * a)


def analytic_margin(A0_blocks, A1_blocks):
    return min(
        _scalar_margin(a0[i][i], a1[i][i])
        for a0, a1 in zip(A0_blocks, A1_blocks)
        for i in range(len(a0))
    )


def _rotation(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _base(workload):
    """(A0, A1, Q0, Q1, Q2, h, N, margin) of the unrotated base system."""
    if workload == "build-large":
        a0 = [np.array(b[0]) for b in _LARGE_BLOCKS]
        a1 = [np.array(b[1]) for b in _LARGE_BLOCKS]
        A0 = np.zeros((6, 6))
        A1 = np.zeros((6, 6))
        for k in range(3):
            A0[2 * k:2 * k + 2, 2 * k:2 * k + 2] = a0[k]
            A1[2 * k:2 * k + 2, 2 * k:2 * k + 2] = a1[k]
        # Coupling below the diagonal blocks keeps the margin analytic.
        A0[2:, :2] += 0.1
        A1[4:, 2:4] -= 0.1
        margin = analytic_margin(a0, a1)
        return (A0, A1, np.diag(np.linspace(1.0, 1.5, 6)), np.eye(6),
                0.1 * np.eye(6), 2.0, 40, margin)
    A0, A1 = np.array(_EX2_A0), np.array(_EX2_A1)
    margin = analytic_margin([A0], [A1])
    if workload == "sweep-small":
        return (A0, A1, np.diag([1.0, 1.5]), np.diag([1.2, 1.0]),
                np.zeros((2, 2)), 2.0, 20, margin)
    if workload == "validate-oracle":
        return A0, A1, np.eye(2), np.eye(2), np.zeros((2, 2)), 2.0, 40, margin
    raise ValueError(f"unknown workload {workload!r}")


def make_config(workload, seed):
    """The workload's `lk` config for this seed, and its analytic margin."""
    A0, A1, Q0, Q1, Q2, h, N, margin = _base(workload)
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    Q = _rotation(rng, A0.shape[0])

    def rot(M):
        R = Q @ M @ Q.T
        return R.tolist()

    def rot_sym(M):
        R = Q @ M @ Q.T
        return (0.5 * (R + R.T)).tolist()

    config = {
        "A0": rot(A0), "A1": rot(A1), "h": h,
        "Q0": rot_sym(Q0), "Q1": rot_sym(Q1), "Q2": rot_sym(Q2),
        "scheme": "legendre", "N": N, "phi": "exp-decay",
    }
    return config, margin


def system_and_weights(config):
    system = lkapprox.RfdeSystem(
        A0=np.array(config["A0"]), A1=np.array(config["A1"]), h=config["h"])
    weights = lkapprox.CostWeights(
        Q0=np.array(config["Q0"]), Q1=np.array(config["Q1"]),
        Q2=np.array(config["Q2"]))
    return system, weights


def lk(argv):
    """Run one `lk` command in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def oracle_rel_err(system, weights, N):
    """The validate report's |k1 quad_gauss - k1 legendre| / |k1 legendre|."""
    fa = lkapprox.build_functional(system, weights, scheme="legendre", N=N)
    k_leg = lkapprox.k1(fa, check_psd=False)
    dl = lkapprox.build_delay_lyap(system, weights)
    k_quad = lkapprox.k1_quad(dl, weights, rule="gauss", N=N, check_psd=False)
    return abs(k_quad - k_leg) / abs(k_leg)


class Workload:
    """One workload bound to its config; `run` is the timed op."""

    # Oracle error above this fails the check; the N^-2 quadrature of the
    # seed commit gives ~1.7e-4 on example 2 at N = 40.
    REL_ERR_CEILING = 1e-3
    # Whether `run` itself includes the `lk critical-delay` op.
    MARGIN_IN_OP = False

    def __init__(self, name, config, config_path, margin):
        self.name = name
        self.config = config
        self.path = config_path
        self.margin = margin
        self.N = config["N"]
        self.system, self.weights = system_and_weights(config)

    def margin_argv(self):
        lo, hi = SWEEP_RANGE
        return ["critical-delay", "--config", self.path, "-N", str(MARGIN_N),
                "--bracket", f"{lo}:{hi}"]

    def run_margin(self):
        return lk(self.margin_argv())

    def check_margin(self, out):
        code, text = out
        if code != 0:
            raise CheckFailed(f"lk critical-delay exited {code}")
        h_crit = json.loads(text)["h_critical"]
        # Bisection tolerance 1e-4 plus the closure's own margin error.
        if abs(h_crit - self.margin) > 1e-3:
            raise CheckFailed(
                f"critical delay {h_crit:.6f} is not the analytic {self.margin:.6f}")
        return h_crit

    def rel_err(self):
        """Oracle error of k1 on this config, floored; checked against the ceiling."""
        err = oracle_rel_err(self.system, self.weights, 40)
        if not err < self.REL_ERR_CEILING:
            raise CheckFailed(f"oracle k1 relative error {err:.3e} "
                              f">= {self.REL_ERR_CEILING:g}")
        return max(err, REL_ERR_FLOOR)


class BuildLarge(Workload):
    """build_functional + k1 + evaluate at n = 6, N = 40, alternating schemes."""

    # Cheb collocation converges algebraically in N while the tau closure
    # is exact to rounding; at N = 40 they differ by ~6e-5 relative.
    K1_AGREE = 2e-3

    def __init__(self, *args):
        super().__init__(*args)
        self.phi = lkapprox.FunctionSpec.named("exp-decay", self.system.n)
        self.count = 0
        self.k1s = {}

    def run(self):
        scheme = ("legendre", "cheb")[self.count % 2]
        self.count += 1
        fa = lkapprox.build_functional(self.system, self.weights, scheme=scheme, N=self.N)
        return fa, lkapprox.k1(fa), lkapprox.evaluate(fa, self.phi)

    def check(self, out):
        fa, bound, value = out
        if not fa.residual <= 1e-9:
            raise CheckFailed(f"{fa.scheme} Lyapunov residual {fa.residual:.3e}")
        if not fa.psd:
            raise CheckFailed(f"{fa.scheme} P is not positive semidefinite")
        phi0 = float(np.sum(self.phi(0.0) ** 2))
        if not value >= bound * phi0 * (1.0 - 1e-12):
            raise CheckFailed(f"V(phi) = {value!r} < k1 |phi(0)|^2 = {bound * phi0!r}")
        self.k1s[fa.scheme] = bound
        if len(self.k1s) == 2:
            a, b = self.k1s["legendre"], self.k1s["cheb"]
            if not abs(a - b) <= self.K1_AGREE * abs(a):
                raise CheckFailed(f"legendre k1 {a!r} and cheb k1 {b!r} disagree")
        return {}


class SweepSmall(Workload):
    """`lk sweep --axis h --steps 40 -N 20` then `lk critical-delay`, at n = 2."""

    STEPS = 40
    MARGIN_IN_OP = True

    def run(self):
        lo, hi = SWEEP_RANGE
        t0 = time.perf_counter()
        sweep = lk(["sweep", "--config", self.path, "--axis", "h",
                    "--range", f"{lo}:{hi}", "--steps", str(self.STEPS),
                    "-N", str(self.N)])
        t1 = time.perf_counter()
        margin = self.run_margin()
        t2 = time.perf_counter()
        return sweep, margin, t1 - t0, t2 - t1

    def check(self, out):
        (code, text), margin, sweep_s, margin_s = out
        if code != 0:
            raise CheckFailed(f"lk sweep exited {code}")
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != self.STEPS:
            raise CheckFailed(f"sweep gave {len(rows)} rows, expected {self.STEPS}")
        if any(r["error"] for r in rows):
            raise CheckFailed("sweep has error cells")
        h_crit = self.check_margin(margin)
        hs = [float(r["h"]) for r in rows]
        stable = [float(r["max_re"]) < 0.0 for r in rows]
        brackets = [
            (hs[i], hs[i + 1]) for i in range(len(rows) - 1)
            if stable[i] and not stable[i + 1]
        ]
        if not any(lo - 1e-4 <= h_crit <= hi + 1e-4 for lo, hi in brackets):
            raise CheckFailed(
                f"critical delay {h_crit:.6f} is not bracketed by a max_re sign change")
        return {
            "sweep_s": sweep_s,
            "margin_s": margin_s,
            "point_busy_s": sum(float(r["wall_time_ms"]) for r in rows) / 1e3,
        }


class ValidateOracle(Workload):
    """`lk validate -N 40` at n = 2: a fresh Psi and four quadratures per op."""

    def run(self):
        return lk(["validate", "--config", self.path, "-N", str(self.N)])

    def check(self, out):
        code, text = out
        report = json.loads(text)
        if code != 0 or report["failures"]:
            raise CheckFailed(f"lk validate exited {code}: {report['failures']}")
        worst = max(report["psi_residuals"].values())
        if not worst < 1e-8:
            raise CheckFailed(f"Psi residual {worst:.3e}")
        k = report["k1"]
        err = abs(k["quad_gauss"] - k["legendre"]) / abs(k["legendre"])
        if not err < self.REL_ERR_CEILING:
            raise CheckFailed(f"oracle k1 relative error {err:.3e}")
        return {}


_CLASSES = {
    "build-large": BuildLarge,
    "sweep-small": SweepSmall,
    "validate-oracle": ValidateOracle,
}


def prepare(name, seed, out_dir):
    """Write the workload's config for this seed into out_dir and bind it."""
    config, margin = make_config(name, seed)
    path = os.path.join(out_dir, f"{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return _CLASSES[name](name, config, path, margin)
