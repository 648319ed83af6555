"""End-to-end acceptance checks for the assembled package.

One test per criterion.  Each prints a single "[criterion k] PASS/FAIL" line
with its measured quantities before asserting (run with -s to see the lines
for passing tests too).  Criteria with runtime bounds time the computation
they gate.
"""

import time

import numpy as np
import numpy.polynomial.polynomial as npoly

from helpers import (
    gram_psi,
    kron_lyap_solve,
    legendre_cost,
    quad_k1,
    quad_V,
    random_stable_rfde,
    relative_residual,
)
from lkapprox import (
    CostWeights,
    FunctionSpec,
    RfdeSystem,
    build_functional,
    evaluate,
    k1,
)
from lkapprox.discretize import build_cheb_model, build_leg_model, discretize_leg
from lkapprox.functional import baseline_k1, critical_delay
from lkapprox.linalg import is_hurwitz, solve_lyapunov
from lkapprox.oracle import assemble_quad, build_delay_lyap, k1_quad, property_residuals
from lkapprox.spectral import cheb_nodes, gauss_legendre


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_example2_critical_delay(ex2_system, ex2_h_crit):
    t0 = time.perf_counter()
    found = {
        s: critical_delay(ex2_system, scheme=s, N=20, bracket=(1.0, 10.0), tol=1e-4)
        for s in ("cheb", "legendre")
    }
    elapsed = time.perf_counter() - t0
    err = max(abs(v - ex2_h_crit) for v in found.values())
    ok = err <= 1e-2 and elapsed < 10.0
    detail = (
        f"h_c cheb {found['cheb']:.6f} / legendre {found['legendre']:.6f}, "
        f"analytic {ex2_h_crit:.6f}, max err {err:.2e} (<= 1e-2), "
        f"{elapsed:.2f}s (< 10 s)"
    )
    assert _report(1, ok, detail), detail


def test_criterion_02_example1_critical_delay(ex1_system, ex1_h_crit):
    found = {
        s: critical_delay(ex1_system, scheme=s, N=20, bracket=(1.0, 10.0), tol=1e-4)
        for s in ("cheb", "legendre")
    }
    err = max(abs(v - ex1_h_crit) for v in found.values())
    ok = err <= 1e-2
    detail = (
        f"h_c cheb {found['cheb']:.6f} / legendre {found['legendre']:.6f}, "
        f"analytic {ex1_h_crit:.6f}, max err {err:.2e} (<= 1e-2)"
    )
    assert _report(2, ok, detail), detail


def test_criterion_03_four_methods_agree(ex2_system, ex2_weights):
    t0 = time.perf_counter()
    vals = {
        "legendre": k1(build_functional(ex2_system, ex2_weights, "legendre", 80)),
        "cheb": k1(build_functional(ex2_system, ex2_weights, "cheb", 80)),
    }
    dl = build_delay_lyap(ex2_system, ex2_weights)
    vals["quad-cc"] = k1_quad(dl, ex2_weights, rule="cc", N=80)
    vals["quad-gauss"] = k1_quad(dl, ex2_weights, rule="gauss", N=80)
    elapsed = time.perf_counter() - t0
    arr = np.array(list(vals.values()))
    spread = (arr.max() - arr.min()) / np.max(np.abs(arr))
    ok = spread <= 1e-3 and elapsed < 60.0
    detail = (
        "k1 " + ", ".join(f"{name} {v:.6f}" for name, v in vals.items())
        + f"; relative spread {spread:.2e} (<= 1e-3), {elapsed:.1f}s (< 60 s)"
    )
    assert _report(3, ok, detail), detail


def test_criterion_04_beats_baselines_across_delays(ex2_system, ex2_weights):
    nr = baseline_k1(ex2_system, ex2_weights, "norm-ratio")
    am = baseline_k1(ex2_system, ex2_weights, "alpha-max")
    vals = {}
    for h in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        sys_h = RfdeSystem(ex2_system.A0, ex2_system.A1, h)
        vals[h] = k1(build_functional(sys_h, ex2_weights, "legendre", 80))
    dominated = all(v > nr and v > am for v in vals.values())
    ok = dominated and abs(nr - 0.1779982111184266) <= 1e-12
    detail = (
        f"norm-ratio {nr:.6f}, alpha-max {am:.6f}; k1 over h in 1..6: "
        + ", ".join(f"{v:.4f}" for v in vals.values())
        + f"; dominates {dominated}"
    )
    assert _report(4, ok, detail), detail


def test_criterion_05_delay_free_anchor():
    sys0 = RfdeSystem([[-1.0]], [[0.0]], 1.0)
    w0 = CostWeights([[1.0]], [[0.0]], [[0.0]])
    c = 1.7
    devs = {}
    for scheme in ("cheb", "legendre"):
        fa = build_functional(sys0, w0, scheme, 12, allow_incomplete=True)
        devs[f"V-{scheme}"] = abs(evaluate(fa, FunctionSpec.constant([c])) - 0.5 * c * c)
        devs[f"k1-{scheme}"] = abs(k1(fa) - 0.5)
    dl = build_delay_lyap(sys0, w0)
    for rule in ("cc", "gauss"):
        devs[f"k1-{rule}"] = abs(k1_quad(dl, w0, rule=rule, N=12) - 0.5)
        P, _ = assemble_quad(dl, w0, rule=rule, N=12)
        expect = np.zeros_like(P)
        expect[-1, -1] = 0.5
        devs[f"P-{rule}"] = float(np.max(np.abs(P - expect)))
    worst_name, worst = max(devs.items(), key=lambda kv: kv[1])
    ok = worst <= 1e-8
    detail = f"worst deviation {worst:.2e} ({worst_name}) across {len(devs)} checks (<= 1e-8)"
    assert _report(5, ok, detail), detail


def test_criterion_06_lyapunov_residual_property():
    # 99 random draws capped so the Kronecker system stays at/below 3600^2
    # unknowns, plus one forced densest case (n=3, N=40, dim 123).
    rng6 = np.random.default_rng(20240823)
    max_order = {1: 40, 2: 29, 3: 19}
    worst_res = worst_dev = 0.0
    max_dim = checked = attempts = 0
    while checked < 99:
        attempts += 1
        assert attempts < 1000
        n = int(rng6.integers(1, 4))
        N = int(rng6.integers(1, max_order[n] + 1))
        model = (build_leg_model if checked % 2 == 0 else build_cheb_model)(
            random_stable_rfde(rng6, n), N
        )
        A = np.asarray(model.A)
        if not is_hurwitz(A)[0]:
            continue
        d = n * (N + 1)
        max_dim = max(max_dim, d)
        R = rng6.standard_normal((d, d))
        Q = R @ R.T + 0.1 * np.eye(d)
        P = solve_lyapunov(A, Q).P
        scale = max(1.0, np.linalg.norm(Q) + 2.0 * np.linalg.norm(A) * np.linalg.norm(P))
        worst_res = max(worst_res, np.linalg.norm(P @ A + A.T @ P + Q) / scale)
        worst_dev = max(worst_dev, float(np.max(np.abs(P - kron_lyap_solve(A, Q)))))
        checked += 1
    while True:
        model = build_leg_model(random_stable_rfde(rng6, 3), 40)
        A = np.asarray(model.A)
        if is_hurwitz(A)[0]:
            break
    d = 123
    max_dim = max(max_dim, d)
    R = rng6.standard_normal((d, d))
    Q = R @ R.T + 0.1 * np.eye(d)
    P = solve_lyapunov(A, Q).P
    scale = max(1.0, np.linalg.norm(Q) + 2.0 * np.linalg.norm(A) * np.linalg.norm(P))
    worst_res = max(worst_res, np.linalg.norm(P @ A + A.T @ P + Q) / scale)
    worst_dev = max(worst_dev, float(np.max(np.abs(P - kron_lyap_solve(A, Q)))))
    ok = worst_res <= 1e-9 and worst_dev <= 1e-8
    detail = (
        f"100 instances, dims up to {max_dim}: worst scaled residual "
        f"{worst_res:.2e} (<= 1e-9), worst |bartels-stewart - kronecker| "
        f"{worst_dev:.2e} (<= 1e-8 entrywise)"
    )
    assert _report(6, ok, detail), detail


def test_criterion_07_quadrature_exactness():
    h = 1.7
    worst_cc = worst_gauss = sum_dev = 0.0
    for N in (1, 2, 4, 8, 12, 16):
        grid = cheb_nodes(N, h)
        sum_dev = max(sum_dev, abs(grid.weights.sum() - h))
        for p in range(N + 1):
            exact = -((-h) ** (p + 1)) / (p + 1)
            approx = float(grid.weights @ grid.nodes**p)
            worst_cc = max(worst_cc, abs(approx - exact) / abs(exact))
    for count in (1, 2, 3, 5, 8):
        grid = gauss_legendre(count, h)
        sum_dev = max(sum_dev, abs(grid.weights.sum() - h))
        for p in range(2 * count):
            exact = -((-h) ** (p + 1)) / (p + 1)
            approx = float(grid.weights @ grid.nodes**p)
            worst_gauss = max(worst_gauss, abs(approx - exact) / abs(exact))
    ok = worst_cc <= 1e-12 and worst_gauss <= 1e-12 and sum_dev <= 1e-12 * h
    detail = (
        f"monomial rel err: cc {worst_cc:.2e} (deg <= N), gauss {worst_gauss:.2e} "
        f"(deg <= 2 count - 1), both <= 1e-12; weight-sum dev {sum_dev:.2e}"
    )
    assert _report(7, ok, detail), detail


def test_criterion_08_splitting_exactness():
    local = np.random.default_rng(20240825)
    n, N, h = 2, 12, 1.6
    A0 = local.standard_normal((n, n))
    A0 -= (np.linalg.eigvals(A0).real.max() + 0.6) * np.eye(n)
    sys_ = RfdeSystem(A0, 0.3 * local.standard_normal((n, n)), h)
    R1 = local.standard_normal((n, n))
    R2 = local.standard_normal((n, n))
    w = CostWeights(np.eye(n), R1 @ R1.T + 0.1 * np.eye(n), R2 @ R2.T + 0.1 * np.eye(n))
    coeffs = local.standard_normal((N, n))  # degree <= N-1
    zeta = discretize_leg(FunctionSpec.polynomial(coeffs), N, h)
    model = build_leg_model(sys_, N)
    P1 = np.kron(model.M1, w.Q1)
    P2 = np.kron(model.M2, w.Q2)

    def poly_integral(Q, shifted):
        # int_{-h}^0 phi' Q phi, optionally weighted by (h + theta)
        total = 0.0
        for i in range(n):
            for j in range(n):
                prod = npoly.polymul(coeffs[:, i], coeffs[:, j]) * Q[i, j]
                if shifted:
                    prod = npoly.polymul([h, 1.0], prod)
                anti = npoly.polyint(prod)
                total += npoly.polyval(0.0, anti) - npoly.polyval(-h, anti)
        return total

    e1 = poly_integral(w.Q1, shifted=False)
    e2 = poly_integral(w.Q2, shifted=True)
    rel1 = abs(zeta @ P1 @ zeta - e1) / abs(e1)
    rel2 = abs(zeta @ P2 @ zeta - e2) / abs(e2)
    zero = np.zeros((n, n))
    res1 = relative_residual(P1, model.A, legendre_cost(CostWeights(-w.Q1, w.Q1, zero), N, h))
    res2 = relative_residual(P2, model.A, legendre_cost(CostWeights(-h * w.Q2, zero, w.Q2), N, h))
    ok = rel1 <= 1e-10 and rel2 <= 1e-10 and res1 <= 1e-9 and res2 <= 1e-9
    detail = (
        f"V1 rel err {rel1:.2e}, V2 rel err {rel2:.2e} (<= 1e-10); closed-form "
        f"Lyapunov residuals {res1:.2e}, {res2:.2e} (<= 1e-9)"
    )
    assert _report(8, ok, detail), detail


def test_criterion_09_psd_verdict_matches_hurwitz(ex2_system, ex2_weights):
    disagreements = []
    for h in np.linspace(0.5, 9.0, 30):
        sys_h = RfdeSystem(ex2_system.A0, ex2_system.A1, float(h))
        for scheme in ("cheb", "legendre"):
            fa = build_functional(sys_h, ex2_weights, scheme, 40)
            if fa.psd != is_hurwitz(np.asarray(fa.model.A))[0]:
                disagreements.append((round(float(h), 3), scheme))
    ok = not disagreements
    detail = (
        f"30-point h-grid over [0.5, 9], both schemes at N=40: "
        f"{len(disagreements)} disagreements{'' if ok else ': ' + repr(disagreements)}"
    )
    assert _report(9, ok, detail), detail


def test_criterion_10_psi_defining_properties(ex1_system, ex1_weights, ex2_system, ex2_weights):
    worst = {"dynamic": 0.0, "symmetry": 0.0, "algebraic": 0.0}

    def fold(dl):
        res = property_residuals(dl)
        for key in worst:
            worst[key] = max(worst[key], res[key])

    fold(build_delay_lyap(ex1_system, ex1_weights))
    fold(build_delay_lyap(ex2_system, ex2_weights))
    local = np.random.default_rng(20240824)
    w = CostWeights(np.eye(2), np.eye(2), np.zeros((2, 2)))
    for _ in range(20):
        fold(build_delay_lyap(random_stable_rfde(local), w))
    ok = (
        worst["dynamic"] <= 1e-6
        and worst["symmetry"] <= 1e-7
        and worst["algebraic"] <= 1e-7
    )
    detail = (
        f"22 systems, worst residuals: dynamic {worst['dynamic']:.2e} (<= 1e-6), "
        f"symmetry {worst['symmetry']:.2e} (<= 1e-7), "
        f"algebraic {worst['algebraic']:.2e} (<= 1e-7)"
    )
    assert _report(10, ok, detail), detail


def test_criterion_11_structural_validation(ex1_system, ex1_weights):
    fa = build_functional(ex1_system, ex1_weights, "legendre", 40)
    dl = build_delay_lyap(ex1_system, ex1_weights)
    P_quad, grid = assemble_quad(dl, ex1_weights, rule="cc", N=40)
    P_grid = fa.grid_matrix()
    dev = float(np.max(np.abs(P_grid - P_quad)))
    cap = 5e-2 * float(np.max(np.abs(P_grid)))
    h = ex1_system.h
    S = np.kron(np.diag(grid.weights), np.asarray(ex1_system.A1))
    S[:1, -1:] += np.eye(1)
    G = gram_psi(dl, grid.nodes)
    D = np.zeros_like(P_quad)
    for j, (t, wt) in enumerate(zip(grid.nodes, grid.weights)):
        D[j, j] = wt * (ex1_weights.Q1[0, 0] + (h + t) * ex1_weights.Q2[0, 0])
    fact_dev = float(np.max(np.abs(S.T @ G @ S + D - P_quad)))
    ok = dev <= cap and fact_dev <= 1e-10
    detail = (
        f"grid-P vs quadrature-P max dev {dev:.2e} (<= {cap:.2e}); "
        f"Gram factorization dev {fact_dev:.2e} (<= 1e-10)"
    )
    assert _report(11, ok, detail), detail


def test_criterion_12_error_decay_against_quadrature_reference(ex2_system, ex2_weights):
    # References from Psi and split-diagonal Gauss quadrature only (no
    # closure): k1 from a Legendre-Galerkin matrix of V, V(1) from its
    # integral formula.  Each is certified by agreeing with a coarser copy.
    dl = build_delay_lyap(ex2_system, ex2_weights)
    segment = FunctionSpec.constant(np.ones(2))
    k_ref = quad_k1(dl, ex2_weights, M=20, m=30)
    v_ref = quad_V(dl, ex2_weights, segment, m=60)
    k_self = abs(quad_k1(dl, ex2_weights, M=12, m=30) - k_ref) / abs(k_ref)
    v_self = abs(quad_V(dl, ex2_weights, segment, m=30) - v_ref) / abs(v_ref)
    # The tau method converges between orders 4 and 8 and is at machine
    # precision from about 10 on (README, Testing): the decay is measured
    # on the first window, the plateau is asserted on the second.
    err_k, err_v = {}, {}
    for N in (4, 8, 10, 40):
        fa = build_functional(ex2_system, ex2_weights, "legendre", N)
        err_k[N] = abs(k1(fa) - k_ref)
        err_v[N] = abs(evaluate(fa, segment) - v_ref)
    ratio_k = err_k[4] / err_k[8]
    ratio_v = err_v[4] / err_v[8]
    plateau = max(max(err_k[N] / abs(k_ref), err_v[N] / abs(v_ref)) for N in (10, 40))
    ok = (k_self <= 1e-12 and v_self <= 1e-12
          and ratio_k >= 10.0 and ratio_v >= 10.0 and plateau <= 1e-10)
    detail = (
        f"vs split-diagonal quadrature references (k1 {k_ref:.14f}, "
        f"V {v_ref:.12f}; self-agreement {k_self:.1e}, {v_self:.1e} <= 1e-12): "
        f"k1 err {err_k[4]:.3e} -> {err_k[8]:.3e} (ratio {ratio_k:.3g}), "
        f"V err {err_v[4]:.3e} -> {err_v[8]:.3e} (ratio {ratio_v:.3g}) "
        f"for N 4 -> 8, required >= 10 for both; "
        f"N=10/40 plateau rel err {plateau:.1e} (<= 1e-10)"
    )
    assert _report(12, ok, detail), detail
