import ctypes
import ctypes.util
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import lkapprox.linalg
from helpers import (
    kron_lyap_solve,
    newton_char_root,
    random_stable_matrix,
    random_stable_rfde,
    relative_residual,
    use_scipy_lapack,
)
from lkapprox import CostWeights, RfdeSystem, build_functional, k1
from lkapprox.discretize import build_cheb_model, build_leg_model, build_model
from lkapprox.linalg import (
    DimensionError,
    NumericalFailureError,
    RangeError,
    SingularOperatorError,
    eigenvalues,
    expm,
    is_hurwitz,
    schur_complement,
    solve_lyapunov,
)

rng = np.random.default_rng(20240817)


def _sorted(z):
    return np.sort_complex(np.asarray(z))


def test_eigenvalues_diagonal():
    lam = _sorted(eigenvalues(np.diag([-1.0, -2.0])))
    npt.assert_allclose(lam, [-2.0, -1.0], atol=1e-14)


def test_eigenvalues_rotation_pair():
    lam = _sorted(eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]])))
    npt.assert_allclose(lam, [-1j, 1j], atol=1e-14)


def test_eigenvalues_conjugate_pairing():
    for _ in range(20):
        A = rng.standard_normal((6, 6))
        lam = eigenvalues(A)
        npt.assert_allclose(_sorted(lam), _sorted(lam.conj()), atol=1e-9)


def test_eigenvalues_transpose_agreement():
    for _ in range(20):
        A = rng.standard_normal((7, 7))
        A *= 10.0 / max(1.0, np.linalg.norm(A, 2))
        npt.assert_allclose(
            _sorted(eigenvalues(A)), _sorted(eigenvalues(A.T)), atol=1e-9
        )


def test_eigenvalues_rejects_nonsquare():
    with pytest.raises(DimensionError):
        eigenvalues(np.ones((2, 3)))
    # schur_complement takes one matrix: a (k, d, d) stack is not one.
    with pytest.raises(DimensionError):
        schur_complement(np.array([np.eye(3)] * 2), 2)
    # Nor can its eliminated block be the whole matrix.
    with pytest.raises(DimensionError, match="block order p=2"):
        schur_complement(np.eye(2), 2)


def test_rightmost_eigenvalue_matches_characteristic_root(ex1_system):
    # The rightmost eigenvalue of the collocation closure approximates a
    # characteristic root of the delay system; Newton refinement of
    # det(sI - A0 - e^{-sh} A1) = 0 seeded from it gives the exact root.
    model = build_cheb_model(ex1_system, 40)
    lam = eigenvalues(model.A)
    r = lam[np.argmax(lam.real)]
    root = newton_char_root(r, ex1_system.A0, ex1_system.A1, ex1_system.h)
    assert r.real < 0.0
    assert abs(r - root) < 1e-6


def test_is_hurwitz_trivial():
    assert is_hurwitz(np.diag([-1.0, -2.0])) == (True, -1.0)
    ok, abscissa = is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not ok
    npt.assert_allclose(abscissa, 0.0, atol=1e-14)


def test_is_hurwitz_past_delay_margin(ex2_system):
    import dataclasses

    unstable = dataclasses.replace(ex2_system, h=7.0)
    ok, abscissa = is_hurwitz(build_leg_model(unstable, 20).A)
    assert not ok and abscissa > 0.0


def test_solve_lyapunov_scalar():
    npt.assert_allclose(solve_lyapunov(np.array([[-1.0]]), np.eye(1)).P, [[0.5]])


def test_solve_lyapunov_decoupled_diagonal():
    P = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2)).P
    npt.assert_allclose(P, np.diag([0.5, 0.25]), atol=1e-14)


def test_solve_lyapunov_kronecker_oracle_model(ex1_system):
    model = build_leg_model(ex1_system, 8)
    Q = np.diag([1.0] + [0.0] * 7 + [1.0])
    P = solve_lyapunov(model.A, Q).P
    P_kron = kron_lyap_solve(np.asarray(model.A), Q)
    npt.assert_allclose(P, P_kron, atol=1e-8 * np.max(np.abs(P)))


def test_solve_lyapunov_random_kronecker_agreement():
    for d in (2, 5, 13, 34, 60):
        A = random_stable_matrix(rng, d)
        Q = rng.standard_normal((d, d))
        Q = Q @ Q.T + 0.1 * np.eye(d)
        P = solve_lyapunov(A, Q).P
        npt.assert_array_equal(P, P.T)
        res = np.linalg.norm(P @ A + A.T @ P + Q, "fro")
        scale = max(1.0, np.linalg.norm(Q, "fro")
                    + 2.0 * np.linalg.norm(A, "fro") * np.linalg.norm(P, "fro"))
        assert res <= 1e-9 * scale
        npt.assert_allclose(P, kron_lyap_solve(A, Q),
                            atol=1e-8 * max(1.0, np.max(np.abs(P))))


def _check_result_fields(A, Q, bit_for_bit):
    """solve_lyapunov(A, Q) against SciPy's solver: equal, or within
    1e-14 max|P|; its residual is the gated one and its eigenvalues are A's."""
    sol = solve_lyapunov(A, Q)
    ref = scipy.linalg.solve_continuous_lyapunov(A.T, -Q)
    ref = 0.5 * (ref + ref.T)
    if bit_for_bit:
        npt.assert_array_equal(sol.P, ref)
    else:
        npt.assert_allclose(sol.P, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))
    assert sol.residual == relative_residual(sol.P, A, Q)
    lam = eigenvalues(A)
    tol = 1e-10 * np.max(np.abs(lam))
    gaps = np.abs(sol.eigenvalues[:, None] - lam[None, :])
    assert sol.eigenvalues.shape == lam.shape
    assert gaps.min(axis=0).max() <= tol and gaps.min(axis=1).max() <= tol


def test_solve_lyapunov_result_fields(monkeypatch, ex2_system):
    # Every case here has order d <= 42, below dtrsyl3's least block order
    # of 48, so on either binding the triangular stage is one dtrsyl call on
    # the whole factor, and on SciPy's LAPACK P is SciPy's Bartels-Stewart
    # solution bit for bit.  NumPy's OpenBLAS is another build of the same
    # routines (0.3.31 against SciPy's 0.3.30 for NumPy 2.4.6 and SciPy
    # 1.17.1): its dtrsyl was measured within 8.9e-16 of SciPy's, so there P
    # agrees to 1e-14 max|P|.
    cases = [(np.asarray(build(ex2_system, 20).A), np.eye(42))
             for build in (build_leg_model, build_cheb_model)]
    for d in (1, 3, 13, 40):
        Q = rng.standard_normal((d, d))
        cases.append((random_stable_matrix(rng, d), Q @ Q.T + 0.1 * np.eye(d)))
    on_scipy = lkapprox.linalg._LAPACK_SOURCE == "scipy"
    for A, Q in cases:
        _check_result_fields(A, Q, bit_for_bit=on_scipy)
    use_scipy_lapack(monkeypatch)
    for A, Q in cases:
        _check_result_fields(A, Q, bit_for_bit=True)


def test_solve_lyapunov_singular_pairing():
    with pytest.raises(SingularOperatorError) as err:
        solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))
    lo, hi = sorted(err.value.pair, key=lambda z: z.real)
    npt.assert_allclose([lo, hi], [-1.0, 1.0], atol=1e-12)


def test_solve_lyapunov_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_lyapunov(np.diag([-1.0, -2.0]), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(DimensionError):
        solve_lyapunov(np.eye(2), np.eye(3))


def test_symmetry_checks_survive_overflowing_norms():
    # ||S - S^T||_F and ||S||_F both square past the double range here; the
    # asymmetry is of the order of S itself.
    with pytest.raises(ValueError, match="not symmetric"):
        schur_complement(np.array([[1e200, 1e200], [0.0, 1e200]]), 1)
    with pytest.raises(ValueError, match="not symmetric"):
        solve_lyapunov(-np.eye(2), np.array([[1e200, 3e200], [0.0, 1e200]]))


def test_solve_lyapunov_residual_at_large_scale():
    # Q scaled by c scales P by c and leaves the relative residual at the
    # rounding level; the squared entries of the plain Frobenius norms
    # overflow from c ~ 1e154 on.
    A = np.array([[-1.0, 0.5, 0.2], [0.3, -2.0, 0.1], [0.0, 0.4, -1.5]])
    Q = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 3.0]])
    P = solve_lyapunov(A, Q).P
    for c in (1e160, 1e200, 1e300):
        sol = solve_lyapunov(A, c * Q)
        assert 0.0 <= sol.residual <= 1e-15
        npt.assert_allclose(sol.P / c, P, rtol=1e-13)


def test_residual_gate_raises_with_the_residual(monkeypatch):
    # The triangular solve returns Y (1 + 1e-6): P is off by 1e-6 relative,
    # far past the 1e-9 gate, and the error carries the residual it saw.
    trsyl = lkapprox.linalg._trsyl

    def perturbed(T, B, C):
        Y, scale = trsyl(T, B, C)
        return Y * (1.0 + 1e-6), scale

    monkeypatch.setattr(lkapprox.linalg, "_trsyl", perturbed)
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    with pytest.raises(NumericalFailureError, match="Lyapunov residual") as err:
        solve_lyapunov(A, np.eye(2))
    assert err.value.residual > 1e-9


def test_schur_factor_raises_where_dgees_fails(monkeypatch):
    # info != 0: the QR iteration stopped before it found every eigenvalue.
    monkeypatch.setattr(lkapprox.linalg, "_gees",
                        lambda At: (np.eye(2), np.zeros(2), np.zeros(2), np.eye(2), 1))
    with pytest.raises(lkapprox.linalg.ConvergenceError, match=r"\(info=1\)"):
        solve_lyapunov(-np.eye(2), np.eye(2))


def test_schur_complement_scalar_blocks():
    npt.assert_allclose(
        schur_complement(np.array([[2.0, 1.0], [1.0, 1.0]]), 1), [[0.5]]
    )


def test_schur_complement_zero_offblock():
    npt.assert_allclose(schur_complement(np.eye(4), 2), np.eye(2))


def test_schur_complement_singular_block(monkeypatch):
    P = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 2.0]])
    npt.assert_allclose(schur_complement(P, 2), [[1.0]], atol=1e-12)
    # cond(Z) = 1e12 fails the Cholesky branch's condition gate, so the
    # complement comes from the eigendecomposition of Z.  With B = Z W the
    # complement is exactly C.  The explicit pseudo-inverse reference loses
    # about eps cond(Z) ||W||^2 to cancellation, the eigen branch does not.
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda S: calls.append(S.shape) or eigh(S))
    local = np.random.default_rng(12)
    U, _ = np.linalg.qr(local.standard_normal((4, 4)))
    Z = (U * np.array([1.0, 0.3, 1e-6, 1e-12])) @ U.T
    Z = 0.5 * (Z + Z.T)
    W = local.standard_normal((4, 2))
    B = Z @ W
    C = np.array([[2.0, 0.5], [0.5, 1.0]])
    X = W.T @ Z @ W + C
    X = 0.5 * (X + X.T)
    S = schur_complement(np.block([[Z, B], [B.T, X]]), 4)
    assert calls == [(4, 4)]
    npt.assert_allclose(S, C, rtol=0.0, atol=1e-12)
    ref = X - B.T @ np.linalg.pinv(Z) @ B
    npt.assert_allclose(S, ref, rtol=0.0,
                        atol=1e-15 * np.linalg.cond(Z) * np.linalg.norm(W, 2) ** 2)


def test_schur_complement_empty_block():
    P = np.array([[2.0, 1.0], [1.0, 3.0]])
    npt.assert_allclose(schur_complement(P, 0), P)


def test_schur_complement_orthogonal_block_invariance():
    # Rotating the eliminated coordinates must not change the complement.
    for d, p in ((6, 4), (9, 5)):
        B = rng.standard_normal((d, d))
        P = B @ B.T + 0.5 * np.eye(d)
        U, _ = np.linalg.qr(rng.standard_normal((p, p)))
        T = np.eye(d)
        T[:p, :p] = U
        S1 = schur_complement(P, p)
        S2 = schur_complement(T.T @ P @ T, p)
        npt.assert_allclose(S1, S2, rtol=1e-12, atol=1e-12 * np.max(np.abs(S1)))


def test_schur_complement_indefinite_block_is_minus_inf():
    # An indefinite eliminated block leaves the form unbounded below for
    # every value of the rest.  A zero block fails nothing: it is PSD.
    S = schur_complement(np.diag([1.0, -1.0, 1.0]), 2)
    assert S.shape == (1, 1) and S[0, 0] == -np.inf
    npt.assert_array_equal(schur_complement(np.diag([0.0, 0.0, 2.0]), 2), [[2.0]])


def test_expm_trivial():
    npt.assert_allclose(expm(np.zeros((2, 2))), np.eye(2))
    npt.assert_allclose(expm(np.diag([1.0, -1.0])), np.diag([np.e, 1.0 / np.e]))
    npt.assert_allclose(expm(np.array([[0.0, 1.0], [0.0, 0.0]])),
                        [[1.0, 1.0], [0.0, 1.0]])


def test_expm_inverse_property():
    for _ in range(10):
        A = rng.standard_normal((5, 5))
        A *= 10.0 / max(1.0, np.linalg.norm(A, 2))
        npt.assert_allclose(expm(A) @ expm(-A), np.eye(5), atol=1e-9)


def test_expm_symmetric_accuracy():
    # Against the eigendecomposition closed form, up to spectral norm 100.
    for scale in (1.0, 30.0, 100.0):
        S = rng.standard_normal((6, 6))
        S = S + S.T
        S *= scale / np.linalg.norm(S, 2)
        ew, V = np.linalg.eigh(S)
        ref = (V * np.exp(ew)) @ V.T
        npt.assert_allclose(expm(S), ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))


def test_expm_stack_matches_per_matrix():
    A = rng.standard_normal((4, 3, 3))
    E = expm(A)
    assert E.shape == (4, 3, 3)
    for a, e in zip(A, E):
        npt.assert_array_equal(e, expm(a))
    with pytest.raises(RangeError), np.errstate(over="ignore"):
        expm(np.stack([np.zeros((2, 2)), 1e3 * np.eye(2)]))
    with pytest.raises(DimensionError):
        expm(np.zeros((2, 2, 3)))


def _child_openblas_threads(**env_vars):
    """openblas_threads() in a fresh interpreter after `import lkapprox`, with
    OpenBLAS's thread-count variables removed from the environment and
    `env_vars` added."""
    tests = pathlib.Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")])
    )
    code = "import json, lkapprox, helpers; print(json.dumps(helpers.openblas_threads()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="OpenBLAS already defaults to one thread on one core")
def test_import_pins_each_openblas_to_one_thread():
    threads = _child_openblas_threads()
    assert threads and set(threads.values()) == {1}, threads
    threads = _child_openblas_threads(OPENBLAS_NUM_THREADS="2")
    assert threads and set(threads.values()) == {2}, threads


def _complex_pair_matrix(rng, d):
    """A stable, non-normal matrix whose spectrum is complex pairs (plus one
    real eigenvalue for odd d): its real Schur factor is 2 x 2 blocks, which
    a blocked triangular solve must not cut."""
    B = 0.1 * np.triu(rng.standard_normal((d, d)), 2)
    for k in range(0, d - 1, 2):
        re, im = -rng.uniform(0.1, 2.0), rng.uniform(0.5, 3.0)
        B[k:k + 2, k:k + 2] = [[re, im], [-im, re]]
    if d % 2:
        B[-1, -1] = -rng.uniform(0.1, 2.0)
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return U @ B @ U.T


def _large_order_cases(d):
    if d % 2:
        system = RfdeSystem(np.array([[-0.5]]), np.array([[-1.0]]), 2.2)
        N = d - 1
    else:
        system = RfdeSystem(np.array([[-2.0, 0.0], [0.0, -0.9]]),
                            np.array([[-1.0, 0.0], [-1.0, -1.0]]), 2.0)
        N = d // 2 - 1
    cases = [(build.__name__, np.asarray(build(system, N).A), np.eye(d))
             for build in (build_leg_model, build_cheb_model)]
    local = np.random.default_rng(d)
    for label, A in (("random", random_stable_matrix(local, d)),
                     ("complex-pairs", _complex_pair_matrix(local, d))):
        Q = local.standard_normal((d, d))
        cases.append((label, A, Q @ Q.T + 0.1 * np.eye(d)))
    return cases


@pytest.mark.parametrize("d", [49, 97, 131, 246])
def test_solve_lyapunov_large_orders(monkeypatch, d):
    # From order 49 on, dtrsyl3 solves the triangular stage in blocks; the
    # SciPy fallback's dtrsyl solves it whole.  On either binding P must
    # match SciPy's single-dtrsyl Bartels-Stewart solution and, where the
    # Kronecker system is cheap, the Kronecker solve, and its residual must
    # be at the level of SciPy's.  The complex-pair cases give T a 2 x 2
    # block per pair.
    eps = np.finfo(float).eps
    cases = []
    for label, A, Q in _large_order_cases(d):
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -Q)
        # The Kronecker system has d^2 unknowns: it is solved only where it
        # is small or sparse enough to take about a second at most.
        kron = (kron_lyap_solve(A, Q)
                if d == 49 or (d == 97 and label == "build_leg_model") else None)
        if label == "complex-pairs":
            T = lkapprox.linalg._gees(A.T)[0]
            assert np.count_nonzero(np.diag(T, -1)) == d // 2
        cases.append((A, Q, 0.5 * (ref + ref.T), kron))
    for on_scipy in (False, True):
        if on_scipy:
            use_scipy_lapack(monkeypatch)
        for A, Q, ref, kron in cases:
            P = solve_lyapunov(A, Q).P
            assert relative_residual(P, A, Q) <= 4.0 * max(relative_residual(ref, A, Q), eps)
            npt.assert_allclose(P, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
            if kron is not None:
                npt.assert_allclose(P, kron, rtol=0, atol=1e-8 * np.max(np.abs(P)))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_solve_lyapunov_overflow_raises(monkeypatch):
    # The true solution 5e308 I is past the double range.  The triangular
    # solver returns it scaled by its overflow factor; returning that as P
    # (5e-292 I, with a NaN residual that the gate let through) is wrong.
    # With 1e150 couplings at d = 100, dtrsyl3 and dtrsyl both return NaN
    # at scale 1: only the finiteness check on P sees the overflow.
    d = 100
    T = np.diag(-np.linspace(1.0, 2.0, d)) + np.triu(np.full((d, d), 1e150), 1)
    for on_scipy in (False, True):
        if on_scipy:
            use_scipy_lapack(monkeypatch)
        with pytest.raises(RangeError):
            solve_lyapunov(-1e-9 * np.eye(2), 1e300 * np.eye(2))
        with pytest.raises(RangeError):
            solve_lyapunov(T.T, 1e150 * np.eye(d))


def test_scipy_fallback_agrees_with_bound_lapack(monkeypatch):
    # The routines taken from SciPy where NumPy's OpenBLAS lacks them give
    # the same P, complement (of one P) and k1 to 1e-13 relative, at an
    # order that dtrsyl3 solves in one block (13) and at orders where it
    # solves in blocks and the fallback's dtrsyl does not (97, and d = 246
    # in the n = 6, N = 40 builds).
    local = np.random.default_rng(31)
    cases = []
    for d in (13, 97):
        Q = local.standard_normal((d, d))
        cases.append((random_stable_matrix(local, d), Q @ Q.T + 0.1 * np.eye(d)))
    systems = [(random_stable_rfde(local, n), n, N) for n, N in ((2, 20), (6, 40))]
    weights = {n: CostWeights(np.eye(n), np.eye(n), 0.3 * np.eye(n)) for n in (2, 6)}

    Ps = [solve_lyapunov(A, Q).P for A, Q in cases]

    def outputs():
        out = [solve_lyapunov(A, Q).P for A, Q in cases]
        out += [schur_complement(P, len(P) - 3) for P in Ps]
        for system, n, N in systems:
            for scheme in ("legendre", "cheb"):
                out.append(np.array(k1(build_functional(system, weights[n], scheme, N))))
        return out

    bound = outputs()
    use_scipy_lapack(monkeypatch)
    for got, ref in zip(outputs(), bound):
        npt.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


def test_lapack_probe():
    # A library without the ILP64 symbols (libc) is not bound; where the probe
    # found NumPy's OpenBLAS, binding it again gives the six routines.
    assert lkapprox.linalg._probe(ctypes.CDLL(ctypes.util.find_library("c"))) is None
    source = lkapprox.linalg._LAPACK_SOURCE
    if source != "scipy":
        routines = lkapprox.linalg._probe(ctypes.CDLL(source))
        assert routines is not None and len(routines) == 6


@pytest.mark.skipif(lkapprox.linalg._LAPACK_SOURCE == "scipy",
                    reason="the SciPy fallback calls dtrsyl, which takes no workspace")
def test_trsyl_queries_each_workspace_once_and_stays_bit_identical(monkeypatch):
    # The bound trsyl asks dtrsyl3 for its workspace once per order pair
    # (m, n).  The pairs alternate, square and not, so an entry cached under
    # the wrong key would change a result against a fresh binding, whose
    # empty cache queries anew.
    la = lkapprox.linalg
    lib = ctypes.CDLL(la._LAPACK_SOURCE)
    fns = [getattr(lib, f"scipy_{name}_64_", None) or getattr(lib, f"{name}_64_")
           for name in ("dgees", "dtrsyl3", "dpocon", "dtrsv", "zgetrf", "zgetrs")]
    la._bind(*fns)   # sets the argument types the wrapper below passes through
    calls = []

    def dtrsyl3(*args):
        calls.append(args[13]._obj.value)   # LIWORK: -1 marks the query
        return fns[1](*args)

    trsyl = la._bind(fns[0], dtrsyl3, *fns[2:]).trsyl
    local = np.random.default_rng(23)

    def triangular(k):
        return np.triu(local.standard_normal((k, k))) / np.sqrt(k) - np.diag(
            local.uniform(1.0, 2.0, k))

    pairs = [(10, 10), (42, 42), (246, 246), (10, 246), (246, 10), (42, 42),
             (10, 10), (246, 246), (10, 246), (246, 10)]
    for m, n in pairs:
        A, B, C = triangular(m), triangular(n), local.standard_normal((m, n))
        X, scale = trsyl(A, B, C.copy())
        X_ref, scale_ref = la._probe(lib).trsyl(A, B, C.copy())
        assert scale == scale_ref and np.array_equal(X, X_ref)
        npt.assert_allclose(A @ X + X @ B.T, scale * C, atol=1e-12 * np.abs(C).max())
    assert calls.count(-1) == len(set(pairs)) and len(calls) == len(pairs) + len(set(pairs))

    # solve_lyapunov's P is bit-identical with the shared binding and with a
    # fresh one per call.
    As = [random_stable_matrix(local, d) for d in (10, 42, 246, 10, 246, 42)]
    shared = [solve_lyapunov(A, np.eye(A.shape[0])).P for A in As]
    monkeypatch.setattr(la, "_trsyl", lambda *args: la._probe(lib).trsyl(*args))
    for A, P in zip(As, shared):
        assert np.array_equal(solve_lyapunov(A, np.eye(A.shape[0])).P, P)


def test_failed_probe_binds_scipy(monkeypatch):
    monkeypatch.setattr(lkapprox.linalg, "_probe", lambda lib: None)
    source, routines = lkapprox.linalg._bind_lapack()
    assert source == "scipy"
    T, wr, wi, Z, info = routines.gees(np.array([[1.0, 2.0], [0.0, 3.0]]))
    assert info == 0 and sorted(wr) == [1.0, 3.0] and not wi.any()


def _same_parts(got, ref):
    """Equal real and imaginary parts, sign bits included."""
    return all(np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
               for x, y in ((got.real, ref.real), (got.imag, ref.imag)))


def _eigen_cases():
    """Both closures at n in {1, 2, 6} x N in {1, 4, 20, 40}, a random matrix
    with real and complex eigenvalues, a triangular one whose spectrum is
    real, and two with -0.0 real parts, one of them in complex pairs."""
    local = np.random.default_rng(41)
    for n in (1, 2, 6):
        system = random_stable_rfde(local, n)
        for N in (1, 4, 20, 40):
            for scheme in ("cheb", "legendre"):
                yield build_model(system, scheme, N).A
    yield local.standard_normal((9, 9))
    yield np.triu(local.standard_normal((7, 7)))
    yield np.array([[-0.0, 1.0], [0.0, -1.0]])
    yield np.array([[-0.0, 1.0, 0.0], [-1.0, -0.0, 0.0], [0.0, 0.0, -0.0]])


def test_eigenvalues_are_numpys_bit_for_bit():
    # `eigenvalues` calls dgeev as np.linalg.eigvals does, so it returns the
    # same values with the same signed zeros, and +0.0 imaginary parts for a
    # real spectrum, where NumPy returns a real array.
    spectra = 0
    for A in _eigen_cases():
        got, ref = eigenvalues(A), np.linalg.eigvals(A).astype(complex)
        assert got.dtype == complex and _same_parts(got, ref)
        spectra |= 1 << int(np.all(ref.imag == 0.0))
    assert spectra == 3   # complex and real spectra both ran


def test_complex_lu_solves_and_matches_the_scipy_fallback(monkeypatch):
    # getrf/getrs solve (A - i omega I) x = b to 1e-13 backward error with
    # the bound zgetrf/zgetrs and with SciPy's, which give the same
    # certificate of a closure past its margin (the same steps, 1e-12 apart).
    local = np.random.default_rng(8)
    A = local.standard_normal((40, 40))
    M = A - 1.7j * np.eye(40)
    b = local.standard_normal(40) + 1j * local.standard_normal(40)
    closure = build_model(RfdeSystem([[-2.0, 0.0], [0.0, -0.9]],
                                     [[-1.0, 0.0], [-1.0, -1.0]], 6.1726),
                          "legendre", 20).A
    results = []
    for on_scipy in (False, True):
        if on_scipy:
            use_scipy_lapack(monkeypatch)
        LU, piv, info = lkapprox.linalg._getrf(M)
        x = lkapprox.linalg._getrs(LU, piv, b)
        assert info == 0
        assert np.linalg.norm(M @ x - b) <= 1e-13 * np.linalg.norm(M, 1) * np.linalg.norm(x)
        results.append(lkapprox.linalg._certify_unstable(closure, np.sqrt(0.19)))
    (bound, steps), (fallback, fallback_steps) = results
    assert steps == fallback_steps and abs(bound - fallback) <= 1e-12
    assert bound > 0.0


def test_eigenvalues_raise_on_failed_iteration(monkeypatch):
    # NumPy's LinAlgError is a ConvergenceError.
    def diverging(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", diverging)
    with pytest.raises(lkapprox.linalg.ConvergenceError, match="did not converge"):
        eigenvalues(np.array([[1.0, 2.0], [0.0, 3.0]]))


def test_expm_pade13_per_matrix_scaling_against_mpmath():
    # One stack whose 1-norms need the scalings 2^0, 2^2, 2^4 and 2^7:
    # general, stable non-normal and skew-symmetric (an orthogonal
    # exponential of norm 400) matrices, against 40-digit mpmath.
    local = np.random.default_rng(17)
    stack = []
    for norm, kind in ((0.5, "general"), (20.0, "general"), (60.0, "stable"),
                       (400.0, "skew")):
        K = local.standard_normal((4, 4))
        if kind == "skew":
            K = K - K.T
        if kind == "stable":
            K = K - 1.5 * np.abs(np.linalg.eigvals(K)).max() * np.eye(4)
        stack.append(norm * K / np.abs(K).sum(axis=0).max())
    stack = np.array(stack)
    scalings = np.ceil(np.log2(np.maximum(
        np.abs(stack).sum(axis=1).max(axis=1) / lkapprox.linalg._THETA13, 1.0)))
    assert scalings.tolist() == [0.0, 2.0, 4.0, 7.0]
    E = expm(stack)
    with mpmath.workdps(40):
        for a, e in zip(stack, E):
            ref = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
            npt.assert_allclose(e, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


def _same_bits(X, Y):
    """Equal shapes, entries and sign bits, so -0.0 and +0.0 differ; complex
    arrays are compared by their real and imaginary parts."""
    X, Y = (np.ascontiguousarray(M) for M in (X, Y))
    if np.iscomplexobj(X) or np.iscomplexobj(Y):
        X, Y = X.view(np.float64), Y.view(np.float64)
    return (X.shape == Y.shape and np.array_equal(X, Y)
            and np.array_equal(np.signbit(X), np.signbit(Y)))


@pytest.mark.parametrize("on_scipy", [False, True], ids=["bound", "scipy"])
@pytest.mark.parametrize("N", [20, 40], ids=["d42", "d82"])
def test_solve_lyapunov_stack_members_get_their_solo_bits(monkeypatch, ex2_system,
                                                          on_scipy, N):
    # d = 42 is below dtrsyl3's least block order of 48, where it makes one
    # dtrsyl call; d = 82 is solved in blocks.  Each member of a stack of
    # both closures' builds, across example 2's delay margin (~6.17), gets
    # the P, residual and eigenvalues a lone solve gives it, with a cost of
    # its own or with one cost shared by every member.
    if on_scipy:
        use_scipy_lapack(monkeypatch)
    weights = CostWeights(np.diag([1.0, 1.5]), np.diag([1.2, 1.0]), 0.3 * np.eye(2))
    for build in (build_leg_model, build_cheb_model):
        models = [build(RfdeSystem(ex2_system.A0, ex2_system.A1, h), N)
                  for h in (0.5, 3.0, 6.0, 6.5, 9.5)]
        A = np.array([m.A for m in models])
        Q = np.array([np.kron(np.outer(m.e, m.e), weights.combined(m.system.h))
                      for m in models])
        stack = solve_lyapunov(A, Q)
        assert stack.P.shape == A.shape and stack.residual.shape == (len(A),)
        assert stack.eigenvalues.shape == A.shape[:2]
        shared = solve_lyapunov(A, Q[0])   # one Q for every member
        for k, (a, q) in enumerate(zip(A, Q)):
            for sol, cost in ((stack, q), (shared, Q[0])):
                solo = solve_lyapunov(a, cost)
                assert _same_bits(sol.P[k], solo.P)
                assert sol.residual[k] == solo.residual
                assert _same_bits(sol.eigenvalues[k], solo.eigenvalues)


def test_solve_lyapunov_stack_checks_every_member():
    # The checks of a lone solve hold member by member: the singular member
    # raises though the others are fine, and so does an asymmetric Q.
    A = np.array([-np.eye(2), np.diag([1.0, -1.0]), -2.0 * np.eye(2)])
    Q = np.array([np.eye(2)] * 3)
    with pytest.raises(SingularOperatorError):
        solve_lyapunov(A, Q)
    Q[2, 0, 1] = 0.5
    with pytest.raises(ValueError, match="not symmetric"):
        solve_lyapunov(-np.abs(A), Q)
    with pytest.raises(DimensionError):
        solve_lyapunov(A, Q[:2])
    with pytest.raises(DimensionError):
        solve_lyapunov(A[0], Q[:1])


def _band_matrix(lam_min):
    """P = [[Z, B], [B^T, I]] with Z of order 3 whose least eigenvalue is
    lam_min, largest 1, and max |P_ij| = 1: the psd threshold of Z is 1e-8."""
    U, _ = np.linalg.qr(np.random.default_rng(43).standard_normal((3, 3)))
    Z = (U * np.array([lam_min, 0.5, 1.0])) @ U.T
    Z = 0.5 * (Z + Z.T)
    B = 0.1 * (Z @ np.ones((3, 2)))
    P = np.block([[Z, B], [B.T, np.eye(2)]])
    assert np.abs(P).max() <= 1.0
    return P


@pytest.mark.parametrize("lam_min, eigh_calls, indefinite", [
    (-3e-8, 0, True),      # past twice the threshold: eigvalsh decides alone
    (-1.5e-8, 1, True),    # inside the band: eigh decides, as before
    (-0.5e-8, 1, False),   # within the threshold: eigh, then the pseudo-inverse
])
def test_schur_complement_eigh_only_inside_the_band(monkeypatch, lam_min, eigh_calls,
                                                    indefinite):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda S: calls.append(S.shape) or eigh(S))
    S = schur_complement(_band_matrix(lam_min), 3)
    assert len(calls) == eigh_calls
    assert np.all(S == -np.inf) if indefinite else np.all(np.isfinite(S))


# Ratios lam_min / lam_max on both sides of the psd rule's -1e-8.
_PSD_RATIOS = (-1e-6, -1e-8 * (1.0 + 1e-3), -1e-8 * (1.0 - 1e-3), -1e-12, 0.0, 1e-12, 1e-6)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.sampled_from(_PSD_RATIOS), st.floats(1e-6, 1e6),
       st.integers(0, 2**32 - 1))
def test_psd_verdict_matches_the_eigenvalue_rule(d, ratio, scale, seed):
    # A completed Cholesky factorization proves the verdict of `_is_psd` on
    # eigvalsh(P), and the rule itself decides where the factorization
    # fails; a record's psd and extremes are those of its own P.
    local = np.random.default_rng(seed)
    U, _ = np.linalg.qr(local.standard_normal((d, d)))
    spectrum = scale * np.concatenate([[ratio, 1.0], local.uniform(ratio, 1.0, d - 2)])
    P = (U * spectrum) @ U.T
    P = 0.5 * (P + P.T)
    w = np.linalg.eigvalsh(P)
    rule = lkapprox.linalg._is_psd(float(w[0]), float(w[-1]))
    assert not lkapprox.linalg._cholesky_proves_psd(P) or rule
    fa = _record_with(P)
    assert fa.psd == rule
    assert (fa.lam_min, fa.lam_max) == (float(w[0]), float(w[-1]))


def _record_with(P):
    """A built record with its P replaced: psd, lam_min and lam_max read P alone."""
    fa = build_functional(RfdeSystem([[-1.0]], [[0.0]], 1.0),
                          CostWeights([[1.0]], [[1.0]], [[0.0]]), "legendre", 1)
    return dataclasses.replace(fa, P=P)


def test_psd_verdict_takes_eigvalsh_past_the_order_limit(monkeypatch):
    # Past `_CHOLESKY_MAX_ORDER` the factorization's backward error is no
    # longer far inside the rule, so it proves nothing and a record's psd is
    # the rule on the one eigvalsh that also gives its extremes.
    P3, P4 = np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 2.0, 3.0, 4.0])
    records = [_record_with(P) for P in (P3, P4, -P4)]
    calls = []
    for name in ("cholesky", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda M, fn=fn, name=name: calls.append((name, len(M))) or fn(M))
    monkeypatch.setattr(lkapprox.linalg, "_CHOLESKY_MAX_ORDER", 3)
    assert lkapprox.linalg._cholesky_proves_psd(P3)
    assert not lkapprox.linalg._cholesky_proves_psd(P4)
    assert calls == [("cholesky", 3)]
    assert [(fa.psd, fa.lam_min, fa.lam_max) for fa in records] == [
        (True, 1.0, 3.0), (True, 1.0, 4.0), (False, -4.0, -1.0)]
    assert calls == [("cholesky", 3), ("cholesky", 3), ("eigvalsh", 3),
                     ("eigvalsh", 4), ("eigvalsh", 4)]


def _rotation_block(a, b):
    """A real 2 x 2 block with eigenvalues a +- i b."""
    return np.array([[a, b], [-b, a]])


def _full_pair_rule(lam):
    """(message, pair) of the O(d^2) singular-pairing rule on lam, or None."""
    sums = np.abs(lam[:, None] + lam[None, :])
    i, j = np.unravel_index(int(np.argmin(sums)), sums.shape)
    gap = float(sums[i, j])
    if gap < 1e-10 * max(1.0, float(np.abs(lam).max())):
        return (f"eigenvalues {lam[i]:.6g} and {lam[j]:.6g} sum to {gap:.3e}; "
                "the Lyapunov operator is singular",
                (complex(lam[i]), complex(lam[j])))
    return None


def test_pair_check_passes_cancelling_real_parts():
    # 1 +- 2i beside -1 +- 3i: the real parts cancel, but the least sum of
    # two eigenvalues, |-i|, is far above the floor, so the solve goes on.
    for b, c in ((2.0, 3.0), (1e3, 1e3 + 1e-3), (0.5, -4.0)):
        A = scipy.linalg.block_diag(_rotation_block(1.0, b), _rotation_block(-1.0, c),
                                    [[-2.0]])
        sol = solve_lyapunov(A, np.eye(5))
        assert sol.residual <= 1e-12


@pytest.mark.parametrize("blocks", [
    (_rotation_block(1.0, 2.0), _rotation_block(-1.0, 2.0), [[-3.0]]),
    (_rotation_block(-0.5, 1e3), [[0.5]], [[-0.5]], [[-7.0]]),
    ([[1e-12]], [[-2.0]], _rotation_block(-1.0, 1.0)),
])
def test_exact_pair_raises_the_full_rules_pair(blocks):
    A = scipy.linalg.block_diag(*blocks)
    _, wr, wi, _, _ = lkapprox.linalg._gees(A.T)
    message, pair = _full_pair_rule(wr + 1j * wi)
    with pytest.raises(SingularOperatorError) as err:
        solve_lyapunov(A, np.eye(len(A)))
    assert str(err.value) == message and err.value.pair == pair


_PARTS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.5, -2.5, 1e-11, -1e-11, 3e-10, -3e-10]),
                   st.floats(-5.0, 5.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_PARTS, _PARTS), min_size=1, max_size=12),
       st.sampled_from([1e-3, 1.0, 1e4]))
def test_pair_check_raises_exactly_where_the_full_rule_does(parts, scale):
    # Conjugate-closed spectra with real parts that cancel exactly, nearly
    # or not at all: `_schur_factor` raises with the full rule's message
    # and pair, and passes where it passes.
    lam = np.array([scale * complex(a, b) for a, b in parts]
                   + [scale * complex(a, -b) for a, b in parts if b != 0.0])
    lam = lam.real + 1j * lam.imag   # as `_schur_factor` forms it, signed zeros included
    d = len(lam)
    expected = _full_pair_rule(lam)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lkapprox.linalg, "_gees",
                   lambda At: (np.eye(d), lam.real.copy(), lam.imag.copy(), np.eye(d), 0))
        if expected is None:
            lkapprox.linalg._schur_factor(np.zeros((d, d)))
        else:
            with pytest.raises(SingularOperatorError) as err:
                lkapprox.linalg._schur_factor(np.zeros((d, d)))
            assert (str(err.value), err.value.pair) == expected
