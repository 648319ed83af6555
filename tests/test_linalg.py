import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import lkapprox.linalg
from helpers import (
    kron_lyap_solve,
    newton_char_root,
    random_stable_matrix,
    relative_residual,
)
from lkapprox import RfdeSystem, build_cheb_model, build_leg_model
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
    sym_eigen,
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


def test_solve_lyapunov_result_fields(ex2_system):
    # Every case here has order d <= 42, at most _LEAF: the triangular stage
    # is one dtrsyl call on the whole factor, so P is SciPy's Bartels-Stewart
    # solution bit for bit.  The eigenvalues come from the same Schur factor
    # and the residual is the gated one.
    cases = [(np.asarray(build(ex2_system, 20).A), np.eye(42))
             for build in (build_leg_model, build_cheb_model)]
    for d in (1, 3, 13, 40):
        Q = rng.standard_normal((d, d))
        cases.append((random_stable_matrix(rng, d), Q @ Q.T + 0.1 * np.eye(d)))
    for A, Q in cases:
        sol = solve_lyapunov(A, Q)
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -Q)
        npt.assert_array_equal(sol.P, 0.5 * (ref + ref.T))
        assert sol.residual == relative_residual(sol.P, A, Q)
        lam = eigenvalues(A)
        tol = 1e-10 * np.max(np.abs(lam))
        gaps = np.abs(sol.eigenvalues[:, None] - lam[None, :])
        assert sol.eigenvalues.shape == lam.shape
        assert gaps.min(axis=0).max() <= tol and gaps.min(axis=1).max() <= tol


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


def test_sym_eigen_identity():
    ew, _ = sym_eigen(np.eye(3))
    npt.assert_allclose(ew, [1.0, 1.0, 1.0])


def test_sym_eigen_closed_form_2x2():
    ew, _ = sym_eigen(np.array([[2.0, 1.0], [1.0, 1.0]]))
    s5 = np.sqrt(5.0)
    npt.assert_allclose(ew, [(3 - s5) / 2, (3 + s5) / 2], atol=1e-14)


def test_sym_eigen_invariants():
    for d in (2, 5, 12, 30):
        S = rng.standard_normal((d, d))
        S = S + S.T
        ew, V = sym_eigen(S)
        assert np.all(np.diff(ew) >= 0.0)
        assert (np.linalg.norm(S @ V - V * ew, "fro")
                <= 1e-10 * max(1.0, np.linalg.norm(S, "fro")))
        assert np.linalg.norm(V.T @ V - np.eye(d), "fro") <= 1e-10 * d


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


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
    monkeypatch.setattr(lkapprox.linalg, "sym_eigen",
                        lambda S: calls.append(S.shape) or sym_eigen(S))
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


def test_schur_complement_rejects_indefinite():
    P = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        schur_complement(P, 2)
    # The unchecked variant still eliminates the leading block.
    S = schur_complement(P, 2, check_psd=False)
    assert S.shape == (1, 1)


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
    real eigenvalue for odd d): its real Schur factor is 2 x 2 blocks, so
    many midpoint splits would cut one."""
    B = 0.1 * np.triu(rng.standard_normal((d, d)), 2)
    for k in range(0, d - 1, 2):
        re, im = -rng.uniform(0.1, 2.0), rng.uniform(0.5, 3.0)
        B[k:k + 2, k:k + 2] = [[re, im], [-im, re]]
    if d % 2:
        B[-1, -1] = -rng.uniform(0.1, 2.0)
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return U @ B @ U.T


def _above_leaf_cases(d):
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
def test_solve_lyapunov_above_leaf(monkeypatch, d):
    # Orders above _LEAF take the recursive blocked solve.  Its P must match
    # SciPy's single-dtrsyl Bartels-Stewart solution and, where the
    # Kronecker system is cheap, the Kronecker solve, and its residual must
    # be at the level of SciPy's.  No split may cut a 2 x 2 block, and at
    # every order some case must have a complex pair across a midpoint.
    assert d > lkapprox.linalg._LEAF
    splits = []
    split = lkapprox.linalg._split

    def recording_split(T):
        k = split(T)
        splits.append((T[k, k - 1], k != T.shape[0] // 2))
        return k

    monkeypatch.setattr(lkapprox.linalg, "_split", recording_split)
    eps = np.finfo(float).eps
    for label, A, Q in _above_leaf_cases(d):
        P = solve_lyapunov(A, Q).P
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -Q)
        ref = 0.5 * (ref + ref.T)
        assert relative_residual(P, A, Q) <= 4.0 * max(relative_residual(ref, A, Q), eps)
        npt.assert_allclose(P, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
        # The Kronecker system has d^2 unknowns: it is solved only where it
        # is small or sparse enough to take about a second at most.
        if d == 49 or (d == 97 and label == "build_leg_model"):
            npt.assert_allclose(P, kron_lyap_solve(A, Q), rtol=0,
                                atol=1e-8 * np.max(np.abs(P)))
    assert splits and all(sub == 0.0 for sub, _ in splits)
    assert any(moved for _, moved in splits)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_solve_lyapunov_overflow_raises():
    # The true solution 5e308 I is past the double range.  dtrsyl returns it
    # scaled by its overflow factor; returning that as P (5e-292 I, with a
    # NaN residual that the gate let through) is wrong.
    with pytest.raises(RangeError):
        solve_lyapunov(-1e-9 * np.eye(2), 1e300 * np.eye(2))
    # Above the leaf, with 1e150 couplings, dtrsyl returns NaN at scale 1:
    # only the finiteness check on P sees the overflow.
    d = 100
    T = np.diag(-np.linspace(1.0, 2.0, d)) + np.triu(np.full((d, d), 1e150), 1)
    with pytest.raises(RangeError):
        solve_lyapunov(T.T, 1e150 * np.eye(d))
