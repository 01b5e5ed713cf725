import math
import warnings

import numpy as np
import pytest

from groupcs.operators import SupportSet, make_basis, make_ensemble
from groupcs.recovery import (
    RecoveryProblem,
    basis_pursuit,
    cross_gram,
    _soft_threshold,
    dual_certificate,
    nre,
)

from oracles import l1_min_vertex_oracle, random_orthogonal


def _dft_ensemble(n):
    return make_ensemble(make_basis("identity", n), make_basis("dft1d", n))


def test_nre_basics():
    s = np.array([1.0, 2.0, 2.0])
    assert nre(s, s) == 0.0
    assert nre(s, np.zeros(3)) == 1.0
    assert nre(s, 1.001 * s) == pytest.approx(0.001, rel=1e-9)
    with pytest.raises(ValueError):
        nre(np.zeros(3), s)
    with pytest.raises(ValueError):
        nre(s, s[:2])


def test_problem_validation():
    a = np.eye(3)
    with pytest.raises(ValueError):
        RecoveryProblem(a, np.ones(2))
    with pytest.raises(ValueError):
        RecoveryProblem(a, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        RecoveryProblem(np.ones((4, 3)), np.ones(4))
    with pytest.raises(ValueError):
        RecoveryProblem(a, np.ones(3), tol_feas=0.0)


def test_full_sampling_exact():
    e = _dft_ensemble(32)
    rng = np.random.default_rng(0)
    c0 = np.zeros(32)
    c0[rng.permutation(32)[:7]] = rng.uniform(-1, 1, 7)
    res = basis_pursuit(RecoveryProblem(e.a, e.a @ c0))
    assert res.converged
    assert nre(c0, res.c_hat) <= 1e-8
    assert res.feas_residual <= 1e-8


def test_one_sparse_dft_recovery():
    e = _dft_ensemble(32)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        omega = np.sort(rng.permutation(32)[: rng.integers(8, 17)])
        c0 = np.zeros(32)
        c0[rng.integers(0, 32)] = rng.uniform(0.1, 1.0) * rng.choice([-1, 1])
        a = e.a[omega]
        res = basis_pursuit(RecoveryProblem(a, a @ c0))
        assert nre(c0, res.c_hat) <= 1e-6, seed


def test_objective_matches_lp_oracle():
    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        q = random_orthogonal(12, rng)
        a = q[np.sort(rng.permutation(12)[:6])]
        c0 = np.zeros(12)
        c0[rng.permutation(12)[:2]] = rng.uniform(-1, 1, 2)
        y = a @ c0
        res = basis_pursuit(RecoveryProblem(a, y))
        oracle = l1_min_vertex_oracle(a, y)
        worst = max(worst, abs(res.objective - oracle))
        assert res.objective == pytest.approx(oracle, abs=1e-6)
    assert worst <= 1e-6


def test_solver_sanity_objective_not_above_truth():
    e = _dft_ensemble(64)
    rng = np.random.default_rng(3)
    omega = np.sort(rng.permutation(64)[:40])
    c0 = np.zeros(64)
    c0[rng.permutation(64)[:5]] = rng.uniform(-1, 1, 5)
    a = e.a[omega]
    p = RecoveryProblem(a, a @ c0)
    res = basis_pursuit(p)
    assert res.converged
    assert res.objective <= np.sum(np.abs(c0)) * (1 + p.tol_obj)


def test_determinism_bit_identical():
    e = _dft_ensemble(48)
    rng = np.random.default_rng(4)
    omega = np.sort(rng.permutation(48)[:20])
    c0 = np.zeros(48)
    c0[rng.permutation(48)[:4]] = rng.uniform(-1, 1, 4)
    a = e.a[omega]
    r1 = basis_pursuit(RecoveryProblem(a, a @ c0))
    r2 = basis_pursuit(RecoveryProblem(a, a @ c0))
    assert np.array_equal(r1.c_hat, r2.c_hat)
    assert r1.iterations == r2.iterations


def test_scaling_equivariance():
    e = _dft_ensemble(32)
    rng = np.random.default_rng(5)
    omega = np.sort(rng.permutation(32)[:16])
    c0 = np.zeros(32)
    c0[rng.permutation(32)[:3]] = rng.uniform(-1, 1, 3)
    a = e.a[omega]
    y = a @ c0
    base = basis_pursuit(RecoveryProblem(a, y))
    for alpha in (0.25, 3.0, 1e3):
        scaled = basis_pursuit(RecoveryProblem(a, alpha * y))
        assert np.allclose(scaled.c_hat, alpha * base.c_hat, atol=1e-8 * alpha)


def test_zero_measurements():
    a = np.eye(4)[:2]
    res = basis_pursuit(RecoveryProblem(a, np.zeros(2)))
    assert res.converged and res.objective == 0.0


def test_rank_deficient_rows_warn_not_fail():
    rng = np.random.default_rng(21)
    q = random_orthogonal(8, rng)
    a = np.vstack([q[:3], q[2]])  # duplicated row
    c0 = np.zeros(8)
    c0[1] = 0.8
    with pytest.warns(UserWarning, match="rank deficient"):
        res = basis_pursuit(RecoveryProblem(a, a @ c0))
    assert res.feas_residual <= 1e-6
    assert nre(c0, res.c_hat) <= 1e-4


def test_max_iters_exhaustion_flags():
    e = _dft_ensemble(32)
    rng = np.random.default_rng(6)
    omega = np.sort(rng.permutation(32)[:12])
    c0 = np.zeros(32)
    c0[rng.permutation(32)[:4]] = rng.uniform(-1, 1, 4)
    a = e.a[omega]
    res = basis_pursuit(RecoveryProblem(a, a @ c0, max_iters=3))
    assert not res.converged
    assert res.iterations == 3
    assert np.all(np.isfinite(res.c_hat))


def test_certificate_identity_full_sampling():
    e = make_ensemble(make_basis("identity", 8), make_basis("identity", 8))
    t = SupportSet(np.array([2, 5]))
    rep = dual_certificate(e, np.arange(8), t, np.array([1.0, -1.0]))
    assert rep.invertible and rep.holds
    assert rep.min_singular == pytest.approx(1.0, abs=1e-12)
    assert rep.max_offsupport == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(rep.pi[t.indices], [1.0, -1.0], atol=1e-12)


def test_certificate_rank_deficient():
    e = _dft_ensemble(16)
    t = SupportSet(np.arange(5))
    rep = dual_certificate(e, np.arange(3), t, np.ones(5))
    assert not rep.invertible and not rep.holds
    assert rep.pi is None


def test_certificate_predicts_recovery():
    e = _dft_ensemble(64)
    held = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        m = int(rng.integers(4 * k, 57))
        omega = np.sort(rng.permutation(64)[:m])
        t = SupportSet(np.sort(rng.permutation(64)[:k]))
        coeffs = rng.uniform(0.2, 1.0, k) * rng.choice([-1.0, 1.0], k)
        rep = dual_certificate(e, omega, t, np.sign(coeffs))
        if not rep.holds:
            continue
        held += 1
        c0 = np.zeros(64)
        c0[t.indices] = coeffs
        a = e.a[omega]
        res = basis_pursuit(RecoveryProblem(a, a @ c0))
        err = np.linalg.norm(res.c_hat - c0) / np.linalg.norm(c0)
        assert err <= 1e-4, (seed, err)
    assert held >= 200  # the sweep must actually exercise the implication


def test_cross_gram_shape_and_offsupport_rows():
    e = _dft_ensemble(16)
    t = SupportSet(np.array([1, 4, 9]))
    a_om = e.a[np.arange(0, 16, 2)]
    p = cross_gram(a_om, t)
    assert p.shape == (16, 3)
    # full sampling: cross-gram rows off the support vanish by orthogonality
    full = cross_gram(e.a, t)
    off = t.complement(16)
    assert np.max(np.abs(full[off])) <= 1e-12
    assert np.allclose(full[t.indices], np.eye(3), atol=1e-12)


def test_soft_threshold_denormals_raise_no_warning():
    w = np.array([5e-324, -1e-310, 0.0, 0.25, -3.0])
    expected = np.array([0.0, 0.0, 0.0, 0.0, -2.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_soft_threshold(w, 0.5), expected)
        shrunk = _soft_threshold(np.array([1e-310j, 2.0 + 0j]), 0.5)
    assert np.array_equal(shrunk, np.array([0.0, 1.5]))
