import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupcs import recovery
from groupcs.grouping import singletons
from groupcs.operators import SupportSet, make_basis, make_ensemble
from groupcs.recovery import (
    SolverOptions,
    TrialPool,
    _soft_threshold,
    nre,
    solve_trials,
)

from oracles import (
    cross_gram,
    dual_certificate,
    l1_min_vertex_oracle,
    proved_recovery,
    random_orthogonal,
    verdicts_alone,
)


def _dft_ensemble(n):
    return make_ensemble(make_basis("identity", n), make_basis("dft1d", n))


def _orthogonal_ensemble(q):
    """The identity/custom ensemble whose A is the orthogonal matrix q."""
    return make_ensemble(make_basis("identity", len(q)), make_basis("custom", entries=q))


def _solve(e, omega, c, solver=None):
    """One problem, measuring y = A[omega] c, solved as a block of one trial."""
    (res,), _ = solve_trials(e, np.asarray(omega)[None], np.asarray(c)[None], solver, verdicts=False)
    return res


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
    with pytest.raises(ValueError):
        SolverOptions(tol_feas=0.0)


def test_full_sampling_exact():
    e = _dft_ensemble(32)
    rng = np.random.default_rng(0)
    c0 = np.zeros(32)
    c0[rng.permutation(32)[:7]] = rng.uniform(-1, 1, 7)
    res = _solve(e, np.arange(32), c0)
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
        res = _solve(e, omega, c0)
        assert nre(c0, res.c_hat) <= 1e-6, seed


def test_objective_matches_lp_oracle():
    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        q = random_orthogonal(12, rng)
        omega = np.sort(rng.permutation(12)[:6])
        c0 = np.zeros(12)
        c0[rng.permutation(12)[:2]] = rng.uniform(-1, 1, 2)
        res = _solve(_orthogonal_ensemble(q), omega, c0)
        oracle = l1_min_vertex_oracle(q[omega], q[omega] @ c0)
        worst = max(worst, abs(res.objective - oracle))
        assert res.objective == pytest.approx(oracle, abs=1e-6)
    assert worst <= 1e-6


def test_solver_sanity_objective_not_above_truth():
    e = _dft_ensemble(64)
    rng = np.random.default_rng(3)
    omega = np.sort(rng.permutation(64)[:40])
    c0 = np.zeros(64)
    c0[rng.permutation(64)[:5]] = rng.uniform(-1, 1, 5)
    res = _solve(e, omega, c0)
    assert res.converged
    assert res.objective <= np.sum(np.abs(c0)) * (1 + 1e-6)


def test_determinism_bit_identical():
    e = _dft_ensemble(48)
    rng = np.random.default_rng(4)
    omega = np.sort(rng.permutation(48)[:20])
    c0 = np.zeros(48)
    c0[rng.permutation(48)[:4]] = rng.uniform(-1, 1, 4)
    r1 = _solve(e, omega, c0)
    r2 = _solve(e, omega, c0)
    assert np.array_equal(r1.c_hat, r2.c_hat)
    assert r1.iterations == r2.iterations


def test_scaling_equivariance():
    e = _dft_ensemble(32)
    rng = np.random.default_rng(5)
    omega = np.sort(rng.permutation(32)[:16])
    c0 = np.zeros(32)
    c0[rng.permutation(32)[:3]] = rng.uniform(-1, 1, 3)
    base = _solve(e, omega, c0)
    for alpha in (0.25, 3.0, 1e3):
        scaled = _solve(e, omega, alpha * c0)
        assert np.allclose(scaled.c_hat, alpha * base.c_hat, atol=1e-8 * alpha)


def test_zero_measurements():
    res = _solve(_orthogonal_ensemble(np.eye(4)), np.arange(2), np.zeros(4))
    assert res.converged and res.objective == 0.0 and res.iterations == 0


def test_max_iters_exhaustion_flags():
    e = _dft_ensemble(32)
    rng = np.random.default_rng(6)
    omega = np.sort(rng.permutation(32)[:12])
    c0 = np.zeros(32)
    c0[rng.permutation(32)[:4]] = rng.uniform(-1, 1, 4)
    res = _solve(e, omega, c0, SolverOptions(max_iters=3))
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


def test_certificate_reports_smallest_singular_value():
    # rows 0..5 of the DFT on support {1, 2, 7}: sigma_min is well inside
    # (0, 1), so it and its square (the Gram eigenvalue) differ
    e = _dft_ensemble(16)
    t = SupportSet(np.array([1, 2, 7]))
    omega = np.arange(6)
    sigma = np.linalg.svd(e.a[np.ix_(omega, t.indices)], compute_uv=False)[-1]
    assert abs(sigma - sigma**2) > 0.05
    rep = dual_certificate(e, omega, t, np.ones(3))
    assert rep.invertible
    assert rep.min_singular == pytest.approx(sigma, rel=1e-10)


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
        res = _solve(e, omega, c0)
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


def _soft_threshold_where(w, kappa):
    # the previous formula, kept as the reference for the quotient form
    a = np.abs(w)
    shrink = np.divide(kappa, a, out=np.ones_like(a), where=a > kappa)
    return w * (1.0 - shrink)


def test_soft_threshold_matches_divide_where_formula():
    rng = np.random.default_rng(31)
    specials = np.array([0.0, -0.0, 5e-324, -1e-310, 0.5, -0.5, 1e300])
    for _ in range(200):
        w = np.concatenate([rng.standard_normal(40) * 10.0 ** rng.integers(-3, 3), specials])
        kappa = float(rng.uniform(0.01, 2.0))
        assert np.array_equal(_soft_threshold(w, kappa), _soft_threshold_where(w, kappa))
        wc = w + 1j * rng.permutation(w)
        assert np.array_equal(_soft_threshold(wc, kappa), _soft_threshold_where(wc, kappa))


def _trial_block(e, m, k, b, seed, real=False):
    rng = np.random.default_rng(seed)
    omegas = np.stack([np.sort(rng.permutation(e.n)[:m]) for _ in range(b)])
    coeffs = np.zeros((b, e.n), dtype=np.float64 if real else np.complex128)
    for row in coeffs:
        row[np.sort(rng.permutation(e.n)[:k])] = rng.uniform(-1.0, 1.0, k)
    return omegas, coeffs


def _haar_ensemble(rows, cols):
    u = make_basis("haar2d", rows=rows, cols=cols)
    return make_ensemble(make_basis("identity", rows * cols), u)


@pytest.mark.parametrize(
    "ensemble, m, k, real",
    [
        (lambda: _dft_ensemble(220), 88, 11, False),  # FFT rows
        (lambda: _haar_ensemble(16, 16), 96, 8, True),  # Haar synthesis rows
    ],
)
def test_trial_engine_result_independent_of_chunk(ensemble, m, k, real):
    e = ensemble()
    omegas, coeffs = _trial_block(e, m, k, 32, seed=41, real=real)
    solver = SolverOptions(max_iters=3000)
    chunk, _ = solve_trials(e, omegas, coeffs, solver, verdicts=False)
    for i in (0, 7, 31):
        (alone,), _ = solve_trials(e, omegas[i : i + 1], coeffs[i : i + 1], solver, verdicts=False)
        assert np.array_equal(alone.c_hat, chunk[i].c_hat)
        assert alone.iterations == chunk[i].iterations
        assert alone.converged == chunk[i].converged


@pytest.mark.parametrize("verdicts", [False, True])
def test_no_trials_give_no_results(verdicts):
    e = _dft_ensemble(16)
    results, routes = solve_trials(e, np.zeros((0, 8), dtype=np.int64), np.zeros((0, 16)), verdicts=verdicts)
    assert results == [] and routes.shape == (0,)


@pytest.mark.parametrize(
    "ensemble, m, k, real, cap",
    [
        (lambda: _dft_ensemble(220), 88, 11, False, 3),  # 3 masked DFT rows
        (lambda: _haar_ensemble(16, 16), 96, 8, True, 2),  # 2 masked Haar rows
        (lambda: _haar_ensemble(16, 16), 96, 8, True, 0),  # one trial at a time
    ],
)
def test_pool_live_rows_stay_within_entry_bound(monkeypatch, ensemble, m, k, real, cap):
    # every live row counts _ROW_VECTORS N-vectors against _LIVE_ENTRIES,
    # with one trial always admitted; results do not change
    e = ensemble()
    omegas, coeffs = _trial_block(e, m, k, 12, seed=53, real=real)
    solver = SolverOptions(max_iters=3000)
    unbounded, _ = solve_trials(e, omegas, coeffs, solver, verdicts=False)
    per_row = e.n * recovery._ROW_VECTORS
    monkeypatch.setattr(recovery, "_LIVE_ENTRIES", cap * per_row)
    live = []
    step = recovery._Block.step

    def counted(self, *args, **kwargs):
        live.append(len(self))
        return step(self, *args, **kwargs)

    monkeypatch.setattr(recovery._Block, "step", counted)
    bounded, _ = solve_trials(e, omegas, coeffs, solver, verdicts=False)
    assert max(live) == max(cap, 1)
    for a, b in zip(unbounded, bounded):
        assert np.array_equal(a.c_hat, b.c_hat) and a.iterations == b.iterations


@pytest.mark.parametrize(
    "ensemble, m, k",
    [
        (lambda: _dft_ensemble(64), 32, 4),
        (lambda: _haar_ensemble(32, 32), 640, 4),  # successes and failures
        (lambda: _orthogonal_ensemble(random_orthogonal(48, np.random.default_rng(3))), 24, 3),
    ],
)
def test_trial_engine_matches_each_trial_alone(ensemble, m, k):
    # a batch of trials gives each trial what solving it alone gives, bit for
    # bit; a dense custom factor, and successes and failures in one batch
    e = ensemble()
    omegas, coeffs = _trial_block(e, m, k, 6, seed=43, real=e.dtype == np.float64)
    solver = SolverOptions(max_iters=4000)
    block, _ = solve_trials(e, omegas, coeffs, solver, verdicts=False)
    for omega, c, res in zip(omegas, coeffs, block):
        alone = _solve(e, omega, c, solver)
        assert np.array_equal(res.c_hat, alone.c_hat)
        assert (res.iterations, res.converged) == (alone.iterations, alone.converged)
        assert res.feas_residual <= 1e-8


@pytest.mark.parametrize("verdicts", [False, True])
def test_trial_engine_zero_trial_needs_no_iterations(verdicts):
    # a zero trial (|S| = 0) beside nonzero ones: no proof applies to it, and
    # it is solved with no iteration, also when it measures every row
    e = _dft_ensemble(32)
    for m in (16, 32):
        omegas, coeffs = _trial_block(e, m, 3, 2, seed=47)
        coeffs[1] = 0.0
        res, routes = solve_trials(e, omegas, coeffs, verdicts=verdicts)
        assert routes[1] == "solved"
        assert res[1].iterations == 0 and res[1].converged
        assert np.all(res[1].c_hat == 0) and res[1].feas_residual == 0.0
        if routes[0] == "solved":
            assert res[0].iterations > 0 and nre(coeffs[0], res[0].c_hat) <= 1e-6


_FULL_SAMPLING_ENSEMBLES = {
    "identity-dft1d": lambda: _dft_ensemble(32),
    "dft2d-identity": lambda: make_ensemble(make_basis("dft2d", rows=4, cols=8), make_basis("identity", 32)),
    "identity-haar2d": lambda: _haar_ensemble(4, 8),
    "dft2d-haar2d": lambda: make_ensemble(make_basis("dft2d", rows=4, cols=8), make_basis("haar2d", rows=4, cols=8)),
    "identity-custom": lambda: make_ensemble(
        make_basis("identity", 32), make_basis("custom", entries=random_orthogonal(32, np.random.default_rng(5)))
    ),
}


@pytest.mark.parametrize("ensemble", sorted(_FULL_SAMPLING_ENSEMBLES))
def test_full_sampling_is_certified_with_no_result(ensemble):
    # all N rows: A_omega = A is unitary, so every nonzero trial is certified
    # at submission, from |S| = 1 to |S| = N
    e = _FULL_SAMPLING_ENSEMBLES[ensemble]()
    rng = np.random.default_rng(59)
    sizes = [1, 2, 5, 16, 32]
    coeffs = np.zeros((len(sizes), e.n), dtype=e.dtype)
    for c, size in zip(coeffs, sizes):
        s = rng.permutation(e.n)[:size]
        c[s] = rng.uniform(0.1, 1.0, size) * rng.choice([-1.0, 1.0], size)
        if e.dtype == np.complex128:
            c[s] *= np.exp(2j * np.pi * rng.uniform(size=size))
    omegas = np.stack([rng.permutation(e.n) for _ in sizes])
    results, routes = solve_trials(e, omegas, coeffs, verdicts=True)
    for omega, c, res, route in zip(omegas, coeffs, results, routes):
        assert route == "certified" and res is None
        t = SupportSet(np.flatnonzero(c))
        assert dual_certificate(e, omega, t, c[t.indices] / np.abs(c[t.indices])).holds


def test_full_sampling_verdicts_form_no_columns_and_measure_nothing(monkeypatch):
    # trials that measure every row are decided with no factorization of
    # A_S, no column of A and no measurement y
    e = _haar_ensemble(8, 8)
    t = SupportSet(np.array([0, 3, 9, 40, 63]))

    def forbidden(*args, **kwargs):
        raise AssertionError("full sampling needs no factorization, column or measurement")

    monkeypatch.setattr(recovery._SupportProof, "factor", forbidden)
    monkeypatch.setattr(type(e), "columns", forbidden)
    monkeypatch.setattr(type(e), "apply", forbidden)
    verdicts = verdicts_alone(e, singletons(e.n), t, e.n, range(6), master_seed=3)
    assert verdicts == [(True, "certified")] * 6


def _block_orthogonal(n, split, rng):
    # diag(Q1, Q2) with random orthogonal blocks; split == n gives one block.
    # A second block makes A_{omega,S} rank-deficient at m >= |S| as well.
    q = np.zeros((n, n))
    q[:split, :split] = random_orthogonal(split, rng)
    if split < n:
        q[split:, split:] = random_orthogonal(n - split, rng)
    return q


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 10),
    split_frac=st.floats(0.3, 1.0),
    k=st.integers(1, 5),
    m=st.integers(1, 10),
)
# the certificate holds with a margin of 2.8e-5, and ADMM takes 439,267
# iterations to converge: past the default budget
@example(seed=2373912715, n=4, split_frac=0.3125, k=1, m=1)
def test_proved_recovery_is_sound(seed, n, split_frac, k, m):
    rng = np.random.default_rng(seed)
    q = _block_orthogonal(n, max(1, round(split_frac * n)), rng)
    e = _orthogonal_ensemble(q)
    k, m = min(k, n), min(m, n)
    s = np.sort(rng.permutation(n)[:k])
    omega = np.sort(rng.permutation(n)[:m])
    c = np.zeros(n)
    c[s] = rng.uniform(0.1, 1.0, k) * rng.choice([-1.0, 1.0], k)
    a = e.a[omega]
    proof = proved_recovery(e, omega, c)
    if proof is False:
        # h, the component of sign(c_S) in the null space of A_{omega,S}:
        # c - t h is feasible, differs from c, and has a smaller l1 norm
        _, sv, vh = np.linalg.svd(a[:, s])
        null = vh[int(np.sum(sv > sv[0] * max(m, k) * np.finfo(float).eps)) :]
        h = np.zeros(n)
        h[s] = null.T @ (null @ np.sign(c[s]))
        assert np.linalg.norm(a @ h) <= 1e-9
        step = 0.5 * np.min(np.abs(c[s])) / np.max(np.abs(h))
        assert np.sum(np.abs(c - step * h)) < np.sum(np.abs(c))
    elif proof is True:
        res = _solve(e, omega, c)
        if res.converged:
            assert nre(c, res.c_hat) <= 1e-3
        else:
            # c is the unique minimizer: its l1 norm is the LP optimum
            assert np.sum(np.abs(c)) == pytest.approx(l1_min_vertex_oracle(a, a @ c), abs=1e-9)


def test_proved_recovery_routes():
    e = _dft_ensemble(16)
    c = np.zeros(16, dtype=complex)
    c[[2, 5]] = [1.0, -0.5]
    assert proved_recovery(e, np.arange(16), c) is True  # full sampling certifies
    assert proved_recovery(e, np.array([3]), c) is False  # one row, two unknowns
    assert proved_recovery(e, np.arange(16), np.zeros(16, dtype=complex)) is None
    # columns 2 and 10 agree on rows 0 and 8, so h = e_2 - e_10 is a null
    # vector on S.  With c_S = (1, -1), sign(c_S) has a component along h and
    # c is not a minimizer; with c_S = (1, 1) it has none, c is one of many
    # minimizers, and the trial is left to the solver.
    rows = np.array([0, 8])
    c = np.zeros(16, dtype=complex)
    c[[2, 10]] = [1.0, -1.0]
    assert proved_recovery(e, rows, c) is False
    c[10] = 1.0
    assert proved_recovery(e, rows, c) is None


def _block_unitary(n, split, rng, complex_):
    # diag(Q1, Q2) with random unitary (complex_) or orthogonal blocks
    q = np.zeros((n, n), dtype=complex if complex_ else float)
    for lo, hi in ((0, split), (split, n)):
        if hi > lo:
            g = rng.standard_normal((hi - lo, hi - lo))
            if complex_:
                g = g + 1j * rng.standard_normal(g.shape)
            qb, r = np.linalg.qr(g)
            d = np.diag(r)
            q[lo:hi, lo:hi] = qb * (d / np.abs(d))
    return q


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 16),
    split_frac=st.floats(0.3, 1.0),
    k=st.integers(1, 6),
    m_frac=st.floats(0.1, 1.0),
    complex_=st.booleans(),
)
def test_descent_stop_is_sound(seed, n, split_frac, k, m_frac, complex_):
    rng = np.random.default_rng(seed)
    q = _block_unitary(n, max(1, round(split_frac * n)), rng, complex_)
    e = make_ensemble(make_basis("identity", n), make_basis("custom", entries=q))
    k, m = min(k, n), max(1, round(m_frac * n))
    omegas = np.array([np.sort(rng.permutation(n)[:m]) for _ in range(4)])
    coeffs = np.zeros((4, n), dtype=q.dtype)
    for c in coeffs:
        s = np.sort(rng.permutation(n)[:k])
        c[s] = rng.uniform(0.1, 1.0, k) * rng.choice([-1.0, 1.0], k)
        if complex_:
            c[s] *= np.exp(2j * np.pi * rng.uniform(size=k))
    solver = SolverOptions(max_iters=500)
    results, routes = solve_trials(e, omegas, coeffs, solver, verdicts=True)
    full, _ = solve_trials(e, omegas, coeffs, solver, verdicts=False)
    for omega, c, res, ref, route in zip(omegas, coeffs, results, full, routes):
        if route == "solved":
            assert np.array_equal(res.c_hat, ref.c_hat) and res.iterations == ref.iterations
        if route != "descent":  # test_dual_stop_is_sound covers the other routes
            continue
        # the returned point is feasible, and its exact correction onto the
        # constraints beats the true coefficients in l1 norm
        a = e.a[omega]
        y = a @ c
        r = a @ res.c_hat - y
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(y)
        assert np.sum(np.abs(res.c_hat - a.conj().T @ r)) < np.sum(np.abs(c))
        assert not res.converged and res.iterations < ref.iterations


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 16),
    split_frac=st.floats(0.3, 1.0),
    k=st.integers(1, 6),
    m_frac=st.floats(0.1, 1.0),
    complex_=st.booleans(),
)
def test_dual_stop_is_sound(seed, n, split_frac, k, m_frac, complex_):
    # a block of trials whose supports differ in size
    rng = np.random.default_rng(seed)
    q = _block_unitary(n, max(1, round(split_frac * n)), rng, complex_)
    e = make_ensemble(make_basis("identity", n), make_basis("custom", entries=q))
    m = max(1, round(m_frac * n))
    omegas = np.array([np.sort(rng.permutation(n)[:m]) for _ in range(6)])
    coeffs = np.zeros((6, n), dtype=q.dtype)
    for c in coeffs:
        size = rng.integers(1, min(k, n) + 1)
        s = np.sort(rng.permutation(n)[:size])
        c[s] = rng.uniform(0.1, 1.0, size) * rng.choice([-1.0, 1.0], size)
        if complex_:
            c[s] *= np.exp(2j * np.pi * rng.uniform(size=size))
    results, routes = solve_trials(e, omegas, coeffs, SolverOptions(max_iters=500), verdicts=True)
    for omega, c, res, route in zip(omegas, coeffs, results, routes):
        s = np.flatnonzero(c)
        cert = dual_certificate(e, omega, SupportSet(s), c[s] / np.abs(c[s]))
        # iteration 0 is the least-squares certificate; the rank rule is proved_recovery's
        assert (route == "certified") == cert.holds
        assert (route == "rank_deficient") == (proved_recovery(e, omega, c) is False)
        assert (res is None) == (route in ("certified", "rank_deficient"))
        if route == "dual":
            assert res.iterations >= 1
            # re-solved to convergence: some trials need more than the default budget
            full = _solve(e, omega, c, SolverOptions(max_iters=200_000))
            assert full.converged
            assert nre(c, full.c_hat) <= 1e-3


@pytest.mark.parametrize(
    "ensemble, seen",
    [
        ("dft", {"certified", "dual", "descent", "solved"}),
        ("haar", {"rank_deficient", "solved"}),
        ("orthogonal", {"certified", "dual", "descent"}),
    ],
)
def test_verdicts_independent_of_block_with_mixed_support_sizes(ensemble, seen):
    # each trial's route and result are those it gets alone, with |supp(c)|
    # from 1 to 8 in one block; FFT, Haar and dense rows
    if ensemble == "dft":
        e = _dft_ensemble(64)
    elif ensemble == "haar":
        e = make_ensemble(make_basis("identity", 64), make_basis("haar2d", rows=8, cols=8))
    else:
        q = random_orthogonal(64, np.random.default_rng(7))
        e = make_ensemble(make_basis("identity", 64), make_basis("custom", entries=q))
    rng = np.random.default_rng(53)
    omegas = np.array([np.sort(rng.permutation(64)[:12]) for _ in range(16)])
    coeffs = np.zeros((16, 64), dtype=e.a.dtype)
    for b, c in enumerate(coeffs):
        size = 1 + b % 8
        s = np.sort(rng.permutation(64)[:size])
        c[s] = rng.uniform(0.1, 1.0, size) * rng.choice([-1.0, 1.0], size)
    solver = SolverOptions(max_iters=2000)
    results, routes = solve_trials(e, omegas, coeffs, solver, verdicts=True)
    assert set(routes) == seen, routes
    for b in range(16):
        (alone,), (route,) = solve_trials(
            e, omegas[b : b + 1], coeffs[b : b + 1], solver, verdicts=True
        )
        assert route == routes[b]
        if alone is None:
            assert results[b] is None
        else:
            assert np.array_equal(alone.c_hat, results[b].c_hat)
            assert alone.iterations == results[b].iterations


_Q64 = make_basis("custom", entries=random_orthogonal(64, np.random.default_rng(11)))
_POOL_ENSEMBLES = {
    "identity-dft1d": (make_basis("identity", 64), make_basis("dft1d", 64)),
    "identity-haar2d": (make_basis("identity", 64), make_basis("haar2d", rows=8, cols=8)),
    "identity-custom": (make_basis("identity", 64), _Q64),
    # a real matrix applied to complex rows
    "custom-dft1d": (_Q64, make_basis("dft1d", 64)),
}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pair=st.sampled_from(sorted(_POOL_ENSEMBLES)),
    verdicts=st.booleans(),
    companions=st.integers(0, 6),
    join_after=st.integers(0, 6),
)
def test_pool_row_does_not_depend_on_companions(seed, pair, verdicts, companions, join_after):
    # a trial that joins a running pool after join_after admission ticks,
    # beside companions of other support sizes and m, ends exactly as alone:
    # masked rows of any m share a block, whatever the factors' transforms
    rng = np.random.default_rng(seed)
    e = make_ensemble(*_POOL_ENSEMBLES[pair])
    real = e.dtype == np.float64
    sizes = [16, 24, 32]

    def draw(m):
        omega = np.sort(rng.permutation(64)[:m])
        size = rng.integers(1, 9)
        s = rng.permutation(64)[:size]
        c = np.zeros(64, dtype=np.float64 if real else np.complex128)
        c[s] = rng.uniform(0.1, 1.0, size) * rng.choice([-1.0, 1.0], size)
        if not real:
            c[s] *= np.exp(2j * np.pi * rng.uniform(size=size))
        return omega[None], c[None]

    def request(chunk, waits=0):
        for _ in range(waits):  # a waiting request resumes once per admission tick
            yield
        return (yield chunk)

    m = int(rng.choice(sizes))
    omega, c = draw(m)
    solver = SolverOptions(max_iters=400)
    companion_chunks = [draw(m if rng.random() < 0.5 else int(rng.choice(sizes))) for _ in range(companions)]
    requests = [request((omega, c), join_after + 1)] + [request(chunk) for chunk in companion_chunks]
    ((result,), (route,)), *others = TrialPool(e, solver, verdicts=verdicts).run(requests)
    assert all(len(results) == len(routes) == 1 for results, routes in others)
    (alone,), (alone_route,) = solve_trials(e, omega, c, solver, verdicts=verdicts)
    assert route == alone_route
    if alone is None:
        assert result is None
    else:
        assert np.array_equal(result.c_hat, alone.c_hat)
        assert (result.iterations, result.converged, result.objective, result.feas_residual) == (
            alone.iterations, alone.converged, alone.objective, alone.feas_residual
        )
