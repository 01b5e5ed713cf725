import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcs import bounds
from groupcs.bounds import (
    BoundQuery,
    bound_gram,
    bound_grouped,
    bound_unstructured,
    validate_cross_row_energy,
    validate_gram_concentration,
)
from groupcs.gamma import penalty_gamma
from groupcs.grouping import contiguous_1d, random_groups, rect_2d, strided_1d
from groupcs.harness import image_to_sparse, synthetic_image, trial_rng
from groupcs.operators import SupportSet, make_basis, make_ensemble
from groupcs.pgm import read_pgm, write_pgm

from oracles import bernoulli_rows, cross_gram, cross_row_energy_loop, gram_deviations_loop


def _dft_ensemble(n):
    return make_ensemble(make_basis("identity", n), make_basis("dft1d", n))


def q(**kw):
    base = dict(n=64, t_size=4, mu=0.125, gamma=2.0, delta=0.05, const=1.0)
    base.update(kw)
    return BoundQuery(**base)


def test_query_validation():
    with pytest.raises(ValueError):
        q(delta=1.0)
    with pytest.raises(ValueError):
        q(mu=0.0)
    with pytest.raises(ValueError):
        q(t_size=0)


def test_unstructured_incoherent_cancellation():
    n = 256
    query = q(n=n, mu=1 / math.sqrt(n), t_size=6, delta=0.1, gamma=1.0)
    assert bound_unstructured(query) == pytest.approx(6 * math.log(n / 0.1), rel=1e-12)


def test_unstructured_degenerate_log():
    assert bound_unstructured(q(n=1, delta=0.999999, mu=1.0, t_size=1)) == pytest.approx(
        math.log(1 / 0.999999), rel=1e-6
    )


def test_unstructured_linear_in_sparsity():
    assert bound_unstructured(q(t_size=8)) == pytest.approx(
        2 * bound_unstructured(q(t_size=4)), rel=1e-12
    )


def test_grouped_matches_unstructured_in_incoherent_regime():
    # at mu = 1/sqrt(N) and gamma = 1 the two bounds are the same expression
    n = 1024
    query = q(n=n, mu=1 / math.sqrt(n), gamma=1.0, t_size=10)
    assert bound_grouped(query) == bound_unstructured(query)
    assert bound_grouped(q(n=n, mu=1 / math.sqrt(n), gamma=3.5, t_size=10)) == (
        pytest.approx(3.5 * bound_unstructured(query), rel=1e-12)
    )


def test_grouped_linear_in_gamma():
    assert bound_grouped(q(gamma=4.0)) == pytest.approx(
        2 * bound_grouped(q(gamma=2.0)), rel=1e-12
    )


def test_gram_formula():
    query = q(n=64, mu=1 / 8, t_size=4, gamma=2.0, delta=0.05)
    expect = (28 / 3) * 2.0 * 64 * (1 / 64) * 4 * math.log(4 / 0.05)
    assert bound_gram(query) == pytest.approx(expect, rel=1e-12)
    # cancellation form: mu^2 N = 1
    assert bound_gram(query) == pytest.approx((28 / 3) * 2.0 * 4 * math.log(80), rel=1e-12)
    assert bound_gram(q(gamma=4.0)) == pytest.approx(2 * bound_gram(q(gamma=2.0)), rel=1e-12)
    # log argument 1 -> 0
    assert bound_gram(q(t_size=1, delta=0.999999999)) == pytest.approx(0.0, abs=1e-6)


def test_bounds_monotone():
    for f in (bound_unstructured, bound_grouped, bound_gram):
        assert f(q(t_size=8)) > f(q(t_size=4))
        assert f(q(gamma=3.0)) >= f(q(gamma=2.0))
        assert f(q(const=2.0)) >= f(q(const=1.0)) or f is bound_gram  # const-free
        assert f(q(delta=0.01)) > f(q(delta=0.05))


def test_gram_concentration_full_sampling_zero():
    e = _dft_ensemble(64)
    t = SupportSet(np.arange(0, 64, 16))
    gs = strided_1d(64, 4)
    stats = validate_gram_concentration(e, t, gs, 64, 50, np.random.default_rng(0))
    assert stats.fail_rate == 0.0
    assert np.max(stats.deviations) <= 1e-10


def test_gram_concentration_monotone_in_m():
    e = _dft_ensemble(64)
    rng_t = np.random.default_rng(1)
    t = SupportSet(np.sort(rng_t.permutation(64)[:6]))
    gs = strided_1d(64, 4)
    trials = 400
    rates = []
    for m in (8, 16, 32, 64):
        rng = np.random.default_rng(100 + m)
        rates.append(validate_gram_concentration(e, t, gs, m, trials, rng).fail_rate)
    for a, b in zip(rates, rates[1:]):
        pooled = (a + b) / 2
        sigma = math.sqrt(max(pooled * (1 - pooled), 1e-12) * 2 / trials)
        assert b <= a + 2 * sigma
    assert rates[-1] == 0.0


def test_gram_concentration_m_validation():
    e = _dft_ensemble(16)
    t = SupportSet(np.arange(2))
    gs = strided_1d(16, 4)
    with pytest.raises(ValueError):
        validate_gram_concentration(e, t, gs, 0, 5, np.random.default_rng(0))


def test_cross_row_energy_bound_holds():
    e = _dft_ensemble(64)
    gs = strided_1d(64, 4)
    rng_t = np.random.default_rng(2)
    t = SupportSet(np.sort(rng_t.permutation(64)[:4]))
    t0 = int(t.complement(64)[3])
    empirical, bound = validate_cross_row_energy(
        e, t, gs, 16, t0, 2000, np.random.default_rng(3)
    )
    assert empirical <= bound
    assert bound == pytest.approx((16 / 8) * (1 / 8) ** 3 * 4 * 2.0, rel=0.5)


def test_cross_row_energy_rejects_support_index():
    e = _dft_ensemble(16)
    t = SupportSet(np.array([1, 2]))
    gs = strided_1d(16, 4)
    with pytest.raises(ValueError):
        validate_cross_row_energy(e, t, gs, 8, 2, 10, np.random.default_rng(0))


def test_cross_row_energy_linear_scaling_in_small_m_regime():
    # the exact per-trial variance factor is m(1 - m/N); for m << N this is
    # linear in m to within the asserted 20 percent
    n = 256
    e = _dft_ensemble(n)
    gs = strided_1d(n, 4)
    rng_t = np.random.default_rng(4)
    t = SupportSet(np.sort(rng_t.permutation(n)[:4]))
    t0 = int(t.complement(n)[0])
    means = []
    for m in (8, 16, 32):
        emp, _ = validate_cross_row_energy(
            e, t, gs, m, t0, 3000, np.random.default_rng(50 + m)
        )
        means.append(emp)
    assert means[1] / means[0] == pytest.approx(2.0, rel=0.2)
    assert means[2] / means[1] == pytest.approx(2.0, rel=0.2)


def _validator_case(kind):
    if kind == "dft":
        e, gs = _dft_ensemble(64), strided_1d(64, 4)
        t = SupportSet(np.array([2, 3, 17, 40]))
    else:
        e = make_ensemble(make_basis("identity", 256), make_basis("haar2d", rows=16, cols=16))
        gs = rect_2d(16, 16, 4)
        t = SupportSet(np.array([0, 1, 16, 17, 90]))
    return e, gs, t


# _CHUNK_ENTRIES: the default takes these cases in one chunk of trials and
# forms the per-group terms once; 160 splits the trials and forms the terms
# in spans, once for the dft case and per chunk for the haar case; 1 takes
# one trial and one group at a time
_CHUNKS = [bounds._CHUNK_ENTRIES, 160, 1]


@pytest.mark.parametrize("kind", ["dft", "haar"])
def test_gram_concentration_matches_trial_loop(kind, monkeypatch):
    e, gs, t = _validator_case(kind)
    trials = 37
    # m=4 leaves about a third of the draws empty; m=N selects every group
    for chunk, m in itertools.product(_CHUNKS, (4, 32, e.n)):
        monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", chunk)
        rng, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
        stats = validate_gram_concentration(e, t, gs, m, trials, rng)
        ref = gram_deviations_loop(e, t, gs, m, trials, rng_ref)
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        # relative to the larger of the deviation and |I| = 1: at m=N the
        # deviation is rounding noise of an exact zero
        assert np.all(np.abs(stats.deviations - ref) <= 1e-12 * np.maximum(ref, 1.0))
        assert stats.fail_rate == np.mean(ref >= 0.5 - bounds._TIE_MARGIN)
        assert stats.ties == np.count_nonzero(np.abs(ref - 0.5) <= bounds._TIE_MARGIN)
        rng_sizes = np.random.default_rng(9)
        empty = np.array([bernoulli_rows(gs, m, rng_sizes).size == 0 for _ in range(trials)])
        assert empty.any() == (m == 4)
        assert np.all(stats.deviations[empty] == 1.0)


def _gram_deviations_dense_lower(e, t, gs, m, trials, rng):
    # the dense solve: every trial's whole lower triangle, upper zero, to eigvalsh
    k = len(t)
    lower = np.tril_indices(k)
    out = []
    a_t = e.columns(t.indices)
    for sums in bounds._selected_sums(a_t, a_t, gs, m, trials, rng, lower[0] * k + lower[1]):
        y = np.zeros((len(sums), k, k), dtype=sums.dtype)
        y[:, lower[0], lower[1]] = sums * (e.n / m)
        y[:, np.arange(k), np.arange(k)] -= 1.0
        out.append(np.max(np.abs(np.linalg.eigvalsh(y)), axis=1))
    return np.concatenate(out)


@pytest.mark.parametrize(
    "ensemble, gs, support",
    [
        (_dft_ensemble(64), strided_1d(64, 4), [2, 3, 17, 40]),
        (_dft_ensemble(220), strided_1d(220, 11), [14, 15, 18, 19, 21, 22, 116, 117, 123, 125, 126]),
        (_dft_ensemble(220), contiguous_1d(220, 11), [14, 15, 18, 19, 21, 22, 116, 117, 123, 125, 126]),
        (
            make_ensemble(make_basis("dft2d", rows=16, cols=16), make_basis("identity", 256)),
            rect_2d(16, 16, 4),
            [0, 5, 17, 100, 200],
        ),
    ],
)
def test_dft_gram_deviations_bitwise_match_dense_solve(ensemble, gs, support, monkeypatch):
    # DFT Grams couple every atom (sums of roots of unity round to nonzero),
    # so each trial hands eigvalsh the lower triangle the dense solve does
    t = SupportSet(np.array(support))
    for chunk, m in itertools.product(_CHUNKS[:2], (4 * gs.g, ensemble.n // 2, ensemble.n)):
        monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", chunk)
        stats = validate_gram_concentration(ensemble, t, gs, m, 60, np.random.default_rng(m))
        ref = _gram_deviations_dense_lower(ensemble, t, gs, m, 60, np.random.default_rng(m))
        assert np.array_equal(stats.deviations, ref)


def test_gram_ties_fail_whatever_the_rounding():
    # N=64 DFT, 16 strided groups of 4 rows, m=8: a trial of j groups has
    # H_ii = j/2 - 1 exactly, and off-diagonal entries that are sums of roots
    # of unity, zero up to rounding; so j = 1 and j = 3 are ties at 1/2
    e, gs, t = _validator_case("dft")
    rng_ref = np.random.default_rng(5)
    j = np.array([bernoulli_rows(gs, 8, rng_ref).size // 4 for _ in range(400)])
    stats = validate_gram_concentration(e, t, gs, 8, 400, np.random.default_rng(5))
    tie = (j == 1) | (j == 3)
    assert np.all(np.abs(stats.deviations[tie] - 0.5) <= 1e-14)
    assert stats.ties == np.count_nonzero(tie) > 0
    assert stats.fail_rate == np.mean(j != 2)


def _spy_spectral_radii(monkeypatch):
    """Record the number of trials each ``_spectral_radii`` call receives."""
    rows = []
    original = bounds._spectral_radii

    def spy(h, k, out):
        rows.append(len(h))
        original(h, k, out)

    monkeypatch.setattr(bounds, "_spectral_radii", spy)
    return rows


def _diagonal_witness(e, t, gs, m, trials, rng):
    """Per trial, max |H_ii| and the sign of that H_ii, one ``bernoulli_rows``
    trial at a time; and the ceiling max((N/m) lambda_max(A_T^H A_T) - 1, 1)."""
    a_t = e.columns(t.indices)
    ceiling = max(e.n / m * np.linalg.eigvalsh(a_t.conj().T @ a_t)[-1] - 1.0, 1.0)
    diag = np.array([
        (e.n / m) * np.sum(np.abs(a_t[bernoulli_rows(gs, m, rng)]) ** 2, axis=0) - 1.0
        for _ in range(trials)
    ])
    top = np.argmax(np.abs(diag), axis=1)
    witness = diag[np.arange(trials), top]
    return np.abs(witness), np.sign(witness), ceiling


def _block_unitary(n, cuts, complex_, rng):
    """A direct sum of QR-of-Gaussian blocks split at ``cuts``, rows and
    columns permuted: columns of different blocks share no nonzero row."""
    q = np.zeros((n, n), dtype=np.complex128 if complex_ else np.float64)
    edges = [0, *sorted(set(cuts)), n]
    for lo, hi in zip(edges, edges[1:]):
        z = rng.standard_normal((hi - lo, hi - lo))
        if complex_:
            z = z + 1j * rng.standard_normal((hi - lo, hi - lo))
        q[lo:hi, lo:hi] = np.linalg.qr(z)[0]
    return q[rng.permutation(n)][:, rng.permutation(n)]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.booleans(), st.integers(0, 2**32 - 1))
def test_gram_ceiling_witness_matches_trial_loop(data, complex_, seed):
    # random partitions, supports and m on sparse and dense custom unitaries:
    # a trial decided by its diagonal witness, or by eigvalsh on the live
    # entries, has the deviation the dense loop finds
    n = data.draw(st.sampled_from([4, 6, 8, 12, 16]), label="n")
    g = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]), label="g")
    cuts = data.draw(st.lists(st.integers(1, n - 1), max_size=n), label="cuts")
    k = data.draw(st.integers(1, n), label="k")
    m = data.draw(st.integers(1, n), label="m")
    rng = np.random.default_rng(seed)
    entries = _block_unitary(n, cuts, complex_, rng)
    e = make_ensemble(make_basis("identity", n), make_basis("custom", entries=entries))
    gs = random_groups(n, g, seed)
    t = SupportSet(np.sort(rng.permutation(n)[:k]))
    stats = validate_gram_concentration(e, t, gs, m, 30, np.random.default_rng(seed))
    ref = gram_deviations_loop(e, t, gs, m, 30, np.random.default_rng(seed))
    assert np.all(np.abs(stats.deviations - ref) <= 1e-12 * np.maximum(ref, 1.0))
    assert stats.fail_rate == np.mean(ref >= 0.5 - bounds._TIE_MARGIN)
    assert stats.ties == np.count_nonzero(np.abs(ref - 0.5) <= bounds._TIE_MARGIN)


def test_gram_ceiling_decides_on_both_sides(monkeypatch):
    # 8x8 Haar, 2x2 squares: a finest-scale atom lies in one square, so at
    # m = N/2 (ceiling 1) it has H_ii = +1 when its square is drawn and -1
    # when it is not; atom 2 spans four squares and atoms 0, 1 and 9 all 16,
    # so without a finest one most trials go to eigvalsh, as they do at m = N/4
    # (ceiling 3) unless the finest atom's square is drawn
    e = make_ensemble(make_basis("identity", 64), make_basis("haar2d", rows=8, cols=8))
    gs = rect_2d(8, 8, 4)
    a = e.columns(np.arange(64))
    finest = int(np.flatnonzero(np.count_nonzero(a, axis=0) == 4)[0])
    rows = _spy_spectral_radii(monkeypatch)
    for support, m in (([0, 1, 2, finest], 32), ([0, 1, 2, 9], 32), ([0, 1, 2, finest], 16)):
        t = SupportSet(np.array(sorted(set(support))))
        rows.clear()
        stats = validate_gram_concentration(e, t, gs, m, 200, np.random.default_rng(m))
        ref = gram_deviations_loop(e, t, gs, m, 200, np.random.default_rng(m))
        witness, side, ceiling = _diagonal_witness(e, t, gs, m, 200, np.random.default_rng(m))
        decided = witness >= ceiling * (1.0 - bounds._CEILING_MARGIN)
        assert np.all(np.abs(stats.deviations - ref) <= 1e-12 * np.maximum(ref, 1.0))
        assert sum(rows) == np.count_nonzero(~decided)
        if finest in support and m == 32:
            assert decided.all() and (side > 0).any() and (side < 0).any()
        else:
            assert 0 < np.count_nonzero(decided) < 200


def test_e2_gram_trials_mostly_decided_by_the_ceiling(tmp_path, monkeypatch):
    # the E2 validator setting: 32x32 identity/haar2d, rect2d g=8, the
    # synthetic image's k=51 support, the CLI's stream at master seed 7
    e = make_ensemble(make_basis("identity", 1024), make_basis("haar2d", rows=32, cols=32))
    gs = rect_2d(32, 32, 8)
    write_pgm(tmp_path / "e2.pgm", synthetic_image(32, 32, np.random.default_rng(7)))
    t = image_to_sparse(read_pgm(tmp_path / "e2.pgm"), 51, e.u)[0]
    rng = trial_rng(7, "validate-gram", 0, 0)
    rows = _spy_spectral_radii(monkeypatch)
    for m, share in ((128, 0.80), (256, 0.95)):
        rows.clear()
        validate_gram_concentration(e, t, gs, m, 500, rng)
        assert 1 - sum(rows) / 500 >= share


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 6),
    st.booleans(),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_spectral_radii_deflation_matches_dense(k, batch, complex_, isolate, seed):
    # random Hermitian H with a random set of atoms cut off the diagonal
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((batch, k, k))
    if complex_:
        h = h + 1j * rng.standard_normal((batch, k, k))
    h = h + h.conj().transpose(0, 2, 1)
    h[:, np.arange(k), np.arange(k)] = h[:, np.arange(k), np.arange(k)].real
    for b, cut in enumerate(rng.random((batch, k)) < isolate):
        diag = h[b].diagonal().copy()
        h[b][cut, :] = 0.0
        h[b][:, cut] = 0.0
        h[b][np.arange(k), np.arange(k)] = diag
    radii = np.empty(batch)
    lower = np.tril_indices(k)
    bounds._spectral_radii(h[:, lower[0], lower[1]], k, radii)
    dense = np.max(np.abs(np.linalg.eigvalsh(h)), axis=1)
    scale = np.maximum(1.0, np.linalg.norm(h, ord=2, axis=(1, 2)))
    assert np.all(np.abs(radii - dense) <= 1e-12 * scale)


def _cross_row_energy_full_gram(e, t, gs, m, t0, trials, rng):
    # the previous formula: build the full N x |T| cross-Gram and read row t0
    mean_row = (m / e.n) * cross_gram(e.a, t)[t0]
    acc = 0.0
    for _ in range(trials):
        row = cross_gram(e.a[bernoulli_rows(gs, m, rng)], t)[t0] - mean_row
        acc += float(np.real(np.vdot(row, row)))
    return acc / trials


@pytest.mark.parametrize("kind", ["dft", "haar"])
def test_cross_row_energy_matches_full_cross_gram(kind, monkeypatch):
    e, gs, t = _validator_case(kind)
    t0 = int(t.complement(e.n)[5])
    gamma_value = penalty_gamma(e, t, gs).value
    # m=4 leaves about a third of the draws empty
    for chunk, (m, trials) in itertools.product(_CHUNKS, ((32, 200), (4, 37))):
        monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", chunk)
        rng = np.random.default_rng(8)
        empirical, bound = validate_cross_row_energy(e, t, gs, m, t0, trials, rng)
        assert bound == (m / math.sqrt(e.n)) * e.mu**3 * len(t) * gamma_value
        rng_ref = np.random.default_rng(8)
        ref = _cross_row_energy_full_gram(e, t, gs, m, t0, trials, rng_ref)
        loop = cross_row_energy_loop(e, t, gs, m, t0, trials, np.random.default_rng(8))
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert ref > 0
        assert empirical == pytest.approx(ref, rel=1e-12)
        assert empirical == pytest.approx(loop, rel=1e-12)

