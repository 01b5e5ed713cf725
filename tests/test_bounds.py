import itertools
import math

import numpy as np
import pytest

from groupcs import bounds
from groupcs.bounds import (
    BoundQuery,
    bound_gram,
    bound_grouped,
    bound_unstructured,
    validate_cross_row_energy,
    validate_gram_concentration,
)
from groupcs.grouping import draw_bernoulli, rect_2d, strided_1d
from groupcs.operators import SupportSet, make_basis, make_ensemble
from groupcs.recovery import cross_gram

from oracles import cross_row_energy_loop, gram_deviations_loop


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
# one span of groups; 160 splits both the trials and the groups; 1 takes one
# trial and one group at a time
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
        assert stats.fail_rate == np.mean(ref >= 0.5)
        rng_sizes = np.random.default_rng(9)
        empty = np.array([draw_bernoulli(gs, m, rng_sizes).m == 0 for _ in range(trials)])
        assert empty.any() == (m == 4)
        assert np.all(stats.deviations[empty] == 1.0)


def _cross_row_energy_full_gram(e, t, gs, m, t0, trials, rng):
    # the previous formula: build the full N x |T| cross-Gram and read row t0
    mean_row = (m / e.n) * cross_gram(e.a, t)[t0]
    acc = 0.0
    for _ in range(trials):
        row = cross_gram(e.a[draw_bernoulli(gs, m, rng).omega], t)[t0] - mean_row
        acc += float(np.real(np.vdot(row, row)))
    return acc / trials


@pytest.mark.parametrize("kind", ["dft", "haar"])
def test_cross_row_energy_matches_full_cross_gram(kind, monkeypatch):
    e, gs, t = _validator_case(kind)
    t0 = int(t.complement(e.n)[5])
    # m=4 leaves about a third of the draws empty
    for chunk, (m, trials) in itertools.product(_CHUNKS, ((32, 200), (4, 37))):
        monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", chunk)
        rng = np.random.default_rng(8)
        empirical, _ = validate_cross_row_energy(
            e, t, gs, m, t0, trials, rng, gamma_value=1.0
        )
        rng_ref = np.random.default_rng(8)
        ref = _cross_row_energy_full_gram(e, t, gs, m, t0, trials, rng_ref)
        loop = cross_row_energy_loop(e, t, gs, m, t0, trials, np.random.default_rng(8))
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert ref > 0
        assert empirical == pytest.approx(ref, rel=1e-12)
        assert empirical == pytest.approx(loop, rel=1e-12)

