import math
import tracemalloc

import numpy as np
import pytest

from groupcs.operators import (
    MeasurementEnsemble,
    OrthonormalBasis,
    SupportSet,
    _transform,
    haar2d_analysis,
    haar2d_synthesis,
    make_basis,
    make_ensemble,
    normalize_rows,
    submatrix,
    unitarity_residual,
)

from oracles import (
    ensemble_product,
    haar2d_analysis_reference,
    haar2d_matrix_reference,
    haar2d_synthesis_reference,
    hadamard_matrix,
    unitarity_residual_dense,
)

NAMED = [
    ("identity", dict(n=16)),
    ("dft1d", dict(n=16)),
    ("dft2d", dict(rows=4, cols=8)),
    ("haar2d", dict(rows=8, cols=8, levels=3)),
    ("haar2d", dict(rows=16, cols=8)),
    ("dft1d", dict(n=60)),
    ("dft2d", dict(rows=32, cols=32)),
    ("haar2d", dict(rows=8, cols=8, levels=1)),
    ("haar2d", dict(rows=32, cols=32)),
]


def _dft_reference(n):
    jk = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * jk / n) / math.sqrt(n)


def _named_reference(kind, kwargs):
    """The dense construction of each named basis."""
    if kind == "identity":
        return np.eye(kwargs["n"])
    if kind == "dft1d":
        return _dft_reference(kwargs["n"])
    rows, cols = kwargs["rows"], kwargs["cols"]
    if kind == "dft2d":
        return np.kron(_dft_reference(rows), _dft_reference(cols))
    levels = kwargs.get("levels", int(math.log2(min(rows, cols))))
    return haar2d_matrix_reference(rows, cols, levels)


def test_identity_basis():
    b = make_basis("identity", 4)
    assert np.array_equal(b.entries, np.eye(4))


def test_dft_entries_unit_modulus():
    b = make_basis("dft1d", 4)
    assert np.allclose(np.abs(b.entries), 0.5, atol=1e-14)


@pytest.mark.parametrize("kind,kwargs", NAMED)
def test_unitarity(kind, kwargs):
    b = make_basis(kind, **kwargs)
    assert unitarity_residual_dense(b.entries) <= 1e-13
    assert unitarity_residual(b.entries, _transform(b, adjoint=True)) <= 1e-13


@pytest.mark.parametrize("kind,kwargs", NAMED)
def test_named_basis_and_identity_ensembles_match_dense_construction(kind, kwargs):
    b = make_basis(kind, **kwargs)
    assert np.array_equal(b.entries, _named_reference(kind, kwargs))
    eye = make_basis("identity", b.n)
    for v, u in ((eye, b), (b, eye)):
        e = make_ensemble(v, u)
        ref = ensemble_product(v, u)
        assert e.a.dtype == ref.dtype and np.array_equal(e.a, ref)
        assert e.a.flags.c_contiguous and not e.a.flags.writeable
        assert e.mu == float(np.max(np.abs(ref)))
    assert make_ensemble(eye, b).a is b.entries


@pytest.mark.parametrize(
    "v,u",
    [
        (("dft2d", dict(rows=8, cols=16)), ("haar2d", dict(rows=8, cols=16))),
        (("haar2d", dict(rows=16, cols=16, levels=2)), ("dft2d", dict(rows=16, cols=16))),
        (("dft1d", dict(n=64)), ("dft1d", dict(n=64))),
    ],
)
def test_ensemble_of_named_bases_fast_residual(v, u):
    v, u = make_basis(v[0], **v[1]), make_basis(u[0], **u[1])
    e = make_ensemble(v, u)
    assert np.array_equal(e.a, ensemble_product(v, u))
    v_map, u_map = _transform(v, adjoint=False), _transform(u, adjoint=True)
    assert unitarity_residual(e.a, lambda x: u_map(v_map(x))) <= 1e-13
    assert unitarity_residual_dense(e.a) <= 1e-13


@pytest.mark.parametrize("shape", [(3, 8, 8), (2, 16, 4), (5, 4, 32), (2, 3, 2, 2), (32, 32)])
def test_haar_matches_copying_reference_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape)
    z = x + 1j * rng.standard_normal(shape)
    for levels in range(1, int(math.log2(min(shape[-2:]))) + 1):
        for img in (x, z):
            got = haar2d_analysis(img, levels)
            assert got.tobytes() == haar2d_analysis_reference(img, levels).tobytes()
            got = haar2d_synthesis(img, levels)
            assert got.tobytes() == haar2d_synthesis_reference(img, levels).tobytes()


def test_haar_requires_power_of_two():
    with pytest.raises(ValueError):
        make_basis("haar2d", rows=6, cols=8)


def test_haar_default_levels_maximal():
    b = make_basis("haar2d", rows=16, cols=8)
    assert b.levels == 3


def test_haar_roundtrip_and_parseval():
    rng = np.random.default_rng(0)
    img = rng.standard_normal((8, 16))
    coeffs = haar2d_analysis(img)
    assert math.isclose(np.linalg.norm(coeffs), np.linalg.norm(img), rel_tol=1e-12)
    back = haar2d_synthesis(coeffs)
    assert np.allclose(back, img, atol=1e-12)


def test_haar_matrix_matches_transform():
    b = make_basis("haar2d", rows=4, cols=4)
    rng = np.random.default_rng(1)
    img = rng.standard_normal((4, 4))
    coeffs = haar2d_analysis(img).reshape(-1)
    # entries is the synthesis matrix, so analysis is its transpose
    assert np.allclose(b.entries.T @ img.reshape(-1), coeffs, atol=1e-12)


@pytest.mark.parametrize("kind,kwargs", [("dft1d", dict(n=32)), ("haar2d", dict(rows=8, cols=4))])
def test_parseval(kind, kwargs):
    b = make_basis(kind, **kwargs)
    rng = np.random.default_rng(2)
    c = rng.standard_normal(b.n) + 1j * rng.standard_normal(b.n)
    assert math.isclose(
        np.linalg.norm(b.entries @ c), np.linalg.norm(c), rel_tol=1e-10
    )


def test_perfectly_incoherent_pair():
    for n in (4, 16, 100):
        e = make_ensemble(make_basis("identity", n), make_basis("dft1d", n))
        assert abs(e.mu - 1 / math.sqrt(n)) <= 1e-12


def test_same_basis_gives_identity():
    u = make_basis("dft1d", 8)
    e = make_ensemble(u, u)
    assert np.allclose(e.a, np.eye(8), atol=1e-12)
    assert math.isclose(e.mu, 1.0, abs_tol=1e-12)


def test_identity_haar_coherence_range():
    e = make_ensemble(
        make_basis("identity", 1024), make_basis("haar2d", rows=32, cols=32)
    )
    assert 1 / 32 - 1e-12 <= e.mu <= 1 + 1e-12


def test_ensemble_dimension_mismatch():
    with pytest.raises(ValueError):
        make_ensemble(make_basis("identity", 4), make_basis("identity", 8))


def test_custom_basis_checked():
    make_basis("custom", entries=hadamard_matrix(8) / math.sqrt(8))
    with pytest.raises(ValueError):
        make_basis("custom", entries=np.ones((3, 3)))


@pytest.mark.parametrize("where", ["one", "all"])
def test_non_finite_basis_rejected(where):
    q = np.eye(4)
    if where == "one":
        q[1, 2] = np.nan
    else:
        q[:] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        make_basis("custom", entries=q)


def test_named_kind_checked_by_its_transform():
    h = make_basis("haar2d", rows=8, cols=8)
    bent = h.entries.copy()
    bent[3, 5] += 1e-6
    with pytest.raises(ValueError, match="not unitary"):
        OrthonormalBasis(64, bent, "haar2d", shape2d=(8, 8), levels=h.levels)
    with pytest.raises(ValueError, match="not unitary"):
        OrthonormalBasis(64, np.full((64, 64), np.nan), "dft2d", shape2d=(8, 8))
    with pytest.raises(ValueError, match="identity"):
        OrthonormalBasis(64, h.entries.copy(), "identity")


def test_non_unitary_ensemble_rejected():
    eye, h = make_basis("identity", 64), make_basis("haar2d", rows=8, cols=8)
    a = 2.0 * h.entries
    mu = float(np.max(np.abs(a))) / 2.0
    with pytest.raises(ValueError, match="not unitary"):
        MeasurementEnsemble(a=a.copy(), mu=mu, n=64, factors=(eye, h))
    with pytest.raises(ValueError, match="not unitary"):
        MeasurementEnsemble(a=a.copy(), mu=mu, n=64)
    nan = h.entries.copy()
    nan[0, 0] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        MeasurementEnsemble(a=nan, mu=mu, n=64, factors=(eye, h))


def test_custom_entries_are_copied():
    q = hadamard_matrix(8) / math.sqrt(8)
    before = q.copy()
    b = make_basis("custom", entries=q)
    assert q.flags.writeable and np.array_equal(q, before)
    assert b.entries is not q and not b.entries.flags.writeable


def test_identity_haar_ensemble_traced_peak():
    # the parent's dense build and checks peaked at 6 N^2 doubles
    n = 1024
    tracemalloc.start()
    try:
        make_ensemble(make_basis("identity", n), make_basis("haar2d", rows=32, cols=32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n * 8


def test_submatrix():
    e = make_ensemble(make_basis("identity", 6), make_basis("identity", 6))
    t_all = SupportSet(np.arange(6))
    assert np.array_equal(submatrix(e, np.arange(6), t_all), e.a)
    one = submatrix(e, [0], SupportSet(np.array([0])))
    assert one.shape == (1, 1) and one[0, 0] == 1.0
    block = submatrix(e, [1, 3, 5], SupportSet(np.array([0, 2])))
    assert block.shape == (3, 2)
    with pytest.raises(IndexError):
        submatrix(e, [7], t_all)


def test_normalize_rows():
    out = normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]])
    eye = np.eye(3)
    assert np.array_equal(normalize_rows(eye), eye)
    m = np.array([[0.0, 0.0], [1.0, 1.0]])
    out = normalize_rows(m)
    assert np.array_equal(out[0], [0.0, 0.0])
    # idempotent
    assert np.allclose(normalize_rows(out), out)
    # a stack is normalized matrix by matrix, as each matrix alone
    stack = np.random.default_rng(3).standard_normal((4, 3, 5)) + 1j
    stack[2, 1] = 0.0
    scaled = normalize_rows(stack)
    assert np.array_equal(scaled[2, 1], np.zeros(5))
    for block, alone in zip(scaled, stack):
        assert np.array_equal(block, normalize_rows(alone))


def test_ensemble_that_is_not_v_h_u_rejected():
    # a factor's own matrix is taken unchecked only when V is the identity
    dft, h = make_basis("dft1d", 64), make_basis("haar2d", rows=8, cols=8)
    with pytest.raises(ValueError, match="not unitary"):
        MeasurementEnsemble(a=h.entries, mu=float(np.max(np.abs(h.entries))), n=64, factors=(dft, h))
    with pytest.raises(ValueError, match="not unitary"):
        MeasurementEnsemble(a=dft.entries, mu=1 / 8, n=64, factors=(dft, make_basis("identity", 64)))


_EYE, _D1 = ("identity", dict(n=64)), ("dft1d", dict(n=64))
_D2, _H2 = ("dft2d", dict(rows=8, cols=8)), ("haar2d", dict(rows=8, cols=8))


@pytest.mark.parametrize(
    "pair",
    [(_EYE, _D1), (_D1, _EYE), (_EYE, _H2), (_EYE, _D2), (_D2, _EYE), (_D2, _H2), (_H2, _D2),
     "custom", "no factors"],
    ids=lambda p: p if isinstance(p, str) else f"{p[0][0]}-{p[1][0]}",
)
@pytest.mark.parametrize("real", [True, False])
def test_ensemble_apply_and_adjoint_match_dense(pair, real):
    if pair == "custom":
        e = make_ensemble(make_basis("custom", entries=hadamard_matrix(64) / 8.0), make_basis("dft1d", 64))
    elif pair == "no factors":
        e = MeasurementEnsemble(a=make_basis("dft1d", 64).entries.copy(), mu=1 / 8, n=64)
    else:
        e = make_ensemble(make_basis(pair[0][0], **pair[0][1]), make_basis(pair[1][0], **pair[1][1]))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 64))
    if not real:
        x = x + 1j * rng.standard_normal((3, 64))
    before = x.copy()
    for got, ref in ((e.apply(x), x @ e.a.T), (e.adjoint(x), x @ e.a.conj())):
        assert got.shape == ref.shape and np.iscomplexobj(got) == np.iscomplexobj(ref)
        assert np.max(np.abs(got - ref)) <= 1e-13
        assert not np.shares_memory(got, x)
    assert np.array_equal(x, before)


def test_dft1d_ensemble_applies_the_fft():
    # the trial engine's 1-D DFT rows run exactly these calls
    e = make_ensemble(make_basis("identity", 64), make_basis("dft1d", 64))
    x = np.random.default_rng(2).standard_normal((3, 64)) + 1j
    assert np.array_equal(e.apply(x), np.fft.fft(x, axis=1, norm="ortho"))
    assert np.array_equal(e.adjoint(x), np.fft.ifft(x, axis=1, norm="ortho"))


def test_real_ensemble_of_complex_bases_maps_real_rows_to_real_rows():
    # dft2d/dft2d is I: a real A, applied through complex transforms
    d2 = make_basis("dft2d", rows=8, cols=8)
    e = make_ensemble(d2, d2)
    x = np.random.default_rng(1).standard_normal((2, 64))
    for got in (e.apply(x), e.adjoint(x)):
        assert not np.iscomplexobj(got) and got.flags.c_contiguous
        assert np.max(np.abs(got - x)) <= 1e-13
    # an ensemble with no transform to run returns a copy
    eye = make_basis("identity", 64)
    got = make_ensemble(eye, eye).apply(x)
    assert np.array_equal(got, x) and got is not x


def test_support_set_validation():
    with pytest.raises(ValueError):
        SupportSet(np.array([3, 3, 5]))
    with pytest.raises(ValueError):
        SupportSet(np.array([5, 3]))
    t = SupportSet.from_indices([5, 3, 3])
    assert np.array_equal(t.indices, [3, 5])
    assert np.array_equal(t.complement(7), [0, 1, 2, 4, 6])
