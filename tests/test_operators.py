import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcs import operators
from groupcs.operators import (
    OrthonormalBasis,
    SupportSet,
    _columns,
    _transform,
    make_basis,
    make_ensemble,
    matvec_rows,
    normalize_rows,
    submatrix,
    unitarity_residual,
)

from oracles import (
    basis_reference,
    dense_basis,
    ensemble_product,
    haar2d_analysis_reference,
    haar2d_synthesis_reference,
    hadamard_matrix,
    random_orthogonal,
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
    # wide grids, and the sizes whose DFT is real to 1e-13
    ("haar2d", dict(rows=4, cols=16)),
    ("dft2d", dict(rows=16, cols=2)),
    ("dft2d", dict(rows=1, cols=2)),
    ("dft1d", dict(n=2)),
    ("dft1d", dict(n=1)),
    ("identity", dict(n=1)),
]


def test_identity_basis():
    b = make_basis("identity", 4)
    assert np.array_equal(dense_basis(b), np.eye(4))


def test_dft_entries_unit_modulus():
    b = make_basis("dft1d", 4)
    assert np.allclose(np.abs(dense_basis(b)), 0.5, atol=1e-14)


@pytest.mark.parametrize("kind,kwargs", NAMED)
def test_unitarity(kind, kwargs):
    b = make_basis(kind, **kwargs)
    assert unitarity_residual_dense(dense_basis(b)) <= 1e-13
    assert unitarity_residual(partial(_columns, b), b.n, _transform(b, adjoint=True))[0] <= 1e-13


@pytest.mark.parametrize("kind,kwargs", NAMED)
def test_analyze_is_the_adjoint_of_synthesize(kind, kwargs):
    b = make_basis(kind, **kwargs)
    rng = np.random.default_rng(b.n)
    x = rng.standard_normal(b.n)
    c = b.analyze(x)
    assert np.allclose(c, dense_basis(b).conj().T @ x, atol=1e-12)
    assert np.allclose(b.synthesize(c), x, atol=1e-12)


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("batch", [1, 4, 32])
def test_dft2d_transform_is_bitwise_fft2(adjoint, batch):
    # two 1-D passes in fft2's own order: the same bits as fft2/ifft2, on
    # the columns (axis 0) and on the rows (axis 1) of a batch of images
    b = make_basis("dft2d", rows=16, cols=8)
    fft2 = np.fft.ifft2 if adjoint else np.fft.fft2
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((128, batch)) + 1j * rng.standard_normal((128, batch))
    cols = fft2(x.reshape(16, 8, batch), axes=(0, 1), norm="ortho").reshape(128, batch)
    assert np.array_equal(_transform(b, adjoint, axis=0)(x), cols)
    rows = fft2(x.T.reshape(batch, 16, 8), axes=(1, 2), norm="ortho").reshape(batch, 128)
    assert np.array_equal(_transform(b, adjoint, axis=1)(np.ascontiguousarray(x.T)), rows)


@pytest.mark.parametrize("kind,kwargs", NAMED)
def test_named_basis_and_identity_ensembles_match_dense_construction(kind, kwargs):
    # bit for bit, signs of zeros included
    b = make_basis(kind, **kwargs)
    ref = basis_reference(b)
    dense = dense_basis(b)
    assert dense.dtype == ref.dtype and dense.tobytes() == ref.tobytes()
    eye = make_basis("identity", b.n)
    idx = np.random.default_rng(b.n).permutation(b.n)[: max(1, b.n // 3)]
    for v, u in ((eye, b), (b, eye)):
        e = make_ensemble(v, u)
        ref = ensemble_product(v, u)
        assert e.dtype == ref.dtype and e.a.tobytes() == ref.tobytes()
        assert e.a.flags.c_contiguous
        assert e.columns(idx).tobytes() == np.ascontiguousarray(ref[:, idx]).tobytes()
        assert e.mu == float(np.max(np.abs(ref)))
        # set-up checks A on 8 probe columns; every column of A^H A here
        assert unitarity_residual_dense(e.a) <= 1e-13


@pytest.mark.parametrize("n", [220, 1760])
def test_dft_columns_match_fft_of_unit_vectors(n):
    # each phase is reduced mod n before the exponential, so every column,
    # the last ones (k near n - 1) too, is the FFT's to rounding level
    b = make_basis("dft1d", n)
    idx = np.r_[0:8, n // 2 - 4 : n // 2 + 4, n - 16 : n]
    cols = _columns(b, idx)
    units = np.zeros((n, len(idx)))
    units[idx, np.arange(len(idx))] = 1.0
    assert np.max(np.abs(cols - np.fft.fft(units, axis=0, norm="ortho"))) <= 1e-14 / math.sqrt(n)
    conj = np.fft.ifft(units, axis=0, norm="ortho")
    assert np.max(np.abs(_columns(b, idx, adjoint=True) - conj)) <= 1e-14 / math.sqrt(n)


def test_dft_unitarity_residual_is_rounding_level():
    b = make_basis("dft1d", 1760)
    assert unitarity_residual(partial(_columns, b), b.n, _transform(b, adjoint=True))[0] <= 1e-14


@pytest.mark.parametrize("rows,cols", [(32, 32), (8, 8), (16, 8), (4, 16), (2, 8), (2, 2)])
def test_haar_closed_form_is_bitwise_the_transformed_unit_images(rows, cols):
    # every level, and the transposed scatter that forms V^H for U = I
    for levels in range(1, int(math.log2(min(rows, cols))) + 1):
        h = make_basis("haar2d", rows=rows, cols=cols, levels=levels)
        ref = basis_reference(h)
        assert dense_basis(h).tobytes() == ref.tobytes()
        every = np.arange(h.n)
        assert _columns(h, every, adjoint=True).tobytes() == np.ascontiguousarray(ref.T).tobytes()
        # any columns, in any order, each coefficient's closed form alone
        idx = np.random.default_rng(levels).permutation(h.n)[: max(1, h.n // 5)]
        assert _columns(h, idx).tobytes() == np.ascontiguousarray(ref[:, idx]).tobytes()
        assert _columns(h, idx, adjoint=True).tobytes() == np.ascontiguousarray(ref[idx].T).tobytes()


@pytest.mark.parametrize(
    "v,u",
    [
        (("dft2d", dict(rows=8, cols=16)), ("haar2d", dict(rows=8, cols=16))),
        (("haar2d", dict(rows=16, cols=16, levels=2)), ("dft2d", dict(rows=16, cols=16))),
        (("dft1d", dict(n=64)), ("dft1d", dict(n=64))),
        (("dft2d", dict(rows=16, cols=16)), ("haar2d", dict(rows=16, cols=16))),
        (("haar2d", dict(rows=8, cols=8)), ("haar2d", dict(rows=8, cols=8, levels=1))),
        (("dft2d", dict(rows=8, cols=8)), ("dft2d", dict(rows=8, cols=8))),
    ],
)
def test_ensemble_of_named_bases_fast_residual(v, u):
    v, u = make_basis(v[0], **v[1]), make_basis(u[0], **u[1])
    e = make_ensemble(v, u)
    # A's columns are V^H's transform of U's closed-form columns, not the
    # dense product
    ref = ensemble_product(v, u)
    assert e.dtype == ref.dtype and np.max(np.abs(e.a - ref)) <= 1e-13
    assert e.mu == float(np.max(np.abs(e.a)))
    v_map, u_map = _transform(v, adjoint=False), _transform(u, adjoint=True)
    assert unitarity_residual(e.columns, e.n, lambda x: u_map(v_map(x)))[0] <= 1e-13
    assert unitarity_residual_dense(e.a) <= 1e-13
    if u.kind == "haar2d":
        # the Haar closed form is bitwise its transform of unit images, so A
        # is bitwise V^H's transform of them
        ref = _transform(v, adjoint=True)(_transform(u, adjoint=False)(np.eye(e.n)))
        assert e.a.tobytes() == (ref.real if e.dtype == np.float64 else ref).tobytes()


@pytest.mark.parametrize("shape", [(3, 8, 8), (2, 16, 4), (5, 4, 32), (2, 3, 2, 2), (32, 32)])
def test_haar_matches_copying_reference_bit_for_bit(shape):
    # the basis's transforms of a batch of images, as columns (axis 0) and
    # as rows (axis 1)
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape)
    z = x + 1j * rng.standard_normal(shape)
    rows, cols = shape[-2:]
    for levels in range(1, int(math.log2(min(shape[-2:]))) + 1):
        b = make_basis("haar2d", rows=rows, cols=cols, levels=levels)
        for img in (x, z):
            flat = img.reshape(-1, rows * cols)
            for adjoint, reference in ((True, haar2d_analysis_reference), (False, haar2d_synthesis_reference)):
                ref = reference(img, levels).reshape(flat.shape)
                assert _transform(b, adjoint, axis=1)(flat).tobytes() == ref.tobytes()
                got = _transform(b, adjoint, axis=0)(np.ascontiguousarray(flat.T))
                assert np.ascontiguousarray(got.T).tobytes() == ref.tobytes()


def test_haar_requires_power_of_two():
    with pytest.raises(ValueError):
        make_basis("haar2d", rows=6, cols=8)


def test_haar_default_levels_maximal():
    b = make_basis("haar2d", rows=16, cols=8)
    assert b.levels == 3


def test_haar_roundtrip_and_parseval():
    b = make_basis("haar2d", rows=8, cols=16)
    rng = np.random.default_rng(0)
    img = rng.standard_normal(b.n)
    coeffs = b.analyze(img)
    assert math.isclose(np.linalg.norm(coeffs), np.linalg.norm(img), rel_tol=1e-12)
    back = b.synthesize(coeffs)
    assert np.allclose(back, img, atol=1e-12)


def test_haar_matrix_matches_transform():
    b = make_basis("haar2d", rows=4, cols=4)
    rng = np.random.default_rng(1)
    img = rng.standard_normal((4, 4))
    coeffs = haar2d_analysis_reference(img, b.levels).reshape(-1)
    # the basis matrix is the synthesis matrix, so analysis is its transpose
    assert np.allclose(dense_basis(b).T @ img.reshape(-1), coeffs, atol=1e-12)
    assert b.analyze(img.reshape(-1)).tobytes() == coeffs.tobytes()


@pytest.mark.parametrize("kind,kwargs", [("dft1d", dict(n=32)), ("haar2d", dict(rows=8, cols=4))])
def test_parseval(kind, kwargs):
    b = make_basis(kind, **kwargs)
    rng = np.random.default_rng(2)
    c = rng.standard_normal(b.n) + 1j * rng.standard_normal(b.n)
    assert math.isclose(
        np.linalg.norm(dense_basis(b) @ c), np.linalg.norm(c), rel_tol=1e-10
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


def _bent(kind, change):
    """``_columns`` with ``change`` applied to the columns of bases of
    ``kind``: a closed form that no longer matches the kind's transform."""
    columns = operators._columns

    def bent(b, idx, adjoint=False):
        out = columns(b, idx, adjoint)
        return change(out, idx) if b.kind == kind else out

    return bent


def _bump(out, idx):
    out[3, np.flatnonzero(idx == 5)] += 1e-6
    return out


def test_named_kind_checked_by_its_transform(monkeypatch):
    # a named basis holds no matrix; the ensemble's closed-form columns are
    # checked against its factors by their transforms
    eye, h = make_basis("identity", 64), make_basis("haar2d", rows=8, cols=8)
    d2 = make_basis("dft2d", rows=8, cols=8)
    mismatch = "does not match its factors"
    monkeypatch.setattr(operators, "_columns", _bent("haar2d", _bump))
    with pytest.raises(ValueError, match=mismatch):
        make_ensemble(eye, h)
    with pytest.raises(ValueError, match=mismatch):
        make_ensemble(h, eye)
    monkeypatch.setattr(operators, "_columns", _bent("dft2d", lambda out, idx: out * np.nan))
    with pytest.raises(ValueError, match=f"{mismatch} V\\^H U: residual nan"):
        make_ensemble(d2, eye)
    with pytest.raises(ValueError, match=f"{mismatch} V\\^H U: residual nan"):
        make_ensemble(h, d2)
    with pytest.raises(ValueError, match="only a custom one"):
        OrthonormalBasis(64, "identity", matrix=np.eye(64))
    with pytest.raises(ValueError, match="only a custom one"):
        OrthonormalBasis(64, "custom")


def test_non_unitary_ensemble_rejected(monkeypatch):
    eye, h = make_basis("identity", 64), make_basis("haar2d", rows=8, cols=8)
    hc = make_basis("custom", entries=dense_basis(h))
    monkeypatch.setattr(operators, "_columns", _bent("haar2d", lambda out, idx: 2.0 * out))
    with pytest.raises(ValueError, match="does not match its factors"):
        make_ensemble(eye, h)
    # a custom factor's A is checked against its factors like any other
    monkeypatch.setattr(operators, "_columns", _bent("custom", lambda out, idx: 2.0 * out))
    with pytest.raises(ValueError, match="does not match its factors"):
        make_ensemble(eye, hc)
    monkeypatch.setattr(operators, "_columns", _bent("haar2d", lambda out, idx: np.where(idx == 0, np.nan, out)))
    with pytest.raises(ValueError, match="does not match its factors V\\^H U: residual nan"):
        make_ensemble(eye, h)


def _basis16(kind, seed):
    if kind == "custom":
        return make_basis("custom", entries=random_orthogonal(16, np.random.default_rng(seed)))
    return make_basis(kind, 16) if kind == "identity" else make_basis(kind, rows=4, cols=4)


# At N = 16 every row of A, and of a factor, has an entry of magnitude
# >= 1/4 (a flat row, such as a DFT row or Haar's approximation image, has
# nothing larger), and each probe row's largest |entry| is 1, so an entry
# error e in row r moves the probe residual by >= |e| max_i |A_ri| >= |e|/4
# wherever it sits
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([("identity", "haar2d"), ("haar2d", "identity"), ("dft2d", "identity"), ("dft2d", "haar2d"),
                     ("identity", "custom")]),
    st.integers(0, 15),
    st.integers(0, 15),
    st.one_of(st.floats(1e-9, 1e3), st.floats(-1e3, -1e-9), st.sampled_from([np.nan, np.inf, -np.inf])),
)
def test_single_entry_error_rejected_wherever_it_sits(pair, row, col, error):
    # the probe check reads every column of A: one wrong entry of the
    # columns the ensemble forms from a closed form, at any (row, column),
    # fails it, and a non-finite one fails it with a NaN residual
    v, u = (_basis16(kind, row) for kind in pair)

    def change(out, idx):
        out[row, np.flatnonzero(idx == col)] += error
        return out

    message = "does not match its factors" + ("" if np.isfinite(error) else " V\\^H U: residual nan")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_columns", _bent(u.kind if u.kind != "identity" else v.kind, change))
        with pytest.raises(ValueError, match=message):
            make_ensemble(v, u)


def test_small_entry_error_rejected_where_the_probe_row_is_small():
    # 8x8 dft2d/identity: 1e-9 added to entry (5, 38), where row 38 of the
    # Gaussian probes peaks at 0.63.  Unscaled, the residual is 7.9e-11,
    # below the tolerance; with that row scaled to a largest |entry| of 1
    # it is 1.25e-10
    def change(out, idx):
        out[5, np.flatnonzero(idx == 38)] += 1e-9
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_columns", _bent("dft2d", change))
        with pytest.raises(ValueError, match="does not match its factors"):
            make_ensemble(make_basis("dft2d", rows=8, cols=8), make_basis("identity", 64))


def test_bases_and_ensembles_compare_by_value():
    h = hadamard_matrix(8) / math.sqrt(8)
    assert make_basis("custom", entries=h) == make_basis("custom", entries=h)
    assert make_basis("custom", entries=h) != make_basis("custom", entries=-h)
    assert make_basis("custom", entries=np.eye(8)) != make_basis("identity", 8)
    assert make_basis("haar2d", rows=4, cols=2) == make_basis("haar2d", rows=4, cols=2, levels=1)
    assert make_basis("haar2d", rows=4, cols=4, levels=1) != make_basis("haar2d", rows=4, cols=4)
    eye = make_basis("identity", 8)
    assert make_ensemble(eye, make_basis("custom", entries=h)) == make_ensemble(eye, make_basis("custom", entries=h))
    assert make_ensemble(eye, make_basis("custom", entries=h)) != make_ensemble(eye, make_basis("dft1d", 8))


def test_equal_custom_bases_hash_equal():
    # one dict key for equal bases, and for ensembles with equal custom factors
    h = hadamard_matrix(8) / math.sqrt(8)
    a, b = make_basis("custom", entries=h), make_basis("custom", entries=h.copy())
    assert a == b and hash(a) == hash(b)
    assert {a: "first", b: "second"} == {a: "second"}
    eye = make_basis("identity", 8)
    ea, eb = make_ensemble(eye, a), make_ensemble(eye, b)
    assert hash(ea) == hash(eb) and len({ea, eb}) == 1


def test_custom_entries_are_copied():
    q = hadamard_matrix(8) / math.sqrt(8)
    before = q.copy()
    b = make_basis("custom", entries=q)
    assert q.flags.writeable and np.array_equal(q, before)
    assert b.matrix is not q and not b.matrix.flags.writeable


def _traced_peak_share(v, u):
    """make_ensemble's traced peak allocation over the bytes of its A."""
    tracemalloc.start()
    try:
        e = make_ensemble(v, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (e.n * e.n * e.dtype.itemsize)


@pytest.mark.parametrize("side", [32, 64])
def test_identity_haar_ensemble_traced_peak(side):
    # no N x N array: the check's column spans are a small share of A
    v, u = make_basis("identity", side * side), make_basis("haar2d", rows=side, cols=side)
    assert _traced_peak_share(v, u) <= 1 / 8


@pytest.mark.parametrize("side", [32, 64])
def test_dft2d_identity_ensemble_traced_peak(side):
    v, u = make_basis("dft2d", rows=side, cols=side), make_basis("identity", side * side)
    assert _traced_peak_share(v, u) <= 1 / 8


@pytest.mark.parametrize("v", ["identity", "dft1d"])
def test_custom_ensemble_traced_peak(v):
    # a custom factor is one more transform: no ensemble stores a dense A
    u = make_basis("custom", entries=random_orthogonal(1024, np.random.default_rng(6)))
    assert _traced_peak_share(make_basis(v, 1024), u) <= 1 / 8


def test_columns_of_every_ensemble_are_the_dense_columns():
    # every reader takes A through ``columns``; ``a`` is all of them, formed
    # anew on each access
    rng = np.random.default_rng(4)
    h = hadamard_matrix(64) / 8.0
    pairs = [(_EYE, _D1), (_D2, _EYE), (_EYE, _H2), (_D2, _H2), (_H2, _D2), (_D1, _D1)]
    ensembles = [make_ensemble(make_basis(v[0], **v[1]), make_basis(u[0], **u[1])) for v, u in pairs]
    ensembles.append(make_ensemble(make_basis("custom", entries=h), make_basis("dft1d", 64)))
    ensembles.append(make_ensemble(make_basis("identity", 64), make_basis("custom", entries=h)))
    for e in ensembles:
        a = e.a
        assert a is not e.a and a.shape == (64, 64) and a.dtype == e.dtype
        for idx in (rng.permutation(64)[:7], np.array([5, 5, 0]), np.arange(64), np.array([], dtype=np.int64)):
            cols = e.columns(idx)
            assert cols.shape == (64, len(idx)) and cols.dtype == e.dtype
            assert cols.tobytes() == np.ascontiguousarray(a[:, idx]).tobytes()
        assert e.columns([3]).tobytes() == np.ascontiguousarray(a[:, [3]]).tobytes()


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


def test_ensemble_that_is_not_v_h_u_rejected(monkeypatch):
    # A is unitary in both cases, so the message names the mismatch and its size
    dft, h = make_basis("dft1d", 64), make_basis("haar2d", rows=8, cols=8)
    mismatch = r"ensemble A does not match its factors V\^H U: residual \d\.\d{3}e[+-]\d\d$"
    # columns in the wrong order: still unitary, but not V^H U
    monkeypatch.setattr(operators, "_columns", _bent("haar2d", lambda out, idx: out[:, ::-1]))
    with pytest.raises(ValueError, match=mismatch):
        make_ensemble(dft, h)
    monkeypatch.setattr(operators, "_columns", _bent("dft1d", lambda out, idx: out.conj()))
    with pytest.raises(ValueError, match=mismatch):
        make_ensemble(dft, make_basis("identity", 64))


_EYE, _D1 = ("identity", dict(n=64)), ("dft1d", dict(n=64))
_D2, _H2 = ("dft2d", dict(rows=8, cols=8)), ("haar2d", dict(rows=8, cols=8))


@pytest.mark.parametrize(
    "pair",
    [(_EYE, _D1), (_D1, _EYE), (_EYE, _H2), (_EYE, _D2), (_D2, _EYE), (_D2, _H2), (_H2, _D2),
     "custom", "identity-custom"],
    ids=lambda p: p if isinstance(p, str) else f"{p[0][0]}-{p[1][0]}",
)
@pytest.mark.parametrize("real", [True, False])
def test_ensemble_apply_and_adjoint_match_dense(pair, real):
    if pair == "custom":
        e = make_ensemble(make_basis("custom", entries=hadamard_matrix(64) / 8.0), make_basis("dft1d", 64))
    elif pair == "identity-custom":
        # the dense A of a custom factor, as a factor-less ensemble was
        dft = dense_basis(make_basis("dft1d", 64))
        e = make_ensemble(make_basis("identity", 64), make_basis("custom", entries=dft))
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


@pytest.mark.parametrize("a_complex", [False, True])
@pytest.mark.parametrize("x_complex", [False, True])
def test_matvec_rows_in_spans_matches_the_product_row_by_row(a_complex, x_complex):
    # rows of 4096 entries: a x takes a's 44 rows in spans of 32 and 12
    rng = np.random.default_rng(8)
    a = rng.standard_normal((44, 4096)) + (1j * rng.standard_normal((44, 4096)) if a_complex else 0)
    x = rng.standard_normal((5, 4096)) + (1j * rng.standard_normal((5, 4096)) if x_complex else 0)
    r = rng.standard_normal((5, 44)) + (1j * rng.standard_normal((5, 44)) if x_complex else 0)
    for got, ref, rows in ((matvec_rows(a, x), x @ a.T, x), (matvec_rows(a, r, adjoint=True), r @ a.conj(), r)):
        assert got.dtype == ref.dtype and np.max(np.abs(got - ref)) <= 1e-11
        for b in range(len(rows)):
            alone = matvec_rows(a, rows[b : b + 1], adjoint=rows is r)
            assert np.array_equal(alone[0], got[b])


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
    t = SupportSet(np.array([3, 5]))
    assert np.array_equal(t.complement(7), [0, 1, 2, 4, 6])
