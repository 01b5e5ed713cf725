"""Orthonormal bases, measurement ensembles, and submatrix utilities.

A named basis (identity, dft1d, dft2d, haar2d) is its kind, shape and fast
transform; it stores no matrix, and ``_columns`` forms any of its columns,
or its adjoint's, from a closed form; a ``custom`` basis's transform is
one product of its stored matrix per vector.  A ``MeasurementEnsemble`` is
its factors V and U: ``columns`` forms columns of A = V^H U (an identity
factor's partner's closed form, or V^H's transform of U's), which every
reader of A takes, and ``apply``/``adjoint`` run the factors' transforms,
one table (``_transform``) for every use.  No ensemble stores A: one pass
over A's column spans takes max |A|, decides whether A is real and forms
A X for 8 Gaussian probe columns X, and U^H V A X = X checks A = V^H U
(Freivalds' test): O(N^2) entries formed, no check transform per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

UNITARITY_TOL = 1e-10

BASIS_KINDS = ("identity", "dft1d", "dft2d", "haar2d", "custom")

# A is formed and checked a span of this many entries at a time, so that the
# temporaries stay a small share of A
_SPAN_ENTRIES = 1 << 15


def unitarity_residual(columns, n: int, adjoint) -> tuple[float, float, float]:
    """(max-abs entry of E^H (E X) - X for 8 fixed Gaussian probe columns X,
    max-abs entry of E, max-abs imaginary part of E) in one pass over E's
    column spans: ``columns`` maps indices to a new N x w array of those
    columns, ``adjoint`` an N x 8 block, which it may overwrite, to E^H
    times it.  The first is NaN when E is not finite.  Each row of X is
    scaled so that its largest |entry| is 1, so an error e in entry (r, c)
    moves it by |e| max_i |E_ri| >= |e|/sqrt N, as checking every column would."""
    width = max(1, _SPAN_ENTRIES // n)
    probes = np.random.default_rng(0).standard_normal((n, 8))
    probes /= np.max(np.abs(probes), axis=1, keepdims=True)
    ex, peak, imag = 0.0, [], [0.0]
    for j in range(0, n, width):
        span = columns(np.arange(j, min(n, j + width)))
        peak.append(np.max(np.abs(span)))
        if np.iscomplexobj(span):
            imag.append(np.max(np.abs(span.imag)))
        if np.isfinite(peak[-1]):  # an Inf would warn in the product
            ex += span @ probes[j : j + width]
        del span  # before the next span is formed
    mu = float(np.max(peak))
    resid = float(np.max(np.abs(adjoint(ex) - probes))) if math.isfinite(mu) else math.nan
    return resid, mu, float(np.max(imag))


def _check_unitary(resid: float, what: str, failure: str = "is not unitary") -> None:
    # written so that a NaN residual fails too
    if not resid <= UNITARITY_TOL:
        raise ValueError(f"{what} {failure}: residual {resid:.3e}")


@dataclass(frozen=True)
class OrthonormalBasis:
    """Square unitary matrix E whose columns are the basis vectors.

    E maps coefficients to samples: x = E c.  For the 2-D kinds, vectors are
    row-major flattenings of ``shape2d`` images.  A ``custom`` basis holds
    its matrix in ``matrix``, checked unitary on 8 probe columns; a
    named kind holds none, and its columns are formed from the closed form
    (``_columns``).
    """

    n: int
    kind: str
    shape2d: tuple[int, int] | None = None
    levels: int | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("basis dimension must be >= 1")
        if self.kind in ("dft2d", "haar2d"):
            if self.shape2d is None or self.shape2d[0] * self.shape2d[1] != self.n:
                raise ValueError(f"{self.kind} needs a shape2d of n={self.n} pixels")
            if self.kind == "haar2d":
                _check_haar_dims(*self.shape2d, self.levels)
        if (self.matrix is not None) != (self.kind == "custom"):
            raise ValueError("a custom basis, and only a custom one, holds a matrix")
        if self.kind == "custom":
            if self.matrix.shape != (self.n, self.n):
                raise ValueError(f"entries shape {self.matrix.shape} does not match n={self.n}")
            m = self.matrix
            resid = unitarity_residual(partial(np.take, m, axis=1), self.n, partial(np.matmul, m.conj().T))[0]
            _check_unitary(resid, "basis")
            self.matrix.setflags(write=False)

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """x = E c for one coefficient vector, into a new array, by the
        kind's transform."""
        return _transform(self, False)(c[:, None])[:, 0]

    def analyze(self, x: np.ndarray) -> np.ndarray:
        """c = E^H x, the inverse of ``synthesize``, likewise."""
        return _transform(self, True)(x[:, None])[:, 0]

    def __eq__(self, other) -> bool:
        # a custom basis's matrix compares by value
        if not isinstance(other, OrthonormalBasis):
            return NotImplemented
        return (self.n, self.kind, self.shape2d, self.levels) == (
            other.n, other.kind, other.shape2d, other.levels
        ) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        # over the fields ``__eq__`` compares exactly, so equal bases hash equal
        return hash((self.n, self.kind, self.shape2d, self.levels))


def _transform(b: OrthonormalBasis, adjoint: bool, axis: int = 0, own: bool = False):
    """Map the vectors along ``axis`` of a 2-D array (columns: 0, rows: 1) to
    a new array holding E, or E^H, times each by the kind's fast transform
    (``matvec_rows`` for ``custom``).  With ``own`` the array is the
    transform's to overwrite, and the Haar passes run in it."""
    if b.kind == "identity":
        return np.array
    if b.kind == "dft1d":
        return partial(np.fft.ifft if adjoint else np.fft.fft, axis=axis, norm="ortho")
    if b.kind == "dft2d":
        # ``fft2`` less its overhead: one 1-D pass along the image's last axis,
        # then one along its first, in ``fft2``'s own order, bit for bit
        fft, shape2d = partial(np.fft.ifft if adjoint else np.fft.fft, norm="ortho"), tuple(b.shape2d)
        images = lambda x: x.reshape(x.shape[:axis] + shape2d + x.shape[axis + 1 :])
        return lambda x: fft(fft(images(x), axis=axis + 1), axis=axis).reshape(x.shape)
    if b.kind == "haar2d":
        return partial(_haar2d_vectors, shape2d=b.shape2d, levels=b.levels, inverse=not adjoint, axis=axis,
                       copy=not own)
    matvec = partial(matvec_rows, b.matrix, adjoint=adjoint)
    return (lambda x: matvec(x.T).T) if axis == 0 else matvec


def _chain(steps, axis: int, own: bool = False) -> list:
    """The transforms along ``axis`` of the bases' (basis, adjoint)
    ``steps`` in the order they apply, identity factors skipped; each but
    the first (with ``own``, each) owns its input."""
    steps = [(b, adjoint) for b, adjoint in steps if b.kind != "identity"]
    return [_transform(b, adjoint, axis, own or i > 0) for i, (b, adjoint) in enumerate(steps)]


def _run(chain, x: np.ndarray) -> np.ndarray:
    """The transforms of ``chain`` applied to x in turn, into a new array
    unless the chain owns x."""
    out = x
    for transform in chain:
        out = transform(out)
    return out if chain else x.copy()


def _columns(b: OrthonormalBasis, idx: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Columns ``idx`` of b's matrix, or with ``adjoint`` of its conjugate
    transpose, as a new N x |idx| array formed from the kind's closed form
    (gathered from the stored matrix for ``custom``)."""
    if b.kind == "identity":
        out = np.zeros((b.n, len(idx)))
        out[idx, np.arange(len(idx))] = 1.0
        return out
    if b.kind == "haar2d":
        return _haar2d_columns(*b.shape2d, b.levels, idx, adjoint)
    if b.kind == "custom":
        return np.conjugate(b.matrix[idx].T, order="C") + 0.0 if adjoint else b.matrix[:, idx]
    if b.kind == "dft1d":
        out = _dft_columns(b.n, idx)
    else:
        # np.kron(F_rows, F_cols)'s column k cols + l: F_rows[:, k] F_cols[:, l]
        (rows, cols), (k, l) = b.shape2d, np.divmod(idx, b.shape2d[1])
        out = np.multiply(_dft_columns(rows, k)[:, None], _dft_columns(cols, l)).reshape(b.n, len(idx))
    if adjoint:
        # a DFT matrix is symmetric, so its adjoint's columns are the conjugates
        # of its columns, formed in place; the product V^H I has +0.0 where
        # conjugation leaves -0.0
        np.conjugate(out, out=out)
        out += 0.0
    return out


def _dft_columns(n: int, idx: np.ndarray) -> np.ndarray:
    """Columns ``idx`` of the n-point DFT matrix: entry (j, k) is the root
    e^(-2 pi i r/n)/sqrt n at r = jk mod n, gathered from one table of the
    n roots, so that no phase exceeds 2 pi and every entry is exact to
    rounding level."""
    roots = np.exp(-2j * np.pi * np.arange(n) / n) / math.sqrt(n)
    jk = np.outer(np.arange(n), idx)
    jk %= n
    return roots.take(jk)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _haar_pass(block: np.ndarray, tmp: np.ndarray, axis: int, inverse: bool) -> None:
    """One orthonormal averaging/differencing step along ``axis`` of
    ``block``, in place; ``tmp`` is scratch of the block's shape.

    Analysis maps the (even, odd) samples to ((even + odd)/sqrt 2 in the first
    half, (even - odd)/sqrt 2 in the second); synthesis maps the two halves
    back to the even and odd samples the same way.
    """
    x, t = block.swapaxes(0, axis), tmp.swapaxes(0, axis)
    samples = slice(0, None, 2), slice(1, None, 2)
    halves = slice(len(x) // 2), slice(len(x) // 2, None)
    src, dst = (halves, samples) if inverse else (samples, halves)
    np.add(x[src[0]], x[src[1]], out=t[dst[0]])
    np.subtract(x[src[0]], x[src[1]], out=t[dst[1]])
    np.divide(tmp, math.sqrt(2), out=block)


def _haar2d_inplace(out: np.ndarray, levels: int, inverse: bool) -> None:
    """Multi-level separable 2-D Haar analysis (or synthesis), level by level
    in place, of the images whose rows and columns are the first two axes of
    ``out``."""
    tmp = np.empty_like(out)
    sizes = [(len(out) >> level, out.shape[1] >> level) for level in range(levels)]
    for r, c in reversed(sizes) if inverse else sizes:
        for axis in (0, 1) if inverse else (1, 0):
            _haar_pass(out[:r, :c], tmp[:r, :c], axis, inverse)


def _haar2d_vectors(x: np.ndarray, shape2d, levels: int, inverse: bool, axis: int, copy: bool = True) -> np.ndarray:
    """Haar analysis (or synthesis) of each vector of the 2-D array x along
    ``axis`` as a row-major image, into a new array (without ``copy``, in x
    when x is a C-ordered float array); with the pixels leading (axis 0),
    every step runs over contiguous rows of columns."""
    out = (np.array if copy else np.asarray)(x, dtype=np.result_type(x, np.float64), order="C")
    images = out.reshape(x.shape[:axis] + tuple(shape2d) + x.shape[axis + 1 :])
    _haar2d_inplace(np.moveaxis(images, (axis, axis + 1), (0, 1)), levels, inverse)
    return out


def max_haar_levels(rows: int, cols: int) -> int:
    return int(math.log2(min(rows, cols)))


def _check_haar_dims(rows: int, cols: int, levels: int | None):
    if not (_is_pow2(rows) and _is_pow2(cols)):
        raise ValueError(f"Haar dimensions must be powers of two, got {rows}x{cols}")
    if levels is None or levels < 1 or (rows >> levels) < 1 or (cols >> levels) < 1:
        raise ValueError(f"levels={levels} invalid for a {rows}x{cols} grid")


def _haar2d_columns(rows: int, cols: int, levels: int, idx: np.ndarray, adjoint: bool) -> np.ndarray:
    """Columns ``idx`` of the synthesis matrix, or with ``adjoint`` of its
    transpose, scattered into zeros from closed form, bit for bit the
    transforms of unit images.  Level d's details have magnitude
    v_d = v_{d-1}/sqrt 2/sqrt 2 (the passes' own divisions), and the
    approximation that of the last level.

    Column j of the transpose, row j of the synthesis matrix, is pixel j's
    analysis: 3 levels + 1 nonzeros, a detail negative where the pixel's row
    (or column) at that level is odd.  Column j of the synthesis matrix is
    coefficient j's image: the 2^(d+1)-square pixel block at the
    coefficient's offset in its level-d quadrant, negative in the block's
    second half of rows (columns) for a detail of rows (columns)."""
    n, w, v = rows * cols, len(idx), 1.0
    vs = [v := v / math.sqrt(2) / math.sqrt(2) for _ in range(levels)]
    out = np.zeros((n, w))
    if adjoint:
        p, q = np.divmod(idx, cols)
        coeffs, values = [], []
        for level in range(levels):
            r, c = rows >> (level + 1), cols >> (level + 1)  # half the level's block
            pr, pc = p >> (level + 1), q >> (level + 1)  # where the approximation goes
            sr, sc = 1 - 2 * ((p >> level) & 1), 1 - 2 * ((q >> level) & 1)
            coeffs += [pr * cols + c + pc, (r + pr) * cols + pc, (r + pr) * cols + c + pc]
            values += [sc * vs[level], sr * vs[level], sr * sc * vs[level]]
        coeffs.append(pr * cols + pc)
        values.append(np.full(w, vs[-1]))
        out[np.concatenate(coeffs), np.tile(np.arange(w), len(coeffs))] = np.concatenate(values)
        return out
    a, b = np.divmod(idx, cols)
    # each coefficient's level: the deepest whose quadrant (a < rows >> d,
    # b < cols >> d) holds it, d <= log2 rows - bit length of a
    bits = lambda x: np.frexp(x)[1]
    deepest = np.minimum(levels - 1, np.minimum(rows.bit_length() - bits(a), cols.bit_length() - bits(b)) - 1)
    flat = out.reshape(-1)
    for level in np.flatnonzero(np.bincount(deepest)).tolist():
        j = np.flatnonzero(deepest == level)
        r, c, d = rows >> (level + 1), cols >> (level + 1), np.arange(2 << level)
        half = 1 - 2 * (d >> level)  # -1 on the block's second half
        aj, bj = a[j], b[j]
        sr, sc = np.where((aj >= r)[:, None], half, 1), np.where((bj >= c)[:, None], half, 1)
        p, q = ((aj % r) << (level + 1))[:, None] + d, ((bj % c) << (level + 1))[:, None] + d
        flat[(p * (cols * w))[:, :, None] + (q * w + j[:, None])[:, None, :]] = (sr[:, :, None] * sc[:, None, :]) * vs[level]
    return out


def make_basis(
    kind: str,
    n: int | None = None,
    *,
    rows: int | None = None,
    cols: int | None = None,
    levels: int | None = None,
    entries: np.ndarray | None = None,
) -> OrthonormalBasis:
    """Construct a named orthonormal basis.

    ``identity`` and ``dft1d`` need ``n``; ``dft2d`` and ``haar2d`` need
    ``rows``/``cols`` (and Haar optionally ``levels``, defaulting to the
    maximal decomposition); ``custom`` takes an explicit unitary ``entries``,
    which the basis copies.
    """
    kind = kind.lower()
    if kind in ("dft2d", "haar2d"):
        if rows is None or cols is None:
            raise ValueError(f"{kind} requires rows and cols")
        if n is not None and n != rows * cols:
            raise ValueError(f"n={n} inconsistent with {rows}x{cols}")
        if kind == "dft2d":
            return OrthonormalBasis(rows * cols, kind, (rows, cols))
        levels = max_haar_levels(rows, cols) if levels is None else levels
        return OrthonormalBasis(rows * cols, kind, (rows, cols), levels)
    if kind in ("identity", "dft1d"):
        if n is None:
            raise ValueError(f"{kind} requires n")
        return OrthonormalBasis(n, kind)
    if kind == "custom":
        if entries is None:
            raise ValueError("custom requires entries")
        entries = np.array(entries)
        return OrthonormalBasis(entries.shape[0] if n is None else n, "custom", matrix=entries)
    raise ValueError(f"unknown basis kind {kind!r}")


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Product A = V^H U of a measurement basis V and sparsity basis U,
    held as its factors: A is formed a column span at a time, by
    ``columns``, and applied by ``apply``/``adjoint``.

    ``mu`` is the coherence max |A(i,j)|, which for an N x N orthogonal A
    lies in [1/sqrt(N), 1]; ``dtype`` is float64 where A's imaginary part
    is at most 1e-13, else complex128: both come from the pass over A's
    columns that checks A = V^H U on 8 probe columns (``unitarity_residual``).
    """

    v: OrthonormalBasis
    u: OrthonormalBasis
    mu: float = field(init=False)
    dtype: np.dtype = field(init=False)
    # the transforms of A x and of A^H x on rows, in order
    _maps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v, u = self.v, self.u
        steps = ((u, False), (v, True)), ((v, False), (u, True))
        # U^H V A = I exactly when A = V^H U
        check = partial(_run, _chain(steps[1], axis=0, own=True))
        resid, mu, imag = unitarity_residual(self._factor_columns, self.n, check)
        _check_unitary(resid, "ensemble", "A does not match its factors V^H U")
        # |x + iy| rounds to |x| for |y| <= 1e-13, so mu is that of the real A too
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "dtype", np.dtype(np.complex128 if imag > 1e-13 else np.float64))
        object.__setattr__(self, "_maps", tuple(_chain(s, axis=1) for s in steps))

    @property
    def n(self) -> int:
        return self.v.n

    @property
    def a(self) -> np.ndarray:
        """The dense N x N A, formed anew by ``columns`` on every access."""
        return self.columns(np.arange(self.n))

    def columns(self, idx) -> np.ndarray:
        """A[:, idx] as a new N x |idx| array of ``dtype``, from the factors'
        closed forms and transforms, bit for bit the columns of the dense A."""
        out = self._factor_columns(np.asarray(idx, dtype=np.int64))
        return np.ascontiguousarray(out.real) if np.iscomplexobj(out) and self.dtype == np.float64 else out

    def _factor_columns(self, idx: np.ndarray) -> np.ndarray:
        """V^H U[:, idx]: the partner's closed form when a factor is the
        identity, else V^H's transform of U's closed-form columns."""
        v, u = self.v, self.u
        if v.kind == "identity":
            return _columns(u, idx)
        if u.kind == "identity":
            return _columns(v, idx, adjoint=True)
        return _run(_chain(((v, True),), axis=0, own=True), _columns(u, idx))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for each row x of ``x`` (B x N), into a new array: V^H (U x)
        by the factors' transforms, an identity factor skipped.  A real A
        maps real rows to real rows."""
        return self._map(x, adjoint=False)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """A^H x = U^H (V x) for each row x of ``x``, as ``apply`` does."""
        return self._map(x, adjoint=True)

    def _map(self, x: np.ndarray, adjoint: bool) -> np.ndarray:
        out = _run(self._maps[adjoint], x)
        real = self.dtype == np.float64 and not np.iscomplexobj(x)
        return np.ascontiguousarray(out.real) if real else out


def matvec_rows(a: np.ndarray, x: np.ndarray, *, adjoint: bool = False) -> np.ndarray:
    """a x, or a^H x, for each row x of ``x``, into a new array: one
    matrix-vector product per row, so no row depends on the others.

    A real a takes the real and imaginary parts of complex rows in turn, so
    every product runs in BLAS and a is never cast.  a x takes a's rows in
    spans of about 2^17 entries, which every row reuses from cache (a^H x,
    whose spans would be strided, takes all of a): a multiple of 8 rows, so
    that BLAS's gemv splits a span's rows as it splits all of a's."""
    out = np.empty((len(x), a.shape[1] if adjoint else a.shape[0]), dtype=np.result_type(a, x))
    if np.iscomplexobj(x) and not np.iscomplexobj(a):
        parts = (out.real, x.real), (out.imag, x.imag)
    else:
        parts = ((out, x.astype(out.dtype, copy=False)),)
    width = max(8, (1 << 17) // a.shape[1] // 8 * 8)
    for part, rows in parts:
        if adjoint:
            part[:] = np.matmul(rows[:, None, :].conj(), a)[:, 0, :].conj()
        else:
            for j in range(0, len(a), width):
                part[:, j : j + width] = np.matmul(a[j : j + width], rows[:, :, None])[:, :, 0]
    return out


def make_ensemble(v: OrthonormalBasis, u: OrthonormalBasis) -> MeasurementEnsemble:
    """The ensemble A = V^H U of two bases of one dimension."""
    if v.n != u.n:
        raise ValueError(f"dimension mismatch: V is {v.n}, U is {u.n}")
    return MeasurementEnsemble(v, u)


@dataclass(frozen=True)
class SupportSet:
    """Strictly increasing indices of the nonzero coefficients."""

    indices: np.ndarray

    def __post_init__(self):
        ix = np.asarray(self.indices, dtype=np.int64)
        if ix.ndim != 1:
            raise ValueError("support indices must be a 1-D sequence")
        if ix.size and (np.any(np.diff(ix) <= 0) or ix[0] < 0):
            raise ValueError("support indices must be strictly increasing and >= 0")
        object.__setattr__(self, "indices", ix)
        ix.setflags(write=False)

    def __len__(self) -> int:
        return int(self.indices.size)

    def complement(self, n: int) -> np.ndarray:
        mask = np.ones(n, dtype=bool)
        mask[self.indices] = False
        return np.flatnonzero(mask)


def submatrix(e: MeasurementEnsemble, rows, t: SupportSet) -> np.ndarray:
    """Rows of A restricted to ``rows`` and columns restricted to ``t``."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= e.n):
        raise IndexError("row index out of range")
    if len(t) and t.indices.max() >= e.n:
        raise IndexError("support index out of range")
    return e.columns(t.indices)[rows]


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each nonzero row to unit Euclidean norm; a stack of matrices is
    scaled matrix by matrix.

    Zero rows are left as zero (they contribute nothing to a 2->1 norm).
    """
    m = np.asarray(m)
    norms = np.linalg.norm(m, axis=-1)
    return m / np.where(norms == 0.0, 1.0, norms)[..., None]
