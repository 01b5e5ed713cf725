"""Orthonormal bases, measurement ensembles, and submatrix utilities.

A named basis (identity, dft1d, dft2d, haar2d) is its kind, shape and fast
transform; it stores no matrix, and ``entries`` forms one from a closed form
only when asked.  ``make_ensemble`` forms one dense N x N array, A = V^H U,
which submatrix extraction reads: an identity factor's partner's closed
form, or two named bases' transforms of unit vectors; only ``custom``
factors are stored and multiplied.  One pass over A's column spans checks
U^H V A = I through the same transforms in O(N^2 log N) and takes the
coherence max |A|; only ``custom`` takes the dense O(N^3) Gram product.
``MeasurementEnsemble.apply``/``adjoint`` map a batch of vectors through
those transforms, one table (``_transform``) for every use.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import partial

import numpy as np

UNITARITY_TOL = 1e-10

BASIS_KINDS = ("identity", "dft1d", "dft2d", "haar2d", "custom")

# A is formed, scanned and checked a span of this many entries at a time, so
# that the temporaries stay a small share of A
_RESIDUAL_ENTRIES = 1 << 16


def unitarity_residual(entries: np.ndarray, adjoint=None) -> tuple[float, float]:
    """(max-abs entry of E^H E - I, max-abs entry of E); the first is NaN
    when E is not finite.

    ``adjoint`` maps an N x w block of E's columns to a new array holding
    E^H times the block, the block's columns of E^H E; the columns are taken
    a span at a time, and so is the max-abs entry of E.  Without it E^H E is
    the dense product.
    """
    n = entries.shape[0]
    if adjoint is None:
        gram = entries.conj().T @ entries
        gram = gram.astype(np.result_type(gram, np.float64), copy=False)
        gram[np.diag_indices(n)] -= 1.0
        return float(np.max(np.abs(gram))), float(np.max(np.abs(entries)))
    width = max(1, _RESIDUAL_ENTRIES // n)
    worst, peak = [], []
    for j in range(0, n, width):
        span = entries[:, j : j + width]
        block = adjoint(span)
        cols = np.arange(block.shape[1])
        block[j + cols, cols] -= 1.0
        worst.append(np.max(np.abs(block)))
        peak.append(np.max(np.abs(span)))
    return float(np.max(worst)), float(np.max(peak))


def _check_unitary(resid: float, what: str, failure: str = "is not unitary") -> None:
    # written so that a NaN residual fails too
    if not resid <= UNITARITY_TOL:
        raise ValueError(f"{what} {failure}: residual {resid:.3e}")


@dataclass(frozen=True)
class OrthonormalBasis:
    """Square unitary matrix whose columns are the basis vectors.

    ``entries`` maps coefficients to samples: x = entries @ c.  For the 2-D
    kinds, vectors are row-major flattenings of ``shape2d`` images.  A
    ``custom`` basis holds its matrix in ``matrix``, checked unitary by the
    dense Gram product; a named kind holds none, and ``entries`` forms its
    matrix anew from the closed form on every call.
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
            _check_unitary(unitarity_residual(self.matrix)[0], "basis")
            self.matrix.setflags(write=False)

    @property
    def entries(self) -> np.ndarray:
        return _matrix(self)

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """x = entries @ c for one coefficient vector, into a new array, by
        the kind's fast transform (the stored matrix for ``custom``)."""
        return self.matrix @ c if self.kind == "custom" else _transform(self, False)(c[:, None])[:, 0]


def _transform(b: OrthonormalBasis, adjoint: bool, axis: int = 0):
    """Map the vectors along ``axis`` of a 2-D array (columns: 0, rows: 1) to
    a new array holding E, or E^H, times each by the kind's fast transform;
    None for ``custom``, whose only path is the dense product."""
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
        return partial(_haar2d_vectors, shape2d=b.shape2d, levels=b.levels, inverse=not adjoint, axis=axis)
    return None


def _chain(steps, axis: int) -> list:
    """The fast transforms along ``axis`` of named bases' (basis, adjoint)
    ``steps`` in the order they apply, identity factors skipped."""
    return [_transform(b, adjoint, axis=axis) for b, adjoint in steps if b.kind != "identity"]


def _run(chain, x: np.ndarray) -> np.ndarray:
    """The transforms of ``chain`` applied to x in turn, into a new array."""
    out = x
    for transform in chain:
        out = transform(out)
    return x.copy() if out is x else out


def _matrix(b: OrthonormalBasis, adjoint: bool = False) -> np.ndarray:
    """b's matrix, or with ``adjoint`` its conjugate transpose, as a new
    array formed from the kind's closed form; a ``custom`` basis returns its
    stored matrix itself, or a copy of its adjoint."""
    if b.kind == "identity":
        return np.eye(b.n)
    if b.kind == "haar2d":
        return _haar2d_matrix(*b.shape2d, b.levels, transpose=adjoint)
    m = b.matrix if b.kind == "custom" else _dft_matrix(b.n) if b.kind == "dft1d" else _dft2d_matrix(*b.shape2d)
    if not adjoint:
        return m
    # a DFT matrix is symmetric, so its adjoint is its conjugate, formed in place
    m = np.conjugate(m.T, order="C") if b.kind == "custom" else np.conjugate(m, out=m)
    m += 0.0  # the product V^H I has +0.0 where conjugation leaves -0.0
    return m


def _dft_matrix(n: int) -> np.ndarray:
    jk = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * jk / n) / math.sqrt(n)


def _dft2d_matrix(rows: int, cols: int) -> np.ndarray:
    # np.kron(F_rows, F_cols), its products written in place: entry
    # (i cols + j, k cols + l) is F_rows[i, k] F_cols[j, l]
    out = np.empty((rows, cols, rows, cols), dtype=np.complex128)
    np.multiply(_dft_matrix(rows)[:, None, :, None], _dft_matrix(cols)[:, None, :], out=out)
    return out.reshape(rows * cols, rows * cols)


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


def _haar2d_vectors(x: np.ndarray, shape2d, levels: int, inverse: bool, axis: int) -> np.ndarray:
    """Haar analysis (or synthesis) of each vector of the 2-D array x along
    ``axis`` as a row-major image, into a new array; with the pixels leading
    (axis 0), every step runs over contiguous rows of columns."""
    out = np.array(x, dtype=np.result_type(x, np.float64), order="C")
    images = out.reshape(x.shape[:axis] + tuple(shape2d) + x.shape[axis + 1 :])
    _haar2d_inplace(np.moveaxis(images, (axis, axis + 1), (0, 1)), levels, inverse)
    return out


def max_haar_levels(rows: int, cols: int) -> int:
    return int(math.log2(min(rows, cols)))


def _haar2d(img: np.ndarray, levels: int | None, inverse: bool) -> np.ndarray:
    rows, cols = img.shape[-2:]
    levels = max_haar_levels(rows, cols) if levels is None else levels
    _check_haar_dims(rows, cols, levels)
    out = np.array(img, dtype=np.result_type(img, np.float64), copy=True)
    _haar2d_inplace(np.moveaxis(out, (-2, -1), (0, 1)), levels, inverse)
    return out


def haar2d_analysis(img: np.ndarray, levels: int | None = None) -> np.ndarray:
    """Multi-level separable 2-D Haar decomposition (approximation at top-left).

    Accepts a batch with the image in the last two axes.
    """
    return _haar2d(img, levels, inverse=False)


def haar2d_synthesis(coeffs: np.ndarray, levels: int | None = None) -> np.ndarray:
    """Inverse of ``haar2d_analysis``, on a batch in the last two axes."""
    return _haar2d(coeffs, levels, inverse=True)


def _check_haar_dims(rows: int, cols: int, levels: int | None):
    if not (_is_pow2(rows) and _is_pow2(cols)):
        raise ValueError(f"Haar dimensions must be powers of two, got {rows}x{cols}")
    if levels is None or levels < 1 or (rows >> levels) < 1 or (cols >> levels) < 1:
        raise ValueError(f"levels={levels} invalid for a {rows}x{cols} grid")


def _haar2d_matrix(rows: int, cols: int, levels: int, transpose: bool = False) -> np.ndarray:
    """The synthesis matrix (its transpose with ``transpose``), row i the
    analysis of pixel i's unit image, scattered from closed form.  Each pass
    meets one nonzero per (even, odd) pair, so each level leaves three
    details and passes one approximation on: 3 levels + 1 nonzeros, of
    magnitude v_d = v_{d-1}/sqrt 2 after d passes (the passes' own division)
    and negative where the pixel's row (or column) at that level is odd."""
    n = rows * cols
    pixel = np.arange(n)
    p, q = np.divmod(pixel, cols)
    coeffs, values, v = [], [], 1.0
    for level in range(levels):
        r, c = rows >> (level + 1), cols >> (level + 1)  # half the level's block
        pr, pc = p >> (level + 1), q >> (level + 1)  # where the approximation goes
        sr, sc = 1 - 2 * ((p >> level) & 1), 1 - 2 * ((q >> level) & 1)
        v = v / math.sqrt(2) / math.sqrt(2)
        coeffs += [pr * cols + c + pc, (r + pr) * cols + pc, (r + pr) * cols + c + pc]
        values += [sc * v, sr * v, sr * sc * v]
    coeffs.append(pr * cols + pc)
    values.append(np.full(n, v))
    coeff, pixels = np.concatenate(coeffs), np.tile(pixel, len(coeffs))
    out = np.zeros((n, n))
    out[(coeff, pixels) if transpose else (pixels, coeff)] = np.concatenate(values)
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
    """Product A = V^H U of a measurement basis V and sparsity basis U.

    ``mu`` is the coherence max |A(i,j)|, which for an N x N orthogonal A
    lies in [1/sqrt(N), 1]; the check that A is unitary takes it.

    ``factors`` is (V, U) when A was built from them, as ``make_ensemble``
    does.  A is then checked by applying A^H = U^H V to its columns through
    the factors' fast transforms, an identity factor skipped; without
    factors, or with a ``custom`` one, the check is the dense Gram product.
    Either way a non-unitary A, or one that is not V^H U, is rejected.
    """

    a: np.ndarray
    n: int
    factors: InitVar[tuple[OrthonormalBasis, OrthonormalBasis] | None] = None
    mu: float = field(init=False)
    # the fast transforms of A x and of A^H x on rows, in order; None: the dense A
    _maps: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self, factors):
        maps = check = None
        if factors is not None and all(b.kind != "custom" for b in factors):
            v, u = factors  # A x = V^H (U x), A^H x = U^H (V x)
            steps = ((u, False), (v, True)), ((v, False), (u, True))
            maps = tuple(_chain(s, axis=1) for s in steps)
            # U^H V A = I exactly when A = V^H U
            check = partial(_run, _chain(steps[1], axis=0))
        resid, mu = unitarity_residual(self.a, check)
        failure = "is not unitary" if check is None else "A does not match its factors V^H U"
        _check_unitary(resid, "ensemble", failure)
        self.a.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "_maps", maps)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for each row x of ``x`` (B x N), into a new array: V^H (U x)
        by the factors' fast transforms, an identity factor skipped, or the
        dense A per row without factors or with a ``custom`` one.  A real A
        maps real rows to real rows."""
        return self._map(x, adjoint=False)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """A^H x = U^H (V x) for each row x of ``x``, as ``apply`` does."""
        return self._map(x, adjoint=True)

    def _map(self, x: np.ndarray, adjoint: bool) -> np.ndarray:
        if self._maps is None:
            return matvec_rows(self.a, x, adjoint=adjoint)
        out = _run(self._maps[adjoint], x)
        real = not (np.iscomplexobj(self.a) or np.iscomplexobj(x))
        return np.ascontiguousarray(out.real) if real else out


def matvec_rows(a: np.ndarray, x: np.ndarray, *, adjoint: bool = False) -> np.ndarray:
    """a x, or a^H x, for each row x of ``x``, into a new array: one
    matrix-vector product per row, so no row depends on the others."""
    if adjoint:
        return np.matmul(x[:, None, :].conj(), a)[:, 0, :].conj()
    return np.matmul(a, x[:, :, None])[:, :, 0]


def make_ensemble(v: OrthonormalBasis, u: OrthonormalBasis) -> MeasurementEnsemble:
    """A = V^H U, formed as one N x N array.  An identity factor is not
    multiplied: A is U's matrix when V is I, and V's adjoint when U is I.
    Two named bases give A's columns by their transforms of unit vectors,
    a span at a time; only a ``custom`` factor takes the dense product."""
    if v.n != u.n:
        raise ValueError(f"dimension mismatch: V is {v.n}, U is {u.n}")
    n, width = v.n, max(1, _RESIDUAL_ENTRIES // v.n)
    if v.kind == "identity":
        a = _matrix(u)
    elif u.kind == "identity":
        a = _matrix(v, adjoint=True)
    elif "custom" in (v.kind, u.kind):
        a = v.entries.conj().T @ u.entries
    else:
        apply = _chain(((u, False), (v, True)), axis=0)
        a = np.empty((n, n), dtype=np.float64 if v.kind == u.kind == "haar2d" else np.complex128)
        for j in range(0, n, width):
            a[:, j : j + width] = _run(apply, np.eye(n, min(width, n - j), -j))
    spans = range(0, n, width)
    if np.iscomplexobj(a) and max(np.max(np.abs(a[i : i + width].imag)) for i in spans) <= 1e-13:
        a = np.ascontiguousarray(a.real)
    return MeasurementEnsemble(a=a, n=n, factors=(v, u))


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

    @classmethod
    def from_indices(cls, indices) -> "SupportSet":
        ix = np.unique(np.asarray(list(indices), dtype=np.int64))
        return cls(ix)

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
    return e.a[np.ix_(rows, t.indices)]


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each nonzero row to unit Euclidean norm; a stack of matrices is
    scaled matrix by matrix.

    Zero rows are left as zero (they contribute nothing to a 2->1 norm).
    """
    m = np.asarray(m)
    norms = np.linalg.norm(m, axis=-1)
    return m / np.where(norms == 0.0, 1.0, norms)[..., None]
