"""Orthonormal bases, measurement ensembles, and submatrix utilities.

Matrices are stored dense: the target problem sizes (N up to a few thousand)
make N x N matrices cheap, and dense storage keeps submatrix extraction and
coherence scans trivial.  They are built, verified and applied through their
structure, though.  An identity factor is never multiplied, and a named
basis, or an ensemble of named bases, is checked unitary by the bases' own
fast transforms in O(N^2 log N); only ``custom`` entries take the dense
O(N^3) Gram product.  ``MeasurementEnsemble.apply``/``adjoint`` map a batch
of vectors through the same transforms, one table (``_transform``) for both.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import partial

import numpy as np

UNITARITY_TOL = 1e-10

BASIS_KINDS = ("identity", "dft1d", "dft2d", "haar2d", "custom")

# a fast residual transforms its matrix's columns a span of this many entries
# at a time
_RESIDUAL_ENTRIES = 1 << 18


def unitarity_residual(entries: np.ndarray, adjoint=None) -> float:
    """Max-abs entry of E^H E - I, or NaN when E is not finite.

    ``adjoint`` maps an N x w block of E's columns to a new array holding
    E^H times the block, the block's columns of E^H E; the columns are taken
    a span at a time.  Without it E^H E is the dense product.
    """
    n = entries.shape[0]
    if adjoint is None:
        gram = entries.conj().T @ entries
        gram = gram.astype(np.result_type(gram, np.float64), copy=False)
        gram[np.diag_indices(n)] -= 1.0
        return float(np.max(np.abs(gram)))
    width = max(1, _RESIDUAL_ENTRIES // n)
    worst = []
    for j in range(0, n, width):
        block = adjoint(entries[:, j : j + width])
        cols = np.arange(block.shape[1])
        block[j + cols, cols] -= 1.0
        worst.append(np.max(np.abs(block)))
    return float(np.max(worst))


def _check_unitary(resid: float, what: str, failure: str = "is not unitary") -> None:
    # written so that a NaN residual fails too
    if not resid <= UNITARITY_TOL:
        raise ValueError(f"{what} {failure}: residual {resid:.3e}")


@dataclass(frozen=True)
class OrthonormalBasis:
    """Square unitary matrix whose columns are the basis vectors.

    ``entries`` maps coefficients to samples: x = entries @ c.  For the 2-D
    kinds, vectors are row-major flattenings of ``shape2d`` images.  The
    entries are checked unitary through the kind's fast transform (the
    dense Gram for ``custom``); an ``identity`` basis must hold exactly I.
    """

    n: int
    entries: np.ndarray
    kind: str
    shape2d: tuple[int, int] | None = None
    levels: int | None = None

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("basis dimension must be >= 1")
        if self.entries.shape != (self.n, self.n):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match n={self.n}"
            )
        if self.kind in ("dft2d", "haar2d"):
            if self.shape2d is None or self.shape2d[0] * self.shape2d[1] != self.n:
                raise ValueError(f"{self.kind} needs a shape2d of n={self.n} pixels")
            if self.kind == "haar2d":
                _check_haar_dims(*self.shape2d, self.levels)
        if self.kind == "identity":
            # I is exactly unitary; make_ensemble relies on it being exactly I
            if not (
                np.count_nonzero(self.entries) == self.n
                and np.all(np.diagonal(self.entries) == 1)
            ):
                raise ValueError("identity basis entries are not the identity matrix")
        else:
            _check_unitary(unitarity_residual(self.entries, _transform(self, adjoint=True)), "basis")
        self.entries.setflags(write=False)


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


def _dft_matrix(n: int) -> np.ndarray:
    jk = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * jk / n) / math.sqrt(n)


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


def _haar2d_matrix(rows: int, cols: int, levels: int) -> np.ndarray:
    # Row i is the analysis of the i-th pixel basis image, i.e. column i of
    # the analysis operator W; the synthesis matrix is the (real) transpose
    # of W, which is this matrix itself.  The unit images are transformed
    # where they lie.
    n = rows * cols
    eye = np.eye(n)
    _haar2d_inplace(eye.reshape(n, rows, cols).transpose(1, 2, 0), levels, inverse=False)
    return eye


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
        n = rows * cols
    if kind == "identity":
        if n is None:
            raise ValueError("identity requires n")
        return OrthonormalBasis(n, np.eye(n), "identity")
    if kind == "dft1d":
        if n is None:
            raise ValueError("dft1d requires n")
        return OrthonormalBasis(n, _dft_matrix(n), "dft1d")
    if kind == "dft2d":
        m = np.kron(_dft_matrix(rows), _dft_matrix(cols))
        return OrthonormalBasis(n, m, "dft2d", shape2d=(rows, cols))
    if kind == "haar2d":
        levels = max_haar_levels(rows, cols) if levels is None else levels
        _check_haar_dims(rows, cols, levels)
        m = _haar2d_matrix(rows, cols, levels)
        return OrthonormalBasis(n, m, "haar2d", shape2d=(rows, cols), levels=levels)
    if kind == "custom":
        if entries is None:
            raise ValueError("custom requires entries")
        entries = np.array(entries)
        if n is None:
            n = entries.shape[0]
        return OrthonormalBasis(n, entries, "custom")
    raise ValueError(f"unknown basis kind {kind!r}")


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Product A = V^H U of a measurement basis V and sparsity basis U.

    ``mu`` is the coherence max |A(i,j)|, which for an N x N orthogonal A
    lies in [1/sqrt(N), 1].

    ``factors`` is (V, U) when A was built from them, as ``make_ensemble``
    does.  A is then checked unitary by applying A^H = U^H V to its columns
    through the factors' fast transforms, or not at all when V is the
    identity and A is U's own, already checked, matrix.  Without factors, or
    with a ``custom`` one, the check is the dense Gram product.  Either way
    a non-unitary A, or one that is not V^H U, is rejected.
    """

    a: np.ndarray
    mu: float
    n: int
    factors: InitVar[tuple[OrthonormalBasis, OrthonormalBasis] | None] = None
    # the fast transforms of A x and of A^H x on rows, in order; None: the dense A
    _maps: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self, factors):
        if factors is None:
            _check_unitary(unitarity_residual(self.a), "ensemble")
        elif not (factors[0].kind == "identity" and self.a is factors[1].entries):
            v_map, u_map = _transform(factors[0], adjoint=False), _transform(factors[1], adjoint=True)
            adjoint = None if v_map is None or u_map is None else lambda x: u_map(v_map(x))
            # U^H V A = I exactly when A = V^H U
            failure = "is not unitary" if adjoint is None else "A does not match its factors V^H U"
            _check_unitary(unitarity_residual(self.a, adjoint), "ensemble", failure)
        lo = 1.0 / math.sqrt(self.n) - 1e-12
        if not (lo <= self.mu <= 1.0 + 1e-12):
            raise ValueError(f"coherence {self.mu} outside [1/sqrt(N), 1]")
        self.a.setflags(write=False)
        maps = None
        if factors is not None and all(b.kind != "custom" for b in factors):
            v, u = factors  # A x = V^H (U x), A^H x = U^H (V x)
            maps = tuple([_transform(b, inv, axis=1) for b, inv in steps if b.kind != "identity"]
                         for steps in (((u, False), (v, True)), ((v, False), (u, True))))
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
        out = x
        for transform in self._maps[adjoint]:
            out = transform(out)
        if not (np.iscomplexobj(self.a) or np.iscomplexobj(x)):
            out = np.ascontiguousarray(out.real)
        return x.copy() if out is x else out


def matvec_rows(a: np.ndarray, x: np.ndarray, *, adjoint: bool = False) -> np.ndarray:
    """a x, or a^H x, for each row x of ``x``, into a new array: one
    matrix-vector product per row, so no row depends on the others."""
    if adjoint:
        return np.matmul(x[:, None, :].conj(), a)[:, 0, :].conj()
    return np.matmul(a, x[:, :, None])[:, :, 0]


def make_ensemble(v: OrthonormalBasis, u: OrthonormalBasis) -> MeasurementEnsemble:
    """A = V^H U.  An identity factor is not multiplied: A is U's own matrix
    when V is I, and the conjugate transpose of V when U is I."""
    if v.n != u.n:
        raise ValueError(f"dimension mismatch: V is {v.n}, U is {u.n}")
    if v.kind == "identity":
        a = u.entries
    elif u.kind == "identity":
        a = np.conjugate(v.entries.T, order="C")
        # the product V^H I has +0.0 where conjugation leaves -0.0
        a += 0.0
    else:
        a = v.entries.conj().T @ u.entries
    if np.iscomplexobj(a) and np.max(np.abs(a.imag)) <= 1e-13:
        a = np.ascontiguousarray(a.real)
    mu = float(np.max(np.abs(a)))
    return MeasurementEnsemble(a=a, mu=mu, n=v.n, factors=(v, u))


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
