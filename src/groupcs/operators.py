"""Orthonormal bases, measurement ensembles, and submatrix utilities.

Matrices are stored dense: the target problem sizes (N up to a few thousand)
make N x N matrices cheap, and dense storage keeps submatrix extraction and
coherence scans trivial.  They are built and verified through their
structure, though.  An identity factor is never multiplied, and a named
basis, or an ensemble of named bases, is checked unitary by the bases' own
fast transforms in O(N^2 log N); only ``custom`` entries take the dense
O(N^3) Gram product.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property, partial

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


def _check_unitary(resid: float, what: str) -> None:
    # written so that a NaN residual fails too
    if not resid <= UNITARITY_TOL:
        raise ValueError(f"{what} is not unitary: residual {resid:.3e}")


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


def _transform(b: OrthonormalBasis, adjoint: bool):
    """Map an N x w block of column vectors to a new array holding E times
    the block, or E^H times it, by the kind's fast transform; None for
    ``custom``, whose only path is the dense product."""
    if b.kind == "identity":
        return np.array
    if b.kind == "dft1d":
        return partial(np.fft.ifft if adjoint else np.fft.fft, axis=0, norm="ortho")
    if b.kind == "dft2d":
        fft2 = np.fft.ifft2 if adjoint else np.fft.fft2
        return lambda x: fft2(x.reshape(*b.shape2d, -1), axes=(0, 1), norm="ortho").reshape(b.n, -1)
    if b.kind == "haar2d":
        return partial(_haar2d_columns, shape2d=b.shape2d, levels=b.levels, inverse=not adjoint)
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


def _haar2d_columns(x: np.ndarray, shape2d, levels: int, inverse: bool) -> np.ndarray:
    """Haar analysis (or synthesis) of each column of x as a row-major image,
    into a new array; with the pixels leading, every step runs over
    contiguous rows of columns."""
    out = np.array(x, dtype=np.result_type(x, np.float64), order="C")
    _haar2d_inplace(out.reshape(*shape2d, -1), levels, inverse)
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
    through the factors' fast transforms, or not at all when A is a factor's
    own, already checked, matrix; when that factor is ``dft1d``, its check
    also settles ``is_dft1d``.  Without factors, or with a ``custom`` one,
    the check is the dense Gram product.  Either way a non-unitary A is
    rejected.
    """

    a: np.ndarray
    mu: float
    n: int
    factors: InitVar[tuple[OrthonormalBasis, OrthonormalBasis] | None] = None

    def __post_init__(self, factors):
        own = [b for b in factors or () if self.a is b.entries]
        if factors is None:
            _check_unitary(unitarity_residual(self.a), "ensemble")
        elif not own:
            v_map, u_map = _transform(factors[0], adjoint=False), _transform(factors[1], adjoint=True)
            adjoint = None if v_map is None or u_map is None else lambda x: u_map(v_map(x))
            _check_unitary(unitarity_residual(self.a, adjoint), "ensemble")
        elif own[0].kind == "dft1d":
            # its own check bounded max|ifft(A) - I|, the is_dft1d test
            self.__dict__["is_dft1d"] = True
        lo = 1.0 / math.sqrt(self.n) - 1e-12
        if not (lo <= self.mu <= 1.0 + 1e-12):
            raise ValueError(f"coherence {self.mu} outside [1/sqrt(N), 1]")
        self.a.setflags(write=False)

    @cached_property
    def is_dft1d(self) -> bool:
        """Whether A is the unitary 1-D DFT to within UNITARITY_TOL, so that
        A v = ``np.fft.fft(v, norm="ortho")``.  Checked by inverse FFTs of
        A's columns unless A is a dft1d factor's own matrix."""
        if not np.iscomplexobj(self.a):
            return False
        for j in range(0, self.n, 64):
            # columns j.. of the DFT are the DFTs of unit vectors
            block = np.fft.ifft(self.a[:, j : j + 64], axis=0, norm="ortho")
            cols = np.arange(block.shape[1])
            block[j + cols, cols] -= 1.0
            if np.max(np.abs(block)) > UNITARITY_TOL:
                return False
        return True


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


def normalize_rows(m: np.ndarray, *, return_zero_mask: bool = False):
    """Scale each nonzero row to unit Euclidean norm; a stack of matrices is
    scaled matrix by matrix.

    Zero rows are left as zero (they contribute nothing to a 2->1 norm); the
    optional mask reports which rows were zero.
    """
    m = np.asarray(m)
    norms = np.linalg.norm(m, axis=-1)
    zero = norms == 0.0
    scaled = m / np.where(zero, 1.0, norms)[..., None]
    if return_zero_mask:
        return scaled, zero
    return scaled
