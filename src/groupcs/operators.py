"""Orthonormal bases, measurement ensembles, and submatrix utilities.

Everything here is dense: the target problem sizes (N up to a few thousand)
make N x N matrices cheap, and dense storage keeps submatrix extraction and
coherence scans trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

UNITARITY_TOL = 1e-10

BASIS_KINDS = ("identity", "dft1d", "dft2d", "haar2d", "custom")


def unitarity_residual(entries: np.ndarray) -> float:
    """Max-abs entry of E^H E - I."""
    n = entries.shape[0]
    return float(np.max(np.abs(entries.conj().T @ entries - np.eye(n))))


@dataclass(frozen=True)
class OrthonormalBasis:
    """Square unitary matrix whose columns are the basis vectors.

    ``entries`` maps coefficients to samples: x = entries @ c.  For the 2-D
    kinds, vectors are row-major flattenings of ``shape2d`` images.
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
        resid = unitarity_residual(self.entries)
        if resid > UNITARITY_TOL:
            raise ValueError(f"basis is not unitary: residual {resid:.3e}")
        self.entries.setflags(write=False)


def _dft_matrix(n: int) -> np.ndarray:
    jk = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * jk / n) / math.sqrt(n)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _haar_step(x: np.ndarray, axis: int) -> np.ndarray:
    """One orthonormal averaging/differencing step along ``axis``."""
    x = np.moveaxis(x, axis, -1)
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.concatenate([(even + odd), (even - odd)], axis=-1) / math.sqrt(2)
    return np.moveaxis(out, -1, axis)


def _haar_step_inv(c: np.ndarray, axis: int) -> np.ndarray:
    c = np.moveaxis(c, axis, -1)
    half = c.shape[-1] // 2
    lo, hi = c[..., :half], c[..., half:]
    out = np.empty_like(c)
    out[..., 0::2] = (lo + hi) / math.sqrt(2)
    out[..., 1::2] = (lo - hi) / math.sqrt(2)
    return np.moveaxis(out, -1, axis)


def max_haar_levels(rows: int, cols: int) -> int:
    return int(math.log2(min(rows, cols)))


def haar2d_analysis(img: np.ndarray, levels: int | None = None) -> np.ndarray:
    """Multi-level separable 2-D Haar decomposition (approximation at top-left).

    Accepts a batch with the image in the last two axes.
    """
    rows, cols = img.shape[-2:]
    levels = max_haar_levels(rows, cols) if levels is None else levels
    _check_haar_dims(rows, cols, levels)
    out = np.array(img, dtype=np.result_type(img, np.float64), copy=True)
    r, c = rows, cols
    for _ in range(levels):
        block = out[..., :r, :c]
        block = _haar_step(block, axis=-1)
        block = _haar_step(block, axis=-2)
        out[..., :r, :c] = block
        r //= 2
        c //= 2
    return out


def haar2d_synthesis(coeffs: np.ndarray, levels: int | None = None) -> np.ndarray:
    rows, cols = coeffs.shape[-2:]
    levels = max_haar_levels(rows, cols) if levels is None else levels
    _check_haar_dims(rows, cols, levels)
    out = np.array(coeffs, dtype=np.result_type(coeffs, np.float64), copy=True)
    r, c = rows >> levels, cols >> levels
    for _ in range(levels):
        r *= 2
        c *= 2
        block = out[..., :r, :c]
        block = _haar_step_inv(block, axis=-2)
        block = _haar_step_inv(block, axis=-1)
        out[..., :r, :c] = block
    return out


def _check_haar_dims(rows: int, cols: int, levels: int):
    if not (_is_pow2(rows) and _is_pow2(cols)):
        raise ValueError(f"Haar dimensions must be powers of two, got {rows}x{cols}")
    if levels < 1 or (rows >> levels) < 1 or (cols >> levels) < 1:
        raise ValueError(f"levels={levels} invalid for a {rows}x{cols} grid")


def _haar2d_matrix(rows: int, cols: int, levels: int) -> np.ndarray:
    # Row i of `transformed` is the analysis of the i-th pixel basis image,
    # i.e. column i of the analysis operator W; the synthesis matrix is the
    # (real) transpose of W, which is `transformed` itself.
    n = rows * cols
    eye = np.eye(n).reshape(n, rows, cols)
    transformed = haar2d_analysis(eye, levels).reshape(n, n)
    return np.ascontiguousarray(transformed)


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
    maximal decomposition); ``custom`` takes an explicit unitary ``entries``.
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
        entries = np.asarray(entries)
        if n is None:
            n = entries.shape[0]
        return OrthonormalBasis(n, entries, "custom")
    raise ValueError(f"unknown basis kind {kind!r}")


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Product A = V^H U of a measurement basis V and sparsity basis U.

    ``mu`` is the coherence max |A(i,j)|, which for an N x N orthogonal A
    lies in [1/sqrt(N), 1].
    """

    a: np.ndarray
    mu: float
    n: int

    def __post_init__(self):
        resid = unitarity_residual(self.a)
        if resid > UNITARITY_TOL:
            raise ValueError(f"ensemble is not orthogonal: residual {resid:.3e}")
        lo = 1.0 / math.sqrt(self.n) - 1e-12
        if not (lo <= self.mu <= 1.0 + 1e-12):
            raise ValueError(f"coherence {self.mu} outside [1/sqrt(N), 1]")
        self.a.setflags(write=False)

    @cached_property
    def is_dft1d(self) -> bool:
        """Whether A is the unitary 1-D DFT to within UNITARITY_TOL, so that
        A v = ``np.fft.fft(v, norm="ortho")``."""
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
    if v.n != u.n:
        raise ValueError(f"dimension mismatch: V is {v.n}, U is {u.n}")
    a = v.entries.conj().T @ u.entries
    if np.iscomplexobj(a) and np.max(np.abs(a.imag)) <= 1e-13:
        a = np.ascontiguousarray(a.real)
    mu = float(np.max(np.abs(a)))
    return MeasurementEnsemble(a=a, mu=mu, n=v.n)


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
    """Scale each nonzero row to unit Euclidean norm.

    Zero rows are left as zero (they contribute nothing to a 2->1 norm); the
    optional mask reports which rows were zero.
    """
    m = np.asarray(m)
    norms = np.linalg.norm(m, axis=1)
    zero = norms == 0.0
    scaled = m / np.where(zero, 1.0, norms)[:, None]
    if return_zero_mask:
        return scaled, zero
    return scaled
