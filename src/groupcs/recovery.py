"""Equality-constrained l1 recovery and the dual-certificate check.

The solver is an alternating-direction splitting of

    min ||c||_1   s.t.   A_omega c = y

into an affine projection step, a complex soft-threshold step, and a dual
update.  Each iteration costs O(MN); the projection uses the fact that rows
of A_omega usually come from a unitary matrix (A A^H = I), with a factorized
fallback for general full-row-rank inputs.  The result is a deterministic
function of the inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .operators import MeasurementEnsemble, SupportSet

_RELAX = 1.8  # over-relaxation; fixed, keeps iterates deterministic
_RHO0 = 10.0


@dataclass
class RecoveryProblem:
    a_omega: np.ndarray
    y: np.ndarray
    tol_feas: float = 1e-8
    tol_obj: float = 1e-6
    max_iters: int = 20000

    def __post_init__(self):
        self.a_omega = np.asarray(self.a_omega)
        self.y = np.asarray(self.y)
        m, n = self.a_omega.shape
        if self.y.shape != (m,):
            raise ValueError(f"y has shape {self.y.shape}, expected ({m},)")
        if m > n:
            raise ValueError(f"more measurements ({m}) than unknowns ({n})")
        if not (np.all(np.isfinite(self.a_omega)) and np.all(np.isfinite(self.y))):
            raise ValueError("non-finite entries in the problem data")
        if not (self.tol_feas > 0 and self.tol_obj > 0 and self.max_iters > 0):
            raise ValueError("tolerances and the iteration budget must be positive")


@dataclass
class RecoveryResult:
    c_hat: np.ndarray
    feas_residual: float
    objective: float
    iterations: int
    converged: bool


def spectral_norm_estimate(a: np.ndarray, y: np.ndarray | None = None, iters: int = 50) -> float:
    """Deterministic power-iteration estimate of ||a||_2."""
    n = a.shape[1]
    v = a.conj().T @ y if y is not None else None
    if v is None or not np.linalg.norm(v) > 0:
        v = np.ones(n, dtype=a.dtype)
    v = v / np.linalg.norm(v)
    est = 1.0
    for _ in range(iters):
        w = a.conj().T @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        est = math.sqrt(nw)
        v = w / nw
    return est


def _soft_threshold(w: np.ndarray, kappa: float) -> np.ndarray:
    a = np.abs(w)
    # divide only where the result survives: kappa / a overflows on denormals
    shrink = np.divide(kappa, a, out=np.ones_like(a), where=a > kappa)
    return w * (1.0 - shrink)


def basis_pursuit(p: RecoveryProblem) -> RecoveryResult:
    a, y = p.a_omega, p.y
    m, n = a.shape
    dtype = np.result_type(a, y, np.float64)
    a = a.astype(dtype, copy=False)
    y = y.astype(dtype, copy=False)

    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0:
        return RecoveryResult(np.zeros(n, dtype=dtype), 0.0, 0.0, 0, True)

    # affine projection onto {c : a c = y}
    aah = a @ a.conj().T
    gram_resid = float(np.max(np.abs(aah - np.eye(m))))
    if gram_resid <= 1e-12:
        solve_gram = None
    else:
        try:
            chol = np.linalg.cholesky(aah)

            def solve_gram(r):
                return np.linalg.solve(chol.conj().T, np.linalg.solve(chol, r))

        except np.linalg.LinAlgError:
            warnings.warn("a_omega is row-rank deficient; using a pseudo-inverse projection")
            pinv = np.linalg.pinv(aah, rcond=1e-12)

            def solve_gram(r):
                return pinv @ r

    def project(v):
        r = a @ v - y
        if solve_gram is not None:
            r = solve_gram(r)
        return v - a.conj().T @ r

    norm_a = spectral_norm_estimate(a, y)
    coeff_scale = float(np.max(np.abs(a.conj().T @ y)))
    rho = _RHO0 * max(norm_a, 1e-12) ** 2 / max(coeff_scale, 1e-300)
    kappa = 1.0 / rho

    stop_tol = min(p.tol_feas, 1e-2 * p.tol_obj)
    z = np.zeros(n, dtype=dtype)
    u = np.zeros(n, dtype=dtype)
    iterations = 0
    converged = False
    for iterations in range(1, p.max_iters + 1):
        c = project(z - u)
        c_relaxed = _RELAX * c + (1.0 - _RELAX) * z
        z_new = _soft_threshold(c_relaxed + u, kappa)
        u = u + c_relaxed - z_new
        step = float(np.linalg.norm(z_new - z))
        split = float(np.linalg.norm(c - z_new))
        z = z_new
        scale = max(float(np.linalg.norm(z)), float(np.linalg.norm(c)), 1e-300)
        if split <= stop_tol * scale and step <= stop_tol * scale:
            converged = True
            break

    c_hat = project(z)  # feasible iterate
    feas = float(np.linalg.norm(a @ c_hat - y)) / y_norm
    objective = float(np.sum(np.abs(c_hat)))
    return RecoveryResult(c_hat, feas, objective, iterations, converged)


def nre(s_true: np.ndarray, s_hat: np.ndarray) -> float:
    """Normalized recovery error ||s_true - s_hat|| / ||s_true||."""
    s_true = np.asarray(s_true)
    s_hat = np.asarray(s_hat)
    if s_true.shape != s_hat.shape:
        raise ValueError("signal length mismatch")
    denom = float(np.linalg.norm(s_true))
    if denom == 0.0:
        raise ValueError("true signal is zero; the error is undefined")
    return float(np.linalg.norm(s_true - s_hat)) / denom


@dataclass
class CertificateReport:
    invertible: bool
    min_singular: float
    pi: np.ndarray | None
    max_offsupport: float
    holds: bool


def cross_gram(a_omega: np.ndarray, t: SupportSet) -> np.ndarray:
    """A_omega^H A_{omega,T}: N x |T|; off-support rows drive the certificate."""
    return a_omega.conj().T @ a_omega[:, t.indices]


def dual_certificate(
    e: MeasurementEnsemble,
    omega,
    t: SupportSet,
    z: np.ndarray,
) -> CertificateReport:
    """Evaluate the l1 dual certificate for support t and sign sequence z.

    The candidate is pi = A_omega^H A_{omega,T} (A_{omega,T}^H A_{omega,T})^{-1} z;
    the certificate holds when the support Gram matrix is invertible, pi
    matches z on the support, and |pi| stays strictly below 1 elsewhere
    (implemented as <= 1 - 1e-9).
    """
    rows = omega.omega if hasattr(omega, "omega") else np.asarray(omega, dtype=np.int64)
    z = np.asarray(z)
    if z.shape != (len(t),):
        raise ValueError("sign sequence length must equal the support size")
    a_om = e.a[rows]
    at = a_om[:, t.indices]
    gram = at.conj().T @ at
    eigs = np.linalg.eigvalsh(gram)
    min_singular = float(eigs[0].real)
    if min_singular <= 1e-10:
        return CertificateReport(False, min_singular, None, math.inf, False)
    coeffs = np.linalg.solve(gram, z.astype(gram.dtype))
    pi = a_om.conj().T @ (at @ coeffs)
    sign_ok = float(np.max(np.abs(pi[t.indices] - z))) <= 1e-8
    comp = t.complement(e.n)
    max_off = float(np.max(np.abs(pi[comp]))) if comp.size else 0.0
    holds = sign_ok and max_off <= 1.0 - 1e-9
    return CertificateReport(True, min_singular, pi, max_off, holds)
