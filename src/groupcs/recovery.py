"""Equality-constrained l1 recovery and the dual-certificate check.

The solver is an alternating-direction splitting of

    min ||c||_1   s.t.   A_omega c = y

into an affine projection step, a complex soft-threshold step, and a dual
update.  One loop serves three entry points.  ``basis_pursuit_trials`` solves
a block of sweep trials at once, each measuring a row subset of a unitary
ensemble, so the projection needs no Gram solve; the unitary 1-D DFT is
applied by FFT (O(N log N) per iteration), any other ensemble by its
gathered rows (O(MN)).  ``basis_pursuit_or_descent`` does the same for sweep
verdicts and stops a trial as soon as a proof decides it: the rank rule or
a dual certificate built from the ADMM dual iterate (a success), or a
feasible iterate with a smaller l1 norm than the true coefficients (a
failure).  ``basis_pursuit`` solves one
user-supplied problem and keeps a factorized Gram fallback for rows that
are not orthonormal.  Every result is a deterministic function of its own
trial's inputs.

``proved_recovery`` decides a trial without a solve where a proof does: the
dual certificate proves that the true coefficients are the unique minimizer;
a rank-deficient support submatrix, when the sign pattern has a component in
its null space, proves that they are not a minimizer at all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .operators import MeasurementEnsemble, SupportSet

_RELAX = 1.8  # over-relaxation; fixed, keeps iterates deterministic
_RHO0 = 10.0
_CHECK_EVERY = 8  # iterations between dual-certificate checks on the verdict path

# how a sweep trial is decided: proofs at iteration 0, in the loop, then the error
VERDICT_ROUTES = ("certified", "rank_deficient", "dual", "descent", "solved")


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


def _soft_threshold(w: np.ndarray, kappa) -> np.ndarray:
    """w (1 - kappa / max(|w|, kappa)) for kappa > 0: zero where |w| <= kappa.

    The quotient never exceeds 1, so denormal |w| cannot overflow it.
    """
    shrink = np.abs(w)
    np.maximum(shrink, kappa, out=shrink)
    np.divide(kappa, shrink, out=shrink)
    np.subtract(1.0, shrink, out=shrink)
    return w * shrink


class _MaskedDft:
    """Rows omega_b of the unitary 1-D DFT for a block of trials, as a row mask.

    Measurements are held zero-padded to length N, so A_omega v is the
    masked ``fft(v, norm="ortho")`` and A_omega^H r is ``ifft(r, norm="ortho")``.
    The mask is complex 0/1, which multiplies finite values exactly.  The
    measurements y may be set after construction (None until then).
    """

    solve_gram = None

    def __init__(self, mask: np.ndarray, y: np.ndarray | None = None):
        self.mask, self.y = mask, y

    @classmethod
    def of_rows(cls, omegas: np.ndarray, n: int) -> "_MaskedDft":
        mask = np.zeros((len(omegas), n), dtype=np.complex128)
        mask[np.arange(len(omegas))[:, None], omegas] = 1.0
        return cls(mask)

    def residual(self, v: np.ndarray) -> np.ndarray:
        w = np.fft.fft(v, axis=1, norm="ortho")
        w -= self.y
        w *= self.mask
        return w

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        return np.fft.ifft(r, axis=1, norm="ortho")

    def forward(self, v: np.ndarray) -> np.ndarray:
        w = np.fft.fft(v, axis=1, norm="ortho")
        w *= self.mask
        return w

    def take(self, keep: np.ndarray) -> "_MaskedDft":
        return _MaskedDft(self.mask[keep], None if self.y is None else self.y[keep])


class _GatheredRows:
    """Explicit row blocks A_b (B x m x N) with measurements y (B x m), which
    may be set after construction (None until then).

    ``solve_gram`` applies (A A^H)^{-1} when the rows are not orthonormal;
    only single-problem blocks carry one.
    """

    def __init__(self, rows: np.ndarray, y: np.ndarray | None = None, solve_gram=None):
        self.rows, self.y, self.solve_gram = rows, y, solve_gram

    def forward(self, v: np.ndarray) -> np.ndarray:
        return np.matmul(self.rows, v[:, :, None])[:, :, 0]

    def residual(self, v: np.ndarray) -> np.ndarray:
        r = self.forward(v)
        r -= self.y
        return r

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(self.rows):
            return np.matmul(r.conj()[:, None, :], self.rows)[:, 0, :].conj()
        return np.matmul(r[:, None, :], self.rows)[:, 0, :]

    def take(self, keep: np.ndarray) -> "_GatheredRows":
        y = None if self.y is None else self.y[keep]
        return _GatheredRows(self.rows[keep], y, self.solve_gram)


def _project(op, v: np.ndarray) -> np.ndarray:
    """Row-wise affine projection v - A^H (A A^H)^{-1} (A v - y)."""
    r = op.residual(v)
    if op.solve_gram is not None:
        r = op.solve_gram(r[0])[None]
    d = op.adjoint(r)
    np.subtract(v, d, out=d)
    return d


def _row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, complex entries as (re, im) pairs."""
    x = np.ascontiguousarray(x)
    if np.iscomplexobj(x):
        x = x.view(x.real.dtype)
    return np.sqrt(np.add.reduce(np.square(x), axis=-1))


class _SupportProof:
    """What the verdict proofs need of each trial's support submatrix.

    Per row b, with S = supp(c_b), z = sign(c_b on S) and A_S = A[omega_b, S]:
    ``idx`` holds S and ``sign`` holds z, padded to the largest |S| of the
    block by repeating their first entry; ``ginv`` holds
    G^{-1} = (A_S^H A_S)^{-1}, zero outside the leading |S| x |S| block, so
    the padding carries no weight; ``valid`` marks the rows with
    sigma_min(A_S) > 1e-5, the only rows a certificate can hold for.
    """

    def __init__(self, n, idx, sign, ginv, valid):
        self.n, self.idx, self.sign, self.ginv, self.valid = n, idx, sign, ginv, valid

    @classmethod
    def factor(cls, a: np.ndarray, omegas: np.ndarray, coeffs: np.ndarray):
        """One factorization of A_S per trial, batched over trials of equal
        |S|: a QR without Q, then the singular values of the small triangular
        factor R (and its singular vectors only where the rank is short).

        Returns the proof data and the rank rule per trial: True where A_S is
        numerically rank-deficient (sigma_min <= sigma_max max(m, |S|) eps,
        the default tolerance of ``matrix_rank``) and z has a component in its
        null space (norm above 1e-8 ||z||).  Then c_b is not an l1 minimizer.
        """
        b, m = omegas.shape
        nonzero = coeffs != 0
        sizes = np.count_nonzero(nonzero, axis=1)
        kmax = int(sizes.max(initial=0))
        idx = np.zeros((b, kmax), dtype=np.int64)
        sign = np.zeros((b, kmax), dtype=np.result_type(coeffs, np.float64))
        ginv = np.zeros((b, kmax, kmax), dtype=np.result_type(a, coeffs, np.float64))
        valid = np.zeros(b, dtype=bool)
        refuted = np.zeros(b, dtype=bool)
        for k in np.unique(sizes[sizes > 0]):
            rows = np.flatnonzero(sizes == k)
            s = np.nonzero(nonzero[rows])[1].reshape(len(rows), k)
            z = np.take_along_axis(coeffs[rows], s, axis=1)
            z = z / np.abs(z)
            idx[rows] = s[:, :1]
            sign[rows] = z[:, :1]
            idx[rows, :k], sign[rows, :k] = s, z
            # A_S = Q R, so R has the singular values and G = R^H R
            r = np.linalg.qr(a[omegas[rows][:, :, None], s[:, None, :]], mode="r")
            sv = np.linalg.svd(r, compute_uv=False)
            rank = np.sum(sv > sv[:, :1] * max(m, k) * np.finfo(np.float64).eps, axis=1)
            low = np.flatnonzero(rank < k)
            if low.size:
                _, _, vh = np.linalg.svd(r[low], full_matrices=True)  # vh is k x k
                z_rot = np.matmul(vh, z[low, :, None])[:, :, 0]
                null_part = _row_norm(np.where(np.arange(k) >= rank[low, None], z_rot, 0))
                refuted[rows[low]] = null_part > 1e-8 * math.sqrt(k)
            if m < k:
                continue
            good = sv[:, -1] > 1e-5
            r_inv = np.linalg.inv(r[good])
            ginv[rows[good], :k, :k] = np.matmul(r_inv, r_inv.conj().transpose(0, 2, 1))
            valid[rows[good]] = True
        return cls(coeffs.shape[1], idx, sign, ginv, valid), refuted

    def take(self, keep: np.ndarray) -> "_SupportProof":
        return _SupportProof(
            self.n, self.idx[keep], self.sign[keep], self.ginv[keep], self.valid[keep]
        )

    def holds(self, op, pi: np.ndarray | None = None) -> np.ndarray:
        """Whether the dual candidate pi (None: zero) yields a certificate.

        pi is moved into the row space, pi_1 = A^H A pi, and corrected on S,
        pi_2 = pi_1 + A^H A_S q = A^H (A pi + A_S q) with
        q = G^{-1} (z - pi_1 on S), so that pi_2 = z on S.  The certificate
        holds where |pi_2 - z| <= 1e-8 on S and |pi_2| <= 1 - 1e-9 off S,
        the tolerances of ``dual_certificate``; then c is the unique l1
        minimizer.  With pi = 0, pi_2 is the least-squares certificate
        A^H A_S G^{-1} z.
        """
        if not self.valid.any():
            return self.valid.copy()
        row = np.arange(len(self.idx))[:, None]
        step = self.sign
        if pi is not None:
            r = op.forward(pi)
            step = step - op.adjoint(r)[row, self.idx]
        v = np.zeros((len(self.idx), self.n), dtype=np.result_type(step, self.ginv))
        np.add.at(v, (row, self.idx), np.matmul(self.ginv, step[:, :, None])[:, :, 0])
        w = op.forward(v)
        if pi is not None:
            w += r
        p = op.adjoint(w)
        on = np.max(np.abs(p[row, self.idx] - self.sign), axis=1)
        p[row, self.idx] = 0.0
        off = np.max(np.abs(p), axis=1)
        return self.valid & (on <= 1e-8) & (off <= 1.0 - 1e-9)


_DESCENT, _CERTIFIED = 1, 2  # how _admm stopped a row early


def _admm(
    op, kappa: np.ndarray, stop_tol: float, max_iters: int, z: np.ndarray, floor=None, proof=None
):
    """Iterate every row of the block from z (zeros) until it passes the stop
    test; a stopped row is frozen and removed from the block.

    With ``floor`` (one l1 norm per row), a row that has not converged also
    stops on descent: when its feasible projection x = c of this iteration
    has ||x||_1 + sqrt(N) ||A x - y||_2 < floor.  Then x - A^H (A x - y),
    which meets the constraints exactly (the rows of A are orthonormal), has
    an l1 norm below the floor.  The residual is computed for the rows with
    ||x||_1 < floor only.  Such a row returns x in place of z.

    With ``proof`` (a ``_SupportProof``), every ``_CHECK_EVERY``-th iteration
    also tests the scaled dual iterate u / kappa, which lies in the unit
    ball, as a certificate candidate; a row it certifies stops, whatever the
    other tests say.

    Returns the final z, the iteration count, the convergence flag and the
    early stop per row (0, ``_DESCENT`` or ``_CERTIFIED``).  Every operation
    acts row by row, so a row's iterates do not depend on the other rows of
    the block.
    """
    z_out = np.empty_like(z)
    iterations = np.full(len(z), max_iters)
    converged = np.zeros(len(z), dtype=bool)
    early = np.zeros(len(z), dtype=np.int8)
    live = np.arange(len(z))
    u = np.zeros_like(z)
    root_n = math.sqrt(z.shape[1])
    # z_new - z (step), c - z_new (split), z_new and c, normed in one reduction
    terms = np.empty((4,) + z.shape, dtype=z.dtype)
    for it in range(1, max_iters + 1):
        c = _project(op, z - u)
        c_relaxed = _RELAX * c
        c_relaxed += (1.0 - _RELAX) * z
        z_new = _soft_threshold(c_relaxed + u, kappa)
        u += c_relaxed
        u -= z_new
        np.subtract(z_new, z, out=terms[0])
        np.subtract(c, z_new, out=terms[1])
        terms[2] = z_new
        terms[3] = c
        step, split, z_norm, c_norm = _row_norm(terms)
        z = z_new
        tol = stop_tol * np.maximum(np.maximum(z_norm, c_norm), 1e-300)
        done = np.maximum(split, step) <= tol
        fell = np.zeros_like(done)
        if floor is not None:
            l1 = np.add.reduce(np.abs(c), axis=1)
            below = (l1 < floor) & ~done
            if below.any():
                r_norm = _row_norm(op.take(below).residual(c[below]))
                fell[below] = l1[below] + root_n * r_norm < floor[below]
        proved = np.zeros_like(done)
        if proof is not None and it % _CHECK_EVERY == 0:
            proved = proof.holds(op, u / kappa)
            fell &= ~proved
        stop = done | fell | proved
        if stop.any():
            z_out[live[stop]] = z[stop]
            z_out[live[fell]] = c[fell]
            iterations[live[stop]] = it
            converged[live[done]] = True
            early[live[fell]] = _DESCENT
            early[live[proved]] = _CERTIFIED
            keep = ~stop
            live, z, u, kappa = live[keep], z[keep], u[keep], kappa[keep]
            if floor is not None:
                floor = floor[keep]
            if proof is not None:
                proof = proof.take(keep)
            if live.size == 0:
                break
            op = op.take(keep)
            terms = terms[:, keep]
    z_out[live] = z
    return z_out, iterations, converged, early


def _solve(
    op, norm_a: float, tol_feas: float, tol_obj: float, max_iters: int, floor=None, proof=None
) -> tuple[list[RecoveryResult], np.ndarray]:
    """Basis pursuit for every row of a block: y_b = A_b c_b, min ||c_b||_1.

    Returns the results and the early stop per row (see ``_admm``); a row
    stopped by descent reports the exactly feasible point x - A^H (A x - y).
    """
    y_norm = _row_norm(op.y)
    backprojection = op.adjoint(op.y)
    coeff_scale = np.max(np.abs(backprojection), axis=1)
    rho = _RHO0 * max(norm_a, 1e-12) ** 2 / np.maximum(coeff_scale, 1e-300)
    # kappa > 0 keeps the soft-threshold quotient defined
    kappa = np.maximum(1.0 / rho, np.finfo(np.float64).tiny)[:, None]
    stop_tol = min(tol_feas, 1e-2 * tol_obj)
    # a zero measurement vector has the zero solution: no iterations
    z = np.zeros_like(backprojection)
    iterations = np.zeros(len(z), dtype=np.int64)
    converged = np.ones(len(z), dtype=bool)
    early = np.zeros(len(z), dtype=np.int8)
    live = y_norm > 0.0
    if live.any():
        block = op if live.all() else op.take(live)
        z[live], iterations[live], converged[live], early[live] = _admm(
            block, kappa[live], stop_tol, max_iters, z[live],
            None if floor is None else floor[live],
            None if proof is None else proof.take(live),
        )
    c_hat = _project(op, z)  # feasible iterates
    feas = np.divide(
        _row_norm(op.residual(c_hat)), y_norm, out=np.zeros_like(y_norm), where=live
    )
    objective = np.sum(np.abs(c_hat), axis=1)
    results = [
        RecoveryResult(c, float(f), float(o), int(i), bool(ok))
        for c, f, o, i, ok in zip(c_hat, feas, objective, iterations, converged)
    ]
    return results, early


def basis_pursuit(p: RecoveryProblem) -> RecoveryResult:
    a, y = p.a_omega, p.y
    m, n = a.shape
    dtype = np.result_type(a, y, np.float64)
    a = a.astype(dtype, copy=False)
    y = y.astype(dtype, copy=False)

    if float(np.linalg.norm(y)) == 0.0:
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

    op = _GatheredRows(a[None], y[None], solve_gram)
    results, _ = _solve(op, spectral_norm_estimate(a, y), p.tol_feas, p.tol_obj, p.max_iters)
    return results[0]


# a block of gathered rows holds at most this many matrix entries, or one trial's rows
_GATHER_ENTRIES = 1 << 20


def basis_pursuit_trials(
    e: MeasurementEnsemble,
    omegas: np.ndarray,
    coeffs: np.ndarray,
    *,
    tol_feas: float = 1e-8,
    tol_obj: float = 1e-6,
    max_iters: int = 20000,
) -> list[RecoveryResult]:
    """Recover a block of trials in one ADMM: trial b measures y_b = A[omega_b] c_b
    and solves min ||c||_1 s.t. A[omega_b] c = y_b.

    ``omegas`` (B x m) holds distinct row indices per trial and ``coeffs``
    (B x N) the true coefficients.  Rows of the unitary A are orthonormal, so
    the projection needs no Gram solve and ||A[omega_b]|| = 1; each trial
    gets the step size, stop test and final projection of ``basis_pursuit``.
    The unitary 1-D DFT is applied by FFT with a row mask; any other
    ensemble by its gathered rows, at most 2^20 entries per block.  A trial's
    result does not depend on the other trials of the block.
    """
    return _trials(e, omegas, coeffs, (tol_feas, tol_obj, max_iters), verdicts=False)[0]


def basis_pursuit_or_descent(
    e: MeasurementEnsemble,
    omegas: np.ndarray,
    coeffs: np.ndarray,
    *,
    tol_feas: float = 1e-8,
    tol_obj: float = 1e-6,
    max_iters: int = 20000,
) -> tuple[list[RecoveryResult | None], np.ndarray]:
    """``basis_pursuit_trials`` for sweep verdicts: a trial stops as soon as a
    proof decides whether its true coefficients c_b are the unique l1
    minimizer.  With S = supp(c_b) and z = sign(c_b on S), the route of each
    trial, one of ``VERDICT_ROUTES``, is checked in this order:

    - "rank_deficient", a failure, before any solve: A[omega_b, S] is
      numerically rank-deficient (the tolerance of ``matrix_rank``) and z has
      a component in its null space, so no minimizer equals c_b.
    - "certified", a success at iteration 0: the least-squares dual
      certificate holds (the checks and tolerances of ``dual_certificate``).
    - "dual", a success at a later iteration: every ``_CHECK_EVERY``-th
      iteration the scaled dual iterate, moved into the row space and
      corrected on S, is tested as a certificate with the same tolerances.
    - "descent", a failure: a point that meets the constraints exactly has
      l1 norm below (1 - 1e-9) ||c_b||_1.  It is the feasible projection x
      of an iterate with ||x||_1 + sqrt(N) ||A[omega_b] x - y_b||_2 below
      that floor, corrected to x - A[omega_b]^H (A[omega_b] x - y_b).  The
      residual term bounds the l1 norm of the correction, so rounding in x
      cannot forge the proof.
    - "solved": the solve ran to convergence or ``max_iters``.

    One factorization of A[omega_b, S] per trial (a QR and the singular
    values of its R) serves the rank rule and every certificate test, which
    keeps only (A_S^H A_S)^{-1} per trial.  Returns
    the results and the route per trial.  A trial decided at iteration 0 has
    no result (None); a "dual" or "descent" trial reports the iterate and
    iteration of its proof (the corrected point for descent); a "solved"
    trial's result is bit-identical to ``basis_pursuit_trials``.
    """
    return _trials(e, omegas, coeffs, (tol_feas, tol_obj, max_iters), verdicts=True)


def _trials(e, omegas, coeffs, opts, verdicts: bool):
    omegas = np.asarray(omegas, dtype=np.int64)
    coeffs = np.asarray(coeffs)
    dtype = np.complex128 if e.is_dft1d else np.result_type(e.a, coeffs, np.float64)
    coeffs = coeffs.astype(dtype, copy=False)
    results = [None] * len(coeffs)
    route = np.full(len(coeffs), "solved", dtype=object)
    todo, floor, proof = np.arange(len(coeffs)), None, None
    if verdicts:
        floor = (1.0 - 1e-9) * np.sum(np.abs(coeffs), axis=1)
        proof, refuted = _SupportProof.factor(e.a, omegas, coeffs)
        route[refuted] = "rank_deficient"
        todo = np.flatnonzero(~refuted)
    if e.is_dft1d:
        blocks = [todo]
    else:
        per_block = max(1, _GATHER_ENTRIES // max(1, omegas.shape[1] * e.n))
        blocks = [todo[s : s + per_block] for s in range(0, len(todo), per_block)]
    for block in blocks:
        if e.is_dft1d:
            op = _MaskedDft.of_rows(omegas[block], e.n)
        else:
            op = _GatheredRows(e.a[omegas[block]])
        sub = None
        if proof is not None and block.size:
            # iteration 0: with u = 0 the check is the least-squares certificate
            sub = proof.take(block)
            certified = sub.holds(op)
            route[block[certified]] = "certified"
            if certified.any():
                keep = ~certified
                block, op, sub = block[keep], op.take(keep), sub.take(keep)
        if block.size:
            # measured only now: a trial certified at iteration 0 needs no y
            op.y = op.forward(coeffs[block])
            res, early = _solve(op, 1.0, *opts, None if floor is None else floor[block], sub)
            route[block[early == _DESCENT]] = "descent"
            route[block[early == _CERTIFIED]] = "dual"
            for i, r in zip(block, res):
                results[i] = r
        del op  # before the next block gathers its rows: one block in memory at a time
    return results, route.astype(str)


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
    min_singular: float  # smallest singular value of A_{omega,T}
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
    # the Gram matrix's smallest eigenvalue is the square of A_{omega,T}'s
    min_singular = math.sqrt(max(float(np.linalg.eigvalsh(gram)[0]), 0.0))
    if min_singular <= 1e-5:
        return CertificateReport(False, min_singular, None, math.inf, False)
    coeffs = np.linalg.solve(gram, z.astype(gram.dtype))
    pi = a_om.conj().T @ (at @ coeffs)
    sign_ok = float(np.max(np.abs(pi[t.indices] - z))) <= 1e-8
    comp = t.complement(e.n)
    max_off = float(np.max(np.abs(pi[comp]))) if comp.size else 0.0
    holds = sign_ok and max_off <= 1.0 - 1e-9
    return CertificateReport(True, min_singular, pi, max_off, holds)


def proved_recovery(e: MeasurementEnsemble, omega, c: np.ndarray) -> bool | None:
    """Decide without a solve whether c is the unique l1 minimizer given the
    rows ``omega``, when a proof does; None when neither proof applies.  This
    is the one-trial reference of the sweep's rank rule and iteration-0
    certificate in ``basis_pursuit_or_descent``.

    With S = supp(c) and z = sign(c_S), checked in this order:

    - False when A_{omega,S} is numerically rank-deficient (sigma_min <=
      sigma_max * max(m, |S|) * eps, the default tolerance of ``matrix_rank``)
      and z has a component in its null space (norm above 1e-8 ||z||).  Then
      no dual vector matches z on S, so c is not an l1 minimizer: along that
      component h, c + t h is feasible and ||c + t h||_1 < ||c||_1 for a
      small t of the right sign.  When z lies in the row space, c may still
      be one of many minimizers, which the solver can return, so the trial
      is left undecided.
    - True when ``dual_certificate(e, omega, S, z)`` holds: c is the unique
      minimizer.
    """
    rows = np.asarray(omega, dtype=np.int64)
    s = np.flatnonzero(c)
    if s.size == 0:
        return None
    z = c[s] / np.abs(c[s])
    at = e.a[np.ix_(rows, s)]
    # projection of z onto the row space of A_{omega,S}, truncated at the
    # same tolerance as the rank
    row_part, _, rank, _ = np.linalg.lstsq(at, at @ z, rcond=None)
    if rank < s.size:
        if np.linalg.norm(z - row_part) > 1e-8 * np.linalg.norm(z):
            return False
        return None
    return True if dual_certificate(e, rows, SupportSet(s), z).holds else None
