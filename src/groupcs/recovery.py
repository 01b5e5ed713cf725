"""Equality-constrained l1 recovery of trials that measure rows of a unitary
ensemble.

The solver is an alternating-direction splitting of

    min ||c||_1   s.t.   A_omega c = y

into an affine projection step, a complex soft-threshold step, and a dual
update.  Every problem measures orthonormal rows, as any rows of a unitary A
are, so the projection needs no Gram solve and ||A_omega|| = 1.  One step
over the live rows of a block serves every entry point.  ``TrialPool`` is a
continuously refilled block of trials; the unitary 1-D DFT is applied by FFT
(O(N log N) per iteration), any other ensemble by its gathered rows (O(MN)).
Trials join it between runs of ``_CHECK_EVERY`` iterations and leave when
they stop.  With verdicts it stops a trial as soon as a proof decides it: the
rank rule or a dual certificate built from the ADMM dual iterate (a success),
or a feasible iterate with a smaller l1 norm than the true coefficients (a
failure).  ``solve_trials`` submits one block of trials to a pool;
``basis_pursuit`` solves one user-supplied problem as a block of one gathered
row set.  ``SolverOptions`` holds the settings of all of them.  Every result
is a deterministic function of its own trial's inputs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .operators import MeasurementEnsemble

_RELAX = 1.8  # over-relaxation; fixed, keeps iterates deterministic
_RHO0 = 10.0
_CHECK_EVERY = 8  # iterations between dual-certificate checks on the verdict path

# how a sweep trial is decided: proofs at iteration 0, in the loop, then the error
VERDICT_ROUTES = ("certified", "rank_deficient", "dual", "descent", "solved")


@dataclass(frozen=True)
class SolverOptions:
    """The ADMM's settings: a trial converges when the norms of its last step
    and of its split residual are at most ``tol_feas`` times the larger of
    its iterates' norms, and stops after ``max_iters`` iterations."""

    tol_feas: float = 1e-8
    max_iters: int = 20000

    def __post_init__(self):
        if not (math.isfinite(self.tol_feas) and self.tol_feas > 0):
            raise ValueError(f"tol_feas must be a finite positive number, got {self.tol_feas!r}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters!r}")


@dataclass
class RecoveryResult:
    c_hat: np.ndarray
    feas_residual: float
    objective: float
    iterations: int
    converged: bool


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

    def __getitem__(self, keep) -> "_MaskedDft":
        return _MaskedDft(self.mask[keep], None if self.y is None else self.y[keep])

    def join(self, other: "_MaskedDft") -> "_MaskedDft":
        return _MaskedDft(
            np.concatenate((self.mask, other.mask)), np.concatenate((self.y, other.y))
        )


class _GatheredRows:
    """Explicit row blocks A_b (B x m x N) with measurements y (B x m), which
    may be set after construction (None until then)."""

    def __init__(self, rows: np.ndarray, y: np.ndarray | None = None):
        self.rows, self.y = rows, y

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

    def __getitem__(self, keep) -> "_GatheredRows":
        return _GatheredRows(self.rows[keep], None if self.y is None else self.y[keep])

    def join(self, other: "_GatheredRows") -> "_GatheredRows":  # rows of one m
        return _GatheredRows(
            np.concatenate((self.rows, other.rows)), np.concatenate((self.y, other.y))
        )


def _project(op, v: np.ndarray) -> np.ndarray:
    """Row-wise affine projection v - A^H (A v - y) onto {c : A c = y}, for
    orthonormal rows A."""
    d = op.adjoint(op.residual(v))
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
    ``size`` holds |S|; ``idx`` holds S and ``sign`` holds z, padded to the
    largest |S| of the block by repeating one of their entries; ``ginv`` holds
    G^{-1} = (A_S^H A_S)^{-1}, zero outside the leading |S| x |S| block;
    ``valid`` marks the rows with sigma_min(A_S) > 1e-5, the only rows a
    certificate can hold for.  G^{-1} is applied to each row's leading |S|
    entries only, so the padding changes no bit of a row's check.
    """

    def __init__(self, n, size, idx, sign, ginv, valid):
        self.n, self.size, self.idx, self.sign = n, size, idx, sign
        self.ginv, self.valid = ginv, valid
        # per |S| a certificate can hold for: its rows, their G^{-1} and S
        self.groups = [
            (k, rows, ginv[rows, :k, :k], idx[rows, :k])
            for k in np.unique(size[valid]).tolist()
            for rows in [np.flatnonzero(size == k)]
        ]

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
        return cls(coeffs.shape[1], sizes, idx, sign, ginv, valid), refuted

    def __getitem__(self, keep) -> "_SupportProof":
        return _SupportProof(
            self.n, self.size[keep], self.idx[keep], self.sign[keep], self.ginv[keep],
            self.valid[keep],
        )

    def join(self, other: "_SupportProof") -> "_SupportProof":
        k = max(self.idx.shape[1], other.idx.shape[1])
        parts = [p._widen(k) for p in (self, other)]
        return _SupportProof(self.n, *(np.concatenate(f) for f in zip(*parts)))

    def _widen(self, k: int):
        """The fields padded to width k with duplicates of a support entry
        (zeros in a block without supports, whose rows are not valid)."""
        w = self.idx.shape[1]
        mode = "edge" if w else "constant"
        idx, sign = (np.pad(x, ((0, 0), (0, k - w)), mode=mode) for x in (self.idx, self.sign))
        ginv = np.pad(self.ginv, ((0, 0), (0, k - w), (0, k - w)))
        return self.size, idx, sign, ginv, self.valid

    def holds(self, op, pi: np.ndarray | None = None) -> np.ndarray:
        """Whether the dual candidate pi (None: zero) yields a certificate.

        pi is moved into the row space, pi_1 = A^H A pi, and corrected on S,
        pi_2 = pi_1 + A^H A_S q = A^H (A pi + A_S q) with
        q = G^{-1} (z - pi_1 on S), so that pi_2 = z on S.  The certificate
        holds where |pi_2 - z| <= 1e-8 on S and |pi_2| <= 1 - 1e-9 off S,
        the tolerances of the one-trial reference ``dual_certificate`` in
        ``tests/oracles.py``; then c is the unique l1 minimizer.  With pi = 0, pi_2 is the least-squares certificate
        A^H A_S G^{-1} z.
        """
        if not self.groups:
            return self.valid.copy()
        row = np.arange(len(self.idx))[:, None]
        step = self.sign
        if pi is not None:
            r = op.forward(pi)
            step = step - op.adjoint(r)[row, self.idx]
        v = np.zeros((len(self.idx), self.n), dtype=np.result_type(step, self.ginv))
        for k, rows, ginv, s in self.groups:
            v[rows[:, None], s] = np.matmul(ginv, step[rows, :k, None])[:, :, 0]
        w = op.forward(v)
        if pi is not None:
            w += r
        p = op.adjoint(w)
        on = np.max(np.abs(p[row, self.idx] - self.sign), axis=1)
        p[row, self.idx] = 0.0
        off = np.max(np.abs(p), axis=1)
        return self.valid & (on <= 1e-8) & (off <= 1.0 - 1e-9)


class _Block:
    """Live ADMM rows that share one operator: masked DFT rows of any m, or
    gathered rows of one m.

    Each row carries its own iterate z, scaled dual u, threshold kappa and
    the block tick at which it joined (``born``), so its iteration count is
    ``ticks - born``; the trial it belongs to (``tag``, ``j``) and its stop
    data: with verdicts, the descent floor (one l1 norm) and the support
    proof (a ``_SupportProof``), else None.  Every operation acts row by row,
    so rows join and leave without changing each other's iterates.
    """

    _PER_ROW = ("op", "proof", "tag", "j", "floor", "y_norm", "kappa", "z", "u", "born")

    def __init__(self, op, tag, j, floor=None, proof=None):
        self.op, self.proof, self.tag, self.j, self.floor = op, proof, tag, j, floor
        self.y_norm = _row_norm(op.y)
        backprojection = op.adjoint(op.y)
        coeff_scale = np.max(np.abs(backprojection), axis=1)
        rho = _RHO0 / np.maximum(coeff_scale, 1e-300)  # ||A_omega|| = 1
        # kappa > 0 keeps the soft-threshold quotient defined
        self.kappa = np.maximum(1.0 / rho, np.finfo(np.float64).tiny)[:, None]
        self.z = np.zeros_like(backprojection)
        self.u = np.zeros_like(backprojection)
        self.ticks = self.eldest = 0  # steps run; the earliest born
        self.born = np.zeros(len(self.z), dtype=np.int64)
        self._resized()

    def __len__(self) -> int:
        return len(self.born)

    @property
    def it(self) -> np.ndarray:
        """The iteration count of every row."""
        return self.ticks - self.born

    def _resized(self):
        # z_new - z (step), c - z_new (split), z_new and c, normed in one reduction
        self.terms = np.empty((4,) + self.z.shape, dtype=self.z.dtype)
        self.eldest = int(self.born.min(initial=self.ticks))

    def _keep(self, keep: np.ndarray):
        for name in self._PER_ROW:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[keep])
        self._resized()

    def join(self, other: "_Block"):
        other.born += self.ticks - other.ticks
        for name in self._PER_ROW:
            value = getattr(self, name)
            if value is not None:
                new = getattr(other, name)
                if name in ("op", "proof"):
                    setattr(self, name, value.join(new))
                else:
                    setattr(self, name, np.concatenate((value, new)))
        self._resized()

    def leave(self, stop: np.ndarray, z: np.ndarray, converged, routes) -> list:
        """Remove the rows ``stop``, each with its final z, and return them as
        (tag, j, result, route).  The result reports the feasible point
        z - A^H (A z - y), in an array of its own: results of one leave go to
        different requests, and a view would keep the others' rows alive."""
        op, y_norm = self.op[stop], self.y_norm[stop]
        c_hat = _project(op, z[stop])
        feas = np.divide(
            _row_norm(op.residual(c_hat)), y_norm, out=np.zeros_like(y_norm), where=y_norm > 0
        )
        objective = np.sum(np.abs(c_hat), axis=1)
        out = [
            (tag, j, RecoveryResult(c.copy(), float(f), float(o), int(i), bool(ok)), str(route))
            for tag, j, c, f, o, i, ok, route in zip(
                self.tag[stop], self.j[stop], c_hat, feas, objective, self.it[stop],
                np.broadcast_to(converged, stop.shape)[stop],
                np.broadcast_to(routes, stop.shape)[stop],
            )
        ]
        self._keep(~stop)
        return out

    def run(self, solver: SolverOptions) -> list:
        """``_CHECK_EVERY`` iterations, the last with the certificate check,
        or fewer when every row stops; returns the rows that stop.  Rows join
        a block only between runs, so every row's checks fall on its own
        iterations 8, 16, ..."""
        stopped = []
        for tick in range(1, _CHECK_EVERY + 1):
            if out := self.step(solver, tick == _CHECK_EVERY):
                stopped += out
                if not len(self):
                    break
        return stopped

    def step(self, solver: SolverOptions, check: bool) -> list:
        """One iteration of every row; the rows that stop leave the block and
        are returned as by ``leave``.

        A row stops when its iterates pass the stop test (converged), after
        ``max_iters`` iterations, or on a proof (verdicts only):

        - "descent": a row that has not converged stops when its feasible
          projection x = c of this iteration has ||x||_1 + sqrt(N)
          ||A x - y||_2 below its floor.  Then x - A^H (A x - y), which meets
          the constraints exactly (the rows of A are orthonormal), has an l1
          norm below the floor.  The residual is computed for the rows with
          ||x||_1 < floor only.  Such a row returns x in place of z.
        - "dual": with ``check`` set, the scaled dual iterate u / kappa, which
          lies in the unit ball, is tested as a certificate candidate; a row
          it certifies stops, whatever the other tests say.
        """
        op, z, u, kappa = self.op, self.z, self.u, self.kappa
        self.ticks += 1
        c = _project(op, z - u)
        c_relaxed = _RELAX * c
        c_relaxed += (1.0 - _RELAX) * z
        z_new = _soft_threshold(c_relaxed + u, kappa)
        u += c_relaxed
        u -= z_new
        terms = self.terms
        np.subtract(z_new, z, out=terms[0])
        np.subtract(c, z_new, out=terms[1])
        terms[2] = z_new
        terms[3] = c
        step, split, z_norm, c_norm = _row_norm(terms)
        self.z = z = z_new
        tol = solver.tol_feas * np.maximum(np.maximum(z_norm, c_norm), 1e-300)
        done = np.maximum(split, step) <= tol
        fell = np.zeros_like(done)
        if self.floor is not None:
            l1 = np.add.reduce(np.abs(c), axis=1)
            below = (l1 < self.floor) & ~done
            if below.any():
                r_norm = _row_norm(op[below].residual(c[below]))
                fell[below] = l1[below] + math.sqrt(z.shape[1]) * r_norm < self.floor[below]
        stop = done | fell
        proved = None
        if check and self.proof is not None:
            proved = self.proof.holds(op, u / kappa)
            fell &= ~proved
            stop |= proved
        if self.ticks - self.eldest >= solver.max_iters:  # a row has run its budget
            stop |= self.it >= solver.max_iters
        if not stop.any():
            return []
        routes = np.where(fell, "descent", "solved")
        if proved is not None:
            routes[proved] = "dual"
        return self.leave(stop, np.where(fell[:, None], c, z), done, routes)


def basis_pursuit(a_omega, y, solver: SolverOptions | None = None) -> RecoveryResult:
    """Solve min ||c||_1 s.t. a_omega c = y for one problem.

    The rows of ``a_omega`` (m x N, m <= N) must be orthonormal to 1e-12, as
    any rows of a unitary matrix are; other rows raise ValueError.  The
    problem runs as a block of one gathered row set, with the step size, stop
    test and final projection of every trial of ``solve_trials``.
    """
    a, y = np.asarray(a_omega), np.asarray(y)
    m, n = a.shape
    if y.shape != (m,):
        raise ValueError(f"y has shape {y.shape}, expected ({m},)")
    if m > n:
        raise ValueError(f"more measurements ({m}) than unknowns ({n})")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite entries in the problem data")
    dtype = np.result_type(a, y, np.float64)
    a, y = a.astype(dtype, copy=False), y.astype(dtype, copy=False)
    if np.max(np.abs(a @ a.conj().T - np.eye(m)), initial=0.0) > 1e-12:
        raise ValueError("the rows of a_omega are not orthonormal (to 1e-12)")
    if float(np.linalg.norm(y)) == 0.0:
        return RecoveryResult(np.zeros(n, dtype=dtype), 0.0, 0.0, 0, True)
    block = _Block(_GatheredRows(a[None], y[None]), tag=np.zeros(1), j=np.zeros(1))
    while not (stopped := block.run(solver or SolverOptions())):
        pass
    return stopped[0][2]


# a pool's live rows hold at most this many entries, or one trial's rows
_LIVE_ENTRIES = 1 << 20
# N-vectors of state and temporaries per live row in a step (z, u, y, the
# mask, the four norm terms, the projection and the certificate check)
_ROW_VECTORS = 16


def solve_trials(
    e: MeasurementEnsemble,
    omegas: np.ndarray,
    coeffs: np.ndarray,
    solver: SolverOptions | None = None,
    *,
    verdicts: bool,
) -> tuple[list[RecoveryResult | None], np.ndarray]:
    """Recover a block of trials in one ``TrialPool``: trial b measures
    y_b = A[omega_b] c_b and solves min ||c||_1 s.t. A[omega_b] c = y_b.

    ``omegas`` (B x m) holds distinct row indices per trial and ``coeffs``
    (B x N) the true coefficients.  Each trial gets the step size, stop test
    and final projection of ``basis_pursuit``, and its result does not depend
    on the other trials of the block.  Returns the results and the route per
    trial, one of ``VERDICT_ROUTES``.

    Without ``verdicts`` every trial runs to convergence or ``max_iters``
    (route "solved").  With ``verdicts`` a trial stops as soon as a proof
    decides whether its true coefficients c_b are the unique l1 minimizer.
    With S = supp(c_b) and z = sign(c_b on S), the routes are checked in
    this order:

    - "rank_deficient", a failure, before any solve: A[omega_b, S] is
      numerically rank-deficient (the tolerance of ``matrix_rank``) and z has
      a component in its null space, so no minimizer equals c_b.
    - "certified", a success at iteration 0: the least-squares dual
      certificate holds (sigma_min(A[omega_b, S]) > 1e-5, and the certificate
      is within 1e-8 of z on S and at most 1 - 1e-9 in modulus off S).
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
    keeps only (A_S^H A_S)^{-1} per trial.  A trial decided at iteration 0
    has no result (None); a "dual" or "descent" trial reports the iterate and
    iteration of its proof (the corrected point for descent); a "solved"
    trial's result is bit-identical to the one it gets without verdicts.
    """
    pool = TrialPool(e, solver, verdicts=verdicts)
    pool.submit(0, omegas, coeffs)
    results, routes = [None] * len(coeffs), ["solved"] * len(coeffs)
    while pool.busy:
        for _, j, result, route in pool.advance():
            results[j], routes[j] = result, route
    return results, np.array(routes)


class _Trials:
    """Trials of a request waiting to join a pool: the request's tag, each
    trial's index j in the request, rows, coefficients and stop data."""

    def __init__(self, tag, j, omegas, coeffs, floor, proof):
        self.tag, self.j, self.omegas, self.coeffs = tag, j, omegas, coeffs
        self.floor, self.proof = floor, proof

    def __getitem__(self, keep) -> "_Trials":
        return _Trials(*(None if v is None else v[keep] for v in (
            self.tag, self.j, self.omegas, self.coeffs, self.floor, self.proof
        )))


class TrialPool:
    """One ADMM that trials join and leave while it runs.

    ``submit`` queues a request's trials (B x m rows ``omegas`` of the
    unitary ensemble and B x N coefficients, each trial measuring
    y_b = A[omega_b] c_b); ``advance`` admits queued trials and, when that
    decides none, runs every block for ``_CHECK_EVERY`` iterations (fewer if
    it empties), then returns the trials decided as (tag, j, result, route):
    ``tag`` names the request, ``j`` the trial's index in it.  Call it while
    ``busy``.

    Trials join a block only between such runs, so every row's certificate
    checks fall on its own iterations 8, 16, ... as when it runs alone, and
    each row keeps its own iteration count, ``max_iters`` and stop tests: a
    trial's result, iteration count and route do not depend on the trials
    it runs with.  Masked DFT rows of any
    m share one block.  Gathered rows share a block only with rows of the
    same m.  All live rows together hold at most ``_LIVE_ENTRIES`` entries
    (``_ROW_VECTORS`` N-vectors per row, and m x N more per gathered row),
    or one trial's rows; trials that do not fit wait in order.  So the
    pool's memory does not grow with the number of requests submitted.

    With ``verdicts``, a trial is decided by the first proof, in the order
    of ``solve_trials``: the rank rule at ``submit``, the
    least-squares certificate when it joins (the trials it certifies are
    never measured), then the dual and descent stops.
    """

    def __init__(self, e: MeasurementEnsemble, solver: SolverOptions | None = None, *,
                 verdicts: bool):
        self.e, self.solver, self.verdicts = e, solver or SolverOptions(), verdicts
        self.blocks: dict = {}  # None (masked DFT) or m (gathered rows) -> _Block
        self.queue: deque[_Trials] = deque()
        self.decided: list = []

    @property
    def busy(self) -> bool:
        return bool(self.blocks or self.queue or self.decided)

    def submit(self, tag: int, omegas: np.ndarray, coeffs: np.ndarray):
        omegas = np.asarray(omegas, dtype=np.int64)
        coeffs = np.asarray(coeffs)
        dtype = np.complex128 if self.e.is_dft1d else np.result_type(self.e.a, coeffs, np.float64)
        coeffs = coeffs.astype(dtype, copy=False)
        trials = _Trials(np.full(len(coeffs), tag), np.arange(len(coeffs)), omegas, coeffs,
                         None, None)
        if self.verdicts and len(coeffs):
            trials.floor = (1.0 - 1e-9) * np.sum(np.abs(coeffs), axis=1)
            trials.proof, refuted = _SupportProof.factor(self.e.a, omegas, coeffs)
            self.decided += [(tag, j, None, "rank_deficient") for j in trials.j[refuted]]
            trials = trials[~refuted]
        if len(trials.j):
            self.queue.append(trials)

    def advance(self) -> list:
        self._admit()
        if not self.decided:
            for key, block in list(self.blocks.items()):
                self.decided += block.run(self.solver)
                if not len(block):
                    del self.blocks[key]
        decided, self.decided = self.decided, []
        return decided

    @property
    def capacity(self) -> int:
        """The entries all live rows may hold, ``_LIVE_ENTRIES``."""
        return _LIVE_ENTRIES

    def entries(self, rows: int, m: int) -> int:
        """Entries that ``rows`` live rows of m measurements hold:
        ``_ROW_VECTORS`` N-vectors each, and for gathered rows m x N more."""
        return rows * self.e.n * (_ROW_VECTORS + (0 if self.e.is_dft1d else m))

    def _admit(self):
        while self.queue:
            head = self.queue[0]
            live = sum(self.entries(len(block), m) for m, block in self.blocks.items())
            count = min(len(head.j), (_LIVE_ENTRIES - live) // self.entries(1, head.omegas.shape[1]))
            if count < 1:
                if live:
                    return
                count = 1
            if count < len(head.j):
                self.queue[0] = head[count:]
                head = head[:count]
            else:
                self.queue.popleft()
            self._join(head)

    def _join(self, trials: _Trials):
        if self.e.is_dft1d:
            key, op = None, _MaskedDft.of_rows(trials.omegas, self.e.n)
        else:
            key, op = trials.omegas.shape[1], _GatheredRows(self.e.a[trials.omegas])
        if trials.proof is not None:
            # iteration 0: with u = 0 the check is the least-squares certificate
            certified = trials.proof.holds(op)
            self.decided += [
                (tag, j, None, "certified")
                for tag, j in zip(trials.tag[certified], trials.j[certified])
            ]
            trials, op = trials[~certified], op[~certified]
            if not len(trials.j):
                return
        # measured only now: a trial certified at iteration 0 needs no y
        op.y = op.forward(trials.coeffs)
        block = _Block(op, trials.tag, trials.j, trials.floor, trials.proof)
        # a zero measurement vector has the zero solution: no iterations
        zero = block.y_norm == 0.0
        if zero.any():
            self.decided += block.leave(zero, block.z, True, "solved")
        if len(block):
            if key in self.blocks:
                self.blocks[key].join(block)
            else:
                self.blocks[key] = block


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
