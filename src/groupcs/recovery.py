"""Equality-constrained l1 recovery of trials that measure rows of a unitary
ensemble.

The solver is an alternating-direction splitting of

    min ||c||_1   s.t.   A_omega c = y

into an affine projection step, a complex soft-threshold step, and a dual
update.  Every problem measures orthonormal rows, as any rows of a unitary A
are, so the projection needs no Gram solve and ||A_omega|| = 1.
``TrialPool`` is a continuously refilled set of blocks of trials, one per
support size, that carry every per-trial quantity as a column of one row
table (``_Rows``).
The ensemble is the operator: a trial's rows are a 0/1 mask over its
``apply``, and ``adjoint`` takes the masked residual back (``_forward``),
so no rows of A are copied.  Trials join it between runs of ``_CHECK_EVERY``
iterations and leave when they stop.  With verdicts it stops
a trial as soon as a proof decides it: A's unitarity for a nonzero trial
that measures all N rows, the least-squares certificate or one built from
the ADMM dual iterate (a success), or the rank rule or a feasible iterate
with a smaller l1 norm than the true coefficients (a failure).
``TrialPool.run`` drives requests that yield draws of chunks of trials,
which the pool calls when there is room, and receive their results;
``solve_trials`` runs one such request, and a single problem is a request
of one trial.
``SolverOptions`` holds the solver's settings.  Every result is a
deterministic function of its own trial's inputs.
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


class _Rows:
    """Per-trial arrays of equal length, one attribute each.

    Every per-trial quantity of a pool is such a column, from the queue to
    the blocks, so one keep (``rows[keep]``) and one ``join`` move them all.
    """

    def __init__(self, **columns):
        self.__dict__.update(columns)

    def __len__(self) -> int:
        return len(self.j)

    def __getitem__(self, keep) -> "_Rows":
        return _Rows(**{name: v[keep] for name, v in vars(self).items()})

    def join(self, other: "_Rows") -> "_Rows":
        return _Rows(**{name: np.concatenate((v, getattr(other, name)))
                        for name, v in vars(self).items()})


def _forward(
    e: MeasurementEnsemble, a: np.ndarray, v: np.ndarray, y: np.ndarray | None = None
) -> np.ndarray:
    """A_omega v, or with y the residual A_omega v - y: A v = ``e.apply(v)``
    under the 0/1 row masks a (B x N).  Measurements y are held zero-padded
    to length N, so A_omega^H r is ``e.adjoint(r)``.  The mask has the rows'
    dtype; its ones multiply finite values exactly."""
    w = e.apply(v)
    if y is not None:
        w -= y
    w *= a
    return w


def _project(e: MeasurementEnsemble, a: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise affine projection v - A^H (A v - y) onto {c : A c = y}, for
    orthonormal rows A."""
    d = e.adjoint(_forward(e, a, v, y))
    np.subtract(v, d, out=d)
    return d


def _row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, complex entries as (re, im) pairs."""
    x = np.ascontiguousarray(x)
    if np.iscomplexobj(x):
        x = x.view(x.real.dtype)
    return np.sqrt(np.add.reduce(np.square(x), axis=-1))


class _SupportProof:
    """What the verdict proofs need of each trial's support submatrix, as
    columns of a ``_Rows`` table whose trials share one |S|.

    Per row b, with S = supp(c_b), z = sign(c_b on S) and A_S = A[omega_b, S]:
    ``idx`` (B x |S|) holds S and ``sign`` holds z; ``ginv`` (B x |S| x |S|)
    holds G^{-1} = (A_S^H A_S)^{-1}, zero where ``valid`` is not set;
    ``valid`` marks the rows with sigma_min(A_S) > 1e-5, the only rows a
    certificate can hold for.
    """

    @staticmethod
    def factor(e: MeasurementEnsemble, t: _Rows, k: int) -> np.ndarray:
        """One factorization of A_S per trial of ``t`` (rows ``omegas``,
        coefficients ``coeffs``, |S| = k), batched: a QR without Q, then the
        singular values of the small triangular factor R (and its singular
        vectors only where the rank is short).  Adds the proof columns to t.
        The columns of every trial's support are formed once, and each
        trial's A_S gathered from them.

        Returns the rank rule per trial: True where A_S is numerically
        rank-deficient (sigma_min <= sigma_max max(m, |S|) eps, the default
        tolerance of ``matrix_rank``) and z has a component in its null space
        (norm above 1e-8 ||z||).  Then c_b is not an l1 minimizer.  A trial
        whose A_S has an all-zero column j is refuted without a
        factorization: e_j lies in the null space, and |z_j| = 1.
        """
        b, m = t.omegas.shape
        t.idx = np.nonzero(t.coeffs)[1].reshape(b, k)
        z = np.take_along_axis(t.coeffs, t.idx, axis=1)
        t.sign = z = z / np.abs(z)
        t.ginv = np.zeros((b, k, k), dtype=np.result_type(e.dtype, t.coeffs, np.float64))
        t.valid = np.zeros(b, dtype=bool)
        if k == 0:
            return np.zeros(b, dtype=bool)
        support, where = np.unique(t.idx, return_inverse=True)
        a_s = e.columns(support)[t.omegas[:, :, None], where.reshape(b, 1, k)]
        refuted = ~np.all(np.any(a_s, axis=1), axis=1)
        rest = np.flatnonzero(~refuted)
        if not rest.size:
            return refuted
        # A_S = Q R, so R has the singular values and G = R^H R
        r = np.linalg.qr(a_s if rest.size == b else a_s[rest], mode="r")
        sv = np.linalg.svd(r, compute_uv=False)
        rank = np.sum(sv > sv[:, :1] * max(m, k) * np.finfo(np.float64).eps, axis=1)
        low = np.flatnonzero(rank < k)
        if low.size:
            _, _, vh = np.linalg.svd(r[low], full_matrices=True)  # vh is k x k
            z_rot = np.matmul(vh, z[rest[low], :, None])[:, :, 0]
            null_part = _row_norm(np.where(np.arange(k) >= rank[low, None], z_rot, 0))
            refuted[rest[low]] = null_part > 1e-8 * math.sqrt(k)
        if m >= k:
            valid = sv[:, -1] > 1e-5
            t.valid[rest] = valid
            r_inv = np.linalg.inv(r[valid])
            t.ginv[rest[valid]] = np.matmul(r_inv, r_inv.conj().transpose(0, 2, 1))
        return refuted

    @staticmethod
    def holds(e: MeasurementEnsemble, t: _Rows, pi: np.ndarray | None = None) -> np.ndarray:
        """Whether the dual candidate pi (None: zero) yields a certificate,
        per row of t (row masks ``a`` and the proof columns).

        pi is moved into the row space, pi_1 = A^H A pi, and corrected on S,
        pi_2 = pi_1 + A^H A_S q = A^H (A pi + A_S q) with
        q = G^{-1} (z - pi_1 on S), so that pi_2 = z on S.  The certificate
        holds where |pi_2 - z| <= 1e-8 on S and |pi_2| <= 1 - 1e-9 off S,
        the tolerances of the one-trial reference ``dual_certificate`` in
        ``tests/oracles.py``; then c is the unique l1 minimizer.  With pi = 0,
        pi_2 is the least-squares certificate A^H A_S G^{-1} z.
        """
        if not t.valid.any():  # every block of |S| = 0 returns here
            return t.valid.copy()
        row = np.arange(len(t))[:, None]
        step = t.sign
        if pi is not None:
            r = _forward(e, t.a, pi)
            step = step - e.adjoint(r)[row, t.idx]
        v = np.zeros((len(t), t.a.shape[-1]), dtype=np.result_type(step, t.ginv))
        v[row, t.idx] = np.matmul(t.ginv, step[:, :, None])[:, :, 0]
        w = _forward(e, t.a, v)
        if pi is not None:
            w += r
        p = e.adjoint(w)
        on = np.max(np.abs(p[row, t.idx] - t.sign), axis=1)
        p[row, t.idx] = 0.0
        off = np.max(np.abs(p), axis=1)
        return t.valid & (on <= 1e-8) & (off <= 1.0 - 1e-9)


class _Block:
    """Live ADMM rows of the ensemble ``e`` that share one |S|.

    Its ``rows`` table holds per row the mask ``a`` over ``e.apply``, the
    measurements y and their norm ``y_norm`` (both given), the iterate z,
    the scaled dual u, the threshold kappa and the block tick at which the
    row joined (``born``), so its iteration count is ``ticks - born``; the
    trial it belongs to (``tag``, ``j``); and with verdicts its stop data:
    the descent floor (one l1 norm) and the columns of ``_SupportProof``.
    Every operation acts row by row, so rows join and leave without
    changing each other's iterates.
    """

    def __init__(self, e: MeasurementEnsemble, rows: _Rows, verdicts: bool):
        self.e, self.verdicts, self.ticks = e, verdicts, 0  # ticks: steps run
        self.rows = self._started(rows)
        self._resized()

    def add(self, rows: _Rows):
        """Start the trials of ``rows`` at the current tick."""
        self.rows = self.rows.join(self._started(rows))
        self._resized()

    def _started(self, t: _Rows) -> _Rows:
        backprojection = self.e.adjoint(t.y)
        coeff_scale = np.max(np.abs(backprojection), axis=1)
        rho = _RHO0 / np.maximum(coeff_scale, 1e-300)  # ||A_omega|| = 1
        # kappa > 0 keeps the soft-threshold quotient defined
        t.kappa = np.maximum(1.0 / rho, np.finfo(np.float64).tiny)[:, None]
        t.z = np.zeros_like(backprojection)
        t.u = np.zeros_like(backprojection)
        t.born = np.full(len(t), self.ticks)
        return t

    def __len__(self) -> int:
        return len(self.rows)

    def _resized(self):
        z = self.rows.z
        # z_new - z (step), c - z_new (split), z_new and c, normed in one reduction
        self.terms = np.empty((4,) + z.shape, dtype=z.dtype)
        self.eldest = int(self.rows.born.min(initial=self.ticks))  # the earliest born

    def leave(self, stop: np.ndarray, z: np.ndarray, converged, routes) -> list:
        """Remove the rows ``stop``, each with its final z, and return them as
        (tag, j, result, route).  The result reports the feasible point
        z - A^H (A z - y), in an array of its own: results of one leave go to
        different requests, and a view would keep the others' rows alive."""
        gone = self.rows[stop]
        c_hat = _project(self.e, gone.a, gone.y, z[stop])
        feas = np.divide(
            _row_norm(_forward(self.e, gone.a, c_hat, gone.y)), gone.y_norm,
            out=np.zeros_like(gone.y_norm), where=gone.y_norm > 0,
        )
        objective = np.sum(np.abs(c_hat), axis=1)
        out = [
            (tag, j, RecoveryResult(c.copy(), float(f), float(o), int(i), bool(ok)), str(route))
            for tag, j, c, f, o, i, ok, route in zip(
                gone.tag, gone.j, c_hat, feas, objective, self.ticks - gone.born,
                converged[stop], routes[stop],
            )
        ]
        self.rows = self.rows[~stop]
        self._resized()
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
        e, t = self.e, self.rows
        z, u, kappa = t.z, t.u, t.kappa
        self.ticks += 1
        c = _project(e, t.a, t.y, z - u)
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
        t.z = z = z_new
        tol = solver.tol_feas * np.maximum(np.maximum(z_norm, c_norm), 1e-300)
        done = np.maximum(split, step) <= tol
        fell = np.zeros_like(done)
        if self.verdicts:
            l1 = np.add.reduce(np.abs(c), axis=1)
            below = (l1 < t.floor) & ~done
            if below.any():
                r_norm = _row_norm(_forward(e, t.a[below], c[below], t.y[below]))
                fell[below] = l1[below] + math.sqrt(z.shape[1]) * r_norm < t.floor[below]
        stop = done | fell
        proved = None
        if check and self.verdicts:
            proved = _SupportProof.holds(e, t, u / kappa)
            fell &= ~proved
            stop |= proved
        if self.ticks - self.eldest >= solver.max_iters:  # a row has run its budget
            stop |= self.ticks - t.born >= solver.max_iters
        if not stop.any():
            return []
        routes = np.where(fell, "descent", "solved")
        if proved is not None:
            routes[proved] = "dual"
        return self.leave(stop, np.where(fell[:, None], c, z), done, routes)


# a pool's live rows, and its open chunks' trials, hold at most this many
# entries, or one trial's rows and one chunk
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
    (B x N) the true coefficients.  Each trial's result does not depend on
    the other trials of the block, so a block of one trial solves a single
    problem.  Returns the results and the route per
    trial, one of ``VERDICT_ROUTES``.

    Without ``verdicts`` every trial runs to convergence or ``max_iters``
    (route "solved").  With ``verdicts`` a trial stops as soon as a proof
    decides whether its true coefficients c_b are the unique l1 minimizer.
    With S = supp(c_b) and z = sign(c_b on S), the routes are checked in
    this order:

    - "certified", a success at submission, for a trial with |S| >= 1 that
      measures all N rows: A[omega_b] = A is invertible, so c_b is the only
      feasible point (the least-squares certificate below holds trivially).
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

    One factorization of A[omega_b, S] per other trial (a QR and the
    singular values of its R) serves the rank rule and every certificate
    test, which keeps only (A_S^H A_S)^{-1} per trial.  A trial decided at
    iteration 0 has no result (None); a "dual" or "descent" trial reports the
    iterate and iteration of its proof (the corrected point for descent); a
    "solved" trial's result is bit-identical to the one it gets without
    verdicts.
    """
    def request():
        _, results, routes = yield lambda: (omegas, coeffs)
        return results, routes

    ((results, routes),) = TrialPool(e, solver, verdicts=verdicts).run([request()])
    return results, np.array(routes)


class TrialPool:
    """One ADMM that trials join and leave while it runs.

    ``run`` drives requests: generators that yield draws of chunks of
    trials (B x m rows ``omegas`` of the unitary ensemble and B x N
    coefficients, each trial measuring y_b = A[omega_b] c_b) and receive
    each chunk's results.
    Between runs of every block for ``_CHECK_EVERY`` iterations (fewer if it
    empties), an admission tick admits queued trials.

    Trials join a block only at such ticks, so every row's certificate
    checks fall on its own iterations 8, 16, ... as when it runs alone, and
    each row keeps its own iteration count, ``max_iters`` and stop tests: a
    trial's result, iteration count and route do not depend on the trials
    it runs with.  A block holds the trials of one |S| = |supp(c_b)| and
    any m, so each support proof is a dense G^{-1} stack.  A chunk's trials
    queue by |S|.  All live rows together hold at most ``_LIVE_ENTRIES``
    entries (``_ROW_VECTORS`` N-vectors per row), or one trial's rows;
    trials that do not fit wait in order.  The open chunks' trials, counted
    as live rows, are held to the same budget, or one chunk.  So the pool's
    memory does not grow with the number of requests.

    With ``verdicts``, a trial is decided by the first proof, in the order
    of ``solve_trials``: full sampling and the rank rule when its chunk is
    submitted, the least-squares certificate when it joins (the trials
    these certify are never measured), then the dual and descent stops.
    """

    def __init__(self, e: MeasurementEnsemble, solver: SolverOptions | None = None, *,
                 verdicts: bool):
        self.e, self.solver, self.verdicts = e, solver or SolverOptions(), verdicts
        self.blocks: dict = {}  # |S| -> _Block
        self.queue: deque = deque()  # (block key, _Rows of waiting trials)
        self.decided: list = []  # (tag, j, result, route) not yet returned

    def run(self, requests: list) -> list:
        """Run request generators in this pool and return what each returns.

        A request yields draws: functions of no argument that return a chunk
        of trials, (rows, coefficients).  The pool calls the draws in the
        order they were yielded, each only while the open chunks, counted as
        live rows, fit in ``_LIVE_ENTRIES``, or none is open: the pool, not
        the request, decides when it may draw, so the trials held stay
        within the budget and one chunk, whatever the number of requests.
        Once every trial of a chunk is decided, the pool sends the request
        (chunk, results, routes); a trial decided at iteration 0 has no
        result (None).  The pool admits a chunk at its next admission tick,
        so the chunks of many requests run in one block, and a trial's
        result does not depend on the requests beside it.
        """
        out = [None] * len(requests)
        chunks = {}  # request -> [chunk, results, routes, trials still open]
        draws = deque()  # (request, draw), in the order yielded
        held = 0  # entries of the open chunks' trials

        def send(i, value):
            try:
                draws.append((i, requests[i].send(value)))
            except StopIteration as stop:
                out[i] = stop.value

        for i in range(len(requests)):
            send(i, None)
        while draws or self.blocks or self.queue or self.decided:
            while draws and not (chunks and held >= _LIVE_ENTRIES):
                i, draw = draws.popleft()
                omegas, coeffs = chunk = draw()
                if not len(coeffs):
                    send(i, (chunk, [], []))
                    continue
                held += self._entries(len(coeffs))
                chunks[i] = [chunk, [None] * len(coeffs), [None] * len(coeffs), len(coeffs)]
                self._submit(i, omegas, coeffs)
            for i, j, result, route in self._advance():
                record = chunks[i]
                record[1][j], record[2][j] = result, route
                record[3] -= 1
                if record[3] == 0:
                    del chunks[i]
                    held -= self._entries(len(record[1]))
                    send(i, tuple(record[:3]))
        return out

    def _submit(self, tag: int, omegas: np.ndarray, coeffs: np.ndarray):
        """Queue a chunk's trials by |S|, after full sampling and the rank
        rule (verdicts)."""
        omegas = np.asarray(omegas, dtype=np.int64)
        coeffs = np.asarray(coeffs)
        coeffs = coeffs.astype(np.result_type(self.e.dtype, coeffs, np.float64), copy=False)
        sizes = np.count_nonzero(coeffs, axis=1)
        for k in np.unique(sizes).tolist():
            j = np.flatnonzero(sizes == k)
            t = _Rows(tag=np.full(len(j), tag), j=j, omegas=omegas[j], coeffs=coeffs[j])
            if self.verdicts and k and omegas.shape[1] == self.e.n:
                # all N distinct rows: A_omega = A is unitary, so G = I and the
                # least-squares certificate A^H A_S z is z on S and 0 off S
                self.decided += [(tag, j, None, "certified") for j in t.j]
                continue
            if self.verdicts:
                t.floor = (1.0 - 1e-9) * np.sum(np.abs(t.coeffs), axis=1)
                refuted = _SupportProof.factor(self.e, t, k)
                self.decided += [(tag, j, None, "rank_deficient") for j in t.j[refuted]]
                t = t[~refuted]
            if len(t):
                self.queue.append((k, t))

    def _advance(self) -> list:
        """One admission tick and, when it decides no trial, one run of every
        block; returns the trials decided as (tag, j, result, route)."""
        self._admit()
        if not self.decided:
            for key, block in list(self.blocks.items()):
                self.decided += block.run(self.solver)
                if not len(block):
                    del self.blocks[key]
        decided, self.decided = self.decided, []
        return decided

    def _entries(self, rows: int) -> int:
        """Entries that ``rows`` live rows hold: ``_ROW_VECTORS`` N-vectors
        each."""
        return rows * self.e.n * _ROW_VECTORS

    def _admit(self):
        while self.queue:
            key, head = self.queue[0]
            live = self._entries(sum(len(block) for block in self.blocks.values()))
            count = min(len(head), (_LIVE_ENTRIES - live) // self._entries(1))
            if count < 1:
                if live:
                    return
                count = 1
            if count < len(head):
                self.queue[0] = key, head[count:]
                head = head[:count]
            else:
                self.queue.popleft()
            self._join(key, head)

    def _join(self, key, t: _Rows):
        t.a = np.zeros((len(t), self.e.n), dtype=t.coeffs.dtype)  # the row mask
        t.a[np.arange(len(t))[:, None], t.omegas] = 1.0
        if self.verdicts:
            # iteration 0: with u = 0 the check is the least-squares certificate
            certified = _SupportProof.holds(self.e, t)
            self.decided += [
                (tag, j, None, "certified") for tag, j in zip(t.tag[certified], t.j[certified])
            ]
            t = t[~certified]
            if not len(t):
                return
        # measured only now: a trial certified at iteration 0 needs no y
        t.y = _forward(self.e, t.a, t.coeffs)
        t.y_norm = _row_norm(t.y)
        # a zero measurement vector has the zero solution: no iterations
        zero = t.y_norm == 0.0
        self.decided += [
            (tag, j, RecoveryResult(np.zeros_like(c), 0.0, 0.0, 0, True), "solved")
            for tag, j, c in zip(t.tag[zero], t.j[zero], t.coeffs[zero])
        ]
        del t.omegas, t.coeffs
        if zero.any():
            t = t[~zero]
            if not len(t):
                return
        if key in self.blocks:
            self.blocks[key].add(t)
        else:
            self.blocks[key] = _Block(self.e, t, self.verdicts)


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
