"""Grouping penalty factor: worst-group 2->1 norms of row-normalized submatrices.

The 2->1 operator norm ||M||_{2->1} = max_{||f||_2 = 1} ||Mf||_1 equals, by
duality, max over unimodular u of ||M^H u||_2.  For real matrices the dual
maximum is attained on sign vectors, so ``penalty_gamma`` enumerates real
groups of at most ``ENUM_LIMIT_DEFAULT`` rows exactly.  Every other group's
norm is bracketed by

  * a lower bound from phase fixed-point iteration over unimodular vectors
    (plus the mean-over-random-signs floor sqrt(sum of squared row norms)),
  * an upper bound from the diagonally constrained semidefinite relaxation
      max { Re tr(m m^H W) : W >= 0, diag(W) = 1 },
    whose square root overshoots the true norm by at most K_p
    (sqrt(pi/2) real, sqrt(4/pi) complex).  The code does not enforce
    upper <= K_p * lower: the phase lower bound keeps the bracket that
    narrow, and the tests and CI check it.

Every upper bound is certified from the dual side: any diagonal D with
D >= m m^H gives the valid bound sqrt(trace D).  The sandwich route
(``_sandwich``) certifies a group in this order:

  1. The phase fixed point.  At u = phase(Q u), Q = m m^H, the diagonal
     d = |Q u| satisfies (diag(d) - Q) u = 0 and trace(d) = ||m^H u||^2, so
     when diag(d) - Q is also positive semidefinite (one eigenvalue shift
     makes it so) d is a dual certificate whose value equals the lower bound,
     and the bracket closes without the SDP (Bandeira, Boumal & Singer 2017).
     The witness is tried from the all-ones start, then with 8 and then with
     all random restarts, stopping at the first that closes.
  2. The SDP, only for groups the fixed point leaves open.  A log-barrier
     Newton rebalancing drives a dual diagonal to the relaxation optimum,
     and the smaller of its trace and the two trivial certificates is the
     upper bound.  No primal is formed: the bracket's width already says how
     well the group's norm is known.

Both certificates carry over between groups: a unimodular u is a feasible
dual vector for every group, and a diagonal D certified for one Gram matrix
certifies another after one eigenvalue shift.  ``penalty_gamma`` uses them to
evaluate in full only the groups whose cheap bounds could still move the
reported bracket, and settles a group whose carried bracket is as tight as
the evaluated group's own, whether or not that bracket closed.  On the exact
route the absolute row sums of each Gram matrix bound every group, and only
the groups whose bound reaches the top group's value are enumerated, once per
class of bitwise-equal submatrices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grouping import GroupStructure
from .operators import MeasurementEnsemble, SupportSet, normalize_rows, submatrix

KP_REAL = math.sqrt(math.pi / 2)
KP_COMPLEX = math.sqrt(4 / math.pi)
ENUM_LIMIT_DEFAULT = 20

_METHODS = ("exact_sign_enum", "sandwich")
# relative slack within which two bounds count as equal: a group whose cheap
# upper bound is this close to the running lower bound is not evaluated, and
# groups this close to the maximum tie for argmax_group
_TIE = 1e-12
# sign enumeration takes this many candidate sign vectors at a time, and
# keeps at most this many entries of their products with the matrices live
_SIGN_CHUNK = 1 << 16
_ENUM_ENTRIES = 1 << 18
# the phase fixed-point certificate of a group tries the all-ones witness,
# then this many random restarts, then all _LOWER_RESTARTS of them; a witness
# takes at most this many further phase steps before its certificate is formed
_WITNESS_STAGES = (0, 8)
_POLISH_STEPS = 50
_LOWER_RESTARTS = 64


@dataclass(frozen=True)
class GammaEstimate:
    """Bracketed (and, when available, exact) value of the penalty factor.

    ``argmax_group`` is the lowest-index group whose certified upper bound
    lies within a relative 1e-12 of ``upper``.
    """

    lower: float
    upper: float
    exact: float | None
    method: str
    argmax_group: int

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.lower > self.upper + 1e-9 * max(1.0, self.upper):
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")
        if self.exact is not None:
            tol = 1e-9 * max(1.0, self.exact)
            if not (self.lower - tol <= self.exact <= self.upper + tol):
                raise ValueError("exact value escapes [lower, upper]")

    @property
    def value(self) -> float:
        """Single representative value: the exact norm when known, else the
        certified upper bound (which keeps measurement-count bounds valid)."""
        return self.exact if self.exact is not None else self.upper


def _sign_enumeration(ms: np.ndarray) -> np.ndarray:
    """Exact 2->1 norms of a stack of real g x k matrices, by enumerating
    the 2^(g-1) sign vectors with s_0 = +1.

    The candidates are taken a chunk of ``_SIGN_CHUNK`` at a time, and the
    stack enough matrices at a time that the products held stay within
    ``_ENUM_ENTRIES`` entries (or one chunk of one matrix).
    """
    n_mats, g, k = ms.shape
    best = np.zeros(n_mats)
    if n_mats == 0 or g == 0 or k == 0:
        return best
    total = 1 << (g - 1)
    chunk = min(total, _SIGN_CHUNK)
    per = max(1, _ENUM_ENTRIES // (chunk * k))
    bits_of = np.arange(g - 1, dtype=np.int64)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        signs = np.empty((codes.size, g))
        signs[:, 0] = 1.0
        signs[:, 1:] = 1.0 - 2.0 * ((codes[:, None] >> bits_of) & 1)
        for lo in range(0, n_mats, per):
            vals = np.matmul(signs, ms[lo : lo + per])
            energy = np.einsum("bij,bij->bi", vals, vals)
            np.maximum(best[lo : lo + per], np.max(energy, axis=1), out=best[lo : lo + per])
    return np.sqrt(best)


def _phase(w: np.ndarray) -> np.ndarray:
    a = np.abs(w)
    if a.all():
        return w / a
    safe = np.where(a == 0.0, 1.0, a)
    out = w / safe
    if np.iscomplexobj(out):
        out[a == 0.0] = 1.0
    else:
        out = np.where(a == 0.0, 1.0, out)
    return out


def _phase_starts(g: int, count: int, is_real: bool, rng: np.random.Generator) -> list:
    """``count`` random unimodular starts of length g, signs when real and
    phases when complex, drawn one at a time (so two calls on one ``rng``
    draw what one call for both counts would)."""
    if is_real:
        return [rng.choice([-1.0, 1.0], size=g) for _ in range(count)]
    return [np.exp(2j * np.pi * rng.random(g)) for _ in range(count)]


def _phase_iteration(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The fixed point u <- phase(q u) of each column of u, iterated in place
    and all at once, a column stopping once its step is below 1e-10 (at
    most 200 steps)."""
    active = np.arange(u.shape[1])
    for _ in range(200):
        cur = u[:, active]
        u_new = _phase(q @ cur)
        moved = np.max(np.abs(u_new - cur), axis=0) >= 1e-10
        u[:, active] = u_new
        active = active[moved]
        if active.size == 0:
            break
    return u


def _best_witness(m: np.ndarray, u: np.ndarray) -> tuple[float, np.ndarray]:
    """The largest ||m^H u||_2 over the columns of u, and the first column
    attaining it."""
    vals = np.linalg.norm(m.conj().T @ u, axis=0)
    best = int(np.argmax(vals))
    return float(vals[best]), u[:, best]


def _dual_diag_value(q: np.ndarray) -> np.ndarray:
    """Diagonal d minimizing trace(diag(d)) subject to diag(d) >= q, via
    log-barrier Newton steps.

    Returns a certified diagonal: the final iterate is shifted, if necessary,
    so that diag(d) - q is positive semidefinite up to an explicit eigenvalue
    check.
    """
    g = q.shape[0]
    scale = float(np.linalg.eigvalsh(q)[-1])
    if scale <= 0.0:
        return np.zeros(g)
    qs = q / scale
    lam = np.full(g, 1.0 + 1e-6)
    t = 1.0

    def slack(lam_vec):
        """diag(lam_vec) - qs and its log-determinant, -inf when it is not
        positive definite."""
        s = np.diag(lam_vec) - qs
        try:
            chol = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return None, -np.inf
        return s, 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))

    # the barrier t * sum(lam) - log det(diag(lam) - qs) at the iterate
    s, logdet = slack(lam)
    while True:
        for _ in range(60):
            phi = t * float(np.sum(lam)) - logdet
            sinv = np.linalg.inv(s)
            sinv = (sinv + sinv.conj().T) / 2
            grad = t - np.real(np.diag(sinv))
            hess = np.abs(sinv) ** 2
            hess[np.diag_indices(g)] += 1e-14
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                break
            decrement2 = float(-grad @ step)
            if decrement2 <= 1e-20 * max(1.0, t):
                break
            alpha = 1.0
            while alpha > 1e-12:
                cand = lam + alpha * step
                s_cand, logdet_cand = slack(cand)
                if t * float(np.sum(cand)) - logdet_cand <= phi + 0.25 * alpha * (grad @ step):
                    lam, s, logdet = cand, s_cand, logdet_cand
                    break
                alpha /= 2
            else:
                break
            if decrement2 / 2 <= 1e-16 * max(1.0, t):
                break
        total = float(np.sum(lam))
        if g / t <= 1e-13 * max(1.0, total):
            break
        t *= 25.0
    # explicit feasibility certificate
    w_min = float(np.linalg.eigvalsh(np.diag(lam) - qs)[0])
    if w_min < 0.0:
        lam = lam + (-w_min + 1e-16)
    return scale * lam


def _gram(m: np.ndarray) -> np.ndarray:
    """Hermitian m m^H of a matrix, or of each matrix of a stack."""
    q = m @ m.conj().swapaxes(-1, -2)
    return (q + q.conj().swapaxes(-1, -2)) / 2


def _trivial_diags(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two certified diagonals needing no iteration, for a Gram matrix or
    each of a stack: lambda_max(q) I, and the absolute row sums of q
    (diag(d) - q is then diagonally dominant)."""
    lam_max = np.linalg.eigvalsh(q)[..., -1]
    return np.repeat(lam_max[..., None], q.shape[-1], axis=-1), np.sum(np.abs(q), axis=-1)


def _recertified_shift(d: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Shift c, one per Gram matrix of ``q`` (a matrix or a stack), that makes
    diag(d + c) - q positive semidefinite: minus the smallest eigenvalue of
    diag(d) - q, plus a rounding margin scaled by the larger of max |d| and
    that matrix's spectral norm (d itself may be far from certified)."""
    w = np.linalg.eigvalsh(np.diag(d) - q)
    scale = np.maximum(np.max(np.abs(d)), np.max(np.abs(w), axis=-1))
    return 8 * d.size * np.finfo(float).eps * scale - w[..., 0]


def _recertified_upper(d: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Upper bound on the 2->1 norm of any m with m m^H = q, for a Gram
    matrix q or each of a stack, from a diagonal d certified for another
    Gram matrix."""
    return np.sqrt(np.maximum(np.sum(d) + d.size * _recertified_shift(d, q), 0.0))


def _sdp_diagonal(q: np.ndarray) -> np.ndarray:
    """Certified diagonal d of the diag-constrained SDP for a group's Gram
    matrix q = m m^H: the one of least trace among the log-barrier Newton
    dual and the two trivial certificates.

    Every one satisfies diag(d) >= q, so sqrt(sum d) bounds the relaxation
    and hence the 2->1 norm of m.  If dual rebalancing fails, the better
    trivial certificate is used.
    """
    eig_diag, row_sums = _trivial_diags(q)
    off_max = float(np.max(np.abs(q - np.diag(np.diag(q)))))
    if len(q) == 1 or off_max <= 1e-14 * max(1.0, eig_diag[0]):
        # diagonal q: the relaxation value is exactly trace(q)
        return np.maximum(np.real(np.diag(q)), 0.0)
    candidates = [eig_diag, row_sums]
    try:
        candidates.append(_dual_diag_value(q))
    except np.linalg.LinAlgError:
        warnings.warn("dual rebalancing failed; falling back to the trivial certificate")
    return min(candidates, key=np.sum)


def _first_max(uppers: np.ndarray) -> int:
    return int(np.flatnonzero(uppers >= np.max(uppers) * (1 - _TIE))[0])


def _phase_certificate(
    m: np.ndarray, q: np.ndarray, u: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Lower bound, witness and certified diagonal from the phase fixed point
    near the unimodular witness u of m, with q = m m^H.

    u takes further steps u <- phase(q u), which never lower ||m^H u||, until
    its step stops shrinking.  That carries u from the phase iteration's 1e-10
    tolerance to rounding level, which matters: the certificate's excess over
    ||m^H u||^2 can be first order in the distance to the fixed point.  The
    diagonal d = |q u|, shifted so that diag(d) - q is positive semidefinite,
    certifies the upper bound sqrt(sum d); at an exact fixed point needing no
    shift, sum d = ||m^H u||^2.
    """
    step = np.inf
    for _ in range(_POLISH_STEPS):
        u_new = _phase(q @ u)
        moved = float(np.max(np.abs(u_new - u)))
        u = u_new
        if not moved < step:
            break
        step = moved
    d = np.abs(q @ u)
    return float(np.linalg.norm(m.conj().T @ u)), u, d + _recertified_shift(d, q)


def _certify_group(
    m: np.ndarray, q: np.ndarray, restarts: int, seeds: np.random.SeedSequence
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Phase lower bound, witness and, when the phase fixed point closes the
    bracket, its certified diagonal, for one group m with Gram matrix q.

    The witness is grown from the all-ones start to ``_WITNESS_STAGES``
    random restarts and then to ``restarts``, until the certified upper
    bound lies within a relative ``_TIE`` of the lower bound.  Each stage
    iterates only the starts it adds, drawn from ``seeds`` after the earlier
    stages' ones, and takes the best of all columns so far: the bound of
    phase iteration from the all-ones start and as many random restarts.
    The closing certificate is the shifted diagonal; None means the bracket
    stayed open.
    """
    rng = np.random.default_rng(seeds)
    g, is_real = m.shape[0], not np.iscomplexobj(m)
    q_iter = m @ m.conj().T
    u, starts = np.empty((g, 0), q_iter.dtype), [np.ones(g)]
    for stage in sorted({min(r, restarts) for r in (*_WITNESS_STAGES, restarts)}):
        starts += _phase_starts(g, stage + 1 - u.shape[1] - len(starts), is_real, rng)
        fresh = _phase_iteration(q_iter, np.array(starts, dtype=u.dtype).T)
        u, starts = np.hstack([u, fresh]), []
        lo, w = _best_witness(m, u)
        witnessed, w, diag = _phase_certificate(m, q, w)
        lo = max(lo, witnessed)
        if math.sqrt(max(float(np.sum(diag)), 0.0)) <= lo * (1 + _TIE):
            return lo, w, diag
    return lo, w, None


def _group_rows(e: MeasurementEnsemble, t: SupportSet, gs: GroupStructure) -> np.ndarray:
    """Row-normalized A_{G_i, T} of every group, as one n_groups x g x |T|
    stack (all N rows of A_T, reordered by group)."""
    rows = submatrix(e, gs.groups.ravel(), t)
    return normalize_rows(rows.reshape(gs.n_groups, gs.g, len(t)))


def penalty_gamma(
    e: MeasurementEnsemble,
    t: SupportSet,
    gs: GroupStructure,
    *,
    seed: int = 0,
) -> GammaEstimate:
    """Penalty factor: max over groups of the 2->1 norm of the row-normalized
    submatrix A_{G_i, T}.

    Exact by sign enumeration when the rows are real and g is small enough
    to enumerate (always when g == 1), else bracketed by ``_sandwich``.  The
    submatrices are formed for all groups at once, and only the groups that
    can reach the maximum are enumerated (``_pruned_enumeration``).
    """
    if gs.n != e.n:
        raise ValueError(f"structure over {gs.n} rows but ensemble has {e.n}")
    if len(t) == 0:
        raise ValueError("support set is empty")

    msubs = _group_rows(e, t, gs)
    if gs.g > 1 and (e.dtype != np.float64 or gs.g > ENUM_LIMIT_DEFAULT):
        return _sandwich(msubs, seed)
    values = np.linalg.norm(msubs[:, 0], axis=1) if gs.g == 1 else _pruned_enumeration(msubs)
    exact = float(np.max(values))
    return GammaEstimate(exact, exact, exact, "exact_sign_enum", _first_max(values))


def _pruned_enumeration(msubs: np.ndarray) -> np.ndarray:
    """Per group of ``msubs`` (n_groups x g x |T|, real): the exact 2->1 norm
    of every group that can reach the largest, and the certified upper bound
    sqrt(sum |q_ij|), q = m m^T, of every other group.

    The group of the highest bound is enumerated first.  Then every group
    whose bound reaches that value within a relative 2 ``_TIE`` (``_TIE`` for
    the tie rule of ``_first_max``, and as much again for rounding) is
    enumerated in one batch, once per class of bitwise-equal submatrices, and
    each member takes its class's value.  The bound is the trace of the
    absolute-row-sum certificate, so it needs no eigenvalues.  The
    enumerated values are bit for bit those of ``_sign_enumeration`` over
    all groups, and every other group lies below the maximum by more than
    ``_TIE``, so the maximum and its first index are the same.
    """
    bounds = np.sqrt(np.sum(np.abs(_gram(msubs)), axis=(1, 2)))
    values = bounds.copy()
    top = int(np.argmax(bounds))
    values[top] = _sign_enumeration(msubs[top : top + 1])[0]
    near = np.flatnonzero(bounds >= values[top] * (1 - 2 * _TIE))
    # each group's class representative: the top group, else the first group
    # with a bitwise-equal submatrix
    first = {msubs[top].tobytes(): top}
    reps = np.array([first.setdefault(msubs[j].tobytes(), j) for j in near])
    todo = np.unique(reps[reps != top])
    values[todo] = _sign_enumeration(msubs[todo])
    values[near] = values[reps]
    return values


def _sandwich(msubs: np.ndarray, seed: int = 0) -> GammaEstimate:
    """The bracket [lower, upper] of the largest 2->1 norm of the groups'
    row-normalized submatrices ``msubs`` (n_groups x g x |T|).

    Their Gram matrices and cheap bounds are formed for all groups at once.
    A group is evaluated in full only while its cheap certified upper bound
    exceeds the best lower bound found so far: first by the phase fixed
    point, whose certificate usually closes the group's bracket, and by the
    SDP only when that bracket stays open.  Every other group is bracketed
    by certificates carried over from the evaluated ones, which moves
    neither end of the reported bracket by more than a relative 1e-12.  That
    includes a group whose carried bracket lies within ``_TIE`` of an
    evaluated group's own at both ends, open or closed: it is settled
    without its own evaluation (a translate sharing the evaluated group's
    Gram matrix is settled so).
    """
    n_groups = len(msubs)
    group_seeds = np.random.SeedSequence((seed, 0x6A11)).spawn(n_groups)
    grams = _gram(msubs)
    # cheap bounds: the row energy and carried-over witnesses from below, the
    # trivial certificates and carried-over diagonals from above
    lowers = np.sqrt(np.sum(np.abs(msubs) ** 2, axis=(1, 2)))
    uppers = np.sqrt(np.min([np.sum(d, axis=1) for d in _trivial_diags(grams)], axis=0))
    pending = np.ones(n_groups, dtype=bool)
    best_lower = 0.0
    while pending.any():
        # highest cheap upper bound first, so the running lower bound rises early
        i = int(np.flatnonzero(pending)[np.argmax(uppers[pending])])
        if uppers[i] <= best_lower * (1 + _TIE):
            break
        pending[i] = False
        lo, u, diag = _certify_group(msubs[i], grams[i], _LOWER_RESTARTS, group_seeds[i])
        if diag is None:
            diag = _sdp_diagonal(grams[i])
        up = math.sqrt(max(float(np.sum(diag)), 0.0))
        lowers[i] = min(max(lo, lowers[i]), up)
        uppers[i] = up
        best_lower = max(best_lower, lowers[i])
        rest = np.flatnonzero(pending)
        uppers[rest] = np.minimum(uppers[rest], _recertified_upper(diag, grams[rest]))
        witnessed = np.linalg.norm(u.conj() @ msubs[rest], axis=1)
        lowers[rest] = np.maximum(lowers[rest], witnessed)
        # a group the carried certificates bracket as tightly as this one's
        # own (its translates, say) is settled without its own evaluation
        settled = (uppers[rest] <= up * (1 + _TIE)) & (lowers[rest] >= lowers[i] * (1 - _TIE))
        pending[rest[settled]] = False
    lower = float(np.max(np.minimum(lowers, uppers)))
    return GammaEstimate(lower, float(np.max(uppers)), None, "sandwich", _first_max(uppers))
