"""Grouping penalty factor: worst-group 2->1 norms of row-normalized submatrices.

The 2->1 operator norm ||M||_{2->1} = max_{||f||_2 = 1} ||Mf||_1 equals, by
duality, max over unimodular u of ||M^H u||_2.  For real matrices the dual
maximum is attained on sign vectors, so small row counts admit exact
enumeration.  In general the norm is bracketed by

  * a lower bound from phase fixed-point iteration over unimodular vectors
    (plus the mean-over-random-signs floor sqrt(sum of squared row norms)),
  * an upper bound from the diagonally constrained semidefinite relaxation
      max { Re tr(m m^H W) : W >= 0, diag(W) = 1 },
    whose square root overshoots the true norm by at most K_p
    (sqrt(pi/2) real, sqrt(4/pi) complex).

The relaxation is solved primally by low-rank row-normalized factorization
(coordinate ascent) and certified from the dual side: any diagonal D with
D >= m m^H gives the valid bound sqrt(trace D), which a log-barrier Newton
rebalancing drives down to the relaxation optimum.  The reported upper bound
is always a certified dual value, never a primal guess.

Both certificates carry over between groups: a unimodular u is a feasible
dual vector for every group, and a diagonal D certified for one Gram matrix
certifies another after one eigenvalue shift.  ``penalty_gamma`` uses them to
evaluate in full only the groups whose cheap bounds could still move the
reported bracket.
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

GAMMA_MODES = ("auto", "exact", "sandwich")
_METHODS = ("exact_sign_enum", "sandwich")
# relative slack within which two bounds count as equal: a group whose cheap
# upper bound is this close to the running lower bound is not evaluated, and
# groups this close to the maximum tie for argmax_group
_TIE = 1e-12


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
    degraded: bool = False

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


def kp_constant(is_real: bool) -> float:
    return KP_REAL if is_real else KP_COMPLEX


def norm_2to1_exact_real(
    m: np.ndarray, enum_limit: int = ENUM_LIMIT_DEFAULT, *, return_info: bool = False
):
    """Exact 2->1 norm of a real matrix by sign enumeration.

    Uses the dual form max_{s in {-1,1}^g} ||m^T s||_2 with s_0 fixed to +1
    by symmetry, so 2^(g-1) candidates.  With ``return_info`` the maximizing
    sign vector is returned as well.
    """
    m = np.asarray(m)
    if np.iscomplexobj(m):
        raise ValueError("sign enumeration is exact only for real matrices")
    g = m.shape[0]
    if g > enum_limit:
        raise ValueError(f"{g} rows exceeds enumeration limit {enum_limit}")
    best, best_s = 0.0, np.ones(g)
    if g > 0 and m.shape[1] > 0:
        total = 1 << (g - 1)
        chunk = 1 << 16
        bits_of = np.arange(g - 1, dtype=np.int64)
        for start in range(0, total, chunk):
            codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
            signs = np.empty((codes.size, g))
            signs[:, 0] = 1.0
            signs[:, 1:] = 1.0 - 2.0 * ((codes[:, None] >> bits_of) & 1)
            vals = signs @ m
            energy = np.einsum("ij,ij->i", vals, vals)
            j = int(np.argmax(energy))
            if energy[j] > best:
                best, best_s = float(energy[j]), signs[j].copy()
    value = math.sqrt(best)
    return (value, best_s) if return_info else value


def _phase(w: np.ndarray) -> np.ndarray:
    a = np.abs(w)
    safe = np.where(a == 0.0, 1.0, a)
    out = w / safe
    if np.iscomplexobj(out):
        out[a == 0.0] = 1.0
    else:
        out = np.where(a == 0.0, 1.0, out)
    return out


def norm_2to1_lower(
    m: np.ndarray,
    restarts: int = 64,
    rng: np.random.Generator | int | None = None,
    *,
    return_info: bool = False,
):
    """Lower bound on the 2->1 norm from unimodular phase iteration.

    Runs the fixed point u <- phase(m m^H u) from an all-ones start plus
    random starts, all at once as the columns of one g x (restarts + 1)
    iteration in which a column stops once it has converged, and returns the
    best ||m^H u||_2; every iterate is a feasible dual vector, so the result
    is always a valid lower bound.  When m is real and restarts >= 2^(g-1),
    the bound is computed exactly by sign enumeration instead.  With
    ``return_info`` the best unimodular vector u is returned as well.
    """
    m = np.asarray(m)
    g = m.shape[0]
    if g == 0 or m.shape[1] == 0:
        return (0.0, np.ones(g)) if return_info else 0.0
    is_real = not np.iscomplexobj(m)
    if is_real and g - 1 <= 24 and (1 << (g - 1)) <= restarts:
        return norm_2to1_exact_real(m, g, return_info=return_info)
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(0 if rng is None else rng)
    starts = [np.ones(g)]
    for _ in range(restarts):
        if is_real:
            starts.append(rng.choice([-1.0, 1.0], size=g))
        else:
            starts.append(np.exp(2j * np.pi * rng.random(g)))
    q = m @ m.conj().T
    u = np.array(starts, dtype=q.dtype).T
    active = np.arange(u.shape[1])
    for _ in range(200):
        u_new = _phase(q @ u[:, active])
        moved = np.max(np.abs(u_new - u[:, active]), axis=0) >= 1e-10
        u[:, active] = u_new
        active = active[moved]
        if active.size == 0:
            break
    vals = np.linalg.norm(m.conj().T @ u, axis=0)
    best = int(np.argmax(vals))
    value = float(vals[best])
    return (value, u[:, best]) if return_info else value


@dataclass(frozen=True)
class SdpBoundInfo:
    dual: float
    primal: float
    gap: float
    degraded: bool
    # certified diagonal: diag(d) >= m m^H and sum(d) == dual
    diag: np.ndarray


def _bm_primal(q: np.ndarray, rank: int, rng: np.random.Generator, sweeps: int = 500) -> float:
    """Row-normalized low-rank coordinate ascent on max tr(q R R^H)."""
    g = q.shape[0]
    is_cx = np.iscomplexobj(q)
    r = rng.standard_normal((g, rank))
    if is_cx:
        r = r + 1j * rng.standard_normal((g, rank))
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    q_off = q - np.diag(np.diag(q))
    obj_prev = -np.inf
    for _ in range(sweeps):
        for i in range(g):
            v = q_off[i] @ r
            nv = np.linalg.norm(v)
            if nv > 0:
                r[i] = v / nv
        obj = float(np.real(np.einsum("ij,jk,ik->", q, r, r.conj())))
        if obj - obj_prev <= 1e-14 * max(1.0, abs(obj)):
            break
        obj_prev = obj
    return float(np.real(np.einsum("ij,jk,ik->", q, r, r.conj())))


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

    def barrier(lam_vec):
        s = np.diag(lam_vec) - qs
        try:
            chol = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return None, np.inf
        logdet = 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))
        return s, t * float(np.sum(lam_vec)) - logdet

    while True:
        for _ in range(60):
            s, phi = barrier(lam)
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
                _, phi_cand = barrier(cand)
                if phi_cand <= phi + 0.25 * alpha * (grad @ step):
                    lam = cand
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
    q = m @ m.conj().T
    return (q + q.conj().T) / 2


def _trivial_diags(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two certified diagonals needing no iteration: lambda_max(q) I, and the
    absolute row sums of q (diag(d) - q is then diagonally dominant)."""
    lam_max = float(np.linalg.eigvalsh(q)[-1])
    return np.full(q.shape[0], lam_max), np.sum(np.abs(q), axis=1)


def _recertified_upper(d: np.ndarray, q: np.ndarray) -> float:
    """Upper bound on the 2->1 norm of any m with m m^H = q from a diagonal d
    certified for another Gram matrix: diag(d) - q shifted by its smallest
    eigenvalue, less a rounding margin, is positive semidefinite."""
    g = d.size
    w_min = float(np.linalg.eigvalsh(np.diag(d) - q)[0])
    margin = 8 * g * np.finfo(float).eps * float(np.max(np.abs(d)))
    return math.sqrt(max(float(np.sum(d)) + g * (margin - w_min), 0.0))


def norm_2to1_upper_sdp(
    m: np.ndarray,
    *,
    restarts: int = 8,
    seed: int = 0,
    gap_tol: float = 1e-6,
    return_info: bool = False,
):
    """Certified upper bound on the 2->1 norm via the diag-constrained SDP.

    The returned value is sqrt of a dual-feasible diagonal trace, so it upper
    bounds the relaxation (and hence the norm) even if the primal ascent
    stalls; the primal side only measures the certification gap.  If dual
    refinement fails the trivial certificate sqrt(g * lambda_max(m m^H)) is
    returned with ``degraded`` set.  With ``return_info`` an ``SdpBoundInfo``
    carrying the certified diagonal is returned as well.
    """
    m = np.asarray(m)
    g = m.shape[0]
    if g == 0 or m.shape[1] == 0:
        info = SdpBoundInfo(0.0, 0.0, 0.0, False, np.zeros(g))
        return (0.0, info) if return_info else 0.0
    q = _gram(m)
    eig_diag, row_sums = _trivial_diags(q)
    trivial = min(float(np.sum(eig_diag)), float(np.sum(row_sums)))
    off_max = float(np.max(np.abs(q - np.diag(np.diag(q)))))
    if g == 1 or off_max <= 1e-14 * max(1.0, eig_diag[0]):
        # diagonal q: the relaxation value is exactly trace(q)
        d = np.maximum(np.real(np.diag(q)), 0.0)
        diag_sum = float(np.sum(d))
        info = SdpBoundInfo(diag_sum, diag_sum, 0.0, False, d)
        return (math.sqrt(diag_sum), info) if return_info else math.sqrt(diag_sum)

    rank = min(g, math.isqrt(2 * g) + 2)
    primal = 0.0
    seq = np.random.SeedSequence((seed, 0x5D9))
    for child in seq.spawn(restarts):
        primal = max(primal, _bm_primal(q, rank, np.random.default_rng(child)))
    candidates = [eig_diag, row_sums]
    try:
        candidates.append(_dual_diag_value(q))
    except np.linalg.LinAlgError:
        warnings.warn("dual rebalancing failed; falling back to the trivial certificate")
    d = min(candidates, key=np.sum)
    dual = float(np.sum(d))
    gap = dual - primal
    degraded = gap > gap_tol * max(1.0, dual)
    if degraded and dual < trivial:
        # the certificate is still valid, just not provably tight
        warnings.warn(f"sdp certification gap {gap:.3e} exceeds tolerance")
    value = math.sqrt(max(dual, 0.0))
    if return_info:
        return value, SdpBoundInfo(dual=dual, primal=primal, gap=gap, degraded=degraded, diag=d)
    return value


def _group_exact(msub: np.ndarray, enum_limit: int) -> float:
    if msub.shape[0] == 1:
        return float(np.linalg.norm(msub))
    return norm_2to1_exact_real(msub, enum_limit)


def _first_max(uppers: np.ndarray) -> int:
    return int(np.flatnonzero(uppers >= np.max(uppers) * (1 - _TIE))[0])


def penalty_gamma(
    e: MeasurementEnsemble,
    t: SupportSet,
    gs: GroupStructure,
    mode: str = "auto",
    *,
    enum_limit: int = ENUM_LIMIT_DEFAULT,
    lower_restarts: int = 64,
    sdp_restarts: int = 8,
    seed: int = 0,
) -> GammaEstimate:
    """Penalty factor: max over groups of the 2->1 norm of the row-normalized
    submatrix A_{G_i, T}.

    ``mode``: "auto" picks exact evaluation when rows are real and g is small
    enough to enumerate (always when g == 1), else the sandwich; "exact" and
    "sandwich" force the respective route.

    The sandwich route evaluates a group in full (SDP certificate plus phase
    iteration) only while its cheap certified upper bound exceeds the best
    lower bound found so far; every other group is bracketed by certificates
    carried over from the evaluated ones, which moves neither end of the
    reported bracket by more than a relative 1e-12.
    """
    if mode not in GAMMA_MODES:
        raise ValueError(f"mode must be one of {GAMMA_MODES}, got {mode!r}")
    if gs.n != e.n:
        raise ValueError(f"structure over {gs.n} rows but ensemble has {e.n}")
    if len(t) == 0:
        raise ValueError("support set is empty")
    if t.indices.max() >= e.n:
        raise IndexError("support index out of range")

    g = gs.g
    is_real_a = not np.iscomplexobj(e.a)
    enum_ok = g == 1 or (is_real_a and g <= enum_limit)
    route = mode
    if mode == "auto":
        route = "exact" if enum_ok else "sandwich"
    if route == "exact" and not enum_ok:
        raise ValueError(
            "exact mode needs a real ensemble with g <= enum_limit (or g == 1)"
        )

    msubs = [normalize_rows(submatrix(e, gs.group(i), t)) for i in range(gs.n_groups)]
    if route == "exact":
        exacts = np.array([_group_exact(msub, enum_limit) for msub in msubs])
        exact = float(np.max(exacts))
        return GammaEstimate(exact, exact, exact, "exact_sign_enum", _first_max(exacts))

    group_seeds = np.random.SeedSequence((seed, 0x6A11)).spawn(gs.n_groups)
    grams = [_gram(msub) for msub in msubs]
    energy = np.array([math.sqrt(float(np.sum(np.abs(msub) ** 2))) for msub in msubs])
    # cheap bounds: the row energy and carried-over witnesses from below, the
    # trivial certificates and carried-over diagonals from above
    lowers = energy.copy()
    uppers = np.array([math.sqrt(min(np.sum(d) for d in _trivial_diags(q))) for q in grams])
    pending = np.ones(gs.n_groups, dtype=bool)
    best_lower = 0.0
    degraded = False
    while pending.any():
        # highest cheap upper bound first, so the running lower bound rises early
        i = int(np.flatnonzero(pending)[np.argmax(uppers[pending])])
        if uppers[i] <= best_lower * (1 + _TIE):
            break
        pending[i] = False
        up, info = norm_2to1_upper_sdp(
            msubs[i], restarts=sdp_restarts, seed=seed + i, return_info=True
        )
        lo, u = norm_2to1_lower(
            msubs[i], lower_restarts, np.random.default_rng(group_seeds[i]), return_info=True
        )
        # valid floors: mean over random signs/phases, and Nesterov's quotient
        # of the relaxation value, which the primal ascent reaches from below
        kp = kp_constant(not np.iscomplexobj(msubs[i]))
        lowers[i] = min(max(lo, energy[i], math.sqrt(max(info.primal, 0.0)) / kp), up)
        uppers[i] = up
        degraded = degraded or info.degraded
        best_lower = max(best_lower, lowers[i])
        for j in np.flatnonzero(pending):
            uppers[j] = min(uppers[j], _recertified_upper(info.diag, grams[j]))
            lowers[j] = max(lowers[j], float(np.linalg.norm(msubs[j].conj().T @ u)))
    lower = float(np.max(np.minimum(lowers, uppers)))
    return GammaEstimate(lower, float(np.max(uppers)), None, "sandwich", _first_max(uppers), degraded)
