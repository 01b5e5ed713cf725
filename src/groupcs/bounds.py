"""Measurement-count bound evaluators and their Monte-Carlo validations.

All bounds use the natural logarithm and expose the leading constant as an
explicit knob (default 1), since the guarantees are stated up to an
unspecified universal constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gamma import penalty_gamma
from .grouping import GroupStructure, bernoulli_selections
from .operators import MeasurementEnsemble, SupportSet


@dataclass(frozen=True)
class BoundQuery:
    n: int
    t_size: int
    mu: float
    gamma: float
    delta: float
    const: float = 1.0

    def __post_init__(self):
        reals = (self.mu, self.gamma, self.const)
        if min(self.n, self.t_size) < 1 or not all(math.isfinite(x) and x > 0 for x in reals):
            raise ValueError("bound query fields must be positive and finite")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")


def bound_unstructured(q: BoundQuery) -> float:
    """Sample count for classical independent row selection:
    const * N * mu^2 * |T| * ln(N / delta)."""
    return q.const * q.n * q.mu**2 * q.t_size * math.log(q.n / q.delta)


def bound_grouped(q: BoundQuery) -> float:
    """Sample count under grouped selection:
    gamma * const * mu^3 * N^(3/2) * |T| * ln(N / delta)."""
    return q.gamma * q.const * q.mu**3 * q.n**1.5 * q.t_size * math.log(q.n / q.delta)


def bound_gram(q: BoundQuery) -> float:
    """Sample count making the support Gram matrix concentrate:
    (28/3) * gamma * N * mu^2 * |T| * ln(|T| / delta)."""
    return (28.0 / 3.0) * q.gamma * q.n * q.mu**2 * q.t_size * math.log(q.t_size / q.delta)


# a Gram trial fails at a deviation of 1/2 less this margin, so an exact tie
# (sums of roots of unity give them) fails however it rounds
_TIE_MARGIN = 1e-12

# a Gram trial whose largest |H_ii| is within this share of the eigenvalue
# ceiling max(c, 1) takes |H_ii| as its deviation: the spectral radius lies
# between the two, far inside the rounding of a dense ``eigvalsh``
_CEILING_MARGIN = 1e-13


@dataclass(frozen=True)
class ConcentrationStats:
    deviations: np.ndarray
    fail_rate: float
    trials: int
    ties: int

    def __post_init__(self):
        dev = np.asarray(self.deviations, dtype=np.float64)
        object.__setattr__(self, "deviations", dev)
        if np.any(dev < 0):
            raise ValueError("deviations must be nonnegative")
        if not 0.0 <= self.fail_rate <= 1.0:
            raise ValueError("fail_rate must lie in [0, 1]")
        dev.setflags(write=False)


# every working array of a validator's trial loop holds at most this many
# entries (or one group's rows), so memory grows neither with the trials nor
# with the number of groups
_CHUNK_ENTRIES = 1 << 20


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials={trials} must be at least 1")


def _group_products(a_l: np.ndarray, a_r: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A[j, L]^H A[j, R] for each group j (a row of ``rows``), one flattened
    product per row, from the columns a_l = A[:, L] and a_r = A[:, R]."""
    g_l = a_l[rows]
    g_r = g_l if a_r is a_l else a_r[rows]
    return np.matmul(g_l.conj().transpose(0, 2, 1), g_r).reshape(len(rows), -1)


def _selected_sums(a_l, a_t, gs, m, trials, rng, entries=None):
    """Per chunk of trials, in trial order: for each trial, the sum over its
    Bernoulli-selected groups j of A[j, L]^H A[j, T], from the columns
    a_l = A[:, L] and a_t = A[:, T], flattened to one row and restricted to
    the flat positions ``entries`` when they are given.

    The selections are drawn one chunk at a time by ``bernoulli_selections``,
    which gives the draws, and the generator state, of ``trials`` successive
    one-trial draws.  The per-group products are formed a span of
    groups at a time.  When the table of every group's kept terms fits in
    ``_CHUNK_ENTRIES`` it is formed once, and each chunk weights it by the 0/1
    selections in one real GEMM; otherwise each chunk forms the spans again,
    one GEMM per span.  Each chunk is written to the same buffers, so a
    yielded array is valid only until the next one is requested.
    """
    k = a_t.shape[1]
    width = a_l.shape[1] * k
    formed = width if entries is None else len(entries)
    # a table of kept terms that fits the bound is formed once, in spans
    # whose products are no larger than the table
    fits = gs.n_groups * formed <= _CHUNK_ENTRIES
    span_entries = gs.n_groups * formed if fits else _CHUNK_ENTRIES
    per_span = max(1, span_entries // max(1, gs.g * (a_l.shape[1] + k) + width))
    starts = range(0, gs.n_groups, per_span)
    dtype = np.result_type(a_l.dtype, a_t.dtype, np.float64)

    def products(start):
        p = _group_products(a_l, a_t, gs.groups[start : start + per_span])
        return p if entries is None else np.take(p, entries, axis=1)

    fixed = None
    if fits or len(starts) == 1:
        fixed = np.empty((gs.n_groups, formed), dtype=dtype)
        for start in starts:
            fixed[start : start + per_span] = products(start)
    # chunks are sized by the full product, as the caller may unpack to it
    per_chunk = min(trials, max(1, _CHUNK_ENTRIES // max(gs.n_groups, width)))
    sums = np.empty((per_chunk, formed), dtype=dtype)
    part = np.empty_like(sums) if fixed is None else None
    for start in range(0, trials, per_chunk):
        sel = bernoulli_selections(gs, m, min(per_chunk, trials - start), rng)
        sel = sel.astype(np.float64)
        out = sums[: len(sel)]
        terms = [(0, fixed)] if fixed is not None else ((col, products(col)) for col in starts)
        for col, p in terms:
            target = out if col == 0 else part[: len(sel)]
            # complex terms as (re, im) pairs: the 0/1 weights stay real
            np.matmul(sel[:, col : col + len(p)], _as_real(p), out=_as_real(target))
            if col:
                out += target
        yield out


def _as_real(x: np.ndarray) -> np.ndarray:
    return x.view(x.real.dtype) if np.iscomplexobj(x) else x


def _spectral_radii(h: np.ndarray, k: int, out: np.ndarray) -> None:
    """Spectral radius of each Hermitian k x k matrix H whose lower triangle,
    in ``np.tril_indices`` order, is a row of ``h``, into ``out``.

    An atom i whose off-diagonal entries in H are all exactly zero is
    isolated: e_i is an eigenvector with eigenvalue H_ii.  So the radius is
    the larger of |H_ii| over the isolated atoms and the radius of H on the
    coupled ones, which one batched ``eigvalsh`` per coupled-atom count
    takes; with every atom coupled it gets H's own lower triangle.
    """
    lower = np.tril_indices(k)
    diagonal = np.flatnonzero(lower[0] == lower[1])
    # a packed entry (i, j) with i > j couples atoms i and j; a diagonal one none
    atom = np.arange(k)
    touches = ((lower[0][:, None] == atom) != (lower[1][:, None] == atom)).astype(np.float32)
    # packed position of (i, j) and of its mirror (j, i): the upper triangle
    # of a gathered submatrix is never read, as ``eigvalsh`` reads the lower
    packed = np.empty((k, k), dtype=np.intp)
    packed[lower] = packed[lower[1], lower[0]] = np.arange(len(lower[0]))
    coupled = (h != 0).astype(np.float32) @ touches > 0
    # ``eigvalsh`` reads only the real part of a diagonal entry
    np.max(np.where(coupled, 0.0, np.abs(h[:, diagonal].real)), axis=1, out=out)
    sizes = np.count_nonzero(coupled, axis=1)
    for c in np.unique(sizes[sizes > 0]).tolist():
        rows = np.flatnonzero(sizes == c)
        atoms = np.nonzero(coupled[rows])[1].reshape(len(rows), c)
        at = rows[:, None, None] * h.shape[1] + packed[atoms[:, :, None], atoms[:, None, :]]
        radius = np.max(np.abs(np.linalg.eigvalsh(np.take(h, at))), axis=1)
        out[rows] = np.maximum(out[rows], radius)


def validate_gram_concentration(
    e: MeasurementEnsemble,
    t: SupportSet,
    gs: GroupStructure,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> ConcentrationStats:
    """Spectral deviation of (N/M) A_{omega,T}^H A_{omega,T} from I under
    Bernoulli group selection; a trial fails when the deviation reaches 1/2
    less ``_TIE_MARGIN``, and one within that margin of 1/2 is a tie.

    A trial's support Gram is the sum of the fixed per-group Grams of its
    selected groups, so a chunk of trials takes one GEMM; the draws are those
    of ``bernoulli_selections``.  Only the entries (i, j) of the
    lower triangle whose columns i and j of A_T share a nonzero row can be
    nonzero in any per-group Gram, so only those are summed.

    The groups partition the rows, so 0 <= G_omega <= A_T^H A_T and every
    eigenvalue of H = (N/M) G_omega - I lies in [-1, c], with
    c = (N/M) lambda_max(A_T^H A_T) - 1.  Each |H_ii| is a lower bound on the
    spectral radius, so a trial whose largest |H_ii| reaches max(c, 1) (less
    ``_CEILING_MARGIN``) has that deviation; only the others go to a batched
    ``eigvalsh`` on their coupled atoms (``_spectral_radii``).
    """
    _check_trials(trials)
    if not 0 < m <= e.n:
        raise ValueError(f"m={m} out of range (0, {e.n}]")
    k = len(t)
    if k == 0:
        raise ValueError("support set is empty")
    lower = np.tril_indices(k)
    on_diagonal = lower[0] == lower[1]
    a_t = e.columns(t.indices)
    support = (a_t != 0).astype(np.float32)
    live = np.flatnonzero(((support.T @ support) > 0)[lower] | on_diagonal)
    diagonal = np.searchsorted(live, np.flatnonzero(on_diagonal))
    ceiling = max(e.n / m * np.linalg.eigvalsh(a_t.conj().T @ a_t)[-1] - 1.0, 1.0)
    deviations = np.empty(trials)
    done = 0
    for sums in _selected_sums(a_t, a_t, gs, m, trials, rng, (lower[0] * k + lower[1])[live]):
        sums *= e.n / m
        sums[:, diagonal] -= 1.0
        out = deviations[done : done + len(sums)]
        # ``eigvalsh`` reads only the real part of a diagonal entry
        np.max(np.abs(sums[:, diagonal].real), axis=1, out=out)
        rest = np.flatnonzero(out < ceiling * (1.0 - _CEILING_MARGIN))
        if len(rest):
            h = np.zeros((len(rest), len(on_diagonal)), dtype=sums.dtype)
            h[:, live] = sums[rest]
            radii = np.empty(len(rest))
            _spectral_radii(h, k, radii)
            out[rest] = radii
        done += len(sums)
    fail_rate = float(np.mean(deviations >= 0.5 - _TIE_MARGIN))
    ties = int(np.count_nonzero(np.abs(deviations - 0.5) <= _TIE_MARGIN))
    return ConcentrationStats(deviations, fail_rate, trials, ties)


def validate_cross_row_energy(
    e: MeasurementEnsemble,
    t: SupportSet,
    gs: GroupStructure,
    m: int,
    t0: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo check of E||v||^2 <= (M/sqrt(N)) mu^3 |T| gamma, where v is
    the t0-th off-support row of A_omega^H A_{omega,T} minus its mean.

    Returns (empirical mean, bound).  gamma is ``penalty_gamma``'s value
    (the exact value when available, else the certified upper bound, which
    keeps the stated bound valid).  A trial's row is the sum of the fixed
    per-group rows of its selected groups, so a chunk of trials takes one
    GEMM; the draws are those of ``bernoulli_selections``, and the energies
    are summed in trial order.
    """
    _check_trials(trials)
    if not 0 <= t0 < e.n:
        raise ValueError(f"t0={t0} out of range [0, {e.n})")
    if t0 in set(t.indices.tolist()):
        raise ValueError(f"t0={t0} must lie outside the support")
    if not 0 <= m <= e.n:
        raise ValueError(f"m={m} out of range [0, {e.n}]")
    penalty = penalty_gamma(e, t, gs).value
    # mean of the row over the Bernoulli draw: (m/n) times the full-A row,
    # which is zero for exactly orthogonal columns but kept for honesty
    a_t0, a_t = e.columns([t0]), e.columns(t.indices)
    mean_row = (m / e.n) * (a_t0[:, 0].conj() @ a_t)
    acc = 0.0
    for rows in _selected_sums(a_t0, a_t, gs, m, trials, rng):
        rows = rows - mean_row
        for energy in np.real(np.sum(rows.conj() * rows, axis=1)).tolist():
            acc += energy
    empirical = acc / trials
    bound = (m / math.sqrt(e.n)) * e.mu**3 * len(t) * penalty
    return empirical, bound
