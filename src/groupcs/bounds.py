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
        if min(self.n, self.t_size) < 1 or min(self.mu, self.gamma, self.const) <= 0:
            raise ValueError("bound query fields must be positive")
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


@dataclass(frozen=True)
class ConcentrationStats:
    deviations: np.ndarray
    fail_rate: float
    trials: int

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


def _group_products(e: MeasurementEnsemble, rows: np.ndarray, left, right) -> np.ndarray:
    """A[j, left]^H A[j, right] for each group j (a row of ``rows``), one
    flattened product per row."""
    a_l = e.a[rows[:, :, None], left]
    a_r = a_l if right is left else e.a[rows[:, :, None], right]
    return np.matmul(a_l.conj().transpose(0, 2, 1), a_r).reshape(len(rows), -1)


def _selected_sums(e, t, gs, m, trials, rng, left):
    """Per chunk of trials, in trial order: for each trial, the sum over its
    Bernoulli-selected groups j of A[j, left]^H A[j, T], flattened to one row.

    The selections are drawn one chunk at a time by ``bernoulli_selections``,
    which gives the draws, and the generator state, of ``trials`` successive
    ``draw_bernoulli`` calls.  The per-group products are formed a span of
    groups at a time and weighted by the 0/1 selections in one real GEMM per
    span; when every group fits in one span they are formed once.  Each
    chunk is written to the same buffers, so a yielded array is valid only
    until the next one is requested.
    """
    k = len(t)
    width = len(left) * k
    per_span = max(1, _CHUNK_ENTRIES // max(1, gs.g * (len(left) + k) + width))
    spans = [gs.groups[s : s + per_span] for s in range(0, gs.n_groups, per_span)]
    fixed = _group_products(e, spans[0], left, t.indices) if len(spans) == 1 else None
    per_chunk = min(trials, max(1, _CHUNK_ENTRIES // max(gs.n_groups, width)))
    sums = np.empty((per_chunk, width), dtype=np.result_type(e.a, np.float64))
    part = np.empty_like(sums) if fixed is None else None
    for start in range(0, trials, per_chunk):
        sel = bernoulli_selections(gs, m, min(per_chunk, trials - start), rng)
        sel = sel.astype(np.float64)
        out, col = sums[: len(sel)], 0
        for rows in spans:
            p = fixed if fixed is not None else _group_products(e, rows, left, t.indices)
            target = out if col == 0 else part[: len(sel)]
            # complex terms as (re, im) pairs: the 0/1 weights stay real
            np.matmul(sel[:, col : col + len(rows)], _as_real(p), out=_as_real(target))
            if col:
                out += target
            col += len(rows)
        yield out


def _as_real(x: np.ndarray) -> np.ndarray:
    return x.view(x.real.dtype) if np.iscomplexobj(x) else x


def validate_gram_concentration(
    e: MeasurementEnsemble,
    t: SupportSet,
    gs: GroupStructure,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> ConcentrationStats:
    """Spectral deviation of (N/M) A_{omega,T}^H A_{omega,T} from I under
    Bernoulli group selection; a trial fails when the deviation reaches 1/2.

    A trial's support Gram is the sum of the fixed per-group Grams of its
    selected groups, so a chunk of trials takes one GEMM and one batched
    ``eigvalsh``; the draws are those of successive ``draw_bernoulli`` calls.
    """
    _check_trials(trials)
    if not 0 < m <= e.n:
        raise ValueError(f"m={m} out of range (0, {e.n}]")
    k = len(t)
    eye = np.eye(k)
    deviations = np.empty(trials)
    done = 0
    for grams in _selected_sums(e, t, gs, m, trials, rng, t.indices):
        y = grams.reshape(-1, k, k)
        y *= e.n / m
        y -= eye
        deviations[done : done + len(y)] = np.max(np.abs(np.linalg.eigvalsh(y)), axis=1)
        done += len(y)
    fail_rate = float(np.mean(deviations >= 0.5))
    return ConcentrationStats(deviations, fail_rate, trials)


def validate_cross_row_energy(
    e: MeasurementEnsemble,
    t: SupportSet,
    gs: GroupStructure,
    m: int,
    t0: int,
    trials: int,
    rng: np.random.Generator,
    gamma_value: float | None = None,
) -> tuple[float, float]:
    """Monte-Carlo check of E||v||^2 <= (M/sqrt(N)) mu^3 |T| gamma, where v is
    the t0-th off-support row of A_omega^H A_{omega,T} minus its mean.

    Returns (empirical mean, bound).  When ``gamma_value`` is omitted the
    penalty factor is computed here (exact value when available, else the
    certified upper bound, which keeps the stated bound valid).  A trial's
    row is the sum of the fixed per-group rows of its selected groups, so a
    chunk of trials takes one GEMM; the draws are those of successive
    ``draw_bernoulli`` calls, and the energies are summed in trial order.
    """
    _check_trials(trials)
    if not 0 <= t0 < e.n:
        raise ValueError(f"t0={t0} out of range [0, {e.n})")
    if t0 in set(t.indices.tolist()):
        raise ValueError(f"t0={t0} must lie outside the support")
    if not 0 <= m <= e.n:
        raise ValueError(f"m={m} out of range [0, {e.n}]")
    if gamma_value is None:
        gamma_value = penalty_gamma(e, t, gs, "auto").value
    # mean of the row over the Bernoulli draw: (m/n) times the full-A row,
    # which is zero for exactly orthogonal columns but kept for honesty
    mean_row = (m / e.n) * (e.a[:, t0].conj() @ e.a[:, t.indices])
    acc = 0.0
    for rows in _selected_sums(e, t, gs, m, trials, rng, np.array([t0])):
        rows = rows - mean_row
        for energy in np.real(np.sum(rows.conj() * rows, axis=1)).tolist():
            acc += energy
    empirical = acc / trials
    bound = (m / math.sqrt(e.n)) * e.mu**3 * len(t) * gamma_value
    return empirical, bound
