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
from .grouping import GroupStructure, draw_bernoulli
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


def validate_gram_concentration(
    e: MeasurementEnsemble,
    t: SupportSet,
    gs: GroupStructure,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> ConcentrationStats:
    """Spectral deviation of (N/M) A_{omega,T}^H A_{omega,T} from I under
    Bernoulli group selection; a trial fails when the deviation reaches 1/2."""
    if not 0 < m <= e.n:
        raise ValueError(f"m={m} out of range (0, {e.n}]")
    k = len(t)
    eye = np.eye(k)
    deviations = np.empty(trials)
    for i in range(trials):
        ss = draw_bernoulli(gs, m, rng)
        at = e.a[np.ix_(ss.omega, t.indices)]
        y = (e.n / m) * (at.conj().T @ at) - eye
        deviations[i] = float(np.max(np.abs(np.linalg.eigvalsh(y))))
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
    certified upper bound, which keeps the stated bound valid).
    """
    if t0 in set(t.indices.tolist()):
        raise ValueError(f"t0={t0} must lie outside the support")
    if not 0 <= m <= e.n:
        raise ValueError(f"m={m} out of range [0, {e.n}]")
    if gamma_value is None:
        gamma_value = penalty_gamma(e, t, gs, "auto").value
    # only row t0 of the cross-Gram is needed: a[omega, t0]^H a[omega, T]
    a_t0, a_t = e.a[:, t0].conj(), e.a[:, t.indices]
    # mean of the row over the Bernoulli draw: (m/n) times the full-A row,
    # which is zero for exactly orthogonal columns but kept for honesty
    mean_row = (m / e.n) * (a_t0 @ a_t)
    acc = 0.0
    for _ in range(trials):
        ss = draw_bernoulli(gs, m, rng)
        row = a_t0[ss.omega] @ a_t[ss.omega] - mean_row
        acc += float(np.real(np.vdot(row, row)))
    empirical = acc / trials
    bound = (m / math.sqrt(e.n)) * e.mu**3 * len(t) * gamma_value
    return empirical, bound
