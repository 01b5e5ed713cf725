"""Experiment orchestration: supports and coefficients, minimal-M sweeps,
and the penalty-versus-measurements scatter records.

Every run is a pure function of its configuration and master seed: the seed
for a single trial is derived from (master seed, structure label, m, trial
index) through a stable hash, so a trial's result does not depend on which
other trials are solved with it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from .gamma import GammaEstimate, penalty_gamma
from .grouping import GroupStructure, draw_uniform, singletons
from .operators import MeasurementEnsemble, OrthonormalBasis, SupportSet
from .recovery import VERDICT_ROUTES, SolverOptions, TrialPool, nre  # harness.SolverOptions stays public

SUPPORT_MODELS = ("unrestricted", "subband")


@dataclass(frozen=True)
class SignalSpec:
    """Recipe for a random support of k of n indices, unrestricted or
    confined to randomly placed contiguous sub-band channels."""

    n: int
    k: int
    support_model: str = "unrestricted"
    channel_count: int = 2
    channel_width_frac: float = 0.05

    def __post_init__(self):
        if self.support_model not in SUPPORT_MODELS:
            raise ValueError(f"unknown support model {self.support_model!r}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"sparsity k={self.k} out of range [0, {self.n}]")
        if self.support_model == "subband":
            if self.channel_count < 1 or not 0 < self.channel_width_frac <= 1:
                raise ValueError("invalid sub-band channel parameters")


def draw_support(spec: SignalSpec, rng: np.random.Generator) -> SupportSet:
    n, k = spec.n, spec.k
    if spec.support_model == "unrestricted":
        return SupportSet(np.sort(rng.permutation(n)[:k]))
    width = math.ceil(spec.channel_width_frac * n)
    starts = rng.integers(0, n - width + 1, size=spec.channel_count)
    union = np.unique(np.concatenate([np.arange(s, s + width) for s in starts]))
    if union.size < k:
        raise ValueError(f"channel union of {union.size} indices cannot host k={k}")
    return SupportSet(np.sort(rng.permutation(union)[:k]))


def random_coefficients(
    e: MeasurementEnsemble, t: SupportSet, rng: np.random.Generator
) -> np.ndarray:
    """Coefficients uniform on [-1, 1] over the support, zero elsewhere; complex
    (with zero imaginary part) for a complex ensemble, real otherwise."""
    c = np.zeros(e.n, dtype=e.dtype)
    c[t.indices] = rng.uniform(-1.0, 1.0, len(t))
    return c


def image_to_sparse(
    img: np.ndarray, k: int, basis: OrthonormalBasis
) -> tuple[SupportSet, np.ndarray]:
    """Keep the k largest-magnitude coefficients U^H x of a grayscale image
    x (row-major) in the sparsity basis U, by U's own transform, so that
    U c0 is the image's best k-term approximation in U.

    Ties break toward the lower index.  Returns the support over coefficient
    indices and the thresholded coefficient vector.
    """
    x = np.asarray(img, dtype=np.float64).reshape(-1)
    if x.size != basis.n:
        raise ValueError(f"image of {x.size} pixels does not match a basis of n={basis.n}")
    if not 0 <= k <= basis.n:
        raise ValueError(f"k={k} out of range [0, {basis.n}]")
    coeffs = basis.analyze(x)
    order = np.argsort(-np.abs(coeffs), kind="stable")
    keep = np.sort(order[:k])
    c0 = np.zeros_like(coeffs)
    c0[keep] = coeffs[keep]
    return SupportSet(keep), c0


def synthetic_image(
    rows: int, cols: int, rng: np.random.Generator, n_rects: int = 6
) -> np.ndarray:
    """Piecewise-constant test image: random gray rectangles on a gray base."""
    img = np.full((rows, cols), 0.25)
    for _ in range(n_rects):
        r0, r1 = np.sort(rng.integers(0, rows + 1, 2))
        c0, c1 = np.sort(rng.integers(0, cols + 1, 2))
        img[r0:r1, c0:c1] = rng.uniform(0.0, 1.0)
    return img


@dataclass(frozen=True)
class SweepConfig:
    """Protocol for locating the minimal sample count.

    Success at a given m means at least ``success_quota`` of ``trials_per_m``
    independent draws recover with error below ``success_nre``.  The grid
    defaults to multiples of 4g spanning (0, n].
    """

    m_grid: tuple[int, ...]
    trials_per_m: int = 100
    success_nre: float = 1e-3
    success_quota: float = 0.99
    master_seed: int = 0

    def __post_init__(self):
        grid = tuple(int(m) for m in self.m_grid)
        object.__setattr__(self, "m_grid", grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("m_grid must be nonempty and strictly ascending")
        if not 0 < self.success_quota <= 1:
            raise ValueError(f"success_quota must lie in (0, 1], got {self.success_quota!r}")
        _check_tolerance("success_nre", self.success_nre)
        if self.trials_per_m < 1:
            raise ValueError("trials_per_m must be positive")


def _check_tolerance(name: str, value: float):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def default_m_grid(n: int, g: int, step: int | None = None) -> tuple[int, ...]:
    step = 4 * g if step is None else step
    return tuple(range(step, n + 1, step))


@dataclass(frozen=True)
class MStats:
    """Trials at one grid value: how many ran and succeeded, the quota
    indicator, and how the verdicts were reached (certified + rank_deficient
    + dual + descent + solved == executed)."""

    m: int
    successes: int
    executed: int
    success: bool
    certified: int
    rank_deficient: int
    dual: int
    descent: int
    solved: int


@dataclass(frozen=True)
class MinMResult:
    m_min: int | None
    per_m: tuple[MStats, ...]


def _label_digest(label: str) -> int:
    return int.from_bytes(hashlib.blake2s(label.encode(), digest_size=8).digest(), "big")


def trial_rng(master_seed: int, label: str, m: int, trial: int) -> np.random.Generator:
    """Deterministic per-trial stream from (master seed, label, m, trial)."""
    seq = np.random.SeedSequence((master_seed, _label_digest(label), m, trial))
    return np.random.default_rng(seq)


def _draw_trials(
    e: MeasurementEnsemble,
    structure: GroupStructure | None,
    t: SupportSet,
    m: int,
    trials: range,
    master_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows (one row of indices per trial) and true coefficients of the trials.

    Trial j draws its rows and then its coefficients from
    ``trial_rng(master_seed, label, m, j)``.  ``structure=None`` samples m
    rows uniformly at random (label ``direct_index``), else whole groups are
    drawn.
    """
    label = "direct_index" if structure is None else structure.label
    omegas, coeffs = [], []
    for j in trials:
        rng = trial_rng(master_seed, label, m, j)
        if structure is None:
            omegas.append(np.sort(rng.permutation(e.n)[:m]))
        else:
            omegas.append(draw_uniform(structure, m, rng).omega)
        coeffs.append(random_coefficients(e, t, rng))
    return np.array(omegas), np.array(coeffs)


def trial_verdicts(
    e: MeasurementEnsemble,
    structure: GroupStructure | None,
    t: SupportSet,
    m: int,
    trials: range,
    *,
    master_seed: int = 0,
    success_nre: float = 1e-3,
    solver: SolverOptions | None = None,
) -> list[tuple[bool, str]]:
    """Success of each trial and the route that decided it, one of
    ``VERDICT_ROUTES``.

    Trials are drawn by ``_draw_trials`` and decided together in a
    ``recovery.TrialPool``, which stops each trial at the first proof, as
    ``recovery.solve_trials`` with verdicts does: "rank_deficient" (a failure:
    the true coefficients are not an l1 minimizer), "certified" (a success:
    the least-squares dual certificate proves they are the unique minimizer,
    with no iteration), "dual" (a success: a certificate built from the ADMM
    dual iterate proves it), or "descent" (a failure: an iterate proves a
    feasible point of smaller l1 norm).  A proved verdict holds even where
    a solve without verdicts would exhaust its iteration budget.  The other
    trials are "solved" and succeed when the normalized error is at most
    ``success_nre``.
    """
    request = _verdicts(e, structure, t, m, trials, master_seed, success_nre)
    return TrialPool(e, solver, verdicts=True).run([request])[0]


def _verdicts(e, structure, t, m, trials, master_seed, success_nre):
    """Request of ``trial_verdicts`` for ``TrialPool.run``: once there is
    room, yields the drawn rows and coefficients of the trials, receives
    their results and routes, and returns the verdicts."""
    yield  # wait for room in the pool before drawing
    omegas, coeffs = _draw_trials(e, structure, t, m, trials, master_seed)
    results, routes = yield omegas, coeffs
    # by unitarity of the sparsity basis this equals the signal-domain error
    return [
        (route in ("certified", "dual") or (route == "solved" and nre(c, r.c_hat) <= success_nre),
         route)
        for c, r, route in zip(coeffs, results, routes)
    ]


_FIRST_CHUNK, _MAX_CHUNK = 2, 32


def _trial_chunks(trials: int):
    """Consecutive trial ranges of sizes 2, 4, 8, 16, 32, 32, ... covering
    range(trials): small first, where the quota is often decided early."""
    start, size = 0, _FIRST_CHUNK
    while start < trials:
        yield range(start, min(start + size, trials))
        start += size
        size = min(2 * size, _MAX_CHUNK)


def find_min_m(
    e: MeasurementEnsemble,
    gs: GroupStructure,
    t: SupportSet,
    cfg: SweepConfig,
    *,
    solver: SolverOptions | None = None,
) -> MinMResult:
    """First grid value whose success quota is met; None when all saturate.

    Trials at each m are decided as by ``trial_verdicts`` in chunks of 2, 4,
    8, 16, 32, 32, ... trials, and a grid value is abandoned after the first
    chunk at which the quota is arithmetically decided.  A trial's verdict
    does not depend on its chunk, so the success indicator is exactly the
    one of a trial-by-trial loop; ``executed`` (and ``successes`` and the
    route counts) also count the trials after the deciding one in the same
    chunk.
    """
    _check_grid(gs, cfg)
    return TrialPool(e, solver, verdicts=True).run([_sweep(e, gs, t, cfg)])[0]


def _check_grid(gs: GroupStructure, cfg: SweepConfig):
    """Reject a grid value that ``gs`` cannot draw."""
    for m in cfg.m_grid:
        if not gs.g <= m <= gs.n or m % gs.g:
            raise ValueError(f"{gs.label} cannot draw m={m}: the grid must hold multiples "
                             f"of the group size {gs.g} in [{gs.g}, {gs.n}]")


def _sweep(e, gs, t, cfg: SweepConfig):
    """Request of ``find_min_m`` for ``TrialPool.run``; returns the
    MinMResult."""
    if len(t) == 0:
        raise ValueError("sweeps need a nonempty support")
    needed = math.ceil(cfg.success_quota * cfg.trials_per_m - 1e-9)
    allowed_failures = cfg.trials_per_m - needed
    per_m = []
    for m in cfg.m_grid:
        successes = executed = 0
        routes = dict.fromkeys(VERDICT_ROUTES, 0)
        for chunk in _trial_chunks(cfg.trials_per_m):
            verdicts = yield from _verdicts(e, gs, t, m, chunk, cfg.master_seed, cfg.success_nre)
            for ok, route in verdicts:
                successes += ok
                routes[route] += 1
            executed += len(chunk)
            failures = executed - successes
            if failures > allowed_failures or successes >= needed:
                break
        # once failures exceed the allowance, successes can never reach the
        # quota, so the indicator is exactly the full-protocol one
        success = successes >= needed
        per_m.append(MStats(m, successes, executed, success, **routes))
        if success:
            return MinMResult(m, tuple(per_m))
    return MinMResult(None, tuple(per_m))


@dataclass(frozen=True)
class SupportCase:
    """A support, its own coefficients c0 (the signal ``recover`` measures;
    sweep trials draw their own) and its name in the CSV rows."""

    t: SupportSet
    c0: np.ndarray
    descriptor: str


@dataclass(frozen=True)
class SweepRecord:
    structure_label: str
    support_descriptor: str
    gamma: GammaEstimate
    m_min: int | None
    m0: int | None
    trials: int
    seed: int


def scatter_gamma_vs_m(
    e: MeasurementEnsemble,
    structures: list[GroupStructure],
    supports: list[SupportCase],
    cfg: SweepConfig,
    *,
    mode: str = "auto",
    solver: SolverOptions | None = None,
    threads: int = 1,
    gamma_seed: int = 0,
) -> list[SweepRecord]:
    """One record per (structure, support): penalty factor, minimal M, and the
    size-1-group baseline M0 computed with the identical protocol.

    Every structure's grid is checked, then every penalty factor computed.
    Then the baseline sweep of each
    support and the sweep of each other (structure, support) run together
    in one ``TrialPool``, so one sweep's slow trials iterate beside the
    next chunks of the others; each sweep's result is the one it gets alone.
    ``threads`` is ignored; it stays accepted because ``bench/workloads.py``
    passes ``threads=1``.  Two structures with one label are rejected: their
    rows could not be told apart, and they would draw the same trials."""
    labels = [gs.label for gs in structures]
    if len(set(labels)) < len(labels):
        twice = sorted({label for label in labels if labels.count(label) > 1})
        raise ValueError(f"structures share the label {', '.join(twice)}; their rows would be indistinguishable")
    base = singletons(e.n)
    for gs in [base, *structures]:
        _check_grid(gs, cfg)
    gammas = [[penalty_gamma(e, sup.t, gs, mode, seed=gamma_seed) for gs in structures]
              for sup in supports]
    baseline = {}  # one baseline sweep per support descriptor
    for sup in supports:
        baseline.setdefault(sup.descriptor, sup)
    jobs = [(base, sup) for sup in baseline.values()]
    jobs += [(gs, sup) for sup in supports for gs in structures if gs.label != base.label]
    pool = TrialPool(e, solver, verdicts=True)
    results = iter(pool.run([_sweep(e, gs, sup.t, cfg) for gs, sup in jobs]))
    m0 = {descriptor: next(results).m_min for descriptor in baseline}
    records = []
    for sup, row in zip(supports, gammas):
        for gs, est in zip(structures, row):
            records.append(
                SweepRecord(
                    structure_label=gs.label,
                    support_descriptor=sup.descriptor,
                    gamma=est,
                    m_min=m0[sup.descriptor] if gs.label == base.label else next(results).m_min,
                    m0=m0[sup.descriptor],
                    trials=cfg.trials_per_m,
                    seed=cfg.master_seed,
                )
            )
    return records


# the CSV columns of a penalty factor, in the order gamma_cells writes them
GAMMA_COLUMNS = ("gamma_lower", "gamma_upper", "gamma_exact", "gamma_method", "gamma_argmax_group")
_CSV_COLUMNS = ("structure", "support", *GAMMA_COLUMNS, "m_min", "m0", "trials", "seed")


def format_float(x: float) -> str:
    return f"{x:.12g}"


def gamma_cells(est: GammaEstimate) -> list:
    """A penalty factor's CSV cells under GAMMA_COLUMNS: lower, upper, exact
    ("" when unknown), method and argmax group."""
    exact = "" if est.exact is None else format_float(est.exact)
    return [format_float(est.lower), format_float(est.upper), exact, est.method, est.argmax_group]


def records_to_csv(records: list[SweepRecord], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.structure_label,
                r.support_descriptor,
                *gamma_cells(r.gamma),
                "saturated" if r.m_min is None else r.m_min,
                "saturated" if r.m0 is None else r.m0,
                r.trials,
                r.seed,
            ]
        )


def records_from_csv(fh) -> list[SweepRecord]:
    reader = csv.reader(fh)
    header = next(reader)
    if tuple(header) != _CSV_COLUMNS:
        raise ValueError(f"unexpected sweep CSV header {header}")
    out = []
    for row in reader:
        vals = dict(zip(_CSV_COLUMNS, row))
        est = GammaEstimate(
            lower=float(vals["gamma_lower"]),
            upper=float(vals["gamma_upper"]),
            exact=None if vals["gamma_exact"] == "" else float(vals["gamma_exact"]),
            method=vals["gamma_method"],
            argmax_group=int(vals["gamma_argmax_group"]),
        )
        out.append(
            SweepRecord(
                structure_label=vals["structure"],
                support_descriptor=vals["support"],
                gamma=est,
                m_min=None if vals["m_min"] == "saturated" else int(vals["m_min"]),
                m0=None if vals["m0"] == "saturated" else int(vals["m0"]),
                trials=int(vals["trials"]),
                seed=int(vals["seed"]),
            )
        )
    return out


def records_to_csv_text(records: list[SweepRecord]) -> str:
    buf = io.StringIO()
    records_to_csv(records, buf)
    return buf.getvalue()
