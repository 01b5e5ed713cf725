import io
import math

import numpy as np
import pytest

from groupcs.gamma import GammaEstimate
from groupcs import harness, recovery
from groupcs.grouping import (
    contiguous_1d,
    draw_uniform,
    lines_2d,
    rect_2d,
    singletons,
    spiral_2d,
    strided_1d,
)
from groupcs.harness import _trial_chunks
from groupcs.harness import (
    VERDICT_ROUTES,
    MinMResult,
    SignalSpec,
    SolverOptions,
    SupportCase,
    SweepConfig,
    default_m_grid,
    draw_support,
    image_to_sparse,
    random_coefficients,
    records_from_csv,
    records_to_csv_text,
    scatter_gamma_vs_m,
    synthetic_image,
    trial_rng,
)
from groupcs.operators import SupportSet, make_basis, make_ensemble
from groupcs.recovery import nre, solve_trials

from oracles import support_factor_qr, sweep_alone, verdicts_alone


def _dft_ensemble(n):
    return make_ensemble(make_basis("identity", n), make_basis("dft1d", n))


def test_draw_support_zero_sparsity():
    t = draw_support(SignalSpec(n=32, k=0), np.random.default_rng(0))
    assert len(t) == 0


def test_draw_support_subband_containment():
    spec = SignalSpec(
        n=1100, k=55, support_model="subband",
        channel_count=2, channel_width_frac=0.05,
    )
    width = 55
    for seed in range(5):
        idx = draw_support(spec, np.random.default_rng(seed)).indices
        assert len(idx) == 55
        # the support must be coverable by two windows of the channel width:
        # indices beyond the first window all belong to the second channel
        rest = idx[idx >= idx[0] + width]
        assert rest.size == 0 or rest[-1] - rest[0] < width


def test_draw_support_channel_union_too_small():
    spec = SignalSpec(
        n=100, k=40, support_model="subband",
        channel_count=2, channel_width_frac=0.05,
    )
    with pytest.raises(ValueError):
        # 2 channels of width 5 can host at most 10 indices
        draw_support(spec, np.random.default_rng(0))


def _haar(rows, cols, levels=None):
    return make_basis("haar2d", rows=rows, cols=cols, levels=levels)


def test_image_to_sparse_constant_image():
    img = np.full((8, 8), 0.7)
    t, c0 = image_to_sparse(img, 1, _haar(8, 8))
    assert np.array_equal(t.indices, [0])  # all energy in the mean coefficient
    assert c0[0] == pytest.approx(0.7 * 8, rel=1e-12)


@pytest.mark.parametrize("basis", [
    _haar(16, 16), _haar(16, 16, 2), _haar(16, 16, 1), make_basis("dft2d", rows=16, cols=16),
    make_basis("identity", 256),
])
def test_image_to_sparse_keep_all(basis):
    # at k = N the support's coefficients are the image's in the ensemble's
    # own basis, whatever its levels: U c0 is the image
    img = synthetic_image(16, 16, np.random.default_rng(2))
    t, c0 = image_to_sparse(img, 256, basis)
    assert len(t) == 256
    assert np.max(np.abs(basis.synthesize(c0) - img.reshape(-1))) <= 1e-12


def test_image_to_sparse_best_k():
    rng = np.random.default_rng(3)
    img = synthetic_image(32, 32, rng)
    k, b = 51, _haar(32, 32)
    t, c0 = image_to_sparse(img, k, b)
    assert len(t) == k
    err_best = np.linalg.norm(b.synthesize(c0) - img.reshape(-1))
    # orthonormal thresholding beats any competitor subset of the same size
    coeffs = b.analyze(img.reshape(-1))
    for seed in range(20):
        r = np.random.default_rng(100 + seed)
        comp = np.sort(r.permutation(img.size)[:k])
        if np.array_equal(comp, t.indices):
            continue
        c_alt = np.zeros(img.size)
        c_alt[comp] = coeffs[comp]
        err_alt = np.linalg.norm(b.synthesize(c_alt) - img.reshape(-1))
        assert err_best <= err_alt + 1e-12


def test_image_to_sparse_tie_break_low_index():
    img = np.zeros((2, 2))
    img[0, 0] = 1.0  # transform has several equal-magnitude coefficients
    t, c0 = image_to_sparse(img, 2, _haar(2, 2))
    assert np.array_equal(t.indices, [0, 1])


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(m_grid=())
    with pytest.raises(ValueError):
        SweepConfig(m_grid=(8, 8))
    with pytest.raises(ValueError):
        SweepConfig(m_grid=(8, 16), success_quota=0.0)
    cfg = SweepConfig(m_grid=default_m_grid(64, 4))
    assert cfg.m_grid == (16, 32, 48, 64)


def test_find_min_m_full_sampling_always_succeeds():
    e = _dft_ensemble(32)
    gs = strided_1d(32, 4)
    rng = np.random.default_rng(4)
    t = SupportSet(np.sort(rng.permutation(32)[:3]))
    cfg = SweepConfig(m_grid=(32,), trials_per_m=5, success_quota=1.0, master_seed=1)
    res = sweep_alone(e, gs, t, cfg)
    assert res.m_min == 32
    assert res.per_m[0].successes == 5


def test_find_min_m_trial_count_audit():
    # a grid value's counts are those of its first ``executed`` trials, which
    # end at the first chunk (2, 4, 6 trials) after which the quota of 9
    # successes in 12 is decided
    e = _dft_ensemble(32)
    gs = strided_1d(32, 4)
    rng = np.random.default_rng(5)
    t = SupportSet(np.sort(rng.permutation(32)[:3]))
    cfg = SweepConfig(m_grid=(8, 16, 32), trials_per_m=12, success_quota=0.75, master_seed=2)
    res = sweep_alone(e, gs, t, cfg)
    for stats in res.per_m:
        verdicts = verdicts_alone(e, gs, t, stats.m, range(12), master_seed=2)
        ends = [r.stop for r in _trial_chunks(12)]
        successes = [sum(ok for ok, _ in verdicts[:n]) for n in ends]
        decided = [n for n, ok in zip(ends, successes) if n - ok > 3 or ok >= 9]
        assert stats.executed == decided[0]
        ran = verdicts[: stats.executed]
        assert stats.successes == sum(ok for ok, _ in ran)
        assert [getattr(stats, route) for route in VERDICT_ROUTES] == [
            sum(r == route for _, r in ran) for route in VERDICT_ROUTES
        ]
        assert stats.success == (stats.successes >= 9)
    assert any(s.executed < 12 for s in res.per_m)
    assert sum(s.descent for s in res.per_m) > 0
    assert res.m_min is not None


def test_scatter_names_the_grid_entry_it_cannot_draw():
    e = _dft_ensemble(32)
    gs = strided_1d(32, 4)
    sup = SupportCase(SupportSet(np.array([1])), "d0")
    for grid, i, m in (((2, 32), 0, 2), ((4, 6), 1, 6)):
        message = rf"sweep\.m_grid\[{i}\] must be a multiple of strided1d's group size 4 in \[4, 32\], got {m}$"
        with pytest.raises(ValueError, match=message):
            scatter_gamma_vs_m(e, [gs], [sup], SweepConfig(m_grid=grid, master_seed=0))


def test_grid_a_structure_cannot_draw_fails_before_any_gamma(monkeypatch):
    # n=220 on the default grid of g=11 (step 44): contiguous g=5 cannot
    # draw m=44, and the scatter says so before its first penalty factor
    e = _dft_ensemble(220)
    sup = SupportCase(SupportSet(np.array([3, 50, 64])), "d0")

    def no_gamma(*args, **kwargs):
        raise AssertionError("penalty_gamma ran")

    monkeypatch.setattr(harness, "penalty_gamma", no_gamma)
    cfg = SweepConfig(m_grid=default_m_grid(220, 11), master_seed=0)
    structures = [strided_1d(220, 11), contiguous_1d(220, 5)]
    message = r"sweep\.m_grid\[0\] must be a multiple of contiguous1d's group size 5 in \[5, 220\], got 44"
    with pytest.raises(ValueError, match=message):
        scatter_gamma_vs_m(e, structures, [sup], cfg)
    # "auto", the one route choice, is the only mode the scatter takes
    with pytest.raises(ValueError, match="mode must be 'auto', got 'sandwich'"):
        scatter_gamma_vs_m(e, structures[:1], [sup], cfg, mode="sandwich")


def test_sweep_pins_dft2d_verdicts():
    # the complex 2-D regime: 16x16 dft2d/identity, k=8, grid step 16
    e = make_ensemble(make_basis("dft2d", rows=16, cols=16), make_basis("identity", 256))
    structures = [rect_2d(16, 16, 8), lines_2d(16, 16, 16, "vertical"), spiral_2d(16, 16, 16)]
    pinned = {0: [64, 112, 48], 1: [48, 128, 64]}
    for seed, m_mins in pinned.items():
        rng = np.random.default_rng(seed)
        t = SupportSet(np.sort(rng.permutation(256)[:8]))
        cfg = SweepConfig(m_grid=default_m_grid(256, 16, 16), master_seed=seed)
        assert [sweep_alone(e, gs, t, cfg).m_min for gs in structures] == m_mins


def test_pipeline_grouping_hurts_narrowband():
    # adjacent-sample groups need at least as many measurements as ungrouped
    # sampling for supports confined to narrow bands, in most draws
    n, g = 128, 4
    e = _dft_ensemble(n)
    gs_contig = contiguous_1d(n, g)
    base = singletons(n)
    spec = SignalSpec(
        n=n, k=4, support_model="subband",
        channel_count=2, channel_width_frac=0.05,
    )
    cfg = SweepConfig(
        m_grid=default_m_grid(n, g), trials_per_m=12, success_quota=0.9,
        master_seed=5, success_nre=1e-3,
    )
    solver = SolverOptions(max_iters=4000)
    wins = ties = losses = 0
    for d in range(10):
        rng = trial_rng(5, "pipeline-support", 0, d)
        t = draw_support(spec, rng)
        m_grouped = sweep_alone(e, gs_contig, t, cfg, solver=solver).m_min
        m_base = sweep_alone(e, base, t, cfg, solver=solver).m_min
        mg = math.inf if m_grouped is None else m_grouped
        mb = math.inf if m_base is None else m_base
        if mg > mb:
            wins += 1
        elif mg == mb:
            ties += 1
        else:
            losses += 1
    assert wins + ties >= 7, (wins, ties, losses)


def test_scatter_records_shape_and_baseline():
    n, g = 64, 4
    e = _dft_ensemble(n)
    structures = [singletons(n), strided_1d(n, g), contiguous_1d(n, g)]
    rng = np.random.default_rng(8)
    supports = [SupportCase(SupportSet(np.sort(rng.permutation(n)[:4])), f"case{d}") for d in range(2)]
    cfg = SweepConfig(
        m_grid=default_m_grid(n, g), trials_per_m=6, success_quota=5 / 6, master_seed=6
    )
    records = scatter_gamma_vs_m(e, structures, supports, cfg)
    assert len(records) == len(structures) * len(supports)
    for r in records:
        if r.structure_label == "singletons":
            assert r.gamma.exact == pytest.approx(1.0, abs=1e-12)
            assert r.m_min == r.m0  # identical protocol, identical seeds
        assert r.trials == 6
        assert r.seed == 6


def test_csv_round_trip():
    est = GammaEstimate(1.91, 2.0000000001, None, "sandwich", 3)
    exact = GammaEstimate(1.5, 1.5, 1.5, "exact_sign_enum", 0)
    records = [
        __import__("groupcs.harness", fromlist=["SweepRecord"]).SweepRecord(
            "strided1d", "case0", est, 32, 16, 100, 7
        ),
        __import__("groupcs.harness", fromlist=["SweepRecord"]).SweepRecord(
            "contiguous1d", "case1", exact, None, None, 50, 7
        ),
    ]
    text = records_to_csv_text(records)
    parsed = records_from_csv(io.StringIO(text))
    assert records_to_csv_text(parsed) == text
    assert parsed[1].m_min is None and parsed[1].m0 is None
    assert parsed[0].gamma.lower == pytest.approx(1.91, rel=1e-11)
    assert parsed[0].gamma.method == "sandwich"


def test_trial_rng_stable_streams():
    a = trial_rng(1, "strided1d", 16, 0).integers(0, 1 << 30, 4)
    b = trial_rng(1, "strided1d", 16, 0).integers(0, 1 << 30, 4)
    c = trial_rng(1, "strided1d", 16, 1).integers(0, 1 << 30, 4)
    d = trial_rng(1, "contiguous1d", 16, 0).integers(0, 1 << 30, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_synthetic_image_range_and_determinism():
    img1 = synthetic_image(16, 16, np.random.default_rng(42))
    img2 = synthetic_image(16, 16, np.random.default_rng(42))
    assert np.array_equal(img1, img2)
    assert img1.min() >= 0.0 and img1.max() <= 1.0


def test_random_coefficients_match_inline_draw():
    t = SupportSet(np.array([1, 4, 9, 30]))
    real = make_ensemble(make_basis("identity", 32), make_basis("identity", 32))
    for e in (_dft_ensemble(32), real):
        # the inline code this helper replaced
        rng = np.random.default_rng(12)
        ref = np.zeros(e.n, dtype=np.complex128 if np.iscomplexobj(e.a) else np.float64)
        ref[t.indices] = rng.uniform(-1.0, 1.0, len(t))
        tail_ref = rng.integers(0, 1 << 30, 3)
        rng = np.random.default_rng(12)
        c = random_coefficients(e, t, rng)
        assert c.dtype == ref.dtype and np.array_equal(c, ref)
        assert np.array_equal(rng.integers(0, 1 << 30, 3), tail_ref)  # same stream position


def test_trial_chunk_schedule():
    assert [len(r) for r in _trial_chunks(100)] == [2, 4, 8, 16, 32, 32, 6]
    assert [len(r) for r in _trial_chunks(3)] == [2, 1]
    assert [i for r in _trial_chunks(70) for i in r] == list(range(70))


def _find_min_m_trial_by_trial(e, gs, t, cfg):
    # one solve per trial, run to convergence (a proved sweep
    # verdict does not depend on the sweep's iteration budget), stopping at
    # the deciding trial
    needed = math.ceil(cfg.success_quota * cfg.trials_per_m - 1e-9)
    allowed = cfg.trials_per_m - needed
    out = []
    for m in cfg.m_grid:
        successes = failures = 0
        for j in range(cfg.trials_per_m):
            rng = trial_rng(cfg.master_seed, gs.label, m, j)
            omega = draw_uniform(gs, m, rng)
            c = random_coefficients(e, t, rng)
            (res,), _ = solve_trials(e, omega[None], c[None], verdicts=False)
            assert res.converged
            ok = nre(c, res.c_hat) <= cfg.success_nre
            successes += ok
            failures += not ok
            if failures > allowed or successes >= needed:
                break
        out.append((m, successes >= needed))
        if successes >= needed:
            break
    return out


def _sweep_case(kind):
    """DFT n=64 with strided groups, or Haar 8x8 with 2x2 tiles; g=4, k=5."""
    if kind == "dft":
        e, gs = _dft_ensemble(64), strided_1d(64, 4)
        t = SupportSet(np.array([3, 4, 5, 40, 41]))
    else:
        e = make_ensemble(make_basis("identity", 64), make_basis("haar2d", rows=8, cols=8))
        gs = rect_2d(8, 8, 4)
        t = SupportSet(np.array([0, 1, 2, 8, 9]))
    cfg = SweepConfig(
        m_grid=default_m_grid(64, 4, 8), trials_per_m=20, success_quota=0.9, master_seed=13
    )
    return e, gs, t, cfg, SolverOptions(max_iters=3000)


@pytest.mark.parametrize("kind", ["dft", "haar"])
def test_find_min_m_matches_trial_by_trial_loop(kind):
    e, gs, t, cfg, solver = _sweep_case(kind)
    res = sweep_alone(e, gs, t, cfg, solver=solver)
    ref = _find_min_m_trial_by_trial(e, gs, t, cfg)
    assert [(s.m, s.success) for s in res.per_m] == ref
    assert res.m_min == (ref[-1][0] if ref[-1][1] else None)
    assert len(ref) > 1  # the sweep crosses at least one failing grid value


@pytest.mark.parametrize("kind", ["dft", "haar"])
def test_pooled_sweeps_match_one_at_a_time(kind):
    # two sweeps in one pool: each ends exactly as it does alone, though
    # their chunks run beside each other (rows of any m share a block)
    e, gs, t, cfg, solver = _sweep_case(kind)
    other = contiguous_1d(64, 4) if kind == "dft" else lines_2d(8, 8, 4, "vertical")
    pool = recovery.TrialPool(e, solver, verdicts=True)
    pooled = pool.run([harness._sweep(e, s, t, cfg) for s in (gs, other)])
    alone = [sweep_alone(e, s, t, cfg, solver=solver) for s in (gs, other)]
    assert pooled == alone
    assert all(len(res.per_m) > 1 for res in alone)


@pytest.mark.parametrize("budget", [1, 0])
@pytest.mark.parametrize("kind", ["dft", "haar"])
def test_full_pool_starts_requests_in_turn(kind, budget, monkeypatch):
    # with room for one trial at a time, or none, a chunk is drawn only once
    # no other chunk is open, and the requests take turns; each sweep ends
    # as alone
    e, gs, t, cfg, solver = _sweep_case(kind)
    others = [contiguous_1d(64, 4), singletons(64)] if kind == "dft" else [
        lines_2d(8, 8, 4, "vertical"), lines_2d(8, 8, 4, "horizontal")]
    alone = [sweep_alone(e, s, t, cfg, solver=solver) for s in [gs, *others]]
    monkeypatch.setattr(recovery, "_LIVE_ENTRIES", budget)
    tags, submit = [], recovery.TrialPool._submit

    def recorded(self, tag, omegas, coeffs):
        assert not (self.blocks or self.queue or self.decided)
        tags.append(tag)
        submit(self, tag, omegas, coeffs)

    monkeypatch.setattr(recovery.TrialPool, "_submit", recorded)
    pool = recovery.TrialPool(e, solver, verdicts=True)
    pooled = pool.run([harness._sweep(e, s, t, cfg) for s in [gs, *others]])
    assert pooled == alone
    assert tags[:3] == [0, 1, 2]


def test_open_trials_do_not_grow_with_the_number_of_sweeps(monkeypatch):
    # a request draws its next chunk only once the open chunks fit in the
    # pool's budget: with room for one trial, the trials drawn and not yet
    # returned are one chunk at most, for the 2 sweeps of one support as for
    # the 8 of four
    e = _dft_ensemble(16)
    cfg = SweepConfig(m_grid=(8, 16), trials_per_m=4, success_quota=0.5, master_seed=1)
    monkeypatch.setattr(recovery, "_LIVE_ENTRIES", 1)
    held, peaks = [0], []
    draw, verdicts = harness._draw_trials, harness._verdicts

    def drawn(*args):
        omegas, coeffs = draw(*args)
        held[0] += len(coeffs)
        peaks[-1] = max(peaks[-1], held[0])
        return omegas, coeffs

    def returned(*args):
        out = yield from verdicts(*args)
        held[0] -= len(out)
        return out

    monkeypatch.setattr(harness, "_draw_trials", drawn)
    monkeypatch.setattr(harness, "_verdicts", returned)
    for draws in (1, 4):
        supports = [SupportCase(SupportSet(np.array([d, d + 5])), f"d{d}") for d in range(draws)]
        peaks.append(0)
        records = scatter_gamma_vs_m(e, [strided_1d(16, 4)], supports, cfg)
        assert len(records) == draws and held == [0]
    assert peaks == [2, 2]  # one chunk of 2 trials


@pytest.mark.parametrize("kind", ["dft", "haar"])
def test_proved_verdicts_agree_with_solver(kind):
    # every trial of the grid decided by proof, re-solved alone to
    # convergence; a descent trial must fail there too, and a dual trial
    # succeed
    e, gs, t, cfg, solver = _sweep_case(kind)
    routes = dict.fromkeys(VERDICT_ROUTES, 0)
    for m in cfg.m_grid:
        trials = range(cfg.trials_per_m)
        verdicts = verdicts_alone(e, gs, t, m, trials, master_seed=cfg.master_seed, solver=solver)
        for j, (ok, route) in zip(trials, verdicts):
            routes[route] += 1
            if route == "solved":
                continue
            rng = trial_rng(cfg.master_seed, gs.label, m, j)
            omega = draw_uniform(gs, m, rng)
            c = random_coefficients(e, t, rng)
            (res,), _ = solve_trials(e, omega[None], c[None], verdicts=False)
            assert res.converged
            assert (nre(c, res.c_hat) <= cfg.success_nre) == ok, (m, j, route)
    assert routes["certified"] > 0 and routes["certified"] + routes["rank_deficient"] >= 60, routes
    assert routes["descent"] > 0, routes
    if kind == "dft":
        assert routes["dual"] > 0, routes


def test_recover_path_never_stops_on_descent():
    # trials at m=16 of the DFT audit grid, where every route but the rank
    # rule decides some verdict
    e, gs, t, cfg, solver = _sweep_case("dft")
    m, trials = 16, range(20)
    verdicts = verdicts_alone(e, gs, t, m, trials, master_seed=cfg.master_seed, solver=solver)
    assert {"certified", "dual", "descent", "solved"} <= {route for _, route in verdicts}
    # the recovery path: the sweep's draws, solved without verdicts
    omegas, coeffs = harness._draw_trials(e, gs, t, m, trials, cfg.master_seed)
    assert np.array_equal(omegas, [draw_uniform(gs, m, trial_rng(cfg.master_seed, gs.label, m, j))
                                   for j in trials])
    full, _ = solve_trials(e, omegas, coeffs, solver, verdicts=False)
    stopped, routes = solve_trials(e, omegas, coeffs, solver, verdicts=True)
    assert [route for _, route in verdicts] == list(routes)
    for r, early, route in zip(full, stopped, routes):
        if route in ("certified", "rank_deficient"):  # decided before any iteration
            assert early is None and r.iterations > 0
        elif route in ("dual", "descent"):
            assert r.iterations > early.iterations
        else:  # the verdict path solves an undecided trial exactly as the recovery path does
            assert np.array_equal(early.c_hat, r.c_hat)
            assert (early.iterations, early.converged, early.objective) == (
                r.iterations, r.converged, r.objective
            )


def test_zero_column_refutation_matches_qr_path(monkeypatch):
    # the E2 benchmark's configuration: 32x32 identity/Haar, the k=51 support
    # of its image, rect2d and cyclic spiral2d with g=8; most of its trials
    # have an all-zero column in A_S and are refuted without a QR
    e = make_ensemble(make_basis("identity", 1024), make_basis("haar2d", rows=32, cols=32))
    t, c0 = image_to_sparse(synthetic_image(32, 32, np.random.default_rng(7)), 51, e.u)
    structures = [rect_2d(32, 32, 8), spiral_2d(32, 32, 8, cyclic=True)]
    cfg = SweepConfig(m_grid=(64, 256, 1024), trials_per_m=3, success_quota=0.66, master_seed=1)
    kw = dict(master_seed=1, solver=SolverOptions())

    def run():
        sweeps = [sweep_alone(e, gs, t, cfg) for gs in structures]
        verdicts = [verdicts_alone(e, gs, t, m, range(24), **kw) for gs in structures for m in (64, 256)]
        return sweeps, verdicts

    sweeps, verdicts = run()
    routes = [route for trials in verdicts for _, route in trials]
    assert routes.count("rank_deficient") >= 24, routes
    monkeypatch.setattr(recovery._SupportProof, "factor", staticmethod(support_factor_qr))
    assert run() == (sweeps, verdicts)
