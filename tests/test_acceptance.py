"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Criteria are property-based or desk-scale qualitative replications; every
tolerance is fixed here, not calibrated at runtime.
"""

import io
import json
import math
import time

import numpy as np
import pytest

from groupcs import gamma
from groupcs.bounds import validate_cross_row_energy, validate_gram_concentration
from groupcs.cli import main as cli_main
from groupcs.gamma import KP_REAL, penalty_gamma
from groupcs.grouping import contiguous_1d, singletons, strided_1d
from groupcs.harness import (
    SignalSpec,
    SolverOptions,
    SweepConfig,
    default_m_grid,
    draw_support,
    trial_rng,
)
from groupcs.operators import SupportSet, make_basis, make_ensemble, normalize_rows
from groupcs.recovery import solve_trials

from oracles import (
    direct_successes,
    dual_certificate,
    hadamard_matrix,
    l1_min_vertex_oracle,
    norm_2to1_sphere_oracle,
    norm_2to1_exact_real_loop,
    random_orthogonal,
    sweep_alone,
    two_proportion_fisher_pvalue,
    verdicts_alone,
)


def _report(num, name, t0):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.time() - t0:.1f}s)")


def _dft_ensemble(n):
    return make_ensemble(make_basis("identity", n), make_basis("dft1d", n))


def test_c01_gamma_endpoint_identities():
    t0 = time.time()
    n, g = 16, 4
    h = make_basis("custom", entries=hadamard_matrix(n) / math.sqrt(n))
    e = make_ensemble(make_basis("identity", n), h)
    gs = strided_1d(n, g)
    # all rows equal on the constant column: penalty = g, exactly
    est_equal = penalty_gamma(e, SupportSet(np.array([0])), gs)
    assert est_equal.exact == float(g)
    # mutually orthonormal rows on the full support: penalty = sqrt(g)
    est_orth = penalty_gamma(e, SupportSet(np.arange(n)), gs)
    assert abs(est_orth.exact - math.sqrt(g)) <= 1e-9
    _report(1, "gamma endpoint identities", t0)


def test_c02_pietsch_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(2025)
    for i in range(100):
        g = int(rng.integers(2, 9))
        k = int(rng.integers(2, 17))
        m = normalize_rows(rng.standard_normal((g, k)))
        exact = norm_2to1_exact_real_loop(m)
        lower = gamma._sandwich(m[None], seed=i).lower
        upper = math.sqrt(np.sum(gamma._sdp_diagonal(gamma._gram(m))))
        assert lower <= exact + 1e-9
        assert exact <= upper + 1e-9
        assert upper / exact <= KP_REAL + 1e-9
    assert time.time() - t0 < 30
    _report(2, "Pietsch sandwich on 100 instances", t0)


def test_c03_exact_norm_oracle_agreement():
    t0 = time.time()
    rng = np.random.default_rng(303)
    for _ in range(20):
        m = rng.standard_normal((3, 5))
        exact = float(gamma._sign_enumeration(m[None])[0])
        oracle = norm_2to1_sphere_oracle(m, rng, samples=80000, starts=25)
        assert abs(exact - oracle) <= 1e-3 * max(1.0, exact)
    assert time.time() - t0 < 10
    _report(3, "exact norm vs sphere oracle", t0)


def test_c04_basis_pursuit_lp_oracle():
    t0 = time.time()
    for seed in range(25):
        rng = np.random.default_rng(4000 + seed)
        q = random_orthogonal(12, rng)
        e = make_ensemble(make_basis("identity", 12), make_basis("custom", entries=q))
        omega = np.sort(rng.permutation(12)[:6])
        c0 = np.zeros(12)
        c0[rng.permutation(12)[:2]] = rng.uniform(-1, 1, 2)
        (res,), _ = solve_trials(e, omega[None], c0[None], verdicts=False)
        oracle = l1_min_vertex_oracle(q[omega], q[omega] @ c0)
        assert abs(res.objective - oracle) <= 1e-6
    assert time.time() - t0 < 60
    _report(4, "basis pursuit vs LP vertex oracle", t0)


def test_c05_certificate_sufficiency():
    t0 = time.time()
    e = _dft_ensemble(64)
    held = 0
    for seed in range(500):
        rng = np.random.default_rng(50000 + seed)
        k = int(rng.integers(2, 7))
        m = int(rng.integers(4 * k, 57))
        omega = np.sort(rng.permutation(64)[:m])
        t = SupportSet(np.sort(rng.permutation(64)[:k]))
        coeffs = rng.uniform(0.2, 1.0, k) * rng.choice([-1.0, 1.0], k)
        rep = dual_certificate(e, omega, t, np.sign(coeffs))
        if not rep.holds:
            continue
        held += 1
        c0 = np.zeros(64)
        c0[t.indices] = coeffs
        (res,), _ = solve_trials(e, omega[None], c0[None], verdicts=False)
        assert np.linalg.norm(res.c_hat - c0) / np.linalg.norm(c0) <= 1e-4
    assert held >= 200
    assert time.time() - t0 < 300
    _report(5, f"certificate sufficiency ({held}/500 held)", t0)


def test_c06_gram_concentration():
    t0 = time.time()
    n, g, k, trials = 256, 4, 8, 500
    e = _dft_ensemble(n)
    gs = strided_1d(n, g)
    t = SupportSet(np.sort(trial_rng(6, "accept6-support", 0, 0).permutation(n)[:k]))
    rates = []
    for m in (32, 64, 128, 256):
        stats = validate_gram_concentration(e, t, gs, m, trials, trial_rng(6, "accept6", m, 0))
        rates.append(stats.fail_rate)
    for a, b in zip(rates, rates[1:]):
        pooled = max((a + b) / 2, 1e-9)
        sigma = math.sqrt(pooled * (1 - pooled) * 2 / trials)
        assert b <= a + 2 * sigma
    assert rates[-1] == 0.0
    assert time.time() - t0 < 300
    _report(6, f"Gram concentration fail rates {rates}", t0)


def test_c07_cross_row_energy_bound():
    t0 = time.time()
    n, g, k, m, trials = 64, 4, 4, 16, 2000
    e = _dft_ensemble(n)
    gs = strided_1d(n, g)
    rng = trial_rng(7, "accept7-support", 0, 0)
    t = SupportSet(np.sort(rng.permutation(n)[:k]))
    t0i = int(rng.choice(t.complement(n)))
    empirical, bound = validate_cross_row_energy(
        e, t, gs, m, t0i, trials, trial_rng(7, "accept7", m, 0)
    )
    assert empirical <= bound
    assert time.time() - t0 < 120
    _report(7, f"cross-row energy {empirical:.4f} <= bound {bound:.4f}", t0)


def test_c08_qualitative_replication_desk_scale():
    t0 = time.time()
    n, g, k = 220, 11, 11
    e = _dft_ensemble(n)
    contig, strided = contiguous_1d(n, g), strided_1d(n, g)
    spec = SignalSpec(
        n=n, k=k, support_model="subband",
        channel_count=2, channel_width_frac=0.05,
    )
    cfg = SweepConfig(
        m_grid=default_m_grid(n, g), trials_per_m=100,
        success_quota=0.99, master_seed=11,
    )
    solver = SolverOptions(max_iters=6000)
    gamma_wins = m_wins = 0
    for d in range(10):
        rng = trial_rng(11, "accept8-support", 0, d)
        t = draw_support(spec, rng)
        gamma_wins += (
            penalty_gamma(e, t, contig, seed=d).upper
            > penalty_gamma(e, t, strided, seed=d).upper
        )
        mc = sweep_alone(e, contig, t, cfg, solver=solver).m_min
        ms = sweep_alone(e, strided, t, cfg, solver=solver).m_min
        m_wins += (math.inf if mc is None else mc) >= (math.inf if ms is None else ms)
    assert gamma_wins >= 8, gamma_wins
    assert m_wins >= 7, m_wins
    assert time.time() - t0 < 1800
    _report(8, f"narrowband ordering: gamma {gamma_wins}/10, m_min {m_wins}/10", t0)


def test_c09_singleton_equivalence():
    t0 = time.time()
    n, k, m, trials = 64, 4, 12, 200
    e = _dft_ensemble(n)
    base = singletons(n)
    est = penalty_gamma(e, SupportSet(np.arange(0, n, n // k)), base)
    assert est.exact == 1.0  # each normalized row is a unit scalar
    rng = trial_rng(9, "accept9-support", 0, 0)
    t = SupportSet(np.sort(rng.permutation(n)[:k]))
    # every trial draws from its own stream: one call decides each as a sweep would
    s_direct = direct_successes(e, t, m, trials, master_seed=112)
    s_single = sum(ok for ok, _ in verdicts_alone(e, base, t, m, range(trials), master_seed=212))
    p = two_proportion_fisher_pvalue(s_direct, trials, s_single, trials)
    assert p >= 0.05, (s_direct, s_single, p)
    assert time.time() - t0 < 600
    _report(9, f"singleton vs direct sampling p={p:.3f}", t0)


def test_c10_cli_determinism(tmp_path):
    t0 = time.time()
    cfg = {
        "ensemble": {
            "n": 32,
            "measurement": {"kind": "identity"},
            "sparsity": {"kind": "dft1d"},
        },
        "structures": [{"kind": "strided1d", "g": 4}, {"kind": "singletons"}],
        "support": {"model": "unrestricted", "k": 3, "draws": 2},
        "sweep": {"trials_per_m": 6, "success_quota": 0.8},
        "solver": {"max_iters": 4000},
        "seeds": {"master": 10},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    a, b = tmp_path / "gamma-a.csv", tmp_path / "gamma-b.csv"
    assert cli_main(["gamma", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert cli_main(["gamma", "--config", str(cfg_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _report(10, "CLI byte-identical reruns", t0)
