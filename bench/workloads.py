"""Workload definitions: the JSON config each workload hands the CLI builders,
the public calls its commands make, and the checks on their outputs.

A config is a pure function of (workload, seed).  The signal of each workload
is fixed here: the E1 support as data, the E2 image by IMAGE_SEED.  The run
seed becomes ``seeds.master``, from which the commands derive every random choice
(per-trial group draws and coefficients, penalty-factor restarts, validator
draws) exactly as the CLI does.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from groupcs import cli, harness, pgm

REFERENCE_SEED = 7

# One sub-band support of the E1 protocol: k=11 inside two 5%-wide channels of
# n=220 (the support groupcs draws for master seed 7, draw 0), frozen here so
# the benchmark input does not move when the library's generator does.
E1_SUPPORT = [14, 15, 18, 19, 21, 22, 116, 117, 123, 125, 126]
IMAGE_SEED = 7


def write_image(path: Path, rows: int, cols: int) -> str:
    """Write the workload image, drawn from IMAGE_SEED, as a PGM; returns its path."""
    img = harness.synthetic_image(rows, cols, np.random.default_rng(IMAGE_SEED))
    pgm.write_pgm(path, img)
    return str(path)


def _haar_ensemble(rows: int, cols: int) -> dict:
    return {
        "rows": rows,
        "cols": cols,
        "measurement": {"kind": "identity"},
        "sparsity": {"kind": "haar2d"},
    }


def e1_config(seed: int, out: Path) -> dict:
    return {
        "ensemble": {
            "n": 220,
            "measurement": {"kind": "identity"},
            "sparsity": {"kind": "dft1d"},
        },
        "structures": [
            {"kind": "strided1d", "g": 11},
            {"kind": "contiguous1d", "g": 11},
            {"kind": "singletons"},
        ],
        "support": {"indices": E1_SUPPORT},
        "sweep": {"trials_per_m": 100, "success_quota": 0.99},
        "solver": {"max_iters": 6000},
        "seeds": {"master": seed},
    }


def e2_sweep_config(seed: int, out: Path) -> dict:
    return {
        "ensemble": _haar_ensemble(32, 32),
        "structures": [
            {"kind": "rect2d", "g": 8},
            {"kind": "spiral2d", "g": 8, "cyclic": True},
        ],
        "support": {"image": write_image(out / "e2-image-32x32.pgm", 32, 32), "k": 51},
        "sweep": {"m_grid": [64, 256, 1024], "trials_per_m": 3, "success_quota": 0.66},
        "validate": {"m": 128, "m_grid": [128, 256], "trials": 500},
        "seeds": {"master": seed},
    }


@dataclass
class Inputs:
    cfg: dict
    seed: int
    e: object
    structures: list
    supports: list
    sweep_cfg: object
    solver: object


def setup(cfg_path: Path, span) -> Inputs:
    """Build ensemble, structures, supports and protocol as the CLI does."""
    cfg = cli.load_config(cfg_path)
    seed = cli.master_seed_of(cfg, None)
    with span("operators.ensemble"):
        e, rows, cols, _ = cli.build_ensemble(cfg)
    with span("grouping.structures"):
        structures = cli.build_structures(cfg, e.n, rows, cols)
    with span("harness.supports"):
        supports = cli.build_supports(cfg, e, rows, cols, seed)
    sweep_cfg = cli.build_sweep_config(cfg, e.n, max(gs.g for gs in structures), seed)
    return Inputs(cfg, seed, e, structures, supports, sweep_cfg, cli.build_solver(cfg))


def run_sweep(inp: Inputs, span) -> list[dict]:
    """The ``sweep`` command: one scatter_gamma_vs_m call, rows as its CSV."""
    records = harness.scatter_gamma_vs_m(
        inp.e,
        inp.structures,
        inp.supports,
        inp.sweep_cfg,
        mode="auto",
        solver=inp.solver,
        threads=1,
        gamma_seed=inp.seed,
    )
    rows = list(csv.DictReader(io.StringIO(harness.records_to_csv_text(records))))
    return [{"kind": "sweep", **r} for r in rows]


def run_validate(inp: Inputs, span) -> list[dict]:
    """``validate gram`` and ``validate crossrow`` on the first structure and
    support, with the CLI's random streams."""
    ff = harness.format_float
    e, seed = inp.e, inp.seed
    gs, t = inp.structures[0], inp.supports[0].t
    section = inp.cfg["validate"]
    trials = int(section["trials"])
    rows = []
    rng = harness.trial_rng(seed, "validate-gram", 0, 0)
    with span("bounds.gram", trials=trials * len(section["m_grid"])):
        for m in section["m_grid"]:
            stats = cli.bounds_mod.validate_gram_concentration(e, t, gs, int(m), trials, rng)
            rows.append(
                {
                    "kind": "gram",
                    "m": str(m),
                    "trials": str(trials),
                    "fail_rate": ff(stats.fail_rate),
                    "mean_dev": ff(float(np.mean(stats.deviations))),
                    "max_dev": ff(float(np.max(stats.deviations))),
                }
            )
    rng = harness.trial_rng(seed, "validate-crossrow", 0, 0)
    m = int(section["m"])
    with span("bounds.crossrow", trials=trials):
        empirical, bound = cli.bounds_mod.validate_cross_row_energy(
            e, t, gs, m, int(t.complement(e.n)[0]), trials, rng
        )
    rows.append(
        {
            "kind": "crossrow",
            "m": str(m),
            "trials": str(trials),
            "empirical": ff(empirical),
            "bound": ff(bound),
        }
    )
    return rows


def run_sweep_validate(inp: Inputs, span) -> list[dict]:
    return run_sweep(inp, span) + run_validate(inp, span)


@dataclass(frozen=True)
class Workload:
    config: Callable[[int, Path], dict]
    run: Callable[[Inputs, object], list[dict]]


WORKLOADS = {
    "e1-narrowband-sweep": Workload(e1_config, run_sweep),
    "e2-image-sweep": Workload(e2_sweep_config, run_sweep_validate),
}


def write_config(name: str, seed: int, out: Path) -> Path:
    path = out / f"{name}-seed{seed}.json"
    path.write_text(json.dumps(WORKLOADS[name].config(seed, out), indent=1) + "\n")
    return path


# --- correctness -----------------------------------------------------------

REL_TOL = 1e-9
KP_REAL = math.sqrt(math.pi / 2)
KP_COMPLEX = math.sqrt(4 / math.pi)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _gamma_problems(row: dict, kp: float, ref: dict | None) -> list[str]:
    lo, up = float(row["gamma_lower"]), float(row["gamma_upper"])
    ex = float(row["gamma_exact"]) if row["gamma_exact"] else None
    tol = REL_TOL * max(1.0, up)
    out = []
    if lo > up + tol:
        out.append("gamma lower exceeds upper")
    if up > kp * lo + tol:
        out.append("gamma upper exceeds K_p * lower")
    if ex is not None and not lo - tol <= ex <= up + tol:
        out.append("gamma exact outside its bracket")
    if ref is None:
        return out
    ref_ex = float(ref["gamma_exact"]) if ref["gamma_exact"] else None
    if ref_ex is not None:
        if ex is None or not _close(ex, ref_ex):
            out.append(f"gamma exact {ex} differs from reference {ref_ex}")
    else:
        ref_lo, ref_up = float(ref["gamma_lower"]), float(ref["gamma_upper"])
        rtol = REL_TOL * max(1.0, ref_up)
        if lo < ref_lo - rtol or up > ref_up + rtol:
            out.append(f"gamma bracket [{lo}, {up}] leaves reference [{ref_lo}, {ref_up}]")
    return out


def _m_value(v: str):
    return None if v == "saturated" else int(v)


def row_problems(row: dict, inp: Inputs, ref: dict | None) -> list[str]:
    """Invariants every row must satisfy, plus agreement with the reference row
    when one is given.  An empty list means the row is correct."""
    kind = row["kind"]
    if ref is not None:
        keys = ("kind", "structure", "support", "m", "trials", "seed")
        if any(row.get(k) != ref.get(k) for k in keys):
            return [f"row identity {[row.get(k) for k in keys]} differs from reference"]
    if kind == "sweep":
        kp = KP_COMPLEX if np.iscomplexobj(inp.e.a) else KP_REAL
        out = _gamma_problems(row, kp, ref)
        grid = set(inp.sweep_cfg.m_grid)
        m_min, m0 = _m_value(row["m_min"]), _m_value(row["m0"])
        if any(v is not None and v not in grid for v in (m_min, m0)):
            out.append("m_min or m0 off the sweep grid")
        if row["structure"] == "singletons" and m_min != m0:
            out.append("singleton m_min differs from the baseline m0")
        if ref is not None and (row["m_min"], row["m0"]) != (ref["m_min"], ref["m0"]):
            out.append(f"m_min/m0 {row['m_min']}/{row['m0']} differ from reference")
        return out
    if kind == "gram":
        rate, mean, peak = (float(row[k]) for k in ("fail_rate", "mean_dev", "max_dev"))
        out = [] if 0.0 <= rate <= 1.0 and 0.0 <= mean <= peak else ["gram statistics out of range"]
        names = ("fail_rate", "mean_dev", "max_dev")
    elif kind == "crossrow":
        emp, bound = float(row["empirical"]), float(row["bound"])
        out = [] if 0.0 <= emp <= bound else [f"cross-row energy {emp} exceeds bound {bound}"]
        names = ("empirical", "bound")
    else:
        return [f"unknown row kind {kind!r}"]
    if ref is not None and not all(_close(float(row[k]), float(ref[k])) for k in names):
        out.append("validator row differs from reference")
    return out


def degraded(row: dict) -> bool:
    return row.get("gamma_degraded") == "1"


# --- input properties ------------------------------------------------------


def distinct_grams(inp: Inputs) -> dict[str, tuple[int, int]]:
    """Per grouped structure: (distinct Gram matrices M M^H of the row-normalized
    group submatrices, equal to 1e-8; groups).  The penalty factor of a group
    depends on M only through this Gram matrix."""
    from groupcs.operators import normalize_rows, submatrix

    counts = {}
    for gs in inp.structures:
        if gs.g == 1:
            continue
        keys, groups = set(), 0
        for sup in inp.supports:
            for i in range(gs.n_groups):
                msub = normalize_rows(submatrix(inp.e, gs.group(i), sup.t))
                keys.add((sup.descriptor, (np.round(msub @ msub.conj().T, 8) + 0.0).tobytes()))
                groups += 1
        counts[gs.label] = (len(keys), groups)
    return counts
