"""Command-line front end.

Subcommands: ``gamma`` (penalty factor for a configuration), ``sweep``
(penalty-vs-minimal-M records), ``bounds`` (closed-form sample-count bounds),
``validate`` (Monte-Carlo checks: ``gram`` concentration, ``crossrow``
energy), ``gen-groups`` (emit a group structure), ``recover`` (single
recovery).  All output is CSV on stdout or ``--out``; floats carry 12
significant digits; identical configuration and seed give byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from .gamma import GAMMA_MODES, penalty_gamma
from .grouping import (
    GroupStructure,
    contiguous_1d,
    draw_uniform,
    lines_2d,
    max_manhattan_2d,
    random_groups,
    rect_2d,
    singletons,
    spiral_2d,
    strided_1d,
)
from .harness import (
    SignalSpec,
    SolverOptions,
    SupportCase,
    SweepConfig,
    default_m_grid,
    draw_support,
    format_float,
    image_to_sparse,
    records_to_csv,
    scatter_gamma_vs_m,
    trial_rng,
)
from .operators import SupportSet, make_basis, make_ensemble
from .pgm import read_pgm
from .recovery import RecoveryProblem, basis_pursuit, nre


class ConfigError(ValueError):
    pass


def _check_keys(section: dict, allowed: set[str], where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in {where}")
    return section[key]


_TOP_KEYS = {
    "ensemble",
    "structure",
    "structures",
    "support",
    "sweep",
    "solver",
    "seeds",
    "bounds",
    "validate",
    "recover",
}

_BASIS_KEYS = {"kind", "levels", "path"}
_STRUCT_KEYS = {"kind", "g", "seed", "orientation", "cyclic"}
_SUPPORT_KEYS = {"model", "k", "channels", "width_frac", "indices", "image", "tile_rows", "tile_cols", "draws"}
_SWEEP_KEYS = {
    "m_grid",
    "step",
    "trials_per_m",
    "success_nre",
    "success_quota",
    "fresh_coefficients",
    "early_stop",
}
_SOLVER_KEYS = {"tol_feas", "tol_obj", "max_iters"}
_BOUNDS_KEYS = {"n", "t_size", "mu", "gamma", "delta", "const"}
_VALIDATE_KEYS = {"m", "m_grid", "trials", "t0"}
_RECOVER_KEYS = {"m", "dump_reconstruction"}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, "config")
    return cfg


def _build_basis(spec: dict, n: int | None, rows: int | None, cols: int | None, where: str):
    _check_keys(spec, _BASIS_KEYS, where)
    kind = _require(spec, "kind", where)
    if kind == "custom":
        path = _require(spec, "path", where)
        return make_basis("custom", entries=np.load(path))
    if kind in ("dft2d", "haar2d"):
        if rows is None or cols is None:
            raise ConfigError(f"{where}: {kind} needs ensemble rows/cols")
        return make_basis(kind, rows=rows, cols=cols, levels=spec.get("levels"))
    if n is None:
        raise ConfigError(f"{where}: {kind} needs ensemble n")
    return make_basis(kind, n)


def build_ensemble(cfg: dict):
    section = _require(cfg, "ensemble", "config")
    _check_keys(section, {"n", "rows", "cols", "measurement", "sparsity"}, "ensemble")
    rows, cols = section.get("rows"), section.get("cols")
    n = section.get("n")
    if n is None and rows is not None and cols is not None:
        n = rows * cols
    v = _build_basis(_require(section, "measurement", "ensemble"), n, rows, cols, "ensemble.measurement")
    u = _build_basis(_require(section, "sparsity", "ensemble"), n, rows, cols, "ensemble.sparsity")
    return make_ensemble(v, u), rows, cols, u


def build_structure(spec: dict, n: int, rows: int | None, cols: int | None) -> GroupStructure:
    _check_keys(spec, _STRUCT_KEYS, "structure")
    kind = _require(spec, "kind", "structure")
    g = int(_require(spec, "g", "structure")) if kind != "singletons" else 1
    need_2d = kind in ("vlines2d", "hlines2d", "rect2d", "spiral2d", "max_manhattan2d")
    if need_2d and (rows is None or cols is None):
        raise ConfigError(f"structure {kind} needs ensemble rows/cols")
    if kind == "singletons":
        return singletons(n)
    if kind == "strided1d":
        return strided_1d(n, g)
    if kind == "contiguous1d":
        return contiguous_1d(n, g)
    if kind == "vlines2d":
        return lines_2d(rows, cols, g, "vertical")
    if kind == "hlines2d":
        return lines_2d(rows, cols, g, "horizontal")
    if kind == "rect2d":
        return rect_2d(rows, cols, g)
    if kind == "spiral2d":
        return spiral_2d(rows, cols, g, cyclic=bool(spec.get("cyclic", False)))
    if kind == "max_manhattan2d":
        return max_manhattan_2d(rows, cols, g)
    if kind == "random":
        return random_groups(n, g, int(spec.get("seed", 0)))
    raise ConfigError(f"unknown structure kind {kind!r}")


def build_structures(cfg: dict, n: int, rows, cols) -> list[GroupStructure]:
    if "structures" in cfg:
        if not isinstance(cfg["structures"], list):
            raise ConfigError("structures must be a JSON list of objects")
        return [build_structure(s, n, rows, cols) for s in cfg["structures"]]
    if "structure" in cfg:
        return [build_structure(cfg["structure"], n, rows, cols)]
    raise ConfigError("config needs a structure or structures section")


def build_supports(cfg: dict, e, rows, cols, master_seed: int) -> list[SupportCase]:
    section = _require(cfg, "support", "config")
    _check_keys(section, _SUPPORT_KEYS, "support")
    if "indices" in section:
        t = SupportSet.from_indices(section["indices"])
        c0 = np.zeros(e.n, dtype=np.complex128 if np.iscomplexobj(e.a) else np.float64)
        rng = trial_rng(master_seed, "support-indices", 0, 0)
        c0[t.indices] = rng.uniform(-1.0, 1.0, len(t))
        return [SupportCase(t, c0, f"indices-k{len(t)}")]
    if "image" in section:
        k = int(_require(section, "k", "support"))
        img = read_pgm(section["image"])
        tiles = [img]
        names = ["image"]
        tr, tc = section.get("tile_rows"), section.get("tile_cols")
        if tr and tc:
            tiles, names = [], []
            for i0 in range(0, img.shape[0] - tr + 1, tr):
                for j0 in range(0, img.shape[1] - tc + 1, tc):
                    tiles.append(img[i0 : i0 + tr, j0 : j0 + tc])
                    names.append(f"tile{i0}_{j0}")
        cases = []
        for tile, name in zip(tiles, names):
            if rows is not None and tile.shape != (rows, cols):
                raise ConfigError(
                    f"image tile {tile.shape} does not match ensemble {rows}x{cols}"
                )
            t, c0 = image_to_sparse(tile, k)
            cases.append(SupportCase(t, c0, f"{name}-k{k}"))
        return cases
    model = section.get("model", "unrestricted")
    k = int(_require(section, "k", "support"))
    draws = int(section.get("draws", 1))
    spec = SignalSpec(
        kind="fourier1d",
        n=e.n,
        k=k,
        support_model=model,
        channel_count=int(section.get("channels", 2)),
        channel_width_frac=float(section.get("width_frac", 0.05)),
    )
    cases = []
    for d in range(draws):
        rng = trial_rng(master_seed, "support-draw", 0, d)
        t = draw_support(spec, rng)
        c0 = np.zeros(e.n, dtype=np.complex128 if np.iscomplexobj(e.a) else np.float64)
        c0[t.indices] = rng.uniform(-1.0, 1.0, len(t))
        cases.append(SupportCase(t, c0, f"{model}-k{k}-d{d}"))
    return cases


def build_sweep_config(cfg: dict, n: int, g: int, master_seed: int) -> SweepConfig:
    section = cfg.get("sweep", {})
    _check_keys(section, _SWEEP_KEYS, "sweep")
    step = section.get("step")
    grid = section.get("m_grid") or default_m_grid(n, g, step)
    return SweepConfig(
        m_grid=tuple(int(m) for m in grid),
        trials_per_m=int(section.get("trials_per_m", 100)),
        success_nre=float(section.get("success_nre", 1e-3)),
        success_quota=float(section.get("success_quota", 0.99)),
        master_seed=master_seed,
        step=step,
        fresh_coefficients=bool(section.get("fresh_coefficients", True)),
        early_stop=bool(section.get("early_stop", True)),
    )


def build_solver(cfg: dict) -> SolverOptions:
    section = cfg.get("solver", {})
    _check_keys(section, _SOLVER_KEYS, "solver")
    return SolverOptions(
        tol_feas=float(section.get("tol_feas", 1e-8)),
        tol_obj=float(section.get("tol_obj", 1e-6)),
        max_iters=int(section.get("max_iters", 20000)),
    )


def master_seed_of(cfg: dict, override: int | None) -> int:
    if override is not None:
        return override
    section = cfg.get("seeds", {})
    _check_keys(section, {"master"}, "seeds")
    return int(section.get("master", 0))


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_gamma(args) -> int:
    cfg = load_config(args.config)
    seed = master_seed_of(cfg, args.seed)
    e, rows, cols, u_basis = build_ensemble(cfg)
    structures = build_structures(cfg, e.n, rows, cols)
    supports = build_supports(cfg, e, rows, cols, seed)
    out_rows = []
    for gs in structures:
        for sup in supports:
            est = penalty_gamma(e, sup.t, gs, args.mode, seed=seed)
            out_rows.append(
                [
                    gs.label,
                    sup.descriptor,
                    gs.g,
                    e.n,
                    len(sup.t),
                    format_float(est.lower),
                    format_float(est.upper),
                    "" if est.exact is None else format_float(est.exact),
                    est.method,
                    est.argmax_group,
                    int(est.degraded),
                ]
            )
    header = [
        "structure",
        "support",
        "g",
        "n",
        "k",
        "gamma_lower",
        "gamma_upper",
        "gamma_exact",
        "gamma_method",
        "gamma_argmax_group",
        "gamma_degraded",
    ]
    _emit(_csv_text(header, out_rows), args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    seed = master_seed_of(cfg, args.seed)
    e, rows, cols, u_basis = build_ensemble(cfg)
    structures = build_structures(cfg, e.n, rows, cols)
    supports = build_supports(cfg, e, rows, cols, seed)
    g = max(gs.g for gs in structures)
    sweep_cfg = build_sweep_config(cfg, e.n, g, seed)
    solver = build_solver(cfg)
    records = scatter_gamma_vs_m(
        e,
        structures,
        supports,
        sweep_cfg,
        mode=args.mode,
        solver=solver,
        threads=args.threads,
        gamma_seed=seed,
    )
    buf = io.StringIO()
    records_to_csv(records, buf)
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    section = _require(cfg, "bounds", "config")
    _check_keys(section, _BOUNDS_KEYS, "bounds")
    q = bounds_mod.BoundQuery(
        n=int(_require(section, "n", "bounds")),
        t_size=int(_require(section, "t_size", "bounds")),
        mu=float(_require(section, "mu", "bounds")),
        gamma=float(_require(section, "gamma", "bounds")),
        delta=float(_require(section, "delta", "bounds")),
        const=float(section.get("const", 1.0)),
    )
    rows = [
        ["unstructured", format_float(bounds_mod.bound_unstructured(q))],
        ["grouped", format_float(bounds_mod.bound_grouped(q))],
        ["gram", format_float(bounds_mod.bound_gram(q))],
    ]
    _emit(_csv_text(["bound", "value"], rows), args.out)
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    seed = master_seed_of(cfg, args.seed)
    e, rows, cols, u_basis = build_ensemble(cfg)
    structures = build_structures(cfg, e.n, rows, cols)
    if len(structures) != 1:
        raise ConfigError("validate expects a single structure")
    gs = structures[0]
    supports = build_supports(cfg, e, rows, cols, seed)
    if len(supports) != 1:
        raise ConfigError("validate expects a single support")
    t = supports[0].t
    section = _require(cfg, "validate", "config")
    _check_keys(section, _VALIDATE_KEYS, "validate")
    trials = int(section.get("trials", 500))
    rng = trial_rng(seed, f"validate-{args.target}", 0, 0)
    if args.target == "gram":
        grid = section.get("m_grid") or [int(_require(section, "m", "validate"))]
        out_rows = []
        for m in grid:
            stats = bounds_mod.validate_gram_concentration(e, t, gs, int(m), trials, rng)
            out_rows.append(
                [
                    m,
                    trials,
                    format_float(stats.fail_rate),
                    format_float(float(np.mean(stats.deviations))),
                    format_float(float(np.max(stats.deviations))),
                ]
            )
        _emit(_csv_text(["m", "trials", "fail_rate", "mean_dev", "max_dev"], out_rows), args.out)
        return 0
    if args.target == "crossrow":
        m = int(_require(section, "m", "validate"))
        t0 = section.get("t0")
        if t0 is None:
            t0 = int(t.complement(e.n)[0])
        empirical, bound = bounds_mod.validate_cross_row_energy(
            e, t, gs, m, int(t0), trials, rng
        )
        _emit(
            _csv_text(["empirical", "bound"], [[format_float(empirical), format_float(bound)]]),
            args.out,
        )
        return 0
    raise ConfigError(f"unknown validation target {args.target!r}")


def cmd_gen_groups(args) -> int:
    cfg = load_config(args.config)
    e, rows, cols, u_basis = build_ensemble(cfg)
    structures = build_structures(cfg, e.n, rows, cols)
    out_rows = []
    for gs in structures:
        for gi in range(gs.n_groups):
            for member in gs.group(gi):
                out_rows.append([gs.label, gi, int(member)])
    _emit(_csv_text(["structure", "group", "member"], out_rows), args.out)
    return 0


def cmd_recover(args) -> int:
    cfg = load_config(args.config)
    seed = master_seed_of(cfg, args.seed)
    e, rows, cols, u_basis = build_ensemble(cfg)
    structures = build_structures(cfg, e.n, rows, cols)
    if len(structures) != 1:
        raise ConfigError("recover expects a single structure")
    gs = structures[0]
    supports = build_supports(cfg, e, rows, cols, seed)
    section = cfg.get("recover", {})
    _check_keys(section, _RECOVER_KEYS, "recover")
    m = int(_require(section, "m", "recover"))
    dump = section.get("dump_reconstruction")
    if dump is not None and (rows is None or cols is None):
        raise ConfigError("dump_reconstruction needs a 2-D ensemble (rows/cols)")
    solver = build_solver(cfg)
    out_rows = []
    for idx, sup in enumerate(supports):
        rng = trial_rng(seed, gs.label, m, 0)
        ss = draw_uniform(gs, m, rng)
        a_om = e.a[ss.omega]
        y = a_om @ sup.c0
        res = basis_pursuit(
            RecoveryProblem(a_om, y, solver.tol_feas, solver.tol_obj, solver.max_iters)
        )
        if dump is not None:
            from .pgm import write_pgm

            img = np.real(u_basis.entries @ res.c_hat).reshape(rows, cols)
            path = dump if len(supports) == 1 else f"{dump}.{idx}.pgm"
            write_pgm(path, img)
        out_rows.append(
            [
                sup.descriptor,
                gs.label,
                e.n,
                m,
                gs.g,
                format_float(nre(sup.c0, res.c_hat)),
                format_float(res.feas_residual),
                format_float(res.objective),
                res.iterations,
                int(res.converged),
            ]
        )
    header = [
        "support",
        "structure",
        "n",
        "m",
        "g",
        "nre",
        "feas_residual",
        "objective",
        "iterations",
        "converged",
    ]
    _emit(_csv_text(header, out_rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcs",
        description="Grouped incoherent sampling experiments: penalty factors, "
        "recovery sweeps, and bound validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode=False):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override seeds.master")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--threads", type=int, default=1, help="parallel trial workers")
        if mode:
            p.add_argument("--mode", choices=GAMMA_MODES, default="auto")

    p = sub.add_parser("gamma", help="penalty factor for structure/support pairs")
    common(p, mode=True)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("sweep", help="penalty vs minimal measurement records")
    common(p, mode=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="closed-form sample-count bounds")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("validate", help="Monte-Carlo bound validation")
    p.add_argument("target", choices=["gram", "crossrow"])
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen-groups", help="emit group structures as CSV")
    common(p)
    p.set_defaults(func=cmd_gen_groups)

    p = sub.add_parser("recover", help="single grouped recovery")
    common(p)
    p.set_defaults(func=cmd_recover)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, IndexError) as exc:
        print(f"groupcs: error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    sys.exit(main())
