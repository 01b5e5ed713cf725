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
from .gamma import penalty_gamma
from .grouping import (
    GroupStructure,
    contiguous_1d,
    lines_2d,
    max_manhattan_2d,
    random_groups,
    rect_2d,
    singletons,
    spiral_2d,
    strided_1d,
)
from .harness import (
    GAMMA_COLUMNS,
    SignalSpec,
    SolverOptions,
    SupportCase,
    SweepConfig,
    _draw_trials,
    default_m_grid,
    draw_support,
    format_float,
    gamma_cells,
    image_to_sparse,
    random_coefficients,
    records_to_csv_text,
    scatter_gamma_vs_m,
    trial_rng,
)
from .operators import SupportSet, make_basis, make_ensemble
from .pgm import read_pgm, write_pgm
from .recovery import nre, solve_trials


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


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _kind(spec: dict, where: str) -> str:
    return _string(_require(spec, "kind", where), f"{where}.kind")


def _number(value, name: str, kind=int):
    """A JSON integer (an integral float passes) or, with kind float, any
    JSON number; anything else is a ConfigError naming the key."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (kind is int and isinstance(value, float) and not value.is_integer())
    ):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    return kind(value)


def _flag(section: dict, key: str, where: str, default: bool) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def _seed(value, name: str) -> int:
    """A seed: a non-negative JSON integer, as numpy's generators take."""
    seed = _number(value, name)
    if seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {seed}")
    return seed


def _bounded(value: int, name: str, lo: int, hi: int) -> int:
    if not lo <= value <= hi:
        raise ConfigError(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


def _optional_int(section: dict, key: str, where: str):
    value = section.get(key)
    return None if value is None else _number(value, f"{where}.{key}")


def _int_list(values, name: str) -> list[int]:
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list of integers, got {values!r}")
    return [_number(v, f"{name}[{i}]") for i, v in enumerate(values)]


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
_STRUCT_KEYS = {"kind", "g", "seed", "cyclic"}
# the keys each source of supports reads: given indices, an image's largest
# coefficients, or draws from a signal model
_SUPPORT_SOURCES = {
    "indices": {"indices"},
    "image": {"image", "k", "tile_rows", "tile_cols"},
    "model": {"model", "k", "channels", "width_frac", "draws"},
}
_SUPPORT_KEYS = set().union(*_SUPPORT_SOURCES.values())
_SWEEP_KEYS = {
    "m_grid",
    "step",
    "trials_per_m",
    "success_nre",
    "success_quota",
}
_SOLVER_KEYS = {"tol_feas", "max_iters"}
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
    kind = _kind(spec, where)
    if kind == "custom":
        path = _string(_require(spec, "path", where), f"{where}.path")
        return make_basis("custom", entries=np.load(path))
    if kind in ("dft2d", "haar2d"):
        if rows is None or cols is None:
            raise ConfigError(f"{where}: {kind} needs ensemble rows/cols")
        return make_basis(kind, rows=rows, cols=cols, levels=_optional_int(spec, "levels", where))
    if n is None:
        raise ConfigError(f"{where}: {kind} needs ensemble n")
    return make_basis(kind, n)


def build_ensemble(cfg: dict):
    section = _require(cfg, "ensemble", "config")
    _check_keys(section, {"n", "rows", "cols", "measurement", "sparsity"}, "ensemble")
    rows, cols, n = (_optional_int(section, key, "ensemble") for key in ("rows", "cols", "n"))
    if n is None and rows is not None and cols is not None:
        n = rows * cols
    v = _build_basis(_require(section, "measurement", "ensemble"), n, rows, cols, "ensemble.measurement")
    u = _build_basis(_require(section, "sparsity", "ensemble"), n, rows, cols, "ensemble.sparsity")
    return make_ensemble(v, u), rows, cols, u


def build_structure(spec: dict, n: int, rows: int | None, cols: int | None) -> GroupStructure:
    _check_keys(spec, _STRUCT_KEYS, "structure")
    kind = _kind(spec, "structure")
    g = _number(_require(spec, "g", "structure"), "structure.g") if kind != "singletons" else 1
    cyclic = _flag(spec, "cyclic", "structure", False)
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
        return spiral_2d(rows, cols, g, cyclic=cyclic)
    if kind == "max_manhattan2d":
        return max_manhattan_2d(rows, cols, g)
    if kind == "random":
        return random_groups(n, g, _seed(spec.get("seed", 0), "structure.seed"))
    raise ConfigError(f"unknown structure kind {kind!r}")


def build_structures(cfg: dict, n: int, rows, cols) -> list[GroupStructure]:
    if "structures" in cfg:
        if not isinstance(cfg["structures"], list) or not cfg["structures"]:
            raise ConfigError("structures must be a nonempty JSON list of objects")
        return [build_structure(s, n, rows, cols) for s in cfg["structures"]]
    if "structure" in cfg:
        return [build_structure(cfg["structure"], n, rows, cols)]
    raise ConfigError("config needs a structure or structures section")


def _check_source_keys(section: dict, source: str):
    """A support key that its source does not read is an error, not ignored."""
    stray = set(section) - _SUPPORT_SOURCES[source]
    if stray:
        origin = "a signal model" if source == "model" else f"support.{source}"
        raise ConfigError(f"support key(s) {sorted(stray)} do not apply to supports from {origin}")


def build_supports(cfg: dict, e, rows, cols, master_seed: int) -> list[SupportCase]:
    section = _require(cfg, "support", "config")
    _check_keys(section, _SUPPORT_KEYS, "support")
    if "indices" in section:
        indices = _int_list(section["indices"], "support.indices")
        if any(not 0 <= i < e.n for i in indices):
            raise ConfigError(f"support.indices must be in [0, {e.n}), got {indices}")
        _check_source_keys(section, "indices")
        t = SupportSet.from_indices(indices)
        c0 = random_coefficients(e, t, trial_rng(master_seed, "support-indices", 0, 0))
        return [SupportCase(t, c0, f"indices-k{len(t)}")]
    if "image" in section:
        path = _string(section["image"], "support.image")
        _check_source_keys(section, "image")
        k = _number(_require(section, "k", "support"), "support.k")
        img = read_pgm(path)
        tiles = [img]
        names = ["image"]
        tr, tc = (_optional_int(section, key, "support") for key in ("tile_rows", "tile_cols"))
        if (tr is None) != (tc is None):
            raise ConfigError("support.tile_rows and support.tile_cols go together")
        if tr is not None:
            if min(tr, tc) < 1:
                raise ConfigError(f"support tiles must be at least 1x1, got {tr}x{tc}")
            tiles, names = [], []
            for i0 in range(0, img.shape[0] - tr + 1, tr):
                for j0 in range(0, img.shape[1] - tc + 1, tc):
                    tiles.append(img[i0 : i0 + tr, j0 : j0 + tc])
                    names.append(f"tile{i0}_{j0}")
            if not tiles:
                raise ConfigError(f"no {tr}x{tc} tile fits the {img.shape[0]}x{img.shape[1]} image")
        cases = []
        for tile, name in zip(tiles, names):
            if rows is not None and tile.shape != (rows, cols):
                raise ConfigError(
                    f"image tile {tile.shape} does not match ensemble {rows}x{cols}"
                )
            t, c0 = image_to_sparse(tile, k, e.u)
            cases.append(SupportCase(t, c0, f"{name}-k{k}"))
        return cases
    _check_source_keys(section, "model")
    model = section.get("model", "unrestricted")
    k = _number(_require(section, "k", "support"), "support.k")
    draws = _number(section.get("draws", 1), "support.draws")
    if draws < 1:
        raise ConfigError(f"support.draws must be at least 1, got {draws}")
    channels = _number(section.get("channels", 2), "support.channels")
    if channels < 1:
        raise ConfigError(f"support.channels must be at least 1, got {channels}")
    width_frac = _number(section.get("width_frac", 0.05), "support.width_frac", float)
    if not 0 < width_frac <= 1:
        raise ConfigError(f"support.width_frac must be in (0, 1], got {width_frac!r}")
    spec = SignalSpec(n=e.n, k=k, support_model=model, channel_count=channels, channel_width_frac=width_frac)
    cases = []
    for d in range(draws):
        rng = trial_rng(master_seed, "support-draw", 0, d)
        t = draw_support(spec, rng)
        c0 = random_coefficients(e, t, rng)
        cases.append(SupportCase(t, c0, f"{model}-k{k}-d{d}"))
    return cases


def build_sweep_config(cfg: dict, n: int, g: int, master_seed: int) -> SweepConfig:
    section = cfg.get("sweep", {})
    _check_keys(section, _SWEEP_KEYS, "sweep")
    step = _optional_int(section, "step", "sweep")
    if step is not None and step < 1:
        raise ConfigError(f"sweep.step must be positive, got {step}")
    grid = section.get("m_grid")
    # an empty grid is SweepConfig's to reject, not a request for the default
    grid = tuple(default_m_grid(n, g, step) if grid is None else _int_list(grid, "sweep.m_grid"))
    if step is not None and any(m % step for m in grid):
        raise ConfigError(f"sweep.step must divide every grid value, got step={step}")
    fields = dict(
        m_grid=grid,
        trials_per_m=_number(section.get("trials_per_m", 100), "sweep.trials_per_m"),
        success_nre=_number(section.get("success_nre", 1e-3), "sweep.success_nre", float),
        success_quota=_number(section.get("success_quota", 0.99), "sweep.success_quota", float),
        master_seed=master_seed,
    )
    return _checked(SweepConfig, fields, "sweep")


def build_solver(cfg: dict) -> SolverOptions:
    section = cfg.get("solver", {})
    _check_keys(section, _SOLVER_KEYS, "solver")
    fields = dict(
        tol_feas=_number(section.get("tol_feas", 1e-8), "solver.tol_feas", float),
        max_iters=_number(section.get("max_iters", 20000), "solver.max_iters"),
    )
    return _checked(SolverOptions, fields, "solver")


def _checked(cls, fields: dict, where: str):
    """cls(**fields); its ValueError, which starts with the field name,
    becomes a ConfigError naming the key."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from None


def master_seed_of(cfg: dict, override: int | None) -> int:
    if override is not None:
        return _seed(override, "--seed")
    section = cfg.get("seeds", {})
    _check_keys(section, {"master"}, "seeds")
    return _seed(section.get("master", 0), "seeds.master")


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


def _inputs(args, single: str | None = None):
    """(config, master seed, ensemble, rows, cols, structures, supports) of a
    command's config; ``single`` names a command that takes one structure."""
    cfg = load_config(args.config)
    seed = master_seed_of(cfg, args.seed)
    e, rows, cols, _ = build_ensemble(cfg)
    structures = build_structures(cfg, e.n, rows, cols)
    if single and len(structures) != 1:
        raise ConfigError(f"{single} expects a single structure")
    return cfg, seed, e, rows, cols, structures, build_supports(cfg, e, rows, cols, seed)


def cmd_gamma(args) -> int:
    cfg, seed, e, rows, cols, structures, supports = _inputs(args)
    out_rows = []
    for gs in structures:
        for sup in supports:
            est = penalty_gamma(e, sup.t, gs, seed=seed)
            out_rows.append([gs.label, sup.descriptor, gs.g, e.n, len(sup.t), *gamma_cells(est)])
    header = ["structure", "support", "g", "n", "k", *GAMMA_COLUMNS]
    _emit(_csv_text(header, out_rows), args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg, seed, e, rows, cols, structures, supports = _inputs(args)
    g = max(gs.g for gs in structures)
    sweep_cfg = build_sweep_config(cfg, e.n, g, seed)
    solver = build_solver(cfg)
    records = scatter_gamma_vs_m(e, structures, supports, sweep_cfg, solver=solver, gamma_seed=seed)
    _emit(records_to_csv_text(records), args.out)
    return 0


def cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    section = _require(cfg, "bounds", "config")
    _check_keys(section, _BOUNDS_KEYS, "bounds")
    q = bounds_mod.BoundQuery(
        n=_number(_require(section, "n", "bounds"), "bounds.n"),
        t_size=_number(_require(section, "t_size", "bounds"), "bounds.t_size"),
        mu=_number(_require(section, "mu", "bounds"), "bounds.mu", float),
        gamma=_number(_require(section, "gamma", "bounds"), "bounds.gamma", float),
        delta=_number(_require(section, "delta", "bounds"), "bounds.delta", float),
        const=_number(section.get("const", 1.0), "bounds.const", float),
    )
    rows = [
        ["unstructured", format_float(bounds_mod.bound_unstructured(q))],
        ["grouped", format_float(bounds_mod.bound_grouped(q))],
        ["gram", format_float(bounds_mod.bound_gram(q))],
    ]
    _emit(_csv_text(["bound", "value"], rows), args.out)
    return 0


def cmd_validate(args) -> int:
    cfg, seed, e, rows, cols, (gs,), supports = _inputs(args, "validate")
    if len(supports) != 1:
        raise ConfigError("validate expects a single support")
    t = supports[0].t
    section = _require(cfg, "validate", "config")
    _check_keys(section, _VALIDATE_KEYS, "validate")
    trials = _number(section.get("trials", 500), "validate.trials")
    if trials < 1:
        raise ConfigError(f"validate.trials must be at least 1, got {trials}")
    rng = trial_rng(seed, f"validate-{args.target}", 0, 0)
    if args.target == "gram":
        grid = section.get("m_grid")
        if grid is None:
            grid = [_bounded(_number(_require(section, "m", "validate"), "validate.m"), "validate.m", 1, e.n)]
        else:
            grid = [_bounded(m, f"validate.m_grid[{i}]", 1, e.n)
                    for i, m in enumerate(_int_list(grid, "validate.m_grid"))]
        # an empty grid is an error, not a request for validate.m
        if not grid:
            raise ConfigError("validate.m_grid must be a nonempty list of integers, got []")
        out_rows = []
        for m in grid:
            stats = bounds_mod.validate_gram_concentration(e, t, gs, m, trials, rng)
            out_rows.append(
                [
                    m,
                    trials,
                    format_float(stats.fail_rate),
                    format_float(float(np.mean(stats.deviations))),
                    format_float(float(np.max(stats.deviations))),
                    stats.ties,
                ]
            )
        _emit(_csv_text(["m", "trials", "fail_rate", "mean_dev", "max_dev", "ties"], out_rows), args.out)
        return 0
    if args.target == "crossrow":
        m = _bounded(_number(_require(section, "m", "validate"), "validate.m"), "validate.m", 0, e.n)
        t0 = _optional_int(section, "t0", "validate")
        if t0 is None:
            off = t.complement(e.n)
            if off.size == 0:
                raise ConfigError("support covers every index, so no off-support validate.t0 exists")
            t0 = int(off[0])
        _bounded(t0, "validate.t0", 0, e.n - 1)
        if t0 in t.indices:
            raise ConfigError(f"validate.t0 must lie off the support, got {t0}")
        empirical, bound = bounds_mod.validate_cross_row_energy(e, t, gs, m, t0, trials, rng)
        _emit(
            _csv_text(["empirical", "bound"], [[format_float(empirical), format_float(bound)]]),
            args.out,
        )
        return 0
    raise ConfigError(f"unknown validation target {args.target!r}")


def cmd_gen_groups(args) -> int:
    cfg = load_config(args.config)
    e, rows, cols, _ = build_ensemble(cfg)
    structures = build_structures(cfg, e.n, rows, cols)
    out_rows = []
    for gs in structures:
        for gi in range(gs.n_groups):
            for member in gs.group(gi):
                out_rows.append([gs.label, gi, int(member)])
    _emit(_csv_text(["structure", "group", "member"], out_rows), args.out)
    return 0


def cmd_recover(args) -> int:
    """Solve each support's own c0, measured on the rows of trial 0 of the
    sweep's stream at m, with ADMM.

    Unlike a sweep trial it is never decided by proof, because its output is
    the reconstruction itself: error, feasibility, objective and iterations.
    """
    cfg, seed, e, rows, cols, (gs,), supports = _inputs(args, "recover")
    section = cfg.get("recover", {})
    _check_keys(section, _RECOVER_KEYS, "recover")
    m = _number(_require(section, "m", "recover"), "recover.m")
    if not (0 <= m <= e.n and m % gs.g == 0):
        raise ConfigError(f"recover.m must be a multiple of the group size {gs.g} in [0, {e.n}], got {m}")
    dump = section.get("dump_reconstruction")
    if dump is not None:
        _string(dump, "recover.dump_reconstruction")
        if rows is None or cols is None:
            raise ConfigError("dump_reconstruction needs a 2-D ensemble (rows/cols)")
    solver = build_solver(cfg)
    out_rows = []
    for idx, sup in enumerate(supports):
        # the rows of trial 0 of the sweep's stream at m, measuring the
        # support's own c0
        omegas, _ = _draw_trials(e, gs, sup.t, m, range(1), seed)
        (res,), _ = solve_trials(e, omegas, sup.c0[None], solver, verdicts=False)
        if dump is not None:
            img = np.real(e.u.synthesize(res.c_hat)).reshape(rows, cols)
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

    def common(p):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override seeds.master")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p = sub.add_parser("gamma", help="penalty factor for structure/support pairs")
    common(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("sweep", help="penalty vs minimal measurement records")
    common(p)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, IndexError) as exc:
        print(f"groupcs: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
