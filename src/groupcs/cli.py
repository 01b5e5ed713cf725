"""Command-line front end.

Subcommands: ``gamma`` (penalty factor for a configuration), ``sweep``
(penalty-vs-minimal-M records) and ``validate`` (Monte-Carlo checks:
``gram`` concentration, ``crossrow`` energy).  All output is CSV on stdout
or ``--out``; floats carry 12 significant digits; identical configuration
and seed give byte-identical output.

``load_config`` checks every section of a config, whatever the command,
against one table of its keys, ``CONFIG``; builders and commands read the
checked values and check only what depends on N, g or the command.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import bounds as bounds_mod
from . import grouping
from .gamma import penalty_gamma
from .harness import (
    GAMMA_COLUMNS,
    SUPPORT_MODELS,
    SignalSpec,
    SolverOptions,
    SupportCase,
    SweepConfig,
    csv_text,
    default_m_grid,
    draw_support,
    format_float,
    gamma_cells,
    image_to_sparse,
    records_to_csv_text,
    scatter_gamma_vs_m,
    trial_rng,
)
from .operators import BASIS_KINDS, SupportSet, make_basis, make_ensemble
from .pgm import read_pgm


class ConfigError(ValueError):
    pass


# Defaults of keys without a value: a REQUIRED key must be given wherever a
# reader takes it; a COMMAND key (a command's section, validate.m) is
# required by the command that reads it.
REQUIRED, COMMAND = object(), object()


class Key(NamedTuple):
    """One config key.  ``type`` is int, float, str, bool, a tuple of
    choices (matched in any case, as ``make_basis`` matches basis kinds), a
    table (a dict of Keys: a JSON object), or a one-item list of int or of a
    table (a nonempty JSON list).  An int, or each int of a list, is at least
    ``lo``; a list of ints may be ``order``-ed "distinct" or "ascending"; a
    float lies in (0, ``hi``] and is finite.  Null is an absent key only
    where the default is None; a table whose default is {} is checked as {}
    when absent.  ``reads`` maps a sibling key (or ``source``, that of a
    support) to the values for which a reader takes this key; elsewhere it
    is an error."""

    type: object
    default: object = REQUIRED
    lo: int | None = None
    hi: float = math.inf
    order: str | None = None
    reads: dict = {}


# each structure kind's constructor, from n, rows, cols and its section
_STRUCTURES = {
    "singletons": lambda n, rows, cols, s: grouping.singletons(n),
    "strided1d": lambda n, rows, cols, s: grouping.strided_1d(n, s["g"]),
    "contiguous1d": lambda n, rows, cols, s: grouping.contiguous_1d(n, s["g"]),
    "random": lambda n, rows, cols, s: grouping.random_groups(n, s["g"], s["seed"]),
    "vlines2d": lambda n, rows, cols, s: grouping.lines_2d(rows, cols, s["g"], "vertical"),
    "hlines2d": lambda n, rows, cols, s: grouping.lines_2d(rows, cols, s["g"], "horizontal"),
    "rect2d": lambda n, rows, cols, s: grouping.rect_2d(rows, cols, s["g"]),
    "spiral2d": lambda n, rows, cols, s: grouping.spiral_2d(rows, cols, s["g"], cyclic=s["cyclic"]),
    "max_manhattan2d": lambda n, rows, cols, s: grouping.max_manhattan_2d(rows, cols, s["g"]),
}
_KINDS = tuple(_STRUCTURES)

_BASIS = {
    "kind": Key(BASIS_KINDS),
    "levels": Key(int, None, lo=1, reads={"kind": {"haar2d"}}),
    "path": Key(str, reads={"kind": {"custom"}}),
}
_STRUCTURE = {
    "kind": Key(_KINDS),
    "g": Key(int, lo=1, reads={"kind": set(_KINDS) - {"singletons"}}),
    "seed": Key(int, 0, lo=0, reads={"kind": {"random"}}),
    "cyclic": Key(bool, False, reads={"kind": {"spiral2d"}}),
}
# a support's source: given indices, an image's largest coefficients, or a
# signal model's draws
_MODEL, _SUBBAND = {"source": {"model"}}, {"source": {"model"}, "model": {"subband"}}
_SUPPORT = {
    "indices": Key([int], lo=0, order="distinct", reads={"source": {"indices"}}),
    "image": Key(str, reads={"source": {"image"}}),
    "k": Key(int, lo=0, reads={"source": {"image", "model"}}),
    "tile_rows": Key(int, None, reads={"source": {"image"}}),
    "tile_cols": Key(int, None, reads={"source": {"image"}}),
    "model": Key(SUPPORT_MODELS, "unrestricted", reads=_MODEL),
    "channels": Key(int, 2, lo=1, reads=_SUBBAND),
    "width_frac": Key(float, 0.05, hi=1, reads=_SUBBAND),
    "draws": Key(int, 1, lo=1, reads=_MODEL),
}
_ENSEMBLE = {
    "n": Key(int, None, lo=1),
    "rows": Key(int, None, lo=1),
    "cols": Key(int, None, lo=1),
    "measurement": Key(_BASIS),
    "sparsity": Key(_BASIS),
}
_SWEEP = {
    "m_grid": Key([int], None, order="ascending"),
    "step": Key(int, None, lo=1),
    "trials_per_m": Key(int, 100, lo=1),
    "success_nre": Key(float, 1e-3),
    "success_quota": Key(float, 0.99, hi=1),
}
# the command bounds validate.m, m_grid and t0 by N
_VALIDATE = {
    "m": Key(int, COMMAND, lo=0),
    "m_grid": Key([int], None, lo=1),
    "trials": Key(int, 500, lo=1),
    "t0": Key(int, None),
}
CONFIG = {
    "ensemble": Key(_ENSEMBLE, COMMAND),
    "structure": Key(_STRUCTURE, COMMAND),
    "structures": Key([_STRUCTURE], COMMAND),
    "support": Key(_SUPPORT, COMMAND),
    "sweep": Key(_SWEEP, {}),
    "solver": Key({"tol_feas": Key(float, 1e-8), "max_iters": Key(int, 20000, lo=1)}, {}),
    "seeds": Key({"master": Key(int, 0, lo=0)}, {}),
    "validate": Key(_VALIDATE, {}),
}


def _integer(value, name: str, lo: int | None = None) -> int:
    """A JSON integer (an integral float passes) of at least ``lo``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if lo is not None and value < lo:
        least = "a non-negative integer" if lo == 0 else f"at least {lo}"
        raise ConfigError(f"{name} must be {least}, got {value}")
    return value


def _check(key: Key, value, name: str):
    """The checked value of a given key; a ConfigError names the key."""
    kind = key.type
    if isinstance(kind, dict):
        return _walk(value, kind, name)
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            noun = "objects" if kind != [int] else "integers"
            raise ConfigError(f"{name} must be a nonempty JSON list of {noun}, got {value!r}")
        if kind != [int]:  # each of the "structures" is a "structure"
            return [_walk(v, kind[0], name.removesuffix("s")) for v in value]
        value = [_integer(v, f"{name}[{i}]", key.lo) for i, v in enumerate(value)]
        if key.order == "distinct" and len(set(value)) < len(value):
            raise ConfigError(f"{name} must be distinct, got {value}")
        if key.order == "ascending" and any(b <= a for a, b in zip(value, value[1:])):
            raise ConfigError(f"{name} must be strictly ascending, got {value}")
        return value
    if isinstance(kind, tuple):
        choice = value.lower() if isinstance(value, str) else value
        if choice not in kind:
            raise ConfigError(f"{name} must be one of {list(kind)}, got {value!r}")
        return choice
    if kind is int:
        return _integer(value, name, key.lo)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        # a JSON integer may exceed every float
        value = float(value) if abs(value) <= sys.float_info.max else (math.inf if value > 0 else -math.inf)
        if not 0 < value <= key.hi or value == math.inf:
            span = "positive and finite" if key.hi == math.inf else f"in (0, {key.hi}]"
            raise ConfigError(f"{name} must be {span}, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be {'true or false' if kind is bool else 'a string'}, got {value!r}")
    return value


def _selected(out: dict, selector: str):
    if selector == "source":  # a support's: given indices, an image, or a model
        return next((s for s in ("indices", "image") if s in out), "model")
    return out[selector]


def _read(table: dict, out: dict, name: str, selectors) -> bool:
    """Whether a reader takes key ``name`` of the checked section ``out``."""
    return all(_selected(out, s) in table[name].reads[s] for s in selectors)


def _walk(section, table: dict, where: str) -> dict:
    """Check a JSON object's values against its table, then the keys that
    must be given.  Returns the checked values with defaults filled in."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - set(table)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    out = {}
    for name, key in table.items():
        path = name if where == "config" else f"{where}.{name}"
        if name in section and (section[name] is not None or key.default is not None):
            out[name] = _check(key, section[name], path)
        elif key.default == {}:
            out[name] = _walk({}, key.type, path)
        elif key.default is not REQUIRED and key.default is not COMMAND:
            out[name] = key.default
    for name, key in table.items():
        if key.default is REQUIRED and name not in out and _read(table, out, name, key.reads):
            raise ConfigError(f"missing key {name!r} in {where}")
    return out


def _unread(section: dict, out: dict, table: dict, where: str):
    """Reject a given key that no reader takes, beneath a walked JSON object
    ``section`` (checked as ``out``) and then in it."""
    for name, key in table.items():
        if isinstance(key.type, (dict, list)) and key.type != [int] and section.get(name) is not None:
            path = name if where == "config" else f"{where}.{name}"
            if isinstance(key.type, dict):
                _unread(section[name], out[name], key.type, path)
            else:  # each of the "structures" is a "structure"
                for item, checked in zip(section[name], out[name]):
                    _unread(item, checked, key.type[0], path.removesuffix("s"))
    for selector in dict.fromkeys(s for key in table.values() for s in key.reads):
        stray = sorted(
            k for k, v in section.items()
            if v is not None and selector in table[k].reads and not _read(table, out, k, [selector])
        )
        if stray:
            value = _selected(out, selector)
            reader = f"{where}.{selector} {value!r}"
            if selector == "source":
                reader = "supports from " + ("a signal model" if value == "model" else f"support.{value}")
            raise ConfigError(f"{where} key(s) {stray} do not apply to {reader}")


def _together(s: dict, where: str, a: str, b: str):
    if (s[a] is None) != (s[b] is None):
        raise ConfigError(f"{where}.{a} and {where}.{b} go together")


def _indices_below(s: dict, n: int):
    if "indices" in s and any(i >= n for i in s["indices"]):
        raise ConfigError(f"support.indices must be in [0, {n}), got {s['indices']}")


def load_config(path) -> dict:
    """The config at ``path``, checked against ``CONFIG`` whatever the
    command, with defaults filled in; builders and commands only read it.
    Every value is checked before the rules across keys, and those before
    the keys that no reader takes."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = _walk(raw, CONFIG, "config")
    if "structure" in cfg and "structures" in cfg:
        raise ConfigError("config takes a structure or a structures section, not both")
    e, s = cfg.get("ensemble"), cfg.get("support")
    if e:  # rows and cols go together and fix n
        _together(e, "ensemble", "rows", "cols")
        if e["rows"] is not None:
            if e["n"] not in (None, e["rows"] * e["cols"]):
                raise ConfigError(f"ensemble.n must be rows*cols = {e['rows'] * e['cols']}, got {e['n']}")
            e["n"] = e["rows"] * e["cols"]
    if s:
        _together(s, "support", "tile_rows", "tile_cols")
        if s["tile_rows"] is not None and min(s["tile_rows"], s["tile_cols"]) < 1:
            raise ConfigError(f"support tiles must be at least 1x1, got {s['tile_rows']}x{s['tile_cols']}")
        if e and e["n"] is not None:  # custom factors give N only when built
            _indices_below(s, e["n"])
    _unread(raw, cfg, CONFIG, "config")
    return cfg


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in {where}")
    return section[key]


def _bounded(value: int, name: str, lo: int, hi: int) -> int:
    if not lo <= value <= hi:
        raise ConfigError(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


def _build_basis(spec: dict, n: int | None, rows: int | None, cols: int | None, where: str):
    try:
        if spec["kind"] == "custom":
            return make_basis("custom", n, entries=np.load(spec["path"]))
        return make_basis(spec["kind"], n, rows=rows, cols=cols, levels=spec["levels"])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def build_ensemble(cfg: dict):
    s = _require(cfg, "ensemble", "config")
    n, rows, cols = s["n"], s["rows"], s["cols"]
    v = _build_basis(s["measurement"], n, rows, cols, "ensemble.measurement")
    u = _build_basis(s["sparsity"], n, rows, cols, "ensemble.sparsity")
    return make_ensemble(v, u), rows, cols, u


def build_structure(spec: dict, n: int, rows: int | None, cols: int | None) -> grouping.GroupStructure:
    kind = spec["kind"]
    if kind.endswith("2d") and rows is None:
        raise ConfigError(f"structure {kind} needs ensemble rows/cols")
    try:
        return _STRUCTURES[kind](n, rows, cols, spec)
    except ValueError as exc:
        raise ConfigError(f"structure.g does not fit {kind}: {exc}") from None


def build_structures(cfg: dict, n: int, rows, cols) -> list[grouping.GroupStructure]:
    if "structures" in cfg:
        specs = cfg["structures"]
    elif "structure" in cfg:
        specs = [cfg["structure"]]
    else:
        raise ConfigError("config needs a structure or structures section")
    return [build_structure(s, n, rows, cols) for s in specs]


def build_supports(cfg: dict, e, rows, cols, master_seed: int) -> list[SupportCase]:
    s = _require(cfg, "support", "config")
    if "indices" in s:
        _indices_below(s, e.n)
        t = SupportSet(np.sort(s["indices"]))  # distinct: checked by the config table
        return [SupportCase(t, f"indices-k{len(t)}")]
    k = _bounded(s["k"], "support.k", 0, e.n)
    if "image" in s:
        img = read_pgm(s["image"])
        tiles, names = [img], ["image"]
        tr, tc = s["tile_rows"], s["tile_cols"]
        if tr is not None:
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
                raise ConfigError(f"image tile {tile.shape} does not match ensemble {rows}x{cols}")
            cases.append(SupportCase(image_to_sparse(tile, k, e.u)[0], f"{name}-k{k}"))
        return cases
    model = s["model"]
    spec = SignalSpec(n=e.n, k=k, support_model=model, channel_count=s["channels"], channel_width_frac=s["width_frac"])
    cases = []
    for d in range(s["draws"]):
        t = draw_support(spec, trial_rng(master_seed, "support-draw", 0, d))
        cases.append(SupportCase(t, f"{model}-k{k}-d{d}"))
    return cases


def build_sweep_config(cfg: dict, n: int, g: int, master_seed: int) -> SweepConfig:
    s = cfg["sweep"]
    step = s["step"]
    grid = tuple(default_m_grid(n, g, step) if s["m_grid"] is None else s["m_grid"])
    if not grid:
        raise ConfigError(f"sweep.m_grid is absent and no multiple of {step or 4 * g} lies in [1, {n}]")
    if step is not None and any(m % step for m in grid):
        raise ConfigError(f"sweep.step must divide every grid value, got step={step}")
    fields = {key: s[key] for key in ("trials_per_m", "success_nre", "success_quota")}
    return SweepConfig(m_grid=grid, master_seed=master_seed, **fields)


def build_solver(cfg: dict) -> SolverOptions:
    return SolverOptions(**cfg["solver"])


def master_seed_of(cfg: dict, override: int | None) -> int:
    return cfg["seeds"]["master"] if override is None else _integer(override, "--seed", 0)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    _emit(csv_text(header, out_rows), args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg, seed, e, rows, cols, structures, supports = _inputs(args)
    g = max(gs.g for gs in structures)
    sweep_cfg = build_sweep_config(cfg, e.n, g, seed)
    solver = build_solver(cfg)
    records = scatter_gamma_vs_m(e, structures, supports, sweep_cfg, solver=solver, gamma_seed=seed)
    _emit(records_to_csv_text(records), args.out)
    return 0


def cmd_validate(args) -> int:
    cfg, seed, e, rows, cols, (gs,), supports = _inputs(args, "validate")
    if len(supports) != 1:
        raise ConfigError("validate expects a single support")
    t = supports[0].t
    section = cfg["validate"]
    trials = section["trials"]
    rng = trial_rng(seed, f"validate-{args.target}", 0, 0)
    if args.target == "gram":
        if section["m_grid"] is None:
            grid = [_bounded(_require(section, "m", "validate"), "validate.m", 1, e.n)]
        else:
            grid = [_bounded(m, f"validate.m_grid[{i}]", 1, e.n) for i, m in enumerate(section["m_grid"])]
        out_rows = []
        for m in grid:
            stats = bounds_mod.validate_gram_concentration(e, t, gs, m, trials, rng)
            mean_dev, max_dev = float(np.mean(stats.deviations)), float(np.max(stats.deviations))
            out_rows.append([m, trials, *map(format_float, (stats.fail_rate, mean_dev, max_dev)), stats.ties])
        _emit(csv_text(["m", "trials", "fail_rate", "mean_dev", "max_dev", "ties"], out_rows), args.out)
        return 0
    # crossrow
    m = _bounded(_require(section, "m", "validate"), "validate.m", 0, e.n)
    t0 = section["t0"]
    if t0 is None:
        off = t.complement(e.n)
        if off.size == 0:
            raise ConfigError("support covers every index, so no off-support validate.t0 exists")
        t0 = int(off[0])
    _bounded(t0, "validate.t0", 0, e.n - 1)
    if t0 in t.indices:
        raise ConfigError(f"validate.t0 must lie off the support, got {t0}")
    empirical, bound = bounds_mod.validate_cross_row_energy(e, t, gs, m, t0, trials, rng)
    _emit(csv_text(["empirical", "bound"], [[format_float(empirical), format_float(bound)]]), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcs",
        description="Grouped incoherent sampling experiments: penalty factors, "
        "recovery sweeps, and bound validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("gamma", cmd_gamma, "penalty factor for structure/support pairs"),
        ("sweep", cmd_sweep, "penalty vs minimal measurement records"),
        ("validate", cmd_validate, "Monte-Carlo bound validation"),
    ):
        p = sub.add_parser(name, help=text)
        if name == "validate":
            p.add_argument("target", choices=["gram", "crossrow"])
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override seeds.master")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.set_defaults(func=func)
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
