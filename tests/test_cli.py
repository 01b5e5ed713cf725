import contextlib
import copy
import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcs import cli
from groupcs.cli import main
from groupcs.harness import records_from_csv
from groupcs.pgm import read_pgm, write_pgm


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def dft_config(tmp_path):
    return write_config(
        tmp_path,
        "dft.json",
        {
            "ensemble": {
                "n": 32,
                "measurement": {"kind": "identity"},
                "sparsity": {"kind": "dft1d"},
            },
            "structures": [
                {"kind": "singletons"},
                {"kind": "strided1d", "g": 4},
            ],
            "support": {"model": "unrestricted", "k": 3, "draws": 2},
            "sweep": {"trials_per_m": 6, "success_quota": 0.8},
            "solver": {"max_iters": 4000},
            "seeds": {"master": 7},
        },
    )


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exit_:  # argparse rejects the command line
        code = exit_.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gamma_singletons_row(dft_config, capsys):
    code, out, err = run_cli(["gamma", "--config", dft_config], capsys)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0].startswith("structure,support")
    single = [l for l in lines[1:] if l.startswith("singletons")]
    assert len(single) == 2
    for line in single:
        cells = line.split(",")
        assert cells[5] == cells[6] == cells[7] == "1"  # lower = upper = exact = 1


def test_sweep_deterministic_and_parseable(dft_config, tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", dft_config, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", dft_config, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    records = records_from_csv(io.StringIO(out1.read_text()))
    assert len(records) == 4  # 2 structures x 2 supports
    for r in records:
        if r.structure_label == "singletons":
            assert r.m_min == r.m0


def test_sweep_seed_override_changes_output(dft_config, tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", dft_config, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", dft_config, "--seed", "8", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_validate_crossrow_holds(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "v.json",
        {
            "ensemble": {
                "n": 64,
                "measurement": {"kind": "identity"},
                "sparsity": {"kind": "dft1d"},
            },
            "structure": {"kind": "strided1d", "g": 4},
            "support": {"model": "unrestricted", "k": 4},
            "validate": {"m": 16, "trials": 400},
            "seeds": {"master": 3},
        },
    )
    code, out, err = run_cli(["validate", "crossrow", "--config", cfg], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "empirical,bound"
    empirical, bound = (float(v) for v in row.split(","))
    assert empirical <= bound


def test_validate_gram_grid(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "v2.json",
        {
            "ensemble": {
                "n": 64,
                "measurement": {"kind": "identity"},
                "sparsity": {"kind": "dft1d"},
            },
            "structure": {"kind": "strided1d", "g": 4},
            "support": {"model": "unrestricted", "k": 4},
            "validate": {"m_grid": [16, 64], "trials": 100},
            "seeds": {"master": 3},
        },
    )
    code, out, err = run_cli(["validate", "gram", "--config", cfg], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,trials,fail_rate,mean_dev,max_dev,ties"
    last = lines[-1].split(",")
    assert last[0] == "64" and float(last[2]) == 0.0 and last[5] == "0"


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"bogus": 1})
    code, out, err = run_cli(["gamma", "--config", cfg], capsys)
    assert code == 2
    assert "unknown key" in err


def test_unknown_nested_key_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "bad2.json",
        {
            "ensemble": {
                "n": 8,
                "measurement": {"kind": "identity"},
                "sparsity": {"kind": "dft1d"},
                "oops": True,
            },
            "structure": {"kind": "singletons"},
            "support": {"k": 2},
        },
    )
    code, out, err = run_cli(["gamma", "--config", cfg], capsys)
    assert code == 2
    assert "unknown key" in err and "ensemble" in err


@pytest.mark.parametrize(
    "bad, where",
    [
        ({"structures": [1]}, "structure must be"),
        ({"structures": {"kind": "singletons"}}, "structures must be"),
        ({"structures": []}, "structures must be a nonempty JSON list of objects"),
        ({"structure": "singletons"}, "structure must be"),
        ({"ensemble": [8]}, "ensemble must be"),
        ({"ensemble": {"n": 8, "measurement": "identity", "sparsity": {"kind": "dft1d"}}},
         "ensemble.measurement must be"),
        ({"sweep": 3}, "sweep must be"),
    ],
)
def test_malformed_config_shape_exits_2(tmp_path, capsys, bad, where):
    cfg = {
        "ensemble": {"n": 8, "measurement": {"kind": "identity"}, "sparsity": {"kind": "dft1d"}},
        "structure": {"kind": "singletons"},
        "support": {"k": 2},
    }
    cfg.update(bad)
    path = write_config(tmp_path, "shape.json", cfg)
    code, out, err = run_cli(["sweep", "--config", path], capsys)
    assert code == 2
    assert where in err and "Traceback" not in err


def test_non_finite_custom_basis_exits_2(tmp_path, capsys):
    q = np.eye(8)
    q[2, 5] = np.nan
    np.save(tmp_path / "q.npy", q)
    cfg = {
        "ensemble": {
            "n": 8,
            "measurement": {"kind": "custom", "path": str(tmp_path / "q.npy")},
            "sparsity": {"kind": "dft1d"},
        },
        "structure": {"kind": "singletons"},
        "support": {"k": 2},
    }
    code, out, err = run_cli(["sweep", "--config", write_config(tmp_path, "nan.json", cfg)], capsys)
    assert code == 2
    assert "basis is not unitary: residual nan" in err and "Traceback" not in err


def test_missing_config_file(capsys):
    code, out, err = run_cli(["gamma", "--config", "/nonexistent.json"], capsys)
    assert code == 2
    assert "error" in err


_SWEEP_BASE = {
    "ensemble": {"n": 16, "measurement": {"kind": "identity"}, "sparsity": {"kind": "dft1d"}},
    "structures": [{"kind": "singletons"}, {"kind": "strided1d", "g": 4}],
    "support": {"model": "unrestricted", "k": 2, "draws": 1},
    "sweep": {"trials_per_m": 2, "success_quota": 0.5, "step": 8},
    "solver": {"max_iters": 200},
    "seeds": {"master": 3},
}


def test_threads_option_is_unknown(tmp_path, capsys):
    cfg = write_config(tmp_path, "base.json", _SWEEP_BASE)
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", "--config", cfg, "--threads", "2"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value",
    [
        (("solver", "tol_obj"), 1e-6),
        (("structures", 1, "orientation"), "vertical"),
        (("sweep", "early_stop"), False),
        (("sweep", "fresh_coefficients"), False),
    ],
)
def test_removed_config_keys_exit_2(tmp_path, capsys, path, value):
    cfg = copy.deepcopy(_SWEEP_BASE)
    _set_path(cfg, path, value)
    code, out, err = run_cli(["sweep", "--config", write_config(tmp_path, "old.json", cfg)], capsys)
    assert code == 2
    assert f"unknown key(s) [{path[-1]!r}]" in err and "Traceback" not in err


def test_mode_exact_is_not_a_choice(tmp_path, capsys):
    # the penalty factor has one route choice, made from the rows: no --mode
    cfg = write_config(tmp_path, "base.json", _SWEEP_BASE)
    with pytest.raises(SystemExit) as exit_:
        main(["gamma", "--config", cfg, "--mode", "auto"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --mode auto" in capsys.readouterr().err


def test_sweep_step_must_divide_the_grid(tmp_path, capsys):
    cfg = copy.deepcopy(_SWEEP_BASE)
    cfg["sweep"]["m_grid"] = [8, 12]
    code, out, err = run_cli(["sweep", "--config", write_config(tmp_path, "step.json", cfg)], capsys)
    assert code == 2 and out == ""
    assert "sweep.step must divide every grid value, got step=8" in err


@pytest.mark.parametrize(
    "path, value, flag, name",
    [
        (("seeds", "master"), -1, [], "seeds.master"),
        (None, None, ["--seed", "-1"], "--seed"),
        (("structures", 1), {"kind": "random", "g": 4, "seed": -1}, [], "structure.seed"),
    ],
)
def test_negative_seed_exits_2_naming_the_key(tmp_path, capsys, path, value, flag, name):
    cfg = copy.deepcopy(_SWEEP_BASE)
    if path:
        _set_path(cfg, path, value)
    code, out, err = run_cli(["sweep", "--config", write_config(tmp_path, "seed.json", cfg), *flag], capsys)
    assert code == 2 and out == ""
    assert f"{name} must be a non-negative integer, got -1" in err and "Traceback" not in err


def test_python_m_groupcs_writes_same_bytes(tmp_path):
    # the package runs as `python -m groupcs` from a source tree, without installation
    cfg = write_config(tmp_path, "base.json", _SWEEP_BASE)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "groupcs", "sweep", "--config", cfg,
         "--out", str(tmp_path / "module.csv")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "main.csv")]) == 0
    assert (tmp_path / "module.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


def _set_path(cfg, path, value):
    *parents, last = path
    for key in parents:
        cfg = cfg[key]
    cfg[last] = value


@pytest.mark.parametrize(
    "path, value, name",
    [
        (("structures", 1, "g"), None, "structure.g"),
        (("structures", 1, "g"), [11], "structure.g"),
        (("sweep", "trials_per_m"), None, "sweep.trials_per_m"),
        (("sweep", "step"), "11", "sweep.step"),
        # an empty grid is an error, not a request for the default grid
        (("sweep", "m_grid"), [], "sweep.m_grid"),
        (("sweep", "success_quota"), None, "sweep.success_quota"),
        (("solver", "max_iters"), None, "solver.max_iters"),
        (("seeds", "master"), None, "seeds.master"),
        (("support", "k"), None, "support.k"),
        (("ensemble", "n"), "44", "ensemble.n"),
        (("solver", "max_iters"), 0, "solver.max_iters"),
        (("solver", "tol_feas"), -1, "solver.tol_feas"),
        (("solver", "tol_feas"), float("nan"), "solver.tol_feas"),
        (("sweep", "success_nre"), float("nan"), "sweep.success_nre"),
        (("structures", 1, "cyclic"), "false", "structure.cyclic"),
        (("ensemble", "measurement"), {"kind": "custom", "path": 5}, "ensemble.measurement.path"),
        (("ensemble", "sparsity"), {"kind": "custom", "path": 5}, "ensemble.sparsity.path"),
        (("support", "image"), 5, "support.image"),
        (("validate", "t0"), "3", "validate.t0"),
        (("support", "draws"), 0, "support.draws"),
        (("support", "indices"), [3, 15, 16], "support.indices"),
        (("support", "channels"), 0, "support.channels"),
        (("support", "width_frac"), 0, "support.width_frac"),
        (("support", "width_frac"), 1.5, "support.width_frac"),
        # as for the sweep, an empty grid is not a request for validate.m
        (("validate", "m_grid"), [], "validate.m_grid"),
        # range errors name the key, not the library's argument
        (("validate", "m"), -4, "validate.m"),
        (("validate", "m"), 17, "validate.m"),
        (("validate", "m_grid"), [8, 17], "validate.m_grid[1]"),
        (("validate", "m"), 0, "validate.m"),
        (("validate", "m_grid"), [8, 0], "validate.m_grid[1]"),
        (("validate", "trials"), 0, "validate.trials"),
    ],
)
def test_malformed_config_scalar_exits_2(tmp_path, capsys, path, value, name):
    cfg = copy.deepcopy(_SWEEP_BASE)
    command = ["sweep"]
    if path[0] == "validate":  # validate takes one structure, here with g=4
        command, cfg["structures"], cfg["validate"] = ["validate", "gram"], cfg["structures"][1:], {"m": 8}
    _set_path(cfg, path, value)
    code, out, err = run_cli([*command, "--config", write_config(tmp_path, "bad.json", cfg)], capsys)
    assert code == 2
    assert f"{name} must be" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "grid, name", [([6, 8], "sweep.m_grid[0]"), ([8, 20], "sweep.m_grid[1]"), ([0, 8], "sweep.m_grid[0]")]
)
def test_sweep_grid_value_errors_name_the_key(tmp_path, capsys, grid, name):
    # a value strided1d (g=4) cannot draw, or one outside the baseline's [1, N]
    cfg = copy.deepcopy(_SWEEP_BASE)
    del cfg["sweep"]["step"]
    cfg["sweep"]["m_grid"] = grid
    code, out, err = run_cli(["sweep", "--config", write_config(tmp_path, "bad.json", cfg)], capsys)
    assert code == 2
    assert f"{name} must be" in err and "Traceback" not in err


def _table_paths(table=cli.CONFIG, path=(), name=""):
    """(config path, the name messages give it, Key) of every key of a
    table; a list of tables stands for its last item."""
    for key_name, key in table.items():
        key_path, key_name = (*path, key_name), f"{name}.{key_name}" if name else key_name
        yield key_path, key_name, key
        if isinstance(key.type, dict):
            yield from _table_paths(key.type, key_path, key_name)
        elif isinstance(key.type, list) and key.type != [int]:
            # an item of "structures" is a "structure"
            yield (*key_path, -1), key_name[:-1], cli.Key(key.type[0])
            yield from _table_paths(key.type[0], (*key_path, -1), key_name[:-1])


def _has_parent(cfg, path):
    for key in path[:-1]:
        if not isinstance(cfg, (dict, list)) or (isinstance(cfg, dict) and key not in cfg):
            return False
        cfg = cfg[key]
    return True


# one structure and one factor are fuzzed whole; every other key of the
# table in a section of the sweep config is fuzzed on its own, so that no
# mutation lands beneath an object that another one replaced
_FUZZ_OBJECTS = [("structures", 0), ("ensemble", "sparsity")]
_FUZZ_PATHS = _FUZZ_OBJECTS + [
    path
    for path, _, key in _table_paths()
    if len(path) > 1 and not isinstance(key.type, dict) and _has_parent(_SWEEP_BASE, path)
    and path[:2] not in _FUZZ_OBJECTS
]
# small values only: a valid mutation still runs a sweep
_FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.sampled_from([0.5, -1.0, 2.5, 1e-3, float("nan"), float("inf")]),
    st.sampled_from(["", "11", "x", "dft1d", "singletons"]),
    st.lists(st.integers(-2, 12), max_size=3),
    st.just({}),
)


def _fuzz_exit_code(command, base, mutations):
    cfg = copy.deepcopy(base)
    for path, value in mutations:
        _set_path(cfg, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*command, "--config", str(path), "--out", str(Path(tmp) / "out.csv")])
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_FUZZ_PATHS), _FUZZ_VALUES), min_size=1, max_size=3))
def test_config_fuzz_exits_0_or_2(mutations):
    code, err = _fuzz_exit_code(["sweep"], _SWEEP_BASE, mutations)
    assert code in (0, 2), err


_VALIDATE_BASE = {
    "ensemble": {"n": 16, "measurement": {"kind": "identity"}, "sparsity": {"kind": "dft1d"}},
    "structure": {"kind": "strided1d", "g": 4},
    "support": {"model": "unrestricted", "k": 2},
    "validate": {"m": 8, "m_grid": [4, 8], "trials": 5, "t0": None},
    "seeds": {"master": 3},
}


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["gram", "crossrow"]),
    st.lists(
        st.tuples(st.sampled_from([("validate", k) for k in ("m", "m_grid", "trials", "t0")]),
                  _FUZZ_VALUES),
        min_size=1,
        max_size=3,
    ),
)
def test_validate_config_fuzz_exits_0_or_2(target, mutations):
    code, err = _fuzz_exit_code(["validate", target], _VALIDATE_BASE, mutations)
    assert code in (0, 2) and "Traceback" not in err, err


@pytest.mark.parametrize(
    "target, key, value, message",
    [
        ("gram", "trials", 0, "validate.trials must be at least 1, got 0"),
        ("gram", "trials", -3, "validate.trials must be at least 1, got -3"),
        ("crossrow", "trials", 0, "validate.trials must be at least 1, got 0"),
        ("crossrow", "trials", -3, "validate.trials must be at least 1, got -3"),
        pytest.param("crossrow", "t0", -1, "validate.t0 must be in [0, 15], got -1", id="crossrow-t0--1-range"),
        pytest.param("crossrow", "t0", 16, "validate.t0 must be in [0, 15], got 16", id="crossrow-t0-16-range"),
        # the base config's support is {1, 5}
        pytest.param("crossrow", "t0", 5, "validate.t0 must lie off the support, got 5", id="crossrow-t0-5-support"),
    ],
)
def test_validate_rejects_trials_and_t0(tmp_path, capsys, target, key, value, message):
    cfg = copy.deepcopy(_VALIDATE_BASE)
    cfg["validate"][key] = value
    code, out, err = run_cli(
        ["validate", target, "--config", write_config(tmp_path, "bad.json", cfg)], capsys
    )
    assert code == 2
    assert message in err and "Traceback" not in err


def test_support_indices_mode(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "ix.json",
        {
            "ensemble": {
                "n": 16,
                "measurement": {"kind": "identity"},
                "sparsity": {"kind": "dft1d"},
            },
            "structure": {"kind": "contiguous1d", "g": 4},
            "support": {"indices": [1, 5, 9]},
        },
    )
    code, out, err = run_cli(["gamma", "--config", cfg], capsys)
    assert code == 0
    assert "indices-k3" in out
    # the indices are a set: their order in the config does not matter
    unsorted = json.loads(open(cfg).read())
    unsorted["support"]["indices"] = [9, 1, 5]
    assert run_cli(["gamma", "--config", write_config(tmp_path, "ix9.json", unsorted)], capsys) == (0, out, err)


@pytest.mark.parametrize(
    "support, message",
    [
        ({"indices": [1, 3], "k": 5, "draws": 4, "model": "subband"}, "['draws', 'k', 'model']"),
        ({"indices": [1, 3], "channels": 3, "width_frac": 0.1}, "['channels', 'width_frac']"),
        ({"indices": [1, 3], "image": "img.pgm"}, "['image'] do not apply to supports from support.indices"),
        ({"image": "img.pgm", "k": 5, "draws": 2, "model": "subband"}, "['draws', 'model']"),
        ({"model": "unrestricted", "k": 3, "tile_rows": 4, "tile_cols": 4}, "['tile_cols', 'tile_rows']"),
    ],
)
def test_support_keys_of_another_source_exit_2(tmp_path, capsys, support, message):
    # a key the support's source does not read is an error, not ignored
    cfg = {
        "ensemble": {"n": 16, "measurement": {"kind": "identity"}, "sparsity": {"kind": "dft1d"}},
        "structure": {"kind": "contiguous1d", "g": 4},
        "support": support,
    }
    code, out, err = run_cli(["gamma", "--config", write_config(tmp_path, "s.json", cfg)], capsys)
    assert code == 2 and out == ""
    assert "support" in err and message in err and "Traceback" not in err


def test_validate_crossrow_on_a_full_support_exits_2(tmp_path, capsys):
    cfg = copy.deepcopy(_VALIDATE_BASE)
    cfg["support"] = {"indices": list(range(16))}
    code, out, err = run_cli(
        ["validate", "crossrow", "--config", write_config(tmp_path, "full.json", cfg)], capsys
    )
    assert code == 2 and out == ""
    assert "support covers every index" in err and "t0" in err and "Traceback" not in err


def test_image_support_via_pgm(tmp_path, capsys):
    from groupcs.harness import synthetic_image

    img = synthetic_image(8, 8, np.random.default_rng(0))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    cfg = write_config(
        tmp_path,
        "img.json",
        {
            "ensemble": {
                "rows": 8,
                "cols": 8,
                "measurement": {"kind": "identity"},
                "sparsity": {"kind": "haar2d"},
            },
            "structure": {"kind": "rect2d", "g": 4},
            "support": {"image": str(path), "k": 5},
        },
    )
    code, out, err = run_cli(["gamma", "--config", cfg], capsys)
    assert code == 0, err
    assert "image-k5" in out


def _tiled_image_config(tmp_path, tiles):
    from groupcs.harness import synthetic_image

    path = tmp_path / "img16.pgm"
    write_pgm(path, synthetic_image(16, 16, np.random.default_rng(0)))
    return write_config(
        tmp_path,
        "tiles.json",
        {
            "ensemble": {
                "rows": 8,
                "cols": 8,
                "measurement": {"kind": "identity"},
                "sparsity": {"kind": "haar2d"},
            },
            "structure": {"kind": "rect2d", "g": 4},
            "support": {"image": str(path), "k": 5, **tiles},
        },
    )


def test_image_tiles_are_supports(tmp_path, capsys):
    cfg = _tiled_image_config(tmp_path, {"tile_rows": 8, "tile_cols": 8})
    code, out, err = run_cli(["gamma", "--config", cfg], capsys)
    assert code == 0, err
    supports = [r["support"] for r in csv.DictReader(io.StringIO(out))]
    assert supports == ["tile0_0-k5", "tile0_8-k5", "tile8_0-k5", "tile8_8-k5"]


@pytest.mark.parametrize(
    "tiles, message",
    [
        ({"tile_rows": 8}, "go together"),
        ({"tile_cols": 8}, "go together"),
        ({"tile_rows": 0, "tile_cols": 8}, "at least 1x1"),
        ({"tile_rows": -8, "tile_cols": -8}, "at least 1x1"),
        ({"tile_rows": 32, "tile_cols": 8}, "no 32x8 tile fits the 16x16 image"),
    ],
)
def test_bad_image_tiling_exits_2(tmp_path, capsys, tiles, message):
    cfg = _tiled_image_config(tmp_path, tiles)
    for command in ("gamma", "sweep"):
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert message in err and "Traceback" not in err


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.random((8, 16))
    quantized = np.rint(img * 255) / 255
    for binary in (True, False):
        path = tmp_path / f"t{binary}.pgm"
        write_pgm(path, img, binary=binary)
        back = read_pgm(path)
        assert back.shape == (8, 16)
        assert np.allclose(back, quantized, atol=1e-12)


def test_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P9\n2 2\n255\n")
    with pytest.raises(ValueError):
        read_pgm(path)


def _bench_workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _record_per_m(monkeypatch):
    # the scatter runs every sweep through one TrialPool.run call
    from groupcs.recovery import TrialPool

    per_m = []
    run = TrialPool.run

    def recording(*args, **kwargs):
        results = run(*args, **kwargs)
        per_m.extend(s for res in results for s in res.per_m)
        return results

    monkeypatch.setattr(TrialPool, "run", recording)
    return per_m


def test_sweep_pins_e1_verdicts(tmp_path, capsys, monkeypatch):
    # the E1 protocol (n=220 DFT, g=11, 100 trials per m, quota 0.99,
    # max_iters 6000) on the benchmark's frozen sub-band support, seed 7
    workloads = _bench_workloads(monkeypatch)
    cfg = workloads.e1_config(7, tmp_path)
    assert cfg["support"]["indices"] == workloads.E1_SUPPORT
    per_m = _record_per_m(monkeypatch)
    code, out, err = run_cli(["sweep", "--config", write_config(tmp_path, "e1.json", cfg)], capsys)
    assert code == 0, err
    m_min = {r["structure"]: r["m_min"] for r in csv.DictReader(io.StringIO(out))}
    assert m_min == {"strided1d": "132", "contiguous1d": "132", "singletons": "44"}
    # some failures are proved by a feasible iterate of smaller l1 norm, and
    # some successes by a certificate built from the ADMM dual iterate
    assert sum(s.descent for s in per_m) > 0
    assert sum(s.dual for s in per_m) > 0


def test_sweep_pins_e2_verdicts(tmp_path, capsys, monkeypatch):
    # the E2 sweep (32x32 Haar image, k=51, rect2d and cyclic spiral2d with
    # g=8, grid 64/256/1024, seed 7): every verdict is proved at iteration 0,
    # and no ADMM iteration runs
    from groupcs import recovery

    workloads = _bench_workloads(monkeypatch)
    cfg = workloads.e2_sweep_config(7, tmp_path)
    per_m = _record_per_m(monkeypatch)

    def admm_ran(*args, **kwargs):
        pytest.fail("ADMM ran")

    monkeypatch.setattr(recovery._Block, "step", admm_ran)
    code, out, err = run_cli(["sweep", "--config", write_config(tmp_path, "e2.json", cfg)], capsys)
    assert code == 0, err
    rows = {r["structure"]: (r["m_min"], r["m0"]) for r in csv.DictReader(io.StringIO(out))}
    assert rows == {"rect2d": ("1024", "1024"), "cyclic_spiral2d": ("1024", "1024")}
    assert {s.m for s in per_m} == {64, 256, 1024}
    for s in per_m:
        assert s.solved == s.descent == s.dual == 0
        # below N the support submatrix is rank-deficient; at N every trial certifies
        assert (s.rank_deficient if s.m < 1024 else s.certified) == s.executed > 0


def test_sweep_rejects_structures_sharing_a_label(tmp_path, capsys):
    # strided1d with g=5 and g=11 share a label: their rows could not be told
    # apart, and they would draw the same trials
    cfg = write_config(
        tmp_path,
        "twice.json",
        {
            "ensemble": {"n": 220, "measurement": {"kind": "identity"}, "sparsity": {"kind": "dft1d"}},
            "structures": [{"kind": "strided1d", "g": 5}, {"kind": "strided1d", "g": 11}],
            "support": {"indices": [14, 15, 18, 19, 21, 22, 116, 117, 123, 125, 126]},
            "sweep": {"step": 55, "trials_per_m": 2, "success_quota": 0.5},
            "seeds": {"master": 1},
        },
    )
    code, out, err = run_cli(["sweep", "--config", cfg], capsys)
    assert code == 2 and out == ""
    assert err.startswith("groupcs: error: structures share the label strided1d")


def _dense_a_free_configs(tmp_path, monkeypatch):
    """(config with every structure, config with the first) for a 16x16
    dft2d/identity ensemble and for the E2 benchmark workload."""
    d16 = {
        "ensemble": {"rows": 16, "cols": 16, "measurement": {"kind": "dft2d"}, "sparsity": {"kind": "identity"}},
        "structures": [{"kind": "vlines2d", "g": 16}, {"kind": "rect2d", "g": 4}],
        "support": {"k": 8},
        "sweep": {"step": 16, "trials_per_m": 4, "success_quota": 0.75},
        "validate": {"m": 64, "m_grid": [64, 128], "trials": 20},
        "seeds": {"master": 1},
    }
    e2 = _bench_workloads(monkeypatch).e2_sweep_config(7, tmp_path)
    e2["validate"]["trials"] = 20
    for name, cfg in (("d16", d16), ("e2", e2)):
        yield (write_config(tmp_path, f"{name}.json", cfg),
               write_config(tmp_path, f"{name}-one.json", dict(cfg, structures=cfg["structures"][:1])))


def test_no_command_reads_the_dense_a(tmp_path, capsys, monkeypatch):
    # every reader of A takes its columns; the dense A is formed only when
    # asked for, so no command changes when asking for it fails
    from groupcs.operators import MeasurementEnsemble

    commands = [(["gamma"], 0), (["sweep"], 0), (["validate", "gram"], 1), (["validate", "crossrow"], 1)]
    for configs in _dense_a_free_configs(tmp_path, monkeypatch):
        runs = []
        for patched in (False, True):
            with monkeypatch.context() as patch:
                if patched:
                    def dense_a(e):
                        raise AssertionError("the dense A was read")

                    patch.setattr(MeasurementEnsemble, "a", property(dense_a))
                outputs = []
                for command, one in commands:
                    code, out, err = run_cli([*command, "--config", configs[one]], capsys)
                    assert code == 0, err
                    outputs.append(out)
                runs.append(outputs)
        assert runs[0] == runs[1]


def _readme_configs():
    """The README's configuration block, its // comments stripped, and its
    narrowband sweep example."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```jsonc\n(.*?)```", text, re.S)
    (example,) = re.findall(r"cat > fig\.json <<'EOF'\n(.*?)\nEOF\n", text, re.S)
    return {"jsonc": re.sub(r"//.*", "", block), "narrowband": example}


@pytest.mark.parametrize("name", ["jsonc", "narrowband"])
def test_readme_configs_load(tmp_path, name):
    # a key removed from the program and left in the README fails here
    path = tmp_path / f"{name}.json"
    path.write_text(_readme_configs()[name])
    cfg = cli.load_config(path)
    seed = cli.master_seed_of(cfg, None)
    e, rows, cols, _ = cli.build_ensemble(cfg)
    structures = cli.build_structures(cfg, e.n, rows, cols)
    assert cli.build_supports(cfg, e, rows, cols, seed)
    cli.build_sweep_config(cfg, e.n, max(gs.g for gs in structures), seed)
    cli.build_solver(cfg)


def test_readme_jsonc_lists_the_table_keys():
    # every key of the table is named in the README's configuration block,
    # its comments included, and the block names no other key
    (block,) = re.findall(r"```jsonc\n(.*?)```", (Path(__file__).resolve().parents[1] / "README.md").read_text(), re.S)
    assert set(re.findall(r'"(\w+)"\s*:', block)) == {name.rsplit(".", 1)[-1] for _, name, _ in _table_paths()}


# every section present, so that every key of the table is checked
_FULL_BASE = {
    "ensemble": {"n": 16, "measurement": {"kind": "identity"}, "sparsity": {"kind": "dft1d"}},
    "structure": {"kind": "strided1d", "g": 4},
    "support": {"model": "unrestricted", "k": 2},
    "sweep": {},
    "solver": {},
    "seeds": {},
    "validate": {"m": 8},
}


def _bad_values(key):
    """Values the table rejects for a key: of a wrong type, null where the
    default is not None, and out of its range."""
    lo = [] if key.lo is None else [key.lo - 1]
    if isinstance(key.type, dict):
        bad = [5, "x", []]
    elif key.type == [int]:
        bad = ["x", [], [1.5], {}, *([v] for v in lo)]
    elif isinstance(key.type, list):
        bad = ["x", [], {}]
    elif isinstance(key.type, tuple):
        bad = ["bogus", 5]
    elif key.type is int:
        bad = ["x", 1.5, True, [1], *lo]
    elif key.type is float:
        bad = ["x", True, 0, -1.0, float("nan"), -(10**400), 2 * key.hi]
    else:  # str or bool
        bad = [5, "false" if key.type is bool else True]
    return bad + ([None] if key.default is not None else [])


_TABLE_PATHS = list(_table_paths())


@pytest.mark.parametrize("path, name, key", _TABLE_PATHS, ids=["/".join(map(str, p)) for p, _, _ in _TABLE_PATHS])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_table_rejects_bad_values_naming_the_key(path, name, key, data):
    # a value of the wrong type or out of range, or an unknown key beside it,
    # exits 2 naming the key (or, for the unknown key, its section)
    cfg = copy.deepcopy(_FULL_BASE)
    if path[0] == "structures":
        cfg["structures"] = [cfg.pop("structure")]
    if path[-1] != -1 and data.draw(st.booleans()):
        _set_path(cfg, (*path[:-1], "zzz"), 1)
        parent = name.rsplit(".", 1)[0] if len(path) > 1 else "config"
        expected = f"unknown key(s) ['zzz'] in {parent}"
    else:
        _set_path(cfg, path, data.draw(st.sampled_from(_bad_values(key))))
        expected = name
    code, err = _fuzz_exit_code(["gamma"], cfg, [])
    assert code == 2 and expected in err and "Traceback" not in err, err


def _pgm_8x8(tmp_path):
    from groupcs.harness import synthetic_image

    write_pgm(tmp_path / "img8.pgm", synthetic_image(8, 8, np.random.default_rng(0)))
    return str(tmp_path / "img8.pgm")


_N64 = {
    "ensemble": {"n": 64, "measurement": {"kind": "identity"}, "sparsity": {"kind": "dft1d"}},
    "structure": {"kind": "strided1d", "g": 4},
    "support": {"model": "unrestricted", "k": 4},
}
_HAAR8 = {
    "ensemble": {"rows": 8, "cols": 8, "measurement": {"kind": "identity"}, "sparsity": {"kind": "haar2d"}},
    "structure": {"kind": "rect2d", "g": 4},
    "support": {"model": "unrestricted", "k": 4},
}


@pytest.mark.parametrize(
    "base, edits, command, message",
    [
        # keys that no reader takes
        (_N64, {("structure", "cyclic"): True}, "gamma",
         "structure key(s) ['cyclic'] do not apply to structure.kind 'strided1d'"),
        (_N64, {("structure", "seed"): 3}, "gamma",
         "structure key(s) ['seed'] do not apply to structure.kind 'strided1d'"),
        (_N64, {("structure",): {"kind": "singletons", "g": 4}}, "gamma",
         "structure key(s) ['g'] do not apply to structure.kind 'singletons'"),
        (_N64, {("ensemble", "sparsity", "levels"): 2}, "gamma",
         "ensemble.sparsity key(s) ['levels'] do not apply to ensemble.sparsity.kind 'dft1d'"),
        (_N64, {("ensemble", "measurement", "path"): "u.npy"}, "gamma",
         "ensemble.measurement key(s) ['path'] do not apply to ensemble.measurement.kind 'identity'"),
        (_N64, {("support", "channels"): 3}, "gamma",
         "support key(s) ['channels'] do not apply to support.model 'unrestricted'"),
        (_N64, {("ensemble", "rows"): 3}, "gamma", "ensemble.rows and ensemble.cols go together"),
        (_N64, {("structures",): [{"kind": "singletons"}], ("structure",): {"kind": "bogus"}}, "gamma",
         "structure.kind must be one of"),
        (_N64, {("structures",): [{"kind": "singletons"}]}, "gamma",
         "config takes a structure or a structures section, not both"),
        # the removed commands' sections are unknown keys
        (_N64, {("recover",): {"m": 8}}, "gamma", "unknown key(s) ['recover'] in config"),
        (_N64, {("bounds",): {"n": 64, "t_size": 4, "mu": 0.125, "gamma": 2.0, "delta": 0.05}}, "gamma",
         "unknown key(s) ['bounds'] in config"),
        (_N64, {("support",): {"indices": [1, 1, 2]}}, "gamma", "support.indices must be distinct, got [1, 1, 2]"),
        # range errors name the key
        (_N64, {("support", "k"): 100}, "gamma", "support.k must be in [0, 64], got 100"),
        (_HAAR8, {("support",): {"image": "IMAGE", "k": 100}}, "gamma", "support.k must be in [0, 64], got 100"),
        (_N64, {("support", "model"): "foo"}, "gamma",
         "support.model must be one of ['unrestricted', 'subband'], got 'foo'"),
        (_N64, {("structure", "g"): 7}, "gamma",
         "structure.g does not fit strided1d: group size 7 must divide n=64"),
        (_N64, {("ensemble", "n"): 0}, "gamma", "ensemble.n must be at least 1, got 0"),
        (_N64, {("ensemble", "sparsity", "kind"): "foo"}, "gamma", "ensemble.sparsity.kind must be one of"),
        (_HAAR8, {("ensemble", "sparsity", "levels"): -1}, "gamma",
         "ensemble.sparsity.levels must be at least 1, got -1"),
        (_HAAR8, {("ensemble", "n"): 10}, "gamma", "ensemble.n must be rows*cols = 64, got 10"),
        # and the removed commands are unknown commands
        (_N64, {}, "recover", "invalid choice: 'recover'"),
        (_N64, {}, "bounds", "invalid choice: 'bounds'"),
        (_N64, {}, "gen-groups", "invalid choice: 'gen-groups'"),
    ],
)
def test_config_the_table_rejects_exits_2(tmp_path, capsys, base, edits, command, message):
    cfg = copy.deepcopy(base)
    for path, value in edits.items():
        _set_path(cfg, path, value)
    cfg = json.loads(json.dumps(cfg).replace('"IMAGE"', json.dumps(_pgm_8x8(tmp_path))))
    code, out, err = run_cli([command, "--config", write_config(tmp_path, "c.json", cfg)], capsys)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_basis_kinds_match_in_any_case(tmp_path, capsys):
    # make_basis takes a kind in any case, and so does the table
    upper = copy.deepcopy(_N64)
    upper["ensemble"]["measurement"]["kind"], upper["ensemble"]["sparsity"]["kind"] = "IDENTITY", "DFT1D"
    runs = [run_cli(["gamma", "--config", write_config(tmp_path, f"{i}.json", c)], capsys)
            for i, c in enumerate((_N64, upper))]
    assert runs[0][0] == 0 and runs[1] == runs[0]
