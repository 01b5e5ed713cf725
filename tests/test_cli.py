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
    code = main(args)
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


def test_bounds_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "b.json",
        {"bounds": {"n": 64, "t_size": 4, "mu": 0.125, "gamma": 2.0, "delta": 0.05}},
    )
    code, out, err = run_cli(["bounds", "--config", cfg], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bound,value"
    names = [l.split(",")[0] for l in lines[1:]]
    assert names == ["unstructured", "grouped", "gram"]
    grouped = float(lines[2].split(",")[1])
    unstructured = float(lines[1].split(",")[1])
    assert grouped == pytest.approx(2.0 * unstructured, rel=1e-9)


@pytest.mark.parametrize(
    "fields",
    [{"mu": float("nan")}, {"gamma": float("inf"), "const": float("nan")}],
)
def test_bounds_non_finite_fields_exit_2(tmp_path, capsys, fields):
    # json reads the literals NaN and Infinity; no bound is computed from them
    query = {"n": 64, "t_size": 4, "mu": 0.125, "gamma": 2.0, "delta": 0.05, **fields}
    cfg = write_config(tmp_path, "b.json", {"bounds": query})
    code, out, err = run_cli(["bounds", "--config", cfg], capsys)
    assert code == 2 and out == ""
    assert "positive and finite" in err and "Traceback" not in err


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


def test_gen_groups_partition(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "g.json",
        {
            "ensemble": {
                "rows": 4,
                "cols": 4,
                "measurement": {"kind": "identity"},
                "sparsity": {"kind": "haar2d"},
            },
            "structure": {"kind": "spiral2d", "g": 4, "cyclic": True},
        },
    )
    code, out, err = run_cli(["gen-groups", "--config", cfg], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    members = sorted(int(r[2]) for r in rows)
    assert members == list(range(16))
    assert len({r[1] for r in rows}) == 4


def test_recover_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "r.json",
        {
            "ensemble": {
                "n": 32,
                "measurement": {"kind": "identity"},
                "sparsity": {"kind": "dft1d"},
            },
            "structure": {"kind": "strided1d", "g": 4},
            "support": {"model": "unrestricted", "k": 3},
            "recover": {"m": 20},
            "seeds": {"master": 5},
        },
    )
    code, out, err = run_cli(["recover", "--config", cfg], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "support,structure,n,m,g,nre,feas_residual,objective,iterations,converged"
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["nre"]) <= 1e-6
    assert cells["converged"] == "1"


def test_recover_solves_the_support_c0_on_trial_0_rows(tmp_path, capsys):
    # each row is the support's own c0, measured on the rows of trial 0 of
    # the sweep's stream at m and solved without verdicts
    from groupcs.grouping import draw_uniform
    from groupcs.harness import format_float, trial_rng
    from groupcs.recovery import nre, solve_trials

    m, seed = 16, 5
    path = write_config(tmp_path, "r.json", {
        "ensemble": {"n": 32, "measurement": {"kind": "identity"}, "sparsity": {"kind": "dft1d"}},
        "structure": {"kind": "contiguous1d", "g": 4},
        "support": {"model": "unrestricted", "k": 5, "draws": 3},
        "recover": {"m": m},
        "solver": {"max_iters": 3000},
        "seeds": {"master": seed},
    })
    code, out, err = run_cli(["recover", "--config", path], capsys)
    assert code == 0, err
    cfg = cli.load_config(path)
    e, rows, cols, _ = cli.build_ensemble(cfg)
    (gs,) = cli.build_structures(cfg, e.n, rows, cols)
    omega = draw_uniform(gs, m, trial_rng(seed, gs.label, m, 0)).omega
    supports, solver = cli.build_supports(cfg, e, rows, cols, seed), cli.build_solver(cfg)
    got = list(csv.DictReader(io.StringIO(out)))
    assert len(got) == len(supports) == 3
    for row, sup in zip(got, supports):
        (res,), _ = solve_trials(e, omega[None], sup.c0[None], solver, verdicts=False)
        assert row["support"] == sup.descriptor
        assert (row["iterations"], row["objective"], row["nre"], row["feas_residual"]) == (
            str(res.iterations),
            format_float(res.objective),
            format_float(nre(sup.c0, res.c_hat)),
            format_float(res.feas_residual),
        )


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"bogus": 1})
    code, out, err = run_cli(["bounds", "--config", cfg], capsys)
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
    # "auto" takes the exact route wherever it exists
    cfg = write_config(tmp_path, "base.json", _SWEEP_BASE)
    with pytest.raises(SystemExit) as exit_:
        main(["gamma", "--config", cfg, "--mode", "exact"])
    assert exit_.value.code == 2
    assert "invalid choice: 'exact'" in capsys.readouterr().err


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
        (("recover", "dump_reconstruction"), 1, "recover.dump_reconstruction"),
        (("support", "draws"), 0, "support.draws"),
        (("support", "indices"), [3, 15, 16], "support.indices"),
        (("support", "channels"), 0, "support.channels"),
        (("support", "width_frac"), 0, "support.width_frac"),
        (("support", "width_frac"), 1.5, "support.width_frac"),
        # as for the sweep, an empty grid is not a request for validate.m
        (("validate", "m_grid"), [], "validate.m_grid"),
    ],
)
def test_malformed_config_scalar_exits_2(tmp_path, capsys, path, value, name):
    cfg = copy.deepcopy(_SWEEP_BASE)
    command = ["sweep"]
    if path[0] == "recover":  # recover takes one structure
        command, cfg["structures"], cfg["recover"] = ["recover"], cfg["structures"][:1], {"m": 8}
    if path[0] == "validate":  # so does validate
        command, cfg["structures"], cfg["validate"] = ["validate", "gram"], cfg["structures"][:1], {"m": 8}
    _set_path(cfg, path, value)
    code, out, err = run_cli([*command, "--config", write_config(tmp_path, "bad.json", cfg)], capsys)
    assert code == 2
    assert f"{name} must be" in err and "Traceback" not in err


_FUZZ_PATHS = [
    ("ensemble", "n"),
    ("ensemble", "measurement", "kind"),
    ("ensemble", "sparsity"),
    ("structures", 1, "g"),
    ("structures", 1, "kind"),
    ("structures", 0),
    ("support", "k"),
    ("support", "model"),
    ("support", "draws"),
    ("support", "channels"),
    ("support", "width_frac"),
    ("sweep", "trials_per_m"),
    ("sweep", "step"),
    ("sweep", "m_grid"),
    ("sweep", "success_quota"),
    ("sweep", "success_nre"),
    ("solver", "max_iters"),
    ("solver", "tol_feas"),
    ("seeds", "master"),
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
        ("gram", "trials", 0, "trials=0"),
        ("gram", "trials", -3, "trials=-3"),
        ("crossrow", "trials", 0, "trials=0"),
        ("crossrow", "trials", -3, "trials=-3"),
        ("crossrow", "t0", -1, "t0=-1"),
        ("crossrow", "t0", 16, "t0=16"),
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


def test_recover_dump_reconstruction(tmp_path, capsys):
    from groupcs.harness import synthetic_image

    img = synthetic_image(8, 8, np.random.default_rng(2))
    src = tmp_path / "src.pgm"
    write_pgm(src, img)
    dump = tmp_path / "rec.pgm"
    cfg = write_config(
        tmp_path,
        "rd.json",
        {
            "ensemble": {
                "rows": 8,
                "cols": 8,
                "measurement": {"kind": "identity"},
                "sparsity": {"kind": "haar2d"},
            },
            "structure": {"kind": "vlines2d", "g": 4},
            "support": {"image": str(src), "k": 12},
            "recover": {"m": 64, "dump_reconstruction": str(dump)},
        },
    )
    code, out, err = run_cli(["recover", "--config", cfg], capsys)
    assert code == 0, err
    rec = read_pgm(dump)
    # full sampling: the dump is the k-term compressed image
    from groupcs.harness import image_to_sparse
    from groupcs.operators import make_basis

    haar = make_basis("haar2d", rows=8, cols=8)
    t_img, c0 = image_to_sparse(read_pgm(src), 12, haar)
    expect = haar.synthesize(c0).reshape(8, 8)
    assert np.max(np.abs(rec - np.clip(np.rint(expect * 255), 0, 255) / 255)) <= 1e-12


@pytest.mark.parametrize("sparsity", [
    {"kind": "haar2d", "levels": 2}, {"kind": "haar2d"}, {"kind": "dft2d"}, {"kind": "identity"},
])
def test_recover_dumps_the_image_at_k_n(tmp_path, capsys, sparsity):
    # an image support holds the image's coefficients in the ensemble's own
    # sparsity basis, so at k = N and m = N the dump is the input image
    from groupcs.harness import synthetic_image

    src, dump = tmp_path / "src.pgm", tmp_path / "rec.pgm"
    write_pgm(src, synthetic_image(16, 16, np.random.default_rng(4)))
    cfg = {
        "ensemble": {"rows": 16, "cols": 16, "measurement": {"kind": "identity"}, "sparsity": sparsity},
        "structure": {"kind": "rect2d", "g": 4},
        "support": {"image": str(src), "k": 256},
        "recover": {"m": 256, "dump_reconstruction": str(dump)},
    }
    code, out, err = run_cli(["recover", "--config", write_config(tmp_path, "k256.json", cfg)], capsys)
    assert code == 0, err
    assert float(next(csv.DictReader(io.StringIO(out)))["nre"]) <= 1e-12
    assert np.array_equal(read_pgm(dump), read_pgm(src))


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
        "recover": {"m": 128},
        "seeds": {"master": 1},
    }
    e2 = _bench_workloads(monkeypatch).e2_sweep_config(7, tmp_path)
    e2["validate"]["trials"] = 20
    e2["recover"] = {"m": 1024, "dump_reconstruction": str(tmp_path / "e2.pgm")}
    for name, cfg in (("d16", d16), ("e2", e2)):
        yield (write_config(tmp_path, f"{name}.json", cfg),
               write_config(tmp_path, f"{name}-one.json", dict(cfg, structures=cfg["structures"][:1])))


def test_no_command_reads_the_dense_a(tmp_path, capsys, monkeypatch):
    # every reader of A takes its columns; the dense A is formed only when
    # asked for, so no command changes when asking for it fails
    from groupcs.operators import MeasurementEnsemble

    commands = [(["gamma"], 0), (["sweep"], 0), (["gen-groups"], 0),
                (["validate", "gram"], 1), (["validate", "crossrow"], 1), (["recover"], 1)]
    for configs in _dense_a_free_configs(tmp_path, monkeypatch):
        runs = []
        for patched in (False, True):
            with monkeypatch.context() as patch:
                if patched:
                    def dense_a(e):
                        raise AssertionError("the dense A was read")

                    patch.setattr(MeasurementEnsemble, "a", property(dense_a))
                dump = tmp_path / "e2.pgm"
                dump.unlink(missing_ok=True)
                outputs = []
                for command, one in commands:
                    code, out, err = run_cli([*command, "--config", configs[one]], capsys)
                    assert code == 0, err
                    outputs.append(out)
                outputs.append(dump.read_bytes() if dump.exists() else b"")
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
