import io
import json

import numpy as np
import pytest

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
    assert lines[0] == "m,trials,fail_rate,mean_dev,max_dev"
    last = lines[-1].split(",")
    assert last[0] == "64" and float(last[2]) == 0.0


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
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["nre"]) <= 1e-6
    assert cells["converged"] == "1"


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


def test_missing_config_file(capsys):
    code, out, err = run_cli(["gamma", "--config", "/nonexistent.json"], capsys)
    assert code == 2
    assert "error" in err


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
    t_img, c0 = __import__("groupcs.harness", fromlist=["image_to_sparse"]).image_to_sparse(
        read_pgm(src), 12
    )
    from groupcs.operators import haar2d_synthesis

    expect = haar2d_synthesis(c0.reshape(8, 8))
    assert np.max(np.abs(rec - np.clip(np.rint(expect * 255), 0, 255) / 255)) <= 1e-12


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
