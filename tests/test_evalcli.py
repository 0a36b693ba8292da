import argparse
import csv
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rahtp
from rahtp.evalcli import (bd_rate, build_parser, builtin_clouds,
                           compute_metrics, main, make_synthetic_cloud)


def _write_cloud(tmp_path, name="cloud.ply", count=400, depth=3, seed=1):
    cl = make_synthetic_cloud("sphere", count=count, depth=depth, seed=seed)
    path = tmp_path / name
    rahtp.save_ply(path, cl.positions, cl.attributes)
    return path, cl


def test_synthetic_cloud_deterministic_and_clipped():
    a = make_synthetic_cloud("sphere", count=500, depth=4, seed=3)
    b = make_synthetic_cloud("sphere", count=500, depth=4, seed=3)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.attributes, b.attributes)
    assert a.attributes.min() >= 0.0 and a.attributes.max() <= 255.0
    assert a.positions.max() < 16
    t = make_synthetic_cloud("torus", count=500, depth=4, seed=3)
    assert t.channels == 3
    with pytest.raises(ValueError):
        make_synthetic_cloud("plane")


def test_builtin_clouds_contents():
    clouds = builtin_clouds()
    assert set(clouds) == {"single", "pair", "sphere200"}
    assert len(clouds["pair"].positions) == 2


def test_compute_metrics_known_values():
    ref = np.array([[10.0, 0.0], [20.0, 0.0]])
    rec = np.array([[10.0, 0.0], [20.0, 5.0]])
    m = compute_metrics(ref, rec, payload_bytes=100, num_points=2,
                        coeff_count=7)
    assert m.mse == (0.0, 12.5)
    assert np.isinf(m.psnr[0])
    assert m.psnr[1] == pytest.approx(10 * np.log10(255 ** 2 / 12.5))
    assert m.bpp == pytest.approx(400.0)
    assert m.coeff_count == 7
    # (N,) is one channel of N values, not one row of N channels
    m = compute_metrics([1, 2, 3], [1, 2, 4], 10, 3, 3)
    assert m.mse == pytest.approx((1.0 / 3.0,))


def test_cli_encode_decode_roundtrip(tmp_path):
    path, cl = _write_cloud(tmp_path)
    bitstream = tmp_path / "out.bin"
    recon = tmp_path / "recon.ply"
    assert main(["encode", str(path), str(bitstream),
                 "--order", "2", "--step", "0.25",
                 "--taylor-k", "32"]) == 0
    assert bitstream.stat().st_size > 0
    assert main(["decode", str(bitstream), str(path), str(recon)]) == 0
    back = rahtp.voxelize(rahtp.load_ply(recon), 3)
    assert len(back.positions) == len(cl.positions)
    # float32 PLY storage plus quantization at step 0.25
    assert np.abs(back.attributes - cl.attributes).max() < 2.0


def test_cli_rd_csv(tmp_path):
    path, _ = _write_cloud(tmp_path)
    out = tmp_path / "rd.csv"
    code = main(["rd", str(path), str(out), "--steps", "2.0", "8.0",
                 "--orders", "1", "--taylor-k", "16"])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {"order", "step", "bpp", "psnr_y", "psnr_u", "psnr_v",
            "psnr_yuv"} <= set(rows[0])
    # coarser quantization cannot increase the rate
    assert float(rows[1]["bpp"]) <= float(rows[0]["bpp"])


def test_bd_rate_of_a_uniformly_cheaper_curve():
    rate = np.array([0.4, 0.9, 2.1, 4.4, 9.0])
    psnr = np.array([31.0, 35.2, 39.1, 43.5, 47.8])
    pct, (lo, hi) = bd_rate(rate, psnr, 0.8 * rate, psnr)
    assert abs(pct - (-20.0)) < 1e-9
    assert (lo, hi) == (31.0, 47.8)
    # the test curve 1 dB better: integrated over the overlap only
    pct, (lo, hi) = bd_rate(rate, psnr, rate, psnr + 1.0)
    assert pct < 0.0 and (lo, hi) == (32.0, 47.8)


def test_bd_rate_rejects_short_and_disjoint_curves():
    rate = [1.0, 2.0, 4.0, 8.0]
    with pytest.raises(ValueError, match="overlap"):
        bd_rate(rate, [30.0, 32.0, 34.0, 36.0], rate, [40.0, 42.0, 44.0, 46.0])
    with pytest.raises(ValueError, match="at least 4"):
        bd_rate(rate[:3], [30.0, 32.0, 34.0], rate, [30.0, 32.0, 34.0, 36.0])
    with pytest.raises(ValueError, match="finite"):
        bd_rate(rate, [30.0, 32.0, 34.0, np.inf], rate, [30.0, 32, 34, 36])


def test_bd_rate_rejects_a_curve_that_is_not_a_function_of_psnr():
    # two rates at 33 dB leave 3 distinct PSNRs: the cubic fit used to
    # return +0.00% with only a RankWarning
    rate = [1.0, 2.0, 4.0, 8.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="distinct PSNRs"):
            bd_rate(rate, [30.0, 32.0, 34.0, 36.0],
                    rate, [30.0, 33.0, 33.0, 36.0])


def test_cli_rd_prints_bd_rate_against_the_first_curve(tmp_path, capsys):
    path, _ = _write_cloud(tmp_path)
    out = tmp_path / "rd.csv"
    assert main(["rd", str(path), str(out), "--steps", "1", "2", "4", "8",
                 "--orders", "1", "2"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if l.startswith("BD-rate")]
    assert len(lines) == 1
    assert lines[0].startswith("BD-rate order 2 against order 1: ")
    with open(out) as fh:
        assert len(list(csv.DictReader(fh))) == 8
    # fewer than 4 steps: no BD line
    assert main(["rd", str(path), str(out), "--steps", "2", "8"]) == 0
    assert "BD-rate" not in capsys.readouterr().out


def test_cli_rd_defaults_to_both_orders(tmp_path):
    path, _ = _write_cloud(tmp_path)
    out = tmp_path / "rd.csv"
    assert main(["rd", str(path), str(out), "--steps", "2.0"]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["order"] for r in rows] == ["1", "2"]
    assert "mode" not in rows[0]


def test_cli_rd_reads_order_as_orders(tmp_path):
    # rd has no --order of its own, so argparse reads it as --orders
    path, _ = _write_cloud(tmp_path)
    out = tmp_path / "rd.csv"
    assert main(["rd", str(path), str(out), "--order", "1",
                 "--steps", "2.0"]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["order"] for r in rows] == ["1"]


def test_cli_compaction_rejects_colorspace(tmp_path):
    path, _ = _write_cloud(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["compaction", str(path), str(tmp_path / "c.csv"),
              "--colorspace", "bt709"])
    assert exc.value.code == 1


def test_cli_compaction_csv(tmp_path):
    path, _ = _write_cloud(tmp_path)
    out = tmp_path / "comp.csv"
    assert main(["compaction", str(path), str(out), "--orders", "1", "2"]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {"order", "level", "coeff_count", "mse_db"} <= set(rows[0])
    for order in ("1", "2"):
        sub = [r for r in rows if r["order"] == order]
        counts = [int(r["coeff_count"]) for r in sub]
        dbs = [float(r["mse_db"]) for r in sub]
        assert counts == sorted(counts)
        assert all(b <= a + 1e-9 for a, b in zip(dbs, dbs[1:]))


def test_cli_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["encode"])                      # missing positionals
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["transcode", "a", "b"])         # unknown subcommand
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])                    # no such subcommand
    assert exc.value.code == 1
    assert main([]) == 1


def test_cli_runtime_errors_exit_2(tmp_path):
    assert main(["encode", str(tmp_path / "missing.ply"),
                 str(tmp_path / "o.bin")]) == 2
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a stream")
    ply, _ = _write_cloud(tmp_path)
    assert main(["decode", str(bad), str(ply), str(tmp_path / "r.ply")]) == 2


def test_cli_names_negative_coordinates_when_inferring_depth(tmp_path,
                                                            capsys):
    path = tmp_path / "negative.ply"
    rahtp.save_ply(path, np.array([[-1, 0, 0], [2, 3, 1]]), np.ones((2, 3)))
    assert main(["encode", str(path), str(tmp_path / "o.bin")]) == 2
    assert "negative coordinates" in capsys.readouterr().err


def _defaults(text):
    # "1 2" -> ["1", "2"]; "0 = infer" -> ["0"]
    return text.split("=")[0].split()


def test_readme_option_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Each subcommand takes only the options it reads:",
                         1)[1].strip().split("\n\n")[0]
    documented = {name: dict(re.findall(r"`(--[\w-]+)`(?: \(([^)]*)\))?",
                                        cells))
                  for name, cells in re.findall(r"^\| `(\w+)` \| (.*) \|$",
                                                table, re.M)}
    assert documented
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name, parser in commands.items():
        options = {a.option_strings[-1]: a.default for a in parser._actions
                   if a.option_strings and a.dest != "help"}
        assert documented.get(name, {}).keys() == options.keys(), name
        for option, text in documented.get(name, {}).items():
            if not text:
                continue
            want = options[option]
            want = want if isinstance(want, list) else [want]
            got = _defaults(text)
            assert len(got) == len(want), (name, option)
            assert all(g == w if isinstance(w, str) else float(g) == w
                       for g, w in zip(got, want)), (name, option)


def test_python_dash_m_rahtp_runs_the_cli():
    # the package runs as a module; importing evalcli from __init__ must not
    # make runpy warn about a module found in sys.modules
    src = str(Path(rahtp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    res = subprocess.run([sys.executable, "-m", "rahtp", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "usage: rahtp" in res.stdout
    assert "RuntimeWarning" not in res.stderr
