"""The demos build configs through the public API; run them so an API change
cannot leave one broken."""

import importlib.util
import re
from pathlib import Path

from rahtp import codec
from rahtp.transform import analyze

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _load(name):
    spec = importlib.util.spec_from_file_location("demo_" + name,
                                                  DEMOS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_roundtrip_demo(capsys):
    _load("roundtrip").main()
    out = capsys.readouterr().out
    errs = [float(e) for e in re.findall(r"coeffs  max err (\S+)", out)]
    assert len(errs) == 2
    assert max(errs) < 1e-6
    assert out.count("payload bytes") == 2


def test_series_convergence_demo(capsys):
    _load("series_convergence").main()
    out = capsys.readouterr().out
    assert "box-basis Gram" in out and "hat-basis Gram" in out


def test_energy_compaction_demo(capsys):
    _load("energy_compaction").main()
    out = capsys.readouterr().out
    # keeping every plane reconstructs exactly in both orders
    blocks = out.split("\norder ")[1:]
    assert len(blocks) == 2
    for block in blocks:
        assert block.strip().splitlines()[-1].split()[-1] == "-100.00"


def test_rate_distortion_demo(capsys, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return analyze(*args, **kwargs)

    monkeypatch.setattr(codec, "analyze", counting)
    module = _load("rate_distortion")
    module.main()
    # steps innermost: encode analyzes once per order, not once per point
    assert len(calls) == 2
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    steps = [float(row[0]) for row in rows
             if len(row) == 5 and row[0][0].isdigit()]
    assert steps == module.STEPS
