"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

Not part of the repository's tier-1 suite (pytest's testpaths there is
``tests/``).  Checks that every metric named in BENCHMARK.json is printed
with its unit, that no operation fails, and that traced spans nest and add
up to the traced wall time.
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                       "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# 2k voxels at depth 5; coarse steps reach lower PSNR there, hence the floor
TINY = {name: dataclasses.replace(wl, cloud=dict(wl.cloud, count=3000, depth=5),
                                  psnr_floor=40.0)
        for name, wl in run.WORKLOADS.items()}


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], workloads=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines[:-1], json.loads(lines[-1])


def _check_printed(lines, result, table):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in table}
    for m in table:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(line.split()[1:2] == [m["name"]] and m["unit"] in line.split()
                   for line in lines), m["name"]


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]} == table


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_untraced_prints_every_metric(capsys, workload):
    lines, result = _run(capsys, workload, 0)
    _check_printed(lines, result, SPEC["end_to_end"])
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    fail = [line.split() for line in lines if line.split()[1:2] == ["fail_ratio"]]
    assert fail and float(fail[0][2]) == 0.0


def test_traced_prints_every_layer(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    lines, result = _run(capsys, "box-critical", 1)
    _check_printed(lines, result, SPEC["per_layer"])
    assert result["metrics"]["sparse_ops.build_split.calls"]["value"] > 0
    assert list(tmp_path.glob("trace-box-critical-seed3.json"))


def test_spans_nest_and_add_up(monkeypatch, tmp_path):
    import spans
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    rahtp = run.import_rahtp()
    bench = run.Bench(rahtp, "box-critical", TINY["box-critical"], 5)
    *_, tracer = run.run_traced(bench, spans)
    recorded = tracer.spans
    # the W series runs apply_series inside apply_series
    nested = [s for s in recorded if s[0] == "spectral.apply_series"
              and s[3] >= 0 and recorded[s[3]][0] == "spectral.apply_series"]
    assert nested
    for name, start, end, parent, op in recorded:
        if parent >= 0:
            p = recorded[parent]
            assert p[1] <= start <= end <= p[2] and p[4] == op
    selfs = tracer.self_times()
    for op in ("A.0", "B.0"):
        total_self = sum(v[0] for v in selfs[op].values())
        assert total_self == pytest.approx(tracer.root_seconds(op), rel=1e-9)
    # all patched names are restored
    assert rahtp.codec.encode is rahtp.encode
    assert not hasattr(rahtp.transform.apply_series, "__wrapped__")
