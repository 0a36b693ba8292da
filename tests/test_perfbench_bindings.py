"""The benchmark reaches the codec through names that tier-1 must keep.

perfbench/spans.py lists the module-level names the traced benchmark
rebinds in FUNCTION_SPANS; a refactor that renames or removes one breaks
`perfbench/run.py --trace 1` without any codec test noticing, so every
binding is checked here.  perfbench/run.py builds one TransformConfig per
workload through compatibility names (ApproxRoles.uniform, scaling=True),
so each workload's config is built here too, and each one's stream must
decode onto the cloud just encoded without a rebuild, as the benchmark's
decode_voxps assumes.  The tracer keeps its span
stack in one plain list, so every traced binding must run on the thread
that called the codec.  It counts apply_series rows from each call's
result, so a series that skips all-+0.0 columns must still return the
full rows x channels output.
"""

import dataclasses
import importlib.util
import threading
from pathlib import Path

import numpy as np

import rahtp
from rahtp.evalcli import make_synthetic_cloud
from rahtp.transform import TransformConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    spans = _load("spans")
    assert spans.FUNCTION_SPANS
    for name, bindings in spans.FUNCTION_SPANS.items():
        assert bindings, name
        for owner, attr in bindings:
            assert callable(getattr(owner, attr)), (name, owner, attr)


def test_every_workload_config_builds(monkeypatch):
    # run.py caps BLAS threads through os.environ when imported; values
    # already under the cap are left alone and restored after the test
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    run = _load("run")
    assert run.WORKLOADS
    for name, wl in run.WORKLOADS.items():
        config = run.Bench(rahtp, name, wl, 1).config
        assert config.order == wl.order, name
        assert config.residual_mode == wl.mode, name
        assert config.approx == rahtp.ApproxConfig(order=wl.k), name


def test_every_workload_decodes_onto_the_encoded_cloud_without_a_rebuild(
        monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    run = _load("run")
    builds = []
    build = rahtp.codec.build_hierarchy
    monkeypatch.setattr(rahtp.codec, "build_hierarchy",
                        lambda *args: builds.append(args) or build(*args))
    for name, wl in run.WORKLOADS.items():
        cloud = make_synthetic_cloud(wl.cloud["kind"], count=3000, depth=5,
                                     seed=3)
        config = run.Bench(rahtp, name, wl, 1).config
        blob, _ = rahtp.codec.encode(cloud, config, wl.steps[0],
                                     colorspace="bt709")
        encoded = len(builds)
        rahtp.codec.decode(blob, cloud)
        assert len(builds) == encoded, name


def test_traced_bindings_run_on_the_main_thread(monkeypatch):
    spans = _load("spans")
    calls, off_main = [], []

    def guarded(name, fn):
        def check(*args, **kwargs):
            calls.append(name)
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return fn(*args, **kwargs)
        return check

    for name, bindings in spans.FUNCTION_SPANS.items():
        for owner, attr in bindings:
            monkeypatch.setattr(owner, attr, guarded(name, getattr(owner, attr)))
    cloud = make_synthetic_cloud("torus", count=3000, depth=5, seed=3)
    blob, _ = rahtp.codec.encode(cloud, TransformConfig(order=2), 1.0,
                                 colorspace="bt709")
    rahtp.codec.decode(blob, cloud)
    assert "spectral.apply_series" in calls
    assert off_main == []


def test_tracer_counts_one_full_span_per_series(monkeypatch):
    spans = _load("spans")
    calls = []
    series = rahtp.transform.apply_series

    def counted(op, v, h, cfg):
        out = series(op, v, h, cfg)
        calls.append((len(op), v.shape, out.shape,
                      not v.view(np.uint64).any(axis=0).all()))
        return out

    monkeypatch.setattr(rahtp.transform, "apply_series", counted)
    cloud = make_synthetic_cloud("torus", count=3000, depth=5, seed=3)
    attrs = np.zeros_like(cloud.attributes)
    attrs[:, 0] = cloud.attributes[:, 0]        # zero chroma
    cloud = dataclasses.replace(cloud, attributes=attrs)
    with spans.Tracer() as tracer:
        blob, _ = rahtp.codec.encode(cloud, TransformConfig(order=2), 4.0)
        rahtp.codec.decode(blob, cloud)
    traced = [s for s in tracer.spans if s[0] == "spectral.apply_series"]
    assert calls and len(traced) == len(calls)
    assert any(skipped for *_, skipped in calls)
    for n, v_shape, out_shape, _ in calls:
        assert out_shape == v_shape == (n, 3)
    assert (tracer.counts[None]["spectral.apply_series.rows"]
            == sum(n * 3 for n, *_ in calls))
