"""The benchmark reaches the codec through names that tier-1 must keep.

perfbench/spans.py lists the module-level names the traced benchmark
rebinds in FUNCTION_SPANS; a refactor that renames or removes one breaks
`perfbench/run.py --trace 1` without any codec test noticing, so every
binding is checked here.  perfbench/run.py builds one TransformConfig per
workload through compatibility names (ApproxRoles.uniform, scaling=True),
so each workload's config is built here too.
"""

import importlib.util
from pathlib import Path

import rahtp

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
