import numpy as np
import pytest

import rahtp
from rahtp.evalcli import builtin_clouds
from rahtp.kernels import build_a_matrix, gram_levels
from rahtp.spectral import ApproxConfig
from rahtp.transform import (ApproxRoles, TransformConfig, TransformPlan,
                             analyze, apply_basis_scaling, synthesize,
                             truncate_to_level)

from _helpers import pair_cloud, random_cloud, reference_critical_synthesis


def _roundtrip(cloud, order, mode, k=32):
    h = rahtp.build_hierarchy(cloud, order)
    cfg = TransformConfig(order=order, residual_mode=mode,
                          approx=ApproxConfig(order=k))
    co = analyze(h, cloud.attributes, cfg)
    back = synthesize(h, co, cfg)
    return co, np.abs(back - cloud.attributes).max()


def test_roundtrip_small_sweep():
    tiny = builtin_clouds()
    clouds = [("seed40", random_cloud(40, 128, 3), 32),
              ("seed41", random_cloud(41, 128, 3), 32),
              ("single", tiny["single"], 64),
              ("pair", tiny["pair"], 64)]
    for name, cl, k in clouds:
        for order in (1, 2):
            for mode in ("critical", "overcomplete"):
                co, err = _roundtrip(cl, order, mode, k)
                assert err < 1e-6, (name, order, mode, err)


def test_roundtrip_exact_even_with_zero_order_series():
    # the encoder codes residuals against its own decoder replica, so series
    # truncation error never reaches the output; the finest-level fold is
    # exact because the finest Gram is the identity
    cl = random_cloud(42, 100, 3)
    for order in (1, 2):
        for mode in ("critical", "overcomplete"):
            co, err = _roundtrip(cl, order, mode, k=0)
            assert err < 1e-9, (order, mode, err)


def test_two_point_classical_values():
    cl = pair_cloud(3.0, 11.0)
    for mode in ("critical", "overcomplete"):
        h = rahtp.build_hierarchy(cl, 1)
        cfg = TransformConfig(order=1, residual_mode=mode,
                              approx=ApproxConfig(order=64))
        co = analyze(h, cl.attributes, cfg)
        assert co.lowpass[0, 0] == pytest.approx(14.0 / np.sqrt(2), abs=1e-12)
        # detail sign convention: (second - first) in Morton order
        energy = float((co.highpass[0] ** 2).sum())
        assert energy == pytest.approx(32.0, abs=1e-9)
        assert co.modes == "c"
        assert co.highpass[0][0, 0] == pytest.approx(8.0 / np.sqrt(2),
                                                     abs=1e-12)


def test_constant_field_concentrates_in_dc():
    cl = random_cloud(43, 90, 3, channels=1)
    cl.attributes[:] = 5.0
    h = rahtp.build_hierarchy(cl, 1)
    cfg = TransformConfig(order=1, residual_mode="critical",
                          approx=ApproxConfig(order=32))
    co = analyze(h, cl.attributes, cfg)
    n = len(cl.positions)
    assert co.lowpass[0, 0] == pytest.approx(5.0 * np.sqrt(n), rel=1e-12)
    assert max(np.abs(p).max() for p in co.highpass) < 1e-10


def test_structural_fallback_to_overcomplete():
    # odd-coordinate voxel: no injective split exists at the top level (8
    # hat parents, 1 child); order 2 records overcomplete without trying
    cl = rahtp.PointCloud(positions=np.array([[1, 1, 1]], dtype=np.int64),
                          attributes=np.array([[9.0]]), depth=1, channels=1)
    h = rahtp.build_hierarchy(cl, 2)
    cfg = TransformConfig(order=2, residual_mode="critical",
                          approx=ApproxConfig(order=32))
    co = analyze(h, cl.attributes, cfg)
    assert co.modes == "o"
    back = synthesize(h, co, cfg)
    assert np.abs(back - cl.attributes).max() < 1e-9


def test_order2_never_attempts_critical_planes():
    # the requested mode changes nothing: order 1 codes every level
    # critical, in closed form, and order 2 every level overcomplete
    cl = random_cloud(42, 100, 3)
    series = ApproxConfig(order=16)
    coded = {}
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        critical = TransformConfig(order=order, residual_mode="critical",
                                   approx=series)
        got = analyze(h, cl.attributes, critical)
        want = analyze(h, cl.attributes, TransformConfig(
            order=order, residual_mode="overcomplete", approx=series))
        assert got.modes == want.modes
        assert got.lowpass.tobytes() == want.lowpass.tobytes()
        for g, w in zip(got.highpass, want.highpass):
            assert g.tobytes() == w.tobytes()
        coded[order] = got.modes
        if order == 2:
            assert TransformPlan(h, critical).critical is None
    assert coded == {1: "ccc", 2: "ooo"}


@pytest.mark.parametrize("name", ["sphere200", "seed63", "pair", "single"])
def test_order1_codes_one_coefficient_per_voxel(name):
    # RAHT is critically sampled: one coefficient per voxel and channel,
    # in the transform and in what encode reports
    cl = (builtin_clouds()[name] if name in ("sphere200", "pair", "single")
          else random_cloud(63, 400, 5))
    for mode in ("critical", "overcomplete"):
        config = TransformConfig(order=1, residual_mode=mode)
        co = analyze(rahtp.build_hierarchy(cl, 1), cl.attributes, config)
        _, stats = rahtp.encode(cl, config, 1.0)
        assert co.total_coeffs() == stats["coeff_count"] == len(cl.positions)


def _one_child_per_parent_cloud():
    """Voxels on even coordinates only: each finest-level parent has one
    child, so the last critical plane has no rows."""
    rng = np.random.default_rng(7)
    pos = 2 * rng.integers(0, 4, (40, 3))
    return rahtp.voxelize(rahtp.PointCloud(
        positions=pos, attributes=rng.uniform(0.0, 255.0, (40, 3)),
        depth=3, channels=3), 3)


@pytest.mark.parametrize("name", ["single", "pair", "depth1", "one_child",
                                  "seed60", "seed61", "seed62"])
def test_order1_critical_roundtrip(name):
    if name in ("single", "pair"):
        cl = builtin_clouds()[name]
    elif name == "depth1":
        cl = random_cloud(59, 5, 1)
    elif name == "one_child":
        cl = _one_child_per_parent_cloud()
    else:
        cl = random_cloud(int(name[4:]), 400, 5)
    h = rahtp.build_hierarchy(cl, 1)
    co, err = _roundtrip(cl, 1, "critical", k=16)
    assert co.modes == "c" * h.depth
    assert err <= 1e-12, err
    if name == "one_child":
        assert len(h.levels[2]) == len(h.levels[3])
        assert co.highpass[2].shape == (0, 3)


@pytest.mark.parametrize("name", ["sphere200", "torus3000", "box-critical"])
def test_order1_critical_codes_every_level_with_the_complement_rows(name):
    if name == "sphere200":
        cl = builtin_clouds()[name]
    elif name == "torus3000":
        cl = rahtp.make_synthetic_cloud("torus", count=3000, depth=5, seed=3)
    else:
        # the box-critical benchmark cloud, 49,387 voxels
        cl = rahtp.make_synthetic_cloud("sphere", count=200000, depth=7,
                                        seed=5)
    h = rahtp.build_hierarchy(cl, 1)
    co = analyze(h, cl.attributes,
                 TransformConfig(order=1, residual_mode="critical"))
    assert co.modes == "c" * h.depth
    assert [len(p) for p in co.highpass] == [
        len(h.levels[l + 1]) - len(h.levels[l]) for l in range(h.depth)]
    assert co.total_coeffs() == len(cl.positions)


@pytest.mark.parametrize("name", ["sphere200", "torus3000", "box-fresh-hirate",
                                  "box-critical"])
def test_critical_synthesis_matches_the_reference_builder(name):
    # the order-1 plan builds S from the links and voxel counts alone; the
    # reference builder makes it from the generic scaled A'
    # (build_a_matrix -> gram_levels -> apply_basis_scaling), and the two
    # must agree to the bit.  The benchmark clouds at seed 11: 149,275 and
    # 49,312 voxels
    if name == "sphere200":
        cl = builtin_clouds()[name]
    elif name == "torus3000":
        cl = rahtp.make_synthetic_cloud("torus", count=3000, depth=5, seed=3)
    elif name == "box-fresh-hirate":
        cl = rahtp.make_synthetic_cloud("sphere", count=300000, depth=8,
                                        seed=11, noise=8.0)
    else:
        cl = rahtp.make_synthetic_cloud("sphere", count=200000, depth=7,
                                        seed=11)
    h = rahtp.build_hierarchy(cl, 1)
    a_mats = [build_a_matrix(h.levels[l], h.levels[l + 1], 1)
              for l in range(h.depth)]
    scaled_a, _ = apply_basis_scaling(gram_levels(h, a_mats), a_mats)
    plan = TransformPlan(h, TransformConfig(order=1))
    assert plan.a_mats is None and plan.grams is None
    got, want = plan.critical, reference_critical_synthesis(scaled_a)
    assert len(got) == len(want) == h.depth
    for s, w in zip(got, want):
        assert s.shape == w.shape
        for part in ("data", "indices", "indptr"):
            x, y = getattr(s, part), getattr(w, part)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), part


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError):
        TransformConfig(order=1, residual_mode="hybrid")


def test_config_rejects_unscaled_basis():
    with pytest.raises(ValueError):
        TransformConfig(order=1, scaling=False)


def test_approx_roles_uniform_is_one_series_config():
    assert ApproxRoles.uniform(32) == ApproxConfig(order=32)


def test_plan_rejects_order_mismatch():
    cl = random_cloud(45, 40, 2)
    h = rahtp.build_hierarchy(cl, 1)
    with pytest.raises(ValueError):
        TransformPlan(h, TransformConfig(order=2))


def test_analyze_rejects_wrong_row_count():
    cl = random_cloud(46, 40, 2)
    h = rahtp.build_hierarchy(cl, 1)
    with pytest.raises(ValueError):
        analyze(h, np.zeros((3, 1)), TransformConfig(order=1))


def test_basis_scaling_unit_diagonal():
    cl = random_cloud(47, 80, 3)
    h = rahtp.build_hierarchy(cl, 2)
    a_mats = [build_a_matrix(h.levels[l], h.levels[l + 1], 2)
              for l in range(h.depth)]
    for g in apply_basis_scaling(gram_levels(h, a_mats), a_mats)[1]:
        assert np.abs(g.diagonal() - 1.0).max() < 1e-12


def test_truncate_to_level_counts_and_distortion():
    cl = random_cloud(48, 200, 3)
    h = rahtp.build_hierarchy(cl, 1)
    cfg = TransformConfig(order=1, residual_mode="overcomplete",
                          approx=ApproxConfig(order=64))
    co = analyze(h, cl.attributes, cfg)
    with pytest.raises(ValueError):
        truncate_to_level(co, co.depth + 1)
    dc_only, kept0 = truncate_to_level(co, 0)
    assert kept0 == len(co.lowpass)
    full, kept_full = truncate_to_level(co, co.depth)
    assert kept_full == co.total_coeffs()
    err_dc = np.abs(synthesize(h, dc_only, cfg) - cl.attributes).max()
    err_full = np.abs(synthesize(h, full, cfg) - cl.attributes).max()
    assert err_full < 1e-6 < err_dc


def test_shared_plan_reuse_across_modes():
    cl = random_cloud(49, 100, 3)
    h = rahtp.build_hierarchy(cl, 2)
    series = ApproxConfig(order=32)
    cfg_c = TransformConfig(order=2, residual_mode="critical", approx=series)
    plan = TransformPlan(h, cfg_c)
    co_c = analyze(h, cl.attributes, cfg_c, plan=plan)
    cfg_o = TransformConfig(order=2, residual_mode="overcomplete", approx=series)
    co_o = analyze(h, cl.attributes, cfg_o, plan=plan)
    assert set(co_o.modes) == {"o"}
    for cfg, co in ((cfg_c, co_c), (cfg_o, co_o)):
        assert np.abs(synthesize(h, co, cfg, plan=plan)
                      - cl.attributes).max() < 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("order", [1, 2])
def test_analyze_rejects_non_finite_attributes(order, bad):
    cl = builtin_clouds()["sphere200"]
    attrs = cl.attributes.copy()
    attrs[17, 1] = bad
    h = rahtp.build_hierarchy(cl, order)
    with pytest.raises(ValueError, match="non-finite attributes"):
        analyze(h, attrs, TransformConfig(order=order))


def test_one_order2_plan_serves_every_k():
    # the plan holds no K: the series depth comes from the config alone
    cl = random_cloud(49, 100, 3)
    h = rahtp.build_hierarchy(cl, 2)
    plan = TransformPlan(h, TransformConfig(order=2,
                                            approx=ApproxConfig(order=16)))
    cfg = TransformConfig(order=2, approx=ApproxConfig(order=64))
    got = analyze(h, cl.attributes, cfg, plan=plan)
    want = analyze(h, cl.attributes, cfg)
    for g, w in zip([got.lowpass, *got.highpass],
                    [want.lowpass, *want.highpass]):
        assert g.tobytes() == w.tobytes()
    assert (synthesize(h, got, cfg, plan=plan).tobytes()
            == synthesize(h, want, cfg).tobytes())


@pytest.mark.parametrize("order", [1, 2])
def test_depth0_outputs_are_fresh_arrays(order):
    cl = rahtp.PointCloud(positions=np.zeros((1, 3), dtype=np.int64),
                          attributes=np.array([[128.0, 64.0, 32.0]]),
                          depth=0, channels=3)
    h = rahtp.build_hierarchy(cl, order)
    assert h.depth == 0
    cfg = TransformConfig(order=order)
    co = analyze(h, cl.attributes, cfg)
    for out in (co.lowpass, *co.highpass):
        assert not np.shares_memory(out, cl.attributes)
    back = synthesize(h, co, cfg)
    assert not np.shares_memory(back, co.lowpass)
    assert np.abs(back - cl.attributes).max() < 1e-12
