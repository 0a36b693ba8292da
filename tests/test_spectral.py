import multiprocessing
import os
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import rahtp
from rahtp import oracle, spectral
from rahtp.kernels import gram_levels
from rahtp.spectral import (ApproxConfig, Operator, SeriesDivergence,
                            apply_series, eigen_bound, series_coefficients)

from _helpers import force_row_split, random_cloud


def test_coefficients_frozen_values():
    assert series_coefficients("inv", 5).tolist() == [1.0] * 6
    assert series_coefficients("invsqrt", 3).tolist() == [1.0, 0.5, 0.375, 0.3125]
    assert series_coefficients("sqrt", 3).tolist() == [1.0, -0.5, -0.125, -0.0625]


def test_coefficients_cache_is_immutable():
    b = series_coefficients("inv", 4)
    with pytest.raises(ValueError):
        b[0] = 2.0


def test_unknown_function_rejected():
    with pytest.raises(ValueError):
        series_coefficients("exp", 4)


def test_inverse_series_diag_example_exact():
    # X = diag(2,4), tau = 1/4: geometric sums over (1 - x/4)
    # x=2: 0.25 * (1 + .5 + .25 + .125) = 0.46875;  x=4: exact after k=1
    op = Operator(np.diag([2.0, 4.0]))
    out = apply_series(op, np.ones((2, 1)), "inv",
                       ApproxConfig(order=3), lam_max=4.0)
    assert out[:, 0].tolist() == [0.46875, 0.25]


def test_series_converges_to_matrix_functions():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((6, 6))
    mat = b @ b.T + 0.5 * np.eye(6)
    v = rng.standard_normal((6, 2))
    cfg = ApproxConfig(order=600, tolerance=1e-15)
    lam = np.linalg.eigvalsh(mat).max() * 1.01
    for h in ("inv", "invsqrt", "sqrt"):
        ref = oracle.matfun_exact(mat, h) @ v
        out = apply_series(Operator(mat), v, h, cfg, lam_max=lam)
        assert np.abs(out - ref).max() < 1e-9, h


def test_eigen_bound_gershgorin_identity():
    assert Operator(np.eye(4)).gershgorin() == 1.0


def test_eigen_bound_power_iteration_diag():
    bound = eigen_bound(Operator(np.diag([2.0, 4.0])))
    assert 4.0 <= bound <= 4.2


def test_power_iteration_deterministic():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((8, 8))
    mat = b @ b.T
    op = Operator(mat)
    b1 = eigen_bound(op)
    b2 = eigen_bound(op)
    assert b1 == b2
    assert b1 >= np.linalg.eigvalsh(mat).max()


def test_gershgorin_refused_for_matrix_free():
    op = Operator(lambda x: x, 3)
    with pytest.raises(ValueError):
        op.gershgorin()


def test_error_halves_when_order_doubles():
    # box-order Grams are diagonal with occupancy-count entries, so the
    # series contracts by (1 - w_min/bound) per term and doubling the order
    # at least halves the error on any not-yet-converged level
    cl = random_cloud(5, 200, 3)
    h = rahtp.build_hierarchy(cl, 1)
    grams = gram_levels(h)
    rng = np.random.default_rng(2)
    checked = 0
    for g in grams[:-1]:
        dense = g.to_csr().toarray()
        w = dense @ rng.standard_normal((dense.shape[0], 1))
        ref = oracle.matfun_exact(dense, "inv") @ w
        lam = g.gershgorin()
        errs = [np.abs(apply_series(g, w, "inv", ApproxConfig(order=k),
                                    lam_max=lam) - ref).max()
                for k in (8, 16, 32)]
        if errs[0] < 1e-12:
            continue
        assert errs[1] <= errs[0] / 2
        assert errs[2] <= errs[1] / 2
        checked += 1
    assert checked >= 1


def test_divergence_guard_raises():
    op = Operator(np.diag([2.0, 4.0]))
    with pytest.raises(SeriesDivergence):
        apply_series(op, np.ones((2, 1)), "inv",
                     ApproxConfig(order=32), lam_max=0.1)


def test_zero_bound_semantics():
    op = Operator(np.zeros((2, 2)))
    z = np.zeros((2, 1))
    v = np.ones((2, 1))
    cfg = ApproxConfig(order=4)
    assert np.array_equal(apply_series(op, z, "inv", cfg, lam_max=0.0), z)
    assert np.array_equal(apply_series(op, v, "sqrt", cfg, lam_max=0.0), z)
    with pytest.raises(SeriesDivergence):
        apply_series(op, v, "inv", cfg, lam_max=0.0)


def test_tolerance_early_stop_matches_full_run():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((5, 5))
    mat = b @ b.T + 2.0 * np.eye(5)
    v = rng.standard_normal((5, 1))
    lam = np.linalg.eigvalsh(mat).max() * 1.01
    full = apply_series(Operator(mat), v, "invsqrt",
                        ApproxConfig(order=2000), lam_max=lam)
    early = apply_series(Operator(mat), v, "invsqrt",
                         ApproxConfig(order=2000, tolerance=1e-14), lam_max=lam)
    assert np.abs(full - early).max() < 1e-10


def test_identity_returning_operator_is_not_corrupted():
    # an operator that hands back its input array must not be clobbered by
    # the in-place update loop
    op = Operator(lambda x: x, 3)
    v = np.ones((3, 1))
    out = apply_series(op, v, "inv", ApproxConfig(order=200), lam_max=1.0)
    assert np.abs(out - 1.0).max() < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        ApproxConfig(order=-1)


def _banded_spd(n=700, seed=5):
    # diagonally dominant 7-band matrix: sparse (n > DENSE_CUTOFF) and SPD
    rng = np.random.default_rng(seed)
    bands = [rng.uniform(-1.0, 1.0, n - abs(o)) for o in range(-3, 4)]
    mat = sp.diags(bands, range(-3, 4), format="csr")
    mat = (mat + mat.T).tocsr()
    return (mat + sp.identity(n) * (abs(mat).sum(axis=1).max() + 0.5)).tocsr()


def _reference_series(lm, v, h, order, tau):
    # the product through scipy's public operator, one term at a time
    b = series_coefficients(h, order)
    term = v.copy()
    acc = b[0] * term
    for k in range(1, order + 1):
        term = lm @ term
        acc = acc + term if b[k] == 1.0 else acc + term * b[k]
    return spectral._series_scale(h, tau) * acc


@pytest.mark.parametrize("cols", [None, 1, 3])
def test_row_split_is_bit_identical_to_one_block(monkeypatch, cols):
    mat = _banded_spd()
    lam = Operator(mat).gershgorin()
    rng = np.random.default_rng(6)
    v = rng.standard_normal(mat.shape[0] if cols is None
                            else (mat.shape[0], cols))
    cfg = ApproxConfig(order=40)
    one_block = {}
    for h in ("inv", "invsqrt", "sqrt"):
        op = Operator(mat)
        one_block[h] = apply_series(op, v, h, cfg, lam_max=lam)
        assert op._iter[2] is None
        lm = op.iteration_matrix(1.0 / lam)
        ref = _reference_series(lm, v, h, cfg.order, 1.0 / lam)
        assert np.array_equal(one_block[h], ref), h
    force_row_split(monkeypatch)
    for h in ("inv", "invsqrt", "sqrt"):
        op = Operator(mat)
        out = apply_series(op, v, h, cfg, lam_max=lam)
        assert 0 < op._iter[2] < mat.shape[0]
        assert np.array_equal(out, one_block[h]), h


def test_row_split_keeps_early_stop_and_divergence(monkeypatch):
    mat = _banded_spd()
    lam = Operator(mat).gershgorin()
    v = np.random.default_rng(7).standard_normal((mat.shape[0], 3))
    early = ApproxConfig(order=4000, tolerance=1e-12)

    def run():
        op = Operator(mat)
        out = apply_series(op, v, "invsqrt", early, lam_max=lam)
        with pytest.raises(SeriesDivergence) as exc:
            apply_series(op, v, "inv", ApproxConfig(order=400),
                         lam_max=lam / 8)
        return out, str(exc.value)

    out, msg = run()
    force_row_split(monkeypatch)
    split_out, split_msg = run()
    assert np.array_equal(split_out, out)
    assert split_msg == msg


def test_one_cpu_runs_one_block_and_starts_no_thread(monkeypatch):
    monkeypatch.setattr(spectral, "SPLIT_NNZ", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(spectral, "_worker", None)
    before = set(threading.enumerate())
    op = Operator(_banded_spd())
    v = np.ones((len(op), 3))
    apply_series(op, v, "inv", ApproxConfig(order=8), lam_max=op.gershgorin())
    assert op._iter[2] is None
    assert spectral._worker is None
    assert set(threading.enumerate()) <= before


def _child_series(mat, v, lam, expected):
    out = apply_series(Operator(mat), v, "invsqrt", ApproxConfig(order=30),
                       lam_max=lam)
    os._exit(0 if np.array_equal(out, expected) else 3)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_row_split_series_completes_in_forked_child(monkeypatch):
    force_row_split(monkeypatch)
    mat = _banded_spd()
    lam = Operator(mat).gershgorin()
    v = np.ones((mat.shape[0], 3))
    # the parent's worker thread exists before the fork
    expected = apply_series(Operator(mat), v, "invsqrt",
                            ApproxConfig(order=30), lam_max=lam)
    assert spectral._worker is not None
    child = multiprocessing.get_context("fork").Process(
        target=_child_series, args=(mat, v, lam, expected))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("blocked series hung in a forked child")
    assert child.exitcode == 0
