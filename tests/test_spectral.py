import multiprocessing
import os
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import rahtp
from rahtp import spectral
from rahtp.kernels import gram_levels
from rahtp.spectral import (ApproxConfig, Operator, SeriesDivergence,
                            apply_series, eigen_bound, series_coefficients)

import _oracle as oracle
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
    assert op.bound == 4.0
    out = apply_series(op, np.ones((2, 1)), "inv", ApproxConfig(order=3))
    assert out[:, 0].tolist() == [0.46875, 0.25]


def test_series_converges_to_matrix_functions():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((6, 6))
    mat = b @ b.T + 0.5 * np.eye(6)
    v = rng.standard_normal((6, 2))
    cfg = ApproxConfig(order=600, tolerance=1e-15)
    op = Operator(mat)      # steps at the Gershgorin bound
    for h in ("inv", "invsqrt", "sqrt"):
        ref = oracle.matfun_exact(mat, h) @ v
        out = apply_series(op, v, h, cfg)
        assert np.abs(out - ref).max() < 1e-9, h


def test_eigen_bound_gershgorin_identity():
    assert Operator(np.eye(4)).bound == 1.0


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


def test_explicit_operator_refuses_a_reassigned_bound():
    # its L was built at the Gershgorin bound, so another step would run
    # a stale L
    op = Operator(np.diag([2.0, 4.0]))
    op.bound = 8.0
    with pytest.raises(ValueError, match="fixed"):
        apply_series(op, np.ones((2, 1)), "inv", ApproxConfig(order=3))


def test_explicit_operator_holds_one_sparse_matrix():
    op = Operator(_banded_spd())
    apply_series(op, np.ones((len(op), 1)), "inv", ApproxConfig(order=4))
    held = [m for v in vars(op).values()
            for m in (v if isinstance(v, (tuple, list)) else (v,))
            if sp.issparse(m)]
    assert len(held) == 1 and held[0] is op.lm
    assert op.lm.format == "csr"


def test_matrix_free_operator_needs_a_bound():
    op = Operator(lambda x: x, 3)
    assert op.bound is None
    with pytest.raises(ValueError, match="no bound"):
        apply_series(op, np.ones((3, 1)), "inv", ApproxConfig(order=2))


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
        dense = g.toarray()
        w = dense @ rng.standard_normal((dense.shape[0], 1))
        ref = oracle.matfun_exact(dense, "inv") @ w
        op = Operator(g)
        errs = [np.abs(apply_series(op, w, "inv", ApproxConfig(order=k))
                       - ref).max()
                for k in (8, 16, 32)]
        if errs[0] < 1e-12:
            continue
        assert errs[1] <= errs[0] / 2
        assert errs[2] <= errs[1] / 2
        checked += 1
    assert checked >= 1


def test_divergence_guard_raises():
    # indefinite: Gershgorin bound 4, so L = diag(0.5, 2) grows by 2 a term
    op = Operator(np.diag([2.0, -4.0]))
    assert op.lm.diagonal().tolist() == [0.5, 2.0]
    with pytest.raises(SeriesDivergence):
        apply_series(op, np.ones((2, 1)), "inv", ApproxConfig(order=32))


def test_zero_bound_semantics():
    op = Operator(np.zeros((2, 2)))
    z = np.zeros((2, 1))
    v = np.ones((2, 1))
    cfg = ApproxConfig(order=4)
    assert op.bound == 0.0
    assert np.array_equal(apply_series(op, z, "inv", cfg), z)
    assert np.array_equal(apply_series(op, v, "sqrt", cfg), z)
    with pytest.raises(SeriesDivergence):
        apply_series(op, v, "inv", cfg)


def test_tolerance_early_stop_matches_full_run():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((5, 5))
    mat = b @ b.T + 2.0 * np.eye(5)
    v = rng.standard_normal((5, 1))
    op = Operator(mat)      # steps at the Gershgorin bound
    full = apply_series(op, v, "invsqrt", ApproxConfig(order=2000))
    early = apply_series(op, v, "invsqrt",
                         ApproxConfig(order=2000, tolerance=1e-14))
    assert np.abs(full - early).max() < 1e-10


def test_identity_returning_operator_is_not_corrupted():
    # an operator that hands back its input array must not be clobbered by
    # the in-place update loop
    op = Operator(lambda x: x, 3)
    op.bound = 1.0
    v = np.ones((3, 1))
    out = apply_series(op, v, "inv", ApproxConfig(order=200))
    assert np.abs(out - 1.0).max() < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        ApproxConfig(order=-1)


def _banded_sym(n=700, seed=5):
    # random symmetric 7-band CSR matrix, indefinite
    rng = np.random.default_rng(seed)
    bands = [rng.uniform(-1.0, 1.0, n - abs(o)) for o in range(-3, 4)]
    mat = sp.diags(bands, range(-3, 4), format="csr")
    return (mat + mat.T).tocsr()


def _banded_spd(n=700, seed=5):
    # _banded_sym made diagonally dominant, so SPD
    mat = _banded_sym(n, seed)
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


def test_dense_source_is_held_as_csr():
    mat = _banded_spd()
    dense_op = Operator(mat.toarray())
    csr_op = Operator(mat)
    assert dense_op.lm.format == "csr"
    assert dense_op.bound == csr_op.bound
    v = np.random.default_rng(8).standard_normal((mat.shape[0], 3))
    cfg = ApproxConfig(order=40)
    for h in ("inv", "invsqrt", "sqrt"):
        assert np.array_equal(apply_series(dense_op, v, h, cfg),
                              apply_series(csr_op, v, h, cfg)), h


@pytest.mark.parametrize("cols", [None, 1, 3])
def test_row_split_is_bit_identical_to_one_block(monkeypatch, cols):
    mat = _banded_spd()
    lam = Operator(mat).bound
    rng = np.random.default_rng(6)
    v = rng.standard_normal(mat.shape[0] if cols is None
                            else (mat.shape[0], cols))
    cfg = ApproxConfig(order=40)
    one_block = {}
    for h in ("inv", "invsqrt", "sqrt"):
        op = Operator(mat)
        one_block[h] = apply_series(op, v, h, cfg)
        assert op.cut is None
        ref = _reference_series(op.lm, v, h, cfg.order, 1.0 / lam)
        assert np.array_equal(one_block[h], ref), h
    force_row_split(monkeypatch)
    for h in ("inv", "invsqrt", "sqrt"):
        op = Operator(mat)
        out = apply_series(op, v, h, cfg)
        assert 0 < op.cut < mat.shape[0]
        assert np.array_equal(out, one_block[h]), h


def test_row_split_keeps_early_stop_and_divergence(monkeypatch):
    mat = _banded_spd()
    v = np.random.default_rng(7).standard_normal((mat.shape[0], 3))
    early = ApproxConfig(order=4000, tolerance=1e-12)

    def run():
        out = apply_series(Operator(mat), v, "invsqrt", early)
        with pytest.raises(SeriesDivergence) as exc:
            apply_series(Operator(_banded_sym()), v, "inv",
                         ApproxConfig(order=400))
        return out, str(exc.value)

    out, msg = run()
    force_row_split(monkeypatch)
    split_out, split_msg = run()
    assert np.array_equal(split_out, out)
    assert split_msg == msg


def _series_threads():
    return [t for t in threading.enumerate() if t.name == "rahtp-series"]


def test_one_cpu_runs_one_block_and_starts_no_thread(monkeypatch):
    monkeypatch.setattr(spectral, "SPLIT_NNZ", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    before = set(threading.enumerate())
    op = Operator(_banded_spd())
    v = np.ones((len(op), 3))
    apply_series(op, v, "inv", ApproxConfig(order=8))
    assert op.cut is None
    assert set(threading.enumerate()) <= before


def test_split_series_joins_its_thread_when_it_diverges(monkeypatch):
    force_row_split(monkeypatch)
    op = Operator(_banded_sym())
    with pytest.raises(SeriesDivergence):
        apply_series(op, np.ones((len(op), 3)), "inv",
                     ApproxConfig(order=400))
    assert op.cut is not None
    assert _series_threads() == []


def _child_series(mat, v, expected):
    out = apply_series(Operator(mat), v, "invsqrt", ApproxConfig(order=30))
    os._exit(0 if np.array_equal(out, expected) else 3)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_row_split_series_completes_in_forked_child(monkeypatch):
    force_row_split(monkeypatch)
    mat = _banded_spd()
    v = np.ones((mat.shape[0], 3))
    expected = apply_series(Operator(mat), v, "invsqrt",
                            ApproxConfig(order=30))
    # hold the parent's helper thread inside its first second block while
    # the main thread forks
    parent, rows_term = os.getpid(), spectral._rows_term
    inside, release = threading.Event(), threading.Event()

    def paused(lm, lo, *args):
        if lo > 0 and os.getpid() == parent:
            inside.set()
            release.wait()
        return rows_term(lm, lo, *args)

    monkeypatch.setattr(spectral, "_rows_term", paused)
    results = []
    series = threading.Thread(target=lambda: results.append(apply_series(
        Operator(mat), v, "invsqrt", ApproxConfig(order=30))))
    series.start()
    try:
        assert inside.wait(timeout=60)
        assert len(_series_threads()) == 1
        child = multiprocessing.get_context("fork").Process(
            target=_child_series, args=(mat, v, expected))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("split series hung in a forked child")
    finally:
        release.set()
        series.join()
    assert child.exitcode == 0
    assert np.array_equal(results[0], expected)
    assert _series_threads() == []
