import numpy as np
import pytest

import rahtp
from rahtp.kernels import build_a_matrix
from rahtp.sparse_ops import build_split

import _oracle as oracle
from _helpers import random_cloud


def test_basis_partition_of_unity_both_orders():
    cl = random_cloud(30, 90, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        for lev in range(h.depth + 1):
            phi = oracle.dense_basis(h, lev)
            assert np.abs(phi.sum(axis=1) - 1.0).max() < 1e-12, (order, lev)
            assert np.all(phi >= 0)


def test_basis_finest_level_is_identity():
    cl = random_cloud(31, 70, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        phi = oracle.dense_basis(h, h.depth)
        assert np.array_equal(phi, np.eye(len(cl.positions)))


def test_basis_refinability():
    # coarse basis columns are combinations of the next finer level through
    # the two-scale matrix
    cl = random_cloud(32, 80, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        for lev in range(h.depth):
            phi_c = oracle.dense_basis(h, lev)
            phi_f = oracle.dense_basis(h, lev + 1)
            a = oracle.dense_a(h.levels[lev], h.levels[lev + 1], order)
            assert np.abs(phi_c - phi_f @ a.T).max() < 1e-12


def test_gram_exact_is_spd_up_to_rank():
    cl = random_cloud(33, 60, 2)
    h = rahtp.build_hierarchy(cl, 2)
    g = oracle.gram_exact(h, 0)
    assert np.abs(g - g.T).max() == 0.0
    assert np.linalg.eigvalsh(g).min() > -1e-12


def test_project_exact_finest_level_reproduces_attributes():
    cl = random_cloud(34, 50, 2)
    h = rahtp.build_hierarchy(cl, 1)
    coeffs, rank = oracle.project_exact(h, h.depth, cl.attributes)
    assert rank == len(cl.positions)
    assert np.abs(coeffs - cl.attributes).max() < 1e-12


def test_matfun_exact_inverse_pair():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((6, 6))
    mat = b @ b.T + 0.1 * np.eye(6)
    assert np.abs(oracle.matfun_exact(mat, "inv") @ mat - np.eye(6)).max() < 1e-9
    s = oracle.matfun_exact(mat, "sqrt")
    assert np.abs(s @ s - mat).max() < 1e-9
    isq = oracle.matfun_exact(mat, "invsqrt")
    assert np.abs(isq @ isq - oracle.matfun_exact(mat, "inv")).max() < 1e-9


def test_matfun_exact_pseudoinverse_on_singular():
    out = oracle.matfun_exact(np.ones((2, 2)), "inv")
    assert np.abs(out - 0.25).max() < 1e-14


def test_matfun_exact_rejects_unknown():
    with pytest.raises(ValueError):
        oracle.matfun_exact(np.eye(2), "log")


def test_point_guard():
    with pytest.raises(ValueError):
        oracle.matfun_exact(np.zeros((501, 501)), "inv")


def test_ztilde_exact_nullspace_and_identity_block():
    cl = random_cloud(35, 60, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        a = build_a_matrix(h.levels[0], h.levels[1], order).toarray()
        split = build_split(h.levels[0], h.levels[1], order)
        z = oracle.ztilde_exact(a, split.a_indices, split.b_indices)
        assert np.abs(z @ a.T).max() < 1e-12
        assert np.array_equal(z[:, split.b_indices], np.eye(len(split.b_indices)))


def test_ztilde_exact_raises_on_singular_submatrix():
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        oracle.ztilde_exact(a, [0, 1], [2])
