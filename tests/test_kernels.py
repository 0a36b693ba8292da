import numpy as np
import pytest

import rahtp
from rahtp.kernels import (build_a_matrix, gram_downsample, gram_init,
                           gram_levels, kernel_weights)
from rahtp.spectral import Operator
from rahtp.transform import apply_basis_scaling

import _oracle as oracle
from _helpers import pair_cloud, random_cloud


def test_kernel_weight_box():
    w = kernel_weights(1, [(0, 0, 0), (1, 1, 0), (-1, 0, 0), (2, 0, 0)])
    assert w.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_kernel_weight_hat():
    w = kernel_weights(2, [(0, 0, 0), (1, 0, 0), (-1, 1, 0), (1, 1, 1),
                           (2, 0, 0)])
    assert w.tolist() == [1.0, 0.5, 0.25, 0.125, 0.0]


def test_kernel_weight_rejects_other_orders():
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        kernel_weights(3, [(0, 0, 0)])


def test_finest_gram_is_identity_both_orders():
    cl = random_cloud(10, 100, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        g = gram_levels(h)[h.depth].toarray()
        assert np.array_equal(g, np.eye(len(cl.positions)))


def test_gram_cascade_matches_dense_reference():
    cl = random_cloud(11, 110, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        grams = gram_levels(h)
        for lev in range(h.depth + 1):
            dense = grams[lev].toarray()
            exact = oracle.gram_exact(h, lev)
            assert np.abs(dense - exact).max() < 1e-10, (order, lev)


def test_two_point_hat_gram_frozen():
    # diagonal pair at depth 1: closure has all 8 corner hats, the child
    # under (0,0,0) contributes 1 to its own hat and 1/8 to every corner
    h = rahtp.build_hierarchy(pair_cloud(), 2)
    g0 = gram_levels(h)[0].toarray()
    expect = np.full((8, 8), 0.015625)
    expect[0, 0] += 1.0
    assert np.abs(g0 - expect).max() < 1e-15
    assert Operator(gram_levels(h)[0]).bound == pytest.approx(1.125)


def test_a_matrix_entries_are_kernel_weights():
    cl = random_cloud(12, 90, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        for lev in range(h.depth):
            a = build_a_matrix(h.levels[lev], h.levels[lev + 1], order).tocoo()
            parents = h.levels[lev].nodes
            children = h.levels[lev + 1].nodes
            d = children[a.col] - 2 * parents[a.row]
            assert np.array_equal(a.data, kernel_weights(order, d))


def test_a_matrix_box_partitions_children():
    cl = random_cloud(13, 150, 3)
    h = rahtp.build_hierarchy(cl, 1)
    for lev in range(h.depth):
        a = build_a_matrix(h.levels[lev], h.levels[lev + 1], 1)
        col_sums = np.asarray(a.sum(axis=0)).ravel()
        assert np.array_equal(col_sums, np.ones(a.shape[1]))


def test_gram_tensor_matvec_matches_csr():
    rng = np.random.default_rng(0)
    for cl in (random_cloud(14, 200, 3), random_cloud(14, 700, 4)):
        h = rahtp.build_hierarchy(cl, 2)
        for csr in gram_levels(h):
            g = Operator(csr)
            x = rng.standard_normal((len(g), 3))
            assert np.abs(g.matvec(x) - csr @ x).max() < 1e-12
            tau = 1.0 / g.bound
            lm = g.lm.toarray()
            assert np.array_equal(lm, np.eye(len(g)) - tau * csr.toarray())
            # row sums in CSR index order, as the bound has always summed
            rows = [sum(abs(v) for v in csr.data[a:b])
                    for a, b in zip(csr.indptr[:-1], csr.indptr[1:])]
            assert g.bound == max(rows)


def test_scaled_gram_has_unit_diagonal():
    cl = random_cloud(15, 120, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        a_mats = [build_a_matrix(h.levels[l], h.levels[l + 1], order)
                  for l in range(h.depth)]
        for gs in apply_basis_scaling(gram_levels(h, a_mats), a_mats)[1]:
            assert np.abs(gs.diagonal() - 1.0).max() < 1e-12
            if order == 1:
                # box bases at distinct nodes never overlap
                assert np.abs(gs.toarray()
                              - np.eye(gs.shape[0])).max() < 1e-12


def test_gram_csr_is_canonical():
    cl = random_cloud(19, 150, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        for csr in gram_levels(h):
            assert csr.nnz == csr.count_nonzero()
            assert csr.has_sorted_indices


def test_gershgorin_bounds_spectrum():
    cl = random_cloud(16, 100, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        for g in gram_levels(h):
            lam = np.linalg.eigvalsh(g.toarray()).max()
            assert Operator(g).bound >= lam - 1e-12


def test_gram_downsample_rejects_escaped_stencil():
    cl = random_cloud(17, 60, 2)
    h = rahtp.build_hierarchy(cl, 2)
    g2 = gram_levels(h)[2]
    a = build_a_matrix(h.levels[1], h.levels[2], 2)
    # downsampling a level against the wrong parent geometry (here the
    # parents' rows reversed) breaks the closure relation and must not
    # silently truncate
    with pytest.raises((AssertionError, IndexError, ValueError)):
        gram_downsample(g2, h.levels[1], a[::-1])


def test_gram_init_identity():
    cl = random_cloud(18, 50, 2)
    h = rahtp.build_hierarchy(cl, 1)
    g = gram_init(h.levels[-1])
    assert np.array_equal(g.toarray(), np.eye(len(cl.positions)))
