import numpy as np
import pytest

import rahtp
from rahtp import oracle
from rahtp.kernels import (build_a_matrix, gram_downsample, gram_init,
                           gram_levels, kernel_weight)
from rahtp.spectral import DENSE_CUTOFF

from _helpers import pair_cloud, random_cloud


def test_kernel_weight_box():
    assert kernel_weight(1, (0, 0, 0)) == 1.0
    assert kernel_weight(1, (1, 1, 0)) == 1.0
    assert kernel_weight(1, (-1, 0, 0)) == 0.0
    assert kernel_weight(1, (2, 0, 0)) == 0.0


def test_kernel_weight_hat():
    assert kernel_weight(2, (0, 0, 0)) == 1.0
    assert kernel_weight(2, (1, 0, 0)) == 0.5
    assert kernel_weight(2, (-1, 1, 0)) == 0.25
    assert kernel_weight(2, (1, 1, 1)) == 0.125
    assert kernel_weight(2, (2, 0, 0)) == 0.0


def test_finest_gram_is_identity_both_orders():
    cl = random_cloud(10, 100, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        g = gram_levels(h)[h.depth].to_csr().toarray()
        assert np.array_equal(g, np.eye(len(cl.positions)))


def test_gram_cascade_matches_dense_reference():
    cl = random_cloud(11, 110, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        grams = gram_levels(h)
        for lev in range(h.depth + 1):
            dense = grams[lev].to_csr().toarray()
            exact = oracle.gram_exact(h, lev)
            assert np.abs(dense - exact).max() < 1e-10, (order, lev)


def test_two_point_hat_gram_frozen():
    # diagonal pair at depth 1: closure has all 8 corner hats, the child
    # under (0,0,0) contributes 1 to its own hat and 1/8 to every corner
    h = rahtp.build_hierarchy(pair_cloud(), 2)
    g0 = gram_levels(h)[0].to_csr().toarray()
    expect = np.full((8, 8), 0.015625)
    expect[0, 0] += 1.0
    assert np.abs(g0 - expect).max() < 1e-15
    assert gram_levels(h)[0].gershgorin() == pytest.approx(1.125)


def test_a_matrix_entries_are_kernel_weights():
    cl = random_cloud(12, 90, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        for lev in range(h.depth):
            a = build_a_matrix(h.levels[lev], h.levels[lev + 1], order).tocoo()
            parents = h.levels[lev].nodes
            children = h.levels[lev + 1].nodes
            for r, c, val in zip(a.row, a.col, a.data):
                d = children[c] - 2 * parents[r]
                assert val == kernel_weight(order, tuple(d))


def test_a_matrix_box_partitions_children():
    cl = random_cloud(13, 150, 3)
    h = rahtp.build_hierarchy(cl, 1)
    for lev in range(h.depth):
        a = build_a_matrix(h.levels[lev], h.levels[lev + 1], 1)
        col_sums = np.asarray(a.sum(axis=0)).ravel()
        assert np.array_equal(col_sums, np.ones(a.shape[1]))


def test_gram_tensor_matvec_matches_csr():
    # the second cloud's finer levels exceed DENSE_CUTOFF, so both the
    # dense and the CSR backing are exercised
    rng = np.random.default_rng(0)
    sizes = set()
    for cl in (random_cloud(14, 200, 3), random_cloud(14, 700, 4)):
        h = rahtp.build_hierarchy(cl, 2)
        for g in gram_levels(h):
            sizes.add(len(g) > DENSE_CUTOFF)
            csr = g.to_csr()
            x = rng.standard_normal((len(g), 3))
            assert np.abs(g.matvec(x) - csr @ x).max() < 1e-12
            tau = 1.0 / g.gershgorin()
            lm = g.iteration_matrix(tau)
            lm = lm if isinstance(lm, np.ndarray) else lm.toarray()
            assert np.array_equal(lm, np.eye(len(g)) - tau * csr.toarray())
            # row sums in CSR index order, as the bound has always summed
            rows = [sum(abs(v) for v in csr.data[a:b])
                    for a, b in zip(csr.indptr[:-1], csr.indptr[1:])]
            assert g.gershgorin() == max(rows)
    assert sizes == {False, True}


def test_scaled_gram_has_unit_diagonal():
    cl = random_cloud(15, 120, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        for g in gram_levels(h):
            gs = g.scaled(g.diagonal)
            assert np.abs(gs.diagonal - 1.0).max() < 1e-12
            if order == 1:
                # box bases at distinct nodes never overlap
                assert np.abs(gs.to_csr().toarray()
                              - np.eye(len(gs))).max() < 1e-12


def test_gram_csr_is_canonical():
    cl = random_cloud(19, 150, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        for g in gram_levels(h):
            csr = g.to_csr()
            assert csr.nnz == csr.count_nonzero()
            assert csr.has_sorted_indices


def test_gershgorin_bounds_spectrum():
    cl = random_cloud(16, 100, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        for g in gram_levels(h):
            lam = np.linalg.eigvalsh(g.to_csr().toarray()).max()
            assert g.gershgorin() >= lam - 1e-12


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
    assert np.array_equal(g.to_csr().toarray(), np.eye(len(cl.positions)))
