import numpy as np
import pytest

import rahtp
from rahtp import oracle
from rahtp.kernels import build_a_matrix
from rahtp.sparse_ops import (SplitError, ZtildeOp, _offset_codes,
                              _offset_priority, _priority_table, build_split)
from rahtp.spectral import ApproxConfig

from _helpers import random_cloud

CONVERGED = ApproxConfig(order=4096, tolerance=1e-13)


def _level_pair(seed, order, count=70, depth=3, level=0):
    cl = random_cloud(seed, count, depth)
    h = rahtp.build_hierarchy(cl, order)
    a = build_a_matrix(h.levels[level], h.levels[level + 1], order)
    return h, a, level


def test_split_partitions_children():
    for order in (1, 2):
        h, a, lev = _level_pair(21, order, count=150)
        split = build_split(h.levels[lev], h.levels[lev + 1], order)
        n_parent, n_child = a.shape
        assert len(split.a_indices) == n_parent
        assert len(split.a_indices) + len(split.b_indices) == n_child
        both = np.concatenate([split.a_indices, split.b_indices])
        assert len(np.unique(both)) == n_child


def test_priority_table_ranks_every_offset_as_the_reference():
    for order in (1, 2):
        prio = _offset_priority(order)
        offsets = np.array(list(prio), dtype=np.int64)
        codes = _offset_codes(offsets, order)
        assert len(np.unique(codes)) == len(prio)
        ranks = _priority_table(order)[codes]
        assert ranks.tolist() == [prio[tuple(d)] for d in offsets.tolist()]


def test_split_box_prefers_collocated_child():
    # with the box kernel each parent owns the child at twice its own
    # coordinates whenever that voxel is occupied
    h, a, lev = _level_pair(22, 1, count=300, depth=2, level=1)
    split = build_split(h.levels[lev], h.levels[lev + 1], 1)
    parents = h.levels[lev].nodes
    children = h.levels[lev + 1].nodes
    child_set = {tuple(c): i for i, c in enumerate(children)}
    for p_idx, c_idx in enumerate(split.a_indices):
        own = tuple(2 * parents[p_idx])
        if own in child_set:
            assert c_idx == child_set[own]


def test_split_raises_when_children_scarce():
    # a voxel at odd coordinates sits mid-cell and supports all 8 corner
    # hats, so the coarse closure has more nodes than there are children
    cl = rahtp.PointCloud(positions=np.array([[1, 1, 1]], dtype=np.int64),
                          attributes=np.ones((1, 1)), depth=1, channels=1)
    h = rahtp.build_hierarchy(cl, 2)
    with pytest.raises(SplitError):
        build_split(h.levels[0], h.levels[1], 2)


def test_ztilde_matches_dense_reference():
    rng = np.random.default_rng(1)
    for order in (1, 2):
        h, a, lev = _level_pair(23, order, count=60)
        split = build_split(h.levels[lev], h.levels[lev + 1], order)
        z = oracle.ztilde_exact(a.toarray(), split.a_indices, split.b_indices)
        zop = ZtildeOp(a, split, approx=CONVERGED)
        x = rng.standard_normal((a.shape[1], 2))
        g = rng.standard_normal((z.shape[0], 2))
        assert np.abs(zop.mul(x) - z @ x).max() < 1e-9
        assert np.abs(zop.mul_t(g) - z.T @ g).max() < 1e-9


def test_ztilde_annihilates_lowpass_range():
    rng = np.random.default_rng(2)
    for order in (1, 2):
        h, a, lev = _level_pair(24, order, count=80)
        split = build_split(h.levels[lev], h.levels[lev + 1], order)
        zop = ZtildeOp(a, split, approx=CONVERGED)
        y = rng.standard_normal((a.shape[0], 3))
        out = zop.mul(a.T @ y)
        assert np.abs(out).max() < 1e-9 * (1 + np.abs(y).max())


def test_dpsi_estimate_formula():
    h, a, lev = _level_pair(25, 2, count=60)
    split = build_split(h.levels[lev], h.levels[lev + 1], 2)
    zop = ZtildeOp(a, split, approx=CONVERGED)
    dense = a.toarray()
    aa = dense[:, split.a_indices]
    ab = dense[:, split.b_indices]
    expect = 1.0 + ((ab / np.diag(aa)[:, None]) ** 2).sum(axis=0)
    assert np.abs(zop.dpsi_estimate() - expect).max() < 1e-12
    assert np.all(zop.dpsi_estimate() >= 1.0)


def test_ztilde_shapes():
    h, a, lev = _level_pair(27, 2, count=90)
    split = build_split(h.levels[lev], h.levels[lev + 1], 2)
    zop = ZtildeOp(a, split, approx=CONVERGED)
    assert zop.n_parent == a.shape[0]
    assert zop.n_high == a.shape[1] - a.shape[0]
