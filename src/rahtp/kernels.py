"""Space-invariant B-spline two-scale kernels and the space-varying Gram.

kernel_weights gives the two-scale coefficients a(d) linking a parent basis
function to its children: order 1 (box) has unit weights on d in {0,1}^3,
order 2 (tri-linear hat) has 2^(-|d|_1) on d in {-1,0,1}^3.

The Gram holds the basis inner products g(i,j) = <phi_i, phi_j> between the
nodes of one level as a canonical CSR matrix: sorted column indices and no
explicit zeros, so the nonzeros are exactly the overlapping basis pairs.
It is the identity at the finest level and is propagated coarser by
G_ell = A_ell G_{ell+1} A_ell^T.  Basis supports only overlap between nodes
in each other's {-1,0,1}^3 neighborhood, so each row has at most 27
entries.  The series never run on these unscaled Grams; the transform
scales them to unit diagonal and wraps them in spectral.Operator.  It builds
them for order 2 only: the order-1 Gram is the diagonal of voxel counts, so
its scaled form is the identity and the transform builds S from the counts.
"""

import numpy as np
import scipy.sparse as sp


def kernel_weights(order, dvecs):
    """Two-scale weights a(d) for an (E,3) array of offsets d = m - 2n
    (child m, parent n)."""
    d = np.asarray(dvecs, dtype=np.int64)
    if order == 1:
        ok = np.all((d == 0) | (d == 1), axis=1)
        return ok.astype(np.float64)
    if order == 2:
        ok = np.all(np.abs(d) <= 1, axis=1)
        return np.where(ok, 2.0 ** (-np.abs(d).sum(axis=1, dtype=np.float64)), 0.0)
    raise ValueError("order must be 1 or 2")


def gram_init(level_geom):
    """Identity Gram at the finest level (bases are voxel indicators there)."""
    return sp.identity(len(level_geom), dtype=np.float64, format="csr")


def gram_downsample(gram, parent_geom, a):
    """Propagate the Gram one level coarser: G_parent = A G_child A^T.

    a is A_ell from build_a_matrix.  Parent bases only overlap within the
    {-1,0,1}^3 neighborhood; a nonzero between nodes further apart violates
    the closure property and raises.
    """
    prod = (a @ gram @ a.T).tocsr()
    prod.eliminate_zeros()
    prod.sort_indices()
    rows = np.repeat(np.arange(prod.shape[0]), np.diff(prod.indptr))
    d = parent_geom.nodes[prod.indices] - parent_geom.nodes[rows]
    if np.abs(d).max(initial=0) > 1:
        raise AssertionError("Gram entry escaped the 27-neighbor stencil")
    return prod


def build_a_matrix(parent_geom, child_geom, order):
    """Two-scale operator A_ell as a CSR matrix (parents x children)."""
    w = kernel_weights(order, parent_geom.link_offsets(child_geom))
    if np.any(w <= 0):
        raise AssertionError("parent link with zero kernel weight")
    return sp.csr_matrix(
        (w, (parent_geom.link_parent, parent_geom.link_child)),
        shape=(len(parent_geom), len(child_geom)),
    )


def gram_levels(hierarchy, a_mats=None):
    """All Grams as CSR matrices, a list indexed by level (0 is coarsest).

    a_mats[l] is A_l, from level l+1 to level l; built here unless passed.
    """
    levels = hierarchy.levels
    grams = [gram_init(levels[-1])]
    for ell in range(hierarchy.depth - 1, -1, -1):
        a = (a_mats[ell] if a_mats is not None else
             build_a_matrix(levels[ell], levels[ell + 1], hierarchy.order))
        grams.insert(0, gram_downsample(grams[0], levels[ell], a))
    return grams
