"""Space-invariant B-spline two-scale kernels and the space-varying Gram tensor.

kernel_weight gives the two-scale coefficients a(d) linking a parent basis
function to its children: order 1 (box) has unit weights on d in {0,1}^3,
order 2 (tri-linear hat) has 2^(-|d|_1) on d in {-1,0,1}^3.

The Gram tensor holds the basis inner products between the nodes of one
level as a canonical CSR matrix; it is a spectral.Operator, the one operator
type the series run on.  It is the identity at the finest level and is
propagated coarser by G_ell = A_ell G_{ell+1} A_ell^T.  Basis supports only
overlap between nodes in each other's {-1,0,1}^3 neighborhood, so each row
has at most 27 entries.
"""

import numpy as np
import scipy.sparse as sp

from .spectral import Operator


def kernel_weight(order, d):
    """Two-scale weight a(d) for offset d = m - 2n (child m, parent n)."""
    d = np.asarray(d, dtype=np.int64)
    if order == 1:
        return 1.0 if np.all((d == 0) | (d == 1)) else 0.0
    if order == 2:
        return float(2.0 ** (-np.abs(d).sum())) if np.all(np.abs(d) <= 1) else 0.0
    raise ValueError("order must be 1 or 2")


def kernel_weights(order, dvecs):
    """Vectorized kernel_weight over an (E,3) offset array."""
    d = np.asarray(dvecs, dtype=np.int64)
    if order == 1:
        ok = np.all((d == 0) | (d == 1), axis=1)
        return ok.astype(np.float64)
    if order == 2:
        ok = np.all(np.abs(d) <= 1, axis=1)
        return np.where(ok, 2.0 ** (-np.abs(d).sum(axis=1, dtype=np.float64)), 0.0)
    raise ValueError("order must be 1 or 2")


class GramTensor(Operator):
    """The inner-product operator at one level, g(i,j) = <phi_i, phi_j>.

    An Operator over one CSR matrix in canonical form: sorted column indices
    and no explicit zeros, so the nonzeros are exactly the overlapping basis
    pairs.
    """

    @property
    def diagonal(self):
        return self.mat.diagonal()

    def to_csr(self):
        """The canonical CSR matrix itself; callers must not modify it."""
        return self.mat

    def scaled(self, d_self):
        """Return D^-1/2 G D^-1/2 with D = diag(d_self), as a new GramTensor."""
        s = 1.0 / np.sqrt(d_self)
        csr = self.mat
        data = csr.data * s[csr.indices]
        data *= np.repeat(s, np.diff(csr.indptr))
        return GramTensor(sp.csr_matrix(
            (data, csr.indices, csr.indptr), shape=csr.shape))


def gram_init(level_geom):
    """Identity Gram at the finest level (bases are voxel indicators there)."""
    return GramTensor(sp.identity(len(level_geom), dtype=np.float64,
                                  format="csr"))


def gram_downsample(gram, parent_geom, a):
    """Propagate the Gram one level coarser: G_parent = A G_child A^T.

    a is A_ell from build_a_matrix.  Parent bases only overlap within the
    {-1,0,1}^3 neighborhood; a nonzero between nodes further apart violates
    the closure property and raises.
    """
    prod = (a @ gram.mat @ a.T).tocsr()
    prod.eliminate_zeros()
    prod.sort_indices()
    rows = np.repeat(np.arange(prod.shape[0]), np.diff(prod.indptr))
    d = parent_geom.nodes[prod.indices] - parent_geom.nodes[rows]
    if np.abs(d).max(initial=0) > 1:
        raise AssertionError("Gram entry escaped the 27-neighbor stencil")
    return GramTensor(prod)


def build_a_matrix(parent_geom, child_geom, order):
    """Two-scale operator A_ell as a CSR matrix (parents x children)."""
    w = kernel_weights(order, parent_geom.link_d)
    if np.any(w <= 0):
        raise AssertionError("parent link with zero kernel weight")
    return sp.csr_matrix(
        (w, (parent_geom.link_parent, parent_geom.link_child)),
        shape=(len(parent_geom), len(child_geom)),
    )


def gram_levels(hierarchy, a_mats=None):
    """All Gram tensors, finest to coarsest, as a list indexed by level.

    a_mats[l] is A_l, from level l+1 to level l; built here unless passed.
    """
    levels = hierarchy.levels
    grams = [gram_init(levels[-1])]
    for ell in range(hierarchy.depth - 1, -1, -1):
        a = (a_mats[ell] if a_mats is not None else
             build_a_matrix(levels[ell], levels[ell + 1], hierarchy.order))
        grams.insert(0, gram_downsample(grams[0], levels[ell], a))
    return grams
