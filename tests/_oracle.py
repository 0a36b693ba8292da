"""Dense reference implementations for small instances (<= 500 points).

Everything here materializes full matrices and uses numpy factorizations,
trading memory for exactness.  The sparse pipeline is validated against
these on small clouds; none of this runs in the codec path.
"""

import numpy as np

from rahtp.geometry import Hierarchy
from rahtp.kernels import build_a_matrix

MAX_ORACLE_POINTS = 500


def _guard(n):
    if n > MAX_ORACLE_POINTS:
        raise ValueError(
            "oracle is restricted to <= %d points, got %d"
            % (MAX_ORACLE_POINTS, n))


def dense_a(parent_geom, child_geom, order):
    """Two-scale matrix A (parents x children) as a dense array."""
    _guard(len(child_geom.nodes))
    return build_a_matrix(parent_geom, child_geom, order).toarray()


def dense_basis(hierarchy: Hierarchy, level):
    """Basis matrix Phi_level (points x nodes) by direct kernel evaluation.

    Finest-level functions are Kronecker deltas on occupied voxels, so at
    level L this is the identity.  Coarser levels evaluate the dilated
    tensor-product kernel at the point coordinates, which coincides with
    the product A_level ... A_{L-1} transposed (the kernel is refinable).
    """
    pts = hierarchy.levels[-1].nodes
    _guard(len(pts))
    nodes = hierarchy.levels[level].nodes
    scale = float(2 ** (hierarchy.depth - level))
    t = pts[:, None, :] / scale                       # (npts, 1, 3)
    m = nodes[None, :, :].astype(np.float64)          # (1, nnode, 3)
    if hierarchy.order == 1:
        inside = (t >= m) & (t < m + 1.0)
        if level == hierarchy.depth:
            inside = t == m
        return np.all(inside, axis=2).astype(np.float64)
    s = np.abs(t - m)
    return np.prod(np.maximum(0.0, 1.0 - s), axis=2)


def gram_exact(hierarchy: Hierarchy, level):
    phi = dense_basis(hierarchy, level)
    return phi.T @ phi


def project_exact(hierarchy: Hierarchy, level, attributes):
    """Least-squares projection coefficients onto the level basis.

    Returns (coeffs, rank); rank < n_nodes means the Gram matrix is
    singular and the coefficients are the minimum-norm representative.
    """
    phi = dense_basis(hierarchy, level)
    v = np.asarray(attributes, dtype=np.float64)
    coeffs, _, rank, _ = np.linalg.lstsq(phi, v, rcond=None)
    return coeffs, int(rank)


def matfun_exact(mat, h):
    """h(X) for symmetric PSD X via eigen-decomposition.

    Zero eigenvalues follow pseudo-inverse semantics for inv and invsqrt
    (the singular directions map to zero).
    """
    mat = np.asarray(mat, dtype=np.float64)
    _guard(mat.shape[0])
    w, q = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    cut = mat.shape[0] * np.finfo(np.float64).eps * (w.max(initial=0.0) or 1.0)
    live = w > cut
    hw = np.zeros_like(w)
    if h == "inv":
        hw[live] = 1.0 / w[live]
    elif h == "invsqrt":
        hw[live] = 1.0 / np.sqrt(w[live])
    elif h == "sqrt":
        hw[live] = np.sqrt(w[live])
    else:
        raise ValueError("h must be one of inv, invsqrt, sqrt")
    return (q * hw) @ q.T


def ztilde_exact(a_mat, a_indices, b_indices):
    """Dense Ztilde = [-(A^b)^T (A^a)^-T | I] in child-index columns.

    Raises numpy.linalg.LinAlgError when A^a is singular, meaning the
    critical-rate factorization does not exist for this split.
    """
    a_mat = np.asarray(a_mat, dtype=np.float64)
    _guard(a_mat.shape[1])
    aa = a_mat[:, a_indices]
    ab = a_mat[:, b_indices]
    block = -np.linalg.solve(aa, ab).T                # -(A^b)^T (A^a)^-T
    z = np.zeros((len(b_indices), a_mat.shape[1]))
    z[:, a_indices] = block
    z[:, np.asarray(b_indices)] = np.eye(len(b_indices))
    return z
