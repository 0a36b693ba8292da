"""Injective level splits and the high-pass lifting operator.

A level pair (parent, child) is connected by the two-scale matrix A
(parents x children, entries = kernel weights).  Splitting the children
into an injective parent->child assignment a and the remainder b gives

    Ztilde = [ -(A^b)^T (A^a)^-T  |  I ]

whose rows span the null space of A (high-pass directions).  A^a is never
inverted explicitly; both (A^a)^-1 and (A^a)^-T are realized through the
SPD product M = A^a (A^a)^T and a truncated Neumann series for M^-1:

    (A^a)^-T x = M^-1 (A^a x)        (A^a)^-1 y = (A^a)^T M^-1 y

Compatibility module: no coding path uses it since format v2 codes order-1
critical planes in closed form (transform.py).  perfbench/spans.py traces
its names, so it stays until the benchmark drops those bindings.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .spectral import Operator, apply_series


class SplitError(RuntimeError):
    """No injective parent->child assignment exists at this level."""


@dataclass
class ASplit:
    """Injective parent->child claim plus the unclaimed remainder.

    a_indices[i] is the child column claimed by parent row i, so
    A[:, a_indices] is square; b_indices lists the other children in
    ascending (Morton) order.
    """
    level: int
    a_indices: np.ndarray
    b_indices: np.ndarray


def _offset_priority(order):
    """Rank the stencil offsets by (|d|_1, Morton key of d - d_min)."""
    if order == 1:
        rng = (0, 2)
    else:
        rng = (-1, 2)
    offs = [(dx, dy, dz)
            for dx in range(*rng) for dy in range(*rng) for dz in range(*rng)]
    def key(d):
        mort = 0
        for bit in range(2):
            for axis in range(3):
                mort |= ((d[axis] - rng[0]) >> bit & 1) << (3 * bit + axis)
        return (abs(d[0]) + abs(d[1]) + abs(d[2]), mort)
    ranked = sorted(offs, key=key)
    prio = {d: i for i, d in enumerate(ranked)}
    return prio


def _offset_codes(d, order):
    """Code ((dx-lo)*3 + (dy-lo))*3 + (dz-lo) in [0, 27) of offsets d (E,3),
    with lo the smallest stencil offset of the order."""
    d = d - (0 if order == 1 else -1)
    return (d[:, 0] * 3 + d[:, 1]) * 3 + d[:, 2]


def _priority_table(order):
    """_offset_priority as a 27-entry array indexed by _offset_codes."""
    prio = _offset_priority(order)
    table = np.zeros(27, dtype=np.int64)
    table[_offset_codes(np.array(list(prio)), order)] = list(prio.values())
    return table


def build_split(parent_geom, child_geom, order):
    """Greedy minimal-offset assignment of one child per parent.

    Parents are scanned in Morton order; each claims its not-yet-claimed
    child with smallest |d|_1 (ties by Morton order of the offset).  Raises
    SplitError when some parent finds every candidate taken, in which case
    the critical-rate factorization is unavailable at this level.
    """
    n_parent = len(parent_geom.nodes)
    n_child = len(child_geom.nodes)
    if n_child < n_parent:
        raise SplitError("level %d has %d parents but only %d children"
                         % (parent_geom.level, n_parent, n_child))
    link_p = parent_geom.link_parent
    link_c = parent_geom.link_child
    d = parent_geom.link_offsets(child_geom)
    pr = _priority_table(order)[_offset_codes(d, order)]
    order_ix = np.lexsort((pr, link_p))
    link_p = link_p[order_ix]
    link_c = link_c[order_ix]
    starts = np.searchsorted(link_p, np.arange(n_parent))
    ends = np.searchsorted(link_p, np.arange(n_parent) + 1)
    claimed = np.full(n_child, False)
    a_idx = np.full(n_parent, -1, dtype=np.int64)
    for i in range(n_parent):
        for j in range(starts[i], ends[i]):
            c = link_c[j]
            if not claimed[c]:
                claimed[c] = True
                a_idx[i] = c
                break
        if a_idx[i] < 0:
            raise SplitError(
                "parent %d at level %d cannot claim an unclaimed child"
                % (i, parent_geom.level))
    b_idx = np.nonzero(~claimed)[0].astype(np.int64)
    return ASplit(parent_geom.level, a_idx, b_idx)


class ZtildeOp:
    """Matrix-free Ztilde and Ztilde^T for one level pair.

    Holds A, its claimed and unclaimed columns A^a and A^b and their
    transposes, all in CSR (so no call builds a transpose), the split, the
    SPD product M = A^a A^a^T as an Operator (so its Gershgorin bound is
    deterministic, and positive because every claimed child has a positive
    weight) and the series config used for all M^-1 solves.
    """

    def __init__(self, a_mat, split, approx):
        self.a_mat = a_mat.tocsr()
        self.split = split
        self.aa = self.a_mat[:, split.a_indices].tocsr()
        self.ab = self.a_mat[:, split.b_indices].tocsr()
        self.aa_t = self.aa.T.tocsr()
        self.ab_t = self.ab.T.tocsr()
        self._m_op = Operator(self.aa @ self.aa_t)
        self.approx = approx

    @property
    def n_high(self):
        return self.ab.shape[1]

    def _m_solve(self, y):
        return apply_series(self._m_op, y, "inv", self.approx)

    def solve_a_t(self, x):
        """(A^a)^-T x via M^-1 (A^a x)."""
        return self._m_solve(self.aa @ x)

    def solve_a(self, y):
        """(A^a)^-1 y via (A^a)^T M^-1 y."""
        return self.aa_t @ self._m_solve(y)

    def mul(self, x):
        """Ztilde x for child-indexed features x (n_child, r)."""
        x = np.asarray(x, dtype=np.float64)
        xa = x[self.split.a_indices]
        xb = x[self.split.b_indices]
        return xb - self.ab_t @ self.solve_a_t(xa)

    def mul_t(self, g):
        """Ztilde^T g back to child indexing (n_child, r)."""
        g = np.asarray(g, dtype=np.float64)
        n_child = self.a_mat.shape[1]
        out = np.zeros((n_child,) + g.shape[1:], dtype=np.float64)
        out[self.split.b_indices] = g
        out[self.split.a_indices] = -self.solve_a(self.ab @ g)
        return out

    def dpsi_estimate(self):
        """Diagonal scale estimate for the high-pass basis.

        dpsi[j] = 1 + sum_i (A^b[i,j] / A^a[i,i])^2, computable from
        geometry alone so encoder and decoder agree without side data.
        """
        sq = (sp.diags(1.0 / self.aa.diagonal()) @ self.ab).power(2)
        return 1.0 + np.asarray(sq.sum(axis=0)).ravel()
