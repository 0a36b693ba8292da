"""Analysis and synthesis cascades over the level hierarchy.

Encoder and decoder share every normalization operator.  The residual
planes are a function of the basis order:
  order 1  critical planes: rows 2..n of each parent's Householder
           reflector times F                         (N_{l+1}-N_l rows)
  order 2  overcomplete planes: S_invsqrt(G) G dF    (N_{l+1} rows)

Order 1 is RAHT's critically sampled orthonormal transform, one coefficient
per voxel and channel, in closed form.  Each parent's row u of the scaled
A' is a unit vector over its children c_1 < ... < c_n (Morton order), and
with v = u + e_1 the reflector H = I - v v^T / (1 + u_1) maps u to -e_1,
so its rows 2..n are an orthonormal basis of u's complement.  Their
coefficients are x_i - u_i s, i >= 2, with s = (A'x + x_1) / (1 + u_1),
and for two children the one coefficient is (u_1 x_2 - u_2 x_1),
(second - first)/sqrt2 for equal weights.  With R these rows for every
parent, S = [A'^T | R^T] is orthogonal, so the planes are orthonormal
coordinates and need no decoder replica.  Per level the encoder's one
product S^T f gives [A' f; plane], the parents' coefficients and the
plane, and the decoder's step is state' = S [state; plane], one CSR
product per level (_critical_synthesis).

Order 1 (box) needs no Gram.  Box supports on one level are disjoint, so
its Gram is the diagonal of voxel counts, and after the unit-diagonal
scaling every G is exactly the identity.  Its plan is the synthesis
matrices S, built from the links and counts, and it runs no normalization:
the DC is A'f at the root.  So the stream's K matters only for order 2.

A TransformPlan holds only what the geometry and the order determine.
The series depth K reaches order 2's normalizations through the config
argument of analyze and synthesize alone, so one plan serves every K.

Order 2 has no closed form.  Its encoder keeps a running copy of the
decoder state and codes each level's residual against it, so series
truncation error at one level is folded into the next level's residual
instead of accumulating.  At the finest level the Gram matrix is the
identity, which makes the last fold exact and gives machine-precision
round trips without quantization.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import Hierarchy
from .kernels import build_a_matrix, gram_levels
from .spectral import ApproxConfig, Operator, apply_series
# compatibility names kept for perfbench/spans.py, which traces them here;
# nothing in this module calls them
from .sparse_ops import build_split  # noqa: F401
from .spectral import eigen_bound  # noqa: F401


class ApproxRoles:
    """Compatibility name kept for perfbench/run.py: ApproxRoles.uniform(k)
    is ApproxConfig(order=k)."""
    @staticmethod
    def uniform(order):
        return ApproxConfig(order=order)


@dataclass
class TransformConfig:
    """One series config drives every operator of encoder and decoder.

    The bitstream carries its order K, so encoder and decoder run the same
    series and stay bit-identical.
    """
    order: int = 1
    # critical | overcomplete, validated and read by nothing: kept because
    # perfbench/run.py passes it.  The planes are a function of the order
    residual_mode: str = "overcomplete"
    approx: ApproxConfig = field(default_factory=ApproxConfig)
    # True only: kept because perfbench/run.py passes scaling=True
    scaling: bool = True

    def __post_init__(self):
        if self.residual_mode not in ("critical", "overcomplete"):
            raise ValueError("unknown residual mode %r" % (self.residual_mode,))
        if self.scaling is not True:
            raise ValueError("scaling must be True: the basis is always scaled")


@dataclass
class CoeffSet:
    """Transform output: DC block plus one high-pass plane per level step.

    All rows follow Morton order of the owning nodes.
    """
    order: int
    depth: int
    channels: int
    lowpass: np.ndarray
    highpass: list

    @property
    def modes(self):
        """The plane kind coding each level l -> l+1: 'c' (critical) on
        every level of order 1 and 'o' (overcomplete) of order 2."""
        return ("c" if self.order == 1 else "o") * self.depth

    def total_coeffs(self):
        return len(self.lowpass) + sum(len(h) for h in self.highpass)


def apply_basis_scaling(grams, a_mats):
    """Unit-norm diagonal preconditioning of the basis.

    grams are the CSR matrices of gram_levels.  Returns (scaled A list,
    scaled Gram list), all CSR, with D = diag(G) per level,
    A'_l = D_l^-1/2 A_l D_{l+1}^1/2 and G' = D^-1/2 G D^-1/2, so scaled
    Grams have unit diagonal and the series steps are well conditioned.
    The positive diagonal also keeps every Gram's bound above zero.  The
    finest G is the identity, so the finest level needs no rescale.
    """
    norm2 = []      # squared basis norms, the Gram diagonals
    for g in grams:
        d = g.diagonal()
        assert np.all(d > 0), "zero-norm basis column; node set is not a closure"
        norm2.append(d)
    scaled_a = []
    for lvl, a in enumerate(a_mats):
        left = sp.diags(1.0 / np.sqrt(norm2[lvl]))
        right = sp.diags(np.sqrt(norm2[lvl + 1]))
        scaled_a.append((left @ a @ right).tocsr())
    scaled_g = []
    for g, d in zip(grams, norm2):
        # g_ij / sqrt(d_i d_j): the diagonal order-1 Gram of integer counts
        # w scales to w / sqrt(w * w), exactly 1, so its L = I - G' is empty
        rows = np.repeat(np.arange(len(d)), np.diff(g.indptr))
        data = g.data / np.sqrt(d[g.indices] * d[rows])
        scaled_g.append(sp.csr_matrix((data, g.indices, g.indptr),
                                      shape=g.shape))
    return scaled_a, scaled_g


def _critical_synthesis(hierarchy):
    """Per level, the order-1 critical synthesis matrix S = [A'^T | R^T]
    in CSR, with R the reflector rows 2..n of every parent, one per plane
    row.  S is orthogonal: S^T f is [A' f; plane], and S [state; plane] is
    the next level's state.

    The box Gram is diagonal and holds the voxel counts, so A' =
    D^-1/2 A D^1/2 of apply_basis_scaling has A'[p, k] = u_k =
    sqrt(wc_k) / sqrt(wp_p), with wc the children's counts and wp the
    parents', summed level by level from wc = 1 at the voxels.  Order 1
    links each child k to one parent link_parent[k], non-decreasing in k,
    so each parent's children follow one another in Morton order from its
    head, the exclusive cumsum of the children counts.  Row k of S, a child
    of parent p, holds u_k at column p, then at the column of each other
    child i of p (after the N_parent parent columns) H[i, k] = delta_ik -
    u_i w_k, with w_k = u_k / (1 + u_first) and w = 1 at the first child.
    So entry j of row k sits at sibling i = head_p + j, and every array
    over the entries comes from two np.repeat calls and two gathers by i.
    """
    levels = hierarchy.levels
    wc = np.ones(len(levels[-1]))           # the children's voxel counts
    mats = [None] * hierarchy.depth
    for l in range(hierarchy.depth - 1, -1, -1):
        parent = levels[l].link_parent
        n_parent, n_child = len(levels[l]), len(levels[l + 1])
        wp = np.bincount(parent, weights=wc, minlength=n_parent)
        u = (1.0 / np.sqrt(wp))[parent] * np.sqrt(wc)
        count = np.bincount(parent, minlength=n_parent)
        head = np.zeros(n_parent, dtype=np.int64)
        np.cumsum(count[:-1], out=head[1:])
        first = head[parent]
        w = u / (1.0 + u[first])
        w[head] = 1.0
        n = count[parent]                   # entries per row
        indptr = np.zeros(n_child + 1, dtype=np.int64)
        np.cumsum(n, out=indptr[1:])
        start = indptr[:-1]
        i = np.repeat(first - start, n)
        i += np.arange(len(i))
        vals = np.repeat(w, n)
        vals *= (-u)[i]
        vals[start + np.arange(n_child) - first] += 1.0
        vals[start] = u
        # S's column of each child: its parent's for a first child, else
        # the child's plane row after the N_parent parent columns
        col = np.arange(n_child) + (n_parent - 1) - parent
        col[head] = np.arange(n_parent)
        cols = col.astype(np.int32 if n_child < 2 ** 31 else np.int64)[i]
        mats[l] = sp.csr_matrix((vals, cols, indptr),
                                shape=(n_child, n_child))
        wc = wp
    return mats


class TransformPlan:
    """Geometry-derived operators shared by analyze and synthesize.

    Construction is deterministic from the hierarchy and the order, so
    encoder and decoder rebuild identical operators from the transmitted
    geometry; no operator state travels in the bitstream, and the plan
    holds neither the hierarchy nor the series depth K.  An order-1 plan
    holds only critical, the per-level synthesis matrices S of
    _critical_synthesis: their first N_parent columns are A'^T, and every
    scaled box Gram is the identity (a_mats and grams are None).  An
    order-2 plan holds a_mats, the scaled A' per level, and its scaled
    Grams, as Operators in grams (critical is None).
    """

    def __init__(self, hierarchy: Hierarchy, config: TransformConfig):
        if config.order != hierarchy.order:
            raise ValueError("config order %d != hierarchy order %d"
                             % (config.order, hierarchy.order))
        self.order = hierarchy.order
        if hierarchy.order == 1:
            self.a_mats = self.grams = None
            self.critical = _critical_synthesis(hierarchy)
            return
        self.critical = None
        a_mats = [build_a_matrix(hierarchy.levels[l], hierarchy.levels[l + 1],
                                 hierarchy.order)
                  for l in range(hierarchy.depth)]
        self.a_mats, grams = apply_basis_scaling(
            gram_levels(hierarchy, a_mats), a_mats)
        # each Operator keeps only its series layer L, not the scaled Gram
        self.grams = [Operator(g) for g in grams]

    def move_matrices(self, place):
        """Rebuild every CSR matrix of the plan, each S of order 1, each A'
        and each series layer L of order 2, on copies of its arrays.
        place(arrays) returns equal copies of a list of arrays, for
        instance in memory of their own.  The operators and their bounds
        are unchanged."""
        if self.grams is None:
            mats = self.critical
        else:
            mats = self.a_mats + [g.lm for g in self.grams]
        parts = place([x for m in mats for x in (m.data, m.indices, m.indptr)])
        moved = [sp.csr_matrix(tuple(parts[3 * i:3 * i + 3]), shape=m.shape)
                 for i, m in enumerate(mats)]
        if self.grams is None:
            self.critical = moved
            return
        self.a_mats = moved[:len(self.a_mats)]
        for g, lm in zip(self.grams, moved[len(self.a_mats):]):
            g.lm = lm


def _as_features(attributes):
    v = np.asarray(attributes, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    return v


def analyze(hierarchy, attributes, config, plan=None):
    """Full encoder cascade.  Returns a CoeffSet.

    Steps: dual low-pass cascade, per-level normalization to ideal primal
    coefficients and DC orthonormalization.  For order 1 the dual cascade
    is the critical planes' own: per level, S^T f is [A' f; plane], and
    the dual coefficients are the ideal ones.  For order 2, per level, the
    residual against the simulated decoder state is coded as an
    overcomplete plane and the state is advanced with the decoded plane.
    Non-finite attributes raise ValueError.
    """
    if plan is None:
        plan = TransformPlan(hierarchy, config)
    v = _as_features(attributes)
    if len(v) != hierarchy.num_points:
        raise ValueError("attribute rows do not match point count")
    depth = hierarchy.depth
    order1 = hierarchy.order == 1

    f_dual = [None] * (depth + 1)
    f_dual[depth] = v
    highpass = [None] * depth
    for l in range(depth - 1, -1, -1):
        if order1:
            y = plan.critical[l].T @ f_dual[l + 1]
            n_parent = len(hierarchy.levels[l])
            f_dual[l], highpass[l] = y[:n_parent], y[n_parent:]
        else:
            f_dual[l] = plan.a_mats[l] @ f_dual[l + 1]
    # every A' entry is positive, so a NaN or infinity anywhere reaches the
    # root; order 1 runs no series that would raise on it
    if not np.isfinite(f_dual[0]).all():
        raise ValueError("non-finite attributes, or attributes so large "
                         "that their sums overflow")
    if order1:
        # RAHT needs no normalization: the DC is A'f at the root, a fresh
        # array also when the root is the voxel level
        return CoeffSet(order=1, depth=depth, channels=v.shape[1],
                        lowpass=f_dual[0].copy(), highpass=highpass)

    grams, approx = plan.grams, config.approx
    f_ideal = [apply_series(grams[l], f_dual[l], "inv", approx)
               for l in range(depth + 1)]
    lowpass = apply_series(grams[0], f_ideal[0], "sqrt", approx)
    state = apply_series(grams[0], lowpass, "invsqrt", approx)
    for l in range(depth):
        g = grams[l + 1]
        pred = plan.a_mats[l].T @ state
        df = f_ideal[l + 1] - pred
        plane = apply_series(g, g.matvec(df), "invsqrt", approx)
        highpass[l] = plane
        state = pred + apply_series(g, plane, "invsqrt", approx)
    return CoeffSet(order=2, depth=depth, channels=v.shape[1],
                    lowpass=lowpass, highpass=highpass)


def synthesize(hierarchy, coeffs: CoeffSet, config, plan=None):
    """Decoder cascade: per level, the critical step S [state; plane] of
    order 1, starting from the decoded DC, or, after the DC's
    renormalization, the prediction plus decoded residual of order 2.
    The series depth K is config's."""
    if plan is None:
        plan = TransformPlan(hierarchy, config)
    state = _as_features(coeffs.lowpass)
    if coeffs.order == 1:
        state = state.copy()        # a fresh array also at depth 0
        for l in range(coeffs.depth):
            plane = _as_features(coeffs.highpass[l])
            state = plan.critical[l] @ np.vstack([state, plane])
        return state
    grams, approx = plan.grams, config.approx
    state = apply_series(grams[0], state, "invsqrt", approx)
    for l in range(coeffs.depth):
        plane = _as_features(coeffs.highpass[l])
        state = (plan.a_mats[l].T @ state
                 + apply_series(grams[l + 1], plane, "invsqrt", approx))
    return state


def truncate_to_level(coeffs: CoeffSet, level):
    """Zero all high-pass planes above the given level (DC is level 0).

    Keeps planes for transitions 0..level-1; used for energy-compaction
    sweeps.  Returns a new CoeffSet and the kept coefficient count.
    """
    if not 0 <= level <= coeffs.depth:
        raise ValueError("level out of range")
    kept = len(coeffs.lowpass)
    planes = []
    for l, h in enumerate(coeffs.highpass):
        if l < level:
            planes.append(h.copy())
            kept += len(h)
        else:
            planes.append(np.zeros_like(h))
    out = CoeffSet(order=coeffs.order, depth=coeffs.depth,
                   channels=coeffs.channels, lowpass=coeffs.lowpass.copy(),
                   highpass=planes)
    return out, kept
