"""Analysis and synthesis cascades over the level hierarchy.

Encoder and decoder share every normalization operator; the encoder keeps a
running copy of the decoder state and codes each level's residual against
it, so series truncation error at one level is folded into the next level's
residual instead of accumulating.  At the finest level the Gram matrix is
the identity, which makes the last fold exact and gives machine-precision
round trips without quantization.

Residual planes come in two flavours per level:
  overcomplete  store S_invsqrt(G) G dF          (N_{l+1} rows)
  critical      store S_invsqrt(W) Ztilde' dF    (N_{l+1}-N_l rows)
with W = Ztilde' S_inv(G) Ztilde'^T.  Critical planes are accepted only if
reapplying the decoder reproduces dF to a tight gate; otherwise the level
falls back to overcomplete and the per-level mode is recorded for the
bitstream header.  Only order 1 attempts critical planes: on order 2 the
truncated W series is far from a projection, so the gate held on no
realistic level, and the attempt cost more than the rest of the analysis.
An order-2 request codes overcomplete planes, and synthesize still decodes
an order-2 critical plane that an older encoder wrote.

Order 1 (box) needs no Gram.  Box supports on one level are disjoint, so
its Gram is the diagonal of voxel counts, and after the unit-diagonal
scaling every G is exactly the identity.  Its plan is the scaled A' built
from the counts, and every h(G) v returns what the series returns on I,
with no series run.  So the stream's K matters only for order 2 and for
critical levels (the W series and the M^-1 solves of the split).
"""

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import Hierarchy
from .kernels import build_a_matrix, gram_levels
from .sparse_ops import SplitError, ZtildeOp, build_split
from .spectral import ApproxConfig, Operator, apply_series, eigen_bound

# accept a critical plane only when the decoder reproduces the residual to
# this relative tolerance; with attribute scales near 255 and up to ~8
# levels this keeps the worst-case accumulated error two decades under the
# 1e-6 round-trip budget, and rejected levels fall back to the (exact at
# the finest level) overcomplete plane
GATE_RTOL = 1e-10


class ApproxRoles:
    """Compatibility name kept for perfbench/run.py: ApproxRoles.uniform(k)
    is ApproxConfig(order=k)."""
    @staticmethod
    def uniform(order):
        return ApproxConfig(order=order)


@dataclass
class TransformConfig:
    """One series config drives every operator: encoder, decoder and split.

    The bitstream carries its order K, so encoder and decoder run the same
    series and stay bit-identical.
    """
    order: int = 1
    residual_mode: str = "overcomplete"   # critical | overcomplete
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

    modes[l] is the mode actually used coding level l -> l+1 ('c' or 'o'),
    which can differ from the requested mode when the critical gate failed.
    All rows follow Morton order of the owning nodes.
    """
    order: int
    depth: int
    channels: int
    lowpass: np.ndarray
    highpass: list
    modes: str

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


def _box_a_matrices(hierarchy):
    """The scaled order-1 A' list, from voxel counts alone.

    The box Gram is diagonal and holds each node's voxel count w, so the
    scaling of apply_basis_scaling gives A'[p, c] = sqrt(w_c) / sqrt(w_p).
    One pass per level, finest to coarsest, sums the children's counts into
    their parents (w = 1 at the voxels).  The links come grouped by parent
    with children ascending, which is CSR order.  The result equals
    apply_basis_scaling's A', array for array.
    """
    levels = hierarchy.levels
    w = np.ones(len(levels[-1]))
    a_mats = [None] * hierarchy.depth
    for l in range(hierarchy.depth - 1, -1, -1):
        geom = levels[l]
        parent, child = geom.link_parent, geom.link_child
        w_parent = np.bincount(parent, weights=w[child], minlength=len(geom))
        data = (1.0 / np.sqrt(w_parent))[parent] * np.sqrt(w)[child]
        indptr = np.searchsorted(parent, np.arange(len(geom) + 1))
        a_mats[l] = sp.csr_matrix((data, child, indptr),
                                  shape=(len(geom), len(levels[l + 1])))
        w = w_parent
    return a_mats


class TransformPlan:
    """Geometry-derived operators shared by analyze and synthesize.

    Construction is deterministic from (hierarchy, config), so encoder and
    decoder rebuild identical operators from the transmitted geometry; no
    operator state travels in the bitstream beyond the per-level modes.
    a_mats holds the scaled A' per level.  Order 2 also holds its scaled
    Grams, as Operators in grams; order 1 holds none (grams is None), as
    every scaled box Gram is the identity.  Every h(G') v goes through gram.
    """

    def __init__(self, hierarchy: Hierarchy, config: TransformConfig):
        if config.order != hierarchy.order:
            raise ValueError("config order %d != hierarchy order %d"
                             % (config.order, hierarchy.order))
        self.hierarchy = hierarchy
        self.config = config
        self._critical = {}
        if hierarchy.order == 1:
            self.a_mats = _box_a_matrices(hierarchy)
            self.grams = None
            return
        a_mats = [build_a_matrix(hierarchy.levels[l], hierarchy.levels[l + 1],
                                 hierarchy.order)
                  for l in range(hierarchy.depth)]
        self.a_mats, grams = apply_basis_scaling(
            gram_levels(hierarchy, a_mats), a_mats)
        # each Operator keeps only its series layer L, not the scaled Gram
        self.grams = [Operator(g) for g in grams]

    def gram(self, level, v, h):
        """h(G') v on one level, h one of inv, invsqrt and sqrt: the K-term
        series on the scaled Gram.

        Order 1 runs no series and returns that series' exact output on
        G' = I: its first term is zero times b_1, which adds +0.0 for inv
        and invsqrt (so -0.0 becomes +0.0) and -0.0 for sqrt (b_1 < 0, so
        every zero keeps its sign); K = 0 has no such term.
        """
        if self.grams is not None:
            return apply_series(self.grams[level], v, h, self.config.approx)
        if h == "sqrt" or self.config.approx.order == 0:
            return v * 1.0
        return v + 0.0

    def move_matrices(self, place):
        """Rebuild every CSR matrix of the plan, each A' and for order 2
        each series layer L, on copies of its arrays.  place(arrays)
        returns equal copies of a list of arrays, for instance in memory of
        their own.  The operators and their bounds are unchanged."""
        mats = list(self.a_mats)
        if self.grams is not None:
            mats += [g.lm for g in self.grams]
        parts = place([x for m in mats for x in (m.data, m.indices, m.indptr)])
        moved = [sp.csr_matrix(tuple(parts[3 * i:3 * i + 3]), shape=m.shape)
                 for i, m in enumerate(mats)]
        self.a_mats = moved[:len(self.a_mats)]
        for g, lm in zip(self.grams or (), moved[len(self.a_mats):]):
            g.lm = lm

    def without_geometry(self):
        """A copy of the plan that shares its matrices but holds neither
        the hierarchy nor any critical operators: enough to synthesize
        overcomplete levels, at a fraction of the memory."""
        plan = copy.copy(self)
        plan.hierarchy = None
        plan._critical = {}
        return plan

    def critical_ops(self, level):
        """(zop, dpsi, w_op) for one level step: the ZtildeOp, the high-pass
        diagonal scale and the matrix-free W operator, bounded by power
        iteration; None when no injective split exists there."""
        if self.hierarchy is None:
            raise ValueError("a plan without its geometry has no critical "
                             "operators")
        if level in self._critical:
            return self._critical[level]
        try:
            split = build_split(self.hierarchy.levels[level],
                                self.hierarchy.levels[level + 1],
                                self.hierarchy.order)
        except SplitError:
            self._critical[level] = None
            return None
        zop = ZtildeOp(self.a_mats[level], split, approx=self.config.approx)
        dpsi = zop.dpsi_estimate()
        w_op = self._w_operator(level, zop, dpsi)
        # composite operator: only power iteration applies
        w_op.bound = eigen_bound(w_op)
        self._critical[level] = (zop, dpsi, w_op)
        return self._critical[level]

    def _w_operator(self, level, zop, dpsi):
        dis = 1.0 / np.sqrt(dpsi)

        def w_mv(x):
            y = zop.mul_t(dis[:, None] * x)
            y = self.gram(level + 1, y, "inv")
            return dis[:, None] * zop.mul(y)

        return Operator(w_mv, zop.n_high)

    # per-plane forward/backward maps; the decoder-side maps are the ones
    # the encoder feeds back into its state

    def forward_over(self, level, df):
        # G' df is df itself for order 1
        x = df if self.grams is None else self.grams[level + 1].matvec(df)
        return self.gram(level + 1, x, "invsqrt")

    def decode_over(self, level, plane):
        return self.gram(level + 1, plane, "invsqrt")

    def forward_critical(self, level, df, ops):
        zop, dpsi, w_op = ops
        z = zop.mul(df) / np.sqrt(dpsi)[:, None]
        return apply_series(w_op, z, "invsqrt", self.config.approx)

    def decode_critical(self, level, plane, ops):
        zop, dpsi, w_op = ops
        y = apply_series(w_op, plane, "invsqrt", self.config.approx)
        x = zop.mul_t(y / np.sqrt(dpsi)[:, None])
        return self.gram(level + 1, x, "inv")


def _as_features(attributes):
    v = np.asarray(attributes, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    return v


def analyze(hierarchy, attributes, config, plan=None):
    """Full encoder cascade.  Returns a CoeffSet.

    Steps: dual low-pass cascade, per-level normalization to ideal primal
    coefficients, DC orthonormalization, then per level the residual
    against the simulated decoder state is coded (critical when requested
    for order 1 and the gate holds, else overcomplete) and the state is
    advanced with the decoded plane.  Non-finite attributes raise
    ValueError.
    """
    if plan is None:
        plan = TransformPlan(hierarchy, config)
    v = _as_features(attributes)
    if len(v) != hierarchy.num_points:
        raise ValueError("attribute rows do not match point count")
    depth = hierarchy.depth

    f_dual = [None] * (depth + 1)
    f_dual[depth] = v
    for l in range(depth - 1, -1, -1):
        f_dual[l] = plan.a_mats[l] @ f_dual[l + 1]
    # every A' entry is positive, so a NaN or infinity anywhere reaches the
    # root; order 1 runs no series that would raise on it
    if not np.isfinite(f_dual[0]).all():
        raise ValueError("non-finite attributes, or attributes so large "
                         "that their sums overflow")
    f_ideal = [plan.gram(l, f_dual[l], "inv") for l in range(depth + 1)]

    lowpass = plan.gram(0, f_ideal[0], "sqrt")
    state = plan.gram(0, lowpass, "invsqrt")

    # order 2 never attempts critical planes (see the module docstring)
    requested = ("c" if config.residual_mode == "critical"
                 and hierarchy.order == 1 else "o")
    modes = []
    highpass = []
    for l in range(depth):
        pred = plan.a_mats[l].T @ state
        df = f_ideal[l + 1] - pred
        mode = requested
        plane = decoded = None
        if mode == "c":
            ops = plan.critical_ops(l)
            if ops is None:
                mode = "o"
            else:
                plane = plan.forward_critical(l, df, ops)
                decoded = plan.decode_critical(l, plane, ops)
                gate = GATE_RTOL * (1.0 + np.abs(df).max(initial=0.0))
                if np.abs(df - decoded).max(initial=0.0) > gate:
                    mode = "o"
        if mode == "o":
            plane = plan.forward_over(l, df)
            decoded = plan.decode_over(l, plane)
        modes.append(mode)
        highpass.append(plane)
        state = pred + decoded

    return CoeffSet(order=hierarchy.order, depth=depth, channels=v.shape[1],
                    lowpass=lowpass, highpass=highpass, modes="".join(modes))


def synthesize(hierarchy, coeffs: CoeffSet, config, plan=None):
    """Decoder cascade: DC renormalization then per-level prediction plus
    decoded residual, following the per-level modes recorded at encode."""
    if plan is None:
        plan = TransformPlan(hierarchy, config)
    state = plan.gram(0, _as_features(coeffs.lowpass), "invsqrt")
    for l, mode in enumerate(coeffs.modes):
        pred = plan.a_mats[l].T @ state
        plane = _as_features(coeffs.highpass[l])
        if mode == "c":
            ops = plan.critical_ops(l)
            if ops is None:
                raise SplitError("stream says critical at level %d but no "
                                 "injective split exists" % l)
            decoded = plan.decode_critical(l, plane, ops)
        else:
            decoded = plan.decode_over(l, plane)
        state = pred + decoded
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
                   highpass=planes, modes=coeffs.modes)
    return out, kept
