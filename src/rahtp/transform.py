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
bitstream header.
"""

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

    Returns (scaled A list, scaled Gram list) with D = diag(G) per level,
    A'_l = D_l^-1/2 A_l D_{l+1}^1/2 and G' = D^-1/2 G D^-1/2, so scaled
    Grams have unit diagonal and the series steps are well conditioned.
    The finest G is the identity, so the finest level needs no rescale.
    """
    norm2 = []      # squared basis norms, the Gram diagonals
    for g in grams:
        d = g.diagonal
        assert np.all(d > 0), "zero-norm basis column; node set is not a closure"
        norm2.append(d)
    scaled_a = []
    for lvl, a in enumerate(a_mats):
        left = sp.diags(1.0 / np.sqrt(norm2[lvl]))
        right = sp.diags(np.sqrt(norm2[lvl + 1]))
        scaled_a.append((left @ a @ right).tocsr())
    scaled_g = [g.scaled(d) for g, d in zip(grams, norm2)]
    return scaled_a, scaled_g


class TransformPlan:
    """Geometry-derived operators shared by analyze and synthesize.

    Construction is deterministic from (hierarchy, config), so encoder and
    decoder rebuild identical operators from the transmitted geometry; no
    operator state travels in the bitstream beyond the per-level modes.
    """

    def __init__(self, hierarchy: Hierarchy, config: TransformConfig):
        if config.order != hierarchy.order:
            raise ValueError("config order %d != hierarchy order %d"
                             % (config.order, hierarchy.order))
        self.hierarchy = hierarchy
        self.config = config
        a_mats = [build_a_matrix(hierarchy.levels[l], hierarchy.levels[l + 1],
                                 hierarchy.order)
                  for l in range(hierarchy.depth)]
        self.a_mats, self.grams = apply_basis_scaling(
            gram_levels(hierarchy, a_mats), a_mats)
        self.g_bounds = [max(g.gershgorin(), np.finfo(np.float64).tiny)
                         for g in self.grams]
        self._critical = {}

    def critical_ops(self, level):
        """(zop, dpsi, w_op, bound) for one level step: the ZtildeOp, the
        high-pass diagonal scale, the matrix-free W operator and its
        eigenvalue bound; None when no injective split exists there."""
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
        n_b = zop.n_high
        if n_b == 0:
            bound = 0.0
        else:
            # composite operator: only power iteration applies
            bound = eigen_bound(w_op)
        self._critical[level] = (zop, dpsi, w_op, bound)
        return self._critical[level]

    def _w_operator(self, level, zop, dpsi):
        gram = self.grams[level + 1]
        gb = self.g_bounds[level + 1]
        cfg = self.config.approx
        dis = 1.0 / np.sqrt(dpsi)

        def w_mv(x):
            y = zop.mul_t(dis[:, None] * x)
            y = apply_series(gram, y, "inv", cfg, lam_max=gb)
            return dis[:, None] * zop.mul(y)

        return Operator(w_mv, zop.n_high)

    # per-plane forward/backward maps; the decoder-side maps are the ones
    # the encoder feeds back into its state

    def forward_over(self, level, df):
        gram = self.grams[level + 1]
        return apply_series(gram, gram.matvec(df), "invsqrt",
                            self.config.approx,
                            lam_max=self.g_bounds[level + 1])

    def decode_over(self, level, plane):
        gram = self.grams[level + 1]
        return apply_series(gram, plane, "invsqrt",
                            self.config.approx,
                            lam_max=self.g_bounds[level + 1])

    def forward_critical(self, level, df, ops):
        zop, dpsi, w_op, bound = ops
        z = zop.mul(df) / np.sqrt(dpsi)[:, None]
        return apply_series(w_op, z, "invsqrt", self.config.approx,
                            lam_max=bound)

    def decode_critical(self, level, plane, ops):
        zop, dpsi, w_op, bound = ops
        y = apply_series(w_op, plane, "invsqrt", self.config.approx,
                         lam_max=bound)
        x = zop.mul_t(y / np.sqrt(dpsi)[:, None])
        return apply_series(self.grams[level + 1], x, "inv",
                            self.config.approx,
                            lam_max=self.g_bounds[level + 1])


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
    and the gate holds, else overcomplete) and the state is advanced with
    the decoded plane.
    """
    if plan is None:
        plan = TransformPlan(hierarchy, config)
    v = _as_features(attributes)
    if len(v) != hierarchy.num_points:
        raise ValueError("attribute rows do not match point count")
    depth = hierarchy.depth
    cfg = config.approx

    f_dual = [None] * (depth + 1)
    f_dual[depth] = v
    for l in range(depth - 1, -1, -1):
        f_dual[l] = plan.a_mats[l] @ f_dual[l + 1]
    f_ideal = [apply_series(plan.grams[l], f_dual[l], "inv", cfg,
                            lam_max=plan.g_bounds[l])
               for l in range(depth + 1)]

    lowpass = apply_series(plan.grams[0], f_ideal[0], "sqrt", cfg,
                           lam_max=plan.g_bounds[0])
    state = apply_series(plan.grams[0], lowpass, "invsqrt", cfg,
                         lam_max=plan.g_bounds[0])

    requested = "c" if config.residual_mode == "critical" else "o"
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
    state = apply_series(plan.grams[0], _as_features(coeffs.lowpass), "invsqrt",
                         config.approx, lam_max=plan.g_bounds[0])
    for l, mode in enumerate(coeffs.modes):
        pred = plan.a_mats[l].T @ state
        plane = _as_features(coeffs.highpass[l])
        if mode == "c":
            ops = plan.critical_ops(l)
            if ops is None:
                raise ValueError("stream says critical at level %d but no "
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
