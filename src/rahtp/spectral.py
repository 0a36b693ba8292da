"""Series application of h(X)v for sparse X and h in {x^-1, x^-1/2, x^1/2}.

Everything is a truncated series around 1/tau:

    h(X) v  ~=  c * sum_{k=0..K} b_k L^k v,   L = I - tau X,

so one matvec per term and no eigen-decomposition anywhere.  tau is
1/lambda_max for an upper bound lambda_max on the spectrum of X; then the
iteration matrix L has spectrum in [0, 1) on the range of X and the partial
sums converge geometrically at rate 1 - tau*lambda_min.

Every X is an Operator: an explicit matrix (the scaled Grams, the lifting
product M) that keeps only its Gershgorin bound, read-only, and its series
layer L = I - X/bound in CSR, both built once.  apply_series reads the step
from op.bound.  eigen_bound, a power-iteration bound, is kept as a
compatibility name for perfbench/spans.py; no operator uses it.

A series term is one layer of the paper's feedforward network: one CSR
product, L @ term, over the channels that carry data.  A channel whose
input is all +0.0 has a +0.0 output and never enters a product.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# sums of squares over at least this many elements avoid BLAS: OpenBLAS
# threads ddot above 10000 elements, so its order of summation depends on
# the BLAS thread count, and einsum's does not.  The series' stop tests
# then read the same term norms whatever that count is
BLAS_DOT_CUTOFF = 8192

# eigen_bound's power iteration: fixed step count from a fixed start vector
# and the inflation of its final Rayleigh quotient
POWER_ITERS = 24
POWER_SAFETY = 1.05


class SeriesDivergence(RuntimeError):
    """Raised when series terms blow up (bad step, indefinite operator...)."""


@dataclass
class ApproxConfig:
    order: int = 16                 # K, number of series terms beyond the 0th
    tolerance: float = None         # optional early stop on term norm

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("series order K must be >= 0")


_COEFF_CACHE = {}


def series_coefficients(h, order):
    """Coefficients b_0..b_K for the supported spectral functions.

    x^-1    : b_k = 1
    x^-1/2  : b_k = (2k-1)!! / (2^k k!)
    x^1/2   : b_0 = 1, b_k = -(2k-3)!! / (2^k k!) for k >= 1
    The overall scale c depends on tau and is applied by apply_series.
    """
    key = (h, order)
    cached = _COEFF_CACHE.get(key)
    if cached is not None:
        return cached
    b = np.ones(order + 1, dtype=np.float64)
    if h == "invsqrt":
        for k in range(1, order + 1):
            b[k] = b[k - 1] * (2 * k - 1) / (2.0 * k)
    elif h == "sqrt":
        for k in range(1, order + 1):
            b[k] = (-0.5) if k == 1 else b[k - 1] * (2 * k - 3) / (2.0 * k)
    elif h != "inv":
        raise ValueError("h must be one of inv, invsqrt, sqrt")
    b.setflags(write=False)
    _COEFF_CACHE[key] = b
    return b


def _series_scale(h, tau):
    if h == "inv":
        return tau
    if h == "invsqrt":
        return np.sqrt(tau)
    return 1.0 / np.sqrt(tau)


class Operator:
    """An explicit symmetric PSD matrix X.

    The matrix (ndarray or any scipy sparse format) is read once as CSR,
    and the operator keeps only its bound, the max absolute row sum of
    that CSR, and the series layer lm = I - X/bound.
    """

    def __init__(self, source):
        x = sp.csr_matrix(source, dtype=np.float64)
        self.dim = x.shape[0]
        self._bound = float(np.asarray(abs(x).sum(axis=1)).max())
        tau = 1.0 / self._bound if self._bound > 0.0 else 0.0  # X = 0: L = I
        self.lm = (sp.identity(self.dim, format="csr")
                   - x.multiply(tau)).tocsr()

    @property
    def bound(self):
        """The bound lm was built at.  It is read-only, since a series at
        any other step would run a stale lm."""
        return self._bound

    def __len__(self):
        return self.dim

    def matvec(self, x):
        x = np.asarray(x)
        return (x - self.lm @ x) * self._bound


def _sumsq(term):
    f = term.ravel()
    if f.size < BLAS_DOT_CUTOFF:
        return f @ f
    return np.einsum("i,i->", f, f)


def _add_term(acc, term, bk, tmp):
    """acc += bk * term; returns the squared norm of term."""
    if bk == 1.0:
        np.add(acc, term, out=acc)
    else:
        np.multiply(term, bk, out=tmp)
        np.add(acc, tmp, out=acc)
    return _sumsq(term)


def eigen_bound(op):
    """Upper bound on the top eigenvalue of a symmetric PSD operator.

    Runs POWER_ITERS deterministic power steps from the all-ones vector and
    inflates the final Rayleigh quotient by POWER_SAFETY, through matvec
    alone.  An Operator carries the cheaper, never-underestimating
    Gershgorin bound instead.
    """
    n = len(op)
    if n == 0:
        return 0.0
    q = np.full((n, 1), 1.0 / np.sqrt(n))
    lam = 0.0
    for _ in range(POWER_ITERS):
        z = op.matvec(q)
        lam = float((q[:, 0] @ z[:, 0]))
        nz = float(np.linalg.norm(z))
        if nz == 0.0 or not np.isfinite(nz):
            break
        q = z / nz
    if not np.isfinite(lam) or lam < 0:
        raise SeriesDivergence("power iteration produced a non-PSD estimate")
    return POWER_SAFETY * lam


def apply_series(op, v, h, cfg):
    """Evaluate c * sum b_k (I - tau X)^k v by iterated matvec.

    tau = 1/op.bound, with op.bound an upper bound on the spectrum of X.  A
    zero operator bound is only consistent with v = 0 for the inverse-like
    functions.

    Only the columns of v that hold a nonzero bit run the series (a 1-D v
    is one column).  Every other column is all +0.0, and so is its output:
    that is what the series computes for it, since b_0 = 1, every term is
    +0.0 and c > 0.  A column holding -0.0 or NaN runs, because the series
    can return -0.0 for -0.0.  Each element of a column that runs is what
    it would be if every column ran, bit for bit, since each term's
    product and sum are per column.  The exact-zero stop is unchanged, as a
    sum of squares is 0 exactly when every square is; the divergence and
    tolerance thresholds read that sum without the skipped zeros, which
    changes only its rounding.  encode and decode set no tolerance.
    """
    v = np.asarray(v, dtype=np.float64)
    b = series_coefficients(h, cfg.order)
    bound = op.bound
    if bound <= 0.0:
        if np.all(v == 0.0):
            return v.copy()
        if h == "sqrt":
            return np.zeros_like(v)
        raise SeriesDivergence("zero operator bound with nonzero input")
    live = v.view(np.uint64).any(axis=0)     # a nonzero bit, so not +0.0
    if live.all():
        return _series(op.lm, v, h, b, bound, cfg)
    out = np.zeros_like(v)
    if live.any():
        out[:, live] = _series(op.lm, v[:, live], h, b, bound, cfg)
    return out


def _series(lmat, v, h, b, bound, cfg):
    # lmat = I - tau X; the loop of apply_series, on the columns it keeps
    tau = 1.0 / bound
    c = _series_scale(h, tau)
    term = v.copy()
    acc = b[0] * term
    scale0 = float(np.sqrt(_sumsq(v)))
    # squared by product: ** 2 raises OverflowError past a ~1e145 norm
    blow = 1e9 * (1.0 + scale0)
    blow2 = blow * blow
    stop2 = None
    if cfg.tolerance is not None:
        stop = cfg.tolerance * (1.0 + scale0)
        stop2 = stop * stop
    tmp = np.empty_like(term)
    for k in range(1, cfg.order + 1):
        term = lmat @ term
        n2 = _add_term(acc, term, b[k], tmp)
        if not (n2 <= blow2):    # also catches nan
            raise SeriesDivergence(
                "series term %d/%d diverged (|term|=%.3e); operator is "
                "not a contraction at step tau=%.3e"
                % (k, cfg.order, np.sqrt(n2), tau))
        if n2 == 0.0:
            break       # exact fixed point; all remaining terms vanish
        if stop2 is not None and n2 <= stop2:
            break
    # in place: term and tmp are still alive here
    return np.multiply(acc, c, out=acc)
