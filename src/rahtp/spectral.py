"""Matrix-free application of h(X)v for h in {x^-1, x^-1/2, x^1/2}.

Everything is a truncated series around 1/tau:

    h(X) v  ~=  c * sum_{k=0..K} b_k L^k v,   L = I - tau X,

so one matvec per term and no eigen-decomposition anywhere.  tau is
1/lambda_max for an upper bound lambda_max on the spectrum of X; then the
iteration matrix L has spectrum in [0, 1) on the range of X and the partial
sums converge geometrically at rate 1 - tau*lambda_min.

Every X is an Operator: an explicit matrix (Grams, the lifting product M)
with a cached iteration matrix and a Gershgorin bound, or a matrix-free
callable (the critical-mode W composite) bounded by power iteration.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# below this row count, sparse operators are applied as dense arrays
# (measured crossover vs csr dispatch overhead for (N,3) right-hand sides)
DENSE_CUTOFF = 256

# power iteration for matrix-free bounds: fixed step count from a fixed
# start vector (so encoder and decoder agree) and the inflation of its
# final Rayleigh quotient
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
    """A symmetric PSD operator X: an explicit matrix or a callable.

    An explicit matrix (ndarray or scipy sparse) is kept in the form it was
    given, and gershgorin sums the rows of that form.  A sparse matrix of at
    most DENSE_CUTOFF rows is applied as a dense array: BLAS beats per-call
    sparse dispatch on small levels, and the cutoff depends only on the row
    count so encoder and decoder round identically.  A callable fn(x) of a
    given dimension is matrix-free: it has no iteration matrix and only
    power iteration can bound it.
    """

    def __init__(self, source, dim=None):
        self._iter = None
        if callable(source):
            self.mat = None
            self.dim = dim
            self._fn = source
            return
        if not sp.issparse(source):
            source = np.asarray(source, dtype=np.float64)
        self.mat = source
        self.dim = source.shape[0]
        small = sp.issparse(source) and self.dim <= DENSE_CUTOFF
        self._applied = source.toarray() if small else source

    def __len__(self):
        return self.dim

    def matvec(self, x):
        if self.mat is None:
            return self._fn(x)
        return self._applied @ np.asarray(x)

    def iteration_matrix(self, tau):
        """Cached L = I - tau*X in the applied form; None for a callable.

        Lets the series run one matrix product per term.
        """
        if self.mat is None:
            return None
        if self._iter is None or self._iter[0] != tau:
            mat = self._applied
            if isinstance(mat, np.ndarray):
                lm = np.eye(self.dim) - tau * mat
            else:
                lm = (sp.identity(self.dim, format="csr")
                      - mat.multiply(tau)).tocsr()
            self._iter = (tau, lm)
        return self._iter[1]

    def gershgorin(self):
        """Max absolute row sum; an eigenvalue upper bound for the operator."""
        if self.mat is None:
            raise ValueError("gershgorin bound needs explicit entries; "
                             "use eigen_bound for matrix-free composites")
        return float(np.asarray(abs(self.mat).sum(axis=1)).max())


def eigen_bound(op):
    """Upper bound on the top eigenvalue of a symmetric PSD operator.

    Runs POWER_ITERS deterministic power steps from the all-ones vector and
    inflates the final Rayleigh quotient by POWER_SAFETY.  Works through
    matvec alone, so it also bounds matrix-free composites; an explicit
    matrix has the cheaper, never-underestimating Operator.gershgorin.
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


def apply_series(op, v, h, cfg, lam_max):
    """Evaluate c * sum b_k (I - tau X)^k v by iterated matvec.

    tau = 1/lam_max, with lam_max an upper bound on the spectrum of X.  A
    zero operator bound is only consistent with v = 0 for the inverse-like
    functions.
    """
    v = np.asarray(v, dtype=np.float64)
    if lam_max <= 0.0:
        if np.all(v == 0.0):
            return v.copy()
        if h == "sqrt":
            return np.zeros_like(v)
        raise SeriesDivergence("zero operator bound with nonzero input")
    tau = 1.0 / lam_max
    b = series_coefficients(h, cfg.order)
    c = _series_scale(h, tau)
    term = v.copy()
    acc = b[0] * term
    flat0 = v.ravel()
    scale0 = float(np.sqrt(flat0 @ flat0)) if flat0.size else 0.0
    # squared by product: ** 2 raises OverflowError past a ~1e145 norm
    blow = 1e9 * (1.0 + scale0)
    blow2 = blow * blow
    stop2 = None
    if cfg.tolerance is not None:
        stop = cfg.tolerance * (1.0 + scale0)
        stop2 = stop * stop
    # explicit operators expose L = I - tau X directly; one matmul per
    # term there instead of matvec + scale + subtract
    lmat = op.iteration_matrix(tau)
    dense_l = isinstance(lmat, np.ndarray)
    nxt = np.empty_like(term) if dense_l else None
    tmp = np.empty_like(term)
    mv = op.matvec
    for k in range(1, cfg.order + 1):
        if dense_l:
            np.dot(lmat, term, out=nxt)
            term, nxt = nxt, term
        elif lmat is not None:
            term = lmat @ term
        else:
            z = np.asarray(mv(term), dtype=np.float64)
            if z is term:        # an identity-like op may hand back its input
                z = term.copy()
            np.multiply(z, tau, out=z)
            term = np.subtract(term, z, out=z)   # (I - tau X) term, in place
        if b[k] == 1.0:
            np.add(acc, term, out=acc)
        else:
            np.multiply(term, b[k], out=tmp)
            np.add(acc, tmp, out=acc)
        f = term.ravel()
        n2 = f @ f
        if not (n2 <= blow2):    # also catches nan
            raise SeriesDivergence(
                "series term %d/%d diverged (|term|=%.3e); operator is not a "
                "contraction at step tau=%.3e" % (k, cfg.order, np.sqrt(n2), tau))
        if n2 == 0.0:
            break       # exact fixed point; all remaining terms vanish
        if stop2 is not None and n2 <= stop2:
            break
    return c * acc
