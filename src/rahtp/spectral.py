"""Matrix-free application of h(X)v for h in {x^-1, x^-1/2, x^1/2}.

Everything is a truncated series around 1/tau:

    h(X) v  ~=  c * sum_{k=0..K} b_k L^k v,   L = I - tau X,

so one matvec per term and no eigen-decomposition anywhere.  tau is
1/lambda_max for an upper bound lambda_max on the spectrum of X; then the
iteration matrix L has spectrum in [0, 1) on the range of X and the partial
sums converge geometrically at rate 1 - tau*lambda_min.

Every X is an Operator, and the operator carries its own bound.  An
explicit matrix (the scaled Grams, the lifting product M) keeps only its
fixed Gershgorin bound and its series layer L = I - X/bound in CSR, both
built once.  A matrix-free callable (the critical-mode W composite) is
given the power-iteration bound of eigen_bound.  apply_series reads the
step from op.bound.

A series term is one layer of the paper's feedforward network, and on an
explicit L it is one CSR product.  Every output row of that product
is its own dot product, so when the process may run on two or more CPUs
and L holds at least SPLIT_NNZ entries, the rows are cut into two blocks
of about equal nnz: the caller computes the first block and a helper
thread the second, each writing its rows of the next term and of the
running sum.  Every element goes through the same floating-point
operations as in one block, so the result is bit-identical.  Each split
series starts its own helper and joins it before it returns, so no
thread outlives the series.
"""

import os
import queue
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

# an explicit iteration matrix with at least this many stored entries runs
# each series term as two row blocks on two threads (see the module
# docstring).  It never changes the bytes, only the speed: below it the
# hand-off to the helper thread costs more than the second core saves
# (measured sweep in CHANGES.md)
SPLIT_NNZ = 65536

# sums of squares over at least this many elements avoid BLAS: OpenBLAS
# threads ddot above 10000 elements, and its spinning helper thread would
# take the core that the second row block runs on
BLAS_DOT_CUTOFF = 8192

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

    An explicit matrix (ndarray or any scipy sparse format) is read once as
    CSR, and the operator keeps only its bound, the max absolute row sum of
    that CSR, and the series layer lm = I - X/bound, with cut, the row where
    a second block starts (None for one block).  That bound is fixed.  A
    callable fn(x) of a given dimension is matrix-free: it has no lm and no
    bound until one is assigned, usually eigen_bound(op).
    """

    def __init__(self, source, dim=None):
        self.lm = self.cut = None
        if callable(source):
            self.dim = dim
            self._fn = source
            self.bound = None
            return
        x = sp.csr_matrix(source, dtype=np.float64)
        self.dim = x.shape[0]
        self.bound = self._lm_bound = float(
            np.asarray(abs(x).sum(axis=1)).max())
        tau = 1.0 / self.bound if self.bound > 0.0 else 0.0   # X = 0: L = I
        self.lm = (sp.identity(self.dim, format="csr")
                   - x.multiply(tau)).tocsr()
        if self.lm.nnz >= SPLIT_NNZ and _cpu_count() >= 2:
            # first row whose block start reaches half the entries
            cut = int(np.searchsorted(self.lm.indptr, self.lm.nnz // 2))
            if 0 < cut < self.dim:
                self.cut = cut

    def __len__(self):
        return self.dim

    def matvec(self, x):
        if self.lm is None:
            return self._fn(x)
        x = np.asarray(x)
        return (x - self.lm @ x) * self._lm_bound


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # not on every platform
        return os.cpu_count() or 1


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


def _rows_term(lm, lo, hi, term, nxt, acc, tmp, bk, clear):
    """Rows lo:hi of the next term L @ term, written into nxt and added to
    acc; returns their squared norm.  clear when nxt is not all zeros.

    Calls the CSR kernel that `lm @ term` dispatches to for this shape, so
    each row sums the same products in the same order.
    """
    out = nxt[lo:hi]
    if clear:
        out.fill(0.0)
    ptr = lm.indptr[lo:hi + 1]
    if term.ndim == 1 or term.shape[1] == 1:
        _sparsetools.csr_matvec(hi - lo, lm.shape[1], ptr, lm.indices,
                                lm.data, term.ravel(), out.ravel())
    else:
        _sparsetools.csr_matvecs(hi - lo, lm.shape[1], term.shape[1], ptr,
                                 lm.indices, lm.data, term.ravel(),
                                 out.ravel())
    return _add_term(acc[lo:hi], out, bk, tmp[lo:hi])


def _second_blocks(jobs, done):
    """Helper thread of one split series: _rows_term on each job from jobs,
    its result or exception onto done, until the job None.  A bare queue
    pair hands a job over in about half the time of a ThreadPoolExecutor,
    which matters once per term."""
    while (args := jobs.get()) is not None:
        try:
            done.put(_rows_term(*args))
        except BaseException as exc:    # re-raised in the caller
            done.put(exc)


def eigen_bound(op):
    """Upper bound on the top eigenvalue of a symmetric PSD operator.

    Runs POWER_ITERS deterministic power steps from the all-ones vector and
    inflates the final Rayleigh quotient by POWER_SAFETY.  Works through
    matvec alone, so it also bounds matrix-free composites; an explicit
    matrix carries the cheaper, never-underestimating Gershgorin bound.
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
    """
    v = np.asarray(v, dtype=np.float64)
    bound = op.bound
    if bound is None:
        raise ValueError("matrix-free operator has no bound; "
                         "assign op.bound = eigen_bound(op) first")
    # by identity, so any reassignment counts, also of a NaN bound
    if op.lm is not None and bound is not op._lm_bound:
        raise ValueError("an explicit operator's bound is fixed: its L was "
                         "built at %r, and op.bound was reassigned to %r"
                         % (op._lm_bound, bound))
    if bound <= 0.0:
        if np.all(v == 0.0):
            return v.copy()
        if h == "sqrt":
            return np.zeros_like(v)
        raise SeriesDivergence("zero operator bound with nonzero input")
    tau = 1.0 / bound
    b = series_coefficients(h, cfg.order)
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
    # an explicit operator holds L = I - tau X in CSR: one row-block
    # product per term there, instead of the callable's matvec + scale +
    # subtract
    lmat, cut = op.lm, op.cut
    n = len(term)
    if cut is not None:
        jobs, done = queue.SimpleQueue(), queue.SimpleQueue()
        helper = threading.Thread(target=_second_blocks, args=(jobs, done),
                                  name="rahtp-series", daemon=True)
        helper.start()
    # zeroed pages stay unmapped until written, so the first product of an
    # all-zero L (X exactly the identity) adds no resident memory
    nxt = np.zeros_like(term) if lmat is not None else None
    tmp = np.empty_like(term)
    mv = op.matvec
    try:
        for k in range(1, cfg.order + 1):
            if lmat is not None:
                args = (term, nxt, acc, tmp, b[k], k > 1)
                if cut is None:
                    n2 = _rows_term(lmat, 0, n, *args)
                else:
                    jobs.put((lmat, cut, n) + args)
                    n2 = _rows_term(lmat, 0, cut, *args)
                    second = done.get()
                    if isinstance(second, BaseException):
                        raise second
                    n2 += second
                term, nxt = nxt, term
            else:
                z = np.asarray(mv(term), dtype=np.float64)
                if z is term:    # an identity-like op may hand back its input
                    z = term.copy()
                np.multiply(z, tau, out=z)
                term = np.subtract(term, z, out=z)   # (I - tau X) term
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
    finally:
        if cut is not None:
            jobs.put(None)
            helper.join()
    # in place: term, nxt and tmp are still alive here
    return np.multiply(acc, c, out=acc)
