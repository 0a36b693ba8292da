"""Matrix-free normalization demo: series error vs term count.

The transform never factorizes a Gram matrix; inverse and square-root
applications run as truncated series of the iteration operator I - tau*G.
This prints the error against a dense eigendecomposition, computed here,
while the term count doubles.

Two regimes are shown on purpose.  The box-basis Gram is diagonal (its
entries are descendant counts) with a narrow spectrum on this cloud, so the
error contracts by a constant factor per term and doubling K squares it
down until roundoff.  The hat-basis Gram on sparse geometry is
near-singular, so components along its small eigenvalues decay arbitrarily
slowly; the codec does not rely on converged inverses there.
The encoder simulates the decoder and folds each level's series truncation
error into the next level's residual, which is why round trips are still
exact while a bare inverse like the one below converges slowly.
"""

import numpy as np

from rahtp import (ApproxConfig, Operator, apply_basis_scaling, apply_series,
                   build_a_matrix, build_hierarchy, gram_levels,
                   make_synthetic_cloud)

MATFUNS = {"inv": lambda w: 1.0 / w,
           "invsqrt": lambda w: 1.0 / np.sqrt(w),
           "sqrt": np.sqrt}


def matfun_exact(mat, h):
    """h(mat) for a symmetric PSD matrix through numpy's eigh.

    Eigenvalues are clipped at zero, and those at or below n*eps*max count
    as zero and map to zero: the pseudo-inverse for inv and invsqrt.
    """
    w, q = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    cut = len(w) * np.finfo(np.float64).eps * (w.max(initial=0.0) or 1.0)
    live = w > cut
    hw = np.zeros_like(w)
    hw[live] = MATFUNS[h](w[live])
    return (q * hw) @ q.T


def decay(mat, label):
    gram = Operator(mat)
    dense = mat.toarray()
    rng = np.random.default_rng(5)
    v = dense @ rng.normal(size=(dense.shape[0], 3))   # stay on the range of G
    bound = gram.bound      # the series steps at tau = 1/bound
    want = {h: matfun_exact(dense, h) @ v for h in ("inv", "invsqrt", "sqrt")}
    print("\n%s: %d nodes, gershgorin bound %.3f" % (label, len(dense), bound))
    print("  %5s  %10s  %10s  %10s" % ("K", "inv", "invsqrt", "sqrt"))
    for k in (4, 8, 16, 32, 64, 128, 256):
        errs = []
        for h in ("inv", "invsqrt", "sqrt"):
            got = apply_series(gram, v, h, ApproxConfig(order=k))
            errs.append(np.abs(got - want[h]).max())
        print("  %5d  %10.2e  %10.2e  %10.2e" % (k, *errs))


def main():
    cloud = make_synthetic_cloud("sphere", count=400, depth=4, seed=9)
    decay(gram_levels(build_hierarchy(cloud, 1))[1],
          "box-basis Gram (level 1): diagonal, narrow spectrum")
    # the transform's Grams are scaled to unit diagonal
    h = build_hierarchy(cloud, 2)
    a_mats = [build_a_matrix(h.levels[l], h.levels[l + 1], 2)
              for l in range(h.depth)]
    hat = apply_basis_scaling(gram_levels(h, a_mats), a_mats)[1][1]
    decay(hat, "scaled hat-basis Gram (level 1): near-singular on sparse "
          "geometry")


if __name__ == "__main__":
    main()
