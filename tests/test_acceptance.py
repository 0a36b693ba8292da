"""Release acceptance checks, one test per criterion.

Every test prints a single summary line with its measured numbers so a
plain pytest -v run reads as a checklist.  Tolerances and runtime budgets
are part of the contract and are asserted, not logged.

Known red: the hat-basis Parseval check (criterion 3, order 2) fails by
design of the measurement, not by accident; see its docstring.
"""

import os
import time

import numpy as np
import pytest

import rahtp
from rahtp.codec import decode, encode, rlgr_decode, rlgr_encode
from rahtp.evalcli import compaction_curve, make_synthetic_cloud
from rahtp.kernels import build_a_matrix, gram_levels
from rahtp.sparse_ops import SplitError, build_split
from rahtp.spectral import ApproxConfig, Operator, apply_series
from rahtp.transform import (TransformConfig, TransformPlan, analyze,
                             synthesize)

import _oracle as oracle
from _helpers import pair_cloud


def _sweep_clouds(seed=42, count=20):
    """The shared population: random voxel clouds, <= 512 points, L <= 5."""
    rng = np.random.default_rng(seed)
    clouds = []
    for _ in range(count):
        depth = int(rng.integers(2, 6))
        n = int(rng.integers(40, 513))
        pos = rng.integers(0, 2 ** depth, (n, 3)).astype(np.int64)
        attrs = rng.uniform(0.0, 255.0, (n, 3))
        clouds.append(rahtp.voxelize(
            rahtp.PointCloud(positions=pos, attributes=attrs,
                             depth=depth, channels=3), depth))
    return clouds


def test_criterion1_perfect_reconstruction():
    """Round trip <= 1e-6 on 20 clouds, both bases, both residual modes,
    scaling on, series order 64, within 30 s total."""
    t0 = time.perf_counter()
    series = ApproxConfig(order=64)
    worst = 0.0
    for ci, cl in enumerate(_sweep_clouds()):
        for order in (1, 2):
            h = rahtp.build_hierarchy(cl, order)
            plan = None
            for mode in ("critical", "overcomplete"):
                cfg = TransformConfig(order=order, residual_mode=mode,
                                      approx=series)
                if plan is None:
                    plan = TransformPlan(h, cfg)
                co = analyze(h, cl.attributes, cfg, plan=plan)
                back = synthesize(h, co, cfg, plan=plan)
                err = np.abs(back - cl.attributes).max()
                worst = max(worst, err)
                assert err <= 1e-6, (ci, order, mode, err)
    elapsed = time.perf_counter() - t0
    print("criterion 1: worst round-trip err %.3e, %.1f s" % (worst, elapsed))
    assert elapsed <= 30.0


def test_criterion2_projection_equivalence():
    """Cascade-computed level projections match dense normal-equation
    solutions to 1e-6 relative error on a 200-point cloud, within 10 s.

    Compared unscaled: on rank-deficient levels both sides then agree on
    the minimum-norm representative, whereas the diagonally preconditioned
    cascade would minimize a different weighted norm in the null directions.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    pos = rng.integers(0, 8, (200, 3)).astype(np.int64)
    cl = rahtp.voxelize(rahtp.PointCloud(
        positions=pos, attributes=rng.uniform(0, 255, (200, 3)),
        depth=3, channels=3), 3)
    cfg_series = ApproxConfig(order=200000, tolerance=1e-14)
    worst = 0.0
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        grams = gram_levels(h)
        f_dual = cl.attributes.astype(np.float64)
        duals = [f_dual]
        for lev in range(h.depth - 1, -1, -1):
            a = build_a_matrix(h.levels[lev], h.levels[lev + 1], order)
            duals.insert(0, a @ duals[0])
        for lev in range(h.depth + 1):
            f_casc = apply_series(Operator(grams[lev]), duals[lev], "inv",
                                  cfg_series)
            f_ref, _ = oracle.project_exact(h, lev, cl.attributes)
            rel = (np.abs(f_casc - f_ref).max()
                   / max(np.abs(f_ref).max(), 1e-12))
            worst = max(worst, rel)
            assert rel <= 1e-6, (order, lev, rel)
    elapsed = time.perf_counter() - t0
    print("criterion 2: worst relative err %.3e, %.2f s" % (worst, elapsed))
    assert elapsed <= 10.0


def _parseval_error(order):
    """Worst relative coefficient-vs-signal energy mismatch over the sweep,
    encoding with requested critical mode in the production configuration
    (order 2 codes overcomplete planes, which also carry exactly the
    residual function's energy when the operators are exact)."""
    series = ApproxConfig(order=64)
    worst = 0.0
    for cl in _sweep_clouds():
        h = rahtp.build_hierarchy(cl, order)
        cfg = TransformConfig(order=order, residual_mode="critical",
                              approx=series)
        co = analyze(h, cl.attributes, cfg)
        signal = float((cl.attributes ** 2).sum())
        coeff = float((co.lowpass ** 2).sum())
        coeff += sum(float((p ** 2).sum()) for p in co.highpass)
        worst = max(worst, abs(coeff - signal) / signal)
    return worst


def test_criterion3_parseval_box_basis():
    """Coefficient energy equals signal energy to 1e-4 for the box basis
    (order 1), where every normalization operator is exact."""
    worst = _parseval_error(1)
    print("criterion 3 (order 1): worst energy err %.3e" % worst)
    assert worst <= 1e-4


def test_criterion3_parseval_box_critical_planes():
    """Order-1 critical planes are orthonormal coordinates: every level
    codes 'c', with N_child - N_parent rows, and coefficient energy equals
    signal energy to 1e-10."""
    worst = 0.0
    for cl in _sweep_clouds():
        h = rahtp.build_hierarchy(cl, 1)
        co = analyze(h, cl.attributes,
                     TransformConfig(order=1, residual_mode="critical"))
        assert co.modes == "c" * h.depth
        assert co.total_coeffs() == len(cl.positions)
        signal = float((cl.attributes ** 2).sum())
        coeff = sum(float((p ** 2).sum())
                    for p in [co.lowpass, *co.highpass])
        worst = max(worst, abs(coeff - signal) / signal)
    print("criterion 3 (order 1, critical): worst energy err %.3e" % worst)
    assert worst <= 1e-10


def test_criterion3_parseval_hat_basis():
    """Known red.  Hat-basis Grams on sparse geometry are close to
    singular, with live spectrum trailing continuously toward zero, so a
    truncated series regularizes the level projections rather than
    inverting them.  At the pinned order 64 the decoder-replica state
    misses the exact projections at the percent level and the energy
    telescope picks up cross terms of that size (measured ~2e-2 against
    the 1e-4 bound).  This is a property of polynomial normalization under
    effectively unbounded condition numbers, not of this implementation:
    run to convergence (order 2e5, tolerance 1e-14) clouds with full-rank
    level Grams conserve energy to 1e-14, while deeply rank-deficient ones
    still sit near 5e-4.  Round trips are unaffected; the closed loop
    folds the deviation into the next level's residual.
    """
    worst = _parseval_error(2)
    print("criterion 3 (order 2): worst energy err %.3e" % worst)
    assert worst <= 1e-4


def test_criterion4_orthogonality_identities():
    """Null-space and cross-basis orthogonality through the dense oracle:
    |Ztilde A^T|_max <= 1e-10 and |Phi^T Psi|_max <= 1e-10."""
    rng = np.random.default_rng(11)
    worst_za = worst_pp = -1.0
    for order in (1, 2):
        pos = rng.integers(0, 8, (60, 3)).astype(np.int64)
        cl = rahtp.voxelize(rahtp.PointCloud(
            positions=pos, attributes=rng.uniform(0, 1, (60, 1)),
            depth=3, channels=1), 3)
        h = rahtp.build_hierarchy(cl, order)
        for lev in range(h.depth):
            a = oracle.dense_a(h.levels[lev], h.levels[lev + 1], order)
            try:
                split = build_split(h.levels[lev], h.levels[lev + 1], order)
                z = oracle.ztilde_exact(a, split.a_indices, split.b_indices)
            except (SplitError, np.linalg.LinAlgError):
                continue
            worst_za = max(worst_za, np.abs(z @ a.T).max())
            gc = oracle.gram_exact(h, lev + 1)
            if np.linalg.matrix_rank(gc) == gc.shape[0]:
                # high-pass functions combine the dual basis, Psi = Phi G^-1 Z^T
                pp = np.abs(a @ gc @ oracle.matfun_exact(gc, "inv") @ z.T).max()
                worst_pp = max(worst_pp, pp)
    print("criterion 4: |Z A^T| %.3e, |Phi^T Psi| %.3e" % (worst_za, worst_pp))
    assert 0 <= worst_za <= 1e-10
    assert 0 <= worst_pp <= 1e-10


def test_criterion5_series_convergence():
    """Inverse-series error contracts by >= 2x per order doubling (8->16->32)
    on level Grams of a 200-point cloud, and the diagonal example is exact."""
    out = apply_series(Operator(np.diag([2.0, 4.0])), np.ones((2, 1)),
                       "inv", ApproxConfig(order=3))
    assert out[:, 0].tolist() == [0.46875, 0.25]

    rng = np.random.default_rng(5)
    pos = rng.integers(0, 8, (200, 3)).astype(np.int64)
    cl = rahtp.voxelize(rahtp.PointCloud(
        positions=pos, attributes=rng.uniform(0, 255, (200, 3)),
        depth=3, channels=3), 3)
    h = rahtp.build_hierarchy(cl, 1)
    factors = []
    for g in gram_levels(h)[:-1]:
        dense = g.toarray()
        w = dense @ rng.standard_normal((dense.shape[0], 1))
        ref = oracle.matfun_exact(dense, "inv") @ w
        op = Operator(g)
        errs = [np.abs(apply_series(op, w, "inv", ApproxConfig(order=k))
                       - ref).max()
                for k in (8, 16, 32)]
        if errs[0] < 1e-12:
            continue
        assert errs[1] <= errs[0] / 2.0
        assert errs[2] <= errs[1] / 2.0
        factors.append((errs[0] / errs[1], errs[1] / errs[2]))
    assert factors, "every level converged before order 8"
    print("criterion 5: contraction factors per doubling %s"
          % ["%.1f/%.1f" % f for f in factors])


def _butterfly_box(pos, attrs, depth):
    """Independent per-axis butterfly with weight bookkeeping.  Returns the
    DC row, per-level per-cell detail energies and per-level totals."""
    nodes = pos.astype(np.int64).copy()
    w = np.ones(len(nodes))
    feats = attrs.astype(np.float64).copy()
    energy = {l: {} for l in range(1, depth + 1)}
    total = {l: 0.0 for l in range(1, depth + 1)}
    for lev in range(depth, 0, -1):
        cells = [tuple(n >> 1) for n in nodes]
        for axis in (2, 1, 0):
            key = [tuple(np.delete(nodes[i], axis)) + (nodes[i, axis] >> 1,)
                   for i in range(len(nodes))]
            order = sorted(range(len(nodes)), key=lambda i: key[i])
            nxt_nodes, nxt_w, nxt_f, nxt_cells = [], [], [], []
            i = 0
            while i < len(order):
                a = order[i]
                na = nodes[a].copy()
                na[axis] >>= 1
                if i + 1 < len(order) and key[order[i]] == key[order[i + 1]]:
                    b = order[i + 1]
                    wa, wb = w[a], w[b]
                    s = np.sqrt(wa + wb)
                    lo = (np.sqrt(wa) * feats[a] + np.sqrt(wb) * feats[b]) / s
                    hi = (-np.sqrt(wb) * feats[a] + np.sqrt(wa) * feats[b]) / s
                    e = float((hi ** 2).sum())
                    energy[lev][cells[a]] = energy[lev].get(cells[a], 0.0) + e
                    total[lev] += e
                    nxt_nodes.append(na)
                    nxt_w.append(wa + wb)
                    nxt_f.append(lo)
                    nxt_cells.append(cells[a])
                    i += 2
                else:
                    nxt_nodes.append(na)
                    nxt_w.append(w[a])
                    nxt_f.append(feats[a])
                    nxt_cells.append(cells[a])
                    i += 1
            nodes = np.array(nxt_nodes)
            w = np.array(nxt_w)
            feats = np.array(nxt_f)
            cells = nxt_cells
    assert len(feats) == 1
    return feats[0], energy, total


def test_criterion6_classical_equivalence():
    """Two-point transform gives ((y1+y2)/sqrt2, (y2-y1)/sqrt2), detail sign
    fixed as (second - first) in Morton order; on random clouds the box
    transform matches an independent butterfly to 1e-8 in the DC row and in
    every per-cell detail energy."""
    cl = pair_cloud(3.0, 11.0)
    h = rahtp.build_hierarchy(cl, 1)
    cfg = TransformConfig(order=1, residual_mode="critical",
                          approx=ApproxConfig(order=64))
    co = analyze(h, cl.attributes, cfg)
    assert co.modes == "c"
    assert abs(co.lowpass[0, 0] - 14.0 / np.sqrt(2)) < 1e-10
    assert abs(co.highpass[0][0, 0] - 8.0 / np.sqrt(2)) < 1e-10

    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(4):
        n = int(rng.integers(30, 513))
        depth = int(rng.integers(2, 5))
        pos = rng.integers(0, 2 ** depth, (n, 3)).astype(np.int64)
        cl = rahtp.voxelize(rahtp.PointCloud(
            positions=pos, attributes=rng.uniform(0, 255, (n, 3)),
            depth=depth, channels=3), depth)
        dc_ref, energy_ref, total_ref = _butterfly_box(
            cl.positions, cl.attributes, depth)
        h = rahtp.build_hierarchy(cl, 1)
        cfg = TransformConfig(order=1, approx=ApproxConfig(order=64))
        co = analyze(h, cl.attributes, cfg)
        worst = max(worst, np.abs(co.lowpass[0] - dc_ref).max())
        for lev in range(depth):
            plane = co.highpass[lev]
            tot = float((plane ** 2).sum())
            worst = max(worst, abs(tot - total_ref[lev + 1])
                        / max(total_ref[lev + 1], 1.0))
            # a parent with n children owns the plane's next n - 1 rows
            parents = h.levels[lev]
            n = np.bincount(parents.link_parent, minlength=len(parents))
            owner = np.repeat(np.arange(len(parents)), n - 1)
            cells = {}
            for i, p in enumerate(owner):
                cell = tuple(parents.nodes[p])
                cells[cell] = cells.get(cell, 0.0) + float((plane[i] ** 2).sum())
            ref = energy_ref[lev + 1]
            for cell in set(cells) | set(ref):
                diff = abs(cells.get(cell, 0.0) - ref.get(cell, 0.0))
                worst = max(worst, diff / max(ref.get(cell, 0.0), 1.0))
        assert worst <= 1e-8, worst
    print("criterion 6: worst butterfly mismatch %.3e" % worst)


def test_criterion7_entropy_coder_lossless():
    """One million two-sided geometric integers spanning scales 0.1-100
    round trip losslessly within 5 s."""
    rng = np.random.default_rng(123)
    parts = [np.round(rng.laplace(0.0, s, 250_000))
             for s in (0.1, 1.0, 10.0, 100.0)]
    vals = np.concatenate(parts).astype(np.int64)
    t0 = time.perf_counter()
    blob = rlgr_encode(vals)
    back = rlgr_decode(blob, len(vals))
    elapsed = time.perf_counter() - t0
    assert np.array_equal(vals, back)
    print("criterion 7: %d bytes for 1e6 symbols, %.2f s"
          % (len(blob), elapsed))
    assert elapsed <= 5.0


def test_criterion8_energy_compaction():
    """On the built-in smooth synthetic cloud (1e4 points, depth 6) the hat
    basis reaches lower distortion than the box basis at every matched
    mid-level coefficient count, by >= 1 dB somewhere."""
    cl = make_synthetic_cloud("sphere", count=10000, depth=6, seed=0)
    c1 = compaction_curve(cl, 1, 1024)
    c2 = compaction_curve(cl, 2, 1024)
    log_n1 = np.log([n for n, _ in c1])
    db1 = np.array([d for _, d in c1])
    gaps = []
    for n2, db2 in c2[1:-1]:
        if n2 > c1[-2][0]:
            continue            # beyond the box basis' lossy range
        db1_at = float(np.interp(np.log(n2), log_n1, db1))
        gaps.append(db1_at - db2)
        assert db2 <= db1_at + 1e-9, (n2, db2, db1_at)
    assert gaps and max(gaps) >= 1.0
    print("criterion 8: hat-basis gain %.1f..%.1f dB over %d matched counts"
          % (min(gaps), max(gaps), len(gaps)))


def test_criterion8_rate_distortion_optional_dataset():
    """Directional rate-distortion check against full-body scan clouds;
    runs only when such a dataset is available locally."""
    root = os.environ.get("FULLBODY_PLY_DIR", "")
    candidates = []
    if root and os.path.isdir(root):
        for name in sorted(os.listdir(root)):
            if name.lower().endswith(".ply"):
                candidates.append(os.path.join(root, name))
    if not candidates:
        pytest.skip("no full-body dataset directory; set FULLBODY_PLY_DIR")
    cl = rahtp.voxelize(rahtp.load_ply(candidates[0]), 9)
    curves = {}
    for order in (1, 2):
        pts = []
        for step in (16.0, 8.0, 4.0, 2.0, 1.0):
            cfg = TransformConfig(order=order, residual_mode="overcomplete",
                                  approx=ApproxConfig(order=64))
            blob, stats = encode(cl, cfg, steps=[step] * 3, colorspace="bt709")
            recon, _ = decode(blob, cl)
            mse = float(np.mean((recon - cl.attributes) ** 2))
            bpp = stats["payload_bytes"] * 8.0 / len(cl.positions)
            pts.append((bpp, 10 * np.log10(255 ** 2 / mse)))
        curves[order] = sorted(pts)
    lo = max(min(b for b, _ in curves[o]) for o in (1, 2))
    hi = min(max(b for b, _ in curves[o]) for o in (1, 2))
    lo, hi = max(lo, 0.1), min(hi, 1.0)
    assert lo < hi, "curves do not overlap the 0.1-1.0 bpp window"
    for bpp in np.linspace(lo, hi, 3):
        p1 = np.interp(bpp, *zip(*curves[1]))
        p2 = np.interp(bpp, *zip(*curves[2]))
        assert p2 >= p1, (bpp, p1, p2)


def test_criterion9_bitstream_determinism():
    """Encoding twice is byte-identical and a decoder that rebuilds the
    hierarchy from separately constructed geometry reproduces the output."""
    rng = np.random.default_rng(77)
    pos = rng.integers(0, 16, (300, 3)).astype(np.int64)
    attrs = rng.uniform(0, 255, (300, 3))
    cl = rahtp.voxelize(rahtp.PointCloud(positions=pos, attributes=attrs,
                                         depth=4, channels=3), 4)
    cfg = TransformConfig(order=2, residual_mode="critical",
                          approx=ApproxConfig(order=32))
    b1, _ = encode(cl, cfg, steps=[0.5, 0.5, 0.5])
    b2, _ = encode(cl, cfg, steps=[0.5, 0.5, 0.5])
    assert b1 == b2
    out1, _ = decode(b1, cl)
    # a decoder elsewhere sees the same voxels in arbitrary order and with
    # no attributes; reconstruction must be identical bit for bit
    perm = rng.permutation(len(cl.positions))
    other = rahtp.voxelize(rahtp.PointCloud(
        positions=cl.positions[perm],
        attributes=np.zeros_like(cl.attributes),
        depth=4, channels=3), 4)
    out2, _ = decode(b1, other)
    assert np.array_equal(out1, out2)
    print("criterion 9: %d-byte stream stable across runs and rebuilds"
          % len(b1))
