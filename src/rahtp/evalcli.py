"""Command-line harness: file encode/decode, RD sweeps, compaction tables.

Subcommands: encode, decode, rd, compaction, selftest.  Exit codes: 0 ok,
1 usage error, 2 runtime error (bad input, corrupt stream, failed selftest).
"""

import argparse
import csv
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codec import decode, encode, parse_header, rgb_to_bt709
from .geometry import PointCloud, load_ply, save_ply, voxelize
from .transform import (TransformConfig, analyze, synthesize,
                        truncate_to_level, TransformPlan)
from .geometry import build_hierarchy
from . import oracle
from .codec import rlgr_decode, rlgr_encode
from .kernels import gram_levels
from .spectral import ApproxConfig, apply_series

PSNR_PEAK = 255.0


@dataclass
class Metrics:
    mse: tuple            # per channel
    psnr: tuple           # per channel, dB
    psnr_combined: float  # dB over the mean channel MSE
    bpp: float            # payload bits per input voxel
    coeff_count: int


def _psnr(mse):
    if mse <= 0.0:
        return float("inf")
    return 10.0 * np.log10(PSNR_PEAK * PSNR_PEAK / mse)


def compute_metrics(reference, reconstructed, payload_bytes, num_points,
                    coeff_count):
    ref = np.atleast_2d(np.asarray(reference, dtype=np.float64))
    rec = np.atleast_2d(np.asarray(reconstructed, dtype=np.float64))
    mse = tuple(float(np.mean((ref[:, c] - rec[:, c]) ** 2))
                for c in range(ref.shape[1]))
    return Metrics(mse=mse,
                   psnr=tuple(_psnr(m) for m in mse),
                   psnr_combined=_psnr(float(np.mean(mse))),
                   bpp=payload_bytes * 8.0 / num_points,
                   coeff_count=coeff_count)


def make_synthetic_cloud(kind="sphere", count=10000, depth=6, seed=0,
                         noise=0.0):
    """Points on a smooth 2D manifold carrying a smooth polynomial field.

    This is the regime where the smoother basis should win: attributes are
    low-order trivariate polynomials of the normalized position, optionally
    plus white noise, clipped to the 8-bit range.
    """
    rng = np.random.default_rng(seed)
    if kind == "sphere":
        v = rng.normal(size=(count, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    elif kind == "torus":
        theta = rng.uniform(0.0, 2.0 * np.pi, count)
        phi = rng.uniform(0.0, 2.0 * np.pi, count)
        big_r, small_r = 1.0, 0.45
        v = np.stack([(big_r + small_r * np.cos(theta)) * np.cos(phi),
                      (big_r + small_r * np.cos(theta)) * np.sin(phi),
                      small_r * np.sin(theta)], axis=1) / (big_r + small_r)
    else:
        raise ValueError("kind must be sphere or torus")
    size = 2 ** depth
    grid = np.floor((0.5 + 0.45 * v) * size).astype(np.int64)
    np.clip(grid, 0, size - 1, out=grid)
    t = (grid + 0.5) / size
    y = 60.0 + 150.0 * t[:, 0] * t[:, 0] + 40.0 * t[:, 1] - 60.0 * t[:, 0] * t[:, 2]
    u = 90.0 + 80.0 * t[:, 1] * t[:, 2] - 50.0 * t[:, 0]
    w = 100.0 + 70.0 * (t.sum(axis=1) - 1.5) ** 2 - 40.0 * t[:, 2]
    attrs = np.stack([y, u, w], axis=1)
    if noise > 0.0:
        attrs = attrs + noise * rng.normal(size=attrs.shape)
    attrs = np.clip(attrs, 0.0, 255.0)
    raw = PointCloud(positions=grid.astype(np.float64), attributes=attrs,
                     depth=0, channels=3)
    return voxelize(raw, depth)


def builtin_clouds():
    """The three clouds used by selftest."""
    single = PointCloud(positions=np.array([[0, 0, 0]], dtype=np.int64),
                        attributes=np.array([[128.0, 64.0, 32.0]]),
                        depth=1, channels=3)
    pair = PointCloud(positions=np.array([[0, 0, 0], [1, 1, 1]], dtype=np.int64),
                      attributes=np.array([[100.0, 50.0, 25.0],
                                           [200.0, 150.0, 75.0]]),
                      depth=1, channels=3)
    sphere = make_synthetic_cloud("sphere", count=200, depth=3, seed=7)
    return {"single": single, "pair": pair, "sphere200": sphere}


def _infer_depth(positions):
    pos = np.asarray(positions)
    if np.all(pos == np.floor(pos)) and pos.min() >= 0:
        return max(1, int(pos.max()).bit_length())
    raise ValueError("cannot infer depth for non-integer coordinates; "
                     "pass --depth")


def _load_voxelized(path, depth):
    cloud = load_ply(path)
    if depth is None or depth == 0:
        depth = _infer_depth(cloud.positions)
    return voxelize(cloud, depth)


def _config(order, mode, k, tolerance=None):
    return TransformConfig(order=order, residual_mode=mode,
                           approx=ApproxConfig(order=k, tolerance=tolerance))


def _fallback_levels(requested, actual):
    if requested != "critical":
        return []
    return [l for l, m in enumerate(actual) if m == "o"]


def cmd_encode(args):
    cloud = _load_voxelized(args.input, args.depth)
    config = _config(args.order, args.mode, args.taylor_k)
    t0 = time.perf_counter()
    blob, stats = encode(cloud, config, args.step, colorspace=args.colorspace)
    dt = time.perf_counter() - t0
    with open(args.output, "wb") as fh:
        fh.write(blob)
    fb = _fallback_levels(args.mode, stats["modes"])
    if fb:
        print("warning: critical mode unavailable at levels %s; "
              "used overcomplete there" % fb)
    print("encoded %d voxels depth %d order %d modes %s: %d payload bytes, "
          "%.4f bpp, %.3f s"
          % (cloud.positions.shape[0], cloud.depth, args.order,
             stats["modes"], stats["payload_bytes"],
             stats["payload_bytes"] * 8.0 / cloud.positions.shape[0], dt))
    return 0


def cmd_decode(args):
    with open(args.input, "rb") as fh:
        blob = fh.read()
    head, _ = parse_header(blob)
    geom = _load_voxelized(args.geometry, head["depth"])
    attrs, head = decode(blob, geom)
    save_ply(args.output, geom.positions, attrs)
    print("decoded %d voxels, %d channels, colorspace %s"
          % (len(attrs), head["channels"], head["colorspace"]))
    return 0


def _rd_point(cloud, order, mode, step, k, colorspace, ref_yuv):
    config = _config(order, mode, k)
    blob, stats = encode(cloud, config, step, colorspace=colorspace)
    attrs, _ = decode(blob, cloud)
    rec_yuv = rgb_to_bt709(attrs)
    m = compute_metrics(ref_yuv, rec_yuv, stats["payload_bytes"],
                        len(cloud.positions), stats["coeff_count"])
    return [order, mode, step, "%.6f" % m.bpp,
            "%.4f" % m.psnr[0], "%.4f" % m.psnr[1], "%.4f" % m.psnr[2],
            "%.4f" % m.psnr_combined]


def cmd_rd(args):
    cloud = _load_voxelized(args.input, args.depth)
    if cloud.channels != 3:
        raise ValueError("rate-distortion sweep needs 3-channel attributes")
    ref_yuv = rgb_to_bt709(cloud.attributes)
    configs = [(o, m, s) for o in args.orders for m in args.modes
               for s in args.steps]
    rows = []
    with ThreadPoolExecutor(max_workers=min(4, len(configs))) as pool:
        futs = [pool.submit(_rd_point, cloud, o, m, s, args.taylor_k,
                            args.colorspace, ref_yuv)
                for o, m, s in configs]
        rows = [f.result() for f in futs]
    with open(args.output, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["order", "mode", "step", "bpp",
                     "psnr_y", "psnr_u", "psnr_v", "psnr_yuv"])
        wr.writerows(rows)
    print("wrote %d rate points to %s" % (len(rows), args.output))
    return 0


def cmd_compaction(args):
    cloud = _load_voxelized(args.input, args.depth)
    rows = []
    for order in args.orders:
        for mode in args.modes:
            # truncated reconstructions are meaningful only with converged
            # projections, so compaction runs a long series with early stop
            config = _config(order, mode, args.taylor_k, tolerance=1e-12)
            hierarchy = build_hierarchy(cloud, order)
            plan = TransformPlan(hierarchy, config)
            coeffs = analyze(hierarchy, cloud.attributes, config, plan=plan)
            for level in range(hierarchy.depth + 1):
                cut, kept = truncate_to_level(coeffs, level)
                rec = synthesize(hierarchy, cut, config, plan=plan)
                mse = float(np.mean((cloud.attributes - rec) ** 2))
                mse_db = -100.0 if mse < 1e-10 else 10.0 * np.log10(mse)
                rows.append([order, mode, level, kept, "%.4f" % mse_db])
    with open(args.output, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["order", "mode", "level", "coeff_count", "mse_db"])
        wr.writerows(rows)
    print("wrote %d compaction rows to %s" % (len(rows), args.output))
    return 0


def _selftest_checks():
    clouds = builtin_clouds()
    checks = []

    def roundtrip(name, cloud, order, mode):
        config = _config(order, mode, 64)
        hierarchy = build_hierarchy(cloud, order)
        coeffs = analyze(hierarchy, cloud.attributes, config)
        rec = synthesize(hierarchy, coeffs, config)
        err = float(np.abs(rec - cloud.attributes).max())
        return err <= 1e-6, "max err %.3e" % err

    for name, cloud in clouds.items():
        for order in (1, 2):
            for mode in ("overcomplete", "critical"):
                checks.append(("roundtrip %s order=%d mode=%s"
                               % (name, order, mode),
                               lambda c=cloud, o=order, m=mode, n=name:
                               roundtrip(n, c, o, m)))

    def oracle_projection():
        cloud = clouds["sphere200"]
        hierarchy = build_hierarchy(cloud, 2)
        phi0 = oracle.dense_basis(hierarchy, 0)
        fdual = cloud.attributes.copy()
        from .kernels import build_a_matrix
        for l in range(hierarchy.depth - 1, -1, -1):
            fdual = build_a_matrix(hierarchy.levels[l], hierarchy.levels[l + 1],
                                   2) @ fdual
        err = float(np.abs(phi0.T @ cloud.attributes - fdual).max())
        return err <= 1e-8, "max err %.3e" % err

    def oracle_gram():
        cloud = clouds["sphere200"]
        hierarchy = build_hierarchy(cloud, 2)
        dense = oracle.gram_exact(hierarchy, 0)
        sparse = gram_levels(hierarchy)[0].to_csr().toarray()
        err = float(np.abs(dense - sparse).max())
        return err <= 1e-10, "max err %.3e" % err

    def oracle_series():
        cloud = clouds["sphere200"]
        hierarchy = build_hierarchy(cloud, 2)
        gram = gram_levels(hierarchy)[0]
        d = gram.diagonal
        gs = gram.scaled(d)
        dense = gs.to_csr().toarray()
        rng = np.random.default_rng(11)
        v = dense @ rng.normal(size=(dense.shape[0], 1))
        want = oracle.matfun_exact(dense, "inv") @ v
        cfg = ApproxConfig(order=20000, tolerance=1e-13)
        got = apply_series(gs, v, "inv", cfg, lam_max=gs.gershgorin())
        err = float(np.abs(want - got).max())
        return err <= 1e-6, "max err %.3e" % err

    checks.append(("oracle projection equivalence", oracle_projection))
    checks.append(("oracle gram equivalence", oracle_gram))
    checks.append(("oracle series normalization", oracle_series))

    def codec_roundtrip():
        cloud = clouds["sphere200"]
        config = _config(1, "overcomplete", 16)
        blob, _ = encode(cloud, config, 1e-3)
        attrs, _ = decode(blob, cloud)
        err = float(np.abs(attrs - cloud.attributes).max())
        return err <= 0.5, "max err %.3e" % err

    def entropy_roundtrip():
        rng = np.random.default_rng(3)
        vals = np.concatenate([
            np.round(rng.laplace(scale=9.0, size=4000)).astype(np.int64),
            np.zeros(2000, dtype=np.int64),
            np.round(rng.laplace(scale=0.2, size=4000)).astype(np.int64)])
        back = rlgr_decode(rlgr_encode(vals), len(vals))
        return bool(np.array_equal(vals, back)), "mismatch" \
            if not np.array_equal(vals, back) else "ok"

    checks.append(("codec round trip", codec_roundtrip))
    checks.append(("entropy coder round trip", entropy_roundtrip))
    return checks


def cmd_selftest(args):
    failures = 0
    for name, fn in _selftest_checks():
        try:
            ok, detail = fn()
        except Exception as exc:            # a crash is a failure, keep going
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        print("%s %s (%s)" % ("PASS" if ok else "FAIL", name, detail))
        failures += 0 if ok else 1
    print("%d checks failed" % failures if failures else "all checks passed")
    return 0 if failures == 0 else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(1)


def _add_common(p):
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--depth", type=int, default=0,
                   help="voxel grid depth L (0 = infer from integer coords)")
    p.add_argument("--mode", choices=("critical", "overcomplete"),
                   default="overcomplete")
    p.add_argument("--taylor-k", type=int, default=16)
    p.add_argument("--colorspace", choices=("raw", "bt709"), default="raw")


def build_parser():
    ap = _Parser(prog="rahtp")
    sub = ap.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("encode", help="encode a PLY into a bitstream")
    p.add_argument("input")
    p.add_argument("output")
    _add_common(p)
    p.add_argument("--step", type=float, default=1.0)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="decode a bitstream onto its geometry")
    p.add_argument("input")
    p.add_argument("geometry")
    p.add_argument("output")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("rd", help="rate-distortion sweep to CSV")
    p.add_argument("input")
    p.add_argument("output")
    _add_common(p)
    p.add_argument("--steps", type=float, nargs="+",
                   default=[0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    p.add_argument("--orders", type=int, nargs="+", choices=(1, 2),
                   default=[1, 2])
    p.add_argument("--modes", nargs="+",
                   choices=("critical", "overcomplete"),
                   default=["critical", "overcomplete"])
    p.set_defaults(fn=cmd_rd)

    p = sub.add_parser("compaction",
                       help="energy compaction sweep (no quantization) to CSV")
    p.add_argument("input")
    p.add_argument("output")
    _add_common(p)
    p.set_defaults(taylor_k=1024)
    p.add_argument("--orders", type=int, nargs="+", choices=(1, 2),
                   default=[1, 2])
    p.add_argument("--modes", nargs="+",
                   choices=("critical", "overcomplete"),
                   default=["overcomplete"])
    p.set_defaults(fn=cmd_compaction)

    p = sub.add_parser("selftest", help="run built-in checks")
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "fn", None):
        ap.print_usage(sys.stderr)
        return 1
    try:
        return args.fn(args)
    except (OSError, ValueError, RuntimeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
