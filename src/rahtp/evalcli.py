"""Command-line harness: file encode/decode, RD sweeps, compaction tables.

Subcommands: encode, decode, rd, compaction.  Exit codes: 0 ok, 1 usage
error, 2 runtime error (bad input or corrupt stream).  With 4 or more
steps, rd also prints the BD-rate (bd_rate) of each further order's curve
against the first.
"""

import argparse
import csv
import sys
import time
from dataclasses import dataclass

import numpy as np

from .codec import decode, encode, parse_header, rgb_to_bt709
from .geometry import (PointCloud, build_hierarchy, load_ply, save_ply,
                       voxelize)
from .spectral import ApproxConfig
from .transform import (TransformConfig, TransformPlan, analyze, synthesize,
                        truncate_to_level)

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


def _columns(values):
    # (N, channels) as given; (N,) is one channel, not one row
    arr = np.asarray(values, dtype=np.float64)
    return arr[:, None] if arr.ndim == 1 else arr


def compute_metrics(reference, reconstructed, payload_bytes, num_points,
                    coeff_count):
    ref = _columns(reference)
    rec = _columns(reconstructed)
    mse = tuple(float(np.mean((ref[:, c] - rec[:, c]) ** 2))
                for c in range(ref.shape[1]))
    return Metrics(mse=mse,
                   psnr=tuple(_psnr(m) for m in mse),
                   psnr_combined=_psnr(float(np.mean(mse))),
                   bpp=payload_bytes * 8.0 / num_points,
                   coeff_count=coeff_count)


def bd_rate(anchor_rate, anchor_psnr, test_rate, test_psnr):
    """Bjontegaard delta rate of a test curve against an anchor (VCEG-M33).

    Fits log-rate as a cubic in PSNR for each curve and compares the mean
    of the two fits over the PSNR range where both curves have points.
    Returns (percent, (lo, hi)): the average rate change of the test curve
    at equal PSNR, negative when it needs fewer bits, and that range in dB.
    Raises ValueError for a curve with fewer than 4 distinct PSNRs (its
    log-rate is then no cubic of PSNR), a rate that is not positive, a PSNR
    that is not finite, or ranges that do not overlap.
    """
    fits, ranges = [], []
    for rate, psnr in ((anchor_rate, anchor_psnr), (test_rate, test_psnr)):
        rate = np.asarray(rate, dtype=np.float64)
        psnr = np.asarray(psnr, dtype=np.float64)
        if len(rate) != len(psnr) or len(np.unique(psnr)) < 4:
            raise ValueError("a BD-rate curve needs at least 4 (rate, PSNR) "
                             "points with distinct PSNRs")
        if not (np.all(rate > 0.0) and np.isfinite(psnr).all()):
            raise ValueError("BD-rate needs positive rates and finite PSNRs")
        fits.append(np.polyint(np.polyfit(psnr, np.log(rate), 3)))
        ranges.append((psnr.min(), psnr.max()))
    lo = max(r[0] for r in ranges)
    hi = min(r[1] for r in ranges)
    if not lo < hi:
        raise ValueError("the curves' PSNR ranges do not overlap")
    mean = [(np.polyval(p, hi) - np.polyval(p, lo)) / (hi - lo) for p in fits]
    return 100.0 * float(np.expm1(mean[1] - mean[0])), (float(lo), float(hi))


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
    """One voxel, two diagonal voxels and a 200-point sphere, all 3-channel.

    The tests and perfbench use them as small fixed inputs.
    """
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
    if not np.all(pos == np.floor(pos)):
        raise ValueError("cannot infer depth for non-integer coordinates; "
                         "pass --depth")
    if pos.min() < 0:
        raise ValueError("cannot infer depth for negative coordinates; "
                         "pass --depth")
    return max(1, int(pos.max()).bit_length())


def _load_voxelized(path, depth):
    cloud = load_ply(path)
    if depth is None or depth == 0:
        depth = _infer_depth(cloud.positions)
    return voxelize(cloud, depth)


def _config(order, k, tolerance=None):
    return TransformConfig(order=order,
                           approx=ApproxConfig(order=k, tolerance=tolerance))


def cmd_encode(args):
    cloud = _load_voxelized(args.input, args.depth)
    config = _config(args.order, args.taylor_k)
    t0 = time.perf_counter()
    blob, stats = encode(cloud, config, args.step, colorspace=args.colorspace)
    dt = time.perf_counter() - t0
    with open(args.output, "wb") as fh:
        fh.write(blob)
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


def rd_curve(cloud, order, k, steps, colorspace):
    """One Metrics per step: bpp and YUV PSNR of an encode/decode round trip.

    Steps run innermost, so encode analyzes the cloud once per curve.
    """
    if cloud.channels != 3:
        raise ValueError("rate-distortion sweep needs 3-channel attributes")
    config = _config(order, k)
    ref_yuv = rgb_to_bt709(cloud.attributes)
    points = []
    for step in steps:
        blob, stats = encode(cloud, config, step, colorspace=colorspace)
        attrs, _ = decode(blob, cloud)
        points.append(compute_metrics(
            ref_yuv, rgb_to_bt709(attrs), stats["payload_bytes"],
            len(cloud.positions), stats["coeff_count"]))
    return points


def compaction_curve(cloud, order, k):
    """(kept, mse_db) per level: the error of keeping the planes up to it.

    Truncated reconstructions are meaningful only with converged
    projections, so the K-term series stops early at term norm 1e-12.  An
    exact reconstruction (MSE below 1e-10) reads -100 dB.
    """
    config = _config(order, k, tolerance=1e-12)
    hierarchy = build_hierarchy(cloud, order)
    plan = TransformPlan(hierarchy, config)
    coeffs = analyze(hierarchy, cloud.attributes, config, plan=plan)
    curve = []
    for level in range(hierarchy.depth + 1):
        cut, kept = truncate_to_level(coeffs, level)
        rec = synthesize(hierarchy, cut, config, plan=plan)
        mse = float(np.mean((cloud.attributes - rec) ** 2))
        curve.append((kept, -100.0 if mse < 1e-10 else 10.0 * np.log10(mse)))
    return curve


def cmd_rd(args):
    cloud = _load_voxelized(args.input, args.depth)
    curves = {o: rd_curve(cloud, o, args.taylor_k, args.steps,
                          args.colorspace)
              for o in args.orders}
    rows = [[o, s, "%.6f" % p.bpp, "%.4f" % p.psnr[0],
             "%.4f" % p.psnr[1], "%.4f" % p.psnr[2],
             "%.4f" % p.psnr_combined]
            for o, points in curves.items()
            for s, p in zip(args.steps, points)]
    with open(args.output, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["order", "step", "bpp",
                     "psnr_y", "psnr_u", "psnr_v", "psnr_yuv"])
        wr.writerows(rows)
    print("wrote %d rate points to %s" % (len(rows), args.output))
    if len(args.steps) >= 4:
        (anchor, a_points), *others = curves.items()
        for o, points in others:
            try:
                pct, (lo, hi) = bd_rate(
                    [p.bpp for p in a_points],
                    [p.psnr_combined for p in a_points],
                    [p.bpp for p in points], [p.psnr_combined for p in points])
                result = "%+.2f%% over %.2f-%.2f dB" % (pct, lo, hi)
            except ValueError as exc:
                result = "n/a (%s)" % exc
            print("BD-rate order %d against order %d: %s"
                  % (o, anchor, result))
    return 0


def cmd_compaction(args):
    cloud = _load_voxelized(args.input, args.depth)
    rows = [[o, level, kept, "%.4f" % mse_db]
            for o in args.orders
            for level, (kept, mse_db) in enumerate(
                compaction_curve(cloud, o, args.taylor_k))]
    with open(args.output, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["order", "level", "coeff_count", "mse_db"])
        wr.writerows(rows)
    print("wrote %d compaction rows to %s" % (len(rows), args.output))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(1)


def _add_common(p, taylor_k):
    """Arguments that encode, rd and compaction all read."""
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--depth", type=int, default=0,
                   help="voxel grid depth L (0 = infer from integer coords)")
    p.add_argument("--taylor-k", type=int, default=taylor_k)


def _add_sweep(p):
    """Arguments that rd and compaction both read."""
    p.add_argument("--orders", type=int, nargs="+", choices=(1, 2),
                   default=[1, 2])


def build_parser():
    ap = _Parser(prog="rahtp")
    sub = ap.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("encode", help="encode a PLY into a bitstream")
    _add_common(p, taylor_k=16)
    p.add_argument("--order", type=int, choices=(1, 2), default=1,
                   help="basis order: 1 codes critical planes (RAHT), 2 "
                   "overcomplete planes")
    p.add_argument("--colorspace", choices=("raw", "bt709"), default="raw")
    p.add_argument("--step", type=float, default=1.0)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="decode a bitstream onto its geometry")
    p.add_argument("input")
    p.add_argument("geometry")
    p.add_argument("output")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("rd", help="rate-distortion sweep to CSV")
    _add_common(p, taylor_k=16)
    _add_sweep(p)
    p.add_argument("--colorspace", choices=("raw", "bt709"), default="raw")
    p.add_argument("--steps", type=float, nargs="+",
                   default=[0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    p.set_defaults(fn=cmd_rd)

    p = sub.add_parser("compaction",
                       help="energy compaction sweep (no quantization) to CSV")
    _add_common(p, taylor_k=1024)
    _add_sweep(p)
    p.set_defaults(fn=cmd_compaction)

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
