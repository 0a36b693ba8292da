"""Rate-distortion sweep on a synthetic cloud, printed as a table.

Sweeps the quantization step for both basis orders and reports payload bits
per voxel against YUV PSNR.  The smoother order-2 basis should buy a better
rate-distortion trade on smooth attribute fields, most visibly at low rates.
The `rahtp rd` subcommand writes the same sweep to CSV for real inputs.
"""

from rahtp import (ApproxConfig, TransformConfig, compute_metrics, decode,
                   encode, make_synthetic_cloud)
from rahtp.codec import rgb_to_bt709

STEPS = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]


def main():
    cloud = make_synthetic_cloud("sphere", count=8000, depth=6, seed=3)
    n = len(cloud.positions)
    ref_yuv = rgb_to_bt709(cloud.attributes)
    print("cloud: %d voxels, depth %d" % (n, cloud.depth))
    print("\n%6s  %18s  %18s" % ("", "order 1", "order 2"))
    print("%6s  %8s %9s  %8s %9s" % ("step", "bpp", "psnr_yuv", "bpp",
                                     "psnr_yuv"))
    for step in STEPS:
        cells = []
        for order in (1, 2):
            config = TransformConfig(order=order, residual_mode="critical",
                                     approx=ApproxConfig(order=32))
            blob, stats = encode(cloud, config, step, colorspace="bt709")
            rec, _ = decode(blob, cloud)
            m = compute_metrics(ref_yuv, rgb_to_bt709(rec),
                                stats["payload_bytes"], n,
                                stats["coeff_count"])
            cells.append((m.bpp, m.psnr_combined))
        print("%6.1f  %8.4f %8.2f  %9.4f %8.2f"
              % (step, cells[0][0], cells[0][1], cells[1][0], cells[1][1]))


if __name__ == "__main__":
    main()
