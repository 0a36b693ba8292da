"""Rate-distortion sweep on a synthetic cloud, printed as a table.

Sweeps the quantization step for both basis orders and reports payload bits
per voxel against YUV PSNR.  The smoother order-2 basis should buy a better
rate-distortion trade on smooth attribute fields, most visibly at low rates.
The `rahtp rd` subcommand writes the same sweep (`rd_curve`) to CSV for real
inputs.
"""

from rahtp.evalcli import make_synthetic_cloud, rd_curve

STEPS = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]


def main():
    cloud = make_synthetic_cloud("sphere", count=8000, depth=6, seed=3)
    print("cloud: %d voxels, depth %d" % (len(cloud.positions), cloud.depth))
    print("\n%6s  %18s  %18s" % ("", "order 1", "order 2"))
    print("%6s  %8s %9s  %8s %9s" % ("step", "bpp", "psnr_yuv", "bpp",
                                     "psnr_yuv"))
    box, hat = (rd_curve(cloud, order, 32, STEPS, "bt709")
                for order in (1, 2))
    for step, m1, m2 in zip(STEPS, box, hat):
        print("%6.1f  %8.4f %8.2f  %9.4f %8.2f"
              % (step, m1.bpp, m1.psnr_combined, m2.bpp, m2.psnr_combined))


if __name__ == "__main__":
    main()
