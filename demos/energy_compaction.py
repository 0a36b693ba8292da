"""Energy compaction demo: reconstruction error vs kept coefficient count.

Transforms a smooth field on a sphere surface with a converged series (long
order, tight early-stop tolerance), then zeroes all high-pass planes above
each level and measures the reconstruction MSE.  Plotting mse_db against
coeff_count is the compaction curve; the order-2 basis should sit below
order 1 on smooth content.  `rahtp compaction` writes the same curve
(`compaction_curve`) to CSV.
"""

from rahtp.evalcli import compaction_curve, make_synthetic_cloud


def main():
    cloud = make_synthetic_cloud("sphere", count=10000, depth=6, seed=0)
    print("cloud: %d voxels, depth %d" % (len(cloud.positions), cloud.depth))
    for order in (1, 2):
        print("\norder %d" % order)
        print("  %5s  %12s  %8s" % ("level", "coeff_count", "mse_db"))
        for level, (kept, mse_db) in enumerate(
                compaction_curve(cloud, order, "overcomplete", 1024)):
            print("  %5d  %12d  %8.2f" % (level, kept, mse_db))


if __name__ == "__main__":
    main()
