"""Energy compaction demo: reconstruction error vs kept coefficient count.

Transforms a smooth field on a sphere surface with a converged series (long
order, tight early-stop tolerance), then zeroes all high-pass planes above
each level and measures the reconstruction MSE.  Plotting mse_db against
coeff_count is the compaction curve; the order-2 basis should sit below
order 1 on smooth content.  `rahtp compaction` writes this to CSV.
"""

import numpy as np

from rahtp import (ApproxConfig, TransformConfig, TransformPlan, analyze,
                   build_hierarchy, make_synthetic_cloud, synthesize,
                   truncate_to_level)


def main():
    cloud = make_synthetic_cloud("sphere", count=10000, depth=6, seed=0)
    print("cloud: %d voxels, depth %d" % (len(cloud.positions), cloud.depth))
    series = ApproxConfig(order=1024, tolerance=1e-12)
    for order in (1, 2):
        config = TransformConfig(order=order, residual_mode="overcomplete",
                                 approx=series, scaling=True)
        hierarchy = build_hierarchy(cloud, order)
        plan = TransformPlan(hierarchy, config)
        coeffs = analyze(hierarchy, cloud.attributes, config, plan=plan)
        print("\norder %d" % order)
        print("  %5s  %12s  %8s" % ("level", "coeff_count", "mse_db"))
        for level in range(hierarchy.depth + 1):
            cut, kept = truncate_to_level(coeffs, level)
            rec = synthesize(hierarchy, cut, config, plan=plan)
            mse = float(np.mean((cloud.attributes - rec) ** 2))
            mse_db = -100.0 if mse < 1e-10 else 10.0 * np.log10(mse)
            print("  %5d  %12d  %8.2f" % (level, kept, mse_db))


if __name__ == "__main__":
    main()
