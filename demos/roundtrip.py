"""Round-trip demo: transform a synthetic cloud and reconstruct it.

Runs the analysis/synthesis cascades in both basis orders without
quantization (errors should sit at numerical noise), then pushes a smooth
cloud through the full bitstream path with a fine step and reports the
coded size.

The per-level mode string shows what each level stored, which the basis
order decides: order 1 prints 'c' on every level, critical planes of
N_{l+1} - N_l high-pass rows, RAHT's orthonormal coordinates in closed
form, so it codes exactly one coefficient per voxel; order 2 prints 'o' on
every level, overcomplete planes of N_{l+1} rows.
"""

import numpy as np

from rahtp import (ApproxConfig, PointCloud, TransformConfig, analyze,
                   build_hierarchy, decode, encode, make_synthetic_cloud,
                   synthesize, voxelize)


def main():
    rng = np.random.default_rng(2)
    raw = PointCloud(positions=rng.integers(0, 32, size=(120, 3)).astype(float),
                     attributes=rng.uniform(0, 255, size=(120, 3)),
                     depth=0, channels=3)
    cloud = voxelize(raw, 5)
    n = len(cloud.positions)
    print("cloud: %d voxels, depth %d, %d channels" % (n, cloud.depth,
                                                       cloud.channels))

    print("\nlossless transform round trips (series K=64, no quantization)")
    for order in (1, 2):
        hierarchy = build_hierarchy(cloud, order)
        config = TransformConfig(order=order, approx=ApproxConfig(order=64))
        coeffs = analyze(hierarchy, cloud.attributes, config)
        rec = synthesize(hierarchy, coeffs, config)
        err = np.abs(rec - cloud.attributes).max()
        print("  order %d  modes %s  %4d coeffs  max err %.3e"
              % (order, coeffs.modes, coeffs.total_coeffs(), err))

    smooth = make_synthetic_cloud("sphere", count=2000, depth=5, seed=1)
    ns = len(smooth.positions)
    print("\nbitstream round trip, smooth cloud of %d voxels (step 0.25)" % ns)
    for order in (1, 2):
        config = TransformConfig(order=order, approx=ApproxConfig(order=32))
        blob, stats = encode(smooth, config, 0.25)
        rec, _ = decode(blob, smooth)
        err = np.abs(rec - smooth.attributes).max()
        print("  order %d  %6d payload bytes  %.3f bpp  max err %.3f"
              % (order, stats["payload_bytes"],
                 stats["payload_bytes"] * 8.0 / ns, err))


if __name__ == "__main__":
    main()
