"""Round-trip demo: transform a synthetic cloud and reconstruct it.

Runs the analysis/synthesis cascades in both basis orders and both residual
modes without quantization (errors should sit at numerical noise), then
pushes a smooth cloud through the full bitstream path with a fine step and
reports the coded size.

The per-level mode string shows the critical-rate gate at work: a 'c' means
the level stored only N_{l+1} - N_l high-pass rows and the decoder's
reproduction check held; an 'o' means the encoder fell back to the
overcomplete plane there.  Critical planes typically survive at the sparse
fine levels of the order-1 basis.  Order 2 never attempts them: the wider
order-2 stencil couples neighbors too strongly for the truncated-series
gate, so an order-2 critical request prints 'o' on every level.
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
        for mode in ("overcomplete", "critical"):
            config = TransformConfig(order=order, residual_mode=mode,
                                     approx=ApproxConfig(order=64))
            coeffs = analyze(hierarchy, cloud.attributes, config)
            rec = synthesize(hierarchy, coeffs, config)
            err = np.abs(rec - cloud.attributes).max()
            print("  order %d  %-12s  modes %s  %4d coeffs  max err %.3e"
                  % (order, mode, coeffs.modes, coeffs.total_coeffs(), err))

    smooth = make_synthetic_cloud("sphere", count=2000, depth=5, seed=1)
    ns = len(smooth.positions)
    print("\nbitstream round trip, smooth cloud of %d voxels (step 0.25)" % ns)
    for order in (1, 2):
        config = TransformConfig(order=order, residual_mode="critical",
                                 approx=ApproxConfig(order=32))
        blob, stats = encode(smooth, config, 0.25)
        rec, _ = decode(blob, smooth)
        err = np.abs(rec - smooth.attributes).max()
        print("  order %d  %6d payload bytes  %.3f bpp  max err %.3f"
              % (order, stats["payload_bytes"],
                 stats["payload_bytes"] * 8.0 / ns, err))


if __name__ == "__main__":
    main()
