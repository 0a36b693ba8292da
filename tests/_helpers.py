"""Shared fixtures for the test suite."""

import numpy as np

import rahtp
from rahtp.codec import (ESCAPE_BITS, KP_INIT, KP_MAX, KRP_INIT, KRP_MAX,
                         Q_CAP)


def random_cloud(seed, count, depth, channels=3, scale=255.0):
    """Voxelized random cloud; duplicates merge, so len <= count."""
    rng = np.random.default_rng(seed)
    pos = rng.integers(0, 2 ** depth, (count, 3)).astype(np.int64)
    attrs = rng.uniform(0.0, scale, (count, channels))
    cloud = rahtp.PointCloud(positions=pos, attributes=attrs,
                             depth=depth, channels=channels)
    return rahtp.voxelize(cloud, depth)


def pair_cloud(y1=3.0, y2=11.0):
    """Two diagonal voxels at depth 1, one channel."""
    return rahtp.PointCloud(
        positions=np.array([[0, 0, 0], [1, 1, 1]], dtype=np.int64),
        attributes=np.array([[y1], [y2]], dtype=np.float64),
        depth=1, channels=1)


def reference_rlgr_encode(values):
    """The per-symbol RLGR encoder that rlgr_encode replaced; returns bytes.

    One inlined loop writes each symbol's prefix and codeword into a big-int
    bit accumulator.  Tests compare rlgr_encode's two passes against it.
    """
    vals = np.asarray(values, dtype=np.int64).tolist()  # plain ints are much
    buf = bytearray()                                   # faster to index
    acc = 0
    nbits = 0
    kp, krp = KP_INIT, KRP_INIT
    pos, n = 0, len(vals)
    while pos < n:
        if nbits >= 1024:
            drop = nbits & 7
            buf += (acc >> drop).to_bytes(nbits >> 3, "big")
            acc &= (1 << drop) - 1
            nbits = drop
        k = kp >> 4
        kr = krp >> 4
        if kr == 0:
            v = vals[pos]
            u = 2 * v if v >= 0 else -2 * v - 1
            if u == 0:
                krp += 4                # krp < 16 here, far below KRP_MAX
            else:
                krp = krp - 5 if krp > 5 else 0
        else:
            run_cap = 1 << kr
            stop = pos + run_cap
            if stop > n:
                stop = n
            p = pos
            while p < stop and vals[p] == 0:
                p += 1
            if p - pos == run_cap or p >= n:
                # full run, or trailing zeros shorter than one: the decoder
                # clamps runs at the known plane length, so a full-run bit
                # is unambiguous at the tail
                acc <<= 1
                nbits += 1
                krp = krp + 4
                if krp > KRP_MAX:
                    krp = KRP_MAX
                pos = p
                continue
            acc = (acc << (1 + kr)) | (1 << kr) | (p - pos)
            nbits += 1 + kr
            v = vals[p]
            u = (2 * v if v >= 0 else -2 * v - 1) - 1
            krp = krp - 6 if krp > 6 else 0
            pos = p
        q = u >> k
        if q < Q_CAP:
            acc = (acc << (q + 1 + k)) | ((((1 << q) - 1) << (k + 1))
                                          | (u & ((1 << k) - 1)))
            nbits += q + 1 + k
        else:
            if u >= (1 << ESCAPE_BITS):
                raise ValueError("coefficient magnitude exceeds escape range")
            acc = (acc << (Q_CAP + 1 + ESCAPE_BITS)) \
                | ((((1 << Q_CAP) - 1) << (ESCAPE_BITS + 1)) | u)
            nbits += Q_CAP + 1 + ESCAPE_BITS
            q = Q_CAP
        if q == 0:
            kp = kp - 2 if kp > 2 else 0
        elif q > 1:
            kp = kp + q + 1
            if kp > KP_MAX:
                kp = KP_MAX
        pos += 1
    # drain the whole bytes still held, then zero-pad the last one
    buf += (acc << (-nbits & 7)).to_bytes((nbits + 7) >> 3, "big")
    return bytes(buf)
