"""Shared fixtures for the test suite."""

import numpy as np
import scipy.sparse as sp

import rahtp
from rahtp.codec import (ESCAPE_BITS, KP_INIT, KP_MAX, KRP_INIT, KRP_MAX,
                         Q_CAP, CorruptStream)


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


def reference_rlgr_scan(us):
    """The per-symbol adaptation pass that codec._rlgr_scan replaced.

    Returns (ks, prefixes) for the zigzag values us (a list of ints):
    ks[p] is the k of the codeword coded at position p, or 255 for a zero
    swallowed by a run, and prefixes lists the run-mode prefixes as
    (position, value, width).  One iteration per symbol, regular and run
    mode alike.  Tests compare _rlgr_scan's regular-mode stretches against
    it.
    """
    n = len(us)
    ks = bytearray(b"\xff") * n
    prefixes = []
    kp, krp = KP_INIT, KRP_INIT
    pos = 0
    while pos < n:
        k = kp >> 4
        if krp < 16:                    # kr = 0: regular mode, no prefix
            u = us[pos]
            if u == 0:
                krp += 4                # krp < 16 here, far below KRP_MAX
            else:
                krp = krp - 5 if krp > 5 else 0
        else:
            kr = krp >> 4
            run_cap = 1 << kr
            stop = pos + run_cap
            if stop > n:
                stop = n
            p = pos
            while p < stop and us[p] == 0:
                p += 1
            if p - pos == run_cap or p >= n:
                # full run, or trailing zeros shorter than one: the decoder
                # clamps runs at the known plane length, so a full-run bit
                # is unambiguous at the tail
                prefixes.append((pos, 0, 1))
                krp = krp + 4
                if krp > KRP_MAX:
                    krp = KRP_MAX
                pos = p
                continue
            prefixes.append((p, run_cap | (p - pos), 1 + kr))
            u = us[p] - 1
            krp = krp - 6 if krp > 6 else 0
            pos = p
        ks[pos] = k
        q = u >> k
        if q == 0:
            kp = kp - 2 if kp > 2 else 0
        elif q > 1:
            if q >= Q_CAP:
                if u >> ESCAPE_BITS:
                    raise ValueError(
                        "coefficient magnitude exceeds escape range")
                q = Q_CAP
            kp = kp + q + 1
            if kp > KP_MAX:
                kp = KP_MAX
        pos += 1
    return ks, prefixes


def _reference_bit_tables(data):
    """(ones, win) for reference_rlgr_decode: ones[p] is the run of one-bits
    starting at bit p, capped at 255, with ones[bits_total] = 0, and win is
    a list of the 64-bit big-endian windows starting at each byte of the
    data followed by 8 zero bytes."""
    raw = np.frombuffer(data + bytes(8), dtype=np.uint8)
    bits = np.unpackbits(raw[:len(data)])
    n = len(bits)
    at = np.full(n + 1, n, dtype=np.int64)
    zeros = np.flatnonzero(bits == 0)
    at[zeros] = zeros                   # next zero at or after each bit
    at = np.minimum.accumulate(at[::-1])[::-1]
    ones = bytearray(np.minimum(at - np.arange(n + 1), 255)
                     .astype(np.uint8).tobytes())
    win = np.lib.stride_tricks.sliding_window_view(raw, 8).view(">u8")
    return ones, win.ravel().tolist()


def reference_rlgr_decode(data, count):
    """The per-symbol RLGR decoder that rlgr_decode replaced.

    One inlined loop reads each symbol's prefix and codeword from a list of
    64-bit windows and keeps the zigzag values in a list.  Tests compare
    rlgr_decode's two passes against it: the same array, or CorruptStream
    with the same message.
    """
    data = bytes(data)
    bits_total = len(data) << 3
    ones, win = _reference_bit_tables(data)
    out = [0] * count
    bit = 0
    kp, krp = KP_INIT, KRP_INIT
    pos = 0
    while pos < count:
        k = kp >> 4
        kr = krp >> 4
        if kr:
            if ones[bit] == 0:
                if bit >= bits_total:
                    raise CorruptStream("bitstream truncated")
                bit += 1
                pos += 1 << kr
                if pos > count:
                    pos = count
                krp = krp + 4
                if krp > KRP_MAX:
                    krp = KRP_MAX
                continue
            bit += 1
            end = bit + kr
            if end > bits_total:
                raise CorruptStream("bitstream truncated")
            pos += (win[bit >> 3] >> (64 - (bit & 7) - kr)) & ((1 << kr) - 1)
            bit = end
            if pos >= count:
                raise CorruptStream("run-mode value past plane end")
        q = ones[bit]
        if q < Q_CAP:
            bit += q + 1
            end = bit + k
            if end > bits_total:
                raise CorruptStream("bitstream truncated")
            u = (q << k) | ((win[bit >> 3] >> (64 - (bit & 7) - k))
                            & ((1 << k) - 1))
        else:
            if q == 255:                # past the table's cap: count on
                run = 0
                while ones[bit + run] == 255:
                    run += 255
                q = run + ones[bit + run]
            bit += q + 1
            end = bit + ESCAPE_BITS
            if end > bits_total:
                raise CorruptStream("bitstream truncated")
            u = ((win[bit >> 3] >> (64 - ESCAPE_BITS - (bit & 7)))
                 & ((1 << ESCAPE_BITS) - 1))
            q = Q_CAP
        bit = end
        if kr:
            out[pos] = u + 1
            krp = krp - 6 if krp > 6 else 0
        else:
            out[pos] = u
            if u == 0:
                krp += 4
            else:
                krp = krp - 5 if krp > 5 else 0
        if q == 0:
            kp = kp - 2 if kp > 2 else 0
        elif q > 1:
            kp = kp + q + 1
            if kp > KP_MAX:
                kp = KP_MAX
        pos += 1
    left = bits_total - bit
    if left >= 8 or (left and (win[bit >> 3] >> (64 - (bit & 7) - left))
                     & ((1 << left) - 1)):
        raise CorruptStream("%d bits left after the last symbol" % left)
    u = np.array(out, dtype=np.int64)
    return (u >> 1) ^ -(u & 1)


def reference_critical_synthesis(a_mats):
    """The entry-by-entry builder of the order-1 critical synthesis
    matrices S = [A'^T | R^T] that transform._critical_synthesis replaced;
    tests compare the two array for array.

    Row k of S, a child of parent p, holds u_k at column p, then at the
    column of each other child i of p H[i, k] = delta_ik - u_i w_k, with
    w_k = u_k / (1 + u_first) and w = 1 at the first child.  Each array
    here has one entry per entry of S.
    """
    mats = []
    for a in a_mats:
        n_parent, n_child = a.shape
        head, u = a.indptr[:-1], a.data
        count = np.diff(a.indptr)
        parent = np.repeat(np.arange(n_parent), count)
        w = u / (1.0 + u[head])[parent]
        w[head] = 1.0
        indptr = np.zeros(n_child + 1, dtype=np.int64)
        np.cumsum(count[parent], out=indptr[1:])
        row = np.repeat(np.arange(n_child), count[parent])
        p = parent[row]
        i = head[p] + np.arange(indptr[-1]) - indptr[row]
        cols = i + (n_parent - 1) - p
        vals = -u[i] * w[row]
        vals[row == i] += 1.0
        cols[indptr[:-1]] = parent
        vals[indptr[:-1]] = u
        mats.append(sp.csr_matrix((vals, cols, indptr),
                                  shape=(n_child, n_child)))
    return mats
