"""Quantization, adaptive run-length Golomb-Rice coding, and the container.

The entropy layer is a classic backward-adaptive RLGR: fractional parameter
registers kp/krp (the working parameters are k = kp>>4 and kr = krp>>4), a
run mode that activates when krp crosses 16, and a unary escape after Q_CAP
quotient bits.  Each symbol is a mode prefix and one shared Golomb-Rice
codeword.  Regular mode (kr = 0) has no prefix and codes u, the zigzag of
the value.  In run mode a 0 bit is a full run of 1 << kr zeros (clamped at
the plane end, so trailing zeros need no other code); a 1 bit, kr bits of
run length and the codeword of u - 1 code a shorter run and the nonzero
value after it.  The codeword is q = u >> k in unary and k remainder bits,
or Q_CAP ones, a 0 and ESCAPE_BITS plain bits when q >= Q_CAP; the escape
range is checked on the value actually coded, so 2**31 is legal after a
zero run (u - 1 = 2**32 - 1) and not as a regular-mode symbol.  All
constants below are part of the format; changing any of them breaks stream
compatibility, so they are asserted by regression tests.

Both directions run in two passes, a scan in Python that carries kp/krp
and a numpy pass over a fixed number of positions at a time.  The
encoder's scan walks the values and records each codeword's k and the
sparse run-mode prefixes; its pack then lays out the bits.  The decoder's
scan walks the codeword boundaries, reading a quotient and whether a
value is 0 from run tables over the bits, and records each codeword's
start bit and k; its unpack then reads the values.  It decodes the sparse
run-mode prefixes, the codewords after them and escapes itself.  The two
scans are the format and must stay in step with each other; packing and
unpacking only move bits.

Container layout (little endian):
  magic "RAHT" | version u8 | order u8 | depth u8 | reserved u8 | channels u8
  | colorspace u8 | modes (depth bytes, 'c'/'o') | K u16 | tau f64
  | quant steps (channels x f64) | node_count u32 | geometry digest u64
  | per channel, per plane (lowpass then each level): u32 length + payload

The reserved u8 (byte 7) is always 1: it flagged the unit-diagonal basis
scaling, which is now the only basis.  The tau slot is reserved and always
0.0: every series runs at tau = 1/bound, with the bound recomputed from the
geometry on both sides.

The hierarchy, the analysis cascade and the geometry digest do not depend
on the quantization step, so encode keeps its last such result in a
one-entry memo.  A later encode of the same PointCloud object with the same
content, order, mode, K and colorspace reuses it and only quantizes and
codes; any other call drops the entry and analyzes afresh.  The entry holds
a weak reference to the cloud, a sha256 over its positions and depth and
another over its attributes and the configuration, the geometry's depth,
node count per level and digest, the TransformPlan without its hierarchy
and critical operators, and the coefficient planes.  The plan's matrices
and the planes each sit in an anonymous mapping of their own.

decode reads the same entry.  A stream decoded onto the cloud object just
encoded, with the entry's order and K and no critical level, and with
positions that still hash to the entry's, is checked against the held
depth, node counts and digest and synthesized on the held plan; the
hierarchy, digest and plan are not rebuilt.  Any other decode builds them
from the cloud it is given, and no decode changes the entry.
"""

import dataclasses
import hashlib
import mmap
import struct
import threading
import weakref
from array import array

import numpy as np

from .geometry import build_hierarchy, geometry_digest
from .sparse_ops import SplitError
from .spectral import ApproxConfig, SeriesDivergence
from .transform import (CoeffSet, TransformConfig, TransformPlan, analyze,
                        synthesize)

KP_INIT = 32
KP_MAX = 384
KRP_INIT = 0
KRP_MAX = 192
Q_CAP = 48
ESCAPE_BITS = 32

MAGIC = b"RAHT"
VERSION = 1
COLORSPACES = {"raw": 0, "bt709": 1}
COLORSPACE_NAMES = {v: k for k, v in COLORSPACES.items()}


class CorruptStream(ValueError):
    """Malformed or mismatched bitstream."""


def rlgr_encode(values):
    """Encode a signed integer array; returns bytes.

    Two passes.  The scan (_rlgr_scan) walks the zigzag values once in
    Python, carrying kp/krp as the decoder does; it records the k of every
    codeword and the sparse run-mode prefixes, and checks the escape range
    on the value each codeword codes.  The pack (_rlgr_pack) then lays the
    bits out with numpy.  The scan and rlgr_decode are the format; packing
    only lays out the bits.  A magnitude above 2**31 cannot be coded in
    either mode, so it is rejected before the zigzag, which would wrap for
    |v| >= 2**62.
    """
    v = np.asarray(values, dtype=np.int64)
    if v.size and (int(v.max()) > 1 << 31 or int(v.min()) < -(1 << 31)):
        raise ValueError("coefficient magnitude exceeds escape range")
    u = (v << 1) ^ (v >> 63)            # zigzag: 0, -1, 1, -2 -> 0, 1, 2, 3
    ks, prefixes = _rlgr_scan(u.tolist())
    return _rlgr_pack(u.view(np.uint64), ks, prefixes)


def _rlgr_scan(us):
    """The adaptation pass over the zigzag values us (a list of ints).

    Returns (ks, prefixes).  ks is a bytearray: ks[p] is the Golomb-Rice
    parameter k of the codeword coded at position p, or 255 for a zero
    swallowed by a run.  prefixes lists the run-mode prefixes in stream
    order as (position, value, width): (p, 0, 1) for the 0 bit of a full
    run starting at p, and (p, (1 << kr) | run, 1 + kr) for the 1 flag and
    the run length in front of the codeword at p, which codes u - 1.  The
    loop is fully inlined: per-symbol helper calls double the runtime on
    million-coefficient planes.
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


# The pack lays out, and the unpack reads, this many positions at a time.
# The chunk size bounds their temporaries and never changes the bytes or the
# values.  At 1 << 13 they stay near 1 MB; 1 << 15 ran no faster and raised
# a whole codec's peak RSS by 2-5 MB on a 34k-voxel order-2 cloud.
PACK_CHUNK = 1 << 13


def _rlgr_pack(u, ks, prefixes):
    """Lay out the bits of a scanned plane; returns bytes.

    u holds the zigzag values as uint64, and ks and prefixes come from
    _rlgr_scan.  Per chunk of positions, each codeword becomes one field of
    q ones, a 0 and k remainder bits (an escape: Q_CAP ones, a 0 and
    ESCAPE_BITS bits of u).  A codeword wider than 64 bits is split into
    its unary part and its remainder.  Each prefix goes in front of its
    position's codeword.  Bit offsets come from a cumsum; the fields are
    ORed into big-endian uint64 words with one reduceat, as the fields that
    start in one word never overlap, and the part of a field that spills
    into the next word is ORed in separately.  The unfinished last byte of
    a chunk is carried into the next, and the stream's last byte is
    zero-padded.
    """
    n = len(ks)
    pre = np.array(prefixes, dtype=np.int64).reshape(-1, 3)
    ppos, pval, pwid = pre[:, 0], pre[:, 1].astype(np.uint64), pre[:, 2]
    cuts = np.searchsorted(ppos, np.arange(0, n + PACK_CHUNK, PACK_CHUNK))
    out = []
    carry, cbits = 0, 0                 # the unfinished byte and its bits
    one = np.uint64(1)
    for c, a in enumerate(range(0, n, PACK_CHUNK)):
        kk = np.frombuffer(ks, dtype=np.uint8, count=min(PACK_CHUNK, n - a),
                           offset=a)
        lp = ppos[cuts[c]:cuts[c + 1]] - a
        lw = pwid[cuts[c]:cuts[c + 1]]
        cu = u[a:a + PACK_CHUNK].copy()
        cu[lp[lw > 1]] -= one           # after a run flag the code is u - 1
        cw = np.flatnonzero(kk != 255)  # the positions with a codeword
        k = kk[cw].astype(np.uint64)
        cu = cu[cw]
        q = cu >> k
        esc = q >= Q_CAP
        uq = np.minimum(q, np.uint64(Q_CAP)) + one    # unary width
        rb = np.where(esc, np.uint64(ESCAPE_BITS), k)
        rv = np.where(esc, cu, cu & ((one << k) - one))
        unary = (one << uq) - np.uint64(2)
        wide = uq + rb > 64
        cnt = np.zeros(len(kk), dtype=np.int64)
        cnt[cw] = 1 + wide
        cnt[lp] += 1
        end = np.cumsum(cnt)
        nf = int(end[-1])
        if nf == 0:
            continue
        width = np.empty(nf, dtype=np.int64)
        field = np.empty(nf, dtype=np.uint64)
        slot = end[cw] - 1 - wide
        width[slot] = np.where(wide, uq, uq + rb)
        field[slot] = np.where(wide, unary, (unary << rb) | rv)
        wi = np.flatnonzero(wide)
        width[slot[wi] + 1] = rb[wi]
        field[slot[wi] + 1] = rv[wi]
        slot = end[lp] - cnt[lp]
        width[slot] = lw
        field[slot] = pval[cuts[c]:cuts[c + 1]]
        off = np.cumsum(width)
        total = int(off[-1]) + cbits
        off += cbits - width
        word = off >> 6
        stop = (off & 63) + width       # bit after the field, in its word
        spill = stop > 64
        main = ((field >> np.maximum(stop - 64, 0).astype(np.uint64))
                << np.maximum(64 - stop, 0).astype(np.uint64))
        words = np.zeros((total + 63) >> 6, dtype=np.uint64)
        words[0] = carry << 56
        first = np.flatnonzero(np.diff(word, prepend=-1))
        words[word[first]] |= np.bitwise_or.reduceat(main, first)
        words[word[spill] + 1] |= (field[spill]
                                   << (128 - stop[spill]).astype(np.uint64))
        data = words.byteswap().tobytes()
        out.append(data[:total >> 3])
        cbits = total & 7
        carry = data[total >> 3] if cbits else 0
    if cbits:
        out.append(bytes([carry]))
    return b"".join(out)


# _bit_tables builds its run tables over this many bits at a time, which
# bounds its int64 temporaries; the tables do not depend on it
TABLE_CHUNK = 1 << 16


def _bit_tables(data):
    """Lookup tables over the payload bits of one plane.

    ones and zeros are bytearrays: ones[p] is the length of the run of
    one-bits starting at bit p, and zeros[p] that of zero-bits, each capped
    at 255 and 0 at p = bits_total.  A codeword of a valid stream starts on
    a run of at most Q_CAP ones, so only a corrupt stream reaches the cap,
    and _run_of_ones reads such a run exactly.  win is a read-only numpy
    view: win[b] is the 64-bit big-endian window starting at byte b of the
    data followed by 8 zero bytes, so any read of up to ESCAPE_BITS bits
    from an offset of at most 7 bits fits in one window.
    """
    raw = np.frombuffer(data + bytes(8), dtype=np.uint8)
    bits_total = len(data) << 3
    ones = bytearray(bits_total + 1)
    zeros = bytearray(bits_total + 1)
    # per chunk, at[i] is the end of the run through bit a + i: the first
    # bit after it that differs from it, or bits_total.  nxt and first are
    # at[0] and the first bit of the chunk after; for the last chunk, built
    # first, nxt = b = bits_total, so first may be anything
    nxt, first = bits_total, 0
    for a in reversed(range(0, bits_total, TABLE_CHUNK)):
        b = min(a + TABLE_CHUNK, bits_total)
        seg = np.unpackbits(raw[a >> 3:b >> 3])
        at = np.full(b - a, nxt if seg[-1] == first else b, dtype=np.int64)
        change = np.flatnonzero(seg[1:] != seg[:-1])
        at[change] = change + (a + 1)
        at = np.minimum.accumulate(at[::-1])[::-1]
        nxt, first = int(at[0]), seg[0]
        run = np.minimum(at - np.arange(a, b), 255).astype(np.uint8)
        one = run * seg
        ones[a:b] = one.tobytes()
        zeros[a:b] = (run - one).tobytes()
    win = np.lib.stride_tricks.sliding_window_view(raw, 8).view(">u8")[:, 0]
    return ones, zeros, win


def _run_of_ones(ones, bit):
    """The exact length of the run of one-bits at bit, where the table
    ones caps it at 255: a run of 255 or more is 255 plus the run that
    starts 255 bits on."""
    run = 0
    while ones[bit + run] == 255:
        run += 255
    return run + ones[bit + run]


def rlgr_decode(data, count):
    """Decode exactly count signed integers from bytes.

    Two passes, mirroring the encoder.  The scan walks the codeword
    boundaries in Python, carrying kp/krp over the symbols.  A unary
    quotient is one lookup in the run-of-ones table, and whether a
    regular-mode codeword codes u = 0, which is all krp needs, is one
    lookup in the run-of-zeros table (see _bit_tables).  So a regular-mode
    codeword with q < Q_CAP is only located: the scan records its start bit
    and its k, and the unpack reads all their values at once in numpy,
    PACK_CHUNK positions at a time.  The rare rest, run-mode prefixes with
    the codeword after them and escapes, is decoded in the scan from the
    64-bit windows.  Any read past the last bit, a run-mode value past the
    plane end, 8 or more bits left after the last symbol, or a padding bit
    of 1 raises CorruptStream: the encoder writes none of them.
    """
    data = bytes(data)
    bits_total = len(data) << 3
    ones, zeros, win = _bit_tables(data)
    window = win.item               # win[b] as a Python int
    ks = bytearray(b"\xff") * count     # k per position, 255: no codeword
    starts = array("q", [0]) * count
    at, vals = [], []               # where the scan decoded a value, and
    bit = 0                         # its u (u + 1 after a run)
    kp, krp = KP_INIT, KRP_INIT
    pos = 0
    while pos < count:
        k = kp >> 4
        if krp < 16:
            q = ones[bit]
            if q < Q_CAP:
                # regular mode: the unpack reads the value
                end = bit + q + 1 + k
                if end > bits_total:
                    raise CorruptStream("bitstream truncated")
                ks[pos] = k
                starts[pos] = bit
                if zeros[bit] > k:      # q = 0 and k zero bits: u = 0
                    krp += 4            # krp < 16 here, far below KRP_MAX
                else:
                    krp = krp - 5 if krp > 5 else 0
                if q == 0:
                    kp = kp - 2 if kp > 2 else 0
                elif q > 1:
                    kp = kp + q + 1
                    if kp > KP_MAX:
                        kp = KP_MAX
                bit = end
                pos += 1
                continue
        kr = krp >> 4
        if kr:
            if ones[bit] == 0:
                # flag 0: a full run of zeros, clamped at the plane end
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
            # flag 1: kr bits of run length, then the code of u - 1
            bit += 1
            end = bit + kr
            if end > bits_total:
                raise CorruptStream("bitstream truncated")
            pos += ((window(bit >> 3) >> (64 - (bit & 7) - kr))
                    & ((1 << kr) - 1))
            bit = end
            if pos >= count:
                raise CorruptStream("run-mode value past plane end")
        q = ones[bit]
        if q < Q_CAP:
            bit += q + 1
            end = bit + k
            if end > bits_total:
                raise CorruptStream("bitstream truncated")
            u = (q << k) | ((window(bit >> 3) >> (64 - (bit & 7) - k))
                            & ((1 << k) - 1))
        else:
            # an over-long unary run reads as an escape too
            if q == 255:
                q = _run_of_ones(ones, bit)
            bit += q + 1
            end = bit + ESCAPE_BITS
            if end > bits_total:
                raise CorruptStream("bitstream truncated")
            u = ((window(bit >> 3) >> (64 - ESCAPE_BITS - (bit & 7)))
                 & ((1 << ESCAPE_BITS) - 1))
            q = Q_CAP
        bit = end
        at.append(pos)
        if kr:
            vals.append(u + 1)
            krp = krp - 6 if krp > 6 else 0
        else:
            vals.append(u)
            if u == 0:
                krp += 4                # krp < 16 here, far below KRP_MAX
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
    if left >= 8 or (left and (window(bit >> 3) >> (64 - (bit & 7) - left))
                     & ((1 << left) - 1)):
        raise CorruptStream("%d bits left after the last symbol" % left)
    del zeros                       # the unpack does not read it
    return _rlgr_unpack(ones, win, ks, starts, at, vals)


def _rlgr_unpack(ones, win, ks, starts, at, vals):
    """The signed values of a scanned plane, as an int64 array.

    Per chunk of positions, each codeword that the scan located (ks[p] !=
    255) gets its q from the run-of-ones table at its start bit and its k
    remainder bits from the window of the byte they start in; u is q << k
    | remainder.  The values the scan decoded are in place before, and
    positions with neither stay 0.  Each chunk undoes its zigzag in place,
    so the temporaries stay at chunk size.
    """
    count = len(ks)
    ones = np.frombuffer(ones, dtype=np.uint8)
    starts = np.frombuffer(starts, dtype=np.int64)
    out = np.zeros(count, dtype=np.int64)
    out[at] = vals
    for a in range(0, count, PACK_CHUNK):
        kk = np.frombuffer(ks, dtype=np.uint8,
                           count=min(PACK_CHUNK, count - a), offset=a)
        cw = np.flatnonzero(kk != 255)
        k = kk[cw].astype(np.int64)
        s = starts[a + cw]
        q = ones[s].astype(np.int64)
        r = s + q + 1                   # the first remainder bit
        # the window wraps to int64; k + (r & 7) <= 31, so the shift and
        # mask never reach its sign
        w = win[r >> 3].astype(np.int64)
        u = out[a:a + PACK_CHUNK]
        u[cw] = (q << k) | ((w >> (64 - (r & 7) - k)) & ((1 << k) - 1))
        u[:] = (u >> 1) ^ -(u & 1)
    return out


def quantize(values, step):
    """Uniform scalar quantization, round half away from zero."""
    if not 0.0 < step < np.inf:     # also rejects nan
        raise ValueError("quantization step must be finite and positive")
    x = np.asarray(values, dtype=np.float64) / step
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)


def dequantize(q, step):
    return np.asarray(q, dtype=np.float64) * step


def rgb_to_bt709(rgb):
    """Full-range BT.709 RGB -> YUV (no offsets)."""
    r, g, b = rgb[:, 0], rgb[:, 1], rgb[:, 2]
    y = 0.2126 * r + 0.7152 * g + 0.0722 * b
    u = (b - y) / 1.8556
    v = (r - y) / 1.5748
    return np.stack([y, u, v], axis=1)


def bt709_to_rgb(yuv):
    y, u, v = yuv[:, 0], yuv[:, 1], yuv[:, 2]
    b = y + 1.8556 * u
    r = y + 1.5748 * v
    g = (y - 0.2126 * r - 0.0722 * b) / 0.7152
    return np.stack([r, g, b], axis=1)


@dataclasses.dataclass
class _Analysis:
    """encode's step-independent result for one cloud and configuration,
    with the geometry that a decode onto the same cloud reuses."""
    cloud: weakref.ref      # the PointCloud object analyzed
    geometry_key: bytes     # _geometry_key of that cloud
    key: bytes              # _content_key of that cloud and configuration
    sizes: tuple            # node count per level, coarsest first
    digest: int             # geometry_digest, as the header stores it
    plan: TransformPlan     # without_geometry; matrices in one mapping
    coeffs: CoeffSet        # planes in one mapping

    @property
    def depth(self):
        return len(self.sizes) - 1

    @property
    def num_points(self):
        return self.sizes[-1]


# the memo: at most one _Analysis, replaced under the lock and computed
# outside it
_memo = None
_memo_lock = threading.Lock()


def _hash_array(h, arr):
    arr = np.ascontiguousarray(arr)
    h.update(("%s %r;" % (arr.dtype.str, arr.shape)).encode())
    h.update(arr)


def _geometry_key(cloud):
    """sha256 over what the geometry is built from: the positions (with
    their dtype and shape) and the depth."""
    h = hashlib.sha256()
    _hash_array(h, cloud.positions)
    h.update(repr(cloud.depth).encode())
    return h.digest()


def _content_key(cloud, config, colorspace):
    """sha256 over the rest of what analyze reads: the attributes (with
    their dtype and shape) and the configuration."""
    h = hashlib.sha256()
    _hash_array(h, cloud.attributes)
    h.update(repr((cloud.channels, config.order, config.residual_mode,
                   config.approx.order, config.approx.tolerance,
                   colorspace)).encode())
    return h.digest()


def _in_one_mapping(arrays):
    """Equal copies of arrays, all in one anonymous mapping.

    The memo holds its planes and its plan's matrices between calls.  Left
    where they were allocated, they pin the heap around them and raise the
    peak RSS of what runs next; in a mapping of their own they return to
    the system as soon as the entry is dropped.
    """
    sizes = [-(-a.nbytes // 8) * 8 for a in arrays]    # 8-byte aligned
    # a mapping cannot be empty, and a 0-channel cloud has no coefficients
    buf = mmap.mmap(-1, max(sum(sizes), 1))
    copies, off = [], 0
    for a, size in zip(arrays, sizes):
        c = np.frombuffer(buf, dtype=a.dtype, count=a.size, offset=off)
        c = c.reshape(a.shape)
        c[...] = a
        copies.append(c)
        off += size
    return copies


def _analysis(cloud, config, colorspace):
    """The memo's entry for this cloud object and content, analyzing on a
    miss.  A miss drops the old entry before analyzing, so the old planes
    and plan are freed before the new ones are allocated."""
    global _memo
    geometry_key = _geometry_key(cloud)
    key = _content_key(cloud, config, colorspace)
    with _memo_lock:
        if (_memo is not None and _memo.cloud() is cloud
                and _memo.geometry_key == geometry_key and _memo.key == key):
            return _memo
        _memo = None
    hierarchy = build_hierarchy(cloud, config.order)
    plan = TransformPlan(hierarchy, config)
    # before analyze, so that the heap copies are freed before its peak
    plan.move_matrices(_in_one_mapping)
    attrs = cloud.attributes
    if colorspace == "bt709":
        attrs = rgb_to_bt709(attrs)
    coeffs = analyze(hierarchy, attrs, config, plan)
    lowpass, *highpass = _in_one_mapping([coeffs.lowpass, *coeffs.highpass])
    entry = _Analysis(cloud=weakref.ref(cloud), geometry_key=geometry_key,
                      key=key,
                      sizes=tuple(len(level) for level in hierarchy.levels),
                      digest=geometry_digest(hierarchy),
                      plan=plan.without_geometry(),
                      coeffs=dataclasses.replace(coeffs, lowpass=lowpass,
                                                 highpass=highpass))
    with _memo_lock:
        _memo = entry
    return entry


def _held_geometry(cloud, head):
    """The memo's entry when it may stand in for cloud's geometry in
    decoding a stream with header head, else None.

    It may when cloud is the object the entry was encoded from, the
    stream's order and K are the entry's, the stream has no critical level
    (the held plan keeps no critical operators), and the positions and
    depth still hash to the entry's key.  The identity check comes first,
    so a decode onto any other object hashes nothing.
    """
    with _memo_lock:
        entry = _memo
    if (entry is None or entry.cloud() is not cloud
            or entry.plan.config.order != head["order"]
            or entry.plan.config.approx.order != head["k"]
            or "c" in head["modes"]
            or _geometry_key(cloud) != entry.geometry_key):
        return None
    return entry


def encode(cloud, config: TransformConfig, steps, colorspace="raw"):
    """Encode voxelized cloud attributes; returns (blob, stats dict).

    steps is one quantization step per channel (a scalar broadcasts).
    Geometry itself is not coded; the header stores a digest so decode can
    verify it was handed the same voxel set.  The header carries the series
    order K as a u16 but no early-stop tolerance, so config.approx.tolerance
    must be None: a decoder running the full series would not match the
    encoder's closed loop.  Re-encoding the same cloud object at another
    step reuses the analysis (see the module docstring); the bytes are the
    same either way.
    """
    if colorspace not in COLORSPACES:
        raise ValueError("unknown colorspace %r" % colorspace)
    if config.approx.tolerance is not None:
        raise ValueError("the stream carries no series tolerance; "
                         "encode with approx.tolerance=None")
    if config.approx.order > 0xFFFF:
        raise ValueError("the stream carries K as a u16; %d is too large"
                         % config.approx.order)
    cloud.validate()
    if colorspace == "bt709" and cloud.channels != 3:
        raise ValueError("bt709 needs 3 channels")
    steps = np.broadcast_to(np.asarray(steps, dtype=np.float64),
                            (cloud.channels,)).copy()
    if not np.all((steps > 0.0) & (steps < np.inf)):
        raise ValueError("quantization steps must be finite and positive")
    entry = _analysis(cloud, config, colorspace)
    coeffs = entry.coeffs

    header = struct.pack("<4sBBBBBB", MAGIC, VERSION, config.order,
                         entry.depth, 1, cloud.channels,
                         COLORSPACES[colorspace])
    header += coeffs.modes.encode("ascii")
    header += struct.pack("<Hd", config.approx.order, 0.0)
    header += struct.pack("<%dd" % cloud.channels, *steps)
    header += struct.pack("<IQ", entry.num_points, entry.digest)

    planes = [coeffs.lowpass] + list(coeffs.highpass)
    payload = bytearray()
    payload_bytes = 0
    for ch in range(cloud.channels):
        for plane in planes:
            q = quantize(plane[:, ch], steps[ch])
            blob = rlgr_encode(q)
            payload += struct.pack("<I", len(blob))
            payload += blob
            payload_bytes += len(blob)
    stats = {"header_bytes": len(header) + 4 * cloud.channels * len(planes),
             "payload_bytes": payload_bytes,
             "modes": coeffs.modes,
             "coeff_count": coeffs.total_coeffs()}
    return bytes(header) + bytes(payload), stats


def parse_header(data):
    """Validate the container header; returns (header dict, payload offset).

    Fields outside the range an encoder writes (order, colorspace, modes,
    steps, bt709 on other than 3 channels) raise CorruptStream instead of
    steering the decoder, and so do the reserved slots: byte 7 must hold 1
    and tau must be 0.0.  An altered value inside its range is not detected
    here.
    """
    base = struct.calcsize("<4sBBBBBB")
    if len(data) < base:
        raise CorruptStream("stream shorter than fixed header")
    fields = struct.unpack_from("<4sBBBBBB", data, 0)
    magic, version, order, depth, reserved, channels, cspace = fields
    if magic != MAGIC:
        raise CorruptStream("bad magic")
    if version != VERSION:
        raise CorruptStream("unsupported version %d" % version)
    if order not in (1, 2):
        raise CorruptStream("unsupported spline order %d" % order)
    if reserved != 1:
        raise CorruptStream("reserved byte 7 holds %d, not 1" % reserved)
    if cspace not in COLORSPACE_NAMES:
        raise CorruptStream("unknown colorspace id %d" % cspace)
    if COLORSPACE_NAMES[cspace] == "bt709" and channels != 3:
        raise CorruptStream("bt709 colorspace on %d channels, not 3"
                            % channels)
    off = base
    modes = data[off:off + depth].decode("ascii", errors="replace")
    if len(modes) != depth or any(m not in "co" for m in modes):
        raise CorruptStream("bad per-level mode bytes")
    off += depth
    try:
        k_order, tau = struct.unpack_from("<Hd", data, off)
        off += struct.calcsize("<Hd")
        steps = np.array(struct.unpack_from("<%dd" % channels, data, off))
        off += 8 * channels
        node_count, digest = struct.unpack_from("<IQ", data, off)
        off += struct.calcsize("<IQ")
    except struct.error:
        raise CorruptStream("stream shorter than its header") from None
    if tau != 0.0:
        raise CorruptStream("reserved tau slot holds %r, not 0.0" % tau)
    if not np.all((steps > 0.0) & (steps < np.inf)):
        raise CorruptStream("quantization steps must be finite and positive")
    return {"order": order, "depth": depth, "channels": channels,
            "colorspace": COLORSPACE_NAMES[cspace], "modes": modes,
            "k": k_order, "steps": steps,
            "node_count": node_count, "digest": digest}, off


def decode(data, cloud):
    """Decode attributes onto the provided geometry.

    cloud supplies the voxel positions (attributes ignored); they must hash
    to the digest in the header.  Returns (attributes, header dict).
    Decoding onto the cloud object that encode was last called with reuses
    that call's geometry and plan (see the module docstring); the output
    is the same either way.  A plane that RLGR rejects or that dequantizes
    to a non-finite value raises CorruptStream naming the plane and its
    channel, before any transform work, and a stream that decodes to a
    non-finite value raises it too.
    """
    head, off = parse_header(data)
    entry = _held_geometry(cloud, head)
    if entry is None:
        hierarchy = build_hierarchy(cloud, head["order"])
        depth, plan = hierarchy.depth, None
        sizes = [len(level) for level in hierarchy.levels]
    else:
        hierarchy, depth, plan = None, entry.depth, entry.plan
        sizes = entry.sizes
    if depth != head["depth"]:
        raise CorruptStream("geometry depth %d does not match stream depth %d"
                            % (depth, head["depth"]))
    if sizes[-1] != head["node_count"]:
        raise CorruptStream("geometry node count mismatch")
    digest = geometry_digest(hierarchy) if entry is None else entry.digest
    if digest != head["digest"]:
        raise CorruptStream("geometry digest mismatch")

    config = TransformConfig(order=head["order"],
                             approx=ApproxConfig(order=head["k"]))
    counts = [sizes[0]]
    for l, mode in enumerate(head["modes"]):
        n_child, n_parent = sizes[l + 1], sizes[l]
        if mode == "c" and n_child < n_parent:
            raise CorruptStream("critical mode at level %d, where %d parents "
                                "outnumber %d children" % (l, n_parent, n_child))
        counts.append(n_child - n_parent if mode == "c" else n_child)

    nch = head["channels"]
    planes = [np.zeros((c, nch)) for c in counts]
    for ch in range(nch):
        for p, plane in enumerate(planes):
            if off + 4 > len(data):
                raise CorruptStream("missing plane length")
            (blen,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + blen > len(data):
                raise CorruptStream("plane payload truncated")
            try:
                q = rlgr_decode(data[off:off + blen], len(plane))
            except CorruptStream as exc:
                raise CorruptStream("plane %d of channel %d: %s"
                                    % (p, ch, exc)) from None
            off += blen
            # an encoder codes finite planes only; an altered step can
            # overflow here, which is caught before any transform work
            with np.errstate(over="ignore"):
                plane[:, ch] = dequantize(q, head["steps"][ch])
            if not np.isfinite(plane[:, ch]).all():
                raise CorruptStream("plane %d of channel %d dequantizes to "
                                    "values that are not finite" % (p, ch))
    if off != len(data):
        raise CorruptStream("%d trailing bytes after the last plane"
                            % (len(data) - off))

    coeffs = CoeffSet(order=head["order"], depth=head["depth"], channels=nch,
                      lowpass=planes[0], highpass=planes[1:],
                      modes=head["modes"])
    try:
        attrs = synthesize(hierarchy, coeffs, config, plan)
    except SeriesDivergence as exc:
        # at tau = 1/bound every series contracts on encoder-written planes;
        # divergence means the planes or steps were altered
        raise CorruptStream("series diverged: %s" % exc) from None
    except SplitError as exc:
        # the encoder writes critical planes only where a split exists
        raise CorruptStream(str(exc)) from None
    if head["colorspace"] == "bt709":
        attrs = bt709_to_rgb(attrs)
    # finite planes can still sum past the float range; order 1 runs no
    # series that could catch that
    if not np.isfinite(attrs).all():
        raise CorruptStream("decoded attributes are not finite")
    return attrs, head
