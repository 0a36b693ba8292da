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

Container layout (little endian):
  magic "RAHT" | version u8 | order u8 | depth u8 | reserved u8 | channels u8
  | colorspace u8 | modes (depth bytes, 'c'/'o') | K u16 | tau f64
  | quant steps (channels x f64) | node_count u32 | geometry digest u64
  | per channel, per plane (lowpass then each level): u32 length + payload

The reserved u8 (byte 7) is always 1: it flagged the unit-diagonal basis
scaling, which is now the only basis.  The tau slot is reserved and always
0.0: every series runs at tau = 1/bound, with the bound recomputed from the
geometry on both sides.
"""

import struct

import numpy as np

from .geometry import build_hierarchy, geometry_digest
from .spectral import ApproxConfig, SeriesDivergence
from .transform import CoeffSet, TransformConfig, analyze, synthesize

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

    Each iteration writes its mode's prefix (a full run ends the iteration
    there), then one shared tail writes the codeword, checks the escape
    range on the value it codes and adapts kp.  The loop is fully inlined
    (bit accumulator, zigzag, codeword, parameter adaptation): per-symbol
    helper calls double the runtime on million-coefficient planes.  The
    accumulator is flushed in chunks of at least 1024 bits, which needs
    fewer to_bytes calls than a flush per byte and writes the same bytes;
    the tail is zero-padded to a whole byte.  This body and rlgr_decode are
    the format; they must stay in step with each other.
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


def _bit_tables(data):
    """Lookup tables over the payload bits of one plane.

    ones[p] is the length of the run of one-bits starting at bit p, with
    ones[bits_total] = 0.  win[b] is the 64-bit big-endian window starting
    at byte b of the data followed by 8 zero bytes, so any read of up to
    ESCAPE_BITS bits from an offset of at most 7 bits fits in one window.
    """
    raw = np.frombuffer(data + bytes(8), dtype=np.uint8)
    bits_total = len(data) << 3
    nxt = np.full(bits_total + 1, bits_total, dtype=np.int64)
    zeros = np.flatnonzero(np.unpackbits(raw[:len(data)]) == 0)
    nxt[zeros] = zeros                  # next zero at or after each bit
    del zeros
    nxt = np.minimum.accumulate(nxt[::-1])[::-1]
    nxt -= np.arange(bits_total + 1)
    ones = nxt.tolist()
    win = np.lib.stride_tricks.sliding_window_view(raw, 8).view(">u8")
    return ones, win.ravel().tolist()


def rlgr_decode(data, count):
    """Decode exactly count signed integers from bytes.

    Table-driven mirror of the encoder loop: the run-mode prefix, then one
    shared codeword read and one kp update.  A unary quotient is one lookup
    in the run-of-ones table, and a remainder, escape value or run length
    of nb bits is one window lookup and a shift (see _bit_tables).  The
    loop keeps the unsigned zigzag values, u + 1 after a run; the signed
    map runs once, in numpy, at the end.  Any read past the last bit, a
    run-mode value past the plane end, 8 or more bits left after the last
    symbol, or a padding bit of 1 raises CorruptStream: the encoder writes
    none of them.
    """
    data = bytes(data)
    bits_total = len(data) << 3
    ones, win = _bit_tables(data)
    out = [0] * count
    bit = 0                         # bit cursor into data
    kp, krp = KP_INIT, KRP_INIT
    pos = 0
    while pos < count:
        k = kp >> 4
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
            pos += (win[bit >> 3] >> (64 - (bit & 7) - kr)) & ((1 << kr) - 1)
            bit = end
            if pos >= count:
                raise CorruptStream("run-mode value past plane end")
        q = ones[bit]
        bit += q + 1
        if q < Q_CAP:
            end = bit + k
            if end > bits_total:
                raise CorruptStream("bitstream truncated")
            u = (q << k) | ((win[bit >> 3] >> (64 - (bit & 7) - k))
                            & ((1 << k) - 1))
        else:
            # an over-long unary run reads as an escape too
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
    if left >= 8 or (left and (win[bit >> 3] >> (64 - (bit & 7) - left))
                     & ((1 << left) - 1)):
        raise CorruptStream("%d bits left after the last symbol" % left)
    u = np.array(out, dtype=np.int64)
    return (u >> 1) ^ -(u & 1)


def quantize(values, step):
    """Uniform scalar quantization, round half away from zero."""
    if step <= 0:
        raise ValueError("quantization step must be positive")
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


def encode(cloud, config: TransformConfig, steps, colorspace="raw"):
    """Encode voxelized cloud attributes; returns (blob, stats dict).

    steps is one quantization step per channel (a scalar broadcasts).
    Geometry itself is not coded; the header stores a digest so decode can
    verify it was handed the same voxel set.  The header carries the series
    order K as a u16 but no early-stop tolerance, so config.approx.tolerance
    must be None: a decoder running the full series would not match the
    encoder's closed loop.
    """
    if colorspace not in COLORSPACES:
        raise ValueError("unknown colorspace %r" % colorspace)
    if config.approx.tolerance is not None:
        raise ValueError("the stream carries no series tolerance; "
                         "encode with approx.tolerance=None")
    if config.approx.order > 0xFFFF:
        raise ValueError("the stream carries K as a u16; %d is too large"
                         % config.approx.order)
    hierarchy = build_hierarchy(cloud, config.order)
    attrs = cloud.attributes
    if colorspace == "bt709":
        if cloud.channels != 3:
            raise ValueError("bt709 needs 3 channels")
        attrs = rgb_to_bt709(attrs)
    steps = np.broadcast_to(np.asarray(steps, dtype=np.float64),
                            (cloud.channels,)).copy()
    if np.any(steps <= 0):
        raise ValueError("quantization step must be positive")
    coeffs = analyze(hierarchy, attrs, config)

    header = struct.pack("<4sBBBBBB", MAGIC, VERSION, config.order,
                         hierarchy.depth, 1, cloud.channels,
                         COLORSPACES[colorspace])
    header += coeffs.modes.encode("ascii")
    header += struct.pack("<Hd", config.approx.order, 0.0)
    header += struct.pack("<%dd" % cloud.channels, *steps)
    header += struct.pack("<IQ", hierarchy.num_points,
                          geometry_digest(cloud.positions, hierarchy.depth))

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
    steps) raise CorruptStream instead of steering the decoder, and so do
    the reserved slots: byte 7 must hold 1 and tau must be 0.0.  An altered
    value inside its range is not detected here.
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
    """
    head, off = parse_header(data)
    hierarchy = build_hierarchy(cloud, head["order"])
    if hierarchy.depth != head["depth"]:
        raise CorruptStream("geometry depth %d does not match stream depth %d"
                            % (hierarchy.depth, head["depth"]))
    if hierarchy.num_points != head["node_count"]:
        raise CorruptStream("geometry node count mismatch")
    if geometry_digest(cloud.positions, head["depth"]) != head["digest"]:
        raise CorruptStream("geometry digest mismatch")

    config = TransformConfig(order=head["order"],
                             approx=ApproxConfig(order=head["k"]))
    counts = [len(hierarchy.levels[0].nodes)]
    for l, mode in enumerate(head["modes"]):
        n_child = len(hierarchy.levels[l + 1].nodes)
        n_parent = len(hierarchy.levels[l].nodes)
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
            q = rlgr_decode(data[off:off + blen], len(plane))
            off += blen
            plane[:, ch] = dequantize(q, head["steps"][ch])
    if off != len(data):
        raise CorruptStream("%d trailing bytes after the last plane"
                            % (len(data) - off))

    coeffs = CoeffSet(order=head["order"], depth=head["depth"], channels=nch,
                      lowpass=planes[0], highpass=planes[1:],
                      modes=head["modes"])
    try:
        attrs = synthesize(hierarchy, coeffs, config)
    except SeriesDivergence as exc:
        # at tau = 1/bound every series contracts on encoder-written planes;
        # divergence means the planes or steps were altered
        raise CorruptStream("series diverged: %s" % exc) from None
    if head["colorspace"] == "bt709":
        attrs = bt709_to_rgb(attrs)
    return attrs, head
