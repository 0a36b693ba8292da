"""Quantization, adaptive run-length Golomb-Rice coding, and the container.

The entropy layer is a classic backward-adaptive RLGR: fractional parameter
registers kp/krp (the working parameters are kp>>4 and krp>>4), a run mode
that activates when krp crosses 16, and a unary escape after Q_CAP quotient
bits.  All constants below are part of the format; changing any of them
breaks stream compatibility, so they are asserted by regression tests.

Container layout (little endian):
  magic "RAHT" | version u8 | order u8 | depth u8 | scaling u8 | channels u8
  | colorspace u8 | modes (depth bytes, 'c'/'o') | K u16 | tau f64
  | quant steps (channels x f64) | node_count u32 | geometry digest u64
  | per channel, per plane (lowpass then each level): u32 length + payload

The tau slot is reserved and always 0.0: every series runs at tau = 1/bound,
with the bound recomputed from the geometry on both sides.
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


def _gr_scan(data, pad, bit, bits_total, k):
    """Windowed GR read used by the decoder hot loop; returns (u, q, bit).

    One 72-bit window from the current byte covers the typical code (unary
    quotient, terminator, remainder); longer-than-window unary runs and
    escape payloads fall back to byte stepping.  A quotient of Q_CAP is the
    escape: ESCAPE_BITS of raw value follow instead of k remainder bits.
    """
    byte = bit >> 3
    avail = 72 - (bit & 7)
    win = int.from_bytes(pad[byte:byte + 9], "big") & ((1 << avail) - 1)
    inv = win ^ ((1 << avail) - 1)
    if inv:
        q = avail - inv.bit_length()
    else:
        q = avail       # still inside a run of ones; resume byte-stepping
        nbytes = bits_total >> 3
        p = bit + avail
        while True:
            b2 = p >> 3
            if b2 >= nbytes:
                raise CorruptStream("bitstream truncated in unary code")
            width = 8 - (p & 7)
            inv2 = (data[b2] & ((1 << width) - 1)) ^ ((1 << width) - 1)
            if inv2 == 0:
                q += width
                p += width
                continue
            q += width - inv2.bit_length()
            break
    t = bit + q                 # position of the terminating zero
    if t >= bits_total:
        raise CorruptStream("bitstream truncated in unary code")
    nb = k if q < Q_CAP else ESCAPE_BITS
    bit = t + 1
    end = bit + nb
    if end > bits_total:
        raise CorruptStream("bitstream truncated")
    if nb == 0:
        rem = 0
    else:
        shift = avail - q - 1 - nb      # remainder offset inside the window
        if shift >= 0:
            rem = (win >> shift) & ((1 << nb) - 1)
        else:
            stop = (end + 7) >> 3
            rem = (int.from_bytes(data[bit >> 3:stop], "big")
                   >> ((stop << 3) - end)) & ((1 << nb) - 1)
    if q < Q_CAP:
        return (q << k) | rem, q, end
    return rem, Q_CAP, end


def rlgr_encode(values):
    """Encode a signed integer array; returns bytes.

    The symbol loop is fully inlined (bit accumulator, zigzag, GR emission,
    parameter adaptation): per-symbol helper calls double the runtime on
    million-coefficient planes.  This body and rlgr_decode are the format;
    they must stay in step with each other.
    """
    vals = np.asarray(values, dtype=np.int64).tolist()  # plain ints are much
    buf = bytearray()                                   # faster to index
    acc = 0
    nbits = 0
    kp, krp = KP_INIT, KRP_INIT
    pos, n = 0, len(vals)
    while pos < n:
        k = kp >> 4
        kr = krp >> 4
        if kr == 0:
            v = vals[pos]
            u = 2 * v if v >= 0 else -2 * v - 1
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
            if nbits >= 8:
                drop = nbits & 7
                buf += (acc >> drop).to_bytes(nbits >> 3, "big")
                acc &= (1 << drop) - 1
                nbits = drop
            if q == 0:
                kp = kp - 2 if kp > 2 else 0
            elif q > 1:
                kp = kp + q + 1
                if kp > KP_MAX:
                    kp = KP_MAX
            if u == 0:
                krp = krp + 4
                if krp > KRP_MAX:
                    krp = KRP_MAX
            else:
                krp = krp - 5 if krp > 5 else 0
            pos += 1
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
                if nbits >= 8:
                    drop = nbits & 7
                    buf += (acc >> drop).to_bytes(nbits >> 3, "big")
                    acc &= (1 << drop) - 1
                    nbits = drop
                krp = krp + 4
                if krp > KRP_MAX:
                    krp = KRP_MAX
                pos = p
            else:
                v = vals[p]
                u = 2 * v if v >= 0 else -2 * v - 1
                um1 = u - 1
                q = um1 >> k
                # flag bit, run length over kr bits, then GR code of u - 1
                if q < Q_CAP:
                    body = (((1 << q) - 1) << (k + 1)) | (um1 & ((1 << k) - 1))
                    blen = q + 1 + k
                else:
                    if um1 >= (1 << ESCAPE_BITS):
                        raise ValueError("coefficient magnitude exceeds escape range")
                    body = (((1 << Q_CAP) - 1) << (ESCAPE_BITS + 1)) | um1
                    blen = Q_CAP + 1 + ESCAPE_BITS
                    q = Q_CAP
                acc = (acc << (1 + kr + blen)) \
                    | ((((1 << kr) | (p - pos)) << blen) | body)
                nbits += 1 + kr + blen
                if nbits >= 8:
                    drop = nbits & 7
                    buf += (acc >> drop).to_bytes(nbits >> 3, "big")
                    acc &= (1 << drop) - 1
                    nbits = drop
                if q == 0:
                    kp = kp - 2 if kp > 2 else 0
                elif q > 1:
                    kp = kp + q + 1
                    if kp > KP_MAX:
                        kp = KP_MAX
                krp = krp - 6 if krp > 6 else 0
                pos = p + 1
    if nbits:
        buf.append((acc << (8 - nbits)) & 0xFF)
    return bytes(buf)


def rlgr_decode(data, count):
    """Decode exactly count signed integers from bytes.

    Mirror of the inlined encoder loop; see the note on rlgr_encode.
    """
    data = bytes(data)
    pad = data + b"\x00" * 9        # lets _gr_scan slice fixed windows
    bits_total = len(data) << 3
    out = [0] * count
    bit = 0                         # bit cursor into data
    kp, krp = KP_INIT, KRP_INIT
    pos = 0
    while pos < count:
        k = kp >> 4
        kr = krp >> 4
        if kr == 0:
            u, q, bit = _gr_scan(data, pad, bit, bits_total, k)
            out[pos] = (u >> 1) if (u & 1) == 0 else -((u + 1) >> 1)
            if q == 0:
                kp = kp - 2 if kp > 2 else 0
            elif q > 1:
                kp = kp + q + 1
                if kp > KP_MAX:
                    kp = KP_MAX
            if u == 0:
                krp = krp + 4
                if krp > KRP_MAX:
                    krp = KRP_MAX
            else:
                krp = krp - 5 if krp > 5 else 0
            pos += 1
        else:
            run_cap = 1 << kr
            if bit >= bits_total:
                raise CorruptStream("bitstream truncated")
            flag = (data[bit >> 3] >> (7 - (bit & 7))) & 1
            bit += 1
            if flag == 0:
                left = count - pos
                pos += run_cap if run_cap < left else left
                krp = krp + 4
                if krp > KRP_MAX:
                    krp = KRP_MAX
            else:
                end = bit + kr
                if end > bits_total:
                    raise CorruptStream("bitstream truncated")
                stop = (end + 7) >> 3
                m = (int.from_bytes(data[bit >> 3:stop], "big")
                     >> ((stop << 3) - end)) & ((1 << kr) - 1)
                bit = end
                pos += m
                u, q, bit = _gr_scan(data, pad, bit, bits_total, k)
                u += 1
                if pos >= count:
                    raise CorruptStream("run-mode value past plane end")
                out[pos] = (u >> 1) if (u & 1) == 0 else -((u + 1) >> 1)
                if q == 0:
                    kp = kp - 2 if kp > 2 else 0
                elif q > 1:
                    kp = kp + q + 1
                    if kp > KP_MAX:
                        kp = KP_MAX
                krp = krp - 6 if krp > 6 else 0
                pos += 1
    return np.array(out, dtype=np.int64)


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
                         hierarchy.depth, int(config.scaling), cloud.channels,
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

    Fields outside the range an encoder writes (order, scaling flag,
    colorspace, modes, steps) raise CorruptStream instead of steering the
    decoder, and so does any tau but 0.0: the slot is reserved.  An altered
    value inside its range is not detected here.
    """
    base = struct.calcsize("<4sBBBBBB")
    if len(data) < base:
        raise CorruptStream("stream shorter than fixed header")
    magic, version, order, depth, scaling, channels, cspace = struct.unpack_from(
        "<4sBBBBBB", data, 0)
    if magic != MAGIC:
        raise CorruptStream("bad magic")
    if version != VERSION:
        raise CorruptStream("unsupported version %d" % version)
    if order not in (1, 2):
        raise CorruptStream("unsupported spline order %d" % order)
    if scaling > 1:
        raise CorruptStream("bad scaling flag %d" % scaling)
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
    return {"order": order, "depth": depth, "scaling": bool(scaling),
            "channels": channels, "colorspace": COLORSPACE_NAMES[cspace],
            "modes": modes, "k": k_order, "steps": steps,
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
                             approx=ApproxConfig(order=head["k"]),
                             scaling=head["scaling"])
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
