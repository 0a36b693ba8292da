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
value is 0 from one run table over the bits, and records each codeword's
k and q (after a run-mode prefix, also the prefix bits before it); its
unpack then sums those into start bits and reads the values.  It decodes
the sparse run-mode prefixes and the escapes itself.  Both scans run each
stretch of regular-mode positions as one tight inner loop.  The two scans
are the format and must stay in step with each other; packing and
unpacking only move bits.

Container layout (little endian):
  magic "RAHT" | version u8 | order u8 | depth u8 | channels u8
  | colorspace u8 | K u16 | quant steps (channels x f64) | node_count u32
  | geometry digest u64 | header CRC32 u32
  | per channel, per plane (lowpass then each level): u32 length
  + CRC32 u32 of the payload + payload

The header CRC covers every header byte before it.  The planes are a
function of the order, so the header stores no mode: every level of an
order-1 stream is critical ('c', N_{l+1} - N_l rows) and every level of an
order-2 stream overcomplete ('o', N_{l+1} rows).

The hierarchy, the analysis cascade and the geometry digest do not depend
on the quantization step, so encode keeps its last such result in a
one-entry memo.  A later encode of the same PointCloud object with the same
content, order, K and colorspace reuses it and only quantizes and
codes; any other call drops the entry and analyzes afresh.  The entry holds
a weak reference to the cloud, a sha256 over its positions and depth and
another over its attributes and the configuration, the geometry's depth,
node count per level and digest, the TransformPlan (which holds neither
the hierarchy nor K) and the coefficient planes.  The plan's arrays and
the planes each sit in an anonymous mapping of their own.

decode reads the same entry.  A stream decoded onto the cloud object just
encoded, with the entry's order and any K, and with positions that still
hash to the entry's, is checked against the held depth, node counts and
digest and synthesized on the held plan at the stream's K; the
hierarchy, digest and plan are not rebuilt.  Any other decode builds them
from the cloud it is given, and no decode changes the entry.
"""

import dataclasses
import hashlib
import mmap
import struct
import threading
import weakref
import zlib

import numpy as np

from .geometry import build_hierarchy, geometry_digest
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
VERSION = 3
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
    the run length in front of the codeword at p, which codes u - 1.
    Regular mode (krp < 16, kr = 0), which holds nearly all of a dense
    plane, runs as an inner for loop over its stretch of positions; a zero
    that lifts krp to 16 ends the stretch.  The loops are fully inlined:
    per-symbol helper calls double the runtime on million-coefficient
    planes.
    """
    n = len(us)
    ks = bytearray(b"\xff") * n
    prefixes = []
    kp, krp = KP_INIT, KRP_INIT
    pos = 0
    while pos < n:
        k = kp >> 4
        if krp < 16:                    # kr = 0: regular mode, no prefix
            for pos in range(pos, n):
                ks[pos] = k
                u = us[pos]
                if u == 0:              # q = 0
                    kp = kp - 2 if kp > 2 else 0
                    krp += 4            # krp < 16 here, far below KRP_MAX
                    if krp > 15:
                        break
                    k = kp >> 4
                    continue
                if krp:
                    krp = krp - 5 if krp > 5 else 0
                q = u >> k
                if q == 0:
                    kp = kp - 2 if kp > 2 else 0
                elif q > 1:
                    if q >= Q_CAP:
                        if u >> ESCAPE_BITS:
                            raise ValueError(
                                "coefficient magnitude exceeds escape range")
                        q = Q_CAP
                    kp += q + 1
                    if kp > KP_MAX:
                        kp = KP_MAX
                else:
                    continue            # q = 1: kp stays
                k = kp >> 4
            else:
                break
            pos += 1                    # run mode from the next position
            continue
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
            # clamps runs at the known plane length, so a full-run bit is
            # unambiguous at the tail
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


# _bit_tables builds its run table over this many bits at a time, which
# bounds its int32 temporaries; the table does not depend on it
TABLE_CHUNK = 1 << 16

# rlgr_decode records k + 1 for each codeword it locates, at most
# (KP_MAX >> 4) + 1 = 25, plus AFTER_RUN for one after a run-mode prefix,
# which codes u - 1
AFTER_RUN = 32


def _bit_tables(data):
    """Lookup tables over the payload bits of one plane; returns (runs, win).

    runs is a bytearray with one byte per bit: runs[p] is the length of the
    run of equal bits starting at bit p, capped at 127, plus 128 when bit p
    is 0.  So a codeword that starts at p has q = runs[p] when that is
    below 128 and q = 0 otherwise, and it codes u = 0 exactly when
    runs[p] > 128 + k.  A codeword of a valid stream starts on a run of at
    most Q_CAP ones, so only a corrupt stream reaches the cap, and
    _run_of_ones reads such a run exactly.  runs[bits_total] is 128, an
    empty run of zeros.  Then come 73 pad entries of Q_CAP, which the
    decoder reads as an escape that runs past the last bit: a codeword of
    q < Q_CAP is at most (Q_CAP - 1) + 1 + 24 = 72 bits, so the read after
    one that runs past the last bit lands on the empty run or in the pad,
    and no pad entry is 127, the cap _run_of_ones walks on.

    win is a read-only numpy view: win[b] is the 64-bit big-endian window
    starting at byte b of the data followed by 8 zero bytes, so any read of
    up to ESCAPE_BITS bits from an offset of at most 7 bits fits in one
    window.
    """
    padded = data + bytes(8)
    raw = np.frombuffer(padded, dtype=np.uint8)
    bits_total = len(data) << 3
    pad = Q_CAP + (KP_MAX >> 4) + 1
    runs = bytearray(bits_total) + bytes([128]) + bytes([Q_CAP]) * pad
    # per chunk of n bits from bit a, at[i] is the end of the run through
    # bit a + i, relative to a: the first bit after it that differs from
    # it, or bits_total, but at most n + 127, past which every run of the
    # chunk is capped anyway.  end and first are the end of the run
    # through the first bit of the chunk after, and that bit; for the last
    # chunk, built first, end = bits_total, so first may be anything
    end, first = bits_total, 0
    for a in reversed(range(0, bits_total, TABLE_CHUNK)):
        n = min(TABLE_CHUNK, bits_total - a)
        seg = np.unpackbits(raw[a >> 3:(a + n) >> 3])
        at = np.full(n, min(end - a, n + 127) if seg[-1] == first else n,
                     dtype=np.int32)
        change = np.flatnonzero(seg[1:] != seg[:-1])
        at[change] = change + 1
        at = np.minimum.accumulate(at[::-1])[::-1]
        end, first = a + int(at[0]), seg[0]
        run = np.minimum(at - np.arange(n, dtype=np.int32), 127)
        runs[a:a + n] = (run.astype(np.uint8) | ((seg ^ 1) << 7)).data
    win = np.ndarray((len(data) + 1,), dtype=">u8", buffer=padded,
                     strides=(1,))
    return runs, win


def _run_of_ones(runs, bit):
    """The exact length of the run of one-bits at bit, where the table
    runs caps it at 127: a run of 127 or more is 127 plus the run that
    starts 127 bits on.  The walk stops at the empty run at bits_total at
    the latest, as no pad entry is 127."""
    run = 0
    while runs[bit + run] == 127:
        run += 127
    t = runs[bit + run]
    return run + t if t < 128 else run


def _escape(runs, window, bit, bits_total):
    """(u, the bit after it) of the escape whose unary run starts at bit:
    Q_CAP or more ones, a 0 and ESCAPE_BITS bits of u.  An over-long unary
    run reads as an escape too, as it did in the per-symbol decoder."""
    bit += _run_of_ones(runs, bit) + 1
    end = bit + ESCAPE_BITS
    if end > bits_total:
        raise CorruptStream("bitstream truncated")
    return ((window(bit >> 3) >> (64 - ESCAPE_BITS - (bit & 7)))
            & ((1 << ESCAPE_BITS) - 1)), end


def rlgr_decode(data, count):
    """Decode exactly count signed integers from bytes.

    Two passes, mirroring the encoder.  The scan walks the codeword
    boundaries in Python, carrying kp/krp over the symbols.  One read of
    the run table at a codeword's start bit gives its quotient q and
    whether it codes u = 0, which is all kp and krp need (see _bit_tables).
    So a codeword with q < Q_CAP is only located: the scan records its k
    and q, and the unpack reads all their values at once in numpy,
    PACK_CHUNK positions at a time.  Regular mode runs as an inner for
    loop over its stretch of positions, one table read per codeword; a zero
    that lifts krp to 16 ends the stretch, and an escape leaves it.  Run
    mode decodes each prefix from the 64-bit windows and locates the
    codeword after a 1 flag like a regular one, recording also the gap of
    prefix bits since the codeword before (a head when it is 256 or more).
    Escapes are decoded in the scan, and after each one the scan records a
    head: a position and the bit from which the gaps of the codewords at
    and after it count.  So each located codeword starts at the last head,
    plus the lengths and gaps since.

    Any read past the last bit, a run-mode value past the plane end, 8 or
    more bits left after the last symbol, or a padding bit of 1 raises
    CorruptStream: the encoder writes none of them.  The stretch does not
    test each codeword against the last bit: the read after one that runs
    past it lands on the empty run or the pad, which _escape rejects, and
    one test after the scan covers the last codeword.
    """
    data = bytes(data)
    bits_total = len(data) << 3
    runs, win = _bit_tables(data)
    window = win.item               # win[b] as a Python int
    ks = bytearray(count)           # k + 1 per located codeword, else 0
    qs = bytearray(count)           # q per located codeword
    gaps = bytearray(count)         # prefix bits before one after a run
    heads = []                      # position, start bit, position, ...
    at, vals = [], []               # escapes: position, u (u + 1 after a run)
    bit = 0
    last = 0                        # where the last codeword or escape ends
    kp, krp = KP_INIT, KRP_INIT
    pos = 0
    while pos < count:
        if krp < 16:
            # regular mode: kr = 0, no prefix
            k1 = (kp >> 4) + 1          # k + 1, the length when q = 0
            for pos in range(pos, count):
                t = runs[bit]
                if t > 127:             # q = 0
                    ks[pos] = k1
                    bit += k1
                    kp = kp - 2 if kp > 2 else 0
                    if t > k1 + 127:    # and k zero bits: u = 0
                        krp += 4        # far below KRP_MAX
                        if krp > 15:
                            break
                    elif krp:
                        krp = krp - 5 if krp > 5 else 0
                    k1 = (kp >> 4) + 1
                elif t < Q_CAP:         # q = t
                    ks[pos] = k1
                    qs[pos] = t
                    bit += t + k1
                    if krp:
                        krp = krp - 5 if krp > 5 else 0
                    if t > 1:
                        kp += t + 1
                        if kp > KP_MAX:
                            kp = KP_MAX
                        k1 = (kp >> 4) + 1
                else:
                    break               # an escape, or the pad
            else:
                break
            if krp > 15:
                last = bit
                pos += 1                # run mode from the next position
                continue
            u, bit = _escape(runs, window, bit, bits_total)
            at.append(pos)
            vals.append(u)
            if u == 0:
                krp += 4                # krp < 16 here, far below KRP_MAX
            else:
                krp = krp - 5 if krp > 5 else 0
        else:
            # run mode: kr = krp >> 4 > 0
            kr = krp >> 4
            if runs[bit] > 127:
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
            krp = krp - 6 if krp > 6 else 0
            t = runs[bit]
            if t < Q_CAP or t > 127:
                # located, and the unpack adds the 1
                q = t if t < 128 else 0
                k1 = (kp >> 4) + 1
                end = bit + q + k1
                if end > bits_total:
                    raise CorruptStream("bitstream truncated")
                ks[pos] = k1 + AFTER_RUN
                qs[pos] = q
                gap = bit - last
                if gap < 256:
                    gaps[pos] = gap
                else:
                    heads += pos, bit
                bit = last = end
                if q == 0:
                    kp = kp - 2 if kp > 2 else 0
                elif q > 1:
                    kp = kp + q + 1
                    if kp > KP_MAX:
                        kp = KP_MAX
                pos += 1
                continue
            u, bit = _escape(runs, window, bit, bits_total)
            at.append(pos)
            vals.append(u + 1)
        # after an escape
        heads += pos + 1, bit
        last = bit
        kp = kp + Q_CAP + 1
        if kp > KP_MAX:
            kp = KP_MAX
        pos += 1
    if bit > bits_total:
        raise CorruptStream("bitstream truncated")
    left = bits_total - bit
    if left >= 8 or (left and (window(bit >> 3) >> (64 - (bit & 7) - left))
                     & ((1 << left) - 1)):
        raise CorruptStream("%d bits left after the last symbol" % left)
    del runs                        # the unpack does not read it
    return _rlgr_unpack(win, ks, qs, gaps, heads, at, vals)


def _rlgr_unpack(win, ks, qs, gaps, heads, at, vals):
    """The signed values of a scanned plane, as an int64 array.

    A codeword that the scan located (ks[p] != 0) is q + 1 + k bits long
    and starts gaps[p] bits after the end of the one located before it, or
    of the last head's bit when a head lies between them; before the first
    head, the first codeword starts at bit 0.  Per chunk of positions,
    numpy sums the gaps and lengths for every start, reads each codeword's
    k remainder bits from the window of the byte they start in and forms
    u = q << k | remainder, plus 1 after a run-mode prefix (ks[p] >
    AFTER_RUN).  The escapes are the scan's values, and the other positions
    stay 0.
    """
    count = len(ks)
    heads = np.array(heads, dtype=np.int64).reshape(-1, 2)
    head_pos, head_bits = heads[:, 0], heads[:, 1]
    cuts = np.searchsorted(head_pos,
                           np.arange(0, count + PACK_CHUNK, PACK_CHUNK))
    out = np.zeros(count, dtype=np.int64)
    nxt = 0                         # the bit the chunk's first gap counts from
    for c, a in enumerate(range(0, count, PACK_CHUNK)):
        m = min(PACK_CHUNK, count - a)
        kk = np.frombuffer(ks, dtype=np.uint8, count=m, offset=a)
        cw = np.flatnonzero(kk)
        kk = kk[cw]
        q = np.frombuffer(qs, dtype=np.uint8, count=m, offset=a)[cw]
        q = q.astype(np.int64)
        k = (kk & (AFTER_RUN - 1)).astype(np.int64) - 1
        # r: the first remainder bit, from the end of the codeword before
        r = np.frombuffer(gaps, dtype=np.uint8, count=m, offset=a)[cw]
        r = r + q + 1
        before = np.zeros(len(cw) + 1, dtype=np.int64)
        np.cumsum(r + k, out=before[1:])
        r += before[:-1]
        if cuts[c] == cuts[c + 1]:
            r += nxt
            nxt += int(before[-1])
        else:
            # a segment from each head to the next, by index into cw, and
            # one before them that continues from the chunk before; of
            # heads at one index, the last counts, as the others' segments
            # are empty
            hi = np.searchsorted(cw, head_pos[cuts[c]:cuts[c + 1]] - a)
            base = np.concatenate(([nxt], head_bits[cuts[c]:cuts[c + 1]]
                                   - before[hi]))
            r += np.repeat(base, np.diff(hi, prepend=0, append=len(cw)))
            nxt = int(base[-1] + before[-1])
        # the window wraps to int64; k + (r & 7) <= 31, so the shift and
        # mask never reach its sign
        w = win[r >> 3].astype(np.int64)
        u = (q << k) | ((w >> (64 - (r & 7) - k)) & ((1 << k) - 1))
        u += kk > AFTER_RUN
        out[a + cw] = (u >> 1) ^ -(u & 1)
    if at:
        u = np.array(vals, dtype=np.int64)
        out[at] = (u >> 1) ^ -(u & 1)
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
    plan: TransformPlan     # matrices in one mapping
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
    their dtype and shape) and the configuration.  encode refuses any
    series tolerance but None before it gets here."""
    h = hashlib.sha256()
    _hash_array(h, cloud.attributes)
    h.update(repr((cloud.channels, config.order, config.approx.order,
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
                      plan=plan,
                      coeffs=dataclasses.replace(coeffs, lowpass=lowpass,
                                                 highpass=highpass))
    with _memo_lock:
        _memo = entry
    return entry


def _held_geometry(cloud, head):
    """The memo's entry when it may stand in for cloud's geometry in
    decoding a stream with header head, else None.

    It may when cloud is the object the entry was encoded from, the
    stream's order is the entry's, and the positions and depth still hash
    to the entry's key.  The plan holds no K, so a stream of any K may.
    The identity check comes first, so a decode onto any other object
    hashes nothing.
    """
    with _memo_lock:
        entry = _memo
    if (entry is None or entry.cloud() is not cloud
            or entry.plan.order != head["order"]
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

    header = struct.pack("<4sBBBBB", MAGIC, VERSION, config.order,
                         entry.depth, cloud.channels, COLORSPACES[colorspace])
    header += struct.pack("<H", config.approx.order)
    header += struct.pack("<%dd" % cloud.channels, *steps)
    header += struct.pack("<IQ", entry.num_points, entry.digest)
    header += struct.pack("<I", zlib.crc32(header))

    planes = [coeffs.lowpass] + list(coeffs.highpass)
    payload = bytearray()
    payload_bytes = 0
    for ch in range(cloud.channels):
        for plane in planes:
            q = quantize(plane[:, ch], steps[ch])
            blob = rlgr_encode(q)
            payload += struct.pack("<II", len(blob), zlib.crc32(blob))
            payload += blob
            payload_bytes += len(blob)
    stats = {"header_bytes": len(header) + 8 * cloud.channels * len(planes),
             "payload_bytes": payload_bytes,
             "modes": coeffs.modes,
             "coeff_count": coeffs.total_coeffs()}
    return bytes(header) + bytes(payload), stats


def parse_header(data):
    """Validate the container header; returns (header dict, payload offset).

    A stream of another version, or whose header fails its CRC, raises
    CorruptStream.  So do fields outside the range an encoder writes
    (order, colorspace, steps, bt709 on other than 3 channels), which a
    header with a matching CRC can still hold.  The per-level modes come
    from the order: 'c' on every level of order 1, 'o' of order 2.
    """
    base = struct.calcsize("<4sBBBBB")
    if len(data) < base:
        raise CorruptStream("stream shorter than fixed header")
    magic, version, order, depth, channels, cspace = struct.unpack_from(
        "<4sBBBBB", data, 0)
    if magic != MAGIC:
        raise CorruptStream("bad magic")
    if version != VERSION:
        raise CorruptStream("unsupported version %d" % version)
    off = base + 2 + 8 * channels + 12
    if len(data) < off + 4:
        raise CorruptStream("stream shorter than its header")
    if zlib.crc32(data[:off]) != struct.unpack_from("<I", data, off)[0]:
        raise CorruptStream("header CRC mismatch")
    if order not in (1, 2):
        raise CorruptStream("unsupported spline order %d" % order)
    if cspace not in COLORSPACE_NAMES:
        raise CorruptStream("unknown colorspace id %d" % cspace)
    if COLORSPACE_NAMES[cspace] == "bt709" and channels != 3:
        raise CorruptStream("bt709 colorspace on %d channels, not 3"
                            % channels)
    (k_order,) = struct.unpack_from("<H", data, base)
    steps = np.array(struct.unpack_from("<%dd" % channels, data, base + 2))
    if not np.all((steps > 0.0) & (steps < np.inf)):
        raise CorruptStream("quantization steps must be finite and positive")
    node_count, digest = struct.unpack_from("<IQ", data, off - 12)
    return {"order": order, "depth": depth, "channels": channels,
            "colorspace": COLORSPACE_NAMES[cspace],
            "modes": ("c" if order == 1 else "o") * depth,
            "k": k_order, "steps": steps,
            "node_count": node_count, "digest": digest}, off + 4


def decode(data, cloud):
    """Decode attributes onto the provided geometry.

    cloud supplies the voxel positions (attributes ignored); they must hash
    to the digest in the header.  Returns (attributes, header dict).
    Decoding onto the cloud object that encode was last called with reuses
    that call's geometry and plan (see the module docstring); the output
    is the same either way.  A plane that fails its CRC, that RLGR rejects
    or that dequantizes to a non-finite value raises CorruptStream naming
    the plane and its channel, before any transform work, and a stream
    that decodes to a non-finite value raises it too.
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
    # every order-1 parent has a child, so a critical plane has >= 0 rows
    critical = head["order"] == 1
    counts = [sizes[0]] + [sizes[l + 1] - (sizes[l] if critical else 0)
                           for l in range(depth)]

    nch = head["channels"]
    planes = [np.zeros((c, nch)) for c in counts]
    for ch in range(nch):
        for p, plane in enumerate(planes):
            if off + 8 > len(data):
                raise CorruptStream("missing plane length")
            blen, crc = struct.unpack_from("<II", data, off)
            off += 8
            if off + blen > len(data):
                raise CorruptStream("plane payload truncated")
            payload = data[off:off + blen]
            if zlib.crc32(payload) != crc:
                raise CorruptStream("plane %d of channel %d: CRC mismatch"
                                    % (p, ch))
            try:
                q = rlgr_decode(payload, len(plane))
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
                      lowpass=planes[0], highpass=planes[1:])
    try:
        attrs = synthesize(hierarchy, coeffs, config, plan)
    except SeriesDivergence as exc:
        # at tau = 1/bound every series contracts on encoder-written planes;
        # divergence means the planes or steps were altered
        raise CorruptStream("series diverged: %s" % exc) from None
    if head["colorspace"] == "bt709":
        attrs = bt709_to_rgb(attrs)
    # finite planes can still sum past the float range; order 1 runs no
    # series that could catch that
    if not np.isfinite(attrs).all():
        raise CorruptStream("decoded attributes are not finite")
    return attrs, head
