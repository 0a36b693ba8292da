import gc
import hashlib
import mmap
import struct
import sys
import threading
import tracemalloc
import types
import warnings
import weakref
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import rahtp
from rahtp import codec
from rahtp.codec import (CorruptStream, bt709_to_rgb, decode, dequantize,
                         encode, parse_header, quantize, rgb_to_bt709,
                         rlgr_decode, rlgr_encode)
from rahtp.evalcli import builtin_clouds, make_synthetic_cloud
from rahtp.geometry import Hierarchy
from rahtp.spectral import ApproxConfig
from rahtp.transform import TransformConfig, TransformPlan

from _helpers import (random_cloud, reference_rlgr_decode,
                      reference_rlgr_encode, reference_rlgr_scan)
from test_golden import GOLDEN


def _codec_config(order=1, mode="overcomplete", k=16):
    return TransformConfig(order=order, residual_mode=mode,
                           approx=ApproxConfig(order=k))


def test_rlgr_decode_truncation_raises():
    rng = np.random.default_rng(4)
    vals = np.round(rng.laplace(0.0, 3.0, 2000)).astype(np.int64)
    data = rlgr_encode(vals)
    cases = [(data[:-1], len(vals)),
             (data[:len(data) // 2], len(vals)),
             (b"\xff\xff", 1),          # a unary run with no terminator
             (b"", 5)]
    for cut, count in cases:
        with pytest.raises(CorruptStream):
            rlgr_decode(cut, count)


def test_rlgr_roundtrip_distributions():
    rng = np.random.default_rng(0)
    for scale in (0.3, 3.0, 40.0):
        vals = np.round(rng.laplace(0.0, scale, 3000)).astype(np.int64)
        assert np.array_equal(rlgr_decode(rlgr_encode(vals), 3000), vals)


def test_rlgr_roundtrip_edge_streams():
    cases = [np.zeros(0, dtype=np.int64),
             np.zeros(7, dtype=np.int64),
             np.array([5], dtype=np.int64),
             np.array([-1, 1] * 500, dtype=np.int64),
             np.array([0] * 50 + [1 << 30] + [0] * 50, dtype=np.int64)]
    for vals in cases:
        assert np.array_equal(rlgr_decode(rlgr_encode(vals), len(vals)), vals)


def test_rlgr_rejects_values_beyond_escape_range():
    with pytest.raises(ValueError):
        rlgr_encode(np.array([1 << 40], dtype=np.int64))
    # the range check sits on the value coded: after a zero run that is
    # u - 1, so 2**31 (u - 1 = 2**32 - 1) fits there but not as a first,
    # regular-mode symbol
    after_run = np.array([0] * 50 + [1 << 31, 0], dtype=np.int64)
    data = rlgr_encode(after_run)
    assert np.array_equal(rlgr_decode(data, len(after_run)), after_run)
    with pytest.raises(ValueError):
        rlgr_encode(np.array([1 << 31], dtype=np.int64))
    with pytest.raises(ValueError):
        rlgr_encode(np.array([0] * 50 + [(1 << 31) + 1], dtype=np.int64))
    # an int64 zigzag wraps from |v| >= 2**62, so these must be rejected
    # before it, as the first symbol and after a zero run alike
    for big in (1 << 62, -(1 << 62), (1 << 63) - 1, -(1 << 63)):
        for lead in (0, 50):
            with pytest.raises(ValueError):
                rlgr_encode(np.array([0] * lead + [big], dtype=np.int64))


def test_rlgr_zero_run_size_frozen():
    # run mode collapses a long zero stream to a handful of full-run bits
    assert len(rlgr_encode(np.zeros(100_000, dtype=np.int64))) == 10


def test_rlgr_format_frozen():
    consts = (codec.KP_INIT, codec.KP_MAX, codec.KRP_INIT, codec.KRP_MAX,
              codec.Q_CAP, codec.ESCAPE_BITS)
    assert consts == (32, 384, 0, 192, 48, 32)
    # escapes at small k, k = KP_MAX >> 4 = 24 on +-2**28, full runs at
    # kr = 12, run-mode escapes, then small values
    esc, big = 1 << 30, 1 << 28
    vals = np.concatenate([[esc, -esc], np.tile([big, -big], 6),
                           np.zeros(40000, dtype=np.int64), [esc],
                           np.zeros(100, dtype=np.int64), [-esc],
                           np.arange(200) % 7 - 3]).astype(np.int64)
    data = rlgr_encode(vals)
    assert hashlib.sha256(data).hexdigest() == (
        "d7f72db6cce0909bad282e429947fa287adba2fc30a4c6199e36c5e6ab75def1")
    assert np.array_equal(rlgr_decode(data, len(vals)), vals)


def _differential_planes():
    """Named int64 planes for the comparison with the per-symbol encoder."""
    rng = np.random.default_rng(20)
    chunk = codec.PACK_CHUNK
    for scale in (0.05, 0.3, 3.0, 40.0, 1e3, 1e6):
        vals = np.round(rng.laplace(0.0, scale, 5000)).astype(np.int64)
        yield "laplace %g" % scale, vals
        vals[rng.random(len(vals)) < 0.8] = 0
        yield "laplace %g, 80%% zeros" % scale, vals
    for n in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
        scale = 3.0 if n % 2 else 200.0
        yield "length %d" % n, np.round(
            rng.laplace(0.0, scale, n)).astype(np.int64)
    # a zero run and escapes on both sides of chunk boundaries
    vals = np.round(rng.laplace(0.0, 0.3, 3 * chunk)).astype(np.int64)
    vals[chunk - 300:chunk + 300] = 0
    vals[chunk + 300] = 1 << 31
    vals[2 * chunk - 1:2 * chunk + 1] = [1 << 30, -(1 << 31)]
    yield "boundaries", vals
    # escapes in regular mode (small k) and in run mode; at k = 24, codewords
    # of 66 and 64 bits
    esc, big = 1 << 30, 1 << 28
    yield "escapes", np.array([esc, -esc, -(1 << 31), 0, 1 - (1 << 31)]
                              + [big, -big] * 8
                              + [350_000_000, -(39 << 23) - 1]
                              + [0] * 300 + [esc] + [0] * 40
                              + [-(1 << 31), 1], dtype=np.int64)
    yield "format frozen", np.concatenate(
        [[esc, -esc], np.tile([big, -big], 6), np.zeros(40000, dtype=np.int64),
         [esc], np.zeros(100, dtype=np.int64), [-esc],
         np.arange(200) % 7 - 3]).astype(np.int64)
    # the edges of regular-mode stretches: zero runs of 1-20 between values
    # whose magnitudes climb to 2**28 and back, so that k spans 0..24
    vals = []
    for e in list(range(28)) + list(range(27, -1, -1)):
        for _ in range(6):
            vals += [0] * int(rng.integers(1, 21))
            vals.append(int(rng.integers(1 << e, 2 << e))
                        * int(rng.choice([-1, 1])))
    yield "zero runs", np.array(vals, dtype=np.int64)
    # krp reaches 16 on the last position: the fourth zero of a stretch
    yield "krp 16 at the end", np.array([7] * 10 + [0] * 4, dtype=np.int64)
    yield "krp 16 at the end after runs", np.array(
        vals[:300] + [5, -9, 2] * 12 + [0] * 4, dtype=np.int64)
    # an escape as the first value, right after a run and right after the
    # zero that ends a stretch
    yield "escape first", np.array([esc, 2, -3] + [0] * 30 + [-esc, 0, 5],
                                   dtype=np.int64)
    yield "escape after a stretch", np.array([3, 0, 0, 0, 0, esc, 1],
                                             dtype=np.int64)
    # out of range: both encoders must raise
    for bad in ((1 << 31) + 1, -(1 << 31) - 1, 1 << 62, -(1 << 63)):
        vals = np.round(rng.laplace(0.0, 3.0, chunk + 50)).astype(np.int64)
        vals[chunk + 20] = bad
        yield "out of range %d" % bad, vals


def _encode_or_error(encoder, vals):
    try:
        return encoder(vals)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("chunk", [None, 61])
def test_rlgr_encode_matches_per_symbol_reference(monkeypatch, chunk):
    # the two-pass encoder writes the per-symbol encoder's bytes, or raises
    # where it raises, whatever the pack's chunk size
    planes = list(_differential_planes())
    if chunk is not None:
        monkeypatch.setattr(codec, "PACK_CHUNK", chunk)
    for name, vals in planes:
        want = _encode_or_error(reference_rlgr_encode, vals)
        got = _encode_or_error(rlgr_encode, vals)
        assert got == want, name
        assert (want is ValueError) == name.startswith("out of range"), name
        if want is not ValueError:
            assert np.array_equal(rlgr_decode(got, len(vals)), vals), name


def _scan_or_error(scan, us):
    try:
        return scan(us)
    except ValueError:
        return ValueError


def test_rlgr_scan_matches_per_symbol_reference():
    # the stretch loops record the per-symbol scan's k per position and
    # run-mode prefixes, or raise where it raises.  The zigzag is
    # rlgr_encode's, which wraps for |v| >= 2**62 where rlgr_encode has
    # already refused the plane
    raised = []
    for name, vals in _differential_planes():
        us = ((vals << 1) ^ (vals >> 63)).tolist()
        want = _scan_or_error(reference_rlgr_scan, us)
        assert _scan_or_error(codec._rlgr_scan, us) == want, name
        if want is ValueError:
            raised.append(name)
    assert raised == ["out of range %d" % (1 << 31 | 1),
                      "out of range %d" % (-(1 << 31) - 1)]


def _decode_or_error(decoder, data, count):
    try:
        return decoder(data, count)
    except CorruptStream as exc:
        return "CorruptStream: %s" % exc


def test_rlgr_decode_matches_per_symbol_reference(monkeypatch):
    # the two-pass decoder returns the per-symbol decoder's array, or raises
    # CorruptStream with its message.  Each valid plane is compared whole;
    # the corrupt streams are made from its first 400 values, cut at every
    # byte, with 1-3 bits flipped and with one-bits before or after them,
    # and unpacked 61 positions at a time
    rng = np.random.default_rng(24)
    planes = [(name, vals) for name, vals in _differential_planes()
              if not name.startswith("out of range")]
    for name, vals in planes:
        data = rlgr_encode(vals)
        got = rlgr_decode(data, len(vals))
        assert got.dtype == np.int64, name
        assert np.array_equal(got, vals), name
        want = reference_rlgr_decode(data, len(vals))
        assert np.array_equal(want, vals), name
    monkeypatch.setattr(codec, "PACK_CHUNK", 61)
    for name, vals in planes:
        vals = vals[:400]
        data = rlgr_encode(vals)
        cases = [data[:i] for i in range(len(data) + 1)]
        if data:
            cases += [_flip_bits(data, rng, n) for n in (1, 2, 3) * 20]
        for n in range(8, 49, 8):
            cases += [b"\xff" * n + data, data + b"\xff" * n]
        for case in cases:
            want = _decode_or_error(reference_rlgr_decode, case, len(vals))
            got = _decode_or_error(rlgr_decode, case, len(vals))
            if isinstance(want, str):
                assert got == want, name
            else:
                assert isinstance(got, np.ndarray), (name, got)
                assert got.dtype == np.int64, name
                assert np.array_equal(got, want), name


def _stream_bits(data, count):
    """The bits that the count symbols of the valid stream data take,
    without its zero padding: the bits the per-symbol decoder reports left
    after the last symbol once a zero byte is appended."""
    msg = _decode_or_error(reference_rlgr_decode, data + b"\x00", count)
    left = int(msg.split()[1])          # "CorruptStream: <n> bits left ..."
    return 8 * len(data) + 8 - left


@pytest.mark.parametrize("after_run", [False, True])
@pytest.mark.parametrize("over", [1, 8, 25, 72])
def test_rlgr_decode_last_codeword_past_the_payload(over, after_run):
    # The last codeword codes q = 47 at k = 24, 72 bits, in a regular-mode
    # stretch or after a run-mode prefix, and the payload is cut over bits
    # before its end.  Cut 1 or 8 bits short, the decoder reads the same q
    # and the codeword runs past the last bit; 25 bits short, its unary
    # run ends at the last bit; 72 bits short, it starts on the empty run
    # at bits_total.  The stretch finds none of these at once, but the
    # result must be the per-symbol decoder's message.  A filler value
    # before it sets the stream length mod 8, so the cut falls on a byte.
    esc, r = 1 << 30, 0x5A5A5A
    lead = [esc] * 8                    # kp reaches KP_MAX: k = 24
    if after_run:
        lead += [0] * 30 + [esc]        # run mode from the fourth zero on
    for fill in range(1, 48):
        u_last = (47 << 24 | r) + after_run     # after a run, u - 1 is coded
        vals = np.array(lead + [fill << 23, u_last >> 1], dtype=np.int64)
        data = rlgr_encode(vals)
        end = _stream_bits(data, len(vals))
        if (end - over) % 8 == 0:
            break
    ks, prefixes = reference_rlgr_scan(((vals << 1) ^ (vals >> 63)).tolist())
    assert ks[-1] == 24
    assert (prefixes[-1][0] if prefixes else None) == (
        len(vals) - 1 if after_run else None)
    cut = data[:(end - over) >> 3]
    want = _decode_or_error(reference_rlgr_decode, cut, len(vals))
    assert want == "CorruptStream: bitstream truncated"
    assert _decode_or_error(rlgr_decode, cut, len(vals)) == want
    # and whole, with a padding byte, or asked for one value more, which
    # after a run is a zero from a full-run bit in the padding
    assert np.array_equal(rlgr_decode(data, len(vals)), vals)
    for case, count in ((data + b"\x00", len(vals)), (data, len(vals) + 1)):
        want = _decode_or_error(reference_rlgr_decode, case, count)
        got = _decode_or_error(rlgr_decode, case, count)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want) and want[-1] == 0


@pytest.mark.parametrize("zeros", [202, 203])
def test_rlgr_decode_codeword_after_the_longest_gaps(zeros):
    # zeros << 12 zeros put 255 or 256 bits of run-mode prefixes between
    # the first value and the second, the most and one more than the
    # decoder's byte per codeword holds.  The second codes q = 47 at k = 1
    vals = np.array([3] + [0] * (zeros << 12) + [48, 0, -5, 9 << 10, 7],
                    dtype=np.int64)
    data = rlgr_encode(vals)
    assert data == reference_rlgr_encode(vals)
    assert np.array_equal(rlgr_decode(data, len(vals)), vals)
    assert np.array_equal(reference_rlgr_decode(data, len(vals)), vals)


def test_rlgr_decode_memory_does_not_rise():
    # a plane the size of box-fresh-hirate's largest (about 95 KB for 149k
    # symbols); the per-symbol decoder with its list of windows and its list
    # of values peaked at 9.73 MB of tracemalloc on this plane
    rng = np.random.default_rng(5)
    vals = np.round(rng.laplace(0.0, 6.0, 149275)).astype(np.int64)
    data = rlgr_encode(vals)
    assert 95_000 < len(data) < 97_000
    tracemalloc.start()
    try:
        got = rlgr_decode(data, len(vals))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, vals)
    assert peak <= 9.73e6, peak


def test_rlgr_decode_rejects_bits_left_after_last_symbol():
    vals = np.array([3, -1, 0, 2], dtype=np.int64)
    data = rlgr_encode(vals)
    pad = (len(data) << 3) - 13     # the four symbols take 13 bits here
    assert np.array_equal(rlgr_decode(data, 4), vals)
    for bad in (data + b"\x00", data[:-1] + bytes([data[-1] | 1]),
                data[:-1] + bytes([data[-1] | (1 << (pad - 1))])):
        with pytest.raises(CorruptStream, match="left after"):
            rlgr_decode(bad, 4)


def _plane(payload):
    """One plane as the container holds it: length, CRC, payload."""
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def test_decode_rejects_an_extra_byte_in_a_plane():
    cl = builtin_clouds()["sphere200"]
    blob, _ = encode(cl, _codec_config(), 1.0)
    _, off = parse_header(blob)
    (blen,) = struct.unpack_from("<I", blob, off)
    start = off + 8
    bad = (blob[:off] + _plane(blob[start:start + blen] + b"\x00")
           + blob[start + blen:])
    with pytest.raises(CorruptStream, match="^plane 0 of channel 0: .*left"):
        decode(bad, cl)


def test_decode_names_the_plane_rlgr_rejects():
    cl = builtin_clouds()["sphere200"]
    blob, _ = encode(cl, _codec_config(), 1.0)
    _, off = parse_header(blob)
    (blen,) = struct.unpack_from("<I", blob, off)
    off += 8 + blen                     # the second plane of channel 0
    (blen,) = struct.unpack_from("<I", blob, off)
    start = off + 8
    bad = (blob[:off] + _plane(blob[start:start + blen - 1])
           + blob[start + blen:])
    with pytest.raises(CorruptStream,
                       match="^plane 1 of channel 0: bitstream truncated$"):
        decode(bad, cl)


def test_decode_names_the_plane_or_header_whose_crc_fails():
    cl = builtin_clouds()["sphere200"]
    blob, _ = encode(cl, _codec_config(), 1.0)
    _, off = parse_header(blob)
    with pytest.raises(CorruptStream, match="^header CRC mismatch$"):
        decode(_patched(blob, "<B", off - 1, blob[off - 1] ^ 4), cl)
    (blen,) = struct.unpack_from("<I", blob, off)
    off += 8 + blen                     # the second plane of channel 0
    with pytest.raises(CorruptStream,
                       match="^plane 1 of channel 0: CRC mismatch$"):
        decode(_patched(blob, "<B", off + 8, blob[off + 8] ^ 1), cl)


def _flip_bits(data, rng, nflips):
    out = bytearray(data)
    for p in rng.integers(0, len(out) * 8, nflips):
        out[p >> 3] ^= 0x80 >> (p & 7)
    return bytes(out)


def test_rlgr_decode_fuzz_only_corrupt_stream():
    rng = np.random.default_rng(17)
    planes = [np.round(rng.laplace(0.0, s, 300)).astype(np.int64)
              for s in (0.2, 3.0, 60.0)]
    mixed = np.zeros(400, dtype=np.int64)
    mixed[[0, 7, 90, 91, 250, 399]] = [1 << 30, -(1 << 30), 5, 1 << 30,
                                       -(1 << 30), -3]
    mixed[8:18] = 1             # coded at the k set by the escape before
    planes.append(mixed)        # escapes in plain and in run mode
    long_unary = b"\xff" * ((codec.Q_CAP + 7) // 8 + 1)
    for vals in planes:
        data = rlgr_encode(vals)
        assert np.array_equal(rlgr_decode(data, len(vals)), vals)
        cases = [data[:i] for i in range(len(data))]
        cases += [_flip_bits(data, rng, n) for n in (1, 2, 3) * 20]
        cases += [long_unary + data, data[:len(data) // 2] + long_unary]
        for bad in cases:
            try:
                out = rlgr_decode(bad, len(vals))
            except CorruptStream:
                continue
            assert out.dtype == np.int64 and out.shape == (len(vals),)
        # runs of 64-384 one-bits, past the run table's cap of 255: the
        # results recorded when the table held exact runs.  Prepended to
        # mixed, whose first codeword is an escape, they lengthen its unary
        # run, which reads as the same escape
        for n in range(8, 49, 8):
            ones = b"\xff" * n
            if vals is mixed:
                assert np.array_equal(rlgr_decode(ones + data, len(vals)),
                                      vals)
            else:
                with pytest.raises(CorruptStream, match="truncated"):
                    rlgr_decode(ones + data, len(vals))
            with pytest.raises(CorruptStream, match="truncated"):
                rlgr_decode(data[:len(data) // 2] + ones, len(vals))


def test_bit_tables_hold_one_capped_byte_per_bit(monkeypatch):
    # one table: the run of equal bits at each bit, capped at 127, plus 128
    # on a 0 bit; then the empty zero run at bits_total and the pad
    data = b"\xff" * 40 + b"\x7f\x00" + b"\xff" * 3
    bits_total = 8 * len(data)
    runs, win = codec._bit_tables(data)
    assert isinstance(runs, bytearray) and len(runs) >= bits_total + 1 + 73
    # capped runs of ones
    assert runs[0] == runs[320 - 127] == 127
    assert runs[320 - 126] == 126 and runs[321] == 7
    assert runs[bits_total - 1] == 1 and runs[bits_total - 24] == 24
    assert [codec._run_of_ones(runs, b) for b in (0, 1, 65, 300)] == [
        320, 319, 255, 20]
    # runs of zeros: bit 320 alone, then byte 41
    assert runs[320] == 128 + 1 and runs[328] == 128 + 8
    assert runs[335] == 128 + 1
    assert max(runs[0], runs[321], runs[336], runs[bits_total - 1]) < 128
    # the empty zero run at bits_total, then the pad, which _escape reads
    # as an escape and _run_of_ones never walks into
    assert runs[bits_total] == 128
    pad = runs[bits_total + 1:]
    assert len(pad) >= 73
    assert all(codec.Q_CAP <= t < 127 for t in pad)
    # _run_of_ones at the cap: runs of 127, 128 and 254 ones before a 0,
    # and runs of 127 and 254 that end at bits_total
    for n in (127, 128, 254):
        bits = np.array([1] * n + [0] * (-n % 8 or 8), dtype=np.uint8)
        ones, _ = codec._bit_tables(np.packbits(bits).tobytes())
        assert codec._run_of_ones(ones, 0) == n
    for n in (127, 254):
        lead = -n % 8 or 8
        bits = np.array([0] * lead + [1] * n, dtype=np.uint8)
        ones, _ = codec._bit_tables(np.packbits(bits).tobytes())
        assert codec._run_of_ones(ones, lead) == n
    # the inverted bits have the same runs, with the 0-bit flag flipped
    flipped, _ = codec._bit_tables(bytes(b ^ 0xFF for b in data))
    assert flipped[bits_total:] == runs[bits_total:]
    assert all(f == r ^ 128 for f, r in zip(flipped[:bits_total],
                                            runs[:bits_total]))
    assert len(win) == len(data) + 1
    # runs across the chunks the table is built in: against a per-bit count
    rng = np.random.default_rng(9)
    bits = np.repeat(np.arange(60) % 2, rng.integers(1, 300, 60))
    data = np.packbits(bits[:len(bits) // 8 * 8]).tobytes()
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tolist()
    counts = [0] * (len(bits) + 1)
    for i in reversed(range(len(bits))):
        same = i + 1 < len(bits) and bits[i + 1] == bits[i]
        counts[i] = counts[i + 1] + 1 if same else 1
    want = bytes(min(r, 127) + (0 if b else 128)
                 for r, b in zip(counts, bits)) + bytes([128])
    for chunk in (8, 64, 1 << 16):
        monkeypatch.setattr(codec, "TABLE_CHUNK", chunk)
        runs, _ = codec._bit_tables(data)
        assert runs[:len(bits) + 1] == want, chunk
        assert runs[len(bits) + 1:] == pad[:len(runs) - len(bits) - 1], chunk


def test_quantize_rounds_half_away_from_zero():
    vals = np.array([0.49, 0.5, -0.5, -1.49, -1.5, 2.5])
    assert quantize(vals, 1.0).tolist() == [0, 1, -1, -1, -2, 3]
    assert dequantize(np.array([3]), 0.5)[0] == 1.5
    # a nan step used to quantize every value to -2**63, an inf one to 0
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            quantize(vals, bad)


def test_bt709_known_points_and_inverse():
    white = np.array([[255.0, 255.0, 255.0]])
    yuv = rgb_to_bt709(white)
    assert yuv[0, 0] == pytest.approx(255.0)
    assert abs(yuv[0, 1]) < 1e-9 and abs(yuv[0, 2]) < 1e-9
    rng = np.random.default_rng(1)
    rgb = rng.uniform(0, 255, (200, 3))
    assert np.abs(bt709_to_rgb(rgb_to_bt709(rgb)) - rgb).max() < 1e-9


def test_encode_decode_roundtrip_accuracy():
    cl = random_cloud(50, 220, 3)
    cfg = _codec_config()
    blob, stats = encode(cl, cfg, steps=[0.1, 0.1, 0.1])
    recon, head = decode(blob, cl)
    assert recon.shape == cl.attributes.shape
    # quantization at step 0.1 on near-orthonormal planes stays well under
    # one integer level of the raw attributes
    assert np.abs(recon - cl.attributes).max() < 1.0
    assert stats["payload_bytes"] > 0
    assert head["order"] == 1 and head["depth"] == 3


def test_encode_deterministic_and_modes_in_header():
    cl = random_cloud(51, 150, 3)
    cfg = _codec_config(order=2, mode="critical")
    b1, s1 = encode(cl, cfg, steps=[1.0, 1.0, 1.0])
    b2, s2 = encode(cl, cfg, steps=[1.0, 1.0, 1.0])
    assert b1 == b2
    _, head = decode(b1, cl)
    assert head["modes"] == s1["modes"]
    assert set(head["modes"]) <= {"c", "o"}


def test_decode_rejects_wrong_geometry():
    cl = random_cloud(52, 100, 3)
    other = random_cloud(53, 100, 3)
    blob, _ = encode(cl, _codec_config(), steps=[1.0, 1.0, 1.0])
    with pytest.raises(CorruptStream):
        decode(blob, other)


def test_decode_rejects_tampered_stream():
    cl = random_cloud(54, 80, 3)
    blob, _ = encode(cl, _codec_config(), steps=[1.0, 1.0, 1.0])
    with pytest.raises(CorruptStream):
        decode(b"JUNK" + blob[4:], cl)
    with pytest.raises(CorruptStream):
        decode(blob[:20], cl)


def test_encode_and_decode_reject_duplicate_voxels():
    cl = builtin_clouds()["sphere200"]
    dup = rahtp.PointCloud(
        positions=np.insert(cl.positions, 10, cl.positions[10], axis=0),
        attributes=np.insert(cl.attributes, 10, cl.attributes[10] + 100.0, axis=0),
        depth=cl.depth, channels=cl.channels)
    cfg = _codec_config()
    with pytest.raises(ValueError, match="distinct"):
        encode(dup, cfg, 1.0)
    # the geometry is checked before the stream's node count is
    blob, _ = encode(cl, cfg, 1.0)
    with pytest.raises(ValueError, match="distinct"):
        decode(blob, dup)


def test_encode_validates_steps():
    cl = random_cloud(55, 60, 3)
    with pytest.raises(ValueError):
        encode(cl, _codec_config(), steps=[1.0, 1.0])
    with pytest.raises(ValueError):
        encode(cl, _codec_config(), steps=[1.0, -1.0, 1.0])
    # parse_header's rule: 0 < step < inf, which also rejects nan
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            encode(cl, _codec_config(), steps=[1.0, bad, 1.0])


def test_encode_rejects_series_config_the_stream_cannot_carry():
    # the stream carries K as a u16 and no tolerance: a decoder running the
    # full series would not match an encoder that stopped early
    cl = random_cloud(57, 120, 3)
    for approx, what in ((ApproxConfig(order=64, tolerance=1e-2), "tolerance"),
                         (ApproxConfig(order=0x10000), "u16")):
        with pytest.raises(ValueError, match=what):
            encode(cl, TransformConfig(order=2, approx=approx), 1.0)


def test_bt709_colorspace_flag_roundtrip():
    cl = random_cloud(56, 120, 3)
    blob, _ = encode(cl, _codec_config(), steps=[0.1, 0.1, 0.1],
                     colorspace="bt709")
    recon, head = decode(blob, cl)
    assert head["colorspace"] == "bt709"
    assert np.abs(recon - cl.attributes).max() < 1.0


def _patched(blob, fmt, offset, value):
    out = bytearray(blob)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


def _forged(blob, edit):
    """blob with its header, CRC dropped, passed through edit and sealed
    again with a CRC of its own, so the checks behind the CRC see the edit."""
    _, off = parse_header(blob)
    header = edit(blob[:off - 4])
    return header + struct.pack("<I", zlib.crc32(header)) + blob[off:]


# offset of the first quantization step: after the colorspace and K
_STEPS_AT = 11


def _with_steps(blob, *steps):
    """blob with its first quantization steps replaced, header resealed."""
    def edit(header):
        for ch, step in enumerate(steps):
            header = _patched(header, "<d", _STEPS_AT + 8 * ch, step)
        return header
    return _forged(blob, edit)


@pytest.mark.parametrize("field", [
    "step=0", "step=-1", "step=nan", "step=inf", "tau=nan", "tau=-0.5",
    "tau=inf", "tau=100", "tau=1e-300", "order=3", "scaling=0", "scaling=7",
    "trailing", "mono_colorspace=1"])
def test_decode_rejects_hostile_header_fields(field):
    # each field is forged into a header sealed with a matching CRC.  tau
    # and scaling splice back the reserved slots of format v1, an f64
    # after K and a byte at offset 7: v3 has neither, so the CRC is read
    # where the fields say the header ends, inside the spliced header
    cl = builtin_clouds()["sphere200"]
    if field.startswith("mono"):
        # the encoder writes bt709 only for 3 channels
        cl = rahtp.PointCloud(positions=cl.positions,
                              attributes=cl.attributes[:, :1],
                              depth=cl.depth, channels=1)
    blob, _ = encode(cl, _codec_config(), 1.0)
    name, _, value = field.partition("=")
    if name == "step":
        bad = _with_steps(blob, float(value))
    elif name == "tau":
        bad = _forged(blob, lambda h: h[:_STEPS_AT] + struct.pack(
            "<d", float(value)) + h[_STEPS_AT:])
    elif name == "order":
        bad = _forged(blob, lambda h: _patched(h, "<B", 5, int(value)))
    elif name == "scaling":
        bad = _forged(blob, lambda h: h[:7] + bytes([int(value)]) + h[7:])
    elif name == "mono_colorspace":
        bad = _forged(blob, lambda h: _patched(h, "<B", 8, int(value)))
    else:
        bad = blob + b"\x00"
    with pytest.raises(CorruptStream):
        decode(bad, cl)


def test_huge_attributes_roundtrip_within_one_step():
    # plane norms past ~1e145 used to overflow the series' divergence
    # threshold with a bare OverflowError
    cl = builtin_clouds()["sphere200"]
    big = rahtp.PointCloud(positions=cl.positions,
                           attributes=cl.attributes * 1e150,
                           depth=cl.depth, channels=cl.channels)
    blob, _ = encode(big, _codec_config(), 1e150)
    recon, _ = decode(blob, big)
    assert np.abs(recon - big.attributes).max() <= 1e150


@pytest.mark.parametrize("order", [1, 2])
def test_decode_of_huge_patched_step_is_finite_or_corrupt(order):
    cl = builtin_clouds()["sphere200"]
    blob, _ = encode(cl, _codec_config(order=order), 1.0)
    bad = _with_steps(blob, 1e150)
    try:
        recon, _ = decode(bad, cl)
    except CorruptStream:
        return
    assert np.all(np.isfinite(recon))


@pytest.mark.parametrize("order,mode", [(1, "overcomplete"), (1, "critical"),
                                        (2, "overcomplete")])
def test_decode_of_largest_finite_steps_raises_corrupt_stream(order, mode):
    # parse_header accepts any finite positive step, and 1.7e308 times a
    # coded integer overflows on the way to the output; order 1 runs no
    # series that would notice
    cl = builtin_clouds()["sphere200"]
    blob, _ = encode(cl, _codec_config(order=order, mode=mode), 1.0)
    bad = _with_steps(blob, *[1.7e308] * cl.channels)
    with pytest.raises(CorruptStream, match="not finite|diverged"):
        decode(bad, cl)


@pytest.mark.parametrize("order,mode", [(1, "overcomplete"), (1, "critical"),
                                        (2, "overcomplete")])
def test_decode_rejects_overflowing_planes_before_any_transform_work(
        monkeypatch, order, mode):
    cl = builtin_clouds()["sphere200"]
    blob, _ = encode(cl, _codec_config(order=order, mode=mode), 1.0)
    bad = _with_steps(blob, *[1.7e308] * cl.channels)
    calls = _count_calls(monkeypatch, "synthesize")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptStream, match="plane 0 of channel 0 "
                           "dequantizes to values that are not finite"):
            decode(bad, cl)
    assert calls == []


@pytest.mark.parametrize("order", [1, 2])
def test_decode_ignores_the_geometry_clouds_attributes(order):
    cl = builtin_clouds()["sphere200"]
    blob, _ = encode(cl, _codec_config(order=order), 1.0)
    expected, _ = decode(blob, cl)
    geometry = _copy(cl, attributes=np.full_like(cl.attributes, np.nan))
    got, _ = decode(blob, geometry)
    assert got.tobytes() == expected.tobytes()
    # the decode that reuses the encoded object's geometry reads no
    # attributes either
    cl.attributes = geometry.attributes
    got, _ = decode(blob, cl)
    assert got.tobytes() == expected.tobytes()
    # encode still reads the attributes, so it still rejects them
    with pytest.raises(ValueError, match="non-finite attributes"):
        encode(geometry, _codec_config(order=order), 1.0)


def test_order1_codec_builds_no_gram_and_runs_no_series(monkeypatch):
    import rahtp.kernels
    import rahtp.spectral
    import rahtp.transform
    calls = []
    for owner in (rahtp.transform, rahtp.kernels, rahtp.spectral):
        for name in ("apply_series", "gram_levels", "build_a_matrix"):
            if hasattr(owner, name):
                def spy(*args, _name=name, _fn=getattr(owner, name), **kw):
                    calls.append(_name)
                    return _fn(*args, **kw)
                monkeypatch.setattr(owner, name, spy)
    cl = make_synthetic_cloud("torus", count=3000, depth=5, seed=3)
    blob, _ = encode(cl, TransformConfig(order=1), 1.0, colorspace="bt709")
    attrs, _ = decode(blob, cl)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[
        ("torus3000", 1, "overcomplete")]
    assert np.isfinite(attrs).all()
    assert calls == []


# encode's memo of the step-independent analysis (hierarchy, cascade and
# geometry digest): reused only for the same cloud object and content

def _count_calls(monkeypatch, *names):
    """Wrap codec-level bindings; returns the list of names called."""
    calls = []
    for name in names:
        def spy(*args, _name=name, _fn=getattr(codec, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(codec, name, spy)
    return calls


def _copy(cl, **fields):
    kw = dict(positions=cl.positions.copy(), attributes=cl.attributes.copy(),
              depth=cl.depth, channels=cl.channels)
    kw.update(fields)
    return rahtp.PointCloud(**kw)


def test_encode_analyzes_one_cloud_once_across_steps(monkeypatch):
    cl = make_synthetic_cloud("torus", count=3000, depth=5, seed=3)
    config = TransformConfig(order=2)
    calls = _count_calls(monkeypatch, "analyze", "build_hierarchy",
                         "geometry_digest")
    blobs = [encode(cl, config, step, colorspace="bt709")[0]
             for step in (1.0, 4.0, 1.0)]
    assert sorted(calls) == ["analyze", "build_hierarchy", "geometry_digest"]
    assert hashlib.sha256(blobs[2]).hexdigest() == \
        GOLDEN[("torus3000", 2, "overcomplete")]
    assert blobs[2] == blobs[0]
    # the hit path's step-4 stream is the one a fresh analysis writes
    assert blobs[1] == encode(_copy(cl), config, 4.0, colorspace="bt709")[0]
    assert len(calls) == 6


def _shift_last_voxel(cl):
    # sphere200's last voxel is (6, 6, 6); (7, 7, 7) is free and has the
    # largest key at depth 3, so the positions stay Morton-sorted
    cl.positions[-1] = [7, 7, 7]


@pytest.mark.parametrize("change", [
    "attributes in place", "positions in place", "equal new object", "K",
    "colorspace"])
def test_encode_reanalyzes_after_any_change(monkeypatch, change):
    cl = builtin_clouds()["sphere200"]
    config, colorspace = _codec_config(), "bt709"
    encode(cl, config, 1.0, colorspace=colorspace)
    if change == "attributes in place":
        cl.attributes[17, 1] += 0.5
    elif change == "positions in place":
        _shift_last_voxel(cl)
    elif change == "equal new object":
        cl = _copy(cl)
    elif change == "K":
        config = _codec_config(k=8)
    else:
        colorspace = "raw"
    calls = _count_calls(monkeypatch, "analyze")
    got, _ = encode(cl, config, 2.0, colorspace=colorspace)
    assert calls == ["analyze"]
    want, _ = encode(_copy(cl), config, 2.0, colorspace=colorspace)
    assert got == want
    assert len(calls) == 2


@pytest.mark.parametrize("order", [1, 2])
def test_requested_mode_does_not_change_the_bytes(monkeypatch, order):
    # the planes are a function of the order, so a request for the other
    # mode writes the same blob and hits the memo
    cl = builtin_clouds()["sphere200"]
    first, stats = encode(cl, _codec_config(order, "overcomplete"), 1.0)
    calls = _count_calls(monkeypatch, "analyze", "build_hierarchy")
    second, _ = encode(cl, _codec_config(order, "critical"), 1.0)
    assert second == first
    assert calls == []
    assert stats["modes"] == ("c" if order == 1 else "o") * 3


def test_memo_hit_keeps_every_check():
    cl = builtin_clouds()["sphere200"]
    config = _codec_config()
    encode(cl, config, 1.0)
    for bad in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="finite"):
            encode(cl, config, bad)
    with pytest.raises(ValueError, match="tolerance"):
        encode(cl, TransformConfig(approx=ApproxConfig(tolerance=1e-3)), 1.0)
    mono = _copy(cl, attributes=cl.attributes[:, :1].copy(), channels=1)
    encode(mono, config, 1.0)
    with pytest.raises(ValueError, match="bt709"):
        encode(mono, config, 1.0, colorspace="bt709")
    cl.attributes[3, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        encode(cl, config, 1.0)


def test_memo_holds_only_the_last_cloud():
    a, b = random_cloud(60, 150, 3), random_cloud(61, 150, 3)
    encode(a, _codec_config(), 1.0)
    coeffs = weakref.ref(codec._memo.coeffs)
    encode(b, _codec_config(), 1.0)
    assert coeffs() is None
    assert codec._memo.cloud() is b


def test_threads_sharing_the_memo_write_the_serial_bytes():
    a = make_synthetic_cloud("torus", count=3000, depth=5, seed=3)
    b = builtin_clouds()["sphere200"]
    config = TransformConfig(order=2)
    jobs = [(cl, step) for step in (0.5, 1.0, 4.0, 16.0) for cl in (a, b)]
    serial = [encode(_copy(cl), config, step)[0] for cl, step in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futs = [pool.submit(encode, cl, config, step) for cl, step in jobs]
            blobs = [f.result(timeout=120)[0] for f in futs]
    finally:
        sys.setswitchinterval(interval)
    assert blobs == serial


# decode onto the cloud object just encoded reuses the memo's geometry

def _spy_plans(monkeypatch, calls):
    """Append "TransformPlan" to calls on each TransformPlan construction."""
    init = TransformPlan.__init__

    def spy(self, *args, **kwargs):
        calls.append("TransformPlan")
        init(self, *args, **kwargs)

    monkeypatch.setattr(TransformPlan, "__init__", spy)


@pytest.mark.parametrize("order", [1, 2])
def test_decode_onto_the_encoded_cloud_rebuilds_no_geometry(monkeypatch,
                                                            order):
    cl = make_synthetic_cloud("torus", count=3000, depth=5, seed=3)
    config = TransformConfig(order=order)
    blob, _ = encode(cl, config, 4.0, colorspace="bt709")
    calls = _count_calls(monkeypatch, "build_hierarchy", "geometry_digest",
                         "_hash_array")
    _spy_plans(monkeypatch, calls)
    got, _ = decode(blob, cl)
    # one sha256 over the positions, and nothing rebuilt
    assert calls == ["_hash_array"]
    # a decode onto another object rebuilds all and hashes nothing
    want, _ = decode(blob, _copy(cl))
    assert sorted(calls[1:]) == ["TransformPlan", "build_hierarchy",
                                 "geometry_digest"]
    assert got.tobytes() == want.tobytes()


def _reachable(obj):
    """Every object reachable from obj by references, not entering types,
    modules or functions."""
    seen, stack = set(), [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType,
                                           types.FunctionType)):
            continue
        seen.add(id(o))
        yield o
        stack.extend(gc.get_referents(o))


def test_memo_holds_the_plan_in_a_mapping_without_the_hierarchy():
    cl = make_synthetic_cloud("torus", count=3000, depth=5, seed=3)
    for order in (2, 1):
        encode(cl, TransformConfig(order=order), 1.0)
        plan = codec._memo.plan
        assert not any(isinstance(o, Hierarchy) for o in _reachable(plan))
        # order 2: each A' and each series layer L; order 1: only each
        # critical synthesis matrix, which synthesize alone reads
        if order == 2:
            mats = plan.a_mats + [g.lm for g in plan.grams]
            assert plan.critical is None
        else:
            mats = plan.critical
            assert plan.a_mats is None and plan.grams is None
        depth = codec._memo.depth
        assert len(mats) == (2 * depth + 1 if order == 2 else depth)
        for part in (x for m in mats for x in (m.data, m.indices, m.indptr)):
            while isinstance(part, np.ndarray):
                part = part.base
            assert isinstance(part.obj, mmap.mmap)
        assert codec._memo.sizes[-1] == codec._memo.num_points == len(
            cl.positions)


def test_decode_after_positions_change_in_place_sees_the_new_geometry():
    cl = builtin_clouds()["sphere200"]
    blob, _ = encode(cl, _codec_config(), 1.0)
    _shift_last_voxel(cl)
    with pytest.raises(CorruptStream, match="geometry digest mismatch"):
        decode(blob, cl)


@pytest.mark.parametrize("name,order,mode,k", [
    ("sphere200", 1, "overcomplete", 0), ("sphere200", 1, "overcomplete", 8),
    ("sphere200", 2, "overcomplete", 16), ("pair", 1, "critical", 16)])
def test_decode_of_another_stream_onto_the_encoded_cloud(monkeypatch, name,
                                                         order, mode, k):
    # the memo holds the cloud at order 1, K=16, requested overcomplete; a
    # stream of order 2 decodes as onto a cold geometry, and an order-1
    # stream of any K or requested mode takes the held plan
    cl = builtin_clouds()[name]
    other, stats = encode(_copy(cl), _codec_config(order, mode, k), 2.0)
    assert stats["modes"] == ("c" if order == 1 else "o") * cl.depth
    encode(cl, _codec_config(), 1.0)
    calls = _count_calls(monkeypatch, "build_hierarchy")
    got, head = decode(other, cl)
    assert calls == ([] if order == 1 else ["build_hierarchy"])
    want, _ = decode(other, _copy(cl))
    assert (head["order"], head["k"]) == (order, k)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [1, 2])
def test_decode_of_another_k_takes_the_held_plan(monkeypatch, order):
    cl = make_synthetic_cloud("torus", count=3000, depth=5, seed=3)
    other, _ = encode(_copy(cl), _codec_config(order, k=8), 2.0)
    encode(cl, _codec_config(order, k=16), 1.0)
    calls = _count_calls(monkeypatch, "build_hierarchy")
    _spy_plans(monkeypatch, calls)
    got, head = decode(other, cl)
    assert head["k"] == 8 and calls == []
    want, _ = decode(other, _copy(cl))
    assert got.tobytes() == want.tobytes()


def test_threads_decoding_while_encodes_swap_the_memo_read_serial_outputs():
    a = make_synthetic_cloud("torus", count=3000, depth=5, seed=3)
    b = builtin_clouds()["sphere200"]
    config = TransformConfig(order=2)
    blobs = [(cl, encode(_copy(cl), config, step)[0])
             for step in (1.0, 4.0) for cl in (a, b)]
    serial = [decode(blob, _copy(cl))[0].tobytes() for cl, blob in blobs]
    stop = threading.Event()

    def swap():
        while not stop.is_set():
            for cl in (a, b):
                encode(cl, config, 2.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    swapper = threading.Thread(target=swap)
    swapper.start()
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futs = [pool.submit(decode, blob, cl)
                    for _ in range(3) for cl, blob in blobs]
            got = [f.result(timeout=120)[0].tobytes() for f in futs]
    finally:
        stop.set()
        swapper.join()
        sys.setswitchinterval(interval)
    assert got == serial * 3
