import struct

import numpy as np
import pytest

import rahtp
from rahtp.codec import (CorruptStream, bt709_to_rgb, decode, dequantize,
                         encode, quantize, rgb_to_bt709, rlgr_decode,
                         rlgr_encode)
from rahtp.evalcli import builtin_clouds
from rahtp.spectral import ApproxConfig
from rahtp.transform import TransformConfig

from _helpers import random_cloud


def _codec_config(order=1, mode="overcomplete", k=16):
    return TransformConfig(order=order, residual_mode=mode,
                           approx=ApproxConfig(order=k), scaling=True)


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


def test_rlgr_zero_run_size_frozen():
    # run mode collapses a long zero stream to a handful of full-run bits
    assert len(rlgr_encode(np.zeros(100_000, dtype=np.int64))) == 10


def test_quantize_rounds_half_away_from_zero():
    vals = np.array([0.49, 0.5, -0.5, -1.49, -1.5, 2.5])
    assert quantize(vals, 1.0).tolist() == [0, 1, -1, -1, -2, 3]
    assert dequantize(np.array([3]), 0.5)[0] == 1.5
    with pytest.raises(ValueError):
        quantize(vals, 0.0)


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


@pytest.mark.parametrize("field", [
    "step=0", "step=-1", "step=nan", "step=inf", "tau=nan", "tau=-0.5",
    "tau=inf", "tau=100", "tau=1e-300", "order=3", "scaling=7", "trailing"])
def test_decode_rejects_hostile_header_fields(field):
    cl = builtin_clouds()["sphere200"]
    blob, _ = encode(cl, _codec_config(), 1.0)
    depth = blob[6]
    tau_at = 12 + depth            # after the mode bytes and the u16 K
    name, _, value = field.partition("=")
    if name == "step":
        bad = _patched(blob, "<d", tau_at + 8, float(value))
    elif name == "tau":
        bad = _patched(blob, "<d", tau_at, float(value))
    elif name == "order":
        bad = _patched(blob, "<B", 5, int(value))
    elif name == "scaling":
        bad = _patched(blob, "<B", 7, int(value))
    else:
        bad = blob + b"\x00"
    with pytest.raises(CorruptStream):
        decode(bad, cl)
