"""Frozen encode output: any change to the bytes of a stream shows here.

The digests pin the streams of format VERSION 3.  A change that is meant to
alter the bytes must bump VERSION and record the digests again.  DECODED
pins what decode returns for each of these streams.  The mode in each key
is the requested residual_mode, which no longer changes the bytes: order 1
codes critical planes and order 2 overcomplete planes either way.
"""

import hashlib
import struct

import numpy as np
import pytest
import scipy.sparse as sp

from rahtp import codec
from rahtp.codec import (CorruptStream, decode, encode, parse_header,
                         rlgr_decode, rlgr_encode)
from rahtp.evalcli import builtin_clouds, make_synthetic_cloud
from rahtp.geometry import build_hierarchy
from rahtp.kernels import build_a_matrix, gram_levels
from rahtp.transform import (TransformConfig, TransformPlan,
                             apply_basis_scaling)

GOLDEN = {
    ("sphere200", 1, "overcomplete"):
        "d0250d32ffe70dc57ef700a7492f68ce77a9e910a5d03e71b3fc2616c4631ee6",
    ("sphere200", 1, "critical"):
        "d0250d32ffe70dc57ef700a7492f68ce77a9e910a5d03e71b3fc2616c4631ee6",
    ("sphere200", 2, "overcomplete"):
        "8e0a4da7d6919594f33061131323bda23ac260f0f1343238931580f4f4633e07",
    ("sphere200", 2, "critical"):
        "8e0a4da7d6919594f33061131323bda23ac260f0f1343238931580f4f4633e07",
    ("torus3000", 1, "overcomplete"):
        "11fc6c176917edf1e4b478e94ffbb0e1b2f8bf70a19858f95ec14e4f783fb7c5",
    ("torus3000", 1, "critical"):
        "11fc6c176917edf1e4b478e94ffbb0e1b2f8bf70a19858f95ec14e4f783fb7c5",
    ("torus3000", 2, "overcomplete"):
        "7040c4d9c540f02e8c58e96c413a01cfae7829b92c165be18a3b8f488566a8b4",
    ("torus3000", 2, "critical"):
        "7040c4d9c540f02e8c58e96c413a01cfae7829b92c165be18a3b8f488566a8b4",
}


# sha256 of decode's float64 attribute bytes for each golden stream.  The
# four order-2 ones were recorded before the order-1 plan stopped building
# Grams and the two order-1 critical ones when format v2 coded them in
# closed form; both held through format v3.  Since v3 the order-1
# overcomplete requests decode to their critical twins
DECODED = {
    ("sphere200", 1, "overcomplete"):
        "17e243ca0a66ea403cc80c5163afe4f8880d81a4d8fd0015c4c48da3828c89aa",
    ("sphere200", 1, "critical"):
        "17e243ca0a66ea403cc80c5163afe4f8880d81a4d8fd0015c4c48da3828c89aa",
    ("sphere200", 2, "overcomplete"):
        "e38b227f99ea2498c4b4623d3e7be2e6a64fd0c2d0e2c745431649360ddc1bb5",
    ("sphere200", 2, "critical"):
        "e38b227f99ea2498c4b4623d3e7be2e6a64fd0c2d0e2c745431649360ddc1bb5",
    ("torus3000", 1, "overcomplete"):
        "8a4ce5731cc8bbaf033ff9f18b2c387631a29b12e2174e9bc098665799d2e494",
    ("torus3000", 1, "critical"):
        "8a4ce5731cc8bbaf033ff9f18b2c387631a29b12e2174e9bc098665799d2e494",
    ("torus3000", 2, "overcomplete"):
        "4e61f3afbd25237674b71b43533e5b9121e5e0e556a63ba1ba92b3524de1eaba",
    ("torus3000", 2, "critical"):
        "4e61f3afbd25237674b71b43533e5b9121e5e0e556a63ba1ba92b3524de1eaba",
}


def _cloud(name):
    if name == "sphere200":
        return builtin_clouds()["sphere200"]
    if name == "noisy_sphere":
        return make_synthetic_cloud("sphere", count=20000, depth=8, seed=2,
                                    noise=3.0)
    return make_synthetic_cloud("torus", count=3000, depth=5, seed=3)


@pytest.mark.parametrize("name,order,mode", sorted(GOLDEN))
def test_encode_bytes_frozen(name, order, mode):
    cloud = _cloud(name)
    config = TransformConfig(order=order, residual_mode=mode)
    blob, _ = encode(cloud, config, 1.0, colorspace="bt709")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[(name, order, mode)]


@pytest.mark.parametrize("name", ["sphere200", "torus3000", "noisy_sphere"])
def test_order1_plan_from_counts_matches_generic_scaling(name):
    # the order-1 plan builds its synthesis matrices from the links and
    # voxel counts and no Gram, which holds only because the generic path
    # gives a scaled Gram that is exactly the identity on every level and
    # the same A' to the bit as the A'^T block of each S
    h = build_hierarchy(_cloud(name), 1)
    a_mats = [build_a_matrix(h.levels[l], h.levels[l + 1], 1)
              for l in range(h.depth)]
    scaled_a, scaled_g = apply_basis_scaling(gram_levels(h, a_mats), a_mats)
    plan = TransformPlan(h, TransformConfig(order=1))
    assert plan.grams is None and plan.a_mats is None
    assert len(scaled_a) == len(plan.critical) == h.depth
    for generic, s in zip(scaled_a, plan.critical):
        counted = sp.csr_matrix(s[:, :generic.shape[0]].T)
        counted.sort_indices()
        assert generic.has_sorted_indices
        assert generic.shape == counted.shape and generic.nnz == counted.nnz
        for part in ("indptr", "indices"):
            assert np.array_equal(getattr(generic, part),
                                  getattr(counted, part)), part
        assert generic.data.tobytes() == counted.data.tobytes()
    for g in scaled_g:
        assert (g != sp.identity(g.shape[0], format="csr")).nnz == 0


@pytest.mark.parametrize("name,order,mode", sorted(GOLDEN))
def test_decode_output_frozen(name, order, mode):
    cloud = _cloud(name)
    config = TransformConfig(order=order, residual_mode=mode)
    blob, _ = encode(cloud, config, 1.0, colorspace="bt709")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[(name, order, mode)]
    attrs, _ = decode(blob, cloud)
    raw = np.ascontiguousarray(attrs, dtype="<f8").tobytes()
    assert hashlib.sha256(raw).hexdigest() == DECODED[(name, order, mode)]


@pytest.mark.parametrize("name,order,mode", sorted(GOLDEN))
def test_decode_output_frozen_on_the_held_and_a_rebuilt_geometry(
        monkeypatch, name, order, mode):
    # decoding onto the object just encoded reuses the encode's geometry
    # and plan, also for the order-1 critical streams; onto an equal new
    # cloud it rebuilds them
    cloud = _cloud(name)
    config = TransformConfig(order=order, residual_mode=mode)
    blob, _ = encode(cloud, config, 1.0, colorspace="bt709")
    builds = []
    build = codec.build_hierarchy
    monkeypatch.setattr(codec, "build_hierarchy",
                        lambda *args: builds.append(args) or build(*args))
    equal = type(cloud)(positions=cloud.positions.copy(),
                        attributes=cloud.attributes.copy(),
                        depth=cloud.depth, channels=cloud.channels)
    for geometry, rebuilds in ((cloud, 0), (equal, 1)):
        attrs, _ = decode(blob, geometry)
        assert len(builds) == rebuilds
        raw = np.ascontiguousarray(attrs, dtype="<f8").tobytes()
        assert hashlib.sha256(raw).hexdigest() == DECODED[(name, order, mode)]


# the one-voxel builtin cloud's order-2 stream at K=16 and step 1, as a
# format v1 encoder wrote it when order 2 still attempted critical planes:
# its one level is critical, with a plane of zero rows
SINGLE_ORDER2_CRITICAL_V1 = bytes.fromhex(
    "524148540102010103006310000000000000000000000000000000f03f00000000"
    "0000f03f000000000000f03f01000000c3f5cc9bd28814a60b000000ffffffffffff"
    "00000080000000000005000000ffffffff000000000003000000ffff0000000000")


def test_v1_stream_raises_corrupt_stream():
    cloud = builtin_clouds()["single"]
    with pytest.raises(CorruptStream, match="^unsupported version 1$"):
        decode(SINGLE_ORDER2_CRITICAL_V1, cloud)
    # order 2 codes that level overcomplete when critical is requested
    critical = TransformConfig(order=2, residual_mode="critical")
    blob, stats = encode(cloud, critical, 1.0)
    assert stats["modes"] == "o"
    assert blob == encode(cloud, TransformConfig(order=2), 1.0)[0]
    assert decode(blob, cloud)[0].tolist() == [[128.0, 64.0, 32.0]]


# the one-voxel builtin cloud's order-1 critical stream at K=16 and step 1,
# as a format v2 encoder wrote it: one 'c' mode byte after the colorspace
SINGLE_ORDER1_CRITICAL_V2 = bytes.fromhex(
    "524148540201010300631000000000000000f03f000000000000f03f00000000"
    "0000f03f01000000c3f5cc9bd28814a6023efc840b00000048868eb2ffffffff"
    "ffff0000008000000000000000000005000000ffffffffffffffff0000000000"
    "00000000030000008d10fdd2ffff000000000000000000")


def test_v2_stream_raises_corrupt_stream():
    cloud = builtin_clouds()["single"]
    with pytest.raises(CorruptStream, match="^unsupported version 2$"):
        decode(SINGLE_ORDER1_CRITICAL_V2, cloud)
    # the v3 stream of the same request is the v2 stream without its mode
    # byte, under another version and header CRC
    blob, stats = encode(cloud, TransformConfig(order=1), 1.0)
    assert stats["modes"] == "c"
    _, off = parse_header(blob)
    v2 = SINGLE_ORDER1_CRITICAL_V2
    assert blob[4] == 3 and v2[9:10] == b"c"
    assert blob[5:off - 4] == v2[5:9] + v2[10:off - 3]
    assert blob[off:] == v2[off + 1:]
    assert decode(blob, cloud)[0].tolist() == [[128.0, 64.0, 32.0]]


def _flip_bits(data, rng, nflips):
    out = bytearray(data)
    for p in rng.choice(len(out) * 8, nflips, replace=False):
        out[p >> 3] ^= 0x80 >> (p & 7)
    return bytes(out)


@pytest.mark.parametrize("name,order,mode", sorted(GOLDEN))
def test_fuzzed_v2_streams_raise_only_corrupt_stream(name, order, mode):
    # on the streams of the current format (v3; the name dates from v2):
    # the header CRC and one CRC per plane catch every 1-3 bit flip, and a
    # truncated header never reads past the data
    cloud = _cloud(name)
    config = TransformConfig(order=order, residual_mode=mode)
    blob, _ = encode(cloud, config, 1.0, colorspace="bt709")
    _, header_end = parse_header(blob)
    rng = np.random.default_rng(23)
    cases = [blob[:i] for i in range(header_end)]
    cases += [_flip_bits(blob, rng, n) for n in (1, 2, 3) * 67][:200]
    cases.append(blob[:8] + bytes([blob[8] ^ 1]) + blob[9:])   # colorspace
    for bad in cases:
        with pytest.raises(CorruptStream):
            decode(bad, cloud)


@pytest.mark.parametrize("name,order,mode", sorted(GOLDEN))
def test_decoder_reads_frozen_planes(name, order, mode):
    # RLGR is a prefix code, so re-encoding each decoded plane to the same
    # bytes fixes the decoded symbols
    cloud = _cloud(name)
    config = TransformConfig(order=order, residual_mode=mode)
    blob, _ = encode(cloud, config, 1.0, colorspace="bt709")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[(name, order, mode)]
    head, off = parse_header(blob)
    levels = build_hierarchy(cloud, order).levels
    counts = [len(levels[0].nodes)] + [
        len(levels[l + 1].nodes) - (len(levels[l].nodes) if m == "c" else 0)
        for l, m in enumerate(head["modes"])]
    for _ in range(head["channels"]):
        for count in counts:
            (blen,) = struct.unpack_from("<I", blob, off)
            plane = blob[off + 8:off + 8 + blen]
            off += 8 + blen
            assert rlgr_encode(rlgr_decode(plane, count)) == plane
    assert off == len(blob)
