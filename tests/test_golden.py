"""Frozen encode output: any change to the bytes of a stream shows here.

The digests pin the streams of format VERSION 1.  A change that is meant to
alter the bytes must bump VERSION and record the digests again.  DECODED
pins what decode returns for each of these streams.
"""

import hashlib
import struct

import numpy as np
import pytest
import scipy.sparse as sp

from rahtp import codec, spectral
from rahtp.codec import (decode, encode, parse_header, rlgr_decode,
                         rlgr_encode)
from rahtp.evalcli import builtin_clouds, make_synthetic_cloud
from rahtp.geometry import build_hierarchy
from rahtp.kernels import build_a_matrix, gram_levels
from rahtp.transform import (TransformConfig, TransformPlan,
                             apply_basis_scaling)

from _helpers import force_row_split

GOLDEN = {
    ("sphere200", 1, "overcomplete"):
        "7dd431428791b3536efc135811741e9a93e91389acb84a7d778614a4ea4d655d",
    ("sphere200", 1, "critical"):
        "7dd431428791b3536efc135811741e9a93e91389acb84a7d778614a4ea4d655d",
    ("sphere200", 2, "overcomplete"):
        "2e4277f023354e4849d4bf0d52462ba4eabc8d5cca1a1e11b2e53341708d7fce",
    ("sphere200", 2, "critical"):
        "2e4277f023354e4849d4bf0d52462ba4eabc8d5cca1a1e11b2e53341708d7fce",
    ("torus3000", 1, "overcomplete"):
        "aa67a4ca7905325b75462a13991e808a66876e5345fd54e87676a2b61ad07fa2",
    ("torus3000", 1, "critical"):
        "aa67a4ca7905325b75462a13991e808a66876e5345fd54e87676a2b61ad07fa2",
    ("torus3000", 2, "overcomplete"):
        "21a41543e2f5c15bb1d0c91a22072a2f11f9c204fd0ebe3abd4f1c3aa81b97f6",
    ("torus3000", 2, "critical"):
        "21a41543e2f5c15bb1d0c91a22072a2f11f9c204fd0ebe3abd4f1c3aa81b97f6",
}


# sha256 of decode's float64 attribute bytes for each golden stream,
# recorded before the order-1 plan stopped building Grams
DECODED = {
    ("sphere200", 1, "overcomplete"):
        "144a7ad8c0d4231bcb09e11265a4f8d39603156892ad49a01f7c2877fc1f9fe9",
    ("sphere200", 1, "critical"):
        "144a7ad8c0d4231bcb09e11265a4f8d39603156892ad49a01f7c2877fc1f9fe9",
    ("sphere200", 2, "overcomplete"):
        "e38b227f99ea2498c4b4623d3e7be2e6a64fd0c2d0e2c745431649360ddc1bb5",
    ("sphere200", 2, "critical"):
        "e38b227f99ea2498c4b4623d3e7be2e6a64fd0c2d0e2c745431649360ddc1bb5",
    ("torus3000", 1, "overcomplete"):
        "41914fd100478cfdf4ebcd34d91438e5717a543a05447c47808c2ce3cb7bb8fd",
    ("torus3000", 1, "critical"):
        "41914fd100478cfdf4ebcd34d91438e5717a543a05447c47808c2ce3cb7bb8fd",
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


@pytest.mark.parametrize("name,order,mode", sorted(GOLDEN))
def test_encode_bytes_frozen_with_row_split(monkeypatch, name, order, mode):
    # the golden clouds are too small to reach SPLIT_NNZ, so force the
    # two-block series on and check that it ran.  Order-1 scaled Grams are
    # exactly the identity, so their series stop before any product; only
    # order 2 and critical mode's M^-1 series have a term to split
    force_row_split(monkeypatch)
    second_blocks = []
    rows_term = spectral._rows_term

    def spy(lm, lo, *args):
        second_blocks.append(lo > 0)
        return rows_term(lm, lo, *args)

    monkeypatch.setattr(spectral, "_rows_term", spy)
    cloud = _cloud(name)
    config = TransformConfig(order=order, residual_mode=mode)
    blob, _ = encode(cloud, config, 1.0, colorspace="bt709")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[(name, order, mode)]
    assert any(second_blocks) == (order == 2 or mode == "critical")


@pytest.mark.parametrize("name", ["sphere200", "torus3000", "noisy_sphere"])
def test_order1_plan_from_counts_matches_generic_scaling(name):
    # the order-1 plan builds A' from voxel counts and no Gram, which holds
    # only because the generic path gives the same A' to the bit and a
    # scaled Gram that is exactly the identity on every level
    h = build_hierarchy(_cloud(name), 1)
    a_mats = [build_a_matrix(h.levels[l], h.levels[l + 1], 1)
              for l in range(h.depth)]
    scaled_a, scaled_g = apply_basis_scaling(gram_levels(h, a_mats), a_mats)
    plan = TransformPlan(h, TransformConfig(order=1))
    assert plan.grams is None
    assert len(plan.a_mats) == len(scaled_a) == h.depth
    for generic, counted in zip(scaled_a, plan.a_mats):
        assert generic.shape == counted.shape
        for part in ("indptr", "indices", "data"):
            g, c = getattr(generic, part), getattr(counted, part)
            assert g.dtype == c.dtype and g.tobytes() == c.tobytes(), part
    for g in scaled_g:
        assert (g != sp.identity(g.shape[0], format="csr")).nnz == 0


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("name,order,mode", sorted(GOLDEN))
def test_decode_output_frozen(monkeypatch, name, order, mode, split):
    if split:
        force_row_split(monkeypatch)
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
    # and plan; onto an equal new cloud it rebuilds them.  None of these
    # streams has a critical level, so the first decode reuses
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


# the one-voxel builtin cloud's order-2 stream at K=16 and step 1, as the
# encoder wrote it when order 2 still attempted critical planes: its one
# level is critical, with a plane of zero rows
SINGLE_ORDER2_CRITICAL = bytes.fromhex(
    "524148540102010103006310000000000000000000000000000000f03f00000000"
    "0000f03f000000000000f03f01000000c3f5cc9bd28814a60b000000ffffffffffff"
    "00000080000000000005000000ffffffff000000000003000000ffff0000000000")


def test_order2_critical_stream_still_decodes():
    cloud = builtin_clouds()["single"]
    head, _ = parse_header(SINGLE_ORDER2_CRITICAL)
    assert (head["order"], head["k"], head["modes"]) == (2, 16, "c")
    attrs, _ = decode(SINGLE_ORDER2_CRITICAL, cloud)
    assert attrs.tolist() == [[128.0, 64.0, 32.0]]
    # order 2 now codes that level overcomplete when critical is requested
    critical = TransformConfig(order=2, residual_mode="critical")
    blob, stats = encode(cloud, critical, 1.0)
    assert stats["modes"] == "o"
    assert blob == encode(cloud, TransformConfig(order=2), 1.0)[0]
    assert decode(blob, cloud)[0].tolist() == [[128.0, 64.0, 32.0]]


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
            plane = blob[off + 4:off + 4 + blen]
            off += 4 + blen
            assert rlgr_encode(rlgr_decode(plane, count)) == plane
    assert off == len(blob)
