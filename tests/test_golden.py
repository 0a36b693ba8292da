"""Frozen encode output: any change to the bytes of a stream shows here.

The digests pin the streams of format VERSION 1.  A change that is meant to
alter the bytes must bump VERSION and record the digests again.
"""

import hashlib
import struct

import pytest

from rahtp import spectral
from rahtp.codec import encode, parse_header, rlgr_decode, rlgr_encode
from rahtp.evalcli import builtin_clouds, make_synthetic_cloud
from rahtp.geometry import build_hierarchy
from rahtp.transform import TransformConfig

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


def _cloud(name):
    if name == "sphere200":
        return builtin_clouds()["sphere200"]
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
    # two-block series on and check that it ran
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
    assert any(second_blocks) == (name == "torus3000")


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
