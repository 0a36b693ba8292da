import hashlib

import numpy as np
import pytest

import rahtp
from rahtp.geometry import geometry_digest, morton_decode, morton_key

from _helpers import random_cloud


def test_morton_key_known_values():
    coords = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [3, 1, 2]])
    assert morton_key(coords, 2).tolist() == [1, 2, 4, 7, 43]


def test_morton_key_monotone_in_each_axis():
    base = morton_key(np.array([[2, 3, 1]]), 4)[0]
    for axis in range(3):
        bumped = np.array([[2, 3, 1]])
        bumped[0, axis] += 4
        assert morton_key(bumped, 4)[0] > base


def _morton_key_per_bit(coords, bits):
    key = np.zeros(len(coords), dtype=np.uint64)
    for i in range(bits):
        for ax in range(3):
            bit = (coords[:, ax].astype(np.uint64) >> np.uint64(i)) & np.uint64(1)
            key |= bit << np.uint64(3 * i + ax)
    return key


def test_morton_key_matches_per_bit_reference_and_decodes():
    rng = np.random.default_rng(21)
    for bits in range(1, 22):
        coords = rng.integers(0, 2 ** bits, (200, 3)).astype(np.int64)
        keys = morton_key(coords, bits)
        assert np.array_equal(keys, _morton_key_per_bit(coords, bits)), bits
        assert np.array_equal(morton_decode(keys), coords), bits


def test_morton_key_rejects_overflowing_bits():
    with pytest.raises(ValueError):
        morton_key(np.zeros((1, 3), dtype=np.int64), 22)


def test_voxelize_merges_duplicates_by_mean():
    cloud = rahtp.PointCloud(
        positions=np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=np.int64),
        attributes=np.array([[10.0], [30.0], [7.0]]),
        depth=1, channels=1)
    out = rahtp.voxelize(cloud, 1)
    assert len(out.positions) == 2
    merged = out.attributes[(out.positions == 0).all(axis=1)]
    assert merged[0, 0] == pytest.approx(20.0)


def test_voxelize_averages_one_dimensional_attributes_as_one_column():
    cloud = rahtp.PointCloud(
        positions=np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]], dtype=np.int64),
        attributes=np.array([1.0, 2.0, 3.0]), depth=2, channels=1)
    out = rahtp.voxelize(cloud, 2)
    assert out.channels == 1
    assert out.attributes.shape == (2, 1)
    assert out.attributes[:, 0].tolist() == [2.0, 2.0]


def test_voxelize_already_integer_grid_keeps_voxels():
    cl = random_cloud(1, 80, 3)
    again = rahtp.voxelize(cl, 3)
    assert np.array_equal(cl.positions, again.positions)
    assert np.allclose(cl.attributes, again.attributes)


def test_voxelize_rejects_an_empty_cloud():
    raw = rahtp.PointCloud(positions=np.zeros((0, 3)),
                           attributes=np.zeros((0, 3)), depth=0, channels=3)
    for make in (lambda: rahtp.voxelize(raw, 4),
                 lambda: rahtp.make_synthetic_cloud(count=0)):
        with pytest.raises(ValueError, match="empty point cloud"):
            make()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_voxelize_rejects_non_finite_coordinates(bad):
    # one such point used to collapse the whole cloud into one voxel
    cloud = rahtp.PointCloud(
        positions=np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [bad, 1.0, 2.0]]),
        attributes=np.arange(9.0).reshape(3, 3), depth=0, channels=3)
    with pytest.raises(ValueError, match="non-finite"):
        rahtp.voxelize(cloud, 3)


@pytest.mark.parametrize("depth", [0, 22])
def test_voxelize_rejects_depth_outside_the_morton_key(depth):
    # depth 22 used to fail later, inside morton_key, as a key overflow
    with pytest.raises(ValueError, match=r"1\.\.21"):
        rahtp.voxelize(random_cloud(1, 10, 3), depth)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.5])
def test_pointcloud_validate_rejects_non_integer_positions(bad):
    pos = np.array([[bad, 0.0, 0.0], [1.0, 1.0, 1.0]])
    cloud = rahtp.PointCloud(positions=pos, attributes=np.ones((2, 1)),
                             depth=1, channels=1)
    with pytest.raises(ValueError, match="finite integers"):
        cloud.validate()
    with pytest.raises(ValueError, match="finite integers"):
        rahtp.encode(cloud, rahtp.TransformConfig(), 1.0)
    # integer values held as floats still pass
    pos[0, 0] = 0.0
    cloud.validate()


@pytest.mark.parametrize("reshape", [lambda p: p[:, :2], np.ravel])
def test_positions_that_are_not_n_by_3_are_rejected(reshape):
    # (N, 2) positions used to raise IndexError from morton_key, and a
    # flattened (3N,) array reached decode as a node count mismatch
    cloud = random_cloud(3, 60, 3)
    blob, _ = rahtp.encode(cloud, rahtp.TransformConfig(), 1.0)
    bad = rahtp.PointCloud(positions=reshape(cloud.positions),
                           attributes=cloud.attributes, depth=cloud.depth,
                           channels=cloud.channels)
    for call in (bad.validate_positions,
                 lambda: rahtp.build_hierarchy(bad, 1),
                 lambda: rahtp.encode(bad, rahtp.TransformConfig(), 1.0),
                 lambda: rahtp.decode(blob, bad)):
        with pytest.raises(ValueError, match=r"not \(N, 3\)"):
            call()


def test_voxelize_scales_float_extent_into_grid():
    rng = np.random.default_rng(2)
    pos = rng.uniform(-5.0, 12.0, (200, 3))
    cloud = rahtp.PointCloud(positions=pos, attributes=np.ones((200, 1)),
                             depth=0, channels=1)
    out = rahtp.voxelize(cloud, 4)
    assert out.positions.min() >= 0 and out.positions.max() < 16
    assert out.depth == 4


def test_ply_roundtrip(tmp_path):
    cl = random_cloud(3, 60, 3)
    path = tmp_path / "c.ply"
    rahtp.save_ply(path, cl.positions, cl.attributes)
    back = rahtp.load_ply(path)
    out = rahtp.voxelize(back, 3)
    assert np.array_equal(out.positions, cl.positions)
    # attributes travel as float32
    assert np.abs(out.attributes - cl.attributes).max() < 1e-3


def test_save_ply_one_channel_vector_and_rejects_rows_not_per_point(tmp_path):
    pos = np.array([[0, 0, 0], [1, 2, 3], [4, 5, 6]])
    path = tmp_path / "c.ply"
    rahtp.save_ply(path, pos, np.array([1.0, 2.0, 3.0]))
    back = rahtp.load_ply(path)
    assert back.channels == 1
    assert np.array_equal(back.attributes.ravel(), [1.0, 2.0, 3.0])
    for shape in [(4, 3), (2, 3), (3,) * 3]:
        with pytest.raises(ValueError, match="one row for each"):
            rahtp.save_ply(path, pos, np.zeros(shape))


_VERTEX_PROPS = (b"element vertex 2\nproperty float x\nproperty float y\n"
                 b"property float z\nproperty float value\nend_header\n")


@pytest.mark.parametrize("fmt", ["binary_little_endian", "ascii"])
def test_ply_skips_elements_before_vertices(tmp_path, fmt):
    head = (b"ply\nformat " + fmt.encode() + b" 1.0\nelement camera 1\n"
            b"property float k\n" + _VERTEX_PROPS)
    if fmt == "ascii":
        body = b"9\n1 2 3 4\n5 6 7 8\n"
    else:
        body = np.array([9, 1, 2, 3, 4, 5, 6, 7, 8], "<f4").tobytes()
    path = tmp_path / "cam.ply"
    path.write_bytes(head + body)
    cloud = rahtp.load_ply(path)
    assert cloud.positions.tolist() == [[1, 2, 3], [5, 6, 7]]
    assert cloud.attributes.ravel().tolist() == [4, 8]


def test_ply_rejects_binary_list_element_before_vertices(tmp_path):
    head = (b"ply\nformat binary_little_endian 1.0\nelement face 1\n"
            b"property list uchar int vertex_indices\n" + _VERTEX_PROPS)
    path = tmp_path / "face.ply"
    path.write_bytes(head + bytes(13) + bytes(32))
    with pytest.raises(ValueError):
        rahtp.load_ply(path)


@pytest.mark.parametrize("header", [
    b"ply\nformat ascii 1.0\nproperty float x\nelement vertex 1\n",
    b"ply\nformat ascii 1.0\nelement vertex 1\nproperty int64 x\n"
    b"property float y\nproperty float z\n",
    b"ply\nformat\nelement vertex 1\n",
    b"ply\nformat ascii 1.0\nelement vertex\n",
    b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float\n",
], ids=["property-before-element", "int64-type", "format-without-token",
        "short-element", "short-property"])
def test_malformed_ply_header_raises_value_error(tmp_path, header):
    from rahtp.evalcli import main
    path = tmp_path / "bad.ply"
    path.write_bytes(header + b"end_header\n0 0 0\n")
    with pytest.raises(ValueError):
        rahtp.load_ply(path)
    assert main(["encode", str(path), str(tmp_path / "o.bin")]) == 2


def test_hierarchy_levels_cover_children_both_orders():
    cl = random_cloud(4, 120, 3)
    for order in (1, 2):
        h = rahtp.build_hierarchy(cl, order)
        assert h.depth == 3
        assert np.array_equal(h.levels[-1].nodes, cl.positions)
        for lev in range(h.depth):
            parents = h.levels[lev].nodes
            children = h.levels[lev + 1].nodes
            if order == 1:
                # one link per child, parents never decreasing: the layout
                # the order-1 plan reads S's rows from, with no sort or CSR
                link_parent = h.levels[lev].link_parent
                assert np.array_equal(h.levels[lev].link_child,
                                      np.arange(len(children)))
                assert np.all(np.diff(link_parent) >= 0)
            pidx = {tuple(p): i for i, p in enumerate(parents)}
            lo = 0 if order == 1 else -1
            hi = 1
            for c in children:
                # every child must see at least one supporting parent and
                # all kernel-support parents must be present in the closure
                found = 0
                for m in np.ndindex(2, 2, 2) if order == 1 else np.ndindex(3, 3, 3):
                    d = np.array(m) + lo
                    parent = (c - d)
                    if np.all(parent % 2 == 0):
                        key = tuple(parent // 2)
                        if order == 1:
                            assert key in pidx
                            found += 1
                        elif key in pidx:
                            found += 1
                assert found >= 1


def test_hierarchy_level_keys_strictly_increasing():
    cl = random_cloud(5, 60, 2)
    h = rahtp.build_hierarchy(cl, 2)
    for ell, geom in enumerate(h.levels):
        keys = morton_key(geom.nodes, ell + 2)
        assert np.array_equal(geom.keys, keys)
        assert np.all(keys[1:] > keys[:-1])


def test_geometry_digest_pins_v1_definition():
    # the v1 header field: blake2b-64, read little-endian, of the depth as
    # a u64 and the sorted depth-bit Morton keys of the voxels
    cl = random_cloud(6, 90, 3)
    ref = hashlib.blake2b(digest_size=8)
    ref.update(np.uint64([3]).tobytes())
    ref.update(np.sort(morton_key(cl.positions, 3)).tobytes())
    want = int.from_bytes(ref.digest(), "little")
    for order in (1, 2):
        assert geometry_digest(rahtp.build_hierarchy(cl, order)) == want


def test_hierarchy_rejects_duplicate_and_unsorted_voxels():
    cl = random_cloud(7, 40, 3)
    dup = rahtp.PointCloud(positions=np.insert(cl.positions, 5, cl.positions[5], axis=0),
                           attributes=np.insert(cl.attributes, 5, cl.attributes[5], axis=0),
                           depth=3, channels=3)
    swapped = rahtp.PointCloud(positions=cl.positions[::-1].copy(),
                               attributes=cl.attributes[::-1].copy(),
                               depth=3, channels=3)
    for bad in (dup, swapped):
        for order in (1, 2):
            with pytest.raises(ValueError):
                rahtp.build_hierarchy(bad, order)


def test_pointcloud_validate_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        rahtp.PointCloud(positions=np.zeros((3, 3), dtype=np.int64),
                         attributes=np.zeros((2, 1)), depth=1,
                         channels=1).validate()


@pytest.mark.parametrize("layout,channels,ok", [
    ("2-D", 1, False), ("2-D", 2, False), ("2-D", 4, False),
    ("1-D", 3, False), ("3-D", 1, False), ("2-D", 3, True), ("1-D", 1, True)])
def test_pointcloud_validate_checks_channels(layout, channels, ok):
    # sphere200's (111, 3) attributes as they are, as one 1-D column or as
    # (111, 3, 1): only (N, channels), or 1-D with one channel, is accepted
    cl = rahtp.builtin_clouds()["sphere200"]
    attrs = {"2-D": cl.attributes, "1-D": cl.attributes[:, 0],
             "3-D": cl.attributes[:, :, None]}[layout]
    cloud = rahtp.PointCloud(positions=cl.positions, attributes=attrs,
                             depth=cl.depth, channels=channels)
    config = rahtp.TransformConfig()
    if not ok:
        with pytest.raises(ValueError, match="channels"):
            cloud.validate()
        with pytest.raises(ValueError, match="channels"):
            rahtp.encode(cloud, config, 0.01)
        return
    blob, _ = rahtp.encode(cloud, config, 0.01)
    rec, head = rahtp.decode(blob, cloud)
    assert head["channels"] == channels
    assert np.abs(rec.reshape(attrs.shape) - attrs).max() < 0.1


@pytest.mark.parametrize("order", [1, 2])
def test_depth_21_cloud_roundtrips(order):
    # depth 21 fills a 63-bit Morton key, the most a uint64 key holds; the
    # finest level is keyed with depth bits, as voxelize keys it
    cloud = random_cloud(21, 300, 21)
    assert cloud.depth == 21 and cloud.positions.max() >= 2 ** 20
    config = rahtp.TransformConfig(order=order,
                                   approx=rahtp.ApproxConfig(order=16))
    blob, _ = rahtp.encode(cloud, config, 0.1)
    recon, head = rahtp.decode(blob, cloud)
    assert head["depth"] == 21
    assert np.abs(recon - cloud.attributes).max() < 1.0
