"""Point-cloud ingestion, voxelization, and the level-of-detail node hierarchy.

Levels are indexed ell = 0..L.  Level L holds one node per occupied voxel;
coarser levels are derived by the recursive child-closure rule: n is a node at
level ell iff some node m at level ell+1 satisfies m - 2n in stencil(p).
Nodes at every level are kept in Morton (Z-order), which fixes the canonical
coefficient order everywhere downstream.
"""

from dataclasses import dataclass, field

import numpy as np

# magic-bit interleaving of 21-bit words: each (shift, mask) step halves the
# bit groups and spreads them apart, ending with bit i at bit 3i
_SPREAD_STEPS = [(32, 0x001F00000000FFFF), (16, 0x001F0000FF0000FF),
                 (8, 0x100F00F00F00F00F), (4, 0x10C30C30C30C30C3),
                 (2, 0x1249249249249249)]
# the same steps undone, widest groups last
_COMPACT_STEPS = [(2, 0x10C30C30C30C30C3), (4, 0x100F00F00F00F00F),
                  (8, 0x001F0000FF0000FF), (16, 0x001F00000000FFFF),
                  (32, 0x1FFFFF)]
_X_BITS = 0x1249249249249249    # bits 0, 3, 6, ...: where a key keeps x


def _spread3(v):
    """Move bit i of each uint64 in v (i < 21) to bit 3i."""
    v = v & np.uint64(0x1FFFFF)
    for shift, mask in _SPREAD_STEPS:
        v |= v << np.uint64(shift)
        v &= np.uint64(mask)
    return v


def _compact3(v):
    """Inverse of _spread3: gather bits 0, 3, 6, ... of v into bits 0..20."""
    v = v & np.uint64(_X_BITS)
    for shift, mask in _COMPACT_STEPS:
        v ^= v >> np.uint64(shift)
        v &= np.uint64(mask)
    return v


def morton_key(coords, bits):
    """Interleave bits of (x,y,z) into a single uint64 Z-order key.

    Bit i of x lands at position 3i, y at 3i+1, z at 3i+2; bits at or above
    `bits` are ignored.
    """
    coords = np.asarray(coords, dtype=np.uint64)
    if coords.ndim == 1:
        coords = coords[None, :]
    if bits * 3 > 63:
        raise ValueError("morton key overflow: bits=%d" % bits)
    low = coords & np.uint64((1 << bits) - 1)
    return (_spread3(low[:, 0]) | (_spread3(low[:, 1]) << np.uint64(1))
            | (_spread3(low[:, 2]) << np.uint64(2)))


def morton_decode(keys):
    """(N,3) int64 coordinates of Morton keys; inverse of morton_key."""
    keys = np.asarray(keys, dtype=np.uint64)
    return np.stack([_compact3(keys >> np.uint64(ax)) for ax in range(3)],
                    axis=1).astype(np.int64)


@dataclass
class PointCloud:
    positions: np.ndarray  # (N,3) int64 voxel coords in [0, 2^L)^3
    attributes: np.ndarray  # (N,r) float64
    depth: int
    channels: int

    def validate(self):
        self.validate_positions()
        if len(self.positions) != len(self.attributes):
            raise ValueError("positions/attributes length mismatch")
        if not np.isfinite(self.attributes).all():
            raise ValueError("non-finite attributes")
        # (N, channels) rows, or (N,) for one channel
        cols = np.shape(self.attributes)[1:]
        if cols != (self.channels,) and not (cols == () and self.channels == 1):
            raise ValueError("attributes of shape %s do not carry %d channels"
                             % (np.shape(self.attributes), self.channels))

    def validate_positions(self):
        """The checks on positions alone: a geometry for decode need carry
        no valid attributes."""
        if len(self.positions) == 0:
            raise ValueError("empty point cloud")
        pos = self.positions
        if np.ndim(pos) != 2 or np.shape(pos)[1] != 3:
            raise ValueError("positions of shape %s are not (N, 3)"
                             % (np.shape(pos),))
        if pos.dtype.kind == "f" and not (np.isfinite(pos).all()
                                          and (pos == np.floor(pos)).all()):
            raise ValueError("positions must be finite integers")
        if pos.min() < 0 or pos.max() >= 2 ** self.depth:
            raise ValueError("positions outside [0, 2^L)^3")


@dataclass
class LevelGeometry:
    """The nodes of one level in Morton order, and their links to level+1.

    The link arrays are None at the finest level.
    """
    level: int
    nodes: np.ndarray        # (N,3) int64, Morton-sorted
    keys: np.ndarray         # (N,) uint64 Morton keys of nodes, strictly increasing
    # flat parent->child link arrays (one row per (parent, child, d) triple)
    link_parent: np.ndarray = field(default=None)  # (E,) int64 indices into this level
    link_child: np.ndarray = field(default=None)   # (E,) int64 indices into level+1
    link_d: np.ndarray = field(default=None)       # (E,3) int64, d = m - 2n

    def __len__(self):
        return len(self.nodes)


@dataclass
class Hierarchy:
    levels: list
    order: int
    depth: int

    @property
    def num_points(self):
        return len(self.levels[self.depth])


def _read_ply_header(fh):
    line = fh.readline()
    if line.strip() != b"ply":
        raise ValueError("not a PLY file")
    fmt = None
    elements = []  # (name, count, [(prop_name, dtype_code)])
    while True:
        line = fh.readline()
        if not line:
            raise ValueError("malformed PLY header: missing end_header")
        tok = line.decode("ascii", "replace").split()
        if not tok:
            continue
        if tok[0] == "comment":
            continue
        if tok[0] == "format":
            if len(tok) < 2:
                raise ValueError("malformed PLY format line")
            fmt = tok[1]
        elif tok[0] == "element":
            if len(tok) < 3 or not tok[2].isdigit():
                raise ValueError("malformed PLY element line: %r" % " ".join(tok))
            elements.append([tok[1], int(tok[2]), []])
        elif tok[0] == "property":
            if not elements:
                raise ValueError("PLY property before any element")
            if len(tok) < (5 if tok[1:2] == ["list"] else 3):
                raise ValueError("malformed PLY property line: %r" % " ".join(tok))
            if tok[1] == "list":
                elements[-1][2].append((tok[-1], "list:" + tok[2] + ":" + tok[3]))
            else:
                elements[-1][2].append((tok[2], tok[1]))
        elif tok[0] == "end_header":
            break
    if fmt not in ("ascii", "binary_little_endian"):
        raise ValueError("unsupported PLY format: %r" % fmt)
    return fmt, elements


_PLY_DTYPES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}


def _ply_record(name, props):
    """Little-endian record dtype of an element; list or unknown property
    types raise ValueError."""
    if any(t.startswith("list:") for _, t in props):
        raise ValueError("list properties in %s element are unsupported" % name)
    bad = [t for _, t in props if t not in _PLY_DTYPES]
    if bad:
        raise ValueError("unsupported PLY property type %r" % bad[0])
    return np.dtype([(n, "<" + _PLY_DTYPES[t]) for n, t in props])


def _skip_ply_element(fh, fmt, name, count, props):
    """Read past an element stored before the vertices: its lines in ASCII,
    its fixed-size records in binary."""
    if fmt == "ascii":
        skipped = 0
        while skipped < count:
            line = fh.readline()
            if not line:
                raise ValueError("truncated ASCII PLY body")
            skipped += bool(line.split())
        return
    size = count * _ply_record(name, props).itemsize
    if len(fh.read(size)) != size:
        raise ValueError("truncated binary PLY body")


def load_ply(path):
    """Read a PLY point cloud (ASCII or binary little-endian).

    Requires vertex properties x,y,z; colors red,green,blue or a single
    scalar property (gray/intensity/value/scalar) become the attributes.
    Elements declared before the vertices are skipped.  Positions are
    returned raw (not voxelized), attributes as float64.
    """
    with open(path, "rb") as fh:
        fmt, elements = _read_ply_header(fh)
        at = next((i for i, e in enumerate(elements) if e[0] == "vertex"), None)
        if at is None:
            raise ValueError("PLY has no vertex element")
        for name, count, props in elements[:at]:
            _skip_ply_element(fh, fmt, name, count, props)
        _, count, props = elements[at]
        if count == 0:
            raise ValueError("empty point cloud")
        names = [p[0] for p in props]
        dtype = _ply_record("vertex", props)
        if not all(c in names for c in ("x", "y", "z")):
            raise ValueError("PLY vertex element lacks x,y,z")
        if fmt == "binary_little_endian":
            raw = np.frombuffer(fh.read(count * dtype.itemsize), dtype=dtype, count=count)
        else:
            rows = []
            while len(rows) < count:
                line = fh.readline()
                if not line:
                    raise ValueError("truncated ASCII PLY body")
                s = line.split()
                if s:
                    rows.append(tuple(s[: len(props)]))
            raw = np.array([tuple(float(v) for v in row) for row in rows], dtype=dtype)
        pos = np.stack([raw["x"], raw["y"], raw["z"]], axis=1).astype(np.float64)
        if not np.isfinite(pos).all():
            raise ValueError("non-finite coordinates")
        if all(c in names for c in ("red", "green", "blue")):
            attrs = np.stack([raw["red"], raw["green"], raw["blue"]], axis=1).astype(np.float64)
        else:
            scalar = next((n for n in ("gray", "intensity", "value", "scalar") if n in names), None)
            if scalar is None:
                raise ValueError("PLY vertex element lacks red,green,blue or a scalar attribute")
            attrs = raw[scalar].astype(np.float64)[:, None]
    # depth filled in by voxelize
    return PointCloud(positions=pos, attributes=attrs, depth=0, channels=attrs.shape[1])


def save_ply(path, positions, attributes):
    """Write a binary little-endian PLY with float32 attribute channels.

    attributes is (N,) for one channel or (N, r), one row per position.
    """
    positions = np.asarray(positions)
    attributes = np.asarray(attributes, dtype=np.float64)
    if attributes.ndim == 1:
        attributes = attributes[:, None]
    if attributes.ndim != 2 or len(attributes) != len(positions):
        raise ValueError("attributes of shape %s need one row for each "
                         "of %d positions"
                         % (attributes.shape, len(positions)))
    r = attributes.shape[1]
    names = ["red", "green", "blue"] if r == 3 else ["value"] if r == 1 else [
        "c%d" % i for i in range(r)]
    header = ["ply", "format binary_little_endian 1.0",
              "element vertex %d" % len(positions)]
    header += ["property float x", "property float y", "property float z"]
    header += ["property float %s" % n for n in names]
    header += ["end_header", ""]
    dtype = np.dtype([(n, "<f4") for n in ("x", "y", "z", *names)])
    rec = np.empty(len(positions), dtype=dtype)
    rec["x"], rec["y"], rec["z"] = (positions[:, i].astype(np.float32) for i in range(3))
    for i, n in enumerate(names):
        rec[n] = attributes[:, i].astype(np.float32)
    with open(path, "wb") as fh:
        fh.write("\n".join(header).encode("ascii"))
        fh.write(rec.tobytes())


def voxelize(cloud, depth):
    """Quantize positions onto the integer grid [0, 2^L)^3 and merge duplicates.

    Integer positions already inside the grid pass through unchanged;
    otherwise positions are min-corner shifted, uniformly scaled, and floored.
    Attributes of points landing in the same voxel are averaged; the result
    always holds (N, channels) rows, also for (N,) one-channel input.
    """
    if not 1 <= depth <= 21:   # a morton key holds 3 x 21 bits
        raise ValueError("depth must be in 1..21, got %d" % depth)
    pos = np.asarray(cloud.positions, dtype=np.float64)
    if not np.isfinite(pos).all():
        raise ValueError("non-finite coordinates")
    size = 2 ** depth
    if np.all(pos == np.floor(pos)) and pos.min() >= 0 and pos.max() < size:
        vox = pos.astype(np.int64)
    else:
        lo = pos.min(axis=0)
        extent = float((pos - lo).max())
        scale = 1.0 if extent == 0.0 else size * (1.0 - 1e-9) / extent
        vox = np.floor((pos - lo) * scale).astype(np.int64)
        np.clip(vox, 0, size - 1, out=vox)
    src = np.asarray(cloud.attributes, dtype=np.float64)
    if src.ndim == 1:       # one channel as (N,)
        src = src[:, None]
    key = morton_key(vox, depth)
    uniq, inverse = np.unique(key, return_inverse=True)
    n = len(uniq)
    attrs = np.zeros((n, src.shape[1]), dtype=np.float64)
    counts = np.zeros(n, dtype=np.int64)
    np.add.at(attrs, inverse, src)
    np.add.at(counts, inverse, 1)
    attrs /= counts[:, None]
    out = PointCloud(positions=morton_decode(uniq), attributes=attrs, depth=depth,
                     channels=src.shape[1])
    out.validate()
    return out


def _coarsen(child, order):
    """Parent level of `child` under stencil(order), with its links.

    Per axis a child coordinate c has the parent candidates c>>1 and, for
    order 2 and odd c, (c+1)>>1.  Every valid candidate is a link; the
    candidates' keys, laid out child-major and stably sorted, come out
    grouped by parent in Morton order with children ascending inside each
    group, which is the canonical link order.
    """
    n = len(child)
    lo = child.keys >> np.uint64(3)          # key of (c >> 1) on every axis
    if order == 1:
        keys, link_child = lo, np.arange(n, dtype=np.int64)
    else:
        odd = (child.nodes & 1).astype(bool)
        # per axis: that axis's key bits for the lower and upper candidate
        parts = [(lo & (np.uint64(_X_BITS) << np.uint64(ax)),
                  _spread3(((child.nodes[:, ax] >> 1) + 1).astype(np.uint64))
                  << np.uint64(ax)) for ax in range(3)]
        cand = np.empty((n, 8), dtype=np.uint64)
        valid = np.empty((n, 8), dtype=bool)
        for j, up in enumerate(np.ndindex(2, 2, 2)):
            cand[:, j] = parts[0][up[0]] | parts[1][up[1]] | parts[2][up[2]]
            valid[:, j] = np.all(odd | ~np.array(up, dtype=bool), axis=1)
        keys = cand[valid]
        link_child = np.nonzero(valid)[0]
    perm = np.argsort(keys, kind="stable")
    keys, link_child = keys[perm], link_child[perm]
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    parent = LevelGeometry(level=child.level - 1, nodes=morton_decode(keys[first]),
                           keys=keys[first])
    parent.link_parent = np.cumsum(first) - 1
    parent.link_child = link_child
    parent.link_d = child.nodes[link_child] - 2 * parent.nodes[parent.link_parent]
    return parent


def build_hierarchy(cloud, order):
    """Build the level-of-detail hierarchy for a voxelized cloud.

    Level L holds the voxels, which must be distinct and in Morton order;
    each coarser level is the child-closure of the one below it, and every
    level but the finest carries its parent-child links with their stencil
    offsets.  Only the positions are read and checked.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    cloud.validate_positions()
    L = cloud.depth
    keys = morton_key(cloud.positions, L)
    if not np.all(keys[1:] > keys[:-1]):
        raise ValueError("cloud positions must be distinct and Morton-sorted "
                         "(voxelize does this)")
    levels = [None] * (L + 1)
    levels[L] = LevelGeometry(level=L, nodes=cloud.positions.astype(np.int64),
                              keys=keys)
    for ell in range(L - 1, -1, -1):
        levels[ell] = _coarsen(levels[ell + 1], order)
    return Hierarchy(levels=levels, order=order, depth=L)


def geometry_digest(hierarchy):
    """64-bit digest of the voxel set, which ties a bitstream to its
    geometry: blake2b of the depth and the finest level's Morton keys."""
    import hashlib

    h = hashlib.blake2b(digest_size=8)
    h.update(np.uint64([hierarchy.depth]).tobytes())
    h.update(hierarchy.levels[-1].keys.tobytes())
    return int.from_bytes(h.digest(), "little")
