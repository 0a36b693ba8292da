"""Shared fixtures for the test suite."""

import os

import numpy as np

import rahtp
from rahtp import spectral


def random_cloud(seed, count, depth, channels=3, scale=255.0):
    """Voxelized random cloud; duplicates merge, so len <= count."""
    rng = np.random.default_rng(seed)
    pos = rng.integers(0, 2 ** depth, (count, 3)).astype(np.int64)
    attrs = rng.uniform(0.0, scale, (count, channels))
    cloud = rahtp.PointCloud(positions=pos, attributes=attrs,
                             depth=depth, channels=channels)
    return rahtp.voxelize(cloud, depth)


def pair_cloud(y1=3.0, y2=11.0):
    """Two diagonal voxels at depth 1, one channel."""
    return rahtp.PointCloud(
        positions=np.array([[0, 0, 0], [1, 1, 1]], dtype=np.int64),
        attributes=np.array([[y1], [y2]], dtype=np.float64),
        depth=1, channels=1)


def force_row_split(monkeypatch):
    """Run every explicit sparse series as two row blocks on two threads,
    whatever the matrix size and the machine's CPU count."""
    monkeypatch.setattr(spectral, "SPLIT_NNZ", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
