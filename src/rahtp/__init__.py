"""Point-cloud attribute codec on nested volumetric B-spline spaces."""

from .geometry import (Hierarchy, LevelGeometry, PointCloud, build_hierarchy,
                       geometry_digest, load_ply, morton_key, save_ply,
                       voxelize)
from .kernels import build_a_matrix, gram_levels
from .sparse_ops import ASplit, SplitError, ZtildeOp, build_split
from .spectral import (ApproxConfig, Operator, SeriesDivergence,
                       apply_series, eigen_bound, series_coefficients)
from .transform import (ApproxRoles, CoeffSet, TransformConfig, TransformPlan,
                        analyze, apply_basis_scaling, synthesize,
                        truncate_to_level)
from .codec import (CorruptStream, decode, dequantize, encode, quantize,
                    rlgr_decode, rlgr_encode)
from .evalcli import Metrics, builtin_clouds, compute_metrics, main, \
    make_synthetic_cloud

__version__ = "0.1.0"

__all__ = [
    "ApproxConfig", "ApproxRoles", "ASplit", "CoeffSet", "CorruptStream",
    "Hierarchy", "LevelGeometry", "Metrics", "Operator",
    "PointCloud", "SeriesDivergence", "SplitError", "TransformConfig", "TransformPlan",
    "ZtildeOp", "analyze", "apply_basis_scaling", "apply_series",
    "build_a_matrix", "build_hierarchy", "build_split", "builtin_clouds",
    "compute_metrics", "decode", "dequantize", "eigen_bound", "encode",
    "geometry_digest", "gram_levels", "load_ply", "main",
    "make_synthetic_cloud", "morton_key", "quantize", "rlgr_decode",
    "rlgr_encode", "save_ply", "series_coefficients", "synthesize",
    "truncate_to_level", "voxelize",
]
