"""Pseudo-radar synthesis from LiDAR point clouds, Chamfer evaluation, and
the dual-stage dual-modality contrastive loss stack, all desk-scale
verifiable with deterministic synthetic data."""

__version__ = "0.1.0"

from .gmm import Gmm1D, fit_em, load_gmm, sample_count, save_gmm
from .metrics import ChamferReport, chamfer, chamfer_bruteforce, mean_chamfer
from .pointcloud import PointCloudFrame
from .sampling import SamplingConfig, lidar_to_radar
from .spatial import KdTree, thin_redundant
from .synth import SceneSpec, gen_feature_batch, gen_scene
from .tensor import Tensor, backward, finite_diff_check

__all__ = [
    "__version__",
    "Tensor", "backward", "finite_diff_check",
    "PointCloudFrame",
    "Gmm1D", "fit_em", "sample_count", "save_gmm", "load_gmm",
    "KdTree", "thin_redundant",
    "SamplingConfig", "lidar_to_radar",
    "chamfer", "chamfer_bruteforce", "mean_chamfer", "ChamferReport",
    "SceneSpec", "gen_scene", "gen_feature_batch",
]
