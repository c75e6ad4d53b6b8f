"""Deterministic synthetic corpora for desk-scale checks.

Two generators: paired LiDAR-like and radar-like frame sequences with known
object motions (for the sampling pipeline and Chamfer comparisons), and
planted-correspondence feature batches (for the contrastive stack). LiDAR
frames are dense and center-heavy, radar frames sparse and near-uniform
over the disc with true planar velocities, which is exactly the density gap
the two-stage sampler is supposed to close.

Everything derives from counter-based Philox streams keyed on (seed, index)
so regeneration is bit-identical on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .contrastive import FeatureMap, SceneMaps
from .pointcloud import PointCloudFrame
from .rng import philox
from .tensor import Tensor


@dataclass(frozen=True)
class SceneSpec:
    seed: int = 0
    n_frames: int = 10
    n_objects: int = 4
    object_extent: float = 3.0
    ego_radius: float = 15.0
    world_radius: float = 40.0
    lidar_density: float = 2.0
    radar_density: float = 0.05
    object_speed: float = 8.0
    noise_sigma: float = 0.05
    frame_dt: float = 0.1

    def __post_init__(self):
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.frame_dt <= 0:
            raise ValueError(f"frame_dt must be > 0, got {self.frame_dt}")
        if self.lidar_density <= 0 or self.radar_density <= 0:
            raise ValueError("densities must be > 0")
        if self.radar_density >= self.lidar_density:
            raise ValueError("radar density must be below lidar density")
        if self.n_frames < 0 or self.n_objects < 0:
            raise ValueError("n_frames and n_objects must be >= 0")
        if not (0 < self.ego_radius < self.world_radius):
            raise ValueError("need 0 < ego_radius < world_radius")


@dataclass(frozen=True)
class ObjectMotion:
    center: tuple[float, float]
    velocity: tuple[float, float]
    extent: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SceneData:
    lidar_frames: list[PointCloudFrame]
    radar_frames: list[PointCloudFrame]
    motions: list[ObjectMotion]


def _disc_uniform(rng, n, radius):
    r = radius * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2.0 * np.pi
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def _disc_center_heavy(rng, n, radius):
    # radius uniform in [0, R] puts area density proportional to 1/r
    r = radius * rng.random(n)
    theta = rng.random(n) * 2.0 * np.pi
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def gen_scene(spec: SceneSpec) -> SceneData:
    """Build time-aligned LiDAR and ground-truth radar frame sequences.

    Static background points persist across frames with fresh position
    jitter; object points translate with their object. Radar frames sit on
    z = 0 and carry the true object velocity (zero for background). Radar
    background counts vary Poisson-style per frame so a count mixture fitted
    on them has real spread.
    """
    area = np.pi * spec.world_radius**2
    base_rng = philox(spec.seed, 0)

    n_lidar_bg = max(1, int(round(spec.lidar_density * area)))
    lidar_bg_xy = _disc_center_heavy(base_rng, n_lidar_bg, spec.world_radius)
    lidar_bg_z = base_rng.uniform(0.0, 0.3, n_lidar_bg)
    lidar_bg_int = base_rng.uniform(1.0, 20.0, n_lidar_bg)

    n_radar_bg = max(2, int(round(spec.radar_density * area)))
    radar_bg_xy = _disc_uniform(base_rng, n_radar_bg, spec.world_radius)
    radar_bg_int = base_rng.uniform(1.0, 20.0, n_radar_bg)

    motions: list[ObjectMotion] = []
    obj_lidar: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    obj_radar: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(spec.n_objects):
        radius = base_rng.uniform(spec.ego_radius, 0.9 * spec.world_radius)
        angle = base_rng.uniform(0.0, 2.0 * np.pi)
        center = np.array([radius * np.cos(angle), radius * np.sin(angle)])
        speed = base_rng.uniform(0.3, 1.0) * spec.object_speed
        direction = base_rng.uniform(0.0, 2.0 * np.pi)
        velocity = np.array([speed * np.cos(direction), speed * np.sin(direction)])
        motions.append(ObjectMotion((float(center[0]), float(center[1])),
                                    (float(velocity[0]), float(velocity[1])),
                                    spec.object_extent))
        # objects reflect strongly and are denser than their surroundings
        n_obj_lidar = max(8, int(round(3.0 * spec.lidar_density * spec.object_extent**2)))
        off = base_rng.uniform(-0.5, 0.5, (n_obj_lidar, 2)) * spec.object_extent
        z = base_rng.uniform(0.2, 1.8, n_obj_lidar)
        inten = base_rng.uniform(15.0, 40.0, n_obj_lidar)
        obj_lidar.append((center + off, z, inten))
        n_obj_radar = max(2, int(round(30.0 * spec.radar_density * spec.object_extent**2)))
        r_off = base_rng.uniform(-0.5, 0.5, (n_obj_radar, 2)) * spec.object_extent
        r_int = base_rng.uniform(10.0, 40.0, n_obj_radar)
        obj_radar.append((center + r_off, r_int))

    lidar_frames: list[PointCloudFrame] = []
    radar_frames: list[PointCloudFrame] = []
    for i in range(spec.n_frames):
        t = i * spec.frame_dt
        fid = f"frame_{i:04d}"
        jitter = philox(spec.seed, 1000 + i)

        xy_parts = [lidar_bg_xy]
        z_parts = [lidar_bg_z]
        int_parts = [lidar_bg_int]
        for (oxy, oz, oint), motion in zip(obj_lidar, motions):
            xy_parts.append(oxy + np.asarray(motion.velocity) * t)
            z_parts.append(oz)
            int_parts.append(oint)
        xy = np.vstack(xy_parts) + jitter.normal(0.0, spec.noise_sigma, (sum(map(len, z_parts)), 2))
        xyz = np.column_stack([xy, np.concatenate(z_parts)])
        lidar_frames.append(PointCloudFrame(fid, t, xyz, np.concatenate(int_parts)))

        keep = jitter.random(n_radar_bg) < jitter.uniform(0.7, 1.0)
        if keep.sum() < 2:
            keep[:2] = True
        r_xy_parts = [radar_bg_xy[keep]]
        r_int_parts = [radar_bg_int[keep]]
        r_vel_parts = [np.zeros((int(keep.sum()), 2))]
        for (oxy, oint), motion in zip(obj_radar, motions):
            r_xy_parts.append(oxy + np.asarray(motion.velocity) * t)
            r_int_parts.append(oint)
            r_vel_parts.append(np.tile(motion.velocity, (len(oxy), 1)))
        r_xy = np.vstack(r_xy_parts)
        r_xy = r_xy + jitter.normal(0.0, spec.noise_sigma, r_xy.shape)
        r_xyz = np.column_stack([r_xy, np.zeros(len(r_xy))])
        radar_frames.append(PointCloudFrame(fid, t, r_xyz, np.concatenate(r_int_parts),
                                            np.vstack(r_vel_parts)))

    return SceneData(lidar_frames, radar_frames, motions)


# ---------------------------------------------------------------------------
# planted-correspondence feature batches


@dataclass(frozen=True)
class FeatureBatch:
    scenes: list[SceneMaps]
    offsets: list[np.ndarray]  # per scene, per column: true image-minus-radar offset
    seed: int


def gen_feature_batch(
    seed: int,
    batch: int,
    channels: int,
    height: int,
    width: int,
    noise_sigma: float = 0.05,
    offset_choices: tuple[int, ...] = (-1, 0, 1),
) -> FeatureBatch:
    """Per scene: draw an independent latent map, add per-map Gaussian noise,
    and shift the radar maps' columns by a planted per-scene offset.

    ``offsets[s][j]`` records where radar column j of scene s truly matches
    in the image map (clipped at the borders), so matcher recovery can be
    scored exactly.
    """
    if min(batch, channels, height, width) < 1:
        raise ValueError("all dimensions must be >= 1")
    scenes: list[SceneMaps] = []
    offsets: list[np.ndarray] = []
    for s in range(batch):
        rng = philox(seed, 2_000_000 + s)
        latent = rng.normal(0.0, 1.0, (channels, height, width))
        delta = int(rng.choice(np.asarray(offset_choices)))
        src = np.clip(np.arange(width) + delta, 0, width - 1)
        shifted = latent[:, :, src]

        def noisy(base):
            return base + rng.normal(0.0, noise_sigma, base.shape)

        scenes.append(SceneMaps(
            img_bev=FeatureMap(Tensor(noisy(latent)), "image", "bev"),
            img_fv=FeatureMap(Tensor(noisy(latent)), "image", "fv"),
            rad_bev=FeatureMap(Tensor(noisy(shifted)), "radar", "bev"),
            rad_fv=FeatureMap(Tensor(noisy(shifted)), "radar", "fv"),
        ))
        offsets.append(src - np.arange(width))
    return FeatureBatch(scenes, offsets, seed)
