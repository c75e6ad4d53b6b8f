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


# what a spec may ask for, so that a scene is built in bounded time and memory
# and every coordinate is finite: the magnitude of any float field (meters,
# seconds, meters per second, points per square meter, and the noise of a
# feature batch), the frame and object counts, the lidar or radar points of
# one frame, and the points of all frames together
MAX_MAGNITUDE = 1e6
MAX_FRAMES = 1_000
MAX_OBJECTS = 1_000
MAX_FRAME_POINTS = 1_000_000
MAX_SCENE_POINTS = 10_000_000
# what a feature batch may ask for, so that it and a training step on it fit
# in memory: each of its sizes (the loss forms C x C and H x H attention per
# sampled column), and the values of all its scenes' four maps together
MAX_FEATURE_SIZE = 256
MAX_FEATURE_VALUES = 10_000_000
# the column offsets a feature batch plants, one drawn per scene
OFFSET_CHOICES = (-1, 0, 1)


def _check_noise(sigma: float) -> None:
    """Refuse a noise scale numpy would refuse (a negative one, -0.0
    included), or one past MAX_MAGNITUDE or NaN."""
    if not (sigma <= MAX_MAGNITUDE and math.copysign(1.0, sigma) > 0):
        raise ValueError(f"noise_sigma must be in [0, {MAX_MAGNITUDE:g}], got {sigma!r}")


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
            # NaN fails the comparison too
            if name not in ("seed", "n_frames", "n_objects") and not abs(value) <= MAX_MAGNITUDE:
                raise ValueError(f"{name} must be finite and within +-{MAX_MAGNITUDE:g}, "
                                 f"got {value!r}")
        _check_noise(self.noise_sigma)
        if self.frame_dt <= 0:
            raise ValueError(f"frame_dt must be > 0, got {self.frame_dt}")
        for name in ("lidar_density", "radar_density"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.radar_density >= self.lidar_density:
            raise ValueError(f"radar_density must be below lidar_density, got "
                             f"{self.radar_density} and {self.lidar_density}")
        for name, bound in (("n_frames", MAX_FRAMES), ("n_objects", MAX_OBJECTS)):
            if not 0 <= getattr(self, name) <= bound:
                raise ValueError(f"{name} must be in [0, {bound}], got {getattr(self, name)}")
        # objects are placed between ego_radius and 0.9 world_radius
        if not (0 < self.ego_radius < 0.9 * self.world_radius):
            raise ValueError(f"need 0 < ego_radius < 0.9 * world_radius, got "
                             f"{self.ego_radius} and {self.world_radius}")
        lidar_bg, lidar_obj, radar_bg, radar_obj = self.point_counts()
        per_frame = {"lidar": lidar_bg + self.n_objects * lidar_obj,
                     "radar": radar_bg + self.n_objects * radar_obj}
        for kind, n in per_frame.items():
            if n > MAX_FRAME_POINTS:
                raise ValueError(f"a frame would hold {n} {kind} points, above "
                                 f"{MAX_FRAME_POINTS}: lower {kind}_density, world_radius, "
                                 f"n_objects or object_extent")
        if self.n_frames * sum(per_frame.values()) > MAX_SCENE_POINTS:
            raise ValueError(f"{self.n_frames} frames of {sum(per_frame.values())} points "
                             f"exceed {MAX_SCENE_POINTS}: lower n_frames, lidar_density, "
                             f"radar_density, world_radius, n_objects or object_extent")

    def point_counts(self) -> tuple[int, int, int, int]:
        """Points of the lidar background, of each lidar object, of the radar
        background and of each radar object. Objects are denser than their
        surroundings, and a radar frame keeps a share of its background."""
        area = np.pi * self.world_radius**2
        return (max(1, int(round(self.lidar_density * area))),
                max(8, int(round(3.0 * self.lidar_density * self.object_extent**2))),
                max(2, int(round(self.radar_density * area))),
                max(2, int(round(30.0 * self.radar_density * self.object_extent**2))))


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
    base_rng = philox(spec.seed, 0)
    n_lidar_bg, n_obj_lidar, n_radar_bg, n_obj_radar = spec.point_counts()

    lidar_bg_xy = _disc_center_heavy(base_rng, n_lidar_bg, spec.world_radius)
    lidar_bg_z = base_rng.uniform(0.0, 0.3, n_lidar_bg)
    lidar_bg_int = base_rng.uniform(1.0, 20.0, n_lidar_bg)

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
        # objects reflect strongly
        off = base_rng.uniform(-0.5, 0.5, (n_obj_lidar, 2)) * spec.object_extent
        z = base_rng.uniform(0.2, 1.8, n_obj_lidar)
        inten = base_rng.uniform(15.0, 40.0, n_obj_lidar)
        obj_lidar.append((center + off, z, inten))
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
) -> FeatureBatch:
    """Per scene: draw an independent latent map, add per-map Gaussian noise,
    and shift the radar maps' columns by a planted per-scene offset, drawn
    from ``OFFSET_CHOICES`` (-1, 0 or 1).

    ``offsets[s][j]`` records where radar column j of scene s truly matches
    in the image map (clipped at the borders), so matcher recovery can be
    scored exactly.
    """
    sizes = {"batch": batch, "channels": channels, "height": height, "width": width}
    for name, value in sizes.items():
        if not 1 <= value <= MAX_FEATURE_SIZE:
            raise ValueError(f"{name} must be in [1, {MAX_FEATURE_SIZE}], got {value!r}")
    values = 4 * math.prod(sizes.values())
    if values > MAX_FEATURE_VALUES:
        raise ValueError(f"4 maps x batch x channels x height x width = {values} values "
                         f"exceed {MAX_FEATURE_VALUES}: lower batch, channels, height or width")
    _check_noise(noise_sigma)
    scenes: list[SceneMaps] = []
    offsets: list[np.ndarray] = []
    for s in range(batch):
        rng = philox(seed, 2_000_000 + s)
        latent = rng.normal(0.0, 1.0, (channels, height, width))
        delta = int(rng.choice(np.asarray(OFFSET_CHOICES)))
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
