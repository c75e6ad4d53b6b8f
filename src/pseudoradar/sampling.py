"""LiDAR-to-pseudo-radar sampling pipeline.

Per frame: draw a target count from a fitted count mixture, thin redundant
points with a distance threshold, compute intensity / sparsity / distance
sampling weights on the thinned cloud, draw the survivors in two stages
(half from outside a central radius, the rest globally), attach velocities
from a pluggable scene-flow callable, and flatten onto the z = 0 plane.

All randomness flows through counter-based Philox streams keyed by
(seed, frame_index), so frames are independent and reruns are bit-identical
regardless of processing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable, Sequence

import numpy as np

from .errors import PipelineError
from .gmm import Gmm1D, sample_count
from .pointcloud import PointCloudFrame
from .rng import philox
from .spatial import _cloud, _knn_sqdist, _nearest, thin_redundant
from .spatial import KdTree  # noqa: F401  perfbench times kd-tree builds under this name

# The sparsity k-NN holds an (n, k) distance array, and k is clamped only to
# n - 1, so an unbounded k fills an (n, n - 1) array: SamplingConfig and
# sparsity_weights both refuse a larger k. The paper's k is small; this is 8x
# the default.
MAX_NEIGHBOR_COUNT = 64


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs for the sampling pipeline.

    alpha_* scale the intensity / distance / sparsity weight families;
    center_radius is the stage-1 exclusion radius in meters; d_threshold is
    the thinning distance; neighbor_count (at most ``MAX_NEIGHBOR_COUNT``) is
    how many nearest neighbors feed the sparsity weight; dist_epsilon guards
    the inverse-square distance weight at the origin.
    """

    alpha_int: float = 4.0
    alpha_dist: float = 4.0
    alpha_spa: float = 2.0
    center_radius: float = 15.0
    d_threshold: float = 0.3
    neighbor_count: int = 8
    dist_epsilon: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        alphas = (self.alpha_int, self.alpha_dist, self.alpha_spa)
        if any(a < 0 for a in alphas) or not any(a > 0 for a in alphas):
            raise ValueError(f"need non-negative alphas with at least one positive, got {alphas}")
        if self.center_radius <= 0:
            raise ValueError(f"center_radius must be > 0, got {self.center_radius}")
        if self.d_threshold < 0:
            raise ValueError(f"d_threshold must be >= 0, got {self.d_threshold}")
        if not isinstance(self.neighbor_count, (int, np.integer)):
            raise ValueError(f"neighbor_count must be an integer, got {self.neighbor_count!r}")
        if not 1 <= self.neighbor_count <= MAX_NEIGHBOR_COUNT:
            raise ValueError(f"neighbor_count must be in [1, {MAX_NEIGHBOR_COUNT}], "
                             f"got {self.neighbor_count}")
        if self.dist_epsilon < 0:
            raise ValueError(f"dist_epsilon must be >= 0, got {self.dist_epsilon}")


@dataclass(frozen=True)
class FrameReport:
    """What the pipeline did with one frame. ``intensity_fallback`` flags
    uniform intensity weights (every intensity zero), and ``truncated`` a
    frame with fewer points after thinning than the drawn count ``N``; an
    empty thinned frame sets every flag."""

    frame_id: str
    n_input: int
    n_after_thin: int
    N: int
    N1: int
    N2: int
    fallback_stage1: bool
    zero_velocity: bool
    intensity_fallback: bool
    truncated: bool
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TwoStageResult:
    indices: np.ndarray
    n1: int
    n2: int
    fallback_stage1: bool
    truncated: bool


# ---------------------------------------------------------------------------
# weight families; each returns a vector that is non-negative and sums to 1


def intensity_weights(intensities: np.ndarray) -> tuple[np.ndarray, bool]:
    """Square-root intensity share per point: sqrt(I_i) / sum_j sqrt(I_j).

    Returns (weights, fallback) where fallback flags the all-zero-intensity
    case that degrades to uniform weights.
    """
    inten = np.asarray(intensities, dtype=np.float64).reshape(-1)
    if inten.size == 0:
        raise ValueError("intensity_weights needs at least one point")
    if not (np.isfinite(inten) & (inten >= 0)).all():
        raise ValueError("intensities must be finite and >= 0")
    roots = np.sqrt(inten)
    total = roots.sum()
    if total == 0.0:
        return np.full(inten.size, 1.0 / inten.size), True
    return roots / total, False


def sparsity_weights(xyz: np.ndarray, j_max: int) -> np.ndarray:
    """Sum of squared distances to the j_max nearest neighbors, normalized.

    ``j_max`` is an integer in [1, ``MAX_NEIGHBOR_COUNT``]. Points in thin
    regions score high and get sampled preferentially. A single point gets
    weight 1 by convention.
    """
    if not (isinstance(j_max, (int, np.integer)) and 1 <= j_max <= MAX_NEIGHBOR_COUNT):
        raise ValueError(f"j_max must be an integer in [1, {MAX_NEIGHBOR_COUNT}], got {j_max!r}")
    pts = _cloud(xyz, "sparsity_weights input")
    n = len(pts)
    if n == 0:
        raise ValueError("sparsity_weights needs at least one point")
    if n == 1:
        return np.ones(1)
    d2 = _knn_sqdist(pts, min(j_max, n - 1))
    # sum d * d of d = sqrt(d2), one neighbor at a time: the order and rounding
    # of a per-point running sum, so the weights match it bit for bit; tied
    # distances are equal values, so which tied point fills a slot is moot
    d = np.sqrt(np.where(d2 < np.inf, d2, 0.0))
    raw = np.zeros(n)
    for col in d.T:
        raw += col * col
    total = raw.sum()
    if total == 0.0:
        # all points coincident
        return np.full(n, 1.0 / n)
    return raw / total


def distance_weights(xyz: np.ndarray, dist_epsilon: float) -> np.ndarray:
    """Inverse squared distance to the origin, guarded by ``dist_epsilon``
    (``SamplingConfig.dist_epsilon`` in the pipeline), normalized. Raises
    ``ValueError`` for a ``dist_epsilon`` that is not finite and >= 0, for
    points that are not a finite (N, 3) array and when the weights
    overflow, as a point at the origin does with ``dist_epsilon`` 0."""
    if not 0.0 <= dist_epsilon < math.inf:
        raise ValueError(f"dist_epsilon must be finite and >= 0, got {dist_epsilon!r}")
    pts = _cloud(xyz, "distance_weights input")
    if len(pts) == 0:
        raise ValueError("distance_weights needs at least one point")
    with np.errstate(divide="ignore", over="ignore"):
        raw = 1.0 / ((pts**2).sum(axis=1) + dist_epsilon)
        total = raw.sum()
    if not np.isfinite(total):
        raise ValueError(f"distance weights are not finite with dist_epsilon={dist_epsilon!r}: "
                         f"a point lies at or too near the origin")
    return raw / total


def combine_weights(w_int: np.ndarray, w_dist: np.ndarray, w_spa: np.ndarray,
                    config: SamplingConfig) -> np.ndarray:
    """Normalized linear combination alpha_int*w_int + alpha_dist*w_dist +
    alpha_spa*w_spa of the three pre-normalized families."""
    w_int = np.asarray(w_int, dtype=np.float64)
    w_dist = np.asarray(w_dist, dtype=np.float64)
    w_spa = np.asarray(w_spa, dtype=np.float64)
    if not (w_int.shape == w_dist.shape == w_spa.shape):
        raise ValueError(
            f"weight families differ in length: {w_int.shape}, {w_dist.shape}, {w_spa.shape}"
        )
    final = config.alpha_int * w_int + config.alpha_dist * w_dist + config.alpha_spa * w_spa
    return final / final.sum()


def weighted_sample_without_replacement(weights: np.ndarray, k: int,
                                        rng: np.random.Generator) -> np.ndarray:
    """Indices of k draws without replacement, probability proportional to
    weight, via Gumbel-top-k keys. Zero-weight items are only taken once
    every positive-weight item is exhausted. Weights must be finite and
    non-negative."""
    w = np.asarray(weights, dtype=np.float64)
    if not (np.isfinite(w) & (w >= 0)).all():
        raise ValueError("sampling weights must be finite and >= 0")
    n = w.size
    k = min(k, n)
    if k <= 0:
        return np.zeros(0, dtype=np.intp)
    u = rng.random(n)
    gumbel = -np.log(-np.log(np.maximum(u, np.finfo(float).tiny)))
    with np.errstate(divide="ignore"):
        keys = np.where(w > 0, np.log(np.maximum(w, np.finfo(float).tiny)) + gumbel, -np.inf)
    order = np.argsort(-keys, kind="stable")
    return order[:k]


def two_stage_sample(xyz: np.ndarray, weights: np.ndarray, n_target: int,
                     center_radius: float, rng: np.random.Generator) -> TwoStageResult:
    """Draw floor(N/2) points from outside the central radius, then the rest
    from everything not yet chosen, both weighted without replacement.

    If the outside pool is too small its deficit rolls into stage 2 and
    fallback_stage1 is set; if the whole cloud is smaller than N every point
    is returned and the result is flagged truncated.
    """
    pts = _cloud(xyz, "two_stage_sample input")
    w = np.asarray(weights, dtype=np.float64)
    if len(pts) != len(w):
        raise ValueError(f"{len(w)} weights for {len(pts)} points")
    if n_target < 2:
        raise ValueError(f"target count must be >= 2, got {n_target}")
    if not (math.isfinite(center_radius) and center_radius > 0):
        raise ValueError(f"center_radius must be finite and > 0, got {center_radius!r}")
    n1_target = n_target // 2
    dist = np.sqrt((pts**2).sum(axis=1))
    outside = np.flatnonzero(dist > center_radius)

    fallback = len(outside) < n1_target
    stage1 = outside[weighted_sample_without_replacement(w[outside], n1_target, rng)]

    chosen = np.zeros(len(pts), dtype=bool)
    chosen[stage1] = True
    pool = np.flatnonzero(~chosen)
    stage2 = pool[weighted_sample_without_replacement(w[pool], n_target - len(stage1), rng)]

    indices = np.concatenate([np.sort(stage1), np.sort(stage2)])
    return TwoStageResult(
        indices=indices,
        n1=len(stage1),
        n2=len(stage2),
        fallback_stage1=bool(fallback),
        truncated=len(indices) < n_target,
    )


# ---------------------------------------------------------------------------
# velocity augmentation and plane mapping


def nn_flow_estimate(frame_t: PointCloudFrame, frame_next: PointCloudFrame,
                     dt: float) -> np.ndarray:
    """Geometric stand-in for a learned scene-flow model: each point moves to
    its nearest neighbor in the next frame, velocity = displacement / dt.
    An empty next frame yields zero velocities."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    n = frame_t.n_points
    if n == 0 or frame_next.n_points == 0:
        return np.zeros((n, 3))
    idx, _ = _nearest(frame_next.xyz, frame_t.xyz)
    return (frame_next.xyz[idx] - frame_t.xyz) / dt


def with_velocity(frame: PointCloudFrame, velocities: np.ndarray) -> PointCloudFrame:
    """Attach per-point velocities; only the planar (vx, vy) part is kept."""
    vel = np.asarray(velocities, dtype=np.float64)
    if vel.shape not in ((frame.n_points, 2), (frame.n_points, 3)):
        raise ValueError(f"velocities shape {vel.shape} does not fit {frame.n_points} points")
    return PointCloudFrame(frame.frame_id, frame.timestamp, frame.xyz,
                           frame.intensity, vel[:, :2])


def map_to_plane(frame: PointCloudFrame) -> PointCloudFrame:
    """Flatten to the radar plane: z = 0, planar velocity preserved."""
    xyz = frame.xyz.copy()
    xyz[:, 2] = 0.0
    return PointCloudFrame(frame.frame_id, frame.timestamp, xyz,
                           frame.intensity, frame.velocity_or_zero())


# ---------------------------------------------------------------------------
# full pipeline


def lidar_to_radar(
    frames: Sequence[PointCloudFrame],
    model: Gmm1D,
    config: SamplingConfig,
    flow: Callable[[PointCloudFrame, PointCloudFrame, float], np.ndarray] | None = None,
) -> tuple[list[PointCloudFrame], list[FrameReport]]:
    """Convert a LiDAR frame sequence into pseudo-radar frames plus reports.

    Velocities are estimated after sampling, on the selected points only, by
    ``flow(frame_t, frame_next, dt) -> (N, 3)``; it defaults to
    :func:`nn_flow_estimate`, looked up at call time. The last frame has no
    successor and gets zero velocities, flagged in its report. Deterministic
    given (config.seed, model, input).
    """
    if len(frames) < 2:
        raise ValueError(f"need at least 2 frames for flow estimation, got {len(frames)}")
    flow = flow if flow is not None else nn_flow_estimate
    outputs: list[PointCloudFrame] = []
    reports: list[FrameReport] = []
    for i, frame in enumerate(frames):
        try:
            out, report = _process_frame(frame, frames[i + 1] if i + 1 < len(frames) else None,
                                         i, model, config, flow)
        except PipelineError:
            raise
        except ValueError as exc:
            raise PipelineError(frame.frame_id, str(exc)) from exc
        outputs.append(out)
        reports.append(report)
    return outputs, reports


def _process_frame(frame, frame_next, index, model, config, flow):
    rng = philox(config.seed, index)
    n_target = sample_count(model, rng)
    kept = thin_redundant(frame.xyz, config.d_threshold)
    thinned = frame.select(kept)

    if thinned.n_points == 0:
        empty = PointCloudFrame(frame.frame_id, frame.timestamp,
                                np.zeros((0, 3)), np.zeros(0), np.zeros((0, 2)))
        report = FrameReport(frame.frame_id, frame.n_points, 0, n_target, 0, 0,
                             fallback_stage1=True, zero_velocity=True,
                             intensity_fallback=True, truncated=True, seed=config.seed)
        return empty, report

    w_int, intensity_fallback = intensity_weights(thinned.intensity)
    w_spa = sparsity_weights(thinned.xyz, config.neighbor_count)
    w_dist = distance_weights(thinned.xyz, config.dist_epsilon)
    w = combine_weights(w_int, w_dist, w_spa, config)

    sel = two_stage_sample(thinned.xyz, w, n_target, config.center_radius, rng)
    chosen = thinned.select(sel.indices)

    if frame_next is not None and frame_next.n_points > 0 and chosen.n_points > 0:
        dt = frame_next.timestamp - frame.timestamp
        if not dt > 0:
            raise ValueError(f"timestamps must strictly increase, got "
                             f"{frame.timestamp!r} then {frame_next.timestamp!r}")
        vel = np.asarray(flow(chosen, frame_next, dt), dtype=np.float64)
        if vel.shape != (chosen.n_points, 3):
            raise ValueError(f"flow estimator returned shape {vel.shape}, "
                             f"expected ({chosen.n_points}, 3)")
        if not np.isfinite(vel).all():
            raise ValueError("flow estimator returned non-finite velocities")
        zero_velocity = False
    else:
        vel = np.zeros((chosen.n_points, 3))
        zero_velocity = True

    radar = map_to_plane(with_velocity(chosen, vel))
    report = FrameReport(frame.frame_id, frame.n_points, thinned.n_points,
                         n_target, sel.n1, sel.n2, sel.fallback_stage1,
                         zero_velocity, intensity_fallback, sel.truncated, config.seed)
    return radar, report
