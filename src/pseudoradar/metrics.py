"""Chamfer distance between point sets and corpus-level aggregation.

The value is the symmetric sum of mean squared nearest-neighbor distances,
with no square root, so units are meters squared. The production path runs
on the sorted-cell nearest query of ``spatial``, whose distances are the
oracle's bit for bit; ``chamfer_bruteforce`` is the independent full-scan
oracle used by the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, EmptyFrameError
from .pointcloud import PointCloudFrame
from .spatial import _nearest
from .spatial import KdTree  # noqa: F401  perfbench times kd-tree builds under this name


def _as_xyz(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError(f"expected (N, 2) or (N, 3) points, got shape {pts.shape}")
    if pts.shape[1] == 2:
        pts = np.column_stack([pts, np.zeros(len(pts))])
    return pts


def chamfer(p, q) -> float:
    """mean_p min_q |p-q|^2 + mean_q min_p |q-p|^2, both sets non-empty."""
    p = _as_xyz(p)
    q = _as_xyz(q)
    if len(p) == 0 or len(q) == 0:
        raise ValueError("chamfer distance is undefined for empty point sets")
    _, d2_p = _nearest(q, p)
    _, d2_q = _nearest(p, q)
    # Python float sums in point order, as a per-point loop would add them
    return sum(d2_p.tolist()) / len(p) + sum(d2_q.tolist()) / len(q)


def chamfer_bruteforce(p, q) -> float:
    """Oracle: same value via the full pairwise squared-distance matrix."""
    p = _as_xyz(p)
    q = _as_xyz(q)
    if len(p) == 0 or len(q) == 0:
        raise ValueError("chamfer distance is undefined for empty point sets")
    # one axis at a time, left to right: the same sum as over a 3-wide last
    # axis, without numpy's slow reduction over it
    d2 = sum((p[:, None, i] - q[None, :, i]) ** 2 for i in range(3))
    return float(d2.min(axis=1).mean() + d2.min(axis=0).mean())


@dataclass(frozen=True)
class ChamferReport:
    per_frame: list[tuple[str, float]]
    mean: float
    count: int

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "per_frame": [{"frame_id": fid, "value": val} for fid, val in self.per_frame],
        }


def mean_chamfer(frames_a: Sequence[PointCloudFrame],
                 frames_b: Sequence[PointCloudFrame]) -> ChamferReport:
    """Pair frames by frame_id and average their Chamfer distances.

    Ids that repeat on either side, then ids present on only one side, abort
    with an AlignmentError listing them. Pairs with an empty side abort,
    before any distance is computed, with an EmptyFrameError listing every
    such id in ``frames_a`` order.
    """
    repeated = sorted({fid for frames in (frames_a, frames_b)
                       for fid, n in Counter(f.frame_id for f in frames).items() if n > 1})
    if repeated:
        raise AlignmentError(f"repeated frame ids: {', '.join(repeated)}")
    by_id_b = {f.frame_id: f for f in frames_b}
    ids_a = {f.frame_id for f in frames_a}
    orphans = sorted(ids_a.symmetric_difference(by_id_b))
    if orphans:
        raise AlignmentError(f"unpaired frame ids: {', '.join(orphans)}", orphans=orphans)
    pairs = [(fa, by_id_b[fa.frame_id]) for fa in frames_a]
    empty = [fa.frame_id for fa, fb in pairs if fa.n_points == 0 or fb.n_points == 0]
    if empty:
        raise EmptyFrameError(empty)
    per_frame = [(fa.frame_id, chamfer(fa.xyz, fb.xyz)) for fa, fb in pairs]
    mean = float(np.mean([v for _, v in per_frame])) if per_frame else 0.0
    return ChamferReport(per_frame=per_frame, mean=mean, count=len(per_frame))
