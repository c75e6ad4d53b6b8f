"""Reference implementation of ``thin_redundant``: one point at a time, each
checked against the kept points in the 27 grid cells around it.

This is the thinning as it was before the pair-and-round form, kept only so
that tests can compare ``pseudoradar.spatial.thin_redundant`` against it. It
is slow by design and is not part of the package. Distances are squared with
products, ``e * e``, as the package squares them: Python's ``e ** 2`` calls the
C library's ``pow``, whose last bit differs between platforms.
"""

from __future__ import annotations

import numpy as np


def thin_redundant(points: np.ndarray, d_threshold: float) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if d_threshold < 0:
        raise ValueError(f"d_threshold must be >= 0, got {d_threshold}")
    n = len(pts)
    if n == 0 or d_threshold == 0.0:
        return np.arange(n, dtype=np.intp)
    if not np.isfinite(pts).all():
        raise ValueError("thin_redundant input contains non-finite coordinates")
    thr2 = d_threshold * d_threshold
    cells = np.floor(pts / d_threshold).astype(np.int64).tolist()
    coords = pts.tolist()
    # buckets hold kept point coordinates directly; candidates only need them
    grid: dict[tuple[int, int, int], list[list[float]]] = {}
    get = grid.get
    kept: list[int] = []
    neighborhood = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                    for dz in (-1, 0, 1)]
    for i in range(n):
        cx, cy, cz = cells[i]
        x, y, z = coords[i]
        ok = True
        for dx, dy, dz in neighborhood:
            bucket = get((cx + dx, cy + dy, cz + dz))
            if bucket is None:
                continue
            for qx, qy, qz in bucket:
                ex, ey, ez = x - qx, y - qy, z - qz
                if ex * ex + ey * ey + ez * ez < thr2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            kept.append(i)
            grid.setdefault((cx, cy, cz), []).append(coords[i])
    return np.asarray(kept, dtype=np.intp)
