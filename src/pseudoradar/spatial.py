"""Static 3-D kd-tree with exact, index-tie-broken nearest neighbors.

The tree indexes the distinct coordinates of its input, each keeping its point
indices in ascending order, as a complete binary tree in heap layout: node i
has children 2i and 2i + 1, and leaves are padded rows of coordinates. One
batched query serves every caller. Per block of queries, each query scans its
home leaf, widens one ancestor at a time while it has fewer than k neighbors,
then scans every other leaf whose box lies within its k-th distance.

Distances use the brute-force oracle's expression, so they agree with it bit
for bit. Box bounds round the same way, so they never exceed the distance of a
point in the box, and only boxes strictly beyond the k-th distance are pruned:
an equal-distance, lower-index point is never lost.
"""

from __future__ import annotations

import numpy as np

_LEAF = 16  # most distinct coordinates per leaf
_BLOCK = 1024  # queries per block, and (query, node) pairs per frontier piece


class KdTree:
    """Immutable balanced kd-tree over an (N, 3) coordinate array."""

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("kd-tree input contains non-finite coordinates")
        self.points = pts
        if len(pts) == 0:
            return
        # group exact duplicates; the stable sort keeps each group's indices ascending
        self._members = np.lexsort(pts.T)
        srt = pts[self._members]
        self._first = np.flatnonzero(np.r_[True, (srt[1:] != srt[:-1]).any(axis=1)])
        self._count = np.diff(np.r_[self._first, len(pts)])
        distinct = srt[self._first]
        n = len(distinct)

        # each level splits every node at its median along its widest axis
        depth = (-(-n // _LEAF) - 1).bit_length()
        self._leaves = leaves = 1 << depth
        self._axis = np.zeros(leaves, dtype=np.intp)
        self._split = np.zeros(leaves)
        self._lo = np.empty((2 * leaves, 3))
        self._hi = np.empty((2 * leaves, 3))
        perm = np.arange(n)
        bounds = np.array([0, n])
        for level in range(depth + 1):
            nodes = np.arange(1 << level, 2 << level)
            sub = distinct[perm]
            self._lo[nodes] = np.minimum.reduceat(sub, bounds[:-1])
            self._hi[nodes] = np.maximum.reduceat(sub, bounds[:-1])
            seg = np.repeat(np.arange(len(nodes)), np.diff(bounds))
            if level == depth:
                break
            axis = (self._hi[nodes] - self._lo[nodes]).argmax(axis=1)
            perm = perm[np.lexsort((sub[np.arange(n), axis[seg]], seg))]
            mid = (bounds[:-1] + bounds[1:]) // 2
            self._axis[nodes] = axis
            self._split[nodes] = distinct[perm[mid], axis]
            bounds = np.insert(bounds, np.arange(1, len(bounds)), mid)
        slot = np.arange(n) - bounds[seg]
        width = int(np.diff(bounds).max())
        # padding slots sit at infinity and hold coordinate id -1
        self._leaf_ids = np.full((leaves, width), -1, dtype=np.intp)
        self._leaf_ids[seg, slot] = perm
        self._leaf_pts = np.full((leaves, width, 3), np.inf)
        self._leaf_pts[seg, slot] = distinct[perm]

    def __len__(self) -> int:
        return len(self.points)

    def query(self, queries, k: int,
              exclude_self: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Exact k nearest neighbors of each row of an (M, 3) query array.

        Returns ``(idx, d2)``, both (M, k): point indices (intp) and squared
        distances (float64), each row ascending by (distance, index). Slots
        with no neighbor hold index -1 and distance inf. ``exclude_self``
        drops every stored point at distance exactly 0, so a query placed on
        an indexed member skips itself (and any duplicates).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        qs = np.asarray(queries, dtype=np.float64)
        if qs.ndim != 2 or qs.shape[1] != 3:
            raise ValueError(f"expected (M, 3) queries, got shape {qs.shape}")
        if not np.isfinite(qs).all():
            raise ValueError("kd-tree query contains non-finite coordinates")
        idx = np.full((len(qs), k), -1, dtype=np.intp)
        d2 = np.full((len(qs), k), np.inf)
        if len(self.points):
            for lo in range(0, len(qs), _BLOCK):
                hi = lo + _BLOCK
                self._search(qs[lo:hi], idx[lo:hi], d2[lo:hi], exclude_self)
        return idx, d2

    def k_nearest(
        self, query, k: int, exclude_self: bool = False
    ) -> list[tuple[int, float]]:
        """The min(k, available) nearest points as (index, distance) pairs,
        ascending by (distance, index); a single-query view of ``query``."""
        idx, d2 = self.query(np.reshape(query, (1, 3)), min(k, max(len(self), 1)),
                             exclude_self)
        return [(j, float(np.sqrt(d))) for j, d in zip(idx[0].tolist(), d2[0]) if j >= 0]

    def _search(self, q, best_i, best_d, exclude_self):
        """Fill one block's (best_i, best_d) rows in place."""
        rows = np.arange(len(q))
        home = np.ones(len(q), dtype=np.intp)
        while home[0] < self._leaves:
            home = 2 * home + (q[rows, self._axis[home]] >= self._split[home])
        # done[r]: root of the subtree already scanned for query r
        done = home.copy()
        self._descend(q, rows, home, done, best_i, best_d, exclude_self)
        while True:
            short = np.flatnonzero((best_i[:, -1] < 0) & (done > 1))
            if not len(short):
                break
            sibling = done[short] ^ 1
            done[short] >>= 1
            self._descend(q, short, sibling, done, best_i, best_d, exclude_self)
        rest = np.flatnonzero(done > 1)
        self._descend(q, rest, np.ones(len(rest), dtype=np.intp), done,
                      best_i, best_d, exclude_self)

    def _descend(self, q, rows, nodes, done, best_i, best_d, exclude_self):
        """Scan every leaf under (rows, nodes) pairs, all on one level, whose
        box is within the row's current k-th distance, skipping ``done``."""
        stack = [(rows, nodes)] if len(rows) else []
        while stack:
            rows, nodes = stack.pop()
            if nodes[0] >= self._leaves:
                self._scan(q, rows, nodes - self._leaves, best_i, best_d, exclude_self)
                continue
            rows = np.repeat(rows, 2)
            nodes = np.repeat(2 * nodes, 2)
            nodes[1::2] += 1
            qr = q[rows]
            gap = np.maximum(np.maximum(self._lo[nodes] - qr, qr - self._hi[nodes]), 0.0)
            keep = ((gap ** 2).sum(axis=1) <= best_d[rows, -1]) & (nodes != done[rows])
            rows, nodes = rows[keep], nodes[keep]
            stack.extend((rows[s:s + _BLOCK], nodes[s:s + _BLOCK])
                         for s in range(0, len(rows), _BLOCK))

    def _scan(self, q, rows, leaves, best_i, best_d, exclude_self):
        """Merge the points of leaf ``leaves[p]`` into row ``rows[p]``'s best k."""
        ids = self._leaf_ids[leaves]
        d2 = ((self._leaf_pts[leaves] - q[rows][:, None, :]) ** 2).sum(axis=2)
        keep = (ids >= 0) & (d2 <= best_d[rows, -1][:, None])
        if exclude_self:
            keep &= d2 != 0.0
        k = best_i.shape[1]
        if k <= keep.shape[1]:
            # k kept coordinates of one leaf bound the row's k-th distance
            bound = np.full(len(best_d), np.inf)
            np.minimum.at(bound, rows, np.partition(np.where(keep, d2, np.inf), k - 1)[:, k - 1])
            keep &= d2 <= bound[rows][:, None]
        if not keep.any():
            return
        # expand each coordinate into its first (at most k) point indices
        ids, d2 = ids[keep], d2[keep]
        take = np.minimum(self._count[ids], k)
        rep = np.repeat(np.arange(len(ids)), take)
        offset = np.arange(len(rep)) - np.repeat(np.cumsum(take) - take, take)
        u, r = np.unique(np.broadcast_to(rows[:, None], keep.shape)[keep][rep],
                         return_inverse=True)
        old_i, old_d = best_i[u], best_d[u]
        have = old_i >= 0
        r = np.concatenate([np.nonzero(have)[0], r])
        ci = np.concatenate([old_i[have], self._members[self._first[ids[rep]] + offset]])
        cd = np.concatenate([old_d[have], d2[rep]])
        order = np.lexsort((ci, cd, r))
        r, ci, cd = r[order], ci[order], cd[order]
        rank = np.arange(len(r)) - np.searchsorted(r, r)
        top = rank < k
        old_i.fill(-1)
        old_d.fill(np.inf)
        old_i[r[top], rank[top]] = ci[top]
        old_d[r[top], rank[top]] = cd[top]
        best_i[u] = old_i
        best_d[u] = old_d


def brute_force_k_nearest(
    points: np.ndarray, query, k: int, exclude_self: bool = False
) -> list[tuple[int, float]]:
    """Oracle for KdTree.k_nearest: full scan, lexicographic (distance, index)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return []
    q = np.asarray(query, dtype=np.float64).reshape(3)
    d2 = ((pts - q) ** 2).sum(axis=1)
    idx = np.arange(len(pts))
    if exclude_self:
        keep = d2 != 0.0
        d2, idx = d2[keep], idx[keep]
    order = np.lexsort((idx, d2))[:k]
    return [(int(idx[i]), float(np.sqrt(d2[i]))) for i in order]


def thin_redundant(points: np.ndarray, d_threshold: float) -> np.ndarray:
    """Greedy keep-first thinning: scan points in index order, keep a point
    iff it is at least ``d_threshold`` away from every point kept so far.

    Guarantees all pairwise distances among kept points are >= d_threshold
    and is idempotent. Uses a uniform cell grid of pitch d_threshold, so any
    conflicting kept point lies in the 27-cell neighborhood.
    """
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
                if (x - qx) ** 2 + (y - qy) ** 2 + (z - qz) ** 2 < thr2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            kept.append(i)
            grid.setdefault((cx, cy, cz), []).append(coords[i])
    return np.asarray(kept, dtype=np.intp)
