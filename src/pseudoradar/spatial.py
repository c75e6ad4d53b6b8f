"""Exact nearest neighbors and redundancy thinning for 3-D point clouds.

The kd-tree indexes the distinct coordinates of its input, found by a
lexicographic sort of the rows (no hash) and each keeping its point indices
in ascending order, as a complete binary tree in heap layout:
node i has children 2i and 2i + 1, and leaves are padded rows of coordinates.
One batched query answers any k; it is the fallback of both grid queries
below and the tests' reference. Per block of queries, each query scans its
home leaf, widens one ancestor at a time while it has fewer than k
neighbors, then scans every other leaf whose box lies within its k-th
distance.

Distances use the brute-force oracle's expression, so they agree with it bit
for bit. Box bounds round the same way, so they never exceed the distance of a
point in the box, and only boxes strictly beyond the k-th distance are pruned:
an equal-distance, lower-index point is never lost.

Thinning, the sparsity weight, flow and Chamfer read one cell list. Each
point's cell at a pitch gets a dense int64 key over the cells' box padded by
one cell, so that cells z - 1 to z + 1 of an (x, y) column hold consecutive
keys: a cell's 27 neighbors are 9 runs of the sorted keys, found by binary
search, and its 13 forward neighbors the cell above and 4 of those runs.
Thinning, at the threshold's pitch, tests the pairs within each cell and
across its forward neighbors, and resolves the keep-first choice among the
conflicting ones in a few parallel rounds, block by block under a pair
budget. The k-NN behind the sparsity weight and the nearest query behind
flow and Chamfer share their grid passes: at a pitch set by the cloud's
density, then at twice and four times it, each scans a row's 9 runs, and a
row is final when its answer lies below the pitch, less a rounding margin;
the kd-tree takes any rows left. The k-NN, which needs only distances, pads
each cell's candidates once for its rows; the nearest query, which also
needs the kd-tree's lowest index among ties, lists each row's unpadded.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial

import numpy as np

_LEAF = 16  # most distinct coordinates per leaf
_BLOCK = 1024  # queries per block, and (query, node) pairs per frontier piece
_PAIR_BUDGET = 1 << 18  # candidate pairs per block of thinning
_KNN_AREA = 1 << 14  # padded (row, candidate) slots per block of the grid k-NN
_KNN_FILL = 0.8  # mean points in a point's own cell, per neighbor, at the k-NN pitch
_NEAREST_K = 4  # the neighbor count whose k-NN pitch the nearest query starts at
_PASSES = 3  # grid passes of the k-NN and the nearest query, each at twice the last pitch
_ROUNDS = 16  # greedy rounds per block before an index-order pass finishes it
_KEY_LIMIT = 1 << 62  # most keys of a cell list before its axes are ranked, then wrapped


class KdTree:
    """Immutable balanced kd-tree over an (N, 3) coordinate array."""

    def __init__(self, points: np.ndarray):
        self.points = pts = _cloud(points, "kd-tree points")
        if len(pts) == 0:
            return
        self._members, self._first = _equal_rows(pts)
        self._count = np.diff(np.r_[self._first, len(pts)])
        distinct = pts[self._members[self._first]]
        n = len(distinct)

        # each level splits every node at its median along its widest axis
        depth = (-(-n // _LEAF) - 1).bit_length()
        self._leaves = leaves = 1 << depth
        self._axis = np.zeros(leaves, dtype=np.intp)
        self._split = np.zeros(leaves)
        self._lo = np.empty((2 * leaves, 3))
        self._hi = np.empty((2 * leaves, 3))
        # a distinct rank per coordinate and axis, equal values in any order:
        # seg * n + rank orders a level by node, then by value, in one key
        rank = np.empty((3, n), dtype=np.int64)
        rank[np.arange(3)[:, None], np.argsort(distinct, axis=0).T] = np.arange(n)
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
            perm = perm[np.argsort(seg * n + rank[axis[seg], perm])]
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
        """Exact k nearest neighbors of each row of an (M, 3) query array;
        any empty query list counts as (0, 3).

        Returns ``(idx, d2)``, both (M, k): point indices (intp) and squared
        distances (float64), each row ascending by (distance, index). Slots
        with no neighbor hold index -1 and distance inf. ``exclude_self``
        drops every stored point at distance exactly 0, so a query placed on
        an indexed member skips itself (and any duplicates).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        qs = _cloud(queries, "kd-tree queries")
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


def _equal_rows(pts):
    """Group the equal rows of a finite (N, 3) array: returns ``(order,
    first)``, the row indices with equal rows adjacent and each group's
    indices ascending, and the position in ``order`` where each group starts.

    ``order`` is the stable lexicographic sort of the rows, so the groups are
    exact: -0.0 and 0.0 compare equal and share a group.
    """
    order = np.lexsort(pts.T[::-1])
    srt = pts[order]
    ne = srt[1:] != srt[:-1]
    return order, np.flatnonzero(np.r_[True, ne[:, 0] | ne[:, 1] | ne[:, 2]])


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
    and is idempotent. Points sit in ``floor(p / d_threshold)`` cells, so any
    conflicting pair lies in one cell or in two adjacent ones. Raises
    ``ValueError`` when ``points`` is not a finite (N, 3) array, when
    ``d_threshold`` is not a number, and when those cell indices would leave
    the int64 range.
    """
    pts = _cloud(points, "thin_redundant input")
    if d_threshold != d_threshold:
        raise ValueError(f"d_threshold is not a number, got {d_threshold!r}")
    if d_threshold < 0:
        raise ValueError(f"d_threshold must be >= 0, got {d_threshold}")
    n = len(pts)
    if n == 0 or d_threshold == 0.0:
        return np.arange(n, dtype=np.intp)
    low, high = _col_bounds(pts)
    # floor(p / d) is monotone in p, so the bounds' cells are the extremes
    with np.errstate(over="ignore"):
        corners = np.floor(np.r_[low, high] / d_threshold)
    if not ((corners >= -2.0**63) & (corners < 2.0**63)).all():
        raise ValueError(
            f"d_threshold={d_threshold!r} is too small for coordinates up to "
            f"|p| = {float(max(-low.min(), high.max()))!r}: cell indices p / d_threshold "
            f"leave the int64 range")
    thr2 = d_threshold * d_threshold
    if thr2 == 0.0:  # d * d underflows, so no distance falls below it
        return np.arange(n, dtype=np.intp)

    (key,), near, wrap = _cell_keys(d_threshold, low, high, pts)
    xyz = [np.ascontiguousarray(c) for c in pts.T]
    # one sort by key, which every block compacts
    srt = np.argsort(key).astype(np.int32)
    key = key[srt]
    # the cell above, then the columns after the cell's own in (dx, dy)
    # order: with the cell itself they reach every adjacent pair once
    forward = [(1, 1)] + near[5:]

    # blocks of consecutive points: first close every point that conflicts
    # with a point kept before the block, then resolve the rest in rounds.
    # An exact duplicate is a conflict at distance 0 like any other
    kept = np.zeros(n, dtype=bool)
    lo, size = 0, n
    while lo < n:
        hi = min(n, lo + size)
        size = (hi - lo) // 2  # a block whose pairs overflow is halved and retried
        live = np.zeros(n, dtype=bool)
        live[lo:hi] = True
        if lo:  # every block after the first has kept points before it
            pairs = _cell_pairs(srt, key, live, kept, near, wrap)
            if pairs is None:
                continue
            a, b = pairs
            live[a[_conflicts(xyz, a, b, thr2)]] = False
        blk = np.flatnonzero(live[lo:hi]) + lo
        if len(blk):  # _cell_pairs needs a home point
            pairs = _cell_pairs(srt, key, live, None, forward, wrap)
            if pairs is None:
                continue
            a, b = pairs
            hit = _conflicts(xyz, a, b, thr2)
            a, b = a[hit], b[hit]
            kept[blk[_greedy(len(blk), np.searchsorted(blk, np.minimum(a, b)),
                             np.searchsorted(blk, np.maximum(a, b)))]] = True
        lo, size = hi, 2 * (hi - lo)
    return np.flatnonzero(kept)


def _cloud(points, what):
    """``points`` as a finite float64 (N, 3) array, any empty input as
    (0, 3), or a ValueError naming ``what``."""
    pts = np.asarray(points, dtype=np.float64)
    if not pts.size:
        pts = np.empty((0, 3))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{what} must be an (N, 3) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError(f"{what} contains non-finite coordinates")
    return pts


def _knn_sqdist(points, k):
    """Each point's k smallest squared distances to the points that do not
    coincide with it, ascending, inf where fewer than k exist: the distances
    of ``KdTree(points).query(points, k, exclude_self=True)``, bit for bit."""
    pts = _cloud(points, "k-NN input")
    out = np.full((len(pts), k), np.inf)
    rows = _grid_passes(pts, pts, _knn_pitch(pts, k), partial(_knn_block, pts, out))
    if len(rows):
        out[rows] = KdTree(pts).query(pts[rows], k, exclude_self=True)[1]
    return out


def _knn_pitch(pts, k):
    """A grid pitch at which most points' k nearest neighbors lie within one
    cell's width, from how full the cells are at two trial pitches; 0.0,
    which sends every row to the kd-tree, when the cloud has no such pitch."""
    n = len(pts)
    if n <= k:
        return 0.0
    target = _KNN_FILL * (k + 1)
    lo, hi = _col_bounds(pts)
    g = float((hi - lo).max()) * (target / n) ** (1 / 3)
    # a pitch this fine leaves no room for the certificate's rounding margin
    if not max(-lo.min(), hi.max()) < 2.0**48 * g:
        return 0.0
    full, half = (_fill(pts, h, lo, hi) for h in (g, 0.5 * g))
    # fill grows as pitch ** dim; below 1, a few cells hold most points (a far
    # outlier stretches the box) and the fill says nothing of the density
    dim = np.log2(full / half)
    if not dim >= 1.0:
        return 0.0
    return g * (target / full) ** (1 / min(dim, 3.0))


def _fill(pts, h, lo, hi):
    """Mean number of points in a point's own cell of pitch ``h``, given the
    cloud's per-column bounds ``lo`` and ``hi``. At the trial pitches of
    _knn_pitch the cloud's cell box holds O(N) keys, so a bincount of the
    keys counts the cells."""
    (key,), _, _ = _cell_keys(h, lo, hi, pts)
    # the sum over cells of count ** 2, as a sum over points
    return float(np.bincount(key)[key].sum()) / len(pts)


def _knn_block(pts, out, p):
    """Fill ``out[rows]`` with each row's k smallest squared distances to
    non-coincident points in its 27 cells, for the self-query pass ``p``;
    returns the rows whose k-th distance is not certified to be the cloud's
    own. A cell's candidates are padded once for all of its rows."""
    k = out.shape[1]
    # sorted coordinates, then one row at infinity that pads every block
    xyz = [np.r_[c, np.inf] for c in pts[p.order].T]
    width, ncell = p.width, len(p.width)
    # rows by width, then by cell: a block's last row is its widest, and the
    # rows of one cell, which share their candidates, sit together
    rows, home = np.stack((p.rows, p.cell))[:, np.argsort(width[p.cell] * ncell + p.cell)]
    stay = np.empty(len(rows), dtype=bool)
    lo = 0
    while lo < len(rows):
        hi = min(len(rows), lo + max(1, _KNN_AREA // int(width[home[lo]])))
        while hi - lo > 1 and (hi - lo) * int(width[home[hi - 1]]) > _KNN_AREA:
            hi = lo + max(1, _KNN_AREA // int(width[home[hi - 1]]))
        r, c = rows[lo:hi], home[lo:hi]
        new = np.r_[True, c[1:] != c[:-1]]
        run = np.cumsum(new) - 1
        uc = c[new]
        w = width[uc]
        span = max(int(w[-1]), k)
        # each cell's candidates, its 9 runs in turn, padded to span
        cnt = p.count[uc].ravel()
        off = np.cumsum(cnt) - cnt
        t = np.arange(int(w.sum()))
        cand = np.full((len(uc), span), len(pts))
        cand.ravel()[t + np.repeat(np.arange(len(uc)) * span - off[::9], w)] = \
            t + np.repeat(p.start[uc].ravel() - off, cnt)
        d2 = _sqdist((x[cand][run] for x in xyz), pts[r].T[:, :, None])
        # the k smallest non-zero distances, ascending
        d2[d2 == 0.0] = np.inf
        if span > k:
            d2 = np.partition(d2, k - 1, axis=1)[:, :k]
        d2.sort(axis=1)
        out[r] = d2
        stay[lo:hi] = ~(d2[:, -1] < p.bound)
        lo = hi
    return rows[stay]


def _certificate(h, scale):
    """The squared distance below which a row's best candidates in its 27
    cells of pitch ``h`` are certified to be the cloud's own, for points and
    queries within ``scale`` of the origin; 0.0 when rounding leaves none.
    A point outside the 27 cells is at least h away, less what the rounding
    of p / h and of the distance can take off."""
    eps = np.finfo(np.float64).eps
    reach = h - 4 * eps * (scale + h)
    return reach * reach * (1 - 4 * eps) if reach > 0.0 else 0.0


def _col_bounds(*arrays):
    """Per-column minima and maxima over non-empty (N, 3) arrays. A reduction
    over one strided column is many times faster than numpy's axis-0 one."""
    return (np.array([min(a[:, i].min() for a in arrays) for i in range(3)]),
            np.array([max(a[:, i].max() for a in arrays) for i in range(3)]))


def _nearest(points, queries):
    """Each query's nearest point: ``(idx, d2)``, both (M,), column 0 of
    ``KdTree(points).query(queries, 1)`` bit for bit, ties to the lowest
    index, and -1 and inf when ``points`` is empty."""
    pts = _cloud(points, "nearest-neighbor points")
    qs = _cloud(queries, "nearest-neighbor queries")
    idx = np.full(len(qs), -1, dtype=np.intp)
    d2 = np.full(len(qs), np.inf)
    rows = _grid_passes(pts, qs, _knn_pitch(pts, _NEAREST_K),
                        partial(_nearest_block, pts, qs, idx, d2))
    if len(rows):
        i, d = KdTree(pts).query(qs[rows], 1)
        idx[rows], d2[rows] = i[:, 0], d[:, 0]
    return idx, d2


def _nearest_block(pts, qs, idx, d2, p):
    """Fill ``idx[rows]`` and ``d2[rows]`` where a query's nearest point in
    its 27 cells is certified to be its nearest in the whole cloud, for the
    rows of the pass ``p``; returns the rows left uncertified. A block lists
    each row's candidates in turn, unpadded."""
    rows, cell = p.rows, p.cell
    q = qs[rows]
    width = p.width[cell]
    end = np.cumsum(width)
    stay = np.ones(len(rows), dtype=bool)
    lo = 0
    while lo < len(rows):
        # the rows whose candidates fit in _KNN_AREA slots, at least one
        hi = max(lo + 1, int(np.searchsorted(end, end[lo] - width[lo] + _KNN_AREA,
                                             side="right")))
        c = p.count[cell[lo:hi]].ravel()
        run = np.repeat(p.start[cell[lo:hi]].ravel() - (np.cumsum(c) - c), c)
        cand = p.order[np.arange(len(run)) + run]
        # the rows with candidates, each one's first slot and its slots' row
        full = np.flatnonzero(width[lo:hi]) + lo
        w = width[full]
        first = np.cumsum(w) - w
        dist = _sqdist((pts[cand, a] for a in range(3)), (np.repeat(x, w) for x in q[full].T))
        # per row, the least distance, then the least index at that distance
        best = np.minimum.reduceat(dist, first)
        at = np.minimum.reduceat(
            np.where(dist == np.repeat(best, w), cand, len(pts)), first)
        ok = best < p.bound
        r = full[ok]
        idx[rows[r]], d2[rows[r]] = at[ok], best[ok]
        stay[r] = False
        lo = hi
    return rows[stay]


# one grid pass at pitch h: the query rows left, in key order, each one's cell
# among their distinct keys, the points in key order, each distinct key's 9
# runs of the sorted points (see _runs) and their total width, and the bound
_Pass = namedtuple("_Pass", "h bound rows cell order start count width")


def _grid_passes(pts, qs, h, block):
    """The rows of the queries ``qs`` that no grid pass against the points
    ``pts`` settles, after _PASSES passes at pitches h, 2h, 4h, ..., or none
    when h is 0.0. Each pass keys the points and the rows left and hands the
    _Pass to ``block``, which settles what it can and returns the other
    rows. A self-query, ``qs is pts``, keys the cloud once."""
    rows = np.arange(len(qs))
    for _ in range(_PASSES):
        if not (len(rows) and h > 0.0):
            break
        clouds = (pts,) if qs is pts else (pts, qs[rows])
        lo, hi = _col_bounds(*clouds)
        bound = _certificate(h, max(-lo.min(), hi.max()))
        if bound > 0.0:
            (key, *qkey), near, wrap = _cell_keys(h, lo, hi, *clouds)
            order = np.argsort(key)
            key = key[order]
            if qs is pts:  # the rows left, in the points' order
                live = np.zeros(len(pts), dtype=bool)
                live[rows] = True
                live = live[order]
                rows, qkey = order[live], key[live]
            else:  # rows by key, so that each interval's needles ascend
                by_key = np.argsort(qkey[0])
                rows, qkey = rows[by_key], qkey[0][by_key]
            new = np.ones(len(qkey), dtype=bool)
            new[1:] = qkey[1:] != qkey[:-1]
            start, count = _runs(key, qkey[new], near, wrap)
            del key, qkey  # no block reads them
            rows = block(_Pass(h, bound, rows, np.cumsum(new) - 1, order, start, count,
                               count.sum(axis=1)))
        h *= 2.0
    return rows


def _cell_keys(h, lo, hi, *clouds):
    """The cell list at pitch ``h`` of (N, 3) clouds whose columns lie
    within ``lo`` and ``hi``: returns ``(keys, near, wrap)``, an int64 key
    array per cloud, the key intervals of the 9 (x, y) columns around a cell
    in (dx, dy) order, and the key span that neighbor keys wrap round, or 0.

    A box of more than _KEY_LIMIT keys ranks its axes, which keeps neighbors
    one apart. If the ranked box holds more still, x wraps modulo the largest
    span that fits, but at least 3 so that the 9 columns stay distinct; cells
    whose x ranks differ by a multiple of it share keys, which only adds
    candidates that each user's exact distance test drops.
    """
    first = np.floor(lo / h) - 1.0
    span = np.floor(hi / h) - first + 2.0
    if float(np.prod(span)) <= _KEY_LIMIT and \
            max(-first.min(), (first + span).max()) <= 2.0**52:
        # every cell is an exact float64 integer, so a key needs no ranks
        sy, sz, wrap = int(span[1]), int(span[2]), 0
        keys = []
        for x in clouds:
            c = x / h
            np.floor(c, out=c)
            k = (c[:, 0] - first[0]).astype(np.int64)
            for a, s in ((1, sy), (2, sz)):
                k *= s
                k += (c[:, a] - first[a]).astype(np.int64)
            keys.append(k)
    else:
        (x, sx), (y, sy), (z, sz) = (_axis_rank(np.concatenate(
            [np.floor(c[:, a] / h) for c in clouds]).astype(np.int64)) for a in range(3))
        wrap = 0
        if sx * sy * sz > _KEY_LIMIT:
            sx = max(_KEY_LIMIT // (sy * sz), 3)
            x %= sx
            wrap = sx * sy * sz
        keys = np.split((x * sy + y) * sz + z, np.cumsum([len(c) for c in clouds[:-1]]))
    cols = [(dx * sy + dy) * sz for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    return keys, [(o - 1, o + 1) for o in cols], wrap


def _runs(keys, needles, intervals, wrap):
    """Where the sorted ``keys`` hold each interval around each needle:
    returns ``(start, count)``, both (len(needles), len(intervals)) int32.
    An interval ``(lo, hi)`` is the keys b to b + hi - lo from b = needle +
    lo, taken modulo ``wrap`` unless it is 0. One pair of binary searches
    per interval, whose needles ascend with ``needles``."""
    start = np.empty((len(needles), len(intervals)), dtype=np.int32)
    count = np.empty_like(start)
    for j, (lo, hi) in enumerate(intervals):
        b = needles + lo
        if wrap:
            b %= wrap
        start[:, j] = s = np.searchsorted(keys, b)
        count[:, j] = np.searchsorted(keys, b + (hi - lo + 1)) - s
    return start, count


def _axis_rank(values):
    """Ranks of int64 values, from 1, that keep consecutive integers 1 apart
    and close every other gap to 2, and a span of at most 2N + 1 that leaves
    room for +-1 around every rank."""
    u, inv = np.unique(values, return_inverse=True)
    rank = np.cumsum(np.r_[1, 2 - (u[1:] == u[:-1] + 1)])
    return rank[inv], int(rank[-1]) + 2


def _cell_pairs(srt, key, home, other, intervals, wrap):
    """Pairs (a, b) of points, a in the mask ``home`` and b in the mask
    ``other``, whose keys lie in an interval (see _runs) around each other,
    given the points ``srt`` in key order and their keys ``key``. With
    ``other`` None, pairs of home points that share a cell or whose cells an
    interval joins, each once, in either order. Returns None when there are
    more than _PAIR_BUDGET pairs to build and more than one home point."""
    h = home[srt]
    hpos, hkey = srt[h], key[h]
    if other is None:
        opos, okey, intervals = hpos, hkey, [(0, 0)] + intervals
    else:
        o = other[srt]
        opos, okey = srt[o], key[o]
    first = np.flatnonzero(np.r_[True, hkey[1:] != hkey[:-1]])
    start, count = _runs(okey, hkey[first], intervals, wrap)
    size = np.diff(np.r_[first, len(hkey)])[:, None] * count
    if size.sum() > _PAIR_BUDGET and len(hpos) > 1:
        return None
    # each cell's runs in turn, each the cross product of two runs
    rep = np.repeat(np.arange(size.size, dtype=np.int32), size.ravel())
    t = np.arange(len(rep), dtype=np.int32)
    t -= np.repeat((np.cumsum(size) - size.ravel()).astype(np.int32), size.ravel())
    i, j = np.divmod(t, count.ravel()[rep])
    i += first[rep // len(intervals)]
    j += start.ravel()[rep]
    if other is None:
        # a cell's own pairs are listed both ways round and with themselves
        ok = (i < j) | (rep % len(intervals) > 0)
        i, j = i[ok], j[ok]
    return hpos[i], opos[j]


def _conflicts(cols, a, b, thr2):
    """Mask of pairs (a, b) of points closer than sqrt(thr2), given the
    points' coordinate columns."""
    return _sqdist((c[b] for c in cols), (c[a] for c in cols)) < thr2


def _sqdist(p, q):
    """Squared distances ``dx * dx + dy * dy + dz * dz``, summed left to
    right, between points given as per-axis coordinate arrays ``p`` and
    ``q``, broadcast together: the oracle's ``((p - q) ** 2).sum(axis=1)``
    bit for bit, without numpy's slow reduction over 3-wide rows. ``p`` must
    yield new arrays, which are overwritten."""
    d2 = None
    for a, b in zip(p, q):
        a -= b
        a *= a
        d2 = a if d2 is None else np.add(d2, a, out=d2)
    return d2


def _greedy(size, a, b):
    """Indices of the points that keep-first greedy thinning keeps among
    ``size`` points, given their conflict pairs (a, b), a < b.

    Each round closes every open point with a kept earlier neighbor, then
    keeps every open point with no open earlier neighbor (Blelloch, Fineman
    and Shun, SPAA 2012). A long chain resolves only two points per round, so
    after _ROUNDS rounds an index-order pass finishes what is left.
    """
    kept = np.zeros(size, dtype=bool)
    open_ = np.ones(size, dtype=bool)
    for rounds_left in range(_ROUNDS, -1, -1):
        open_[b[kept[a]]] = False
        live = open_[a] & open_[b]
        a, b = a[live], b[live]
        if not len(a):
            return np.flatnonzero(kept | open_)
        if not rounds_left:
            break
        free = open_.copy()
        free[b] = False
        kept |= free
        open_ ^= free
    order = np.argsort(a, kind="stable")
    a, b = a[order], b[order]
    bounds = np.searchsorted(a, np.arange(size + 1)).tolist()
    for i in np.flatnonzero(open_).tolist():
        if open_[i]:
            kept[i] = True
            open_[b[bounds[i]:bounds[i + 1]]] = False
    return np.flatnonzero(kept)
