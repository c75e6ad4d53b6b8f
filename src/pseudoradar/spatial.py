"""Exact nearest neighbors and redundancy thinning for 3-D point clouds.

The kd-tree indexes the distinct coordinates of its input, each keeping its
point indices in ascending order, as a complete binary tree in heap layout:
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

The sparsity weight needs only each point's k nearest squared distances, so
it skips the tree and its index tie-break. Points sit in a uniform grid (a
cell list) whose pitch follows the cloud's density; each point's candidates
are the points of its 27 cells, taken as padded blocks of flat (point,
candidate) pairs, and a partition keeps the k smallest. A row is final when
its k-th distance is below the pitch, less a rounding margin; the rest take
a pass at twice the pitch, and any left after that the kd-tree.

Flow and Chamfer need each query's nearest point in another cloud, with the
kd-tree's index: the lowest among equal distances. The cloud's points are
sorted once per pass by one dense cell key over a box padded by one cell,
so each query's 27 cells are 9 runs of the sorted keys, found by binary
search. Per query, a segmented minimum gives the least distance and then
the least index at it. The rows' certificate is the sparsity query's, and
passes at twice and four times the pitch take the rows it leaves.

Keep-first thinning has no per-point loop either. Points are sorted into grid
cells of the threshold's pitch, candidate pairs come from each cell and its 13
forward neighbors, and the greedy choice among the conflicting pairs resolves
in a few parallel rounds, block by block under a pair budget.
"""

from __future__ import annotations

import numpy as np

_LEAF = 16  # most distinct coordinates per leaf
_BLOCK = 1024  # queries per block, and (query, node) pairs per frontier piece
_PAIR_BUDGET = 1 << 18  # candidate pairs per block of thinning
# the multipliers of the splitmix64 finaliser, which hashes coordinate bits
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_KNN_AREA = 1 << 14  # padded (row, candidate) slots per block of the grid k-NN
_KNN_FILL = 0.8  # mean points in a point's own cell, per neighbor, at the k-NN pitch
_NEAREST_K = 4  # the neighbor count whose k-NN pitch the nearest query starts at
_NEAREST_PASSES = 3  # grid passes of the nearest query, each at twice the last pitch
_ROUNDS = 16  # greedy rounds per block before an index-order pass finishes it
# the 13 cell offsets after (0, 0, 0) in lexicographic order: with the cell
# itself they reach every adjacent pair of cells exactly once
_FORWARD = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            for dz in (-1, 0, 1) if (dx, dy, dz) > (0, 0, 0)]


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


def _equal_rows(pts):
    """Group the equal rows of a finite (N, 3) array: returns ``(order,
    first)``, the row indices with equal rows adjacent and each group's
    indices ascending, and the position in ``order`` where each group starts.

    Rows are stably sorted by a hash of their coordinate bits: the splitmix64
    finaliser folds in one coordinate at a time. Its xor-shifts carry high
    bits down, so coordinates that differ only in their high bits (integers
    and other short mantissas) still spread over the whole hash. A hash
    collision, or equal rows with different bits (0.0 and -0.0), can split a
    group; both callers stay exact when one is split.
    """
    bits = np.ascontiguousarray(pts).view(np.uint64)
    h = np.zeros(len(bits), dtype=np.uint64)
    for axis in range(3):
        h ^= bits[:, axis]
        h ^= h >> 30
        h *= _MIX[0]
        h ^= h >> 27
        h *= _MIX[1]
        h ^= h >> 31
    order = np.argsort(h, kind="stable")
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
    ``ValueError`` when those cell indices would leave the int64 range.
    """
    pts = np.asarray(points, dtype=np.float64)
    if d_threshold < 0:
        raise ValueError(f"d_threshold must be >= 0, got {d_threshold}")
    n = len(pts)
    if n == 0 or d_threshold == 0.0:
        return np.arange(n, dtype=np.intp)
    if not np.isfinite(pts).all():
        raise ValueError("thin_redundant input contains non-finite coordinates")
    with np.errstate(over="ignore"):
        cells = np.floor(pts / d_threshold)
    if not ((cells >= -2.0**63) & (cells < 2.0**63)).all():
        raise ValueError(
            f"d_threshold={d_threshold!r} is too small for coordinates up to "
            f"|p| = {float(np.abs(pts).max())!r}: cell indices p / d_threshold "
            f"leave the int64 range")
    thr2 = d_threshold * d_threshold
    if thr2 == 0.0:  # d * d underflows, so no distance falls below it
        return np.arange(n, dtype=np.intp)

    # an exact duplicate of an earlier point is never kept: the earlier point
    # or the kept point that removed it removes the duplicate as well
    order, first = _equal_rows(pts)
    ids = np.sort(order[first])
    del order, first
    cells = cells[ids].astype(np.int64)
    cell, nbr = _cell_graph(cells)
    del cells
    pts = pts[ids]

    # blocks of consecutive points: first close every point that conflicts
    # with a point kept before the block, then resolve the rest in rounds
    kept = np.empty(0, dtype=np.intp)
    lo, size = 0, len(ids)
    while lo < len(ids):
        hi = min(len(ids), lo + size)
        todo = np.arange(lo, hi)
        if len(kept):
            act = np.concatenate([kept, todo])
            a, b = _candidate_pairs(cell[act], len(kept), nbr)
            if a is None:
                size = (hi - lo) // 2
                continue
            closed = np.zeros(len(act), dtype=bool)
            closed[b[_conflicts(pts[act], a, b, thr2)]] = True
            todo = todo[~closed[len(kept):]]
        # the rest resolve in rounds, in a prefix halved until its pairs fit
        take = len(todo)
        while take:
            a, b = _candidate_pairs(cell[todo[:take]], 0, nbr)
            if a is not None:
                blk = todo[:take]
                hit = _conflicts(pts[blk], a, b, thr2)
                kept = np.concatenate([kept, blk[_greedy(take, a[hit], b[hit])]])
                break
            take //= 2
        nxt = todo[take] if take < len(todo) else hi
        lo, size = nxt, 2 * (nxt - lo)
    return ids[kept]


def _knn_sqdist(points, k):
    """Each point's k smallest squared distances to the points that do not
    coincide with it, ascending, inf where fewer than k exist: the distances
    of ``KdTree(points).query(points, k, exclude_self=True)``, bit for bit.

    A grid pass at a pitch set by the cloud's density certifies every row
    whose k-th distance lies inside its 27 cells; a pass at twice the pitch
    takes the rows left over, and the kd-tree any left after that.
    """
    pts = np.asarray(points, dtype=np.float64)
    if not np.isfinite(pts).all():
        raise ValueError("k-NN input contains non-finite coordinates")
    out = np.full((len(pts), k), np.inf)
    rows = np.arange(len(pts))
    pitch = _knn_pitch(pts, k)
    for h in (pitch, 2.0 * pitch):
        if len(rows):
            rows = _grid_knn(pts, rows, h, out)
    if len(rows):
        out[rows] = KdTree(pts).query(pts[rows], k, exclude_self=True)[1]
    return out


def _k_smallest(d2, k):
    """The k smallest non-zero values of each row of ``d2``, ascending."""
    d2[d2 == 0.0] = np.inf
    if d2.shape[1] > k:
        d2 = np.partition(d2, k - 1, axis=1)[:, :k]
    d2.sort(axis=1)
    return d2


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
    _knn_pitch the cloud spans O(N) cells, so each cell gets its own small
    key and a bincount counts them."""
    cells = pts / h
    np.floor(cells, out=cells)
    # floor(p / h) is monotone in p, so the bounds' cells are the box's
    first = np.floor(lo / h)
    span = np.floor(hi / h) - first + 1
    key = cells[:, 0] - first[0]
    for a in (1, 2):
        key *= span[a]
        key += cells[:, a] - first[a]
    key = key.astype(np.intp)
    # the sum over cells of count ** 2, as a sum over points
    return float(np.bincount(key)[key].sum()) / len(pts)


def _grid_knn(pts, rows, h, out):
    """Fill ``out[rows]`` with each row's k smallest squared distances to
    non-coincident points in its 27 cells of pitch ``h``; returns the rows
    whose k-th distance is not certified to be the cloud's own."""
    k = out.shape[1]
    bound = _certificate(h, float(np.abs(pts).max()))
    if not bound > 0.0:
        return rows
    cell, nbr = _cell_graph(np.floor(pts / h).astype(np.int64))
    ncell = nbr.shape[1]
    # the 27 cells around each cell in offset order, its own in the middle
    near = np.full((ncell, 27), -1, dtype=np.intp)
    near[:, 13] = np.arange(ncell)
    for j in range(len(_FORWARD)):
        ok = nbr[j] >= 0
        near[:, 14 + j] = nbr[j]
        near[nbr[j, ok], 12 - j] = np.flatnonzero(ok)
    order = np.argsort(cell)
    count = np.bincount(cell, minlength=ncell + 1)  # slot -1 counts 0
    start = np.cumsum(count) - count
    # sorted coordinates, then one row at infinity that pads every block
    cols = [np.r_[c, np.inf] for c in pts[order].T]
    width = count[near].sum(axis=1)
    # rows by width, then by cell: a block's last row is its widest, and the
    # rows of one cell, which share their candidates, sit together
    rows = rows[np.argsort(width[cell[rows]] * ncell + cell[rows])]
    home = cell[rows]
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
        # each cell's candidates, its 27 cells in turn, padded to span
        nb = near[uc]
        cnt = count[nb].ravel()
        off = np.cumsum(cnt) - cnt
        t = np.arange(int(w.sum()))
        cand = np.full((len(uc), span), len(pts))
        cand.ravel()[t + np.repeat(np.arange(len(uc)) * span - off[::27], w)] = \
            t + np.repeat(start[nb].ravel() - off, cnt)
        q = pts[r]
        d2 = cols[0][cand][run]
        d2 -= q[:, :1]
        d2 *= d2
        for a in (1, 2):
            e = cols[a][cand][run]
            e -= q[:, a:a + 1]
            e *= e
            d2 += e
        d2 = _k_smallest(d2, k)
        out[r] = d2
        stay[lo:hi] = ~(d2[:, -1] < bound)
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


def _col_bounds(a):
    """Per-column minima and maxima of an (N, 3) array. A reduction over one
    strided column is many times faster than numpy's axis-0 reduction."""
    return np.array([c.min() for c in a.T]), np.array([c.max() for c in a.T])


def _nearest(points, queries):
    """Each query's nearest point: ``(idx, d2)``, both (M,), column 0 of
    ``KdTree(points).query(queries, 1)`` bit for bit, ties to the lowest
    index, and -1 and inf when ``points`` is empty.

    Grid passes at a pitch set by the cloud's density, then at twice and
    four times it, each certify the rows whose nearest distance lies inside
    their 27 cells; the kd-tree takes any rows left after them.
    """
    pts = np.asarray(points, dtype=np.float64)
    qs = np.asarray(queries, dtype=np.float64)
    if pts.size == 0:
        pts = pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] != 3 or qs.ndim != 2 or qs.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points and (M, 3) queries, got shapes "
                         f"{pts.shape} and {qs.shape}")
    if not (np.isfinite(pts).all() and np.isfinite(qs).all()):
        raise ValueError("nearest-neighbor input contains non-finite coordinates")
    idx = np.full(len(qs), -1, dtype=np.intp)
    d2 = np.full(len(qs), np.inf)
    if not len(pts):
        return idx, d2
    rows = np.arange(len(qs))
    h = _knn_pitch(pts, _NEAREST_K)
    for _ in range(_NEAREST_PASSES):
        if not (len(rows) and h > 0.0):
            break
        rows = _grid_nearest(pts, qs, rows, h, idx, d2)
        h *= 2.0
    if len(rows):
        i, d = KdTree(pts).query(qs[rows], 1)
        idx[rows], d2[rows] = i[:, 0], d[:, 0]
    return idx, d2


def _grid_nearest(pts, qs, rows, h, idx, d2):
    """Fill ``idx[rows]`` and ``d2[rows]`` where a query's nearest point in
    its 27 cells of pitch ``h`` is certified to be its nearest in the whole
    cloud; returns the rows left uncertified."""
    q = qs[rows]
    (plo, phi), (qlo, qhi) = _col_bounds(pts), _col_bounds(q)
    bound = _certificate(h, max(-plo.min(), phi.max(), -qlo.min(), qhi.max()))
    # the cell box over both, padded by one cell so that no neighbor key
    # wraps round; floor(x / h) is monotone in x, so the corners give it
    lo = np.floor(np.minimum(plo, qlo) / h) - 1.0
    span = np.floor(np.maximum(phi, qhi) / h) - lo + 2.0
    if not (bound > 0.0 and float(np.prod(span)) <= 2.0**62):
        return rows
    sy, sz = int(span[1]), int(span[2])

    def key(x):
        c = x / h
        np.floor(c, out=c)
        k = (c[:, 0] - lo[0]).astype(np.int64)
        for a, s in ((1, sy), (2, sz)):
            k *= s
            k += (c[:, a] - lo[a]).astype(np.int64)
        return k

    pkey = key(pts)
    order = np.argsort(pkey)
    pkey = pkey[order]
    # each query's 9 (x, y) columns of cells: cells z - 1 to z + 1 of one
    # column hold consecutive keys, so one range of the sorted keys each
    step = np.array([-1, 0, 1])
    base = key(q)[:, None] + ((step[:, None] * sy + step) * sz).ravel()
    start = np.searchsorted(pkey, base - 1)
    count = np.searchsorted(pkey, base + 2) - start
    width = count.sum(axis=1)
    end = np.cumsum(width)
    stay = np.ones(len(rows), dtype=bool)
    lo_row = 0
    while lo_row < len(rows):
        # the rows whose candidates fit in _KNN_AREA slots, at least one
        hi_row = max(lo_row + 1, int(np.searchsorted(
            end, end[lo_row] - width[lo_row] + _KNN_AREA, side="right")))
        c = count[lo_row:hi_row].ravel()
        run = np.repeat(start[lo_row:hi_row].ravel() - (np.cumsum(c) - c), c)
        cand = order[np.arange(len(run)) + run]
        # the rows with candidates, each one's first slot and its slots' row
        full = np.flatnonzero(width[lo_row:hi_row]) + lo_row
        w = width[full]
        first = np.cumsum(w) - w
        dist = ((pts[cand] - np.repeat(q[full], w, axis=0)) ** 2).sum(axis=1)
        # per row, the least distance, then the least index at that distance
        best = np.minimum.reduceat(dist, first)
        near = np.minimum.reduceat(
            np.where(dist == np.repeat(best, w), cand, len(pts)), first)
        ok = best < bound
        r = full[ok]
        idx[rows[r]], d2[rows[r]] = near[ok], best[ok]
        stay[r] = False
        lo_row = hi_row
    return rows[stay]


def _axis_rank(values):
    """Ranks of int64 values, from 1, that keep consecutive integers 1 apart
    and close every other gap to 2, and a span of at most 2N + 1 that leaves
    room for +-1 around every rank."""
    u, inv = np.unique(values, return_inverse=True)
    rank = np.cumsum(np.r_[1, 2 - (u[1:] == u[:-1] + 1)])
    return rank[inv], int(rank[-1]) + 2


def _cell_graph(cells):
    """Number the distinct rows of the (N, 3) int64 ``cells`` and find the 13
    forward neighbors of each; returns ``(cell id per row, (13, C) int32
    neighbor ids or -1)``. Ranked axes keep every key within int64."""
    x, _ = _axis_rank(cells[:, 0])
    y, sy = _axis_rank(cells[:, 1])
    z, sz = _axis_rank(cells[:, 2])
    # a key is (rank of the (x, y) column) * sz + z: at most N * (2N + 1)
    cols, col = np.unique(x * sy + y, return_inverse=True)
    keys, cell = np.unique(col * sz + z, return_inverse=True)
    home_col, home_z = np.divmod(keys, sz)
    nbr = np.full((len(_FORWARD), len(keys)), -1, dtype=np.int32)
    for dx, dy in dict.fromkeys((dx, dy) for dx, dy, _ in _FORWARD):
        want = cols + (dx * sy + dy)
        at = np.minimum(np.searchsorted(cols, want), len(cols) - 1)
        at = np.where(cols[at] == want, at, -1)[home_col]
        # cells (at, z - 1), (at, z) and (at, z + 1) hold consecutive keys
        pos = np.searchsorted(keys, at * sz + (home_z - 1))
        for dz in (-1, 0, 1):
            hit = (at >= 0) & (keys[np.minimum(pos, len(keys) - 1)] == at * sz + (home_z + dz))
            if (dx, dy, dz) in _FORWARD:
                nbr[_FORWARD.index((dx, dy, dz))] = np.where(hit, pos, -1)
            pos += hit
    return cell, nbr


def _candidate_pairs(cell, nk, nbr):
    """Pairs (a, b), a < b, of points with cell ids ``cell`` that share a cell
    or sit in adjacent cells: all of them if ``nk`` is 0, else those that
    join one of the first ``nk`` points to one of the rest. Returns
    (None, None) when there are more than _PAIR_BUDGET pairs to generate and
    more than one point after the first ``nk``."""
    # sort by cell, then by index within a cell: the keys are all distinct
    order = np.argsort(cell * len(cell) + np.arange(len(cell))).astype(np.int32)
    sc = cell[order]
    first = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]]).astype(np.int32)
    count = np.diff(np.r_[first, len(sc)]).astype(np.int32)
    home = sc[first]
    old = np.add.reduceat((order < nk).astype(np.int32), first)  # the first nk lead each cell
    new, fresh = first + old, count - old
    lead = old if nk else count
    local = np.full(nbr.shape[1] + 1, -1, dtype=np.int32)  # slot -1 stays -1
    local[home] = np.arange(len(home))

    def ranges():
        """(start, count) ranges whose cross products hold the pairs: a cell
        with its own later points, then each adjacent cell both ways round."""
        yield first, lead, new, fresh
        for j in range(len(nbr)):
            at = local[nbr[j, home]]
            i = np.flatnonzero(at >= 0)
            at = at[i]
            yield first[i], lead[i], new[at], fresh[at]
            if nk:
                yield new[i], fresh[i], first[at], old[at]

    if sum(int(na.astype(np.intp) @ nb) for _, na, _, nb in ranges()) > _PAIR_BUDGET \
            and len(cell) - nk > 1:
        return None, None
    sa, na, sb, nb = map(np.concatenate, zip(*(
        [v[(r[1] > 0) & (r[3] > 0)] for v in r] for r in ranges())))
    size = na * nb
    rep = np.repeat(np.arange(len(size), dtype=np.int32), size)
    t = np.arange(len(rep), dtype=np.int32)
    t -= np.repeat((np.cumsum(size) - size).astype(np.int32), size)
    a, b = np.divmod(t, nb[rep])
    a += sa[rep]
    b += sb[rep]
    del rep, t
    # adjacent cells come later in sort order, so this only drops the pairs
    # within a cell that are listed twice or pair a point with itself
    ok = a < b
    a = order[a[ok]]
    b = order[b[ok]]
    lo = np.minimum(a, b)
    np.maximum(a, b, out=b)
    return lo, b


def _conflicts(pts, a, b, thr2):
    """Mask of pairs (a, b), a < b, closer than sqrt(thr2), with the squared
    distance ``dx * dx + dy * dy + dz * dz`` summed left to right."""
    cols = [np.ascontiguousarray(c) for c in pts.T]
    d2 = cols[0][b] - cols[0][a]
    d2 *= d2
    t = np.empty_like(d2)
    for c in cols[1:]:
        np.subtract(c[b], c[a], out=t)
        t *= t
        d2 += t
    return d2 < thr2


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
