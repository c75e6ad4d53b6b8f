import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_thinning
from pseudoradar import spatial
from pseudoradar.spatial import KdTree, brute_force_k_nearest, thin_redundant
from pseudoradar.synth import SceneSpec, gen_scene


def test_empty_tree_returns_nothing():
    tree = KdTree(np.zeros((0, 3)))
    assert tree.k_nearest([0, 0, 0], 5) == []


def test_single_point_self_query_excluded():
    tree = KdTree(np.array([[1.0, 2.0, 3.0]]))
    assert tree.k_nearest([1.0, 2.0, 3.0], 3, exclude_self=True) == []


def test_collinear_hand_case():
    tree = KdTree(np.array([[0, 0, 0], [1, 0, 0], [3, 0, 0]], dtype=float))
    assert tree.k_nearest([0, 0, 0], 2, exclude_self=True) == [(1, 1.0), (2, 3.0)]


def test_equidistant_corners_tie_broken_by_index():
    corners = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    got = KdTree(corners).k_nearest([0.5, 0.5, 0.0], 4)
    assert [idx for idx, _ in got] == [0, 1, 2, 3]
    assert len({d for _, d in got}) == 1


def test_exclude_self_skips_all_zero_distance_members():
    pts = np.array([[1, 1, 1], [1, 1, 1], [2, 2, 2]], dtype=float)
    got = KdTree(pts).k_nearest([1, 1, 1], 3, exclude_self=True)
    assert [idx for idx, _ in got] == [2]


def test_duplicates_allowed_and_returned():
    pts = np.array([[0, 0, 0], [0, 0, 0], [5, 5, 5]], dtype=float)
    got = KdTree(pts).k_nearest([0.1, 0, 0], 2)
    assert [idx for idx, _ in got] == [0, 1]


def test_non_finite_input_rejected():
    with pytest.raises(ValueError):
        KdTree(np.array([[np.nan, 0, 0]]))
    with pytest.raises(ValueError):
        thin_redundant(np.array([[np.inf, 0, 0]]), 0.5)


def test_kd_tree_takes_an_empty_query_list_as_zero_rows():
    idx, d2 = KdTree(np.zeros((4, 3))).query([], 3)
    assert idx.shape == d2.shape == (0, 3)


def test_thin_redundant_rejects_other_shapes_naming_the_shape():
    pts = np.random.default_rng(0).normal(size=(30, 3))
    for bad, shape in ((pts[:, :2], r"\(30, 2\)"), (pts[:, 0], r"\(30,\)")):
        for d in (0.3, 0.0):
            with pytest.raises(ValueError, match=shape):
                thin_redundant(bad, d)


def test_k_nearest_matches_brute_force_exactly():
    rng = np.random.default_rng(101)
    pts = rng.uniform(-50, 50, (1000, 3))
    tree = KdTree(pts)
    queries = rng.uniform(-50, 50, (300, 3))
    for q in queries:
        for k in (1, 4, 9):
            assert tree.k_nearest(q, k) == brute_force_k_nearest(pts, q, k)


def test_k_nearest_on_clustered_duplicates_matches_brute_force():
    rng = np.random.default_rng(5)
    base = rng.integers(0, 4, (400, 3)).astype(float)  # many exact ties
    tree = KdTree(base)
    for q in rng.integers(0, 4, (60, 3)).astype(float):
        got = tree.k_nearest(q, 7, exclude_self=True)
        want = brute_force_k_nearest(base, q, 7, exclude_self=True)
        assert got == want


def test_nearest_sqdist_matches_brute_force():
    rng = np.random.default_rng(44)
    pts = rng.uniform(-10, 10, (700, 3))
    queries = rng.uniform(-10, 10, (150, 3))
    idx, d2 = KdTree(pts).query(queries, 1)
    order = np.arange(len(pts))
    for q, j, d in zip(queries, idx[:, 0], d2[:, 0]):
        d2_all = ((pts - q) ** 2).sum(axis=1)
        jb = int(np.lexsort((order, d2_all))[0])
        assert j == jb and d == d2_all[jb]


def assert_query_matches_brute_force(pts, queries, k, exclude_self):
    idx, d2 = KdTree(pts).query(queries, k, exclude_self=exclude_self)
    assert idx.shape == d2.shape == (len(queries), k)
    assert idx.dtype == np.intp and d2.dtype == np.float64
    for row, q in enumerate(queries):
        want = brute_force_k_nearest(pts, q, k, exclude_self=exclude_self)
        n = len(want)
        assert idx[row, :n].tolist() == [j for j, _ in want]
        # the oracle's own expression, bit for bit
        assert d2[row, :n].tolist() == ((pts[idx[row, :n]] - q) ** 2).sum(axis=1).tolist()
        assert np.sqrt(d2[row, :n]).tolist() == [d for _, d in want]
        assert (idx[row, n:] == -1).all() and (d2[row, n:] == np.inf).all()


@given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.integers(1, 12), st.booleans())
@settings(max_examples=60, deadline=None)
def test_query_matches_brute_force_on_random_clouds(seed, n, k, exclude_self):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0, 10, (n, 3)) * rng.uniform(0.01, 1, 3)  # uneven axes
    queries = np.vstack([pts[:20], rng.uniform(-30, 30, (20, 3))])
    assert_query_matches_brute_force(pts, queries, k, exclude_self)


@given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.integers(1, 4), st.integers(1, 40),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_query_matches_brute_force_on_lattices_with_ties(seed, n, side, k, exclude_self):
    # integer lattices: exact distance ties and duplicates everywhere, and k
    # often larger than the cloud or than its distinct points
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, side, (n, 3)).astype(float)
    queries = np.vstack([pts[:25], rng.integers(-1, side + 1, (25, 3)) * 0.5])
    assert_query_matches_brute_force(pts, queries, k, exclude_self)


@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.integers(1, 9))
@settings(max_examples=30, deadline=None)
def test_query_matches_brute_force_far_outside_the_cloud(seed, n, k):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n, 3))
    direction = rng.normal(size=(15, 3))
    queries = 1e4 * direction / np.linalg.norm(direction, axis=1, keepdims=True)
    assert_query_matches_brute_force(pts, queries, k, False)


def test_query_on_empty_tree_and_empty_queries():
    idx, d2 = KdTree(np.zeros((0, 3))).query(np.zeros((3, 3)), 2, exclude_self=True)
    assert (idx == -1).all() and (d2 == np.inf).all() and idx.shape == (3, 2)
    idx, d2 = KdTree(np.ones((4, 3))).query(np.zeros((0, 3)), 2)
    assert idx.shape == d2.shape == (0, 2)


def test_query_rejects_bad_arguments():
    tree = KdTree(np.ones((4, 3)))
    with pytest.raises(ValueError):
        tree.query(np.zeros((1, 3)), 0)
    with pytest.raises(ValueError):
        tree.query(np.zeros((1, 2)), 1)
    with pytest.raises(ValueError):
        tree.query(np.array([[np.nan, 0, 0]]), 1)


def test_duplicate_heavy_self_query_is_fast_and_exact():
    # 200 copies of each of 100 sites: every query must skip its own copies
    rng = np.random.default_rng(8)
    sites = rng.uniform(-20, 20, (100, 3))
    pts = sites[rng.integers(0, 100, 20_000)]
    start = time.perf_counter()
    idx, d2 = KdTree(pts).query(pts, 8, exclude_self=True)
    assert time.perf_counter() - start < 20.0
    for row in rng.integers(0, len(pts), 40):
        want = brute_force_k_nearest(pts, pts[row], 8, exclude_self=True)
        assert idx[row].tolist() == [j for j, _ in want]
        assert np.sqrt(d2[row]).tolist() == [d for _, d in want]


def assert_groups_are_distinct_rows(pts):
    order, first = spatial._equal_rows(pts)
    assert sorted(order.tolist()) == list(range(len(pts)))
    bounds = np.r_[first, len(pts)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        members = order[lo:hi]
        assert (np.diff(members) > 0).all()
        assert (pts[members] == pts[members[0]]).all()
    assert len(first) == len(np.unique(pts, axis=0))


def test_equal_rows_groups_integer_cells_exactly():
    # integer-valued cell coordinates differ only in their high bits, so the
    # hash must carry those bits down or equal rows land in split groups
    pts = gen_scene(SceneSpec(seed=7)).lidar_frames[0].xyz
    cells = np.floor(pts[thin_redundant(pts, 0.3)] / 1.3)
    assert len(cells) == 7_580
    assert len(spatial._equal_rows(cells)[1]) == 2_729
    assert_groups_are_distinct_rows(cells)


@given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.integers(1, 6),
       st.sampled_from([1.0, 0.25, 3.0, 1024.0]), st.sampled_from([0.0, -5.0, 1e4]))
@settings(max_examples=60, deadline=None)
def test_equal_rows_group_count_on_integer_lattices(seed, n, side, step, shift):
    rng = np.random.default_rng(seed)
    pts = rng.integers(-side, side + 1, size=(n, 3)) * step + shift
    assert_groups_are_distinct_rows(pts)


@given(st.integers(0, 2**32 - 1), st.integers(1, 600), st.integers(1, 4),
       st.sampled_from(["duplicate rows", "integer grid", "signed zeros"]))
@settings(max_examples=80, deadline=None)
def test_equal_rows_groups_are_the_distinct_rows_in_index_order(seed, n, side, kind):
    # each group holds every copy of one row, -0.0 and 0.0 alike, in
    # ascending index order
    rng = np.random.default_rng(seed)
    if kind == "duplicate rows":
        pts = rng.normal(size=(side, 3))[rng.integers(0, side, n)]
    elif kind == "integer grid":
        pts = rng.integers(-side, side + 1, size=(n, 3)).astype(np.float64)
    else:  # 0.0 and -0.0: equal rows with different bits
        pts = rng.choice([0.0, -0.0, 1.0], size=(n, 3))
    assert_groups_are_distinct_rows(pts)


@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.sampled_from([0.1, 0.5, 1.5]))
@settings(max_examples=60, deadline=None)
def test_thinning_keeps_the_first_of_rows_equal_up_to_signed_zeros(seed, n, thr):
    # a -0.0 row and its 0.0 twin are one point: the earlier one is kept
    pts = np.random.default_rng(seed).choice([0.0, -0.0, 0.3, 1.0], size=(n, 3))
    assert thin_redundant(pts, thr).tolist() == scalar_thinning.thin_redundant(pts, thr).tolist()


class TestThinRedundant:
    def test_zero_threshold_keeps_all(self):
        pts = np.random.default_rng(0).normal(size=(50, 3))
        assert thin_redundant(pts, 0.0).tolist() == list(range(50))

    def test_collinear_hand_case(self):
        pts = np.array([[0, 0, 0], [0.05, 0, 0], [0.2, 0, 0]])
        assert thin_redundant(pts, 0.1).tolist() == [0, 2]

    def test_already_sparse_is_identity(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        assert thin_redundant(pts, 0.5).tolist() == [0, 1, 2]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            thin_redundant(np.zeros((1, 3)), -0.1)

    def test_nan_threshold_rejected_as_not_a_number(self):
        pts = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(ValueError, match="d_threshold is not a number"):
            thin_redundant(pts, float("nan"))
        # an infinite threshold keeps only the first point, as the loop does
        assert thin_redundant(pts, float("inf")).tolist() == [0]
        assert scalar_thinning.thin_redundant(pts, float("inf")).tolist() == [0]

    def test_kept_pairwise_distances_respect_threshold(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(0, 4, (600, 3))
        thr = 0.35
        kept = thin_redundant(pts, thr)
        sub = pts[kept]
        d = np.sqrt(((sub[:, None] - sub[None]) ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        assert d.min() >= thr

    def test_matches_brute_force_greedy(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, 2, (300, 3))
        thr = 0.3
        kept_brute = []
        for i, p in enumerate(pts):
            if all(((p - pts[j]) ** 2).sum() >= thr * thr for j in kept_brute):
                kept_brute.append(i)
        assert thin_redundant(pts, thr).tolist() == kept_brute

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, seed, thr):
        pts = np.random.default_rng(seed).uniform(0, 3, (120, 3))
        kept = thin_redundant(pts, thr)
        again = thin_redundant(pts[kept], thr)
        assert again.tolist() == list(range(len(kept)))


# thin_redundant against the frozen per-point loop in tests/scalar_thinning.py;
# a small pair budget forces many blocks, zero or one round forces the
# index-order pass that finishes a block whose rounds stall, and a small key
# limit forces ranked and wrapped cell keys
PATHS = st.sampled_from([(1 << 18, 16), (16, 16), (1 << 18, 0), (40, 1),
                         (1 << 18, 16, 1 << 12)])


def thin_both_ways(pts, thr, budget, rounds, key_limit=spatial._KEY_LIMIT):
    with mock.patch.object(spatial, "_PAIR_BUDGET", budget), \
            mock.patch.object(spatial, "_ROUNDS", rounds), \
            mock.patch.object(spatial, "_KEY_LIMIT", key_limit):
        got = thin_redundant(pts, thr)
    assert got.dtype == np.intp
    assert got.tolist() == scalar_thinning.thin_redundant(pts, thr).tolist()


@given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.sampled_from([0.5, 2.0, 10.0]),
       st.sampled_from([0.0, -7.3, 1e4]), st.floats(0.05, 1.0), PATHS)
@settings(max_examples=150, deadline=None)
def test_thinning_matches_the_loop_on_random_clouds(seed, n, extent, shift, thr, path):
    pts = np.random.default_rng(seed).uniform(-extent, extent, (n, 3)) + shift
    thin_both_ways(pts, thr, *path)


@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 8),
       st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.floats(0.05, 1.0)), PATHS)
@settings(max_examples=150, deadline=None)
def test_thinning_matches_the_loop_on_quarter_lattices(seed, n, side, thr, path):
    # small sides give many exact duplicates; quarter steps give distances
    # exactly at the threshold, which must not count as conflicts
    pts = np.random.default_rng(seed).integers(-side, side + 1, (n, 3)) / 4.0
    thin_both_ways(pts, thr, *path)


def test_small_budget_and_no_rounds_take_the_block_and_chain_paths():
    pts = np.random.default_rng(3).uniform(0, 3, (400, 3))
    calls = []
    real = spatial._cell_pairs

    def spy(srt, key, home, other, intervals, wrap):
        pairs = real(srt, key, home, other, intervals, wrap)
        calls.append((other is not None, pairs is None))
        return pairs

    with mock.patch.object(spatial, "_cell_pairs", spy):
        thin_both_ways(pts, 0.4, 40, 0)
    assert any(old for old, _ in calls)  # later blocks checked against kept points
    assert any(over for _, over in calls)  # over-budget blocks halved


def test_pair_exactly_the_threshold_apart_is_kept():
    # distances are squared with products, never the C library's pow: at
    # dx = 0.0397, glibc 2.36 gives 0.0397 ** 2 one ulp below 0.0397 * 0.0397,
    # which would count each axis pair below as a conflict at threshold dx
    dx = 0.0397
    pts = np.array([[0.0, 0.0, 0.0], [dx, 0.0, 0.0], [0.0, dx, 0.0], [0.0, 0.0, dx]])
    assert thin_redundant(pts, dx).tolist() == [0, 1, 2, 3]
    assert scalar_thinning.thin_redundant(pts, dx).tolist() == [0, 1, 2, 3]


def test_tiny_threshold_fails_with_a_named_cause():
    pts = np.array([[0.0, 0.0, 0.0], [12.5, -3.0, 1.0]])
    with pytest.raises(ValueError, match=r"d_threshold=1e-18 .*\|p\| = 12\.5"):
        thin_redundant(pts, 1e-18)
    with pytest.raises(ValueError, match="int64"):
        thin_redundant(pts, 1e-300)


def test_cells_spread_over_the_whole_int64_range():
    # cell indices near both ends of int64: a combined key of the raw indices
    # would overflow, so the axes are ranked first
    rng = np.random.default_rng(9)
    near = rng.uniform(-1, 1, (200, 3))
    far = np.array([[-9.2e18, 0, 0], [9.2e18, 9.2e18, -9.2e18], [9.2e18, 9.2e18, -9.2e18 + 1],
                    [0, -9.2e18, 9.2e18], [0, 4.6e18, 0]])
    pts = np.concatenate([near, far, near[:50] * 1e17])
    assert thin_redundant(pts, 1.0).tolist() == scalar_thinning.thin_redundant(pts, 1.0).tolist()


def test_underflowing_threshold_keeps_every_point():
    pts = np.zeros((5, 3))
    assert thin_redundant(pts, 1e-200).tolist() == list(range(5))
    assert scalar_thinning.thin_redundant(pts, 1e-200).tolist() == list(range(5))


def _every_third_repeats(rng, n):
    """A cloud whose every third point repeats a random earlier one."""
    pts = rng.uniform(-10, 10, (n, 3))
    later = np.arange(2, n, 3)
    pts[later] = pts[rng.integers(0, later)]
    return pts


@pytest.mark.parametrize("case", ["tight_cluster", "duplicate_sites", "index_chain",
                                  "every_third_repeats"])
def test_worst_cases_are_exact_and_bounded(case):
    # exact duplicates are conflicts at distance 0, resolved inside the blocks
    rng = np.random.default_rng(11)
    n = 20_000
    pts = {
        "tight_cluster": rng.normal(0.0, 0.02, (n, 3)),
        "duplicate_sites": rng.uniform(-5, 5, (100, 3))[rng.permutation(n) % 100],
        "index_chain": np.c_[np.arange(n) * 0.27, np.zeros(n), np.zeros(n)],
        "every_third_repeats": _every_third_repeats(rng, n),
    }[case]
    start = time.perf_counter()
    got = thin_redundant(pts, 0.3)
    assert time.perf_counter() - start < 10.0
    assert got.tolist() == scalar_thinning.thin_redundant(pts, 0.3).tolist()


def test_nuscenes_scale_frame_matches_the_loop_in_less_memory():
    pts = gen_scene(SceneSpec(seed=7, lidar_density=7.0)).lidar_frames[0].xyz
    tracemalloc.start()
    try:
        got = thin_redundant(pts, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == scalar_thinning.thin_redundant(pts, 0.3).tolist()
    assert peak < 7.3e6  # measured 6.86 MB; the per-point loop peaks at about 14 MB here


# the distances-only grid k-NN behind the sparsity weight, against the
# brute-force oracle; tiny blocks and a pinned pitch force the narrow-block
# and cell-boundary paths, and a small key limit the ranked and wrapped keys
KNN_AREAS = st.sampled_from([(1 << 14, spatial._KEY_LIMIT), (16, spatial._KEY_LIMIT),
                             (1 << 14, 1 << 7)])


def assert_sqdist_matches_brute_force(pts, k, area=1 << 14, key_limit=spatial._KEY_LIMIT):
    with mock.patch.object(spatial, "_KNN_AREA", area), \
            mock.patch.object(spatial, "_KEY_LIMIT", key_limit):
        got = spatial._knn_sqdist(pts, k)
    assert got.shape == (len(pts), k) and got.dtype == np.float64
    for row, p in enumerate(pts):
        want = brute_force_k_nearest(pts, p, k, exclude_self=True)
        n = len(want)
        assert np.sqrt(got[row, :n]).tolist() == [d for _, d in want]
        # the oracle's own expression, bit for bit
        d2 = ((pts - p) ** 2).sum(axis=1)
        assert got[row, :n].tolist() == np.sort(d2[d2 != 0.0])[:n].tolist()
        assert (got[row, n:] == np.inf).all()


@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 12),
       st.sampled_from([0.0, -7.3, 1e4]), KNN_AREAS)
@settings(max_examples=60, deadline=None)
def test_knn_sqdist_matches_brute_force_on_random_clouds(seed, n, k, shift, path):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0, 10, (n, 3)) * rng.uniform(0.01, 1, 3) + shift  # uneven axes
    assert_sqdist_matches_brute_force(pts, k, *path)


@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 5), st.integers(1, 12),
       st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from([0.0, 1e4]), KNN_AREAS)
@settings(max_examples=60, deadline=None)
def test_knn_sqdist_matches_brute_force_on_cell_boundaries(seed, n, side, k, step, shift,
                                                           path):
    # a lattice whose spacing is the pitch: every point sits on a cell
    # boundary, and small sides give exact ties and duplicates everywhere
    pts = np.random.default_rng(seed).integers(0, side, (n, 3)) * step + shift
    with mock.patch.object(spatial, "_knn_pitch", lambda pts, k: step):
        assert_sqdist_matches_brute_force(pts, k, *path)


@given(st.integers(0, 2**32 - 1), st.integers(0, 200), st.integers(1, 9),
       st.sampled_from([1e2, 1e4, 1e9]), KNN_AREAS)
@settings(max_examples=40, deadline=None)
def test_knn_sqdist_matches_brute_force_with_a_far_outlier_and_duplicates(seed, n, k, far,
                                                                         path):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n, 3))
    pts = np.vstack([pts, pts[:n // 4], [[far, -far / 3, far / 7]]])
    assert_sqdist_matches_brute_force(pts, k, *path)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 10])
def test_knn_sqdist_on_clouds_of_at_most_k_plus_one_points(n):
    pts = np.random.default_rng(n).normal(size=(n, 3))
    assert_sqdist_matches_brute_force(pts, 9)
    assert_sqdist_matches_brute_force(pts, 9, 16)


def test_knn_sqdist_on_coincident_clouds_is_all_inf():
    for pts in (np.zeros((40, 3)), np.full((7, 3), -3.25)):
        assert (spatial._knn_sqdist(pts, 4) == np.inf).all()


def test_knn_sqdist_with_cell_indices_beyond_int64():
    # points near both ends of the float range of int64 cell indices: no
    # grid pitch fits, so every row goes to the fallback
    rng = np.random.default_rng(9)
    near = rng.uniform(-1, 1, (200, 3))
    far = np.array([[-9.2e18, 0, 0], [9.2e18, 9.2e18, -9.2e18], [9.2e18, 9.2e18, -9.2e18 + 1],
                    [0, -9.2e18, 9.2e18], [0, 4.6e18, 0]])
    pts = np.concatenate([near, far, near[:50] * 1e17])
    assert_sqdist_matches_brute_force(pts, 6)
    assert_sqdist_matches_brute_force(pts, 6, 16)


def test_both_queries_rank_a_cell_box_too_large_for_dense_keys():
    # two lattices 1e7 cells apart on every axis at a pinned pitch: the padded
    # cell box holds about 1e21 keys, so the cell list ranks its axes
    block = np.random.default_rng(6).integers(0, 4, (60, 3)) * 0.5
    pts = np.vstack([block, block[:40] + 1e7])
    qs = np.vstack([block[:10] + 0.25, block[:10] + (1e7 - 0.25)])
    with mock.patch.object(spatial, "_knn_pitch", lambda pts, k: 1.0):
        assert_sqdist_matches_brute_force(pts, 5)
        assert_nearest_matches_brute_force(pts, qs)


def test_knn_sqdist_rejects_non_finite_points():
    with pytest.raises(ValueError, match="non-finite"):
        spatial._knn_sqdist(np.array([[0.0, 0, 0], [np.nan, 0, 0]]), 1)


# the cross-cloud nearest query behind flow and Chamfer, against the
# brute-force oracle and the kd-tree; tiny blocks and a pinned pitch force
# the block and cell-boundary paths


def assert_nearest_matches_brute_force(pts, qs, area=1 << 14, key_limit=spatial._KEY_LIMIT):
    pts, qs = np.asarray(pts, dtype=float), np.asarray(qs, dtype=float)
    with mock.patch.object(spatial, "_KNN_AREA", area), \
            mock.patch.object(spatial, "_KEY_LIMIT", key_limit):
        idx, d2 = spatial._nearest(pts, qs)
    assert idx.shape == d2.shape == (len(qs),)
    assert idx.dtype == np.intp and d2.dtype == np.float64
    for row, q in enumerate(qs):
        want = brute_force_k_nearest(pts, q, 1)
        if not want:
            assert idx[row] == -1 and d2[row] == np.inf
            continue
        assert idx[row] == want[0][0] and np.sqrt(d2[row]) == want[0][1]
        # the oracle's own expression, bit for bit
        assert d2[row] == ((pts - q) ** 2).sum(axis=1)[idx[row]]
    tree_i, tree_d = KdTree(pts).query(qs, 1)
    assert idx.tolist() == tree_i[:, 0].tolist()
    assert d2.view(np.int64).tolist() == tree_d[:, 0].view(np.int64).tolist()


@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(0, 100),
       st.sampled_from([0.0, 1e4]), KNN_AREAS)
@settings(max_examples=60, deadline=None)
def test_nearest_matches_brute_force_on_random_clouds(seed, n, m, shift, path):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.01, 1, 3)  # uneven axes
    pts = rng.normal(0, 10, (n, 3)) * scale + shift
    qs = rng.normal(0, 12, (m, 3)) * scale + shift
    assert_nearest_matches_brute_force(pts, qs, *path)


@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 5), st.integers(1, 60),
       st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from([0.0, 1e4]), KNN_AREAS)
@settings(max_examples=60, deadline=None)
def test_nearest_matches_brute_force_on_cell_boundaries(seed, n, side, m, step, shift, path):
    # lattices whose spacing is the pitch: points and queries sit on cell
    # boundaries, and small sides give exact ties and duplicates everywhere
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, side, (n, 3)) * step + shift
    qs = rng.integers(-1, 2 * side + 1, (m, 3)) * (step / 2) + shift
    with mock.patch.object(spatial, "_knn_pitch", lambda pts, k: step):
        assert_nearest_matches_brute_force(pts, qs, *path)


@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.integers(1, 40), KNN_AREAS)
@settings(max_examples=40, deadline=None)
def test_nearest_breaks_ties_by_lowest_index_among_duplicates(seed, n, m, path):
    rng = np.random.default_rng(seed)
    sites = rng.uniform(-2, 2, (max(1, n // 8), 3))
    pts = sites[rng.integers(0, len(sites), n)]
    # queries on the sites, and midway between pairs of them
    qs = np.vstack([sites[rng.integers(0, len(sites), m)],
                    (sites[rng.integers(0, len(sites), m)]
                     + sites[rng.integers(0, len(sites), m)]) / 2])
    assert_nearest_matches_brute_force(pts, qs, *path)


@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.integers(1, 30),
       st.sampled_from([1e2, 1e4, 1e9]), KNN_AREAS)
@settings(max_examples=40, deadline=None)
def test_nearest_matches_brute_force_for_queries_far_outside(seed, n, m, far, path):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n, 3))
    qs = np.vstack([rng.uniform(-1, 1, (m, 3)), rng.normal(0, far, (m, 3)),
                    [[far, -far / 3, far / 7]]])
    assert_nearest_matches_brute_force(pts, qs, *path)


@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 60), KNN_AREAS)
@settings(max_examples=40, deadline=None)
def test_nearest_matches_brute_force_on_planar_clouds(seed, n, m, path):
    rng = np.random.default_rng(seed)
    pts = np.c_[rng.uniform(-30, 30, (n, 2)), np.zeros(n)]
    qs = np.c_[rng.uniform(-35, 35, (m, 2)), np.zeros(m)]
    assert_nearest_matches_brute_force(pts, qs, *path)


def test_nearest_finds_a_nearer_point_just_outside_the_27_cells():
    # at pitch 1 the query's 27 cells hold a point 1.069 away, and a point
    # two cells over is nearer, at 1.001: the first pass must not settle
    pts = np.array([[-0.07, 0.5, 0.5], [2.0, 0.5, 0.5]] + [[x, 9.5, 9.5] for x in range(8)])
    qs = np.array([[0.999, 0.5, 0.5]])
    with mock.patch.object(spatial, "_knn_pitch", lambda pts, k: 1.0):
        assert_nearest_matches_brute_force(pts, qs)
        assert spatial._nearest(pts, qs)[0].tolist() == [1]


@pytest.mark.parametrize("n", range(11))
def test_nearest_on_clouds_of_at_most_ten_points(n):
    rng = np.random.default_rng(n)
    pts, qs = rng.normal(size=(n, 3)), rng.normal(size=(25, 3))
    assert_nearest_matches_brute_force(pts, qs)
    assert_nearest_matches_brute_force(pts, qs, 16)
    assert_nearest_matches_brute_force(pts, qs[:0])


def test_nearest_rejects_non_finite_input_and_bad_shapes():
    good = np.zeros((3, 3))
    for pts, qs in ((good, [[0.0, np.nan, 0]]), ([[np.inf, 0, 0]], good)):
        with pytest.raises(ValueError, match="non-finite"):
            spatial._nearest(pts, qs)
    with pytest.raises(ValueError, match="shape"):
        spatial._nearest(good, np.zeros((3, 2)))


def run_with_spies(call):
    """Run ``call()`` with ``_grid_passes`` and the kd-tree spied on:
    returns each pass's (pitch, rows, rows left), rows ascending, and the
    row count of each kd-tree query."""
    passes, trees = [], []
    real_passes = spatial._grid_passes

    def spy_passes(pts, qs, h, block):
        def spy_block(p):
            left = block(p)
            passes.append((p.h, sorted(p.rows.tolist()), sorted(left.tolist())))
            return left
        return real_passes(pts, qs, h, spy_block)

    class SpyTree(KdTree):
        def query(self, queries, k, exclude_self=False):
            trees.append(len(queries))
            return super().query(queries, k, exclude_self)

    with mock.patch.object(spatial, "_grid_passes", spy_passes), \
            mock.patch.object(spatial, "KdTree", SpyTree):
        call()
    return passes, trees


def knn_pass_case():
    # a dense block, a sparse one that a coarser pass certifies, and isolated
    # points that no grid pass certifies
    rng = np.random.default_rng(4)
    dense = rng.uniform(0, 10, (3000, 3))
    sparse = rng.uniform(0, 10, (240, 3)) + [20.0, 0.0, 0.0]
    lone = np.array([[60.0, 5, 5], [5, 60, 5], [5, 5, -40]])
    pts = np.vstack([dense, sparse, lone])

    def query(pts):
        got = spatial._knn_sqdist(pts, 8)
        assert got.tolist() == KdTree(pts).query(pts, 8, exclude_self=True)[1].tolist()

    def check(left):
        assert len(left[0]) >= 200 and 3 <= len(left[1]) < 50  # most sparse rows in pass 2
        assert left[2] == [3240, 3241, 3242]  # the lone points reach the tree
    return (query, pts, np.vstack([dense, sparse, 1e3 * lone]), len(pts),
            spatial._knn_pitch(pts, 8), check)


def nearest_pass_case():
    # queries in a dense block, queries that only a coarser pass certifies,
    # and queries far enough out that no grid pass certifies them
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 10, (4000, 3))
    near = rng.uniform(0, 10, (200, 3))
    h = spatial._knn_pitch(pts, spatial._NEAREST_K)
    off = np.array([[10 + 1.5 * h, 5, 5], [5, 10 + 3 * h, 5], [5, 5, -40.0], [60.0, 5, 5]])
    qs = np.vstack([near, off])

    def check(left):
        assert left == [[200, 201, 202, 203], [201, 202, 203], [202, 203]]
    return (lambda pts: assert_nearest_matches_brute_force(pts, qs), pts,
            np.vstack([pts, [[1e6, 0, 0]]]), len(qs), h, check)


@pytest.mark.parametrize("case", [knn_pass_case, nearest_pass_case], ids=["knn", "nearest"])
def test_both_queries_take_the_later_passes_and_the_kd_tree(case):
    query, pts, far, n_rows, h, check = case()
    passes, trees = run_with_spies(lambda: query(pts))
    assert h > 0 and [p[0] for p in passes] == [h, 2 * h, 4 * h]
    assert passes[0][1] == list(range(n_rows))
    # each pass takes the rows the one before left
    assert all(b[1] == a[2] for a, b in zip(passes, passes[1:]))
    check([p[2] for p in passes])
    assert trees == [len(passes[-1][2])]  # the tree takes only the rows left
    # a far point stretches the box until a few cells hold every point: no
    # pitch can be read, no grid pass runs, and the tree takes every row
    passes, trees = run_with_spies(lambda: query(far))
    assert passes == [] and trees == [n_rows]
