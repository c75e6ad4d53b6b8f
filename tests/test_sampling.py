import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoradar import sampling
from pseudoradar.gmm import VAR_FLOOR, Gmm1D, fit_em
from pseudoradar.pointcloud import PointCloudFrame
from pseudoradar.rng import philox
from pseudoradar.sampling import (MAX_NEIGHBOR_COUNT, PipelineError, SamplingConfig,
                                  combine_weights, distance_weights, intensity_weights,
                                  lidar_to_radar, map_to_plane, nn_flow_estimate,
                                  sparsity_weights, two_stage_sample,
                                  weighted_sample_without_replacement, with_velocity)
from pseudoradar.spatial import brute_force_k_nearest, thin_redundant
from pseudoradar.synth import SceneSpec, gen_scene


def frame_of(xyz, intensity=None, frame_id="f", t=0.0):
    xyz = np.asarray(xyz, dtype=float)
    if intensity is None:
        intensity = np.ones(len(xyz))
    return PointCloudFrame(frame_id, t, xyz, np.asarray(intensity, dtype=float))


class TestSamplingConfig:
    def test_defaults_match_documented_values(self):
        cfg = SamplingConfig()
        assert (cfg.alpha_int, cfg.alpha_dist, cfg.alpha_spa) == (4.0, 4.0, 2.0)
        assert cfg.center_radius == 15.0
        assert cfg.d_threshold == 0.3
        assert cfg.neighbor_count == 8

    def test_all_zero_alphas_rejected(self):
        with pytest.raises(ValueError):
            SamplingConfig(alpha_int=0, alpha_dist=0, alpha_spa=0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            SamplingConfig(center_radius=-1.0)

    @pytest.mark.parametrize("key", ["alpha_int", "alpha_dist", "alpha_spa", "center_radius",
                                     "d_threshold", "dist_epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            SamplingConfig(**{key: value})

    def test_negative_dist_epsilon_rejected(self):
        with pytest.raises(ValueError, match="dist_epsilon"):
            SamplingConfig(dist_epsilon=-1.0)
        assert SamplingConfig(dist_epsilon=0.0).dist_epsilon == 0.0


class TestIntensityWeights:
    def test_hand_values(self):
        w, fallback = intensity_weights(np.array([1.0, 4.0, 9.0]))
        assert w.tolist() == pytest.approx([1 / 6, 2 / 6, 3 / 6])
        assert not fallback

    def test_equal_intensities_uniform(self):
        w, _ = intensity_weights(np.full(5, 7.0))
        assert np.allclose(w, 0.2)

    def test_single_point(self):
        w, _ = intensity_weights(np.array([3.0]))
        assert w.tolist() == [1.0]

    def test_all_zero_falls_back_uniform_with_flag(self):
        w, fallback = intensity_weights(np.zeros(4))
        assert np.allclose(w, 0.25) and fallback

    def test_scale_invariance(self):
        inten = np.random.default_rng(0).uniform(0.1, 50, 30)
        w1, _ = intensity_weights(inten)
        w2, _ = intensity_weights(inten * 137.0)
        assert np.allclose(w1, w2, atol=1e-12)


class TestSparsityWeights:
    def test_symmetric_pair(self):
        w = sparsity_weights(np.array([[0, 0, 0], [1, 0, 0]], dtype=float), 2)
        assert w.tolist() == [0.5, 0.5]

    def test_collinear_hand_case(self):
        # points at x = 0, 1, 10 with two neighbors each:
        # raw sums of squared neighbor distances are (1+100, 1+81, 81+100)
        w = sparsity_weights(np.array([[0, 0, 0], [1, 0, 0], [10, 0, 0]], float), 2)
        raw = np.array([101.0, 82.0, 181.0])
        assert np.allclose(w, raw / raw.sum(), atol=1e-12)

    def test_isolated_duplicate_pair_outweighs_cluster_members(self):
        rng = np.random.default_rng(5)
        cluster = rng.normal(0.0, 0.2, (8, 3))
        far = np.array([[30.0, 0, 0], [30.0, 0, 0]])
        w = sparsity_weights(np.vstack([cluster, far]), 3)
        assert w[8] > w[:8].max() and w[9] > w[:8].max()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-5, 5, (40, 3))
        j = 4
        w = sparsity_weights(pts, j)
        raw = np.empty(40)
        for i in range(40):
            d2 = ((pts - pts[i]) ** 2).sum(axis=1)
            d2 = np.sort(d2[d2 != 0.0])[:j]
            raw[i] = d2.sum()
        assert np.allclose(w, raw / raw.sum(), atol=1e-12)

    @pytest.mark.parametrize("j", [1, 8, MAX_NEIGHBOR_COUNT])
    def test_bit_identical_to_per_point_oracle_sum(self, j):
        # per point, sum d * d over the oracle's neighbors in (distance, index)
        # order, as a running Python sum: the weights must match exactly
        rng = np.random.default_rng(j)
        pts = np.vstack([rng.uniform(-5, 5, (300, 3)), rng.integers(0, 3, (100, 3))])
        raw = np.array([sum(d * d for _, d in brute_force_k_nearest(pts, p, j, exclude_self=True))
                        for p in pts])
        assert sparsity_weights(pts, j).tolist() == (raw / raw.sum()).tolist()

    def test_j_max_past_the_other_points_takes_them_all(self):
        pts = np.random.default_rng(3).uniform(-5, 5, (5, 3))
        raw = np.array([sum(d * d for _, d in brute_force_k_nearest(pts, p, 4, exclude_self=True))
                        for p in pts])
        assert sparsity_weights(pts, MAX_NEIGHBOR_COUNT).tolist() == (raw / raw.sum()).tolist()


    def test_non_finite_points_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            sparsity_weights(np.array([[0.0, 0, 0], [1, 0, 0], [np.inf, 0, 0]]), 2)

    def test_bad_shape_and_j_max_rejected_by_name(self):
        pts = np.random.default_rng(0).normal(size=(20, 3))
        for bad in (pts[:, :2], pts[:1, :2], pts[:, 0]):
            with pytest.raises(ValueError, match=r"shape \(.*\)"):
                sparsity_weights(bad, 3)
        for j in (0, -1):
            with pytest.raises(ValueError, match="j_max"):
                sparsity_weights(pts, j)

    def test_nuscenes_scale_frame_in_bounded_memory(self):
        pts = gen_scene(SceneSpec(seed=7, lidar_density=7.0)).lidar_frames[0].xyz
        pts = pts[thin_redundant(pts, 0.3)]
        assert len(pts) == 17_586
        tracemalloc.start()
        try:
            sparsity_weights(pts, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6  # about 3.7 MB; the kd-tree query took 4.5 MB here


class TestDistanceWeights:
    def test_ring_is_uniform(self):
        theta = np.linspace(0, 2 * np.pi, 9)[:-1]
        xyz = np.column_stack([np.cos(theta) * 5, np.sin(theta) * 5, np.zeros(8)])
        assert np.allclose(distance_weights(xyz, 0.0), 1 / 8, atol=1e-12)

    def test_hand_values(self):
        w = distance_weights(np.array([[1, 0, 0], [2, 0, 0]], float), 0.0)
        assert np.allclose(w, [0.8, 0.2], atol=1e-12)

    def test_point_at_origin_finite_and_largest(self):
        w = distance_weights(np.array([[0, 0, 0], [1, 0, 0], [3, 0, 0]], float), 1e-6)
        assert np.isfinite(w).all() and w.argmax() == 0

    def test_point_at_origin_without_epsilon_rejected_by_name(self):
        # 1 / 0 is inf, and inf / inf would make every combined weight NaN
        pts = np.random.default_rng(1).uniform(-5, 5, (50, 3))
        pts[7] = 0.0
        with pytest.raises(ValueError, match="dist_epsilon"):
            distance_weights(pts, 0.0)
        assert np.isfinite(distance_weights(pts, 1e-6)).all()


class TestCombineWeights:
    def test_projection_to_single_family(self):
        cfg = SamplingConfig(alpha_int=1.0, alpha_dist=0.0, alpha_spa=0.0)
        w_int = np.array([0.1, 0.9])
        got = combine_weights(w_int, np.array([0.5, 0.5]), np.array([0.5, 0.5]), cfg)
        assert np.allclose(got, w_int, atol=1e-12)

    def test_uniform_families_stay_uniform(self):
        cfg = SamplingConfig(alpha_int=1.0, alpha_dist=1.0, alpha_spa=1.0)
        u = np.full(4, 0.25)
        assert np.allclose(combine_weights(u, u, u, cfg), u, atol=1e-12)

    def test_hand_values(self):
        cfg = SamplingConfig(alpha_int=4.0, alpha_dist=4.0, alpha_spa=2.0)
        got = combine_weights(np.array([0.5, 0.5]), np.array([0.8, 0.2]),
                              np.array([0.3, 0.7]), cfg)
        assert np.allclose(got, [0.58, 0.42], atol=1e-12)

    def test_length_mismatch(self):
        cfg = SamplingConfig()
        with pytest.raises(ValueError):
            combine_weights(np.ones(2) / 2, np.ones(3) / 3, np.ones(2) / 2, cfg)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_output_is_a_distribution(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50))
        fams = [rng.dirichlet(np.ones(n)) for _ in range(3)]
        cfg = SamplingConfig(alpha_int=float(rng.uniform(0, 5)),
                             alpha_dist=float(rng.uniform(0, 5)),
                             alpha_spa=float(rng.uniform(0.1, 5)))
        w = combine_weights(*fams, cfg)
        assert abs(w.sum() - 1.0) < 1e-9 and (w >= 0).all()


class TestWeightedSampling:
    def test_selects_k_distinct(self):
        rng = philox(0, 0)
        w = np.random.default_rng(0).dirichlet(np.ones(50))
        idx = weighted_sample_without_replacement(w, 20, rng)
        assert len(idx) == 20 and len(set(idx.tolist())) == 20

    def test_respects_weights_statistically(self):
        w = np.array([0.7, 0.1, 0.1, 0.05, 0.05])
        hits = np.zeros(5)
        for s in range(4000):
            idx = weighted_sample_without_replacement(w, 1, philox(1, s))
            hits[idx[0]] += 1
        assert abs(hits[0] / 4000 - 0.7) < 0.03

    def test_zero_weights_only_when_exhausted(self):
        w = np.array([0.5, 0.5, 0.0, 0.0])
        for s in range(50):
            idx = weighted_sample_without_replacement(w, 2, philox(2, s))
            assert set(idx.tolist()) == {0, 1}

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf, -np.inf])
    def test_negative_or_non_finite_weights_rejected(self, bad):
        # such weights used to read as zero: all-NaN weights drew indices 0..k-1
        w = np.full(50, 0.02)
        w[7] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            weighted_sample_without_replacement(w, 5, philox(0, 0))


class TestTwoStageSample:
    def setup_method(self):
        rng = np.random.default_rng(12)
        inner = rng.normal(0, 4, (60, 3))
        outer = rng.normal(0, 4, (60, 3)) + np.array([40.0, 0, 0])
        self.xyz = np.vstack([inner, outer])
        self.w = np.full(120, 1 / 120)

    def test_even_split(self):
        res = two_stage_sample(self.xyz, self.w, 10, 15.0, philox(3, 0))
        assert (res.n1, res.n2) == (5, 5)
        assert not res.fallback_stage1 and not res.truncated

    def test_odd_split_floors_stage1(self):
        res = two_stage_sample(self.xyz, self.w, 7, 15.0, philox(3, 1))
        assert (res.n1, res.n2) == (3, 4)

    def test_stage1_indices_lie_outside_radius(self):
        res = two_stage_sample(self.xyz, self.w, 30, 15.0, philox(3, 2))
        dist = np.sqrt((self.xyz[res.indices[:res.n1]] ** 2).sum(axis=1))
        assert (dist > 15.0).all()

    def test_no_duplicates(self):
        res = two_stage_sample(self.xyz, self.w, 80, 15.0, philox(3, 3))
        assert len(set(res.indices.tolist())) == len(res.indices) == 80

    def test_all_points_within_radius_falls_back(self):
        xyz = np.random.default_rng(1).normal(0, 2, (40, 3))
        res = two_stage_sample(xyz, np.full(40, 1 / 40), 10, 15.0, philox(3, 4))
        assert res.fallback_stage1 and res.n1 == 0 and res.n2 == 10

    def test_fewer_points_than_target_truncates(self):
        xyz = np.random.default_rng(2).normal(0, 2, (6, 3))
        res = two_stage_sample(xyz, np.full(6, 1 / 6), 10, 15.0, philox(3, 5))
        assert res.truncated and len(res.indices) == 6

    def test_target_below_two_rejected(self):
        with pytest.raises(ValueError):
            two_stage_sample(self.xyz, self.w, 1, 15.0, philox(3, 6))


class TestFlow:
    def test_identical_frames_zero_velocity(self):
        f = frame_of(np.random.default_rng(0).normal(size=(30, 3)))
        vel = nn_flow_estimate(f, f, 0.5)
        assert np.allclose(vel, 0.0)

    def test_rigid_translation(self):
        # spacing must exceed the shift or a neighbor can win over the
        # translated twin
        xyz = np.random.default_rng(1).normal(0, 60, (40, 3))
        gaps = np.sqrt(((xyz[:, None] - xyz[None]) ** 2).sum(-1))
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() > 2.0
        f0 = frame_of(xyz, t=0.0)
        f1 = frame_of(xyz + np.array([1.0, 0, 0]), t=0.5, frame_id="f1")
        vel = nn_flow_estimate(f0, f1, 0.5)
        assert np.allclose(vel, [2.0, 0.0, 0.0], atol=1e-9)

    def test_moving_cluster_speed_within_ten_percent(self):
        # per-frame displacement must stay below intra-cluster spacing for
        # nearest-neighbor matching to track the motion
        rng = np.random.default_rng(2)
        static = rng.normal(0, 3.0, (60, 3))
        mover = rng.normal(0, 3.0, (25, 3)) + np.array([30.0, 0, 0])
        v_true = np.array([3.0, -1.0, 0.0])
        dt = 0.1
        f0 = frame_of(np.vstack([static, mover]))
        f1 = frame_of(np.vstack([static, mover + v_true * dt]), t=dt, frame_id="f1")
        vel = nn_flow_estimate(f0, f1, dt)
        speed = np.linalg.norm(vel[60:], axis=1).mean()
        assert abs(speed - np.linalg.norm(v_true)) < 0.1 * np.linalg.norm(v_true)

    def test_empty_next_frame_zero_velocities(self):
        f0 = frame_of(np.ones((5, 3)))
        empty = frame_of(np.zeros((0, 3)), intensity=np.zeros(0), frame_id="e")
        assert np.allclose(nn_flow_estimate(f0, empty, 0.1), 0.0)

    def test_equals_per_point_oracle_exactly(self):
        rng = np.random.default_rng(12)
        f0 = frame_of(rng.integers(0, 4, (200, 3)).astype(float))
        nxt = np.vstack([rng.integers(0, 4, (150, 3)), rng.uniform(0, 3, (150, 3))])
        f1 = frame_of(nxt, t=0.3, frame_id="f1")
        want = np.array([(nxt[brute_force_k_nearest(nxt, p, 1)[0][0]] - p) / 0.3
                         for p in f0.xyz])
        assert nn_flow_estimate(f0, f1, 0.3).tolist() == want.tolist()

    def test_non_positive_dt_rejected(self):
        f = frame_of(np.ones((2, 3)))
        with pytest.raises(ValueError):
            nn_flow_estimate(f, f, 0.0)

    def test_nan_dt_rejected(self):
        f = frame_of(np.ones((2, 3)))
        with pytest.raises(ValueError, match="dt must be > 0, got nan"):
            nn_flow_estimate(f, f, float("nan"))

    def test_nuscenes_scale_frame_in_bounded_memory(self):
        scene = gen_scene(SceneSpec(seed=7, lidar_density=7.0))
        f0, f1 = scene.lidar_frames[:2]
        assert f1.n_points == 35_942
        drawn = f0.select(np.random.default_rng(0).choice(f0.n_points, 300, replace=False))
        tracemalloc.start()
        try:
            vel = nn_flow_estimate(drawn, f1, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(vel).all()
        assert peak < 3e6  # about 1.7 MB; the kd-tree build took 6.9 MB here


class TestMapToPlane:
    def test_z_zeroed(self):
        out = map_to_plane(frame_of([[1.0, 2.0, 3.0]]))
        assert out.xyz.tolist() == [[1.0, 2.0, 0.0]]

    def test_idempotent_on_planar_input(self):
        f = map_to_plane(frame_of(np.random.default_rng(0).normal(size=(10, 3))))
        again = map_to_plane(f)
        assert np.array_equal(again.xyz, f.xyz)

    def test_velocity_components_preserved(self):
        f = with_velocity(frame_of([[1.0, 2.0, 3.0]]), np.array([[4.0, 5.0, 6.0]]))
        out = map_to_plane(f)
        assert out.velocity.tolist() == [[4.0, 5.0]]


@pytest.fixture(scope="module")
def scene():
    return gen_scene(SceneSpec(seed=5, n_frames=4))


@pytest.fixture(scope="module")
def model(scene):
    return fit_em([f.n_points for f in scene.radar_frames], 2, seed=0).model


class TestPipeline:
    def test_deterministic_under_seed(self, scene, model):
        cfg = SamplingConfig(seed=77)
        out1, rep1 = lidar_to_radar(scene.lidar_frames, model, cfg)
        out2, rep2 = lidar_to_radar(scene.lidar_frames, model, cfg)
        for a, b in zip(out1, out2):
            assert np.array_equal(a.xyz, b.xyz)
            assert np.array_equal(a.velocity, b.velocity)
        assert rep1 == rep2

    def test_degenerate_model_fixes_output_size(self, scene):
        degenerate = Gmm1D(np.array([1.0]), np.array([50.0]), np.array([VAR_FLOOR]))
        out, reports = lidar_to_radar(scene.lidar_frames, degenerate, SamplingConfig())
        for frame, rep in zip(out, reports):
            assert frame.n_points == 50
            assert (frame.xyz[:, 2] == 0.0).all()
            assert rep.N == 50 and rep.N1 + rep.N2 == 50

    def test_reports_carry_documented_fields(self, scene, model):
        _, reports = lidar_to_radar(scene.lidar_frames, model, SamplingConfig(seed=3))
        doc = reports[0].to_dict()
        for key in ("frame_id", "n_input", "n_after_thin", "N", "N1", "N2",
                    "fallback_stage1", "zero_velocity", "intensity_fallback", "truncated",
                    "seed"):
            assert key in doc
        assert reports[-1].zero_velocity  # no successor frame
        assert not reports[0].zero_velocity

    def test_reports_flag_zero_intensities_and_truncation(self):
        # N is 50: an all-zero-intensity frame, a 10-point frame, a plain one
        fixed = Gmm1D(np.array([1.0]), np.array([50.0]), np.array([VAR_FLOOR]))
        rng = np.random.default_rng(2)
        frames = [frame_of(rng.normal(0, 20, (n, 3)), intensity=inten, t=float(i),
                           frame_id=str(i))
                  for i, (n, inten) in enumerate([(500, np.zeros(500)), (10, None),
                                                  (500, None)])]
        out, reports = lidar_to_radar(frames, fixed, SamplingConfig())
        assert [r.intensity_fallback for r in reports] == [True, False, False]
        assert [r.truncated for r in reports] == [False, True, False]
        assert [f.n_points for f in out] == [50, 10, 50]

    def test_point_at_origin_without_epsilon_fails_naming_the_frame(self, model):
        pts = np.random.default_rng(3).uniform(-20, 20, (200, 3))
        pts[0] = 0.0  # the first point is always kept by thinning
        frames = [frame_of(pts, frame_id="at_origin"), frame_of(pts + 0.1, t=1.0)]
        with pytest.raises(PipelineError, match="at_origin.*dist_epsilon"):
            lidar_to_radar(frames, model, SamplingConfig(dist_epsilon=0.0))

    def test_empty_frame_report_sets_every_flag(self, model):
        empty = frame_of(np.zeros((0, 3)), intensity=np.zeros(0), frame_id="e")
        later = frame_of(np.random.default_rng(0).normal(0, 20, (200, 3)), t=1.0)
        _, reports = lidar_to_radar([empty, later], model, SamplingConfig())
        doc = reports[0].to_dict()
        assert doc["n_after_thin"] == 0
        assert all(doc[flag] for flag in ("fallback_stage1", "zero_velocity",
                                          "intensity_fallback", "truncated"))

    def test_short_sequence_rejected(self, scene, model):
        with pytest.raises(ValueError):
            lidar_to_radar(scene.lidar_frames[:1], model, SamplingConfig())

    def test_non_increasing_timestamps_reported_with_frame_id(self, model):
        f0 = frame_of(np.random.default_rng(0).normal(0, 20, (500, 3)), t=1.0,
                      frame_id="a")
        f1 = frame_of(np.random.default_rng(1).normal(0, 20, (500, 3)), t=1.0,
                      frame_id="b")
        with pytest.raises(PipelineError, match="'a'"):
            lidar_to_radar([f0, f1], model, SamplingConfig())

    def test_nan_timestamp_reported_as_timestamps(self, model):
        f0 = frame_of(np.random.default_rng(0).normal(0, 20, (500, 3)), t=0.0,
                      frame_id="a")
        f1 = frame_of(np.random.default_rng(1).normal(0, 20, (500, 3)), t=float("nan"),
                      frame_id="b")
        with pytest.raises(PipelineError, match="'a'.*timestamps must strictly increase, "
                                                "got 0.0 then nan"):
            lidar_to_radar([f0, f1], model, SamplingConfig())

    def test_tiny_threshold_reported_with_frame_id(self, model):
        frames = [frame_of(np.random.default_rng(i).normal(0, 20, (500, 3)), t=float(i),
                           frame_id=name) for i, name in enumerate("ab")]
        with pytest.raises(PipelineError, match="'a'.*d_threshold=1e-18"):
            lidar_to_radar(frames, model, SamplingConfig(d_threshold=1e-18))

    def test_custom_flow_estimator_is_used(self, scene, model):
        def constant_flow(frame_t, frame_next, dt):
            return np.tile([1.5, -0.5, 9.0], (frame_t.n_points, 1))

        out, _ = lidar_to_radar(scene.lidar_frames, model, SamplingConfig(),
                                flow=constant_flow)
        assert np.allclose(out[0].velocity, [1.5, -0.5])  # vz discarded

    def test_default_flow_is_looked_up_at_call_time(self, scene, model, monkeypatch):
        # a replaced module attribute must be the one called, so wrappers
        # installed on pseudoradar.sampling.nn_flow_estimate see every frame
        calls = []

        def spy(frame_t, frame_next, dt):
            calls.append(frame_t.frame_id)
            return nn_flow_estimate(frame_t, frame_next, dt)

        monkeypatch.setattr(sampling, "nn_flow_estimate", spy)
        lidar_to_radar(scene.lidar_frames, model, SamplingConfig(seed=3))
        assert calls == [f.frame_id for f in scene.lidar_frames[:-1]]


NAN, INF = float("nan"), float("inf")
FIXED_50 = Gmm1D(np.array([1.0]), np.array([50.0]), np.array([VAR_FLOOR]))


def run_with_flow(flow):
    """``lidar_to_radar`` on two 200-point frames, 'a' then 'b', with ``flow``."""
    rng = np.random.default_rng(4)
    frames = [frame_of(rng.normal(0, 20, (200, 3)), t=float(i), frame_id=name)
              for i, name in enumerate("ab")]
    return lidar_to_radar(frames, FIXED_50, SamplingConfig(), flow=flow)


def flow_raising_pipeline_error(frame_t, frame_next, dt):
    raise PipelineError("inner", "flow failed")


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: SamplingConfig(d_threshold=-1.0), ValueError,
                 r"^d_threshold must be >= 0, got -1.0$", id="negative-d-threshold"),
    *(pytest.param(lambda n=n: SamplingConfig(neighbor_count=n), ValueError,
                   f"^neighbor_count must be an integer, got {n}$", id=f"neighbor-count-{n}")
      for n in (2.5, 8.0)),
    pytest.param(lambda: intensity_weights(np.zeros(0)), ValueError,
                 "^intensity_weights needs at least one point$", id="no-intensities"),
    pytest.param(lambda: intensity_weights(np.array([1.0, -1.0])), ValueError,
                 "^intensities must be finite and >= 0$", id="negative-intensity"),
    pytest.param(lambda: sparsity_weights(np.zeros((0, 3)), 2), ValueError,
                 "^sparsity_weights needs at least one point$", id="sparsity-no-points"),
    pytest.param(lambda: sparsity_weights(np.eye(5, 3), 65), ValueError,
                 r"^j_max must be an integer in \[1, 64\], got 65$", id="sparsity-j-max-65"),
    pytest.param(lambda: sparsity_weights(np.eye(5, 3), 2.5), ValueError,
                 r"^j_max must be an integer in \[1, 64\], got 2.5$", id="sparsity-j-max-2.5"),
    pytest.param(lambda: distance_weights(np.zeros((0, 3)), 1e-6), ValueError,
                 "^distance_weights needs at least one point$", id="distance-no-points"),
    pytest.param(lambda: distance_weights([[0, 0, 0], [2, 0, 0]], -0.5), ValueError,
                 "^dist_epsilon must be finite and >= 0, got -0.5$", id="distance-negative-eps"),
    pytest.param(lambda: distance_weights([[0, 0, 0], [2, 0, 0]], NAN), ValueError,
                 "^dist_epsilon must be finite and >= 0, got nan$", id="distance-nan-eps"),
    pytest.param(lambda: distance_weights([[1, 0, 0], [2, 0, 0]], INF), ValueError,
                 "^dist_epsilon must be finite and >= 0, got inf$", id="distance-inf-eps"),
    pytest.param(lambda: two_stage_sample(np.ones((3, 3)), np.full(2, 0.5), 2, 15.0,
                                          philox(0, 0)), ValueError,
                 "^2 weights for 3 points$", id="draw-weight-count"),
    *(pytest.param(lambda r=r: two_stage_sample(np.eye(3), np.full(3, 1 / 3), 2, r,
                                                philox(0, 0)), ValueError,
                   f"^center_radius must be finite and > 0, got {r}$",
                   id=f"draw-center-radius-{r}") for r in (NAN, INF, -1.0, 0.0)),
    pytest.param(lambda: with_velocity(frame_of(np.ones((2, 3))), np.ones((3, 2))),
                 ValueError, r"^velocities shape \(3, 2\) does not fit 2 points$",
                 id="velocity-shape"),
    pytest.param(lambda: run_with_flow(flow_raising_pipeline_error), PipelineError,
                 "^frame 'inner': flow failed$", id="flow-pipeline-error-not-wrapped-twice"),
    pytest.param(lambda: run_with_flow(lambda f, g, dt: np.zeros((f.n_points, 2))),
                 PipelineError, r"^frame 'a': flow estimator returned shape \(50, 2\), "
                                r"expected \(50, 3\)$", id="flow-shape"),
    pytest.param(lambda: run_with_flow(lambda f, g, dt: np.full((f.n_points, 3), NAN)),
                 PipelineError, "^frame 'a': flow estimator returned non-finite velocities$",
                 id="flow-non-finite"),
])
def test_bad_input_is_refused_naming_the_cause(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: intensity_weights([NAN, 1.0]),
                 "^intensities must be finite and >= 0$", id="intensity-nan"),
    pytest.param(lambda: intensity_weights([INF, 1.0]),
                 "^intensities must be finite and >= 0$", id="intensity-inf"),
    pytest.param(lambda: distance_weights(np.ones(3), 1e-6),
                 r"^distance_weights input must be an \(N, 3\) array, got shape \(3,\)$",
                 id="distance-flat-points"),
    pytest.param(lambda: distance_weights([[NAN, 1.0, 1.0], [1.0, 0.0, 0.0]], 1e-6),
                 "^distance_weights input contains non-finite coordinates$",
                 id="distance-nan-point"),
    pytest.param(lambda: two_stage_sample([[NAN, 0.0, 0.0], [20.0, 0.0, 0.0]],
                                          np.full(2, 0.5), 2, 15.0, philox(0, 0)),
                 "^two_stage_sample input contains non-finite coordinates$",
                 id="draw-nan-point"),
])
def test_stage_functions_refuse_non_finite_or_misshapen_points_by_name(call, match):
    with np.errstate(all="raise"):  # refused before any arithmetic warns
        with pytest.raises(ValueError, match=match):
            call()


def test_sparsity_of_one_point_or_coincident_points_is_uniform():
    assert sparsity_weights(np.array([[1.0, 2.0, 3.0]]), 8).tolist() == [1.0]
    assert sparsity_weights(np.full((4, 3), 2.5), 8).tolist() == [0.25] * 4
