import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoradar.contrastive import sliding_window_match
from pseudoradar.synth import (MAX_FEATURE_SIZE, MAX_FRAMES, MAX_MAGNITUDE, SceneSpec,
                              gen_feature_batch, gen_scene)
from pseudoradar.tensor import Tensor


class TestGenScene:
    def test_same_seed_same_corpus(self):
        a = gen_scene(SceneSpec(seed=13, n_frames=3))
        b = gen_scene(SceneSpec(seed=13, n_frames=3))
        for fa, fb in zip(a.lidar_frames + a.radar_frames,
                          b.lidar_frames + b.radar_frames):
            assert np.array_equal(fa.xyz, fb.xyz)
            assert np.array_equal(fa.intensity, fb.intensity)

    def test_no_objects_still_generates_background(self):
        data = gen_scene(SceneSpec(seed=1, n_frames=2, n_objects=0))
        assert all(f.n_points > 0 for f in data.lidar_frames)
        assert data.motions == []

    def test_radar_far_sparser_than_lidar(self):
        data = gen_scene(SceneSpec(seed=3, n_frames=5))
        ratio = np.mean([r.n_points / l.n_points
                         for r, l in zip(data.radar_frames, data.lidar_frames)])
        assert ratio < 0.1

    def test_radar_frames_satisfy_radar_invariants(self):
        data = gen_scene(SceneSpec(seed=4, n_frames=3))
        for f in data.radar_frames:
            assert (f.xyz[:, 2] == 0.0).all()
            assert f.velocity is not None and np.isfinite(f.velocity).all()

    def test_timestamps_strictly_increase(self):
        data = gen_scene(SceneSpec(seed=5, n_frames=6))
        ts = [f.timestamp for f in data.lidar_frames]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_lidar_is_center_heavy_radar_is_not(self):
        spec = SceneSpec(seed=6, n_frames=1, n_objects=0)
        data = gen_scene(spec)
        half = spec.world_radius / 2.0
        lidar_r = np.sqrt((data.lidar_frames[0].xyz[:, :2] ** 2).sum(axis=1))
        radar_r = np.sqrt((data.radar_frames[0].xyz[:, :2] ** 2).sum(axis=1))
        # a uniform disc has 25% of its points inside half the radius
        assert (lidar_r < half).mean() > 0.4
        assert abs((radar_r < half).mean() - 0.25) < 0.12

    def test_object_velocities_recorded_and_carried(self):
        data = gen_scene(SceneSpec(seed=7, n_frames=2, n_objects=2))
        speeds = {tuple(m.velocity) for m in data.motions}
        carried = {tuple(v) for v in data.radar_frames[0].velocity.tolist() if v != [0.0, 0.0]}
        assert carried == speeds

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(radar_density=5.0, lidar_density=1.0)

    @pytest.mark.parametrize("field, value", [
        ("noise_sigma", float("nan")), ("noise_sigma", -0.1), ("world_radius", float("inf")),
        ("object_extent", float("inf")), ("frame_dt", 0.0), ("frame_dt", -0.1),
        ("frame_dt", float("nan")), ("noise_sigma", 1e308), ("frame_dt", 1e308),
        ("world_radius", 1e160), ("object_extent", 1e200), ("lidar_density", 1e4),
        ("n_objects", 100_000_000), ("n_frames", MAX_FRAMES + 1), ("n_frames", -1),
        ("radar_density", 0.0), ("noise_sigma", -0.0), ("world_radius", 16.0),
        ("n_frames", MAX_FRAMES)])  # 1,000 frames of 10,576 points are past the scene bound
    def test_values_it_cannot_generate_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            SceneSpec(**{field: value})


# a spec whose sizes are all tiny, so that any one field may grow to its bound
TINY = SceneSpec(n_frames=2, n_objects=1, object_extent=1.0, ego_radius=1.0,
                 world_radius=4.0, lidar_density=0.5, radar_density=0.05)
INTEGER_FIELDS = ("seed", "n_frames", "n_objects")


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SceneSpec)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_each_value_generates_or_is_refused_by_name(field, data):
    value = data.draw(st.integers() if field in INTEGER_FIELDS else st.floats())
    try:
        spec = dataclasses.replace(TINY, **{field: value})
    except ValueError as exc:
        assert field in str(exc)
        return
    scene = gen_scene(spec)
    assert len(scene.lidar_frames) == len(scene.radar_frames) == spec.n_frames
    for frame in scene.lidar_frames + scene.radar_frames:
        assert np.isfinite(frame.xyz).all() and np.isfinite(frame.timestamp)


class TestGenFeatureBatch:
    @pytest.mark.parametrize("noise", [-1.0, -0.0, float("nan"), float("inf"), 1e308,
                                       MAX_MAGNITUDE * 2])
    def test_noise_it_cannot_generate_rejected_by_name(self, noise):
        with pytest.raises(ValueError, match="noise_sigma"):
            gen_feature_batch(seed=0, batch=2, channels=2, height=2, width=4,
                              noise_sigma=noise)

    @pytest.mark.parametrize("sizes, field", [
        ((0, 2, 2, 4), "batch must be in"),
        ((2, -1, 2, 4), "channels must be in"),
        ((2, 2, MAX_FEATURE_SIZE + 1, 4), "height must be in"),
        ((2, 2, 2, 10**30), "width must be in"),
        ((4, MAX_FEATURE_SIZE, MAX_FEATURE_SIZE, 39), "lower batch, channels, height or width"),
    ])
    def test_sizes_past_their_bounds_rejected_by_name_before_drawing(self, monkeypatch,
                                                                     sizes, field):
        # the bound is checked before any map is drawn or allocated
        monkeypatch.setattr("pseudoradar.synth.philox",
                            lambda *key: pytest.fail("drew a map before checking sizes"))
        with pytest.raises(ValueError, match=field):
            gen_feature_batch(0, *sizes)

    def test_sizes_at_their_bounds_accepted(self):
        batch = gen_feature_batch(0, 2, 1, 1, MAX_FEATURE_SIZE)
        assert batch.scenes[0].shape == (1, 1, MAX_FEATURE_SIZE)

    def test_zero_noise_zero_offset_maps_identical(self):
        batch = gen_feature_batch(seed=0, batch=2, channels=3, height=4, width=8,
                                  noise_sigma=0.0, offset_choices=(0,))
        for scene in batch.scenes:
            base = scene.img_bev.tensor.data
            for name in ("img_fv", "rad_bev", "rad_fv"):
                assert np.array_equal(getattr(scene, name).tensor.data, base)

    def test_same_seed_reproduces(self):
        a = gen_feature_batch(5, 2, 3, 4, 8)
        b = gen_feature_batch(5, 2, 3, 4, 8)
        for sa, sb in zip(a.scenes, b.scenes):
            assert np.array_equal(sa.rad_bev.tensor.data, sb.rad_bev.tensor.data)
        assert all(np.array_equal(x, y) for x, y in zip(a.offsets, b.offsets))

    def test_noiseless_planted_offset_recovered_everywhere(self):
        batch = gen_feature_batch(seed=9, batch=3, channels=4, height=4, width=16,
                                  noise_sigma=0.0, offset_choices=(1,))
        hits = total = 0
        for scene, truth in zip(batch.scenes, batch.offsets):
            for j in range(16):
                anchor = Tensor(scene.rad_bev.tensor.data[:, :, j])
                d, _ = sliding_window_match(anchor, scene.img_bev.tensor, j, 5, 3)
                hits += int(d == truth[j])
                total += 1
        assert hits / total >= 0.95

    def test_cross_scene_similarity_near_zero(self):
        batch = gen_feature_batch(seed=11, batch=4, channels=6, height=6, width=10,
                                  noise_sigma=0.0)
        flats = [s.img_bev.tensor.data.ravel() for s in batch.scenes]
        sims = []
        for i in range(4):
            for k in range(i + 1, 4):
                sims.append(np.dot(flats[i], flats[k])
                            / (np.linalg.norm(flats[i]) * np.linalg.norm(flats[k])))
        assert np.abs(sims).mean() < 0.1

    def test_offsets_clipped_at_borders(self):
        batch = gen_feature_batch(seed=13, batch=1, channels=2, height=2, width=6,
                                  noise_sigma=0.0, offset_choices=(1,))
        truth = batch.offsets[0]
        assert truth[-1] == 0 and truth[0] == 1
