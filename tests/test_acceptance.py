"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s or -v to see them). Criteria with stated
runtime budgets assert them.

Criterion 12 is dataset-gated: it runs only when PSEUDORADAR_NUSCENES
points at a real LiDAR+radar subset laid out as documented in the README,
and is skipped otherwise.
"""

import functools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from pseudoradar.cli import GRADCHECK_TOL
from pseudoradar.contrastive import (ContrastiveConfig, ContrastiveParams,
                                     global_loss, global_loss_terms, info_nce,
                                     local_loss, sliding_window_match, total_loss,
                                     toy_pretrain)
from pseudoradar.gmm import fit_em
from pseudoradar.metrics import chamfer, chamfer_bruteforce, mean_chamfer
from pseudoradar.pointcloud import write_corpus
from pseudoradar.sampling import (SamplingConfig, combine_weights, distance_weights,
                                  intensity_weights, lidar_to_radar, sparsity_weights)
from pseudoradar.spatial import KdTree, brute_force_k_nearest, thin_redundant
from pseudoradar.synth import SceneSpec, gen_feature_batch, gen_scene
from pseudoradar.tensor import Tensor

CORPUS_SEED = 2026


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                skipped = exc.__class__.__name__ == "Skipped"
                print(f"ACCEPTANCE {number:02d} {name}: "
                      f"{'SKIPPED' if skipped else 'FAIL'}")
                raise
            print(f"ACCEPTANCE {number:02d} {name}: PASS")
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def corpus():
    return gen_scene(SceneSpec(seed=CORPUS_SEED, n_frames=50))


@pytest.fixture(scope="module")
def count_models(corpus):
    counts = [f.n_points for f in corpus.radar_frames]
    return {k: fit_em(counts, k, seed=0).model for k in (4, 5, 6)}


@pytest.fixture(scope="module")
def pipeline_runs(corpus, count_models):
    """L2R at K in {4,5,6} plus the distance-only ablation at K=5."""
    runs = {}
    for k in (4, 5, 6):
        cfg = SamplingConfig(seed=11)
        runs[("l2r", k)] = lidar_to_radar(corpus.lidar_frames, count_models[k], cfg)
    dist_cfg = SamplingConfig(alpha_int=0.0, alpha_spa=0.0, alpha_dist=4.0, seed=11)
    runs[("dist", 5)] = lidar_to_radar(corpus.lidar_frames, count_models[5], dist_cfg)
    return runs


@pytest.fixture(scope="module")
def chamfer_means(corpus, pipeline_runs):
    return {key: mean_chamfer(frames, corpus.radar_frames).mean
            for key, (frames, _) in pipeline_runs.items()}


@criterion(1, "gradient correctness of every loss component")
def test_gradcheck_all_components(gradcheck_seed0):
    errors, elapsed = gradcheck_seed0
    expected = {"info_nce", "bcsa", "local_loss", "aggregate_global",
                "global_loss", "total_loss"}
    assert set(errors) == expected
    for name, err in errors.items():
        assert err < GRADCHECK_TOL, f"{name}: {err}"
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"


@criterion(2, "InfoNCE closed forms")
def test_info_nce_closed_forms():
    v = Tensor([[0.4, -1.0, 2.0]])
    four = Tensor(np.tile(v.data, (4, 1)))
    uniform = info_nce(four, four, 0.07).item()
    assert abs(uniform - math.log(4.0)) < 1e-9
    assert info_nce(v, v, 0.07).item() == 0.0
    e = Tensor(np.eye(2))
    two = info_nce(e, e, 1.0).item()
    assert abs(two - 0.313262) < 1e-6


@criterion(3, "Chamfer kd-tree vs brute force on 200 random pairs")
def test_chamfer_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(33)
    for trial in range(200):
        n_p = int(rng.integers(1, 2001))
        n_q = int(rng.integers(1, 2001))
        p = rng.uniform(-60, 60, (n_p, 3))
        q = rng.uniform(-60, 60, (n_q, 3))
        fast = chamfer(p, q)
        slow = chamfer_bruteforce(p, q)
        assert abs(fast - slow) <= 1e-9 * max(abs(fast), abs(slow)), f"trial {trial}"
        assert chamfer(p, q) == chamfer(q, p)
        assert chamfer(p, p) == 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"chamfer oracle sweep took {elapsed:.1f}s"


@criterion(4, "kd-tree k-NN matches brute force exactly")
def test_kdtree_oracle_equivalence():
    rng = np.random.default_rng(44)
    pts = rng.uniform(-100, 100, (1000, 3))
    tree = KdTree(pts)
    queries = rng.uniform(-100, 100, (1000, 3))
    for q in queries:
        k = int(rng.integers(1, 12))
        assert tree.k_nearest(q, k) == brute_force_k_nearest(pts, q, k)


@criterion(5, "EM log-likelihood monotonicity over 100 random fits")
def test_em_monotonicity():
    rng = np.random.default_rng(55)
    for trial in range(100):
        n = int(rng.integers(50, 501))
        k = int(rng.integers(1, 7))
        centers = rng.uniform(10, 2000, size=3)
        counts = np.concatenate([
            np.clip(np.rint(rng.normal(c, max(1.0, c * 0.1), n // 3 + 1)), 1, None)
            for c in centers
        ])[:n].astype(int)
        res = fit_em(counts, k, seed=trial)
        for a, b in zip(res.ll_trace, res.ll_trace[1:]):
            assert b - a >= -1e-9, f"trial {trial}: {a} -> {b}"
        for s in res.weight_sums:
            assert abs(s - 1.0) < 1e-9, f"trial {trial}"


@criterion(6, "full pipeline beats distance-only sampling on Chamfer")
def test_pipeline_direction(chamfer_means):
    start = time.monotonic()
    l2r = chamfer_means[("l2r", 5)]
    dist_only = chamfer_means[("dist", 5)]
    assert l2r < dist_only, f"l2r {l2r:.3f} vs distance-only {dist_only:.3f}"
    assert time.monotonic() - start < 300.0


@criterion(7, "mixture size barely moves downstream Chamfer")
def test_gmm_component_insensitivity(chamfer_means):
    values = [chamfer_means[("l2r", k)] for k in (4, 5, 6)]
    spread = (max(values) - min(values)) / np.mean(values)
    assert spread < 0.05, f"K in 4..6 gave {values}, spread {spread:.3%}"


@criterion(8, "sampler contracts hold over the whole corpus")
def test_sampler_contracts(corpus, count_models, pipeline_runs, tmp_path):
    frames, reports = pipeline_runs[("l2r", 5)]
    cfg = SamplingConfig(seed=11)
    for lidar, frame, report in zip(corpus.lidar_frames, frames, reports):
        assert lidar.frame_id == frame.frame_id == report.frame_id
        assert (frame.xyz[:, 2] == 0.0).all()
        if not report.fallback_stage1:
            assert report.N1 == report.N // 2
        thinned = lidar.select(thin_redundant(lidar.xyz, cfg.d_threshold))
        assert thinned.n_points == report.n_after_thin
        w_int, _ = intensity_weights(thinned.intensity)
        w_spa = sparsity_weights(thinned.xyz, cfg.neighbor_count)
        w_dist = distance_weights(thinned.xyz, cfg.dist_epsilon)
        w = combine_weights(w_int, w_dist, w_spa, cfg)
        for vec in (w_int, w_spa, w_dist, w):
            assert abs(vec.sum() - 1.0) < 1e-9
            assert (vec >= 0).all()

    rerun_frames, rerun_reports = lidar_to_radar(corpus.lidar_frames,
                                                 count_models[5], cfg)
    assert rerun_reports == reports
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    write_corpus(a_dir, frames, fmt="bin")
    write_corpus(b_dir, rerun_frames, fmt="bin")
    for name in sorted(p.name for p in a_dir.iterdir()):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name


@criterion(9, "sliding window recovers planted offsets on >= 90% of columns")
def test_sliding_window_recovery():
    batch = gen_feature_batch(seed=909, batch=4, channels=6, height=6, width=24,
                              noise_sigma=0.05)
    hits = total = 0
    for scene, truth in zip(batch.scenes, batch.offsets):
        width = scene.rad_bev.shape[2]
        for j in range(width):
            anchor = Tensor(scene.rad_bev.tensor.data[:, :, j])
            delta, _ = sliding_window_match(anchor, scene.img_bev.tensor, j,
                                            search_width=5, window_width=3)
            hits += int(delta == truth[j])
            total += 1
    rate = hits / total
    assert rate >= 0.90, f"recovered {hits}/{total} = {rate:.1%}"


@criterion(10, "toy pretraining halves the loss and separates pairs")
def test_toy_pretraining_convergence():
    start = time.monotonic()
    batch = gen_feature_batch(seed=42, batch=3, channels=6, height=6, width=12,
                              noise_sigma=2.0)
    cfg = ContrastiveConfig(batch_size=4)
    trace, _ = toy_pretrain(batch.scenes, cfg, steps=200, learning_rate=0.05,
                            seed=42)
    assert trace.losses[-1] < 0.5 * trace.losses[0], \
        f"{trace.losses[0]:.4f} -> {trace.losses[-1]:.4f}"
    gap = trace.final_pos_sim - trace.final_neg_sim
    assert gap >= 0.2, f"pos-neg similarity gap {gap:.3f}"
    assert time.monotonic() - start < 600.0


@criterion(11, "combined loss arithmetic and the six global terms")
def test_lambda_arithmetic():
    def rng():
        return np.random.Generator(np.random.Philox(key=np.array([7, 7],
                                                                  dtype=np.uint64)))

    batch = gen_feature_batch(seed=70, batch=2, channels=4, height=4, width=9,
                              noise_sigma=0.5)
    params = ContrastiveParams.init(4, seed=0)
    cfg0 = ContrastiveConfig(batch_size=3, lambda_global=0.0)
    total0 = total_loss(batch.scenes, cfg0, params, rng()).item()
    gen = rng()
    locals_ = [local_loss(s.rad_bev, s.img_bev, cfg0, params, gen).item()
               for s in batch.scenes]
    assert total0 == (locals_[0] + locals_[1]) * (1.0 / 2.0)

    cfg = ContrastiveConfig(batch_size=3, lambda_global=1.0 / 6.0)
    total = total_loss(batch.scenes, cfg, params, rng()).item()
    glob = global_loss(batch.scenes, cfg, params).item()
    assert abs(total - (total0 + glob / 6.0)) < 1e-12
    assert global_loss_terms(batch.scenes, cfg, params).shape == (6,)


@criterion(12, "real-data direction check (optional, dataset-gated)")
def test_nuscenes_subset_direction():
    root = os.environ.get("PSEUDORADAR_NUSCENES")
    if not root:
        pytest.skip("PSEUDORADAR_NUSCENES not set; see README for the layout")
    root = Path(root)
    from pseudoradar.pointcloud import read_frame_csv, read_frame_nuscenes_bin
    lidar_paths = sorted((root / "lidar").glob("*.bin"))
    radar_paths = sorted((root / "radar").glob("*.csv"))
    if len(lidar_paths) < 100 or len(lidar_paths) != len(radar_paths):
        pytest.skip(f"need >= 100 paired frames, found {len(lidar_paths)} lidar "
                    f"and {len(radar_paths)} radar")
    lidar, radar = [], []
    for i, (lp, rp) in enumerate(zip(lidar_paths, radar_paths)):
        fid = f"frame_{i:05d}"
        lidar.append(read_frame_nuscenes_bin(lp, frame_id=fid, timestamp=0.1 * i))
        radar.append(read_frame_csv(rp, frame_id=fid, timestamp=0.1 * i))
    model = fit_em([f.n_points for f in radar], 5, seed=0).model
    l2r_frames, _ = lidar_to_radar(lidar, model, SamplingConfig(seed=1))
    dist_frames, _ = lidar_to_radar(
        lidar, model,
        SamplingConfig(alpha_int=0.0, alpha_spa=0.0, alpha_dist=4.0, seed=1))
    l2r = mean_chamfer(l2r_frames, radar).mean
    dist_only = mean_chamfer(dist_frames, radar).mean
    assert l2r < dist_only, f"l2r {l2r:.2f} vs distance-only {dist_only:.2f}"
