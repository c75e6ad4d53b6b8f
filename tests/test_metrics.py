import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoradar.errors import AlignmentError, EmptyFrameError
from pseudoradar.metrics import ChamferReport, chamfer, chamfer_bruteforce, mean_chamfer
from pseudoradar.pointcloud import PointCloudFrame


def frame_of(xyz, frame_id="f", t=0.0):
    xyz = np.asarray(xyz, dtype=float)
    return PointCloudFrame(frame_id, t, xyz, np.ones(len(xyz)))


class TestChamfer:
    def test_identical_sets_zero(self):
        p = np.random.default_rng(0).normal(size=(50, 3))
        assert chamfer(p, p) == 0.0

    def test_single_pair_hand_value(self):
        assert chamfer(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 50.0

    def test_two_vs_one_hand_value(self):
        p = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = np.array([[0.0, 0.0]])
        assert chamfer(p, q) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(1)
        p, q = rng.normal(size=(80, 3)), rng.normal(size=(60, 3))
        assert chamfer(p, q) == chamfer(q, p)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            chamfer(np.zeros((0, 3)), np.ones((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        p = np.random.default_rng(4).normal(size=(20, 3))
        q = p.copy()
        q[7, 1] = bad
        for a, b in ((p, q), (q, p)):
            with pytest.raises(ValueError, match="non-finite"):
                chamfer(a, b)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        p, q = rng.normal(size=(70, 3)), rng.normal(size=(50, 3))
        t = np.array([12.0, -7.0, 3.0])
        a, b = chamfer(p, q), chamfer(p + t, q + t)
        assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))

    def test_planar_input_matches_2d(self):
        rng = np.random.default_rng(3)
        p2, q2 = rng.normal(size=(40, 2)), rng.normal(size=(30, 2))
        p3 = np.column_stack([p2, np.zeros(40)])
        q3 = np.column_stack([q2, np.zeros(30)])
        assert chamfer(p2, q2) == chamfer(p3, q3)

    def test_equals_per_point_python_sum_exactly(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(-20, 20, (300, 3))
        q = rng.integers(-20, 20, (200, 3)).astype(float)

        def term(a, b):
            return sum(float(((b - x) ** 2).sum(axis=1).min()) for x in a) / len(a)

        assert chamfer(p, q) == term(p, q) + term(q, p)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_kd_tree_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(-20, 20, (int(rng.integers(1, 300)), 3))
        q = rng.uniform(-20, 20, (int(rng.integers(1, 300)), 3))
        fast, slow = chamfer(p, q), chamfer_bruteforce(p, q)
        assert abs(fast - slow) <= 1e-9 * max(abs(fast), abs(slow), 1e-30)


class TestMeanChamfer:
    def test_identical_corpora_mean_zero(self):
        frames = [frame_of(np.random.default_rng(s).normal(size=(20, 3)),
                           frame_id=f"f{s}") for s in range(4)]
        report = mean_chamfer(frames, frames)
        assert report.mean == 0.0 and report.count == 4

    def test_mean_is_arithmetic(self):
        a1 = frame_of([[0.0, 0.0, 0.0]], frame_id="x")
        b1 = frame_of([[1.0, 0.0, 0.0]], frame_id="x")   # chamfer 2
        a2 = frame_of([[0.0, 0.0, 0.0]], frame_id="y")
        b2 = frame_of([[2.0, 0.0, 0.0]], frame_id="y")   # chamfer 8
        report = mean_chamfer([a1, a2], [b1, b2])
        assert [v for _, v in report.per_frame] == [2.0, 8.0]
        assert report.mean == 5.0

    def test_orphan_ids_listed(self):
        a = [frame_of(np.ones((2, 3)), frame_id="a"), frame_of(np.ones((2, 3)), frame_id="b")]
        b = [frame_of(np.ones((2, 3)), frame_id="b"), frame_of(np.ones((2, 3)), frame_id="c")]
        with pytest.raises(AlignmentError) as err:
            mean_chamfer(a, b)
        assert err.value.orphans == ["a", "c"]

    def test_repeated_ids_listed(self):
        # pairing by id would keep only the last frame of each repeated id
        once = [frame_of(np.ones((2, 3)), frame_id=fid) for fid in ("a", "b")]
        twice_a = once + [frame_of(np.zeros((2, 3)), frame_id="a")]
        twice_b = once + [frame_of(np.zeros((2, 3)), frame_id="b")]
        for left, right, ids in ((twice_a, once, "a"), (once, twice_a, "a"),
                                 (twice_b, twice_a, "a, b")):
            with pytest.raises(AlignmentError, match=f"^repeated frame ids: {ids}$"):
                mean_chamfer(left, right)

    def test_every_empty_frame_listed_before_any_distance(self, monkeypatch):
        # f1 is empty on one side, f2 on the other; both are named, in order
        full, empty = np.ones((2, 3)), np.zeros((0, 3))
        a = [frame_of(full, frame_id="f0"), frame_of(empty, frame_id="f1"),
             frame_of(full, frame_id="f2")]
        b = [frame_of(empty, frame_id="f2"), frame_of(full, frame_id="f1"),
             frame_of(full, frame_id="f0")]
        calls = []
        monkeypatch.setattr("pseudoradar.metrics.chamfer", lambda p, q: calls.append(1))
        with pytest.raises(EmptyFrameError) as err:
            mean_chamfer(a, b)
        assert err.value.frame_ids == ["f1", "f2"]
        assert "f1, f2" in str(err.value)
        assert calls == []

    def test_report_json_roundtrip(self):
        report = ChamferReport([("f0", 1.5), ("f1", 2.5)], 2.0, 2)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["mean"] == 2.0 and doc["count"] == 2
        assert doc["per_frame"][0] == {"frame_id": "f0", "value": 1.5}


@pytest.mark.parametrize("distance", [chamfer, chamfer_bruteforce])
def test_both_distances_refuse_bad_or_empty_point_sets(distance):
    with pytest.raises(ValueError, match=r"^expected \(N, 2\) or \(N, 3\) points, "
                                         r"got shape \(2, 4\)$"):
        distance(np.ones((2, 4)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="^chamfer distance is undefined for empty point sets$"):
        distance(np.ones((2, 3)), np.zeros((0, 3)))
