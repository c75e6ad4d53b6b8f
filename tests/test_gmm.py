import json
import re

import numpy as np
import pytest

from pseudoradar.errors import InsufficientDataError, ParseError, SchemaError
from pseudoradar.gmm import (MAX_COMPONENTS, VAR_FLOOR, Gmm1D, fit_em, load_gmm, sample_count,
                             save_gmm)


def monotone(trace, slack=1e-9):
    return all(b - a >= -slack for a, b in zip(trace, trace[1:]))


class TestFitEm:
    def test_single_component_is_sample_mle(self):
        counts = np.random.default_rng(1).integers(5, 400, 60)
        res = fit_em(counts, 1, seed=0)
        assert res.model.means[0] == pytest.approx(counts.mean(), abs=1e-9)
        assert res.model.variances[0] == pytest.approx(counts.var(), rel=1e-9)
        assert res.model.weights[0] == 1.0

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(2)
        low = np.clip(np.rint(rng.normal(20, 2, 10)), 1, None).astype(int)
        high = np.rint(rng.normal(200, 8, 10)).astype(int)
        data = np.concatenate([low, high])
        res = fit_em(data, 2, seed=0)
        got = sorted(res.model.means)
        want = sorted([low.mean(), high.mean()])
        assert got[0] == pytest.approx(want[0], abs=2.0)
        assert got[1] == pytest.approx(want[1], abs=2.0)

    def test_identical_counts_hit_variance_floor(self):
        res = fit_em([77] * 40, 3, seed=1)
        assert (res.model.variances == VAR_FLOOR).all()
        assert monotone(res.ll_trace)

    def test_trace_monotone_and_weights_normalized(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(50, 500))
            k = int(rng.integers(1, 7))
            counts = rng.integers(1, 1000, n)
            res = fit_em(counts, k, seed=trial)
            assert monotone(res.ll_trace), f"trial {trial}"
            for s in res.weight_sums:
                assert abs(s - 1.0) < 1e-9
            assert abs(res.model.weights.sum() - 1.0) < 1e-9

    def test_deterministic_for_fixed_seed(self):
        counts = np.random.default_rng(4).integers(1, 500, 100)
        a = fit_em(counts, 4, seed=9)
        b = fit_em(counts, 4, seed=9)
        assert np.array_equal(a.model.means, b.model.means)
        assert a.ll_trace == b.ll_trace

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_em([10, 20], 3)

    @pytest.mark.parametrize("k", [0, -1, MAX_COMPONENTS + 1, 10_000])
    def test_component_count_outside_its_bound_rejected_by_name(self, monkeypatch, k):
        # refused before seeding, so a large k builds no (n, k) array
        monkeypatch.setattr("pseudoradar.gmm._seed_centers", None)
        with pytest.raises(ValueError, match=rf"^component count must be in "
                                             rf"\[1, {MAX_COMPONENTS}\], got {k}$"):
            fit_em(np.arange(1, 11), k)

    def test_component_count_at_its_bound_fits(self):
        counts = np.arange(1, MAX_COMPONENTS + 1) * 10
        assert fit_em(counts, MAX_COMPONENTS, max_iter=2).model.n_components == MAX_COMPONENTS

    def test_non_positive_count_rejected(self):
        with pytest.raises(ValueError):
            fit_em([5, 0, 7], 1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
        ({"max_iter": -3}, "max_iter must be >= 1, got -3"),
        ({"tol": float("nan")}, "tol must be finite and >= 0, got nan"),
        ({"tol": float("inf")}, "tol must be finite and >= 0, got inf"),
        ({"tol": -1e-6}, "tol must be finite and >= 0, got -1e-06"),
    ])
    def test_bad_iteration_limits_rejected_by_name(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_em([5, 6, 7, 8], 1, **kwargs)


class TestSampleCount:
    def test_degenerate_component_always_its_mean(self):
        model = Gmm1D(np.array([1.0]), np.array([100.0]), np.array([VAR_FLOOR]))
        rng = np.random.default_rng(0)
        draws = {sample_count(model, rng) for _ in range(200)}
        assert draws == {100}

    def test_clamped_to_at_least_two(self):
        model = Gmm1D(np.array([1.0]), np.array([1.0]), np.array([0.5]))
        rng = np.random.default_rng(0)
        assert min(sample_count(model, rng) for _ in range(500)) >= 2

    def test_empirical_mean_matches_mixture(self):
        model = Gmm1D(np.array([0.4, 0.6]), np.array([50.0, 300.0]),
                      np.array([25.0, 100.0]))
        rng = np.random.default_rng(7)
        n = 100_000
        draws = np.array([sample_count(model, rng) for _ in range(n)])
        mix_mean = model.mean()
        mix_var = float((model.weights * (model.variances + model.means**2)).sum()
                        - mix_mean**2)
        assert abs(draws.mean() - mix_mean) < 3.0 * np.sqrt(mix_var / n)

    def test_component_frequencies_match_weights(self):
        model = Gmm1D(np.array([0.3, 0.7]), np.array([10.0, 1000.0]),
                      np.array([1.0, 1.0]))
        rng = np.random.default_rng(11)
        n = 50_000
        draws = np.array([sample_count(model, rng) for _ in range(n)])
        frac_low = (draws < 500).mean()
        se = np.sqrt(0.3 * 0.7 / n)
        assert abs(frac_low - 0.3) < 4 * se


class TestJson:
    def test_roundtrip(self, tmp_path):
        model = Gmm1D(np.array([0.25, 0.75]), np.array([10.0, 99.5]),
                      np.array([4.0, 2.5]))
        path = tmp_path / "m.json"
        save_gmm(model, path)
        back = load_gmm(path)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.means, model.means)
        assert np.array_equal(back.variances, model.variances)

    def test_hand_written_file_loads(self, tmp_path):
        path = tmp_path / "hand.json"
        path.write_text(json.dumps({"components": [
            {"weight": 0.5, "mean": 20.0, "var": 9.0},
            {"weight": 0.5, "mean": 200.0, "var": 100.0},
        ]}))
        model = load_gmm(path)
        assert model.n_components == 2
        assert model.means.tolist() == [20.0, 200.0]

    def test_missing_field_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"components": [{"weight": 1.0, "mean": 5.0}]}))
        with pytest.raises(SchemaError, match="bad.json: component 0 needs 'var'$"):
            load_gmm(path)

    @pytest.mark.parametrize("value", ["1", "abc", True, None, [1.0]])
    def test_non_number_is_schema_error_naming_the_key(self, tmp_path, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"components": [
            {"weight": 0.5, "mean": 20.0, "var": 9.0},
            {"weight": 0.5, "mean": value, "var": 100.0},
        ]}))
        with pytest.raises(SchemaError, match=f"bad.json: component 1 mean must be a number, "
                                              f"got {re.escape(repr(value))}$"):
            load_gmm(path)

    @pytest.mark.parametrize("text, message", [
        ("1" + "0" * 400, "must be within float64 range, got a 401-digit integer"),
        ("-Infinity", "must be finite, got -inf"),
    ], ids=["int-past-float", "minus-infinity"])
    def test_value_past_float_range_is_schema_error_naming_the_key(self, tmp_path, text,
                                                                   message):
        path = tmp_path / "big.json"
        path.write_text('{"components": [{"weight": 1.0, "mean": %s, "var": 1.0}]}' % text)
        with pytest.raises(SchemaError, match=f"big.json: component 0 mean {message}$"):
            load_gmm(path)

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "oops.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_gmm(path)

    def test_invalid_weights_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"components": [{"weight": 0.7, "mean": 1.0,
                                                    "var": 1.0}]}))
        with pytest.raises(SchemaError):
            load_gmm(path)
