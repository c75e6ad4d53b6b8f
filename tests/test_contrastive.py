import math
import re
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest

from pseudoradar import contrastive as C
from pseudoradar import tensor as T
from pseudoradar.contrastive import (GLOBAL_PAIRS, MAP_NAMES, BcsaParams,
                                     ContrastiveConfig, ContrastiveParams, FeatureMap,
                                     GlobalAggParams, SceneMaps, aggregate_global, bcsa,
                                     global_loss, global_loss_terms, info_nce, local_loss,
                                     sliding_window_match, total_loss, toy_pretrain,
                                     _attend)
from pseudoradar.errors import DivergenceError
from pseudoradar.synth import gen_feature_batch
from pseudoradar.tensor import Tensor, finite_diff_check


def philox(*key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def vecs(n, dim, seed=0, grad=False):
    """N random D-vectors stacked as an N x D tensor."""
    return Tensor(np.random.default_rng(seed).normal(size=(n, dim)), requires_grad=grad)


def rows(*vectors):
    return Tensor(np.array(vectors, dtype=np.float64))


def one_scene(*maps):
    """K maps of one scene as the K x 1 x C x H x W stack aggregate_global takes."""
    return Tensor(np.stack(maps)[:, None])


class TestInfoNce:
    def test_single_pair_is_zero(self):
        v = rows([1.0, 2.0, 3.0])
        assert info_nce(v, v, 0.07).item() == 0.0

    def test_uniform_similarities_give_log_n(self):
        v = rows(*[[0.3, -1.2, 0.7]] * 4)
        loss = info_nce(v, v, 0.07).item()
        assert loss == pytest.approx(math.log(4.0), abs=1e-9)

    def test_identity_vs_orthogonal_closed_form(self):
        e = rows([1.0, 0.0], [0.0, 1.0])
        loss = info_nce(e, e, 1.0).item()
        assert loss == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-6)

    def test_always_non_negative(self):
        for seed in range(8):
            loss = info_nce(vecs(5, 7, seed), vecs(5, 7, seed + 100), 0.07).item()
            assert loss >= 0.0

    def test_invariant_to_positive_rescaling(self):
        anchors, cands = vecs(4, 6, 1), vecs(4, 6, 2)
        base = info_nce(anchors, cands, 0.07).item()
        scaled = anchors.data.copy()
        scaled[0] *= 53.0
        assert abs(info_nce(Tensor(scaled), cands, 0.07).item() - base) < 1e-9
        cscaled = cands.data.copy()
        cscaled[2] *= 0.001
        assert abs(info_nce(anchors, Tensor(cscaled), 0.07).item() - base) < 1e-9

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            info_nce(vecs(2, 3), vecs(3, 3), 0.07)
        with pytest.raises(ValueError):
            info_nce(vecs(2, 3), vecs(2, 4), 0.07)

    def test_stacks_give_one_loss_per_leading_index(self):
        anchors, cands = vecs(6, 5, 5), vecs(6, 5, 6)
        losses = info_nce(T.reshape(anchors, (2, 3, 5)), T.reshape(cands, (2, 3, 5)), 0.07)
        assert losses.shape == (2,)
        for i in range(2):
            one = info_nce(Tensor(anchors.data[3 * i:3 * i + 3]),
                           Tensor(cands.data[3 * i:3 * i + 3]), 0.07)
            assert losses.data[i] == pytest.approx(one.item(), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        anchors, cands = vecs(3, 5, 3, grad=True), vecs(3, 5, 4, grad=True)
        f = lambda t: info_nce(anchors, cands, 1.0)
        assert finite_diff_check(f, anchors) < 1e-5
        assert finite_diff_check(f, cands) < 1e-5


# (function, arguments after the inputs, the expected form, inputs in a form
# it does not take): lists, unstacked pairs and maps without a scene axis
_V = Tensor(np.ones(3))
_MAP = Tensor(np.ones((2, 3, 4)))
OTHER_FORMS = [
    (info_nce, (0.07,), r"\.\.\. x N x D", ([_V, _V], [_V, _V])),
    (info_nce, (0.07,), r"\.\.\. x N x D", (_V, _V)),
    (bcsa, (BcsaParams.init(2),), "N x C x D", (Tensor(np.ones((2, 5))),) * 2),
    (bcsa, (BcsaParams.init(2),), "N x C x D", ([Tensor(np.ones((2, 5)))],) * 2),
    (aggregate_global, (((0, 1),), GlobalAggParams.init(2)), "K x S x C x H x W",
     ([_MAP, _MAP],)),
    (aggregate_global, (((0, 1),), GlobalAggParams.init(2)), "K x S x C x H x W",
     (Tensor(np.ones((2, 2, 3, 4))),)),
]


@pytest.mark.parametrize("case", range(len(OTHER_FORMS)))
def test_other_input_forms_are_refused_naming_the_form(case):
    fn, args, form, inputs = OTHER_FORMS[case]
    with pytest.raises(ValueError, match=f"expected .*{form}"):
        fn(*inputs, *args)


class TestSlidingWindowMatch:
    def test_candidate_count_is_r_minus_r_plus_one(self):
        # interior column: R - r + 1 = 3 distinct window centers are reachable
        rng = np.random.default_rng(0)
        m = Tensor(rng.normal(size=(3, 4, 20)))
        deltas = set()
        for trial in range(40):
            anchor = Tensor(rng.normal(size=(3, 4)))
            d, _ = sliding_window_match(anchor, m, 10, 5, 3)
            deltas.add(d)
        assert deltas <= {-1, 0, 1} and len(deltas) > 1

    def test_exact_copy_with_orthogonal_context_returns_zero_offset(self):
        # non-anchor columns are orthogonal to the anchor (disjoint support),
        # so the window centered on the copy aggregates anchor-dominated while
        # every other window aggregates noise-dominated
        rng = np.random.default_rng(1)
        c, h, w = 3, 4, 11
        anchor = rng.normal(size=(c, h))
        anchor[2, 3] = 0.0
        u = np.zeros((c, h))
        u[2, 3] = 1.3
        m = np.tile(u[:, :, None], (1, 1, w))
        for j in range(w):
            probe = m.copy()
            probe[:, :, j] = anchor
            d, _ = sliding_window_match(Tensor(anchor), Tensor(probe), j, 5, 3)
            assert d == 0, f"column {j}"

    def test_planted_offset_recovered(self):
        rng = np.random.default_rng(2)
        latent = rng.normal(size=(4, 5, 18))
        for delta in (-1, 0, 1):
            j = 9
            anchor = Tensor(latent[:, :, j + delta].copy())
            d, _ = sliding_window_match(anchor, Tensor(latent), j, 5, 3)
            assert d == delta

    def test_border_columns_are_clipped_not_fatal(self):
        rng = np.random.default_rng(3)
        m = Tensor(rng.normal(size=(2, 3, 6)))
        for j in (0, 5):
            d, cand = sliding_window_match(Tensor(rng.normal(size=(2, 3))), m, j, 5, 3)
            assert cand.shape == (2, 3)

    def test_wide_search_at_the_border(self):
        # R=7, r=2 at column 0: the two leftmost windows hold no map column
        rng = np.random.default_rng(4)
        m = Tensor(rng.normal(size=(2, 3, 6)))
        for j in (0, 5):
            d, cand = sliding_window_match(Tensor(m.data[:, :, j]), m, j, 7, 2)
            assert 0 <= j + d < 6 and cand.shape == (2, 3)

    def test_invalid_geometry_rejected(self):
        m = Tensor(np.zeros((2, 2, 8)))
        a = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            sliding_window_match(a, m, 3, 3, 3)
        with pytest.raises(ValueError):
            sliding_window_match(a, m, 99, 5, 3)


class TestContrastiveConfig:
    @pytest.mark.parametrize("key", ["tau", "lambda_global"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            ContrastiveConfig(**{key: value})


class TestBcsa:
    def test_output_shapes_match_input(self):
        rng = np.random.default_rng(0)
        params = BcsaParams.init(5)
        r1, r2 = bcsa(Tensor(rng.normal(size=(2, 5, 7))),
                      Tensor(rng.normal(size=(2, 5, 7))), params)
        assert r1.shape == (2, 5, 7) and r2.shape == (2, 5, 7)

    def test_one_by_one_reduces_to_gated_biases(self):
        # single-key attention passes the partner's value through; layer norm
        # of one element is zero, so only the affine biases survive the gate
        params = BcsaParams.init(1)
        params.ln_spatial_bias.data[:] = 2.0
        params.ln_channel_bias.data[:] = -4.0
        r1, _ = bcsa(Tensor([[[3.5]]]), Tensor([[[-1.25]]]), params)
        assert r1.item() == pytest.approx(0.5 * 2.0 + 0.5 * (-4.0), abs=1e-12)

    def test_attention_rows_sum_to_one_in_both_branches(self):
        rng = np.random.default_rng(1)
        f1 = Tensor(rng.normal(size=(4, 6)))
        f2 = Tensor(rng.normal(size=(4, 6)))
        t1, t2 = T.transpose_last2(f1), T.transpose_last2(f2)
        # attending to the identity returns the attention matrix itself
        attn_ch = _attend(f1, t2, Tensor(np.eye(4)))
        attn_sp = _attend(t1, f2, Tensor(np.eye(6)))
        assert attn_ch.shape == (4, 4) and attn_sp.shape == (6, 6)
        assert np.abs(attn_ch.data.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(attn_sp.data.sum(axis=1) - 1.0).max() < 1e-12

    def test_gate_stays_inside_unit_interval(self):
        params = BcsaParams.init(6)
        params.gate_logits.data[:] = np.array([-30.0, -1.0, 0.0, 1.0, 30.0, 5.0])
        gate = T.sigmoid(params.gate_logits).data
        assert (gate > 0.0).all() and (gate < 1.0).all()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        params = BcsaParams.init(4)
        f1 = Tensor(rng.normal(size=(1, 4, 5)), requires_grad=True)
        f2 = Tensor(rng.normal(size=(1, 4, 5)), requires_grad=True)
        readout = Tensor(rng.normal(size=(4, 5)))

        def f(_):
            r1, r2 = bcsa(f1, f2, params)
            return T.add(T.tsum(T.mul(r1, readout)), T.tsum(T.mul(r2, readout)))

        assert finite_diff_check(f, f1) < 1e-5
        assert finite_diff_check(f, f2) < 1e-5
        for p in params.tensors():
            assert finite_diff_check(f, p) < 1e-5

    def test_batch_equals_each_pair_alone(self):
        rng = np.random.default_rng(3)
        params = BcsaParams.init(4)
        params.gate_logits.data[:] = rng.normal(size=4)
        f1, f2 = rng.normal(size=(5, 4, 6)), rng.normal(size=(5, 4, 6))
        r1, r2 = bcsa(Tensor(f1), Tensor(f2), params)
        for i in range(5):
            s1, s2 = bcsa(Tensor(f1[i:i + 1]), Tensor(f2[i:i + 1]), params)
            assert np.allclose(r1.data[i], s1.data[0], rtol=0, atol=1e-12)
            assert np.allclose(r2.data[i], s2.data[0], rtol=0, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        params = BcsaParams.init(3)
        with pytest.raises(ValueError):
            bcsa(Tensor(np.zeros((1, 3, 4))), Tensor(np.zeros((1, 3, 5))), params)


@pytest.mark.parametrize("shape", [(4,), (3, 1)], ids=["length", "rank"])
@pytest.mark.parametrize("name", [field.name for field in fields(BcsaParams)])
def test_each_bcsa_parameter_not_shaped_c_is_refused_by_name(name, shape):
    # a (4,) gain failed inside numpy's reshape, and a (3, 1) bias broadcast
    params = BcsaParams.init(3)
    setattr(params, name, Tensor(np.ones(shape), requires_grad=True))
    f = Tensor(np.ones((2, 3, 5)))
    with pytest.raises(ValueError, match=rf"^{name} has shape {re.escape(str(shape))}, "
                                         rf"expected \(3,\) for 3 channels$"):
        bcsa(f, f, params)


@pytest.mark.parametrize("name", ["row_proj", "col_proj"])
def test_a_global_projection_not_sized_2c_is_refused_by_name(name):
    # a mis-sized col_proj failed inside numpy's reshape
    params = GlobalAggParams.init(2)
    setattr(params, name, Tensor(np.ones(8), requires_grad=True))
    with pytest.raises(ValueError, match=rf"^{name} has shape \(8,\), expected \(4,\) "
                                         rf"for 2 channels$"):
        aggregate_global(Tensor(np.ones((2, 1, 2, 3, 4))), [(0, 1)], params)


class TestAggregateGlobal:
    def test_constant_map_aggregates_to_cell_value(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=4)
        const = np.tile(v[:, None, None], (1, 5, 6))
        other = rng.normal(size=(4, 5, 6))
        params = GlobalAggParams.init(4, seed=3)
        g_a, _ = aggregate_global(one_scene(const, other), ((0, 1),), params)
        assert np.allclose(g_a.data, [[v]], atol=1e-12)

    def test_output_length_is_channel_count(self):
        rng = np.random.default_rng(1)
        for c, hw in ((2, (3, 9)), (6, (1, 1)), (5, (7, 2))):
            params = GlobalAggParams.init(c, seed=0)
            maps = one_scene(*rng.normal(size=(3, c, *hw)))
            g_a, g_b = aggregate_global(maps, ((0, 1), (2, 0)), params)
            assert g_a.shape == (2, 1, c) and g_b.shape == (2, 1, c)

    def test_zeroed_projections_give_plain_means(self):
        # uniform attention everywhere collapses to the mean over all cells
        rng = np.random.default_rng(2)
        params = GlobalAggParams(Tensor(np.zeros(4)), Tensor(np.zeros(4)))
        x, y = rng.normal(size=(2, 2, 2)), rng.normal(size=(2, 2, 2))
        g_a, g_b = aggregate_global(one_scene(x, y), ((0, 1),), params)
        assert np.allclose(g_a.data, [[x.mean(axis=(1, 2))]], atol=1e-12)
        assert np.allclose(g_b.data, [[y.mean(axis=(1, 2))]], atol=1e-12)

    def test_attention_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        c, h, w = 3, 6, 7
        params = GlobalAggParams.init(c, seed=1)
        cat = np.concatenate([rng.normal(size=(c, h, w)), rng.normal(size=(c, h, w))])
        row_scores = params.row_proj.data @ cat.mean(axis=2)
        row_w = np.exp(row_scores - row_scores.max())
        row_w /= row_w.sum()
        assert abs(row_w.sum() - 1.0) < 1e-12

    def test_scene_stack_equals_each_scene_alone(self):
        rng = np.random.default_rng(5)
        params = GlobalAggParams.init(3, seed=4)
        fa, fb = rng.normal(size=(4, 3, 5, 6)), rng.normal(size=(4, 3, 5, 6))
        g_a, g_b = aggregate_global(Tensor(np.stack([fa, fb])), ((0, 1),), params)
        assert g_a.shape == (1, 4, 3) and g_b.shape == (1, 4, 3)
        for s in range(4):
            one_a, one_b = aggregate_global(one_scene(fa[s], fb[s]), ((0, 1),), params)
            assert np.allclose(g_a.data[0, s], one_a.data[0, 0], rtol=0, atol=1e-12)
            assert np.allclose(g_b.data[0, s], one_b.data[0, 0], rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        params = GlobalAggParams.init(3, seed=2)
        maps = Tensor(rng.normal(size=(2, 1, 3, 4, 5)), requires_grad=True)
        proj = Tensor(rng.normal(size=3))

        def f(_):
            g_a, g_b = aggregate_global(maps, ((0, 1),), params)
            return T.add(T.tsum(T.mul(g_a, proj)), T.tsum(T.mul(g_b, proj)))

        for x in (maps, params.row_proj, params.col_proj):
            assert finite_diff_check(f, x) < 1e-5


class TestLocalLoss:
    def test_copy_map_matches_at_zero_offset_and_is_small(self):
        rng = np.random.default_rng(0)
        c, h, w = 4, 5, 10
        base = rng.normal(size=(c, h, w))
        f_rad = FeatureMap(Tensor(base.copy()), "radar", "bev")
        f_img = FeatureMap(Tensor(base.copy()), "image", "bev")
        cfg = ContrastiveConfig(batch_size=4)
        params = ContrastiveParams.init(c, seed=0)
        loss = local_loss(f_rad, f_img, cfg, params, philox(1, 2)).item()
        shuffled = FeatureMap(Tensor(rng.permutation(base.ravel()).reshape(base.shape)),
                              "image", "bev")
        worse = local_loss(f_rad, shuffled, cfg, params, philox(1, 2)).item()
        assert 0.0 <= loss < worse

    def test_finite_and_non_negative_on_random_inputs(self):
        rng = np.random.default_rng(1)
        cfg = ContrastiveConfig(batch_size=3)
        params = ContrastiveParams.init(3, seed=1)
        for seed in range(5):
            f_rad = FeatureMap(Tensor(rng.normal(size=(3, 4, 8))), "radar", "bev")
            f_img = FeatureMap(Tensor(rng.normal(size=(3, 4, 8))), "image", "bev")
            loss = local_loss(f_rad, f_img, cfg, params, philox(seed, 0)).item()
            assert math.isfinite(loss) and loss >= 0.0

    def test_deterministic_for_fixed_rng(self):
        rng = np.random.default_rng(2)
        cfg = ContrastiveConfig(batch_size=4)
        params = ContrastiveParams.init(4, seed=0)
        f_rad = FeatureMap(Tensor(rng.normal(size=(4, 5, 9))), "radar", "bev")
        f_img = FeatureMap(Tensor(rng.normal(size=(4, 5, 9))), "image", "bev")
        a = local_loss(f_rad, f_img, cfg, params, philox(3, 3)).item()
        b = local_loss(f_rad, f_img, cfg, params, philox(3, 3)).item()
        assert a == b

    def test_batch_larger_than_width_rejected(self):
        cfg = ContrastiveConfig(batch_size=9)
        params = ContrastiveParams.init(2, seed=0)
        f_rad = FeatureMap(Tensor(np.zeros((2, 3, 4))), "radar", "bev")
        f_img = FeatureMap(Tensor(np.zeros((2, 3, 4))), "image", "bev")
        with pytest.raises(ValueError):
            local_loss(f_rad, f_img, cfg, params, philox(0, 0))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        c, h, w = 4, 6, 8
        cfg = ContrastiveConfig(tau=1.0, batch_size=3)
        params = ContrastiveParams.init(c, seed=0)
        rad = Tensor(rng.normal(size=(c, h, w)), requires_grad=True)
        img = Tensor(rng.normal(size=(c, h, w)), requires_grad=True)

        def f(_):
            return local_loss(FeatureMap(rad, "radar", "bev"),
                              FeatureMap(img, "image", "bev"),
                              cfg, params, philox(5, 1))

        assert finite_diff_check(f, rad) < 1e-5
        assert finite_diff_check(f, img) < 1e-5


class TestGlobalLoss:
    def make_batch(self, b=3, c=4, h=3, w=3, seed=0):
        return gen_feature_batch(seed, b, c, h, w, noise_sigma=0.5).scenes

    def test_exactly_six_pair_terms(self):
        scenes = self.make_batch()
        cfg = ContrastiveConfig()
        params = ContrastiveParams.init(4, seed=0)
        terms = global_loss_terms(scenes, cfg, params)
        assert terms.shape == (len(GLOBAL_PAIRS),) == (6,)
        total = global_loss(scenes, cfg, params).item()
        assert total == pytest.approx(sum(terms.data.tolist()), abs=1e-12)

    def test_pair_list_covers_all_modality_view_combinations(self):
        flat = [p for pair in GLOBAL_PAIRS for p in pair]
        assert sorted(set(flat)) == ["img_bev", "img_fv", "rad_bev", "rad_fv"]
        assert len(set(GLOBAL_PAIRS)) == 6

    def test_non_negative_and_small_for_distinct_scenes(self):
        scenes = gen_feature_batch(3, 2, 4, 3, 3, noise_sigma=0.01).scenes
        cfg = ContrastiveConfig()
        params = ContrastiveParams.init(4, seed=0)
        loss = global_loss(scenes, cfg, params).item()
        assert loss >= 0.0

    def test_single_scene_rejected(self):
        scenes = self.make_batch(b=1)
        with pytest.raises(ValueError):
            global_loss(scenes, ContrastiveConfig(), ContrastiveParams.init(4, seed=0))

    def test_missing_map_named_in_error(self):
        good = self.make_batch(b=2)[0]
        with pytest.raises(ValueError, match="rad_fv"):
            SceneMaps(img_bev=good.img_bev, img_fv=good.img_fv,
                      rad_bev=good.rad_bev, rad_fv=None)

    def test_gradient_matches_finite_differences(self):
        scenes = self.make_batch(b=2, seed=4)
        cfg = ContrastiveConfig(tau=1.0)
        params = ContrastiveParams.init(4, seed=0)
        x = scenes[0].img_bev.tensor
        x.requires_grad = True
        assert finite_diff_check(lambda t: global_loss(scenes, cfg, params), x) < 1e-5


class TestTotalLoss:
    def test_lambda_zero_equals_local_bit_exact(self):
        scenes = gen_feature_batch(0, 2, 3, 4, 8, noise_sigma=0.4).scenes
        params = ContrastiveParams.init(3, seed=0)
        cfg0 = ContrastiveConfig(batch_size=3, lambda_global=0.0)
        total = total_loss(scenes, cfg0, params, philox(8, 0)).item()
        rng = philox(8, 0)
        per_scene = [local_loss(s.rad_bev, s.img_bev, cfg0, params, rng).item()
                     for s in scenes]
        mean_local = (per_scene[0] + per_scene[1]) * (1.0 / 2.0)
        assert total == mean_local

    def test_one_scene_at_lambda_zero_equals_its_local_term(self):
        # the lambda-0 shortcut is the only path for one scene: the global
        # loss refuses a batch of one
        scene = gen_feature_batch(4, 2, 3, 4, 8, noise_sigma=0.4).scenes[0]
        params = ContrastiveParams.init(3, seed=0)
        cfg0 = ContrastiveConfig(batch_size=3, lambda_global=0.0)
        total = total_loss([scene], cfg0, params, philox(6, 0)).item()
        local = local_loss(scene.rad_bev, scene.img_bev, cfg0, params, philox(6, 0)).item()
        assert total == local
        with pytest.raises(ValueError, match="global loss needs a batch of >= 2 scenes"):
            total_loss([scene], ContrastiveConfig(batch_size=3), params, philox(6, 0))

    def test_default_lambda_is_one_sixth(self):
        assert ContrastiveConfig().lambda_global == pytest.approx(1.0 / 6.0, abs=0)

    def test_composition_arithmetic(self):
        scenes = gen_feature_batch(1, 2, 3, 4, 8, noise_sigma=0.4).scenes
        params = ContrastiveParams.init(3, seed=1)
        cfg = ContrastiveConfig(batch_size=3)
        total = total_loss(scenes, cfg, params, philox(9, 0)).item()
        local = total_loss(scenes, ContrastiveConfig(batch_size=3, lambda_global=0.0),
                           params, philox(9, 0)).item()
        glob = global_loss(scenes, cfg, params).item()
        assert abs(total - (local + glob / 6.0)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        scenes = gen_feature_batch(2, 2, 4, 4, 8, noise_sigma=0.6).scenes
        params = ContrastiveParams.init(4, seed=0)
        cfg = ContrastiveConfig(tau=1.0, batch_size=3)
        x = scenes[0].rad_bev.tensor
        x.requires_grad = True
        err = finite_diff_check(lambda t: total_loss(scenes, cfg, params, philox(2, 2)), x)
        assert err < 1e-5


def test_total_loss_tape_node_count():
    # each weighted pooling is one weighted_sum node, the global path pools
    # all its pairings in one weighted_sum_at node and scores them in one
    # info_nce call, the matcher's window attention is one node, and BCSA is
    # 11 nodes: each transpose, the gate, 1 - gate and the affine stack once,
    # then two attention nodes and one gated blend per direction; the same
    # loss at the benchmark's C64 x H32 x W64 size holds 199
    scenes = gen_feature_batch(3, 3, 4, 4, 16, noise_sigma=1.0).scenes
    for scene in scenes:
        for name in MAP_NAMES:
            getattr(scene, name).tensor.requires_grad = True
    loss = total_loss(scenes, ContrastiveConfig(), ContrastiveParams.init(4, seed=0),
                      philox(4, 0))
    assert len(T._topo_order(loss)) == 161


class TestToyPretrain:
    def test_zero_learning_rate_gives_flat_trace(self):
        batch = gen_feature_batch(1, 2, 3, 3, 8, noise_sigma=1.0)
        cfg = ContrastiveConfig(batch_size=3)
        trace, _ = toy_pretrain(batch.scenes, cfg, steps=5, learning_rate=0.0, seed=0)
        assert len(set(trace.losses)) == 1

    def test_loss_decreases_on_planted_batch(self):
        batch = gen_feature_batch(7, 2, 4, 4, 8, noise_sigma=2.0)
        cfg = ContrastiveConfig(batch_size=3)
        trace, _ = toy_pretrain(batch.scenes, cfg, steps=25, learning_rate=0.05, seed=7)
        assert trace.losses[-1] < trace.losses[0]

    def test_deterministic_trace(self):
        cfg = ContrastiveConfig(batch_size=3)
        t1, _ = toy_pretrain(gen_feature_batch(3, 2, 3, 3, 8, noise_sigma=1.5).scenes,
                             cfg, steps=6, learning_rate=0.03, seed=3)
        t2, _ = toy_pretrain(gen_feature_batch(3, 2, 3, 3, 8, noise_sigma=1.5).scenes,
                             cfg, steps=6, learning_rate=0.03, seed=3)
        assert t1.losses == t2.losses
        assert t1.final_pos_sim == t2.final_pos_sim

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_step_index(self):
        # cosine-bounded losses need an overflow-scale step to go non-finite
        batch = gen_feature_batch(5, 2, 3, 3, 8, noise_sigma=1.0)
        cfg = ContrastiveConfig(batch_size=3)
        with pytest.raises(DivergenceError) as err:
            toy_pretrain(batch.scenes, cfg, steps=40, learning_rate=1e200, seed=5)
        assert err.value.step >= 1

    @pytest.mark.parametrize("learning_rate", [float("nan"), float("inf"), -1.0, -1e-300])
    def test_bad_learning_rate_rejected_before_the_first_step(self, monkeypatch,
                                                              learning_rate):
        batch = gen_feature_batch(5, 2, 3, 3, 8, noise_sigma=1.0)
        steps = []
        monkeypatch.setattr("pseudoradar.contrastive.total_loss",
                            lambda *args: steps.append(args))
        with pytest.raises(ValueError, match="learning_rate"):
            toy_pretrain(batch.scenes, ContrastiveConfig(batch_size=3), steps=3,
                         learning_rate=learning_rate, seed=5)
        assert steps == []

    @pytest.mark.parametrize("n_scenes", [0, 1])
    @pytest.mark.parametrize("lambda_global", [0.0, 1.0 / 6.0])
    def test_fewer_than_two_scenes_rejected_by_count_before_the_first_step(
            self, monkeypatch, n_scenes, lambda_global):
        # one scene gave a NaN cross-scene similarity at lambda 0 and failed
        # inside step 0 at the default lambda
        scenes = gen_feature_batch(5, 2, 3, 3, 8, noise_sigma=1.0).scenes[:n_scenes]
        steps = []
        monkeypatch.setattr("pseudoradar.contrastive.total_loss",
                            lambda *args: steps.append(args))
        cfg = ContrastiveConfig(batch_size=3, lambda_global=lambda_global)
        with pytest.raises(ValueError, match=f"^toy_pretrain needs a batch of >= 2 scenes, "
                                             f"got {n_scenes}$"):
            toy_pretrain(scenes, cfg, steps=3, learning_rate=0.05, seed=5)
        assert steps == []

    def test_caller_arrays_untouched_and_maps_trained_in_one_buffer(self):
        batch = gen_feature_batch(4, 2, 3, 3, 8, noise_sigma=1.0)
        maps = [getattr(scene, name).tensor for name in MAP_NAMES for scene in batch.scenes]
        given = [t.data for t in maps]
        kept = [a.copy() for a in given]
        toy_pretrain(batch.scenes, ContrastiveConfig(batch_size=3), steps=3,
                     learning_rate=0.05, seed=4)
        assert all(np.array_equal(a, b) for a, b in zip(given, kept))
        assert all(not np.array_equal(t.data, a) for t, a in zip(maps, kept))
        buffer = maps[0].data.base
        assert buffer.shape == (len(maps), 3, 3, 8)
        assert all(t.data.base is buffer and np.shares_memory(t.data, buffer[i])
                   for i, t in enumerate(maps))

    def test_one_tape_alive_at_a_time(self, monkeypatch):
        # a step's loss, and so its graph, is gone before the next forward
        # or the final similarity pass starts
        real_total, real_stats = C.total_loss, C.similarity_stats
        losses, dead_at_start = [], []

        def total(*args):
            dead_at_start.append([ref() is None for ref in losses])
            out = real_total(*args)
            losses.append(weakref.ref(out.data))
            return out

        def stats(*args):
            dead_at_start.append([ref() is None for ref in losses])
            return real_stats(*args)

        monkeypatch.setattr(C, "total_loss", total)
        monkeypatch.setattr(C, "similarity_stats", stats)
        toy_pretrain(gen_feature_batch(6, 2, 3, 3, 8, noise_sigma=1.0).scenes,
                     ContrastiveConfig(batch_size=3), steps=3, learning_rate=0.05, seed=6)
        assert dead_at_start == [[], [True], [True, True], [True, True, True]]

    def test_c64_step_peak_below_70_mb(self, monkeypatch):
        # the benchmark's C64 x H32 x W64 batch of 4 scenes and 16 columns:
        # each step (forward, backward and update) allocates under 70 MB
        # beyond what was held when it started, and the whole call holds at
        # most that plus one copy of the maps; the first step peaks at 66.5 MB
        batch = gen_feature_batch(83 * 4, 4, 64, 32, 64, noise_sigma=2.0)
        maps_bytes = sum(getattr(s, name).tensor.data.nbytes
                         for s in batch.scenes for name in MAP_NAMES)
        marks = []  # (allocated, peak since the last mark) at each step's start

        def spy(real):
            def call(*args):
                marks.append(tracemalloc.get_traced_memory())
                tracemalloc.reset_peak()
                return real(*args)
            return call

        monkeypatch.setattr(C, "total_loss", spy(C.total_loss))
        monkeypatch.setattr(C, "similarity_stats", spy(C.similarity_stats))
        tracemalloc.start()
        try:
            toy_pretrain(batch.scenes, ContrastiveConfig(batch_size=16), steps=2,
                         learning_rate=0.05, seed=83)
            marks.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        mb = 1e6
        step_peaks = [(peak - start) / mb for (start, _), (_, peak) in zip(marks, marks[1:-1])]
        assert len(step_peaks) == 2 and max(step_peaks) < 70.0, step_peaks
        assert max(peak for _, peak in marks) < 70.0 * mb + maps_bytes

    def test_trace_json_schema(self):
        batch = gen_feature_batch(2, 2, 3, 3, 8, noise_sigma=1.0)
        trace, _ = toy_pretrain(batch.scenes, ContrastiveConfig(batch_size=3),
                                steps=3, learning_rate=0.01, seed=2)
        doc = trace.to_dict()
        assert set(doc) == {"steps", "final_pos_sim", "final_neg_sim", "seed"}
        assert doc["steps"][0] == {"step": 0, "loss": trace.losses[0]}


class TestFeatureMapValidation:
    def test_bad_modality_rejected(self):
        with pytest.raises(ValueError):
            FeatureMap(Tensor(np.zeros((1, 1, 1))), "sonar", "bev")

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            FeatureMap(Tensor(np.zeros((2, 2))), "radar", "bev")

    def test_scene_shape_consistency_enforced(self):
        a = FeatureMap(Tensor(np.zeros((2, 3, 4))), "image", "bev")
        b = FeatureMap(Tensor(np.zeros((2, 3, 5))), "image", "fv")
        c = FeatureMap(Tensor(np.zeros((2, 3, 4))), "radar", "bev")
        d = FeatureMap(Tensor(np.zeros((2, 3, 4))), "radar", "fv")
        with pytest.raises(ValueError):
            SceneMaps(img_bev=a, img_fv=b, rad_bev=c, rad_fv=d)


def feature_map(modality="radar", view="bev", shape=(2, 3, 4), value=0.0):
    return FeatureMap(Tensor(np.full(shape, value)), modality, view)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: feature_map(view="top"), "^view must be one of .*, got 'top'$",
                 id="feature-map-view"),
    pytest.param(lambda: feature_map(value=np.nan), "^feature map contains non-finite values$",
                 id="feature-map-non-finite"),
    pytest.param(lambda: SceneMaps(img_bev=feature_map("radar", "bev"),
                                   img_fv=feature_map("image", "fv"),
                                   rad_bev=feature_map("radar", "bev"),
                                   rad_fv=feature_map("radar", "fv")),
                 "^img_bev is tagged radar/bev, expected image/bev$", id="scene-tags"),
    pytest.param(lambda: ContrastiveConfig(tau=0.0), "^tau must be > 0, got 0.0$", id="tau"),
    pytest.param(lambda: ContrastiveConfig(search_width=3, window_width=3),
                 "^need 1 <= window_width < search_width, got r=3, R=3$", id="window-width"),
    pytest.param(lambda: ContrastiveConfig(batch_size=1), "^batch_size must be >= 2, got 1$",
                 id="batch-size"),
    pytest.param(lambda: ContrastiveConfig(lambda_global=-0.5),
                 "^lambda_global must be >= 0, got -0.5$", id="lambda-global"),
    pytest.param(lambda: sliding_window_match(Tensor(np.zeros((2, 2))),
                                              Tensor(np.zeros((2, 3, 4))), 0, 5, 3),
                 r"^anchor shape \(2, 2\) does not match map \(2, 3, 4\)$",
                 id="match-anchor-shape"),
    pytest.param(lambda: bcsa(Tensor(np.ones((1, 3, 4))), Tensor(np.ones((1, 3, 4))),
                              BcsaParams.init(2)),
                 "^params sized for 2 channels, input has 3$", id="bcsa-channels"),
    pytest.param(lambda: local_loss(feature_map(), feature_map("image", shape=(2, 3, 5)),
                                    ContrastiveConfig(), ContrastiveParams.init(2),
                                    philox(0, 0)),
                 r"^shape mismatch: radar \(2, 3, 4\) vs image \(2, 3, 5\)$",
                 id="local-shapes"),
    pytest.param(lambda: aggregate_global(Tensor(np.zeros((2, 1, 2, 3, 4))), [(0, 2)],
                                          GlobalAggParams.init(2)),
                 r"^pairs must be a non-empty list of \(a, b\) indices into 2 maps, "
                 r"got \[\[0, 2\]\]$", id="global-pairs"),
    pytest.param(lambda: aggregate_global(Tensor(np.zeros((2, 1, 2, 3, 4))), [(0, 1)],
                                          GlobalAggParams.init(3)),
                 "^params sized for 3 channels, maps have 2$", id="global-channels"),
    pytest.param(lambda: toy_pretrain(gen_feature_batch(0, 2, 2, 3, 4).scenes,
                                      ContrastiveConfig(), steps=0, learning_rate=0.05),
                 "^steps must be >= 1, got 0$", id="pretrain-steps"),
])
def test_bad_input_is_refused_naming_the_cause(call, match):
    with pytest.raises(ValueError, match=match):
        call()
