"""The batched loss stack against the scalar reference in scalar_losses.py."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_losses as ref
from pseudoradar import contrastive as C
from pseudoradar import tensor as T
from pseudoradar.synth import gen_feature_batch
from pseudoradar.tensor import Tensor

LOSS_RTOL = 1e-12
GRAD_TOL = 1e-10


def philox(*key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def tape_nodes(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def value_and_grads(build, leaves):
    T.zero_grad(*leaves)
    loss = build()
    T.backward(loss)
    return loss.item(), [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                         for t in leaves]


def assert_same(build_new, build_ref, leaves):
    new, new_grads = value_and_grads(build_new, leaves)
    old, old_grads = value_and_grads(build_ref, leaves)
    assert abs(new - old) <= LOSS_RTOL * abs(old)
    for g_new, g_old in zip(new_grads, old_grads):
        assert np.abs(g_new - g_old).max() <= GRAD_TOL * max(np.abs(g_old).max(), 1e-300)


# (scenes, C, H, W, columns, search width, batch seed): the criterion-10 batch,
# the criterion-11 and gradcheck sizes, and every column of a narrow map
# under a search wide enough to hold windows with no column inside the map
BATCHES = [(3, 6, 6, 12, 4, 5, 42), (2, 4, 4, 9, 3, 5, 70), (2, 4, 6, 8, 3, 5, 0),
           (3, 3, 5, 7, 7, 7, 5)]


@pytest.fixture(params=BATCHES, ids=lambda b: "B{}C{}H{}W{}N{}R{}".format(*b[:6]))
def batch(request):
    b, c, h, w, n, search_width, seed = request.param
    scenes = gen_feature_batch(seed, b, c, h, w, noise_sigma=2.0).scenes
    params = C.ContrastiveParams.init(c, seed=seed)
    leaves = params.tensors()
    for scene in scenes:
        for name in C.MAP_NAMES:
            getattr(scene, name).tensor.requires_grad = True
            leaves.append(getattr(scene, name).tensor)
    cfg = C.ContrastiveConfig(batch_size=n, search_width=search_width)
    return scenes, cfg, params, leaves


class TestAgainstScalarReference:
    def test_total_loss(self, batch):
        scenes, cfg, params, leaves = batch
        assert_same(lambda: C.total_loss(scenes, cfg, params, philox(7, 7)),
                    lambda: ref.total_loss(scenes, cfg, params, philox(7, 7)), leaves)

    def test_local_loss(self, batch):
        scenes, cfg, params, leaves = batch
        s = scenes[0]
        assert_same(lambda: C.local_loss(s.rad_bev, s.img_bev, cfg, params, philox(1, 2)),
                    lambda: ref.local_loss(s.rad_bev, s.img_bev, cfg, params, philox(1, 2)),
                    leaves)

    def test_global_loss_and_terms(self, batch):
        scenes, cfg, params, leaves = batch
        assert_same(lambda: C.global_loss(scenes, cfg, params),
                    lambda: ref.global_loss(scenes, cfg, params), leaves)
        for new, old in zip(C.global_loss_terms(scenes, cfg, params).data,
                            ref.global_loss_terms(scenes, cfg, params)):
            assert abs(new - old.item()) <= LOSS_RTOL * abs(old.item())

    def test_aggregate_global(self, batch):
        scenes, cfg, params, leaves = batch
        s = scenes[-1]
        proj = Tensor(np.linspace(-1.0, 1.0, s.shape[0]))

        def readout(agg):
            def build():
                g_a, g_b = agg(s.img_fv.tensor, s.rad_bev.tensor, params.global_agg)
                return T.add(T.tsum(T.mul(g_a, proj)), T.tsum(T.mul(g_b, proj)))
            return build

        def batched(f_a, f_b, agg):  # one scene's two maps as a 2 x 1 stack
            pair = T.reshape(T.stack([f_a, f_b]), (2, 1, *f_a.shape))
            return C.aggregate_global(pair, ((0, 1),), agg)

        assert_same(readout(batched), readout(ref.aggregate_global), leaves)

    def test_info_nce_on_vector_lists(self):
        rng = np.random.default_rng(0)
        for n, d, tau in ((1, 3, 0.07), (3, 6, 1.0), (5, 7, 0.07), (8, 2, 0.5)):
            anchors = [Tensor(rng.normal(size=d), requires_grad=True) for _ in range(n)]
            cands = [Tensor(rng.normal(size=d), requires_grad=True) for _ in range(n)]
            assert_same(lambda: C.info_nce(T.stack(anchors), T.stack(cands), tau),
                        lambda: ref.info_nce(anchors, cands, tau), anchors + cands)


@st.composite
def aggregate_cases(draw):
    k, s = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    c, h, w = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    index = st.integers(0, k - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=7))
    if draw(st.booleans()):  # a pair and its reverse
        pairs.append(pairs[0][::-1])
    return k, s, (c, h, w), pairs, draw(st.integers(0, 2**32 - 1))


@given(aggregate_cases())
@settings(max_examples=60, deadline=None)
def test_batched_aggregate_matches_scalar_reference_per_pair(case):
    k, s, shape, pairs, seed = case
    rng = np.random.default_rng(seed)
    maps = [[Tensor(rng.normal(0.0, 2.0, size=shape), requires_grad=True) for _ in range(s)]
            for _ in range(k)]
    params = C.GlobalAggParams(Tensor(rng.normal(0.0, 0.5, size=2 * shape[0]), requires_grad=True),
                               Tensor(rng.normal(0.0, 0.5, size=2 * shape[0]), requires_grad=True))
    proj = rng.normal(size=(2, len(pairs), s, shape[0]))
    leaves = [m for row in maps for m in row] + params.tensors()

    def batched():
        stack = T.reshape(T.stack(leaves[:k * s]), (k, s, *shape))
        g_a, g_b = C.aggregate_global(stack, pairs, params)
        return T.stack([T.reshape(g_a, proj.shape[1:]), T.reshape(g_b, proj.shape[1:])])

    def per_pair():
        vectors = [ref.aggregate_global(maps[a][j], maps[b][j], params)
                   for a, b in pairs for j in range(s)]
        return T.reshape(T.stack([T.stack([v[0] for v in vectors]),
                                  T.stack([v[1] for v in vectors])]), proj.shape)

    new, old = batched().data, per_pair().data
    assert np.abs(new - old).max() <= LOSS_RTOL * np.abs(old).max()
    assert_same(lambda: T.tsum(T.mul(batched(), Tensor(proj))),
                lambda: T.tsum(T.mul(per_pair(), Tensor(proj))), leaves)


def test_similarity_stats_equal_a_loop_over_pairs():
    scenes = gen_feature_batch(12, 3, 5, 4, 7, noise_sigma=1.0).scenes
    params = C.ContrastiveParams.init(5, seed=12)
    pos, neg = [], []
    for name_a, name_b in C.GLOBAL_PAIRS:
        maps = Tensor(np.stack([[getattr(sc, name).tensor.data for sc in scenes]
                                for name in (name_a, name_b)]))
        g_a, g_b = C.aggregate_global(maps, ((0, 1),), params.global_agg)
        sims = T.cosine_sim(T.reshape(g_a, (len(scenes), 1, -1)),
                            T.reshape(g_b, (1, len(scenes), -1))).data
        same = np.eye(len(scenes), dtype=bool)
        pos.extend(sims[same])
        neg.extend(sims[~same])
    got = C.similarity_stats(scenes, params)
    assert abs(got[0] - np.mean(pos)) <= 1e-12 * abs(np.mean(pos))
    assert abs(got[1] - np.mean(neg)) <= 1e-12 * abs(np.mean(neg))


def test_matcher_on_every_column_of_the_recovery_batch():
    batch = gen_feature_batch(seed=909, batch=4, channels=6, height=6, width=24,
                              noise_sigma=0.05)
    for scene in batch.scenes:
        for j in range(scene.shape[2]):
            anchor = Tensor(scene.rad_bev.tensor.data[:, :, j])
            new_delta, new_agg = C.sliding_window_match(anchor, scene.img_bev.tensor, j, 5, 3)
            old_delta, old_agg = ref.sliding_window_match(anchor, scene.img_bev.tensor, j, 5, 3)
            assert new_delta == old_delta, f"column {j}"
            assert np.allclose(new_agg.data, old_agg.data, rtol=1e-12, atol=0.0)


@st.composite
def match_cases(draw):
    c, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    w = draw(st.integers(1, 9))
    search_width = draw(st.integers(2, 7))
    window_width = draw(st.integers(1, search_width - 1))
    kind = draw(st.sampled_from(["random", "constant", "duplicated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        m = rng.normal(size=(c, h, w))
    elif kind == "constant":
        m = np.full((c, h, w), rng.normal())
    else:  # columns drawn with repetition from a few distinct ones
        m = rng.normal(size=(c, h, 2))[:, :, rng.integers(0, 2, size=w)]
    j = draw(st.sampled_from(sorted({0, w - 1, draw(st.integers(0, w - 1))})))
    anchor = m[:, :, j] if draw(st.booleans()) else rng.normal(size=(c, h))
    return anchor, m, j, search_width, window_width


@given(match_cases())
@settings(max_examples=200, deadline=None)
def test_matcher_matches_scalar_reference(case):
    anchor, m, j, search_width, window_width = case
    new_delta, new_agg = C.sliding_window_match(Tensor(anchor), Tensor(m), j,
                                                search_width, window_width)
    old_delta, old_agg = ref.sliding_window_match(Tensor(anchor), Tensor(m), j,
                                                  search_width, window_width)
    assert new_delta == old_delta
    assert np.allclose(new_agg.data, old_agg.data, rtol=1e-12, atol=1e-300)


@st.composite
def constant_cases(draw):
    c, h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 9))
    search_width = draw(st.integers(2, 7))
    window_width = draw(st.integers(1, search_width - 1))
    value = draw(st.floats(-1e3, 1e3, allow_nan=False))
    j = draw(st.integers(0, w - 1))
    anchor_seed = draw(st.none() | st.integers(0, 2**32 - 1))
    return value, (c, h, w), j, search_width, window_width, anchor_seed


@given(constant_cases())
@example((0.22669885643799229, (3, 1, 4), 0, 6, 5, None))
@settings(max_examples=200, deadline=None)
def test_constant_map_gives_offset_zero(case):
    # every window of a constant map aggregates to the same column, so all
    # scores tie and the smallest |offset| wins, whatever the anchor; a
    # clipped border window sums fewer columns and rounds differently
    value, shape, j, search_width, window_width, anchor_seed = case
    m = np.full(shape, value)
    anchor = (m[:, :, j] if anchor_seed is None
              else np.random.default_rng(anchor_seed).normal(size=shape[:2]))
    for match in (C.sliding_window_match, ref.sliding_window_match):
        delta, _ = match(Tensor(anchor), Tensor(m), j, search_width, window_width)
        assert delta == 0


@st.composite
def batched_match_cases(draw):
    c = draw(st.integers(1, 8))
    h = draw(st.integers(1, 64 // c))
    w = draw(st.integers(1, 9))
    search_width = draw(st.integers(2, 7))
    window_width = draw(st.integers(1, search_width - 1))
    kind = draw(st.sampled_from(["random", "constant", "duplicated", "negated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        m = rng.normal(size=(c, h, w))
    elif kind == "constant":
        m = np.full((c, h, w), rng.normal())
    elif kind == "duplicated":  # columns drawn with repetition from a few distinct ones
        m = rng.normal(size=(c, h, 2))[:, :, rng.integers(0, 2, size=w)]
    else:  # one column and its negation, in any order
        m = rng.normal(size=(c, h, 1)) * rng.choice([-1.0, 1.0], size=w)
    own = m.reshape(c * h, w).T
    anchors = draw(st.sampled_from([own, -own, rng.normal(size=(w, c * h))]))
    return anchors, m, search_width, window_width


@given(batched_match_cases())
@settings(max_examples=200, deadline=None)
def test_batched_matcher_matches_scalar_reference_per_column(case):
    # every column of the map at once against one reference call per column
    anchors, m, search_width, window_width = case
    c, h, w = m.shape
    deltas, aggs = C._match_windows(Tensor(anchors), Tensor(m), np.arange(w),
                                    search_width, window_width)
    for j in range(w):
        delta, agg = ref.sliding_window_match(Tensor(anchors[j].reshape(c, h)), Tensor(m), j,
                                              search_width, window_width)
        assert deltas[j] == delta, f"column {j}"
        assert np.allclose(aggs.data[j], agg.data.reshape(-1), rtol=1e-12, atol=1e-300)


@st.composite
def window_cases(draw):
    b, r, d = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e3])), size=(b, r, d))
    kind = draw(st.sampled_from(["random", "zero", "duplicated", "negated"]))
    if kind == "zero":
        cols[rng.random((b, r)) < 0.4] = 0.0
    elif kind == "duplicated":
        cols = cols[:, rng.integers(0, r, size=r)]
    elif kind == "negated":
        cols = cols[:, :1] * rng.choice([-1.0, 1.0], size=(b, r, 1))
    inside = rng.random((b, r)) < 0.7
    label = rng.integers(0, r, size=b)
    inside[np.arange(b), label] = True  # a window's label column is in the map
    return cols, inside, label


@given(window_cases())
@settings(max_examples=200, deadline=None)
def test_fused_window_attention_equals_the_op_chain(case):
    cols, inside, label = case
    x = Tensor(cols, requires_grad=True)
    fused = C._window_aggregates(x, inside, label)
    chain = ref.window_aggregates(x, inside, label)
    assert np.array_equal(fused.data, chain.data)
    proj = Tensor(np.random.default_rng(0).normal(size=fused.shape))
    want = value_and_grads(lambda: T.tsum(T.mul(chain, proj)), [x])[1][0]
    got = value_and_grads(lambda: T.tsum(T.mul(fused, proj)), [x])[1][0]
    assert np.abs(got - want).max() <= GRAD_TOL * max(np.abs(want).max(), 1e-300)


# (columns (B x r x D), inside, label): a window inside the map, a clipped
# border window whose masked slot repeats the border column, a window that
# repeats a column, and a window holding a zero column; then r = 1, where a
# zero column is its own window
_rng = np.random.default_rng(21)
_COLS3 = _rng.normal(size=(4, 3, 5))
_COLS3[1, 0] = _COLS3[1, 1]
_COLS3[2, 2] = _COLS3[2, 0]
_COLS3[3, 2] = 0.0
_COLS1 = _rng.normal(size=(3, 1, 4))
_COLS1[1] = 0.0
WINDOWS = [
    (_COLS3, np.array([[True] * 3, [False, True, True], [True] * 3, [True] * 3]),
     np.array([1, 1, 1, 0])),
    (_COLS1, np.ones((3, 1), bool), np.zeros(3, int)),
]


@pytest.mark.parametrize("case", range(len(WINDOWS)), ids=["r3", "r1"])
def test_fused_window_attention_gradient_matches_finite_differences(case):
    cols, inside, label = WINDOWS[case]
    # the cosine to a zero column is not differentiable there, so its
    # entries stay fixed (and are checked against the chain's subgradient)
    fixed = np.zeros(cols.shape)
    if cols.shape[1] > 1:
        fixed[3, 2] = 1.0
    proj = Tensor(np.random.default_rng(22).normal(size=(cols.shape[0], cols.shape[2])))

    def f(t):
        free = T.mul(t, Tensor(1.0 - fixed))
        return T.tsum(T.mul(C._window_aggregates(free, inside, label), proj))

    assert T.finite_diff_check(f, Tensor(cols.copy(), requires_grad=True)) < 1e-6
    x = Tensor(cols, requires_grad=True)
    got = value_and_grads(lambda: T.tsum(T.mul(C._window_aggregates(x, inside, label), proj)),
                          [x])[1][0]
    want = value_and_grads(lambda: T.tsum(T.mul(ref.window_aggregates(x, inside, label), proj)),
                           [x])[1][0]
    assert np.isfinite(got).all()
    assert np.abs(got - want).max() <= GRAD_TOL * np.abs(want).max()


@st.composite
def bcsa_cases(draw):
    n, c, d = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # 1e3 gives scores of about 1e6 / sqrt(C), which overflow exp unshifted
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    f1, f2 = rng.normal(0.0, scale, size=(2, n, c, d))
    kind = draw(st.sampled_from(["random", "zero", "constant-channels"]))
    if kind == "zero":
        f1[:], f2[rng.random(n) < 0.5] = 0.0, 0.0
    elif kind == "constant-channels":
        # every attention output is constant over C, so each layer norm
        # divides by sqrt(LAYER_NORM_EPS)
        f1[:], f2[:] = f1[:, :1], f2[:, :1]
    params = C.BcsaParams.init(c)
    for t in params.tensors():
        t.data[:] = rng.normal(0.0, 2.0, size=c)
    # logits of both signs reach both branches of sigmoid
    params.gate_logits.data[:] = rng.choice([-1.0, 1.0], size=c) * rng.uniform(0.0, 30.0, c)
    return f1, f2, params


@given(bcsa_cases())
@settings(max_examples=200, deadline=None)
def test_fused_bcsa_equals_the_op_chain(case):
    f1, f2, params = case
    x1, x2 = Tensor(f1, requires_grad=True), Tensor(f2, requires_grad=True)
    fused, chain = C.bcsa(x1, x2, params), ref.bcsa_chain(x1, x2, params)
    assert all(np.array_equal(a.data, b.data) for a, b in zip(fused, chain))
    rng = np.random.default_rng(0)
    proj = [Tensor(rng.normal(size=f1.shape)) for _ in range(2)]

    def readout(pair):
        return T.add(T.tsum(T.mul(pair[0], proj[0])), T.tsum(T.mul(pair[1], proj[1])))

    leaves = [x1, x2, *params.tensors()]
    want = value_and_grads(lambda: readout(ref.bcsa_chain(x1, x2, params)), leaves)[1]
    got = value_and_grads(lambda: readout(C.bcsa(x1, x2, params)), leaves)[1]
    for g_got, g_want in zip(got, want):
        assert np.abs(g_got - g_want).max() <= GRAD_TOL * max(np.abs(g_want).max(), 1e-300)


def test_total_loss_gradients_are_bit_equal_to_the_bcsa_chain(batch, monkeypatch):
    # the fused nodes repeat the chain's numpy steps and hand every shared
    # node its gradients in the chain's order, so training keeps its bits
    scenes, cfg, params, leaves = batch
    fused = value_and_grads(lambda: C.total_loss(scenes, cfg, params, philox(8, 0)), leaves)
    monkeypatch.setattr(C, "bcsa", ref.bcsa_chain)
    chain = value_and_grads(lambda: C.total_loss(scenes, cfg, params, philox(8, 0)), leaves)
    assert fused[0] == chain[0]
    assert all(np.array_equal(a, b) for a, b in zip(fused[1], chain[1]))


# (q, k_t, v): a batch of two, and one query over one key (D = 1)
_rng = np.random.default_rng(23)
ATTEND = [tuple(_rng.normal(size=shape) for shape in ((2, 3, 4), (2, 4, 5), (2, 5, 3))),
          tuple(_rng.normal(size=shape) for shape in ((1, 2, 1), (1, 1, 1), (1, 1, 4)))]


@pytest.mark.parametrize("case", range(len(ATTEND)), ids=["batch", "one-key"])
@pytest.mark.parametrize("wrt", range(3), ids=["q", "k_t", "v"])
def test_fused_attention_gradient_matches_finite_differences(case, wrt):
    arrays = ATTEND[case]
    inputs = [Tensor(a.copy(), requires_grad=i == wrt) for i, a in enumerate(arrays)]
    proj = Tensor(np.random.default_rng(24).normal(size=arrays[0].shape[:-1]
                                                   + arrays[2].shape[-1:]))

    def f(t):
        args = inputs[:wrt] + [t] + inputs[wrt + 1:]
        return T.tsum(T.mul(C._attend(*args), proj))

    assert T.finite_diff_check(f, inputs[wrt]) < 1e-6


# (N, C, D): three channels, and one channel, whose layer norm is 0
@pytest.mark.parametrize("shape", [(2, 3, 4), (2, 1, 3)], ids=["C3", "C1"])
@pytest.mark.parametrize("wrt", ["spatial", "channel", "gate", "rest", "affine"])
def test_fused_blend_gradient_matches_finite_differences(shape, wrt):
    n, c, d = shape
    rng = np.random.default_rng(25)
    inputs = {"spatial": rng.normal(size=(n, d, c)), "channel": rng.normal(size=(n, c, d)),
              "gate": rng.uniform(0.0, 1.0, c), "rest": rng.uniform(0.0, 1.0, c),
              "affine": rng.normal(size=(4, c))}
    inputs = {key: Tensor(a, requires_grad=key == wrt) for key, a in inputs.items()}
    proj = Tensor(rng.normal(size=shape))

    def f(t):
        return T.tsum(T.mul(C._gated_blend(**{**inputs, wrt: t}), proj))

    assert T.finite_diff_check(f, inputs[wrt]) < 1e-6


def test_tape_size_does_not_grow_with_sampled_columns():
    scenes = gen_feature_batch(3, 3, 4, 4, 16, noise_sigma=1.0).scenes
    params = C.ContrastiveParams.init(4, seed=0)
    for scene in scenes:
        for name in C.MAP_NAMES:
            getattr(scene, name).tensor.requires_grad = True
    counts = [tape_nodes(C.total_loss(scenes, C.ContrastiveConfig(batch_size=n), params,
                                      philox(4, 0)))
              for n in (4, 8)]
    assert counts[0] == counts[1]
    # BCSA transposes each input once, shares its gate and affine stack
    # between both directions and is three nodes a direction; the global
    # InfoNCE is one call for all pairings
    assert counts[0] <= 161
