import ast
import inspect
import math
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoradar import tensor as T
from pseudoradar.tensor import ShapeError, Tensor, backward, finite_diff_check, zero_grad
from scalar_losses import batched_cosine_sim, concat, div, layer_norm, softmax, sqrt


def rand(shape, seed=0, scale=2.0):
    return np.random.default_rng(seed).normal(0.0, scale, size=shape)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), a)
        assert np.array_equal(out.data, a.data)

    def test_hand_value(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_zero_annihilates(self):
        out = T.matmul(Tensor(np.zeros((3, 3))), Tensor(rand((3, 2))))
        assert np.array_equal(out.data, np.zeros((3, 2)))

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


class TestSoftmax:
    # softmax is the scalar reference's op, defined in scalar_losses.py
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance_no_overflow(self):
        out = softmax(Tensor([1000.0, 1000.0]), axis=0)
        assert np.isfinite(out.data).all()
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_hand_value(self):
        out = softmax(Tensor([0.0, math.log(3.0)]), axis=0)
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=16))
    def test_sums_to_one(self, values):
        out = softmax(Tensor(values), axis=0)
        assert abs(out.data.sum() - 1.0) < 1e-12
        assert (out.data > 0).all() and (out.data < 1.0 + 1e-15).all()

    def test_grads_sum_to_zero_across_axis(self):
        x = Tensor(rand(5, seed=3), requires_grad=True)
        backward(T.take(softmax(x, axis=0), 2, axis=0))
        assert abs(x.grad.sum()) < 1e-12


class TestLayerNorm:
    def test_constant_slice_is_zero(self):
        out = layer_norm(Tensor([4.0, 4.0, 4.0]), axis=0)
        assert np.allclose(out.data, 0.0)
        assert np.isfinite(out.data).all()

    def test_hand_value(self):
        # a variance of 1e6 leaves LAYER_NORM_EPS below the tolerance
        out = layer_norm(Tensor([1e3, 3e3]), axis=0)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-7)

    def test_zero_mean_unit_var(self):
        x = Tensor(rand((6, 9), seed=1))
        out = layer_norm(x, axis=1)
        assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(out.data.var(axis=1), 1.0, atol=1e-4)


# numpy references that spell each fused op out as its chain of primitive
# steps: (forward, chain-rule VJP of that chain)


def _softmax_chain(x, axis):
    shift = x.max(axis=axis, keepdims=True)
    e = np.exp(x - shift)
    s = e.sum(axis=axis, keepdims=True)

    def vjp(g):
        g_s = (-g * e / (s * s)).sum(axis=axis, keepdims=True)
        return (g / s + g_s) * e

    return e / s, vjp


def _logsumexp_chain(x, axis):
    shift = x.max(axis=axis, keepdims=True)
    e = np.exp(x - shift)
    total = e.sum(axis=axis)

    def vjp(g):
        return np.expand_dims(g / total, axis) * e

    return np.log(total) + np.squeeze(shift, axis=axis), vjp


def _layer_norm_chain(x, axis, eps=1e-5):
    inv_n = 1.0 / x.shape[axis]
    c = x - x.sum(axis=axis, keepdims=True) * inv_n
    v = (c * c).sum(axis=axis, keepdims=True) * inv_n + eps
    std = v**0.5

    def vjp(g):
        g_std = (-g * c / (std * std)).sum(axis=axis, keepdims=True)
        g_sq = g_std * 0.5 * v**-0.5 * inv_n
        g_c = g / std + 2.0 * g_sq * c
        return g_c - g_c.sum(axis=axis, keepdims=True) * inv_n

    return c / std, vjp


FUSED = {"softmax": _softmax_chain, "logsumexp": _logsumexp_chain,
         "layer_norm": _layer_norm_chain}
# the fused ops: the engine's logsumexp, and the scalar reference's softmax
# and layer norm
FUSED_OPS = {"softmax": softmax, "logsumexp": T.logsumexp, "layer_norm": layer_norm}
# the op-table input, and a BCSA-shaped N x C x H stack normalized over C
FUSED_INPUTS = [
    (np.random.default_rng(30).uniform(-5, 5, size=(4, 6)), 1),
    (np.random.default_rng(31).normal(0.0, 3.0, size=(4, 16, 8)), -2),
]


class TestFusedOps:
    @pytest.mark.parametrize("name", sorted(FUSED))
    @pytest.mark.parametrize("case", range(len(FUSED_INPUTS)))
    def test_forward_bit_equal_to_primitive_chain(self, name, case):
        x, axis = FUSED_INPUTS[case]
        want, _ = FUSED[name](x, axis)
        assert np.array_equal(FUSED_OPS[name](Tensor(x), axis=axis).data, want)

    @pytest.mark.parametrize("name", sorted(FUSED))
    @pytest.mark.parametrize("case", range(len(FUSED_INPUTS)))
    def test_gradient_matches_chain_rule(self, name, case):
        x, axis = FUSED_INPUTS[case]
        want_out, vjp = FUSED[name](x, axis)
        g = np.random.default_rng(32).normal(size=want_out.shape)
        t = Tensor(x, requires_grad=True)
        backward(T.tsum(T.mul(FUSED_OPS[name](t, axis=axis), Tensor(g))))
        want = vjp(g)
        assert np.abs(t.grad - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_one_tape_node(self, name):
        a = Tensor(FUSED_INPUTS[0][0], requires_grad=True)
        out = FUSED_OPS[name](a, axis=1)
        assert out._parents == (a,)
        assert T._topo_order(out) == [a, out]

    def test_masked_slots_get_zero_gradient(self):
        # the matcher masks window slots outside the map with -inf
        sims = Tensor(rand((3, 4), seed=33), requires_grad=True)
        inside = np.array([[True, True, False, True],
                           [False, True, True, False],
                           [True, True, True, True]])
        attn = softmax(T.add(sims, Tensor(np.where(inside, 0.0, -np.inf))), axis=-1)
        assert np.array_equal(attn.data[~inside], np.zeros((~inside).sum()))
        backward(T.tsum(T.mul(attn, Tensor(rand((3, 4), seed=34)))))
        assert np.array_equal(sims.grad[~inside], np.zeros((~inside).sum()))
        assert np.isfinite(sims.grad[inside]).all()
        assert (sims.grad[inside] != 0).all()


# (x shape, w shape, axis): the global path's row and column pooling and
# score projection, a diagonal read, one-element contracted, trailing and
# leading axes, weights whose leading axes are broader than the map's, and
# a vector contracted to a scalar
WEIGHTED_SUM_CASES = [
    ((3, 5, 4, 6), (3, 1, 4), -2),
    ((3, 5, 6), (3, 1, 6), -1),
    ((3, 8, 4), (8,), 1),
    ((4, 4), (4, 4), -1),
    ((3, 1, 5), (3, 1), 1),
    ((1, 4, 1), (1, 4), 1),
    ((2, 3, 4), (1, 3), 1),
    ((3, 4), (2, 1, 3), 0),
    ((6,), (6,), 0),
]


def _weighted_sum_chain(x, w, axis):
    """The mul + tsum composition that weighted_sum replaces."""
    trailing = x.data.ndim - 1 - axis % x.data.ndim
    w_full = T.reshape(w, (*w.shape, *(1,) * trailing))
    return T.tsum(T.mul(x, w_full), axis=axis % x.data.ndim - x.data.ndim)


class TestWeightedSum:
    @pytest.mark.parametrize("case", range(len(WEIGHTED_SUM_CASES)))
    def test_matches_mul_tsum_chain(self, case):
        x_shape, w_shape, axis = WEIGHTED_SUM_CASES[case]
        values, grads = [], []
        for op in (T.weighted_sum, _weighted_sum_chain):
            x = Tensor(rand(x_shape, seed=40), requires_grad=True)
            w = Tensor(rand(w_shape, seed=41), requires_grad=True)
            out = op(x, w, axis)
            proj = rand(out.shape, seed=42)
            backward(T.tsum(T.mul(out, Tensor(proj))))
            values.append(out.data)
            grads.append((x.grad, w.grad))
        assert values[0].shape == values[1].shape
        assert np.abs(values[0] - values[1]).max() <= 1e-12 * np.abs(values[1]).max()
        if math.prod(x_shape[axis % len(x_shape) + 1:]) > 1:
            # tsum adds these in order too, so trained numbers do not move
            assert np.array_equal(values[0], values[1])
        for new, old in zip(grads[0], grads[1]):
            assert new.shape == old.shape
            assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()

    def test_one_tape_node_and_no_gradient_for_constant_weights(self):
        x = Tensor(rand((2, 3, 4), seed=43), requires_grad=True)
        w = Tensor(rand((2, 3), seed=44))
        out = T.weighted_sum(x, w, axis=1)
        assert T._topo_order(out) == [x, out]
        backward(T.tsum(out))
        assert w.grad is None
        assert np.array_equal(x.grad, np.broadcast_to(w.data[:, :, None], (2, 3, 4)))

    def test_weights_that_do_not_fit_the_axis(self):
        with pytest.raises(ShapeError, match="do not fit axis 1"):
            T.weighted_sum(Tensor(np.ones((2, 3, 4))), Tensor(np.ones(4)), axis=1)
        with pytest.raises(ShapeError, match="rank >= 1"):
            T.weighted_sum(Tensor(np.ones(3)), Tensor(1.0), axis=0)


def _stack_cases():
    """Per case: the parents' data, their base, and whether stack may share
    the base."""
    cube, wide = rand((3, 2, 4), seed=82), rand((6, 2, 4), seed=83)
    fortran, line = np.asfortranarray(rand((4, 3), seed=84)), rand(3, seed=85)
    first, second = cube[0], cube[1]
    return {
        "in order": ([cube[i] for i in range(3)], cube, True),
        "reversed": ([cube[i] for i in (2, 1, 0)], cube, False),
        "a gap": ([wide[i] for i in (0, 1, 3)], wide, False),
        "a prefix": ([wide[i] for i in range(3)], wide, False),
        "a repeated parent": ([first, second, second], cube, False),
        "a non-contiguous base": ([fortran[:, j] for j in range(3)], fortran, False),
        "1-D base, scalars": ([line[i] for i in range(3)], line, False),
        "1-D base, 0-d views": ([line[i, ...] for i in range(3)], line, True),
    }


class TestStack:
    def test_values_and_shape_contract(self):
        a, b = Tensor(rand((2, 3), seed=75)), Tensor(rand((2, 3), seed=76))
        assert np.array_equal(T.stack([a, b]).data, np.stack([a.data, b.data]))
        with pytest.raises(ShapeError, match="equal shapes"):
            T.stack([a, Tensor(np.ones((3, 2)))])
        with pytest.raises(ShapeError, match="empty"):
            T.stack([])

    def test_parents_get_copies_not_views_of_the_stacked_gradient(self, monkeypatch):
        # a view held by y, which waits for a second gradient, would keep the
        # whole stacked gradient alive
        handed = []
        real = T._accum

        def spy(grads, t, g, owned=False):
            handed.append((t, g, owned))
            real(grads, t, g, owned)

        monkeypatch.setattr(T, "_accum", spy)
        x, y, z = (Tensor(rand(4, seed=s), requires_grad=True) for s in (77, 78, 79))
        c, d = rand((3, 4), seed=80), rand(4, seed=81)
        loss = T.add(T.tsum(T.mul(T.stack([x, y, z]), Tensor(c))),
                     T.tsum(T.mul(T.sigmoid(y), Tensor(d))))
        backward(loss)
        s = T.sigmoid(y).data
        assert np.array_equal(x.grad, c[0]) and np.array_equal(z.grad, c[2])
        assert np.allclose(y.grad, c[1] + d * s * (1.0 - s), rtol=1e-15, atol=0)
        parts = [(g, owned) for t, g, owned in handed if t is x or t is z]
        parts += [(g, owned) for t, g, owned in handed if t is y and owned]
        assert len(parts) == 3
        assert all(owned and g.base is None for g, owned in parts)

    @pytest.mark.parametrize("stack_first", [True, False])
    def test_an_owned_gradient_of_an_aliasing_stack_becomes_the_parents_gradients(
            self, stack_first):
        # y also gets a gradient of its own, before or after its slice; it is
        # added into the slice, so all three gradients stay slices of one buffer
        c, d = rand((3, 4), seed=87), rand(4, seed=88)

        def run(arrays):
            x, y, z = (Tensor(a, requires_grad=True) for a in arrays)
            # take hands on a buffer it allocated, so the stack owns its gradient
            stacked = T.tsum(T.mul(T.take(T.stack([x, y, z]), [0, 1, 2, 1], axis=0),
                                   Tensor(np.r_[c, c[1:2]])))
            local = T.tsum(T.mul(T.take(y, [3, 0, 0], axis=0), Tensor(d[:3])))
            backward(T.add(stacked, local) if stack_first else T.add(local, stacked))
            return [x.grad, y.grad, z.grad]

        base = rand((3, 4), seed=89)
        grads = run(list(base))
        assert all(np.array_equal(g, h) for g, h in zip(grads, run([a.copy() for a in base])))
        assert T._stacked_base(grads) is not None

    def test_a_closure_gets_its_gradient_writeable_only_when_its_node_owns_it(self):
        seen = []
        x = Tensor(rand(3, seed=90), requires_grad=True)

        def bw(g, grads):
            seen.append(g.flags.writeable)
            T._accum(grads, x, g)

        spy = T._make(x.data.copy(), (x,), bw)
        backward(T.tsum(spy))  # tsum hands out one broadcast row
        backward(T.tsum(T.take(spy, [0, 2], axis=0)))  # take allocates a buffer
        assert seen == [False, True]

    @pytest.mark.parametrize("case", list(_stack_cases()))
    def test_shares_only_in_order_slices_of_one_contiguous_base(self, case):
        arrays, base, shared = _stack_cases()[case]

        def run(leaf_data):
            # one leaf per distinct array object, so a repeated parent is one leaf
            leaves = {}
            ts = [leaves.setdefault(id(a), Tensor(d, requires_grad=True))
                  for a, d in zip(arrays, leaf_data)]
            out = T.stack(ts)
            weights = rand(out.shape, seed=86)
            backward(T.tsum(T.mul(T.sigmoid(out), Tensor(weights))))
            return out, [t.grad for t in ts]

        out, grads = run(arrays)
        copied, copied_grads = run([np.array(a) for a in arrays])
        assert np.shares_memory(out.data, base) == shared
        assert np.shares_memory(copied.data, base) is False
        assert np.array_equal(out.data, np.stack(arrays))
        assert np.array_equal(out.data, copied.data)
        assert all(np.array_equal(g, h) for g, h in zip(grads, copied_grads))


class TestTransposeLast2:
    def test_definition(self):
        out = T.transpose_last2(Tensor([[1.0, 2.0], [3.0, 4.0]]))
        assert out.data.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_involution(self):
        x = Tensor(rand((3, 4, 5), seed=2))
        assert np.array_equal(T.transpose_last2(T.transpose_last2(x)).data, x.data)

    def test_shape_contract(self):
        assert T.transpose_last2(Tensor(rand((2, 3, 4)))).shape == (2, 4, 3)

    def test_rank_error(self):
        with pytest.raises(ShapeError):
            T.transpose_last2(Tensor([1.0, 2.0]))


class TestCosineSim:
    # batched_cosine_sim is the scalar reference's op, defined in scalar_losses.py
    def test_self_similarity(self):
        v = Tensor([1.0, -2.0, 0.5])
        assert batched_cosine_sim(v, v).item() == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        assert batched_cosine_sim(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0

    def test_hand_value(self):
        got = batched_cosine_sim(Tensor([1.0, 1.0]), Tensor([1.0, 0.0])).item()
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    def test_zero_vector_is_zero(self):
        assert batched_cosine_sim(Tensor([0.0, 0.0]), Tensor([3.0, 4.0])).item() == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            batched_cosine_sim(Tensor([1.0]), Tensor([1.0, 2.0]))
        with pytest.raises(ShapeError):
            batched_cosine_sim(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))

    def test_batched_broadcast_equals_pairwise(self):
        a, b = rand((3, 5), seed=20), rand((4, 5), seed=21)
        out = batched_cosine_sim(Tensor(a[:, None, :]), Tensor(b[None, :, :])).data
        assert out.shape == (3, 4)
        for i in range(3):
            for k in range(4):
                assert out[i, k] == batched_cosine_sim(Tensor(a[i]), Tensor(b[k])).item()

    def test_zero_vector_gradient_is_finite(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor([1.0, 2.0, -1.0], requires_grad=True)
        backward(batched_cosine_sim(a, b))
        assert np.isfinite(a.grad).all() and np.isfinite(b.grad).all()
        assert np.array_equal(b.grad, np.zeros(3))


class TestNormalize:
    def test_rows_have_unit_norm(self):
        out = T.normalize(Tensor(rand((4, 6), seed=24))).data
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_hand_value(self):
        out = T.normalize(Tensor([[3.0, 4.0], [0.0, -2.0]])).data
        assert np.allclose(out, [[0.6, 0.8], [0.0, -1.0]], atol=1e-12)

    def test_zero_row_stays_zero_with_finite_gradient(self):
        x = Tensor(np.array([[0.0, 0.0], [1.0, 2.0]]), requires_grad=True)
        out = T.normalize(x)
        assert np.array_equal(out.data[0], [0.0, 0.0])
        backward(T.tsum(T.mul(out, Tensor([[1.0, -1.0], [2.0, 0.5]]))))
        assert np.isfinite(x.grad).all()

    def test_products_are_cosines(self):
        a, b = rand((3, 5), seed=25), rand((3, 5), seed=26)
        dots = (T.normalize(Tensor(a)).data * T.normalize(Tensor(b)).data).sum(axis=1)
        cos = batched_cosine_sim(Tensor(a), Tensor(b)).data
        assert np.allclose(dots, cos, rtol=1e-14, atol=0)


class TestConcatAndTake:
    # concat is the scalar reference's op, defined in scalar_losses.py
    def test_concat_axis1(self):
        out = concat([Tensor([[1.0], [2.0]]), Tensor([[3.0], [4.0]])], axis=1)
        assert out.data.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_concat_single_is_identity(self):
        x = Tensor(rand((2, 3)))
        assert np.array_equal(concat([x], axis=0).data, x.data)

    def test_concat_then_slice_recovers_bit_exact(self):
        a, b = Tensor(rand((3, 4), 5)), Tensor(rand((2, 4), 6))
        cat = concat([a, b], axis=0)
        assert np.array_equal(T.take(cat, np.arange(3), axis=0).data, a.data)
        assert np.array_equal(T.take(cat, np.arange(3, 5), axis=0).data, b.data)

    def test_concat_off_axis_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)

    def test_sum_of_zeros(self):
        assert T.tsum(Tensor(np.zeros(7))).item() == 0.0


def _take_grad_reference(shape, indices, axis, g):
    """The scatter that take's backward replaced: zero fill plus np.add.at."""
    full = np.zeros(shape)
    if np.ndim(indices) == 0:
        full[(slice(None),) * (axis % len(shape)) + (int(indices),)] = g
    else:
        np.add.at(np.moveaxis(full, axis, 0), indices, np.moveaxis(g, axis, 0))
    return full


@st.composite
def take_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    n = shape[axis]
    index = st.integers(-n, n - 1)
    if draw(st.booleans()):
        indices = draw(index)
    else:  # duplicates and negative indices are both likely
        indices = np.array(draw(st.lists(index, min_size=1, max_size=3 * n)))
    return shape, indices, axis, draw(st.integers(0, 2**32 - 1))


@given(take_cases())
@settings(max_examples=200, deadline=None)
def test_take_gradient_matches_scatter_add(case):
    shape, indices, axis, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    out = T.take(x, indices, axis=axis)
    g = rng.normal(size=out.shape)
    backward(T.tsum(T.mul(out, Tensor(g))))
    want = _take_grad_reference(shape, indices, axis, g)
    scale = _take_grad_reference(shape, indices, axis, np.abs(g))
    # exact where an index appears once; repeats may add in another order
    assert np.all(np.abs(x.grad - want) <= 4e-16 * scale)


class TestBackward:
    def test_square_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        backward(T.mul(x, x))
        assert x.grad.tolist() == 6.0

    def test_accumulates_across_calls(self):
        x = Tensor(3.0, requires_grad=True)
        backward(T.mul(x, x))
        backward(T.mul(x, x))
        assert x.grad.tolist() == 12.0
        zero_grad(x)
        assert x.grad is None

    def test_only_leaves_get_grad(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        w = Tensor([0.5, 0.25, -1.0], requires_grad=True)
        c = Tensor([2.0, 2.0, 2.0])
        prod = T.mul(x, w)
        shifted = T.add(prod, c)
        loss = T.tsum(T.mul(shifted, shifted))
        backward(loss)
        assert prod.grad is None and shifted.grad is None and loss.grad is None
        assert c.grad is None
        assert np.array_equal(x.grad, 2.0 * (x.data * w.data + 2.0) * w.data)
        assert np.array_equal(w.grad, 2.0 * (x.data * w.data + 2.0) * x.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(T.mul(x, x))

    def test_constant_loss_changes_no_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        x.grad = np.array([5.0, 6.0])
        c = Tensor([3.0, 4.0])
        loss = T.tsum(T.mul(c, c))
        backward(loss)
        assert x.grad.tolist() == [5.0, 6.0]
        assert c.grad is None and loss.grad is None

    def test_random_graph_vs_finite_differences(self):
        x = Tensor(rand((4, 4), seed=8), requires_grad=True)

        def f(t):
            u = T.matmul(t, T.transpose_last2(t))
            v = softmax(u, axis=1)
            return T.tsum(T.mul(v, Tensor(rand((4, 4), seed=9))))

        assert finite_diff_check(f, x) < 1e-6


class TestGradientAccumulation:
    """Gradients from several consumers are summed in place into a buffer
    the backward pass allocated itself, never into an array that an op
    handed over, which may be a view or shared by two parents."""

    def test_add_of_a_tensor_to_itself(self):
        x = Tensor(rand(5, seed=50), requires_grad=True)
        c = rand(5, seed=51)
        backward(T.tsum(T.mul(T.add(x, x), Tensor(c))))
        assert np.array_equal(x.grad, c + c)

    def test_shared_gradient_of_add_is_not_written_through(self):
        # add hands one g to x and y; x then collects two more terms
        x = Tensor(rand(4, seed=52), requires_grad=True)
        y = Tensor(rand(4, seed=53), requires_grad=True)
        c, d, e = (rand(4, seed=s) for s in (54, 55, 56))
        loss = T.add(T.add(T.tsum(T.mul(T.add(x, y), Tensor(c))),
                           T.tsum(T.mul(x, Tensor(d)))),
                     T.tsum(T.mul(x, Tensor(e))))
        backward(loss)
        assert np.array_equal(y.grad, c)
        assert np.array_equal(x.grad, (c + d) + e)
        assert not np.shares_memory(x.grad, y.grad)

    def test_one_node_feeding_three_consumers(self):
        x = Tensor(rand((3, 4), seed=57), requires_grad=True)
        y = T.reshape(x, (4, 3))  # its gradients arrive as views
        a, b = rand((4, 3), seed=58), rand((2, 4), seed=59)
        loss = T.add(T.add(T.tsum(T.mul(y, Tensor(a))),
                           T.tsum(T.matmul(T.transpose_last2(y), T.mul(y, y)))),
                     T.tsum(T.weighted_sum(y, Tensor(b), axis=-2)))
        backward(loss)
        # sum(y^T (y * y)) = sum_k (sum_i y_ki)(sum_j y_kj^2)
        yd = x.data.reshape(4, 3)
        row, row_sq = yd.sum(axis=1, keepdims=True), (yd * yd).sum(axis=1, keepdims=True)
        want = a + (row_sq + 2.0 * yd * row) + b.sum(axis=0)[:, None]
        assert np.allclose(x.grad, want.reshape(3, 4), rtol=1e-13, atol=1e-13)

    def test_no_leaf_gradient_shares_memory_with_another(self):
        # slices of one stacked gradient, and the one g that add hands over
        batch = rand((3, 4), seed=60)
        leaves = [Tensor(batch[i % 3], requires_grad=True) for i in range(5)]
        stack = concat([T.reshape(t, (1, 4)) for t in leaves[:3]], axis=0)
        doubled = T.add(stack, stack)
        w = Tensor(rand((3, 3), seed=61))
        loss = T.add(T.add(T.tsum(T.mul(doubled, Tensor(batch))),
                           T.tsum(T.weighted_sum(stack, w, axis=0))),
                     T.tsum(T.mul(T.add(leaves[3], leaves[4]), Tensor(batch[0]))))
        backward(loss)
        grads = [t.grad for t in leaves]
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.shares_memory(grads[i], grads[j])
        assert np.array_equal(grads[3], batch[0]) and np.array_equal(grads[4], batch[0])
        assert w.grad is None

    def test_constants_get_no_gradient_and_no_gradient_product(self, monkeypatch):
        # every gradient product an op forms for a parent is handed to _accum
        calls = []
        real = T._accum

        def spy(grads, t, g):
            calls.append(t)
            real(grads, t, g)

        monkeypatch.setattr(T, "_accum", spy)
        x = Tensor(rand((3, 4), seed=62), requires_grad=True)
        consts = [Tensor(rand((3, 4), seed=63)), Tensor(rand((4, 3), seed=64)),
                  Tensor(np.eye(3)), Tensor(rand((3, 4), seed=65) ** 2 + 1.0),
                  Tensor(rand((3, 4), seed=66))]
        a = T.mul(x, consts[0])
        b = T.matmul(consts[1], a)  # 4 x 4
        c = T.weighted_sum(T.matmul(a, consts[1]), consts[2], axis=-1)
        d = div(x, consts[3])
        e = batched_cosine_sim(consts[4], d)
        loss = T.add(T.add(T.tsum(b), T.tsum(c)), T.tsum(e))
        backward(loss)
        assert all(t.requires_grad for t in calls)
        assert all(t.grad is None for t in consts)
        assert x.grad is not None


class TestFiniteDiffCheck:
    def test_linear_is_nearly_exact(self):
        w = rand(6, seed=10)
        x = Tensor(rand(6, seed=11), requires_grad=True)
        err = finite_diff_check(lambda t: T.tsum(T.mul(t, Tensor(w))), x)
        assert err < 1e-10

    def test_sum_of_squares(self):
        x = Tensor(rand(9, seed=12), requires_grad=True)
        assert finite_diff_check(lambda t: T.tsum(T.mul(t, t)), x) < 1e-8


# the ops of pseudoradar.tensor, and div, sqrt, concat, layer_norm, softmax
# and batched_cosine_sim of the scalar reference
OPS = {
    "add": lambda t, u: T.add(t, u),
    "sub": lambda t, u: T.sub(t, u),
    "mul": lambda t, u: T.mul(t, u),
    "div": lambda t, u: div(t, T.add(T.mul(u, u), Tensor(1.0))),
    "sigmoid": lambda t, u: T.sigmoid(t),
    "matmul": lambda t, u: T.matmul(t, T.transpose_last2(u)),
    "transpose": lambda t, u: T.transpose_last2(t),
    "softmax": lambda t, u: softmax(t, axis=1),
    "logsumexp": lambda t, u: T.logsumexp(t, axis=1),
    "layer_norm": lambda t, u: layer_norm(t, axis=1),
    "mean": lambda t, u: T.tmean(t, axis=0),
    "concat": lambda t, u: concat([t, u], axis=0),
    "sqrt": lambda t, u: sqrt(T.add(T.mul(t, t), Tensor(1.0))),
    "take": lambda t, u: T.take(t, np.array([1, 3, 1]), axis=1),
    # x and w both depend on t; w's leading axis broadcasts against x's
    "weighted_sum": lambda t, u: T.weighted_sum(
        T.reshape(t, (2, 3, 4)), T.reshape(T.take(t, 0, axis=0), (2, 1, 3)), axis=1),
    "stack": lambda t, u: T.stack([t, u, t]),
    "normalize": lambda t, u: T.normalize(t),
    "cosine_sim": lambda t, u: batched_cosine_sim(T.reshape(t, (4, 1, 6)),
                                                  T.reshape(u, (1, 4, 6))),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradient_matches_finite_differences(name):
    # random inputs of size <= 64, magnitudes <= 10, projection readout
    op = OPS[name]
    rng = np.random.default_rng(_seed(name))
    x = Tensor(rng.uniform(-5, 5, size=(4, 6)), requires_grad=True)
    u = Tensor(rng.uniform(-5, 5, size=(4, 6)))

    def f(t):
        out = op(t, u)
        return T.tsum(T.mul(out, Tensor(_proj_for(out.data.shape, name))))

    assert finite_diff_check(f, x) < 1e-6
    assert np.isfinite(op(x, u).data).all()


def _proj_for(shape, name):
    return np.random.default_rng(_seed(name + "p")).normal(size=shape)


def _seed(name):
    # str hash() is salted per process; crc32 gives every run the same inputs
    return zlib.crc32(name.encode())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_no_forward_op_produces_non_finite(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-10, 10, size=(3, 5)))
    y = Tensor(rng.uniform(-10, 10, size=(3, 5)))
    outs = [
        T.add(x, y), T.mul(x, y), softmax(x, axis=1), layer_norm(x, axis=0),
        T.sigmoid(x), T.logsumexp(x, axis=1), T.matmul(x, T.transpose_last2(y)),
        T.tsum(x), T.tmean(x, axis=1), concat([x, y], axis=1),
    ]
    for out in outs:
        assert np.isfinite(out.data).all()


def tensor_calls(source: str) -> set[str]:
    """Names of ``pseudoradar.tensor`` functions that ``source`` calls: the
    ``Call`` nodes of its syntax tree whose function is ``T.name`` for a
    module imported as ``T``, or a name imported from the module. A name in
    a string or a comment is no call."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tensor":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "tensor")
    calls = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            calls.add(func.attr)
        elif isinstance(func, ast.Name) and func.id in names:
            calls.add(func.id)
    return calls


def test_tensor_calls_counts_calls_not_mentions():
    source = ('from . import tensor as T\nfrom .tensor import backward\n'
              'def f(x):\n    """sigmoid(x) and T.softmax(x)."""\n'
              '    # T.tsum(x)\n    backward(T.mul(x, x))\n    return "T.add(x)"\n')
    assert tensor_calls(source) == {"backward", "mul"}


def test_every_public_op_has_a_caller_in_the_package():
    # an op that only tests run belongs next to them, not in the engine
    package = Path(T.__file__).parent
    called = set().union(*(tensor_calls(p.read_text()) for p in package.glob("*.py")
                           if p.name != "tensor.py"))
    ops = [name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__ and name[0] != "_"]
    assert len(ops) >= 17
    assert [name for name in ops if name not in called] == []


def private_helpers(source: str) -> tuple[set[str], set[str]]:
    """The private functions, methods and classes that ``source`` defines
    (a leading underscore, not a dunder), and the names it reads: every
    ``Name`` or ``Attribute`` load of its syntax tree. A name in a docstring
    or a comment is not read."""
    defined, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return defined, read


def test_private_helpers_counts_loads_not_mentions():
    source = ('def _used():\n    """_unused()."""\n    # _unused()\n    return "_unused"\n'
              'def _unused():\n    pass\n'
              'class _Box:\n    def _get(self):\n        pass\n'
              'def f():\n    return _used(), _Box()._get()\n')
    defined, read = private_helpers(source)
    assert defined == {"_used", "_unused", "_Box", "_get"}
    assert sorted(defined - read) == ["_unused"]


def test_every_private_helper_has_a_reader_in_the_package():
    # a helper whose last caller went belongs in the tests or nowhere
    package = Path(T.__file__).parent
    found = [private_helpers(p.read_text()) for p in sorted(package.glob("*.py"))]
    defined = set().union(*(d for d, _ in found))
    read = set().union(*(r for _, r in found))
    assert len(defined) >= 40
    assert sorted(defined - read) == []


def test_repr_names_the_shape_and_the_gradient_flag():
    assert repr(Tensor(np.zeros((2, 3)))) == "Tensor(shape=(2, 3))"
    assert repr(Tensor(1.0, requires_grad=True)) == "Tensor(shape=(), requires_grad=True)"


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: Tensor([1.0, 2.0]).item(), ShapeError,
                 r"^item\(\) needs a single-element tensor, got shape \(2,\)$", id="item"),
    pytest.param(lambda: T.matmul(Tensor(np.ones(2)), Tensor(np.ones((2, 2)))), ShapeError,
                 r"^matmul needs rank >= 2 operands, got \(2,\) and \(2, 2\)$",
                 id="matmul-rank"),
    pytest.param(lambda: T.normalize(Tensor(1.0)), ShapeError,
                 "^normalize needs at least rank 1$", id="normalize-rank"),
    pytest.param(lambda: softmax(Tensor(1.0)), ShapeError,
                 "^softmax needs at least rank 1$", id="softmax-rank"),
    pytest.param(lambda: finite_diff_check(T.tsum, Tensor([1.0, 2.0])), ValueError,
                 "^finite_diff_check needs requires_grad=True on x$", id="check-constant"),
    pytest.param(lambda: finite_diff_check(lambda x: T.mul(x, x),
                                           Tensor([1.0, 2.0], requires_grad=True)),
                 ShapeError, r"^finite_diff_check needs a scalar function, got shape \(2,\)$",
                 id="check-non-scalar"),
])
def test_bad_input_is_refused_naming_the_cause(call, error, match):
    with pytest.raises(error, match=match):
        call()
