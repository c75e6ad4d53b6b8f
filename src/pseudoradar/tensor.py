"""Dense float64 tensors with tape-based reverse-mode differentiation.

Covers the operations the loss stack runs and no more: add, sub and mul
with numpy-style broadcasting, sigmoid, trailing-axis transposition,
reshaping, stacking, gathering (whose backward is one product with a
one-hot matrix, not a scatter), sums and means. The fused nodes that
``contrastive`` builds on :func:`_make` and :func:`_accum` (window
attention, scaled dot-product attention, BCSA's gated layer-norm blend, the
global aggregation and InfoNCE) are single tape nodes, each with a
closed-form backward. Every gradient is verifiable against central finite
differences via :func:`finite_diff_check`.

Graphs are throwaway: build, call :func:`backward` once, read ``.grad`` off
the leaves; intermediate nodes get none. Calling backward again on a fresh
graph over the same leaves accumulates into ``.grad``; call
:func:`zero_grad` between steps when accumulation is not wanted. The
backward pass forms no gradient for an operand that does not require one,
and sums the gradients a node collects in place, in a buffer that one of
them owns. A closure gets its node's gradient writeable when the node owns
it and read-only when it is shared, so an op that hands its gradient on as
a view (``reshape``, ``stack``) can hand the ownership on with it.

An op's data is a new array, with two exceptions that alias their parents:
``reshape`` returns a view of its parent's data, and ``stack`` reuses its
parents' common base array when they are exactly that base's consecutive
leading-axis slices, in order; the parents' gradients are then slices of
one buffer too. No op writes to any tensor's data.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


# finite_diff_check's difference step, and the floor of its relative error's
# denominator
FINITE_DIFF_STEP = 1e-3
FINITE_DIFF_EPS = 1e-12


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class Tensor:
    """A float64 ndarray plus optional gradient and a backward closure.

    ``data`` is always a contiguous float64 array. On a leaf, ``grad`` is
    allocated by :func:`backward` and has the same shape as ``data``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        # ascontiguousarray would promote 0-d scalars to 1-D, so guard it
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(grads: dict, t: Tensor, g: np.ndarray, owned: bool = False,
           sink: bool = False) -> None:
    """Add ``g`` to the gradient held for ``t``.

    ``grads`` maps a node's id to ``(gradient, owned)``. The first gradient
    is held as it arrives, because it may be a view or the same array an op
    hands to two parents; the second arrival is added into whichever of the
    two is owned, or else into a new buffer, which is owned, and every later
    arrival adds into that buffer in place. An op passes ``owned`` for a
    buffer it allocated for ``t`` alone, which later arrivals then add into
    from the start, and ``sink`` for an owned slice of a gradient buffer
    that mirrors its parents' data (see :func:`stack`): a held gradient is
    added into it, so it ends as ``t``'s gradient. Addition of two terms
    commutes exactly, so which buffer takes the sum changes no bit.
    """
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.data.shape)
    key = id(t)
    held = grads.get(key)
    if held is None:
        grads[key] = (g, owned or sink)
    elif sink or (owned and not held[1]):
        grads[key] = (np.add(g, held[0], out=g), True)
    elif held[1]:
        np.add(held[0], g, out=held[0])
    else:
        grads[key] = (np.add(held[0], g, out=np.empty(t.data.shape)), True)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bw(g, grads):
        _accum(grads, a, g)
        _accum(grads, b, g)

    return _make(data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def bw(g, grads):
        _accum(grads, a, g)
        if b.requires_grad:
            _accum(grads, b, -g)

    return _make(data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bw(g, grads):
        if a.requires_grad:
            _accum(grads, a, g * b.data)
        if b.requires_grad:
            _accum(grads, b, g * a.data)

    return _make(data, (a, b), bw)


def sigmoid(a: Tensor) -> Tensor:
    # evaluate exp only on the non-overflowing side
    z = np.exp(-np.abs(a.data))
    data = np.where(a.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

    def bw(g, grads):
        _accum(grads, a, g * data * (1.0 - data))

    return _make(data, (a,), bw)


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)

    def bw(g, grads):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(grads, a, np.broadcast_to(g, a.data.shape))

    return _make(data, (a,), bw)


def tmean(a: Tensor, axis=None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), Tensor(1.0 / n))


def transpose_last2(a: Tensor) -> Tensor:
    """Swap the trailing two axes. Self-inverse."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose_last2 needs rank >= 2, got shape {a.shape}")
    data = a.data.swapaxes(-1, -2).copy()

    def bw(g, grads):
        _accum(grads, a, g.swapaxes(-1, -2))

    return _make(data, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def bw(g, grads):
        _accum(grads, a, g.reshape(a.data.shape), owned=g.flags.writeable)

    return _make(data, (a,), bw)


def _stacked_base(arrays: list[np.ndarray]) -> np.ndarray | None:
    """The array that ``np.stack(arrays)`` would copy, as a view of the
    arrays' common base, when the arrays are exactly that base's consecutive
    leading-axis slices in order; None otherwise.

    Slices are found by address, never by indexing the base, whose slices
    are numpy scalars when it is 1-D.
    """
    base = arrays[0].base
    if not (isinstance(base, np.ndarray) and base.dtype == np.float64
            and base.flags["C_CONTIGUOUS"] and base.size == len(arrays) * arrays[0].size):
        return None
    start, step = base.ctypes.data, arrays[0].nbytes
    if any(a.base is not base or not a.flags["C_CONTIGUOUS"] or a.ctypes.data != start + i * step
           for i, a in enumerate(arrays)):
        return None
    return base.reshape(len(arrays), *arrays[0].shape)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new first axis.

    When the parents' data are, in order, the consecutive leading-axis slices
    of one C-contiguous base array (as ``toy_pretrain`` lays out its maps),
    the result's data is that base, reshaped, with no copy: it aliases the
    parents, so writing to a parent's data changes the stack. Otherwise the
    data are copied.

    The aliasing carries over to the gradients. When the data alias and the
    stacked gradient is the node's own, the backward hands each parent its
    slice as a sink: every other gradient of that parent is added into the
    slice, so the parents' gradients end as the consecutive slices of one
    buffer, as their data are. Otherwise each parent gets a copy of its
    slice, so a parent that waits for more gradients does not keep the whole
    stacked gradient alive.
    """
    ts = list(tensors)
    if not ts:
        raise ShapeError("stack of an empty list")
    if any(t.shape != ts[0].shape for t in ts):
        raise ShapeError(f"stack needs equal shapes, got {[t.shape for t in ts]}")
    arrays = [t.data for t in ts]
    data = _stacked_base(arrays)
    aliased = data is not None
    if not aliased:
        data = np.stack(arrays)

    def bw(g, grads):
        sink = aliased and g.flags.writeable
        for t, part in zip(ts, g):
            if t.requires_grad:
                if sink:
                    _accum(grads, t, part, sink=True)
                else:
                    _accum(grads, t, part.copy(), owned=True)

    return _make(data, ts, bw)


def take(a: Tensor, indices, axis: int) -> Tensor:
    """Gather along an axis. A scalar index drops the axis, numpy style.

    The backward is one product of the gradient with an (indices x axis
    length) one-hot matrix, so repeated indices add up without a scatter. A
    non-finite gradient entry therefore spreads NaN over its whole slice of
    the axis.
    """
    idx = np.asarray(indices, dtype=np.intp)
    data = np.take(a.data, idx, axis=axis)
    axis %= a.data.ndim
    n = a.shape[axis]

    def bw(g, grads):
        onehot = (idx.reshape(-1, 1) % n == np.arange(n)).astype(np.float64)
        pre, post = math.prod(a.shape[:axis]), math.prod(a.shape[axis + 1:])
        g3 = g.reshape(pre, idx.size, post)
        full = g3[..., 0] @ onehot if post == 1 else onehot.T @ g3
        _accum(grads, a, full.reshape(a.shape), owned=True)

    return _make(data, (a,), bw)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf.

    A leaf is a tensor created with ``requires_grad=True``, not computed by
    an op; intermediate nodes keep ``.grad`` as it was. ``loss`` must hold a
    single element. Gradients add onto whatever is in ``.grad`` already;
    reset with :func:`zero_grad` between evaluations.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    grads: dict[int, tuple[np.ndarray, bool]] = {id(loss): (np.ones_like(loss.data), True)}
    for node in reversed(order):
        g, owned = grads.pop(id(node))
        if node._backward is not None:
            if not owned:  # so that a closure reads ownership off the flag
                g = np.asarray(g).view()
                g.flags.writeable = False
            node._backward(g, grads)
        elif node.grad is None:
            node.grad = g if owned else g.copy()
        else:
            node.grad = node.grad + g


def zero_grad(*tensors: Tensor) -> None:
    for t in tensors:
        t.grad = None


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a pure scalar function of ``x``; it is re-evaluated four
    times per coordinate for the fourth-order central difference
    ``(8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h`` with
    h = ``FINITE_DIFF_STEP`` (1e-3). The wider step keeps the rounding error
    of f's own evaluation small next to a gradient component near zero.
    Error per coordinate is ``|analytic - numeric| / (|analytic| + |numeric|
    + eps)`` with eps = ``FINITE_DIFF_EPS`` (1e-12).
    """
    if not x.requires_grad:
        raise ValueError("finite_diff_check needs requires_grad=True on x")
    x.grad = None
    out = f(x)
    if out.data.size != 1:
        raise ShapeError(f"finite_diff_check needs a scalar function, got shape {out.shape}")
    backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    h = FINITE_DIFF_STEP
    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        at = []
        for step in (h, -h, 2.0 * h, -2.0 * h):
            flat[i] = orig + step
            at.append(float(f(x).data.reshape(())))
        flat[i] = orig
        numeric[i] = (8.0 * (at[0] - at[1]) - (at[2] - at[3])) / (12.0 * h)
    a = analytic.reshape(-1)
    rel = np.abs(a - numeric) / (np.abs(a) + np.abs(numeric) + FINITE_DIFF_EPS)
    x.grad = None
    return float(rel.max()) if rel.size else 0.0
