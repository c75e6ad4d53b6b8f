"""Dual-stage dual-modality contrastive losses on the tensor engine.

The local path picks feature columns from a radar map, finds each one's best
matching window in the image map by sliding a width-r window over a width-R
search area, refines the pair with bidirectional channel-spatial attention
(BCSA), and scores the batch with a temperature-scaled InfoNCE. The global
path collapses each C x H x W map to a C-vector by shared row then column
attention over the channel-concatenated pair, and sums the InfoNCE terms of
the six modality/view pairings, all scored in one call. The combined objective is
``lambda_global * global + local``.

Each stage runs once on stacked tensors rather than once per column, window
or scene: the matcher scores every window of every sampled column without a
tape, from the R x R Gram matrix of each column's search area, and gathers
only the winners on it, whose window attention is one tape node; BCSA runs
on N x C x H stacks, each direction as two scaled dot-product attention
nodes and one node that layer-norms, transforms and gates both branches,
each keeping only what its closed-form backward needs; InfoNCE is one tape
node around one matmul of row-normalized N x D matrices, and the global
path aggregates all six pairings of all scenes in one tape node on one
stack of the maps, pooling each map once for all its pairings. The tape
size therefore does not depend on the number of sampled columns.

Everything here is differentiable end to end; the gradcheck command and the
test suite verify every gradient against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import DivergenceError
from .rng import philox
from .tensor import Tensor

MODALITIES = ("radar", "image")
VIEWS = ("bev", "fv")
MAP_NAMES = ("img_bev", "img_fv", "rad_bev", "rad_fv")

# the six aggregated pairings scored by the global loss
GLOBAL_PAIRS = (
    ("img_bev", "img_fv"),
    ("img_bev", "rad_fv"),
    ("img_fv", "rad_fv"),
    ("img_bev", "rad_bev"),
    ("img_fv", "rad_bev"),
    ("rad_bev", "rad_fv"),
)

# matcher scores within this of a column's best tie with it. Exact ties (on
# a constant map a clipped border window sums fewer columns) differ only by
# rounding. A score is formed from Gram entries and dot products with the
# anchor, each a sum of D = C * H products: worst-case summation puts each
# off by D eps relative (Higham's gamma_D), a score (|score| <= 1) by about
# 1.5 D eps and two tied scores apart by about 3 D eps, below 1e-12 up to
# D = 1,500. BLAS sums in blocks and stays far inside that bound: tied
# scores on constant maps differed by at most 89 eps (2e-14) for D from
# 2,048 to 8,192.
MATCH_TIE_TOL = 1e-12

# added to every variance by BCSA's layer norm
LAYER_NORM_EPS = 1e-5
# added to every L2 norm of a cosine or a row normalization
NORM_EPS = 1e-12


def _norm(x: np.ndarray) -> np.ndarray:
    """L2 norms along the last axis, which is kept with length 1."""
    return np.sqrt((x * x).sum(axis=-1, keepdims=True))


def _unit(x: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """``x / norm`` for norms kept from ``x``, and 0 where the norm is 0 (a
    subgradient of the norm)."""
    return np.divide(x, norm, out=np.zeros_like(x), where=norm > 0)


@dataclass
class FeatureMap:
    """A C x H x W feature tensor tagged with its modality and view."""

    tensor: Tensor
    modality: str
    view: str

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
        if self.view not in VIEWS:
            raise ValueError(f"view must be one of {VIEWS}, got {self.view!r}")
        if self.tensor.data.ndim != 3:
            raise ValueError(f"feature map must be C x H x W, got shape {self.tensor.shape}")
        if not np.isfinite(self.tensor.data).all():
            raise ValueError("feature map contains non-finite values")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.tensor.shape


@dataclass
class SceneMaps:
    """The four feature maps of one scene: {image, radar} x {bev, fv}."""

    img_bev: FeatureMap
    img_fv: FeatureMap
    rad_bev: FeatureMap
    rad_fv: FeatureMap

    def __post_init__(self):
        tags = {"img_bev": ("image", "bev"), "img_fv": ("image", "fv"),
                "rad_bev": ("radar", "bev"), "rad_fv": ("radar", "fv")}
        for name, (modality, view) in tags.items():
            fmap = getattr(self, name)
            if fmap is None:
                raise ValueError(f"missing feature map {name!r}")
            if (fmap.modality, fmap.view) != (modality, view):
                raise ValueError(f"{name} is tagged {fmap.modality}/{fmap.view}, "
                                 f"expected {modality}/{view}")
        ref = self.img_bev.shape
        for name in ("img_fv", "rad_bev", "rad_fv"):
            if getattr(self, name).shape != ref:
                raise ValueError(
                    f"{name} shape {getattr(self, name).shape} differs from img_bev {ref}"
                )

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.img_bev.shape


@dataclass(frozen=True)
class ContrastiveConfig:
    """tau is the InfoNCE temperature; search_width (R) and window_width (r)
    size the column matcher; batch_size (N) is how many columns the local
    loss samples; lambda_global weighs the global term in the total loss."""

    tau: float = 0.07
    search_width: int = 5
    window_width: int = 3
    batch_size: int = 4
    lambda_global: float = 1.0 / 6.0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not (1 <= self.window_width < self.search_width):
            raise ValueError(
                f"need 1 <= window_width < search_width, got "
                f"r={self.window_width}, R={self.search_width}"
            )
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.lambda_global < 0:
            raise ValueError(f"lambda_global must be >= 0, got {self.lambda_global}")


# ---------------------------------------------------------------------------
# parameters


@dataclass
class BcsaParams:
    """Learnables of the BCSA refiner: one layer-norm affine pair per branch
    and a per-channel gate logit; sigmoid(gate) blends the branches."""

    ln_spatial_gain: Tensor
    ln_spatial_bias: Tensor
    ln_channel_gain: Tensor
    ln_channel_bias: Tensor
    gate_logits: Tensor

    @classmethod
    def init(cls, channels: int) -> "BcsaParams":
        return cls(
            ln_spatial_gain=Tensor(np.ones(channels), requires_grad=True),
            ln_spatial_bias=Tensor(np.zeros(channels), requires_grad=True),
            ln_channel_gain=Tensor(np.ones(channels), requires_grad=True),
            ln_channel_bias=Tensor(np.zeros(channels), requires_grad=True),
            gate_logits=Tensor(np.zeros(channels), requires_grad=True),
        )

    def tensors(self) -> list[Tensor]:
        return [self.ln_spatial_gain, self.ln_spatial_bias,
                self.ln_channel_gain, self.ln_channel_bias, self.gate_logits]


@dataclass
class GlobalAggParams:
    """Row and column score projections over the 2C concatenated channels."""

    row_proj: Tensor
    col_proj: Tensor

    @classmethod
    def init(cls, channels: int, seed: int = 0) -> "GlobalAggParams":
        rng = philox(seed, 0x67)
        return cls(
            row_proj=Tensor(rng.normal(0.0, 0.02, size=2 * channels), requires_grad=True),
            col_proj=Tensor(rng.normal(0.0, 0.02, size=2 * channels), requires_grad=True),
        )

    def tensors(self) -> list[Tensor]:
        return [self.row_proj, self.col_proj]


@dataclass
class ContrastiveParams:
    bcsa: BcsaParams
    global_agg: GlobalAggParams

    @classmethod
    def init(cls, channels: int, seed: int = 0) -> "ContrastiveParams":
        return cls(BcsaParams.init(channels), GlobalAggParams.init(channels, seed))

    def tensors(self) -> list[Tensor]:
        return self.bcsa.tensors() + self.global_agg.tensors()


def _check_sizes(params, per_channel: int, channels: int, has: str) -> None:
    """ValueError unless every tensor of ``params`` (a dataclass of them)
    is a vector of ``per_channel * channels`` entries. When all are vectors
    of one other length, the message gives the channel count they fit;
    otherwise it names the first that does not fit."""
    want = (per_channel * channels,)
    named = [(field.name, getattr(params, field.name).shape) for field in fields(params)]
    shapes = {shape for _, shape in named}
    if shapes == {want}:
        return
    if len(shapes) == 1 and len(named[0][1]) == 1:
        raise ValueError(f"params sized for {named[0][1][0] // per_channel} channels, "
                         f"{has} {channels}")
    name, shape = next((name, shape) for name, shape in named if shape != want)
    raise ValueError(f"{name} has shape {shape}, expected {want} for {channels} channels")


# ---------------------------------------------------------------------------
# InfoNCE


def _form(x) -> str:
    """What an input is, for an error message: its shape, or its type."""
    return str(x.shape) if isinstance(x, Tensor) else f"a {type(x).__name__}"


def _check_form(what: str, shape_ok, *xs) -> None:
    """ValueError naming the expected form ``what`` unless the inputs are
    tensors of one shape that passes ``shape_ok``."""
    if not (all(isinstance(x, Tensor) for x in xs) and len({x.shape for x in xs}) == 1
            and shape_ok(xs[0].shape)):
        raise ValueError(f"expected {what}, got {' and '.join(map(_form, xs))}")


def info_nce(anchors: Tensor, candidates: Tensor, tau: float) -> Tensor:
    """-(1/N) sum_i log( exp(sim(a_i, c_i)/tau) / sum_j exp(sim(a_i, c_j)/tau) ).

    ``anchors`` and ``candidates`` are ... x N x D tensors with N >= 1, one
    loss per leading index. sim is cosine similarity, so the loss is
    invariant to positive rescaling of any single vector. Always >= 0;
    exactly ln N when all similarities coincide; 0 for N = 1. Computed in
    matrix form: S = A_n B_n^T / tau on the row-normalized inputs, then
    mean(logsumexp(S) - diag(S)). Raises ValueError naming a ``tau`` that is
    not finite and > 0.

    One tape node. Its forward takes the numpy steps of the op chain (two
    row normalizations, the transpose, ``matmul``, the scale, the diagonal,
    ``logsumexp``, ``sub``, ``tsum`` and the scale by -1/N) in order, so it
    is bit-equal to it. Its backward is the closed form
    ``(softmax(S) - I) / (N tau)`` times each loss's gradient, taken back
    through the matmul and both row normalizations with the chain's
    expressions.
    """
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be finite and > 0, got {tau!r}")
    _check_form("matching ... x N x D tensors with N >= 1",
                lambda shape: len(shape) >= 2 and shape[-2] > 0, anchors, candidates)
    n = anchors.shape[-2]
    inv_tau = 1.0 / tau
    norm_a, norm_b = _norm(anchors.data), _norm(candidates.data)
    den_a, den_b = norm_a + NORM_EPS, norm_b + NORM_EPS
    unit_a, unit_b = anchors.data / den_a, candidates.data / den_b
    unit_b_t = unit_b.swapaxes(-1, -2).copy()
    sims = (unit_a @ unit_b_t) * inv_tau
    shift = sims.max(axis=-1, keepdims=True)
    e = np.exp(sims - shift)
    total = e.sum(axis=-1)
    lse = np.log(total) + shift[..., 0]
    data = (sims.diagonal(axis1=-2, axis2=-1) - lse).sum(axis=-1) * (-1.0 / n)

    def bw(g, grads):
        g_rows = np.broadcast_to((g * (-1.0 / n))[..., None], total.shape)
        g_sims = (np.eye(n) * g_rows[..., None] + (-g_rows / total)[..., None] * e) * inv_tau
        # through each side's row normalization: drop the radial part, divide by den
        for t, g_unit, unit, norm, den in (
                (anchors, g_sims @ unit_b_t.swapaxes(-1, -2), unit_a, norm_a, den_a),
                (candidates, (unit_a.swapaxes(-1, -2) @ g_sims).swapaxes(-1, -2),
                 unit_b, norm_b, den_b)):
            if t.requires_grad:
                radial = (g_unit * unit).sum(axis=-1, keepdims=True)
                T._accum(grads, t, (g_unit - radial * _unit(t.data, norm)) / den, owned=True)

    return T._make(data, (anchors, candidates), bw)


# ---------------------------------------------------------------------------
# sliding-window positive matching


def _columns(fmap: Tensor, index: np.ndarray) -> Tensor:
    """The columns ``fmap[:, :, index]`` of a C x H x W map, flattened: one
    gather, shape ``index.shape + (C * H,)``."""
    c, h, _ = fmap.shape
    cols = T.take(fmap, index.reshape(-1), axis=-1)  # C x H x M
    flat = T.transpose_last2(T.reshape(cols, (c * h, index.size)))  # M x CH
    return T.reshape(flat, (*index.shape, c * h))


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-shifted so no exponent overflows; a
    score at -inf (a window slot outside the map) gets weight 0."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _cosines(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cosine similarities of the vectors along the last axes of ``a`` and
    ``b``, broadcast against each other, with NORM_EPS added to both norms.
    Returns them with their denominators and the two norms."""
    na, nb = _norm(a)[..., 0], _norm(b)[..., 0]
    den = (na + NORM_EPS) * (nb + NORM_EPS)
    return (a * b).sum(axis=-1) / den, den, na, nb


def _window_aggregates(cols: Tensor, inside: np.ndarray, label: np.ndarray) -> Tensor:
    """Collapse windows of flat columns (..., r, D) to (..., D).

    Each window attends over its columns with softmax of their cosine
    similarity to the label column (slot ``label``); slots outside the map
    (``inside`` False) get zero weight.

    One tape node. Its forward takes the numpy steps of the op chain
    ``cosine_sim``, masked ``softmax`` and ``weighted_sum``, so it is
    bit-equal to it. Its backward is closed-form: ``M @ cols``, for one
    r x r matrix ``M`` per window that holds the cosine terms, plus the
    outer product of the attention weights with the incoming gradient.
    """
    x = cols.data
    select = np.arange(x.shape[-2]) == label[..., None]  # (..., r)
    query = np.take_along_axis(x, label[..., None, None], axis=-2)  # (..., 1, D)
    sims, den, na, nb = _cosines(query, x)  # na is (..., 1), the rest (..., r)
    attn = _softmax(sims + np.where(inside, 0.0, -np.inf))
    data = np.einsum("...k,...kr->...r", attn, x)

    def bw(g, grads):
        g_attn = (x @ g[..., None])[..., 0]
        g_sims = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True))
        # through sims_t, column t and the label column each get the other
        # over den_t (across) and lose their own radial part (diag); a
        # zero-norm column has none, as in _unit
        across = select[..., :, None] * (g_sims / den)[..., None, :]
        m = across + across.swapaxes(-1, -2)
        radial = g_sims * sims
        diag = _unit(radial / (nb + NORM_EPS), nb) + select * _unit(
            radial.sum(axis=-1, keepdims=True) / (na + NORM_EPS), na)
        m[..., np.arange(x.shape[-2]), np.arange(x.shape[-2])] -= diag
        T._accum(grads, cols, m @ x + attn[..., None] * g[..., None, :], owned=True)

    return T._make(data, (cols,), bw)


def _match_windows(anchors: Tensor, search_map: Tensor, columns: np.ndarray,
                   search_width: int, window_width: int) -> tuple[np.ndarray, Tensor]:
    """Best window of ``search_map`` for each flat anchor column (N x C*H)
    sampled at ``columns``: the offsets (N,) and the aggregates (N x C*H).

    Every candidate window of every column is scored at once without a
    tape, from the Gram matrix of each column's search area: its R columns
    hold every window's columns, so their R x R dot products and their R
    dot products with the anchor give each window's attention weights, its
    aggregate's squared norm and its cosine to the anchor. Only the winners
    are aggregated, on the tape.
    """
    w = search_map.shape[-1]
    first = columns - (search_width - 1) // 2  # the search area's first column
    # a window with no column inside the map is replaced by the window at
    # that border, which is a candidate already
    starts = np.clip(first[:, None] + np.arange(search_width - window_width + 1),
                     1 - window_width, w - 1)  # N x K
    cols = starts[..., None] + np.arange(window_width)  # N x K x r
    inside = (cols >= 0) & (cols < w)
    # a clipped border window is represented (and labeled) by the surviving
    # column nearest its nominal center
    center = starts + (window_width - 1) // 2
    label = np.argmin(np.where(inside, np.abs(cols - center[..., None]), window_width),
                      axis=-1)
    delta = np.take_along_axis(cols, label[..., None], axis=-1)[..., 0] - columns[:, None]

    # every inside slot's column is in the search area, clipped to the map
    area = np.clip(first[:, None] + np.arange(search_width), 0, w - 1)  # N x R
    slot = np.clip(cols - first[:, None, None], 0, search_width - 1)  # N x K x r into area
    flat = search_map.data.reshape(-1, w).T[area]  # N x R x CH
    gram = flat @ flat.swapaxes(-1, -2)  # N x R x R
    dots = (flat @ anchors.data[..., None])[..., 0]  # N x R
    norms = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1))  # N x R
    row = np.arange(len(columns))[:, None, None]
    query = np.take_along_axis(slot, label[..., None], axis=-1)  # N x K x 1
    attn = _softmax(gram[row, query, slot] / ((norms[row, query] + NORM_EPS)
                                              * (norms[row, slot] + NORM_EPS))
                    + np.where(inside, 0.0, -np.inf))  # N x K x r
    sq_norm = np.einsum("...s,...st,...t->...", attn,
                        gram[row[..., None], slot[..., :, None], slot[..., None, :]], attn)
    # rounding can take a near-zero squared norm below 0
    score = ((attn * dots[row, slot]).sum(axis=-1)
             / ((np.sqrt(np.maximum(sq_norm, 0.0)) + NORM_EPS)
                * (_norm(anchors.data) + NORM_EPS)))
    tied = score >= score.max(axis=-1, keepdims=True) - MATCH_TIE_TOL
    # a score tied with the best, then smaller |offset|, then smaller offset,
    # then the earlier window (lexsort is stable)
    best = np.lexsort((delta, np.abs(delta), ~tied), axis=-1)[:, 0]
    rows = np.arange(len(columns))
    return delta[rows, best], _window_aggregates(
        _columns(search_map, np.clip(cols[rows, best], 0, w - 1)),
        inside[rows, best], label[rows, best])


def sliding_window_match(
    anchor_col: Tensor,
    search_map: Tensor,
    j: int,
    search_width: int,
    window_width: int,
) -> tuple[int, Tensor]:
    """Best attention-aggregated window for the anchor column.

    The search area spans ``search_width`` columns centered on j; a window of
    ``window_width`` columns slides inside it, giving R - r + 1 candidates
    (fewer at the map border, where windows are clipped). Each window is
    collapsed to one C x H column by softmax attention over the cosine
    similarity of its columns to the window's own center column, so the
    aggregate is a function of the window alone and stays peaked at the
    candidate position; anchor-query attention would make overlapping
    windows that share the matching column statistically indistinguishable.
    The window whose aggregate is most cosine-similar to the anchor wins;
    scores within ``MATCH_TIE_TOL`` of the best tie, and ties prefer smaller
    |offset|, then the smaller offset.

    This is a single-column view of the batched matcher ``local_loss`` uses.
    """
    if not (1 <= window_width < search_width):
        raise ValueError(f"need 1 <= r < R, got r={window_width}, R={search_width}")
    c, h, w = search_map.shape
    if anchor_col.shape != (c, h):
        raise ValueError(f"anchor shape {anchor_col.shape} does not match map {search_map.shape}")
    if not (0 <= j < w):
        raise ValueError(f"column index {j} outside [0, {w})")
    delta, agg = _match_windows(T.reshape(anchor_col, (1, c * h)), search_map,
                                np.array([j]), search_width, window_width)
    return int(delta[0]), T.reshape(agg, (c, h))


# ---------------------------------------------------------------------------
# BCSA refinement


def _attend(q: Tensor, k_t: Tensor, v: Tensor) -> Tensor:
    """softmax(q k_t / sqrt(d)) v over the trailing two axes, d the length of
    q's last axis; leading axes are a batch.

    One tape node. Its forward takes the numpy steps of the op chain
    ``matmul``, ``mul`` by the scale, ``softmax`` and ``matmul`` in order,
    so it is bit-equal to it, and it keeps only the attention weights P.
    Its backward repeats the chain's steps too: ``dP = g vᵀ``,
    ``dS = P (dP - rowsum(dP P)) * scale``, then the three matmul
    gradients, handed out in the chain's order (v, q, k_t).
    """
    scale = 1.0 / math.sqrt(q.shape[-1])
    attn = _softmax((q.data @ k_t.data) * scale)

    def bw(g, grads):
        if v.requires_grad:
            T._accum(grads, v, attn.swapaxes(-1, -2) @ g)
        if q.requires_grad or k_t.requires_grad:
            g_attn = g @ v.data.swapaxes(-1, -2)
            g_scores = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True)) * scale
            if q.requires_grad:
                T._accum(grads, q, g_scores @ k_t.data.swapaxes(-1, -2))
            if k_t.requires_grad:
                T._accum(grads, k_t, q.data.swapaxes(-1, -2) @ g_scores)

    return T._make(attn @ v.data, (q, k_t, v), bw)


def _layer_norm(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-mean unit-variance normalization over the channel axis (-2) of
    an N x C x D array, with the biased variance plus ``LAYER_NORM_EPS``:
    the normalized array and the standard deviations (N x 1 x D)."""
    inv_n = 1.0 / x.shape[-2]
    centered = x - x.sum(axis=-2, keepdims=True) * inv_n
    std = np.sqrt((centered * centered).sum(axis=-2, keepdims=True) * inv_n + LAYER_NORM_EPS)
    return centered / std, std


def _gated_blend(spatial: Tensor, channel: Tensor, gate: Tensor, rest: Tensor,
                 affine: Tensor) -> Tensor:
    """``gate * A + rest * B`` for the N x D x C spatial branch and the
    N x C x D channel branch. A is the layer norm over C of the spatial
    branch, transposed, times its gain plus its bias; B is the same of the
    channel branch with its own affine. ``gate`` and ``rest`` weigh each of
    the C channels, and ``affine`` stacks the spatial gain and bias and the
    channel gain and bias as a 4 x C tensor.

    One tape node. Its forward takes the numpy steps of the op chain
    (``transpose_last2``, ``layer_norm``, ``mul`` and ``add``) in order, so
    it is bit-equal to it; the spatial branch is normalized as a transposed
    copy, as in the chain, so its reductions run in the same order. It
    keeps the two normalized branches and their standard deviations. Its
    backward is closed-form: each branch's gate and affine gradients, with
    A and B formed again, then the layer-norm backward of Ba, Kiros and
    Hinton (arXiv:1607.06450).
    """
    c = gate.shape[0]
    inv_c = 1.0 / c
    affines = affine.data.reshape(2, 2, c, 1)  # (gain, bias) of each branch
    # each branch with its weight, its layer norm and the standard deviations
    branches = [(spatial, gate, *_layer_norm(spatial.data.swapaxes(-1, -2).copy())),
                (channel, rest, *_layer_norm(channel.data))]

    def transformed(i):  # A or B
        gain, bias = affines[i]
        return branches[i][2] * gain + bias

    def bw(g, grads):
        g_affine = np.empty((2, 2, c))
        for i, (branch, weight, norm, std) in enumerate(branches):
            if weight.requires_grad:
                T._accum(grads, weight, (g * transformed(i)).sum(axis=0).sum(axis=1))
            g_out = g * weight.data.reshape(c, 1)
            g_affine[i] = (g_out * norm).sum(axis=0).sum(axis=1), g_out.sum(axis=0).sum(axis=1)
            if branch.requires_grad:
                g_norm = g_out * affines[i, 0]
                mean_g = g_norm.sum(axis=-2, keepdims=True) * inv_c
                mean_gx = (g_norm * norm).sum(axis=-2, keepdims=True) * inv_c
                g_x = (g_norm - mean_g - norm * mean_gx) / std
                T._accum(grads, branch, g_x.swapaxes(-1, -2) if i == 0 else g_x)
        T._accum(grads, affine, g_affine.reshape(4, c), owned=True)

    data = gate.data.reshape(c, 1) * transformed(0) + rest.data.reshape(c, 1) * transformed(1)
    # the parents in the order the chain's graph met them, so that backward
    # hands every shared node its gradients in the same order
    return T._make(data, (gate, affine, spatial, rest, channel), bw)


def bcsa(f1: Tensor, f2: Tensor, params: BcsaParams) -> tuple[Tensor, Tensor]:
    """Bidirectional channel-spatial attention over N C x D feature pairs,
    stacked as two N x C x D tensors.

    Each side is refined by cross-attending to the other along the spatial
    axis and, transposed, along the channel axis; both branches are
    layer-normed over C and fused by a per-channel sigmoid gate into a
    convex combination. Output shapes equal input shapes. Both directions
    share each input's transpose, the gate and ``1 - gate``. Each direction
    is three tape nodes: two ``_attend`` nodes and one ``_gated_blend``.
    """
    _check_form("matching N x C x D tensors", lambda shape: len(shape) == 3, f1, f2)
    _check_sizes(params, 1, f1.shape[1], "input has")
    gate = T.sigmoid(params.gate_logits)
    rest = T.sub(Tensor(1.0), gate)
    # one node sums both directions' affine gradients, so each leaf gets one
    # gradient per call and adds them in the op chain's order
    affine = T.stack(params.tensors()[:4])
    t1, t2 = T.transpose_last2(f1), T.transpose_last2(f2)

    def refine(f_i, t_i, f_j, t_j):
        # spatial branch: positions attend over the partner's positions;
        # channel branch: channels attend over the partner's channels
        return _gated_blend(_attend(t_i, f_j, t_j), _attend(f_i, t_j, f_j), gate, rest, affine)

    return refine(f1, t1, f2, t2), refine(f2, t2, f1, t1)


# ---------------------------------------------------------------------------
# local loss


def local_loss(f_rad: FeatureMap, f_img: FeatureMap, config: ContrastiveConfig,
               params: ContrastiveParams, rng: np.random.Generator) -> Tensor:
    """Column InfoNCE between a radar map and an image map.

    batch_size columns are drawn uniformly without replacement; each radar
    column anchors a sliding-window match into the image map, both sides are
    refined by BCSA, and the flattened refined pairs feed InfoNCE. All
    columns go through each stage together.
    """
    if f_rad.shape != f_img.shape:
        raise ValueError(f"shape mismatch: radar {f_rad.shape} vs image {f_img.shape}")
    c, h, w = f_rad.shape
    n = config.batch_size
    if n > w:
        raise ValueError(f"batch_size {n} exceeds map width {w}")
    columns = rng.choice(w, size=n, replace=False)
    anchors = _columns(f_rad.tensor, columns)
    _, cands = _match_windows(anchors, f_img.tensor, columns,
                              config.search_width, config.window_width)
    a_ref, c_ref = bcsa(T.reshape(anchors, (n, c, h)), T.reshape(cands, (n, c, h)),
                        params.bcsa)
    return info_nce(T.reshape(a_ref, (n, c * h)), T.reshape(c_ref, (n, c * h)), config.tau)


# ---------------------------------------------------------------------------
# global loss


def aggregate_global(maps: Tensor, pairs: Sequence[tuple[int, int]],
                     params: GlobalAggParams) -> tuple[Tensor, Tensor]:
    """Collapse each pair of C x H x W maps of every scene to two C-vectors
    with attention shared within the pair.

    ``maps`` is a K x S x C x H x W stack, K maps of each of S scenes, and
    ``pairs`` holds (a, b) indices into its first axis. Returns ``g_a`` and
    ``g_b``, each P x S x C, in the order of ``pairs``.

    Row scores project the width means of a pair's channel-concatenated maps
    (the first half of ``row_proj`` for map a, the second for map b) and
    softmax over H; the weighted row sum gives each map a C x W slab. Column
    scores repeat the trick over W on the slabs. Both weight vectors sum to
    1, so a constant map aggregates to its cell value.

    One tape node computes both results as one 2 x P x S x C stack, which
    two ``take`` nodes split. Each map's width means and row scores are
    computed once, and one batched matmul pools each map against a block
    that packs the row weights of all its pairings. The forward takes the
    numpy steps of the op chain (``tmean``, ``weighted_sum``, ``take``,
    ``add``, softmax, the packed pooling, ``weighted_sum``, ``tsum``,
    softmax, ``weighted_sum``) in order and the backward takes them in
    reverse, so both are bit-equal to it; the map stack's gradient is one
    owned buffer. The node keeps the slabs and the weights, not the pooled
    block.
    """
    _check_form("a K x S x C x H x W stack", lambda shape: len(shape) == 5, maps)
    pairs = np.asarray(pairs, dtype=np.intp)
    k, s, c, h, w = maps.shape
    if pairs.ndim != 2 or pairs.shape[1] != 2 or not pairs.size or not (
            0 <= pairs.min() and pairs.max() < k):
        raise ValueError(f"pairs must be a non-empty list of (a, b) indices into {k} maps, "
                         f"got {pairs.tolist()}")
    _check_sizes(params, 2, c, "maps have")
    p, a, b = len(pairs), pairs[:, 0], pairs[:, 1]
    x = maps.data
    # the a and b halves of each projection as 2 x 1 x 1 x C weights
    row_proj, col_proj = (t.data.reshape(2, 1, 1, c) for t in params.tensors())
    means = (x.sum(axis=-1) * (1.0 / w))[None]  # 1 x K x S x C x H
    scores = np.einsum("...k,...kr->...r", row_proj, means).reshape(2 * k, s, h)
    row_w = _softmax(scores[a] + scores[k + b])  # P x S x H
    # the row weights of every pair once for map a, once for map b, each in
    # its map's block at the slot after those of the map's earlier rows
    index = np.concatenate([a, b])
    slot = np.tril(index[:, None] == index, -1).sum(axis=1)
    rows = (index, Ellipsis, slot, slice(None))
    blocks = np.zeros((k, s, 1, slot.max() + 1, h))
    blocks[rows] = np.concatenate([row_w, row_w])[:, :, None]
    cols = (blocks @ x)[rows].reshape(2, p, s, c, w)  # the a and b slabs of every pair
    col_w = _softmax(np.einsum("...k,...kr->...r", col_proj, cols).sum(axis=0))  # P x S x W
    data = np.einsum("...k,...kr->...r", col_w.reshape(1, p, s, 1, w),
                     cols.reshape(2, p, s, c, w, 1)).reshape(2, p, s, c)

    def bw(g, grads):
        # the column pooling, the column softmax and the column scores
        d_cols = col_w[:, :, None] * g[..., None]
        d_col_w = (cols * g[..., None]).sum(axis=(0, 3))
        d_col = col_w * (d_col_w - (d_col_w * col_w).sum(axis=-1, keepdims=True))
        spread = np.broadcast_to(d_col, (2, p, s, w)).reshape(2, p, s, 1, w)
        d_cols += col_proj[..., None] * spread
        if params.col_proj.requires_grad:
            T._accum(grads, params.col_proj, (cols @ spread.swapaxes(-1, -2))[..., 0]
                     .sum(axis=(1, 2)).reshape(2 * c), owned=True)
        # the packed pooling: both rows of a pair add into its row weights
        pooled = np.zeros((k, s, c, blocks.shape[-2], w))
        pooled[rows] = d_cols.reshape(2 * p, s, c, w)
        del d_cols  # before the map gradient, whose allocation sets a step's peak
        d_row_w = (pooled @ x.swapaxes(-1, -2)).sum(axis=2)[rows]  # 2P x S x H
        d_row_w = d_row_w[:p] + d_row_w[p:]
        d_row = row_w * (d_row_w - (d_row_w * row_w).sum(axis=-1, keepdims=True))
        # the gather of each pair's row scores, as take's one-hot product
        onehot = (np.stack([a, k + b])[..., None] == np.arange(2 * k)).astype(np.float64)
        d_scores = (onehot.swapaxes(-1, -2) @ d_row.reshape(p, s * h)).sum(axis=0)
        d_scores = d_scores.reshape(2, k, s, 1, h)
        if params.row_proj.requires_grad:
            T._accum(grads, params.row_proj, (means @ d_scores.swapaxes(-1, -2))[..., 0]
                     .sum(axis=(1, 2)).reshape(2 * c), owned=True)
        if maps.requires_grad:
            d_maps = blocks.swapaxes(-1, -2) @ pooled
            d_maps += ((row_proj[..., None] * d_scores).sum(axis=0) * (1.0 / w))[..., None]
            T._accum(grads, maps, d_maps, owned=True)

    g = T._make(data, (maps, params.row_proj, params.col_proj), bw)
    return T.take(g, 0, axis=0), T.take(g, 1, axis=0)


# GLOBAL_PAIRS as indices into MAP_NAMES
_GLOBAL_INDEX = tuple((MAP_NAMES.index(a), MAP_NAMES.index(b)) for a, b in GLOBAL_PAIRS)


def _map_stack(scenes: Sequence[SceneMaps]) -> Tensor:
    """The maps of ``scenes`` as one K x S x C x H x W stack, K over
    MAP_NAMES. The stack copies nothing when the maps are the consecutive
    slices of one buffer, as ``toy_pretrain`` lays them out."""
    leaves = [getattr(scene, name).tensor for name in MAP_NAMES for scene in scenes]
    return T.reshape(T.stack(leaves), (len(MAP_NAMES), len(scenes), *scenes[0].shape))


def global_loss_terms(scenes: Sequence[SceneMaps], config: ContrastiveConfig,
                      params: ContrastiveParams) -> Tensor:
    """The batch InfoNCE of every entry of GLOBAL_PAIRS, as one 6-vector."""
    if len(scenes) < 2:
        raise ValueError(f"global loss needs a batch of >= 2 scenes, got {len(scenes)}")
    g_a, g_b = aggregate_global(_map_stack(scenes), _GLOBAL_INDEX, params.global_agg)
    return info_nce(g_a, g_b, config.tau)


def global_loss(scenes: Sequence[SceneMaps], config: ContrastiveConfig,
                params: ContrastiveParams) -> Tensor:
    return T.tsum(global_loss_terms(scenes, config, params))


# ---------------------------------------------------------------------------
# combined objective and the toy trainer


def total_loss(scenes: Sequence[SceneMaps], config: ContrastiveConfig,
               params: ContrastiveParams, rng: np.random.Generator) -> Tensor:
    """lambda_global * global + mean-over-scenes local on the BEV pair.

    With lambda_global == 0 the global graph is skipped entirely and the
    result is bit-identical to the local term.
    """
    local_mean = T.tmean(T.stack([local_loss(s.rad_bev, s.img_bev, config, params, rng)
                                  for s in scenes]), axis=0)
    if config.lambda_global == 0.0:
        return local_mean
    lg = global_loss(scenes, config, params)
    return T.add(T.mul(lg, Tensor(config.lambda_global)), local_mean)


def similarity_stats(scenes: Sequence[SceneMaps],
                     params: ContrastiveParams) -> tuple[float, float]:
    """Mean same-scene and cross-scene cosine similarity of the aggregated
    global vectors, over the six pairings; no backward runs on the graph it
    builds."""
    g_a, g_b = aggregate_global(_map_stack(scenes), _GLOBAL_INDEX, params.global_agg)
    # P x S x 1 x C against P x 1 x S x C
    sims = _cosines(g_a.data[:, :, None], g_b.data[:, None])[0]
    same = np.eye(sims.shape[1], dtype=bool)
    return float(np.mean(sims[:, same])), float(np.mean(sims[:, ~same]))


@dataclass
class PretrainTrace:
    losses: list[float]
    final_pos_sim: float
    final_neg_sim: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "steps": [{"step": i, "loss": v} for i, v in enumerate(self.losses)],
            "final_pos_sim": self.final_pos_sim,
            "final_neg_sim": self.final_neg_sim,
            "seed": self.seed,
        }


def toy_pretrain(
    batch: Sequence[SceneMaps],
    config: ContrastiveConfig,
    steps: int,
    learning_rate: float,
    seed: int = 0,
) -> tuple[PretrainTrace, ContrastiveParams]:
    """Plain gradient descent on the combined loss over a fixed batch.

    Updates the feature maps themselves and the attention and BCSA
    parameters, which are initialised from ``seed``. Column selection is
    redrawn from the same seed every step, so with learning_rate 0 the trace
    is flat. Raises ValueError for a batch of fewer than two scenes and for
    a NaN, infinite or negative learning rate, and DivergenceError if the
    loss goes non-finite.

    Memory: the maps are copied once per call into one C-contiguous buffer,
    in MAP_NAMES x scenes order, and each map tensor's ``data`` is rebound
    to its slice, so the global loss stacks them without a copy, and that
    stack's gradient becomes the maps' gradients, one slice each (see
    :func:`~pseudoradar.tensor.stack`). The caller's arrays are never
    written. After the call the map tensors hold the trained maps, and each
    one's ``grad`` the last step's unscaled gradient. Every update is done
    in place. Each step's graph is released once its backward is done, so
    one tape is alive at a time.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not 0.0 <= learning_rate < math.inf:
        raise ValueError(f"learning_rate must be finite and >= 0, got {learning_rate!r}")
    scenes = list(batch)
    if len(scenes) < 2:  # the global loss and the cross-scene similarity need two
        raise ValueError(f"toy_pretrain needs a batch of >= 2 scenes, got {len(scenes)}")
    params = ContrastiveParams.init(scenes[0].shape[0], seed)
    maps = [getattr(scene, name).tensor for name in MAP_NAMES for scene in scenes]
    for t, data in zip(maps, np.stack([t.data for t in maps])):
        t.data = data
        t.requires_grad = True
    learnables = params.tensors() + maps

    losses: list[float] = []
    for step in range(steps):
        # a step that overflows ends in DivergenceError, which names it;
        # numpy's floating-point warnings would only bury that line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rng = philox(seed, 0xC0)
            loss = total_loss(scenes, config, params, rng)
            # the last step's gradients go only once this forward has reused
            # the memory the last tape freed: freeing both first lets the
            # allocator hand it all back to the system, to be faulted in again
            T.zero_grad(*learnables)
            value = loss.item()
            if not math.isfinite(value):
                raise DivergenceError(step)
            losses.append(value)
            T.backward(loss)
            del loss  # the tape, so that the next forward starts without it
            for t in learnables:
                if t.grad is not None:
                    np.subtract(t.data, learning_rate * t.grad, out=t.data)

    pos, neg = similarity_stats(scenes, params)
    return PretrainTrace(losses, pos, neg, seed), params
