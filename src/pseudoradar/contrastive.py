"""Dual-stage dual-modality contrastive losses on the tensor engine.

The local path picks feature columns from a radar map, finds each one's best
matching window in the image map by sliding a width-r window over a width-R
search area, refines the pair with bidirectional channel-spatial attention
(BCSA), and scores the batch with a temperature-scaled InfoNCE. The global
path collapses each C x H x W map to a C-vector by shared row then column
attention over the channel-concatenated pair, and sums InfoNCE terms over
the six modality/view pairings. The combined objective is
``lambda_global * global + local``.

Everything here is differentiable end to end; the gradcheck command and the
test suite verify every gradient against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .errors import DivergenceError
from .rng import philox
from .tensor import Tensor

MODALITIES = ("radar", "image")
VIEWS = ("bev", "fv")

# the six aggregated pairings scored by the global loss
GLOBAL_PAIRS = (
    ("img_bev", "img_fv"),
    ("img_bev", "rad_fv"),
    ("img_fv", "rad_fv"),
    ("img_bev", "rad_bev"),
    ("img_fv", "rad_bev"),
    ("rad_bev", "rad_fv"),
)


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


# ---------------------------------------------------------------------------
# InfoNCE


def info_nce(anchors: Sequence[Tensor], candidates: Sequence[Tensor],
             tau: float) -> Tensor:
    """-(1/N) sum_i log( exp(sim(a_i, c_i)/tau) / sum_j exp(sim(a_i, c_j)/tau) ).

    sim is cosine similarity, so the loss is invariant to positive rescaling
    of any single vector. Always >= 0; exactly ln N when all similarities
    coincide; 0 for N = 1.
    """
    if len(anchors) != len(candidates):
        raise ValueError(f"{len(anchors)} anchors vs {len(candidates)} candidates")
    n = len(anchors)
    if n < 1:
        raise ValueError("info_nce needs at least one pair")
    dim = anchors[0].shape
    for v in list(anchors) + list(candidates):
        if v.data.ndim != 1 or v.shape != dim:
            raise ValueError(f"expected 1-D vectors of shape {dim}, got {v.shape}")
    inv_tau = Tensor(1.0 / tau)
    terms = []
    for i in range(n):
        row = T.stack_scalars(
            [T.mul(T.cosine_sim(anchors[i], candidates[j]), inv_tau) for j in range(n)]
        )
        pos = T.take(row, i, axis=0)
        terms.append(T.sub(pos, T.logsumexp(row, axis=0)))
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return T.mul(total, Tensor(-1.0 / n))


# ---------------------------------------------------------------------------
# sliding-window positive matching


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
    ties prefer smaller |offset|, then the smaller offset.
    """
    if not (1 <= window_width < search_width):
        raise ValueError(f"need 1 <= r < R, got r={window_width}, R={search_width}")
    c, h, w = search_map.shape
    if anchor_col.shape != (c, h):
        raise ValueError(f"anchor shape {anchor_col.shape} does not match map {search_map.shape}")
    if not (0 <= j < w):
        raise ValueError(f"column index {j} outside [0, {w})")

    anchor_flat = T.reshape(anchor_col, (c * h,))
    half_span = search_width - window_width  # candidate start positions - 1
    base = j - (search_width - 1) // 2
    best: tuple[float, int, int] | None = None  # (-score, |delta|, delta)
    best_agg: Tensor | None = None
    for start in range(base, base + half_span + 1):
        center = start + (window_width - 1) // 2
        cols = [col for col in range(start, start + window_width) if 0 <= col < w]
        if not cols:
            continue
        col_tensors = [T.reshape(T.take(search_map, col, axis=2), (c * h,)) for col in cols]
        # a clipped border window is represented (and labeled) by the surviving
        # column nearest its nominal center
        query_col = min(cols, key=lambda col: (abs(col - center), col))
        query = col_tensors[cols.index(query_col)]
        sims = T.stack_scalars([T.cosine_sim(query, ct) for ct in col_tensors])
        attn = T.softmax(sims, axis=0)
        agg = T.mul(T.take(attn, 0, axis=0), col_tensors[0])
        for t in range(1, len(cols)):
            agg = T.add(agg, T.mul(T.take(attn, t, axis=0), col_tensors[t]))
        delta = query_col - j
        score = T.cosine_sim(anchor_flat, agg).item()
        key = (-score, abs(delta), delta)
        if best is None or key < best:
            best = key
            best_agg = agg
    assert best is not None and best_agg is not None
    return best[2], T.reshape(best_agg, (c, h))


# ---------------------------------------------------------------------------
# BCSA refinement


def mat_attention(q: Tensor, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
    """softmax(q k^T / sqrt(d_k)) v for 2-D (sequence x feature) operands.

    Returns (output, attention); every attention row sums to 1.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ValueError("mat_attention expects 2-D operands")
    d_k = q.shape[1]
    if k.shape[1] != d_k or k.shape[0] != v.shape[0]:
        raise ValueError(f"attention shapes do not align: {q.shape}, {k.shape}, {v.shape}")
    scores = T.mul(T.matmul(q, T.transpose_last2(k)), Tensor(1.0 / math.sqrt(d_k)))
    attn = T.softmax(scores, axis=1)
    return T.matmul(attn, v), attn


def _ln_affine(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer norm over the channel axis of a C x D slab, per-channel affine."""
    normed = T.layer_norm(x, axis=0)
    c = x.shape[0]
    return T.add(T.mul(normed, T.reshape(gain, (c, 1))), T.reshape(bias, (c, 1)))


def _bcsa_one(fi: Tensor, fj: Tensor, params: BcsaParams) -> Tensor:
    # spatial branch: positions attend over the partner's positions
    sp_out, _ = mat_attention(T.transpose_last2(fi), T.transpose_last2(fj),
                              T.transpose_last2(fj))
    spatial = _ln_affine(T.transpose_last2(sp_out),
                         params.ln_spatial_gain, params.ln_spatial_bias)
    # channel branch: channels attend over the partner's channels
    ch_out, _ = mat_attention(fi, fj, fj)
    channel = _ln_affine(ch_out, params.ln_channel_gain, params.ln_channel_bias)
    gate = T.reshape(T.sigmoid(params.gate_logits), (fi.shape[0], 1))
    return T.add(T.mul(gate, spatial), T.mul(T.sub(Tensor(1.0), gate), channel))


def bcsa(f1: Tensor, f2: Tensor, params: BcsaParams) -> tuple[Tensor, Tensor]:
    """Bidirectional channel-spatial attention over a C x D feature pair.

    Each side is refined by cross-attending to the other along the spatial
    axis and, transposed, along the channel axis; both branches are
    layer-normed and fused by a per-channel sigmoid gate into a convex
    combination. Output shapes equal input shapes.
    """
    if f1.data.ndim != 2 or f1.shape != f2.shape:
        raise ValueError(f"bcsa needs matching C x D inputs, got {f1.shape} and {f2.shape}")
    if f1.shape[0] != params.gate_logits.shape[0]:
        raise ValueError(
            f"params sized for {params.gate_logits.shape[0]} channels, input has {f1.shape[0]}"
        )
    return _bcsa_one(f1, f2, params), _bcsa_one(f2, f1, params)


# ---------------------------------------------------------------------------
# local loss


def local_loss(f_rad: FeatureMap, f_img: FeatureMap, config: ContrastiveConfig,
               params: ContrastiveParams, rng: np.random.Generator) -> Tensor:
    """Column InfoNCE between a radar map and an image map.

    batch_size columns are drawn uniformly without replacement; each radar
    column anchors a sliding-window match into the image map, both sides are
    refined by BCSA, and the flattened refined pairs feed InfoNCE.
    """
    if f_rad.shape != f_img.shape:
        raise ValueError(f"shape mismatch: radar {f_rad.shape} vs image {f_img.shape}")
    c, h, w = f_rad.shape
    n = config.batch_size
    if n > w:
        raise ValueError(f"batch_size {n} exceeds map width {w}")
    columns = rng.choice(w, size=n, replace=False)
    anchors: list[Tensor] = []
    candidates: list[Tensor] = []
    for j in columns:
        anchor = T.take(f_rad.tensor, int(j), axis=2)
        _, cand = sliding_window_match(anchor, f_img.tensor, int(j),
                                       config.search_width, config.window_width)
        a_ref, c_ref = bcsa(anchor, cand, params.bcsa)
        anchors.append(T.reshape(a_ref, (c * h,)))
        candidates.append(T.reshape(c_ref, (c * h,)))
    return info_nce(anchors, candidates, config.tau)


# ---------------------------------------------------------------------------
# global loss


def aggregate_global(f_a: Tensor, f_b: Tensor,
                     params: GlobalAggParams) -> tuple[Tensor, Tensor]:
    """Collapse two C x H x W maps to C-vectors with shared attention.

    Row scores come from projecting the mean-over-width descriptors of the
    channel-concatenated pair and softmax over H; the weighted row sum gives
    each map a C x W slab. Column scores repeat the trick over W. Both
    weight vectors sum to 1, so a constant map aggregates to its cell value.
    """
    if f_a.data.ndim != 3 or f_a.shape != f_b.shape:
        raise ValueError(f"aggregate_global needs matching C x H x W maps, "
                         f"got {f_a.shape} and {f_b.shape}")
    c, h, w = f_a.shape
    if params.row_proj.shape != (2 * c,):
        raise ValueError(f"params sized for {params.row_proj.shape[0] // 2} channels, "
                         f"maps have {c}")
    cat = T.concat([f_a, f_b], axis=0)
    row_desc = T.tmean(cat, axis=2)  # 2C x H
    row_scores = T.reshape(T.matmul(T.reshape(params.row_proj, (1, 2 * c)), row_desc), (h,))
    row_w = T.reshape(T.softmax(row_scores, axis=0), (1, h, 1))
    a_cols = T.tsum(T.mul(f_a, row_w), axis=1)  # C x W
    b_cols = T.tsum(T.mul(f_b, row_w), axis=1)
    cat_cols = T.concat([a_cols, b_cols], axis=0)  # 2C x W
    col_scores = T.reshape(T.matmul(T.reshape(params.col_proj, (1, 2 * c)), cat_cols), (w,))
    col_w = T.reshape(T.softmax(col_scores, axis=0), (1, w))
    g_a = T.tsum(T.mul(a_cols, col_w), axis=1)
    g_b = T.tsum(T.mul(b_cols, col_w), axis=1)
    return g_a, g_b


def global_loss_terms(scenes: Sequence[SceneMaps], config: ContrastiveConfig,
                      params: ContrastiveParams) -> list[Tensor]:
    """One batch InfoNCE term per entry of GLOBAL_PAIRS."""
    if len(scenes) < 2:
        raise ValueError(f"global loss needs a batch of >= 2 scenes, got {len(scenes)}")
    terms = []
    for name_a, name_b in GLOBAL_PAIRS:
        g_as, g_bs = [], []
        for scene in scenes:
            g_a, g_b = aggregate_global(getattr(scene, name_a).tensor,
                                        getattr(scene, name_b).tensor,
                                        params.global_agg)
            g_as.append(g_a)
            g_bs.append(g_b)
        terms.append(info_nce(g_as, g_bs, config.tau))
    return terms


def global_loss(scenes: Sequence[SceneMaps], config: ContrastiveConfig,
                params: ContrastiveParams) -> Tensor:
    terms = global_loss_terms(scenes, config, params)
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return total


# ---------------------------------------------------------------------------
# combined objective and the toy trainer


def total_loss(scenes: Sequence[SceneMaps], config: ContrastiveConfig,
               params: ContrastiveParams, rng: np.random.Generator) -> Tensor:
    """lambda_global * global + mean-over-scenes local on the BEV pair.

    With lambda_global == 0 the global graph is skipped entirely and the
    result is bit-identical to the local term.
    """
    locals_ = [local_loss(s.rad_bev, s.img_bev, config, params, rng) for s in scenes]
    local_mean = locals_[0]
    for t in locals_[1:]:
        local_mean = T.add(local_mean, t)
    local_mean = T.mul(local_mean, Tensor(1.0 / len(locals_)))
    if config.lambda_global == 0.0:
        return local_mean
    lg = global_loss(scenes, config, params)
    return T.add(T.mul(lg, Tensor(config.lambda_global)), local_mean)


def similarity_stats(scenes: Sequence[SceneMaps],
                     params: ContrastiveParams) -> tuple[float, float]:
    """Mean same-scene and cross-scene cosine similarity of the aggregated
    global vectors, over the six pairings. Gradient-free."""
    pos, neg = [], []
    for name_a, name_b in GLOBAL_PAIRS:
        gs = []
        for scene in scenes:
            g_a, g_b = aggregate_global(getattr(scene, name_a).tensor.detach(),
                                        getattr(scene, name_b).tensor.detach(),
                                        params.global_agg)
            gs.append((g_a.data, g_b.data))
        for i, (ga_i, _) in enumerate(gs):
            for k, (_, gb_k) in enumerate(gs):
                denom = (np.linalg.norm(ga_i) + 1e-12) * (np.linalg.norm(gb_k) + 1e-12)
                sim = float(np.dot(ga_i, gb_k) / denom)
                (pos if i == k else neg).append(sim)
    return float(np.mean(pos)), float(np.mean(neg))


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
    batch: Sequence[SceneMaps] | Callable[[], Sequence[SceneMaps]],
    config: ContrastiveConfig,
    steps: int,
    learning_rate: float,
    seed: int = 0,
    train_features: bool = True,
    params: ContrastiveParams | None = None,
) -> tuple[PretrainTrace, ContrastiveParams]:
    """Plain gradient descent on the combined loss over a fixed batch.

    Updates the attention and BCSA parameters and, by default, the feature
    maps themselves. Column selection is redrawn from the same seed every
    step, so with learning_rate 0 the trace is flat. Raises DivergenceError
    if the loss goes non-finite.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    scenes = list(batch() if callable(batch) else batch)
    if not scenes:
        raise ValueError("empty batch")
    channels = scenes[0].shape[0]
    if params is None:
        params = ContrastiveParams.init(channels, seed)
    learnables = params.tensors()
    if train_features:
        for scene in scenes:
            for name in ("img_bev", "img_fv", "rad_bev", "rad_fv"):
                t = getattr(scene, name).tensor
                t.requires_grad = True
                learnables.append(t)

    losses: list[float] = []
    for step in range(steps):
        rng = philox(seed, 0xC0)
        T.zero_grad(*learnables)
        loss = total_loss(scenes, config, params, rng)
        value = loss.item()
        if not math.isfinite(value):
            raise DivergenceError(step)
        losses.append(value)
        T.backward(loss)
        for t in learnables:
            if t.grad is not None:
                t.data = t.data - learning_rate * t.grad

    pos, neg = similarity_stats(scenes, params)
    return PretrainTrace(losses, pos, neg, seed), params
