"""Reference implementation of the contrastive losses, built one scalar at
a time: every cosine is its own subgraph, every window of every sampled
column is matched on its own, and every scene is aggregated on its own.

This is the loss stack as it was before the matrix form, kept only so that
tests can compare the batched code in ``pseudoradar.contrastive`` against
it, together with the op chains that the package fuses into single nodes:
the matcher's window attention and BCSA's attention and gated layer-norm
blend. It is slow by design and is not part of the package. The tape ops
that only it needs (div, sqrt, concat, layer_norm, softmax and the batched
cosine similarity) are defined here on the engine's node maker, not in
``pseudoradar.tensor``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from pseudoradar import tensor as T
from pseudoradar.contrastive import (GLOBAL_PAIRS, LAYER_NORM_EPS, MATCH_TIE_TOL,
                                     BcsaParams, ContrastiveConfig, ContrastiveParams,
                                     FeatureMap, GlobalAggParams, SceneMaps)
from pseudoradar.tensor import Tensor


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def bw(g, grads):
        if a.requires_grad:
            T._accum(grads, a, g / b.data)
        if b.requires_grad:
            T._accum(grads, b, -g * a.data / (b.data * b.data))

    return T._make(data, (a, b), bw)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def bw(g, grads):
        T._accum(grads, a, g * 0.5 * a.data ** -0.5)

    return T._make(data, (a,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise T.ShapeError("concat of an empty list")
    ref = ts[0].shape
    for t in ts[1:]:
        if len(t.shape) != len(ref) or any(
            t.shape[i] != ref[i] for i in range(len(ref)) if i != axis % len(ref)
        ):
            raise T.ShapeError(f"concat shapes differ off axis {axis}: {ref} vs {t.shape}")
    data = np.concatenate([t.data for t in ts], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in ts])

    def bw(g, grads):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            T._accum(grads, t, g[tuple(sl)])

    return T._make(data, ts, bw)


def layer_norm(a: Tensor, axis: int = -1) -> Tensor:
    """Zero-mean unit-variance normalization of each slice along ``axis``,
    with the biased variance plus ``LAYER_NORM_EPS``; the backward is the
    closed form of Ba, Kiros and Hinton (arXiv:1607.06450)."""
    inv_n = 1.0 / a.data.shape[axis]
    centered = a.data - a.data.sum(axis=axis, keepdims=True) * inv_n
    std = np.sqrt((centered * centered).sum(axis=axis, keepdims=True) * inv_n
                  + LAYER_NORM_EPS)
    data = centered / std

    def bw(g, grads):
        mean_g = g.sum(axis=axis, keepdims=True) * inv_n
        mean_gx = (g * data).sum(axis=axis, keepdims=True) * inv_n
        T._accum(grads, a, (g - mean_g - data * mean_gx) / std)

    return T._make(data, (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, max-shifted so no exponent overflows.

    Masked slots set to -inf get probability 0 and gradient 0.
    """
    if a.data.ndim == 0:
        raise T.ShapeError("softmax needs at least rank 1")
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g, grads):
        T._accum(grads, a, data * (g - (g * data).sum(axis=axis, keepdims=True)))

    return T._make(data, (a,), bw)


def batched_cosine_sim(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of the vectors along the last axis, which is reduced.

    The other axes broadcast, so one call scores many pairs. ``NORM_EPS``
    is added to both norms, so a zero vector has similarity 0 to everything
    and the value always lies strictly inside [-1, 1].
    """
    if a.data.ndim == 0 or b.data.ndim == 0 or a.shape[-1] != b.shape[-1]:
        raise T.ShapeError(f"batched_cosine_sim needs equal last axes, "
                           f"got {a.shape} and {b.shape}")
    na, nb = T._norm(a.data), T._norm(b.data)
    da, db = na + T.NORM_EPS, nb + T.NORM_EPS
    full = (a.data * b.data).sum(axis=-1, keepdims=True) / (da * db)

    def bw(g, grads):
        g = g[..., None]
        if a.requires_grad:
            T._accum(grads, a, g * (b.data / (da * db) - full / da * T._unit(a.data, na)))
        if b.requires_grad:
            T._accum(grads, b, g * (a.data / (da * db) - full / db * T._unit(b.data, nb)))

    return T._make(full[..., 0], (a, b), bw)


def stack_scalars(scalars: Sequence[Tensor]) -> Tensor:
    return concat([T.reshape(s, (1,)) for s in scalars], axis=0)


def cosine_sim(a: Tensor, b: Tensor, eps: float = 1e-12) -> Tensor:
    num = T.tsum(T.mul(a, b))
    na = sqrt(T.tsum(T.mul(a, a)))
    nb = sqrt(T.tsum(T.mul(b, b)))
    return div(num, T.mul(T.add(na, Tensor(eps)), T.add(nb, Tensor(eps))))


def info_nce(anchors: Sequence[Tensor], candidates: Sequence[Tensor], tau: float) -> Tensor:
    n = len(anchors)
    inv_tau = Tensor(1.0 / tau)
    terms = []
    for i in range(n):
        row = stack_scalars(
            [T.mul(cosine_sim(anchors[i], candidates[j]), inv_tau) for j in range(n)]
        )
        pos = T.take(row, i, axis=0)
        terms.append(T.sub(pos, T.logsumexp(row, axis=0)))
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return T.mul(total, Tensor(-1.0 / n))


def window_aggregates(cols: Tensor, inside: np.ndarray, label: np.ndarray) -> Tensor:
    """The op chain that ``contrastive._window_aggregates`` computes as one
    node: each window of flat columns (..., r, D) attends over its columns
    by softmax of their cosine to the label column, masked slots excluded."""
    select = np.arange(inside.shape[-1]) == label[..., None]
    query = T.weighted_sum(cols, Tensor(select), axis=-2)
    sims = batched_cosine_sim(T.reshape(query, (*query.shape[:-1], 1, query.shape[-1])), cols)
    attn = softmax(T.add(sims, Tensor(np.where(inside, 0.0, -np.inf))), axis=-1)
    return T.weighted_sum(cols, attn, axis=-2)


def sliding_window_match(anchor_col: Tensor, search_map: Tensor, j: int,
                         search_width: int, window_width: int) -> tuple[int, Tensor]:
    c, h, w = search_map.shape
    anchor_flat = T.reshape(anchor_col, (c * h,))
    half_span = search_width - window_width
    base = j - (search_width - 1) // 2
    windows = []  # (score, |delta|, delta, aggregate) in window order
    for start in range(base, base + half_span + 1):
        center = start + (window_width - 1) // 2
        cols = [col for col in range(start, start + window_width) if 0 <= col < w]
        if not cols:
            continue
        col_tensors = [T.reshape(T.take(search_map, col, axis=2), (c * h,)) for col in cols]
        query_col = min(cols, key=lambda col: (abs(col - center), col))
        query = col_tensors[cols.index(query_col)]
        sims = stack_scalars([cosine_sim(query, ct) for ct in col_tensors])
        attn = softmax(sims, axis=0)
        agg = T.mul(T.take(attn, 0, axis=0), col_tensors[0])
        for t in range(1, len(cols)):
            agg = T.add(agg, T.mul(T.take(attn, t, axis=0), col_tensors[t]))
        delta = query_col - j
        windows.append((cosine_sim(anchor_flat, agg).item(), abs(delta), delta, agg))
    # scores within MATCH_TIE_TOL of the best tie; min keeps the earlier window
    top = max(window[0] for window in windows)
    _, _, delta, agg = min((window for window in windows if window[0] >= top - MATCH_TIE_TOL),
                           key=lambda window: window[1:3])
    return delta, T.reshape(agg, (c, h))


def attend(q: Tensor, k_t: Tensor, v: Tensor) -> Tensor:
    """The op chain that ``contrastive._attend`` computes as one node:
    softmax(q k_t / sqrt(d)) v over the trailing two axes."""
    scores = T.mul(T.matmul(q, k_t), Tensor(1.0 / math.sqrt(q.shape[-1])))
    return T.matmul(softmax(scores, axis=-1), v)


def _ln_affine(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    normed = layer_norm(x, axis=0)
    c = x.shape[0]
    return T.add(T.mul(normed, T.reshape(gain, (c, 1))), T.reshape(bias, (c, 1)))


def _bcsa_one(fi: Tensor, fj: Tensor, params: BcsaParams) -> Tensor:
    sp_out = attend(T.transpose_last2(fi), fj, T.transpose_last2(fj))
    spatial = _ln_affine(T.transpose_last2(sp_out),
                         params.ln_spatial_gain, params.ln_spatial_bias)
    channel = _ln_affine(attend(fi, T.transpose_last2(fj), fj),
                         params.ln_channel_gain, params.ln_channel_bias)
    gate = T.reshape(T.sigmoid(params.gate_logits), (fi.shape[0], 1))
    return T.add(T.mul(gate, spatial), T.mul(T.sub(Tensor(1.0), gate), channel))


def bcsa(f1: Tensor, f2: Tensor, params: BcsaParams) -> tuple[Tensor, Tensor]:
    return _bcsa_one(f1, f2, params), _bcsa_one(f2, f1, params)


def bcsa_chain(f1: Tensor, f2: Tensor, params: BcsaParams) -> tuple[Tensor, Tensor]:
    """BCSA on N x C x D stacks as the op chain that ``contrastive.bcsa``
    fuses: each direction's two ``attend`` chains, then the layer norms,
    affines and gate, one op at a time."""
    c = f1.shape[1]
    sp_gain, sp_bias, ch_gain, ch_bias, logits = (T.reshape(p, (c, 1))
                                                  for p in params.tensors())
    gate = T.sigmoid(logits)
    rest = T.sub(Tensor(1.0), gate)
    t1, t2 = T.transpose_last2(f1), T.transpose_last2(f2)

    def refine(f_i, t_i, f_j, t_j):
        spatial = layer_norm(T.transpose_last2(attend(t_i, f_j, t_j)), axis=-2)
        channel = layer_norm(attend(f_i, t_j, f_j), axis=-2)
        return T.add(T.mul(gate, T.add(T.mul(spatial, sp_gain), sp_bias)),
                     T.mul(rest, T.add(T.mul(channel, ch_gain), ch_bias)))

    return refine(f1, t1, f2, t2), refine(f2, t2, f1, t1)


def local_loss(f_rad: FeatureMap, f_img: FeatureMap, config: ContrastiveConfig,
               params: ContrastiveParams, rng: np.random.Generator) -> Tensor:
    c, h, w = f_rad.shape
    columns = rng.choice(w, size=config.batch_size, replace=False)
    anchors, candidates = [], []
    for j in columns:
        anchor = T.take(f_rad.tensor, int(j), axis=2)
        _, cand = sliding_window_match(anchor, f_img.tensor, int(j),
                                       config.search_width, config.window_width)
        a_ref, c_ref = bcsa(anchor, cand, params.bcsa)
        anchors.append(T.reshape(a_ref, (c * h,)))
        candidates.append(T.reshape(c_ref, (c * h,)))
    return info_nce(anchors, candidates, config.tau)


def aggregate_global(f_a: Tensor, f_b: Tensor,
                     params: GlobalAggParams) -> tuple[Tensor, Tensor]:
    c, h, w = f_a.shape
    cat = concat([f_a, f_b], axis=0)
    row_desc = T.tmean(cat, axis=2)
    row_scores = T.reshape(T.matmul(T.reshape(params.row_proj, (1, 2 * c)), row_desc), (h,))
    row_w = T.reshape(softmax(row_scores, axis=0), (1, h, 1))
    a_cols = T.tsum(T.mul(f_a, row_w), axis=1)
    b_cols = T.tsum(T.mul(f_b, row_w), axis=1)
    cat_cols = concat([a_cols, b_cols], axis=0)
    col_scores = T.reshape(T.matmul(T.reshape(params.col_proj, (1, 2 * c)), cat_cols), (w,))
    col_w = T.reshape(softmax(col_scores, axis=0), (1, w))
    return T.tsum(T.mul(a_cols, col_w), axis=1), T.tsum(T.mul(b_cols, col_w), axis=1)


def global_loss_terms(scenes: Sequence[SceneMaps], config: ContrastiveConfig,
                      params: ContrastiveParams) -> list[Tensor]:
    terms = []
    for name_a, name_b in GLOBAL_PAIRS:
        g_as, g_bs = [], []
        for scene in scenes:
            g_a, g_b = aggregate_global(getattr(scene, name_a).tensor,
                                        getattr(scene, name_b).tensor, params.global_agg)
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


def total_loss(scenes: Sequence[SceneMaps], config: ContrastiveConfig,
               params: ContrastiveParams, rng: np.random.Generator) -> Tensor:
    locals_ = [local_loss(s.rad_bev, s.img_bev, config, params, rng) for s in scenes]
    local_mean = locals_[0]
    for t in locals_[1:]:
        local_mean = T.add(local_mean, t)
    local_mean = T.mul(local_mean, Tensor(1.0 / len(locals_)))
    if config.lambda_global == 0.0:
        return local_mean
    lg = global_loss(scenes, config, params)
    return T.add(T.mul(lg, Tensor(config.lambda_global)), local_mean)
