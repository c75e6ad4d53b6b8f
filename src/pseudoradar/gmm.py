"""Univariate Gaussian mixture over per-frame radar point counts.

Fitted with EM from a k-means++ style seeding. The M-step clamps each
variance at ``VAR_FLOOR``; since clamping maximizes the EM surrogate over
the feasible set, the log-likelihood trace stays non-decreasing even on
degenerate data (for example all counts identical). A fitted mixture is
sampled per frame to pick the target pseudo-radar point count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, ParseError, SchemaError
from .pointcloud import json_number, read_json_object, read_text, write_json
from .rng import philox

VAR_FLOOR = 1e-6
DEFAULT_COMPONENTS = 5
# EM holds several (n, k) arrays and the seeding does O(n k^2) work; the
# paper's mixtures have 4 to 6 components
MAX_COMPONENTS = 64


@dataclass(frozen=True)
class Gmm1D:
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64).reshape(-1)
        m = np.ascontiguousarray(self.means, dtype=np.float64).reshape(-1)
        v = np.ascontiguousarray(self.variances, dtype=np.float64).reshape(-1)
        if not (len(w) == len(m) == len(v)) or len(w) == 0:
            raise ValueError("weights, means, variances must share a positive length")
        if not (np.isfinite(w).all() and np.isfinite(m).all() and np.isfinite(v).all()):
            raise ValueError("mixture parameters must be finite")
        if abs(w.sum() - 1.0) > 1e-9 or (w <= 0).any():
            raise ValueError(f"weights must be positive and sum to 1, got sum {w.sum()!r}")
        if (v < VAR_FLOOR).any():
            raise ValueError(f"variances must be >= {VAR_FLOOR}")
        for arr in (w, m, v):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def mean(self) -> float:
        return float((self.weights * self.means).sum())


@dataclass(frozen=True)
class FitResult:
    model: Gmm1D
    ll_trace: list[float]
    weight_sums: list[float]
    n_iter: int
    converged: bool


def _log_densities(x, weights, means, variances):
    """Per-point component log joints and their logsumexp."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    var = variances.reshape(1, -1)
    logp = (
        np.log(weights.reshape(1, -1))
        - 0.5 * np.log(2.0 * math.pi * var)
        - (x - means.reshape(1, -1)) ** 2 / (2.0 * var)
    )
    top = logp.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.exp(logp - top).sum(axis=1))
    return logp, lse


def _seed_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding on the 1-D sample."""
    centers = [x[rng.integers(len(x))]]
    for _ in range(k - 1):
        d2 = np.min((x.reshape(-1, 1) - np.asarray(centers).reshape(1, -1)) ** 2, axis=1)
        total = d2.sum()
        if total == 0.0:
            centers.append(x[rng.integers(len(x))])
        else:
            centers.append(x[rng.choice(len(x), p=d2 / total)])
    return np.asarray(centers, dtype=np.float64)


def fit_em(counts, k: int, tol: float = 1e-6, max_iter: int = 200,
           seed: int = 0) -> FitResult:
    """Fit a k-component mixture to positive counts by EM.

    Deterministic for a fixed seed. The returned trace holds one
    log-likelihood per iteration, evaluated before that iteration's M-step,
    and is non-decreasing up to 1e-9 slack. Raises ValueError naming a
    component count outside [1, MAX_COMPONENTS], ``max_iter`` below 1 or a
    ``tol`` that is negative or not finite, before it builds any array.
    """
    x = np.asarray(counts, dtype=np.float64).reshape(-1)
    if not 1 <= k <= MAX_COMPONENTS:
        raise ValueError(f"component count must be in [1, {MAX_COMPONENTS}], got {k}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if (x <= 0).any():
        raise ValueError("counts must be positive")
    if len(x) < k:
        raise InsufficientDataError(f"{len(x)} counts cannot support {k} components")

    rng = philox(seed, 0)
    centers = _seed_centers(x, k, rng)
    assign = np.argmin(np.abs(x.reshape(-1, 1) - centers.reshape(1, -1)), axis=1)
    global_var = max(float(x.var()), VAR_FLOOR)
    weights = np.zeros(k)
    means = np.zeros(k)
    variances = np.zeros(k)
    for c in range(k):
        members = x[assign == c]
        if len(members) == 0:
            weights[c] = 1e-6
            means[c] = centers[c]
            variances[c] = global_var
        else:
            weights[c] = len(members)
            means[c] = members.mean()
            variances[c] = max(float(members.var()), VAR_FLOOR)
    weights = weights / weights.sum()

    trace: list[float] = []
    weight_sums: list[float] = []
    converged = False
    n_iter = 0
    for it in range(max_iter):
        logp, lse = _log_densities(x, weights, means, variances)
        ll = float(lse.sum())
        trace.append(ll)
        n_iter = it + 1
        if it > 0 and ll - trace[-2] < tol:
            converged = True
            break
        resp = np.exp(logp - lse.reshape(-1, 1))
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-300)
        weights = nk / len(x)
        weights = weights / weights.sum()
        means = (resp * x.reshape(-1, 1)).sum(axis=0) / nk
        variances = (resp * (x.reshape(-1, 1) - means.reshape(1, -1)) ** 2).sum(axis=0) / nk
        variances = np.maximum(variances, VAR_FLOOR)
        weight_sums.append(float(weights.sum()))

    return FitResult(Gmm1D(weights, means, variances), trace, weight_sums,
                     n_iter, converged)


def sample_count(model: Gmm1D, rng: np.random.Generator) -> int:
    """Draw one frame's target point count: pick a component by weight, draw a
    Gaussian, round, and clamp to >= 2 so the two-stage split stays valid."""
    comp = int(rng.choice(model.n_components, p=model.weights))
    value = rng.normal(model.means[comp], math.sqrt(model.variances[comp]))
    return max(2, int(np.rint(value)))


def save_gmm(model: Gmm1D, path: str | Path) -> None:
    doc = {
        "components": [
            {"weight": float(w), "mean": float(m), "var": float(v)}
            for w, m, v in zip(model.weights, model.means, model.variances)
        ]
    }
    write_json(path, doc)


def load_gmm(path: str | Path) -> Gmm1D:
    comps = read_json_object(path).get("components")
    if not isinstance(comps, list) or not comps:
        raise SchemaError(f"{path}: 'components' must be a non-empty list")
    rows = []
    for i, comp in enumerate(comps):
        if not isinstance(comp, dict):
            raise SchemaError(f"{path}: component {i} must be an object, got {comp!r}")
        for key in ("weight", "mean", "var"):
            if key not in comp:
                raise SchemaError(f"{path}: component {i} needs {key!r}")
            rows.append(float(json_number(comp[key], f"{path}: component {i} {key}")))
    w, m, v = np.array(rows).reshape(-1, 3).T
    try:
        return Gmm1D(w, m, v)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_counts(path: str | Path) -> list[int]:
    """The per-frame point counts of ``path``, one positive integer a line;
    blank lines are skipped. A line that is not a positive integer of
    float64 range raises ParseError naming the file and the line."""
    counts = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            value = int(raw)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from exc  # or past 4,300 digits
        if not 0 < value <= sys.float_info.max:  # the fit works in float64
            raise ParseError(f"{path}: a count must be positive and within float64 "
                             f"range, got {raw!r}", line=lineno)
        counts.append(value)
    return counts
