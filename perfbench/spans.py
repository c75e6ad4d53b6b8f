"""Spans around the package's public functions, recorded from outside it.

A :class:`Tracer` replaces each listed function's attribute in the module
that calls it with a timing wrapper, so spans follow the real call path
without any change to ``src/``. Each span records a name, start, end, parent
span and run id; counts are recorded at the same call boundaries. Spans stay
in memory and are written out once, when the run ends.

Per-layer metrics are self times (a span's duration minus its direct
children's), summed over the root span kind they fall under and divided by
the work units the workload did there.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from pathlib import Path

OP_ROOT = "bench.op"
SETUP_ROOT = "bench.setup"
HOOK = "trace.hook"


def _count_thin(args, kwargs, result):
    return {"thin_in": len(args[0]), "thin_kept": len(result)}


def _count_kdtree(args, kwargs, result):
    return {"kdtree_builds": 1}


def _count_sparsity(args, kwargs, result):
    return {"knn_queries": len(args[0])}


def _count_draw(args, kwargs, result):
    return {"draws": 1, "fallbacks": int(result.fallback_stage1)}


def _count_flow(args, kwargs, result):
    return {"flow_queries": args[0].n_points}


def _count_fit(args, kwargs, result):
    return {"fits": 1, "em_iters": result.n_iter}


def _corpus_bytes(dirpath: Path, manifest: dict) -> int:
    paths = [dirpath / "manifest.json"] + [dirpath / e["path"] for e in manifest["frames"]]
    return sum(p.stat().st_size for p in paths)


def _count_read(args, kwargs, result):
    dirpath = Path(args[0])
    manifest = json.loads((dirpath / "manifest.json").read_text(encoding="utf-8"))
    return {"bytes_read": _corpus_bytes(dirpath, manifest)}


def _count_write(args, kwargs, result):
    return {"bytes_written": _corpus_bytes(Path(args[0]), result)}


def _count_chamfer(args, kwargs, result):
    return {"nn_queries": sum(f.n_points for f in args[0]) + sum(f.n_points for f in args[1])}


def _count_windows(args, kwargs, result):
    """Candidate windows the matcher scores; clipped windows with no column
    inside the map are skipped, exactly as the matcher skips them."""
    search_map, j, search_width, window_width = args[1], args[2], args[3], args[4]
    w = search_map.shape[2]
    base = j - (search_width - 1) // 2
    starts = range(base, base + search_width - window_width + 1)
    return {"matcher_windows": sum(1 for s in starts if s + window_width > 0 and s < w)}


def _count_nodes(args, kwargs, result):
    """Tape nodes of the loss graph, walked the way backward walks it."""
    seen = {id(args[0])}
    stack = [args[0]]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return {"tape_nodes": len(seen), "backwards": 1}


# (module, attribute, hook). The attribute is replaced in the module that
# calls it; the span is named after the function's defining module.
TARGETS = (
    ("pseudoradar.sampling", "lidar_to_radar", None),
    ("pseudoradar.sampling", "thin_redundant", _count_thin),
    ("pseudoradar.sampling", "KdTree", _count_kdtree),
    ("pseudoradar.sampling", "sparsity_weights", _count_sparsity),
    ("pseudoradar.sampling", "intensity_weights", None),
    ("pseudoradar.sampling", "distance_weights", None),
    ("pseudoradar.sampling", "combine_weights", None),
    ("pseudoradar.sampling", "sample_count", None),
    ("pseudoradar.sampling", "two_stage_sample", _count_draw),
    ("pseudoradar.sampling", "nn_flow_estimate", _count_flow),
    ("pseudoradar.sampling", "with_velocity", None),
    ("pseudoradar.sampling", "map_to_plane", None),
    ("pseudoradar.metrics", "KdTree", _count_kdtree),
    ("pseudoradar.gmm", "fit_em", _count_fit),
    ("pseudoradar.pointcloud", "write_corpus", _count_write),
    ("pseudoradar.cli", "main", None),
    ("pseudoradar.cli", "lidar_to_radar", None),
    ("pseudoradar.cli", "load_corpus", _count_read),
    ("pseudoradar.cli", "write_corpus", _count_write),
    ("pseudoradar.cli", "mean_chamfer", _count_chamfer),
    ("pseudoradar.contrastive", "toy_pretrain", None),
    ("pseudoradar.contrastive", "local_loss", None),
    ("pseudoradar.contrastive", "sliding_window_match", _count_windows),
    ("pseudoradar.contrastive", "bcsa", None),
    ("pseudoradar.contrastive", "info_nce", None),
    ("pseudoradar.contrastive", "global_loss", None),
    ("pseudoradar.contrastive", "aggregate_global", None),
    ("pseudoradar.tensor", "backward", _count_nodes),
)

# per-layer time metric -> span names whose self time it sums; info_nce and
# aggregate_global are split by the loss they run under
SELF_TIME = {
    "spatial.thin_s": ("spatial.thin_redundant",),
    "spatial.kdtree_build_s": ("spatial.KdTree",),
    "sampling.sparsity_s": ("sampling.sparsity_weights",),
    "sampling.weights_s": ("sampling.intensity_weights", "sampling.distance_weights",
                           "sampling.combine_weights"),
    "sampling.draw_s": ("gmm.sample_count", "sampling.two_stage_sample"),
    "sampling.flow_s": ("sampling.nn_flow_estimate",),
    "sampling.plane_s": ("sampling.with_velocity", "sampling.map_to_plane"),
    "pointcloud.read_s": ("pointcloud.load_corpus",),
    "pointcloud.write_s": ("pointcloud.write_corpus",),
    "metrics.chamfer_s": ("metrics.mean_chamfer",),
    "cli.sample_s": ("cli.main:sample",),
    "cli.chamfer_s": ("cli.main:chamfer",),
    "contrastive.local_s": ("contrastive.local_loss",),
    "contrastive.matcher_s": ("contrastive.sliding_window_match",),
    "contrastive.bcsa_s": ("contrastive.bcsa",),
    "contrastive.local_info_nce_s": ("contrastive.info_nce@local",),
    "contrastive.global_s": ("contrastive.global_loss",),
    "contrastive.global_agg_s": ("contrastive.aggregate_global@global",),
    "contrastive.global_info_nce_s": ("contrastive.info_nce@global",),
    "tensor.backward_s": ("tensor.backward",),
}

# per-layer count metric -> event key, summed over the work units
PER_UNIT_COUNT = {
    "spatial.kdtree_builds": "kdtree_builds",
    "sampling.knn_queries": "knn_queries",
    "sampling.flow_queries": "flow_queries",
    "pointcloud.bytes_read": "bytes_read",
    "pointcloud.bytes_written": "bytes_written",
    "metrics.nn_queries": "nn_queries",
    "contrastive.matcher_windows": "matcher_windows",
    "tensor.nodes": "tape_nodes",
}

_SPLIT_BY_LOSS = {"contrastive.info_nce", "contrastive.aggregate_global"}
_LOSSES = {"contrastive.local_loss": "@local", "contrastive.global_loss": "@global"}


def _span_name(original, attr: str) -> str:
    module = getattr(original, "__module__", "") or ""
    return f"{module.rpartition('.')[2]}.{getattr(original, '__name__', attr)}"


class Tracer:
    """In-memory span recorder that wraps the package's public functions."""

    def __init__(self, run_id: str, targets=TARGETS):
        self.run_id = run_id
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent, root]
        self.events: list[tuple[int, str, float]] = []  # (span, key, value)
        self.absent: list[str] = []
        self.enabled = True
        self.observers: dict[str, list] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = index if parent is None else self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (output checks) pass through unrecorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _wrap(self, fn, name: str, hook):
        tracer = self
        observers = self.observers.setdefault(name, [])

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = f"{name}:{args[0][0]}" if name == "cli.main" and args else name
            index = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None or observers:
                # hook work is its own span so that no layer's self time holds it
                with tracer.span(HOOK):
                    if hook is not None:
                        for key, value in hook(args, kwargs, result).items():
                            tracer.events.append((index, key, value))
                    for observe in observers:
                        observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed
        as absent instead of failing the run."""
        for module_name, attr, hook in self.targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                label = f"{module_name}.{attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, _span_name(original, attr), hook))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def observe(self, span_name: str, callback) -> None:
        """Call ``callback(args, result)`` after each traced call of a span."""
        self.observers.setdefault(span_name, []).append(callback)

    # -- analysis ---------------------------------------------------------

    def _labels(self) -> list[str]:
        labels = []
        for name, _, _, parent, _ in self.spans:
            if name in _SPLIT_BY_LOSS:
                suffix = ""
                while parent is not None:
                    suffix = _LOSSES.get(self.spans[parent][0], "")
                    if suffix:
                        break
                    parent = self.spans[parent][3]
                name += suffix
            labels.append(name)
        return labels

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def totals(self, root_name: str) -> tuple[dict[str, float], dict[str, float]]:
        """Summed self time per span label and summed events per key, over
        spans under roots named ``root_name``."""
        times: dict[str, float] = {}
        for label, own, span in zip(self._labels(), self.self_times(), self.spans):
            if self.spans[span[4]][0] == root_name:
                times[label] = times.get(label, 0.0) + own
        counts: dict[str, float] = {}
        for index, key, value in self.events:
            if self.spans[self.spans[index][4]][0] == root_name:
                counts[key] = counts.get(key, 0.0) + value
        return times, counts

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Per-layer metrics: op-phase values per work unit, set-up values
        per mixture fit or per set-up."""
        times, counts = self.totals(OP_ROOT)
        out = {metric: sum(times.get(n, 0.0) for n in names) / units
               for metric, names in SELF_TIME.items()}
        out.update({metric: counts.get(key, 0.0) / units
                    for metric, key in PER_UNIT_COUNT.items()})
        thin_in = counts.get("thin_in", 0.0)
        out["spatial.thin_keep_ratio"] = counts.get("thin_kept", 0.0) / thin_in if thin_in else 0.0
        draws = counts.get("draws", 0.0)
        out["sampling.fallback_frac"] = counts.get("fallbacks", 0.0) / draws if draws else 0.0

        setup_times, setup_counts = self.totals(SETUP_ROOT)
        fits = setup_counts.get("fits", 0.0)
        out["gmm.fit_s"] = setup_times.get("gmm.fit_em", 0.0) / fits if fits else 0.0
        out["gmm.em_iters"] = setup_counts.get("em_iters", 0.0) / fits if fits else 0.0
        setups = sum(1 for s in self.spans if s[0] == SETUP_ROOT)
        out["pointcloud.setup_write_s"] = (
            setup_times.get("pointcloud.write_corpus", 0.0) / setups if setups else 0.0)
        out["trace.spans"] = sum(1 for s in self.spans if self.spans[s[4]][0] == OP_ROOT) / units
        out["trace.absent_spans"] = float(len(self.absent))
        return out

    def write(self, path: Path, header: dict) -> None:
        doc = {
            "header": header,
            "absent": self.absent,
            "spans": [{"name": name, "start": start, "end": end, "parent": parent,
                       "run_id": self.run_id}
                      for name, start, end, parent, _ in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
