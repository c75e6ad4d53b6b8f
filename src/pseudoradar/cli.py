"""Command-line front end.

Subcommands: synth-gen, fit-gmm, sample, chamfer, gradcheck, pretrain-toy.
Every command is deterministic given its flags and seed, writes reports as
JSON embedding the tool version and the fully resolved config, and uses the
exit code contract 0 = success, 1 = check failure, 2 = usage or I/O error.
Commands raise; ``main`` alone turns an error's type into its exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as T
from .contrastive import (MAP_NAMES, ContrastiveConfig, ContrastiveParams, FeatureMap,
                          aggregate_global, bcsa, global_loss, info_nce,
                          local_loss, total_loss, toy_pretrain)
from .errors import DivergenceError, EmptyFrameError, SchemaError
from .gmm import DEFAULT_COMPONENTS, fit_em, load_counts, load_gmm, save_gmm
from .metrics import mean_chamfer
from .pointcloud import (FORMATS, atomic_write_text, json_number, load_corpus,
                         read_json_object, write_corpus, write_json)
from .rng import philox
from .sampling import SamplingConfig, lidar_to_radar
from .synth import SceneSpec, gen_feature_batch, gen_scene
from .tensor import Tensor, finite_diff_check

GRADCHECK_TOL = 1e-5

# the declared type of every config key, resolved from the string annotations
_CONFIG_TYPES = typing.get_type_hints(SamplingConfig)


def load_config_file(path: str | None) -> dict:
    """The flat JSON object of ``path``, each key a ``SamplingConfig`` field
    holding a number of the field's type; {} when ``path`` is None."""
    if path is None:
        return {}
    doc = read_json_object(path)
    unknown = sorted(set(doc) - _CONFIG_TYPES.keys())
    if unknown:
        raise SchemaError(f"config file {path}: unknown keys: {', '.join(unknown)}")
    for key, value in doc.items():
        json_number(value, f"config file {path}: {key}", integer=_CONFIG_TYPES[key] is int)
    return doc


def resolve_config(file_values: dict, overrides: dict) -> tuple[SamplingConfig, dict]:
    """file values override defaults; explicit CLI flags override the file."""
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    sampling = SamplingConfig(**merged)
    return sampling, dataclasses.asdict(sampling)


def _report_header(resolved_config: dict) -> dict:
    return {"version": __version__, "config": resolved_config}


# ---------------------------------------------------------------------------
# synth-gen


def cmd_synth_gen(args) -> int:
    spec = SceneSpec(seed=args.seed, n_frames=args.frames, n_objects=args.objects,
                     noise_sigma=args.noise)
    scene = gen_scene(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(out / "lidar", scene.lidar_frames, fmt=args.format)
    write_corpus(out / "radar", scene.radar_frames, fmt=args.format)
    counts = [f.n_points for f in scene.radar_frames]
    atomic_write_text(out / "radar_counts.txt", "".join(f"{c}\n" for c in counts))
    top = {
        "version": __version__,
        "config": dataclasses.asdict(spec),
        "seed": spec.seed,
        "frames": [f.frame_id for f in scene.lidar_frames],
        "motions": [m.to_dict() for m in scene.motions],
        "radar_counts": counts,
    }
    write_json(out / "manifest.json", top)
    print(f"wrote {len(scene.lidar_frames)} lidar + {len(scene.radar_frames)} radar "
          f"frames to {out}")
    return 0


# ---------------------------------------------------------------------------
# fit-gmm


def cmd_fit_gmm(args) -> int:
    counts = load_counts(args.counts)
    result = fit_em(counts, args.components, tol=args.tol,
                    max_iter=args.max_iter, seed=args.seed)
    save_gmm(result.model, args.out)
    report_path = args.report or f"{args.out}.report.json"
    doc = _report_header({"components": args.components, "tol": args.tol,
                          "max_iter": args.max_iter, "seed": args.seed,
                          "counts_file": str(Path(args.counts))})
    doc.update({
        "n_counts": len(counts),
        "final_log_likelihood": result.ll_trace[-1],
        "iterations": result.n_iter,
        "converged": result.converged,
    })
    write_json(report_path, doc)
    print(f"fitted {args.components} components on {len(counts)} counts, "
          f"final log-likelihood {result.ll_trace[-1]:.4f}")
    return 0


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args) -> int:
    file_cfg = load_config_file(args.config)
    sampling, resolved = resolve_config(file_cfg, {"seed": args.seed})
    if args.ablate_weights != "none":
        dropped = {f"alpha_{family}": 0.0 for family in ("int", "dist", "spa")
                   if family != args.ablate_weights}
        try:
            sampling = dataclasses.replace(sampling, **dropped)
        except ValueError as exc:
            raise ValueError(f"ablation leaves no active weight family: {exc}") from exc
        resolved = {**resolved, **dropped}
    frames = load_corpus(args.input)
    model = load_gmm(args.gmm)

    outputs, reports = lidar_to_radar(frames, model, sampling)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(out, outputs, fmt=args.format,
                 extra={"config": resolved, "version": __version__,
                        "ablate_weights": args.ablate_weights})
    doc = _report_header(resolved)
    doc["ablate_weights"] = args.ablate_weights
    doc["frames"] = [r.to_dict() for r in reports]
    write_json(out / "reports.json", doc)
    print(f"sampled {len(outputs)} pseudo-radar frames to {out}")
    return 0


# ---------------------------------------------------------------------------
# chamfer


def cmd_chamfer(args) -> int:
    report = mean_chamfer(load_corpus(args.a), load_corpus(args.b))
    doc = _report_header({"a": str(args.a), "b": str(args.b)})
    doc.update(report.to_dict())
    write_json(args.report, doc)
    if args.plot:
        atomic_write_text(args.plot, chamfer_scatter_svg(report.per_frame))
    print(f"{report.mean:.6f}")
    return 0


def chamfer_scatter_svg(per_frame: list[tuple[str, float]]) -> str:
    """Per-frame scatter with axes, no external plotting dependency."""
    width, height, pad = 640, 360, 48
    values = [v for _, v in per_frame] or [0.0]
    vmax = max(values) or 1.0
    n = max(len(values), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{pad - 12}" font-size="12">chamfer (m^2), '
        f'{len(per_frame)} frames</text>',
        f'<text x="{pad - 40}" y="{pad + 4}" font-size="10">{vmax:.3g}</text>',
    ]
    for i, (fid, v) in enumerate(per_frame):
        x = pad + (width - 2 * pad) * (i + 0.5) / n
        y = height - pad - (height - 2 * pad) * (v / vmax)
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="steelblue">'
                     f'<title>{fid}: {v:.6g}</title></circle>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# gradcheck


def gradcheck_components(seed: int = 0) -> dict[str, float]:
    """Max finite-difference relative error for every loss component.

    Instances use temperature 1.0 so the InfoNCE softmax is well away from
    saturation; at the training default 0.07 the losses sit so close to
    their floor that central differences drown in rounding noise.
    """
    rng = np.random.default_rng(seed)
    c, h, w = 4, 6, 8
    cfg = ContrastiveConfig(tau=1.0, batch_size=3)
    params = ContrastiveParams.init(c, seed=seed)

    def draw(*shape, leaf=True):
        return Tensor(rng.normal(size=shape), requires_grad=leaf)

    def scene_maps(batch_seed, height, width):
        batch = gen_feature_batch(batch_seed, batch=2, channels=c, height=height,
                                  width=width, noise_sigma=0.6)
        maps = [getattr(s, n).tensor for s in batch.scenes for n in MAP_NAMES]
        for t in maps:
            t.requires_grad = True
        return batch.scenes, maps

    def readout(pair, weights):
        return T.add(T.tsum(T.mul(pair[0], weights)), T.tsum(T.mul(pair[1], weights)))

    anchors = [draw(6) for _ in range(3)]
    cands = [draw(6) for _ in range(3)]
    f1, f2, f_read = draw(1, c, h), draw(1, c, h), draw(c, h, leaf=False)
    ab_maps, proj = draw(2, 1, c, h, w), draw(c, leaf=False)  # one scene, two maps
    rad, img = draw(c, h, w), draw(c, h, w)
    scenes, maps = scene_maps(seed + 7, 3, 3)
    scenes2, maps2 = scene_maps(seed + 11, 4, 8)

    # (component, scalar function, leaves checked)
    table = [
        ("info_nce", lambda: info_nce(T.stack(anchors), T.stack(cands), cfg.tau),
         [anchors[0], cands[1]]),
        ("bcsa", lambda: readout(bcsa(f1, f2, params.bcsa), f_read),
         [f1, f2, *params.bcsa.tensors()]),
        ("aggregate_global",
         lambda: readout(aggregate_global(ab_maps, ((0, 1),), params.global_agg), proj),
         [ab_maps, *params.global_agg.tensors()]),
        ("local_loss", lambda: local_loss(FeatureMap(rad, "radar", "bev"),
                                          FeatureMap(img, "image", "bev"),
                                          cfg, params, philox(seed, 1)), [rad, img]),
        ("global_loss", lambda: global_loss(scenes, cfg, params),
         [maps[0], maps[-1], *params.global_agg.tensors()]),
        ("total_loss", lambda: total_loss(scenes2, cfg, params, philox(seed, 2)),
         [maps2[0], maps2[2]]),
    ]
    return {name: max(finite_diff_check(lambda _: fn(), x) for x in leaves)
            for name, fn, leaves in table}


def cmd_gradcheck(args) -> int:
    errors = gradcheck_components(args.seed)
    failures = [name for name, err in errors.items() if not err < GRADCHECK_TOL]
    for name, err in errors.items():
        status = "ok" if err < GRADCHECK_TOL else "FAIL"
        print(f"{name:18s} max rel err {err:.3e}  {status}")
    if args.report:
        doc = _report_header({"seed": args.seed, "tol": GRADCHECK_TOL, "tau": 1.0})
        doc["components"] = errors
        doc["failures"] = failures
        write_json(args.report, doc)
    if failures:
        print(f"gradcheck FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# pretrain-toy


def cmd_pretrain_toy(args) -> int:
    corpus = Path(args.corpus)
    manifest_path = corpus / "manifest.json"
    frame_ids = read_json_object(manifest_path).get("frames", [])
    if not isinstance(frame_ids, list):
        raise SchemaError(f"{manifest_path}: 'frames' must be a list")
    # the corpus supplies scene identities; features are synthetic
    # planted-correspondence stand-ins keyed on (seed, corpus size)
    n_scenes = max(2, min(4, len(frame_ids))) if frame_ids else 3
    batch = gen_feature_batch(seed=args.seed, batch=n_scenes, channels=args.channels,
                              height=args.height, width=args.width,
                              noise_sigma=args.noise)
    cfg = ContrastiveConfig(batch_size=args.columns)
    trace, _ = toy_pretrain(batch.scenes, cfg, steps=args.steps,
                            learning_rate=args.lr, seed=args.seed)
    doc = _report_header({
        "corpus": str(corpus), "steps": args.steps, "lr": args.lr,
        "seed": args.seed, "channels": args.channels, "height": args.height,
        "width": args.width, "noise": args.noise, "columns": args.columns,
        "scenes": n_scenes,
    })
    doc.update(trace.to_dict())
    write_json(args.report, doc)
    improved = trace.losses[-1] < trace.losses[0]
    print(f"loss {trace.losses[0]:.6f} -> {trace.losses[-1]:.6f}, "
          f"pos/neg sim {trace.final_pos_sim:.3f}/{trace.final_neg_sim:.3f}")
    if not improved:
        print("no improvement over the run", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoradar",
        description="pseudo-radar synthesis, evaluation, and contrastive loss checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-gen", help="generate a synthetic lidar+radar corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--objects", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--format", choices=tuple(FORMATS), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("fit-gmm", help="fit a count mixture to a counts file")
    p.add_argument("--counts", required=True)
    p.add_argument("--components", type=int, default=DEFAULT_COMPONENTS)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_fit_gmm)

    p = sub.add_parser("sample", help="run the lidar-to-radar sampling pipeline")
    p.add_argument("--input", required=True, help="lidar corpus directory")
    p.add_argument("--gmm", required=True, help="fitted model JSON")
    p.add_argument("--config", default=None, help="flat JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=tuple(FORMATS), default="csv")
    p.add_argument("--ablate-weights", choices=("int", "dist", "spa", "none"),
                   default="none", help="keep only one weight family")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("chamfer", help="mean Chamfer distance between two corpora")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--plot", default=None, help="optional SVG scatter path")
    p.set_defaults(func=cmd_chamfer)

    p = sub.add_parser("gradcheck", help="finite-difference check of every loss component")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("pretrain-toy", help="gradient-descent sanity run on planted features")
    p.add_argument("--corpus", required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=6)
    p.add_argument("--height", type=int, default=6)
    p.add_argument("--width", type=int, default=12)
    p.add_argument("--noise", type=float, default=2.0)
    p.add_argument("--columns", type=int, default=4)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_pretrain_toy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EmptyFrameError, DivergenceError) as exc:  # a check failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # usage, bad input or I/O
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
