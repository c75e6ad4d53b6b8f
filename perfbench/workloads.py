"""The benchmark's three closed-loop workloads and their output checks.

Each workload builds its inputs from the workload seed in ``setup``. Then
the closed loop in run.py cycles over ``items``: ``prepare`` (untimed) gives
the operation's input, ``run`` is the timed call into the package's public
entry points, and ``check`` (untimed) validates the result. Everything is called through module
attributes, so a tracer that wraps those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pseudoradar import cli, contrastive, gmm, metrics, pointcloud, sampling, synth, tensor

SPACING_SAMPLE = 300  # selected points per frame in the brute-force spacing check


@dataclass
class Outcome:
    """What one operation produced, as seen by its checks."""

    attempted: int  # operations (frames, CLI commands or training steps)
    failed: int
    digest: str  # hash of the outputs; equal on every repeat of the same input
    value: float  # the workload's output_loss contribution for this input
    problems: list[str]
    points: list[tuple[int, int]] = field(default_factory=list)  # per frame: in, thinned


def _lift(frame_out, frame_in) -> np.ndarray:
    """3-D coordinates of selected points: the output is flattened to z = 0,
    so each point's height is looked up in the frame it was drawn from."""
    height = {(x, y): z for x, y, z in frame_in.xyz.tolist()}
    return np.array([[x, y, height[(x, y)]] for x, y in frame_out.xyz[:, :2].tolist()]
                    ).reshape(-1, 3)


def frame_problems(frame_out, frame_in, n1: int, n2: int, is_last: bool,
                   d_threshold: float) -> list[str]:
    """What the pipeline guarantees per frame: planar output, the reported count,
    thinning spacing, finite velocities and a still last frame."""
    fid = frame_out.frame_id
    problems = []
    if not (frame_out.xyz[:, 2] == 0.0).all():
        problems.append(f"{fid}: output is not on z = 0")
    if frame_out.n_points != n1 + n2:
        problems.append(f"{fid}: {frame_out.n_points} points but report says N1+N2={n1 + n2}")
    try:
        pts = _lift(frame_out, frame_in)[:SPACING_SAMPLE]
    except KeyError:
        problems.append(f"{fid}: an output point is not in the input frame")
    else:
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        if len(pts) > 1 and d2.min() < d_threshold**2:
            problems.append(f"{fid}: selected points closer than d_threshold")
    vel = frame_out.velocity_or_zero()
    if not np.isfinite(vel).all():
        problems.append(f"{fid}: non-finite velocity")
    if is_last and (vel != 0.0).any():
        problems.append(f"{fid}: last frame has non-zero velocity")
    return problems


def _frames_digest(frames, reports: list[dict]) -> str:
    h = hashlib.sha256()
    for frame in frames:
        h.update(frame.frame_id.encode())
        for arr in (frame.xyz, frame.intensity, frame.velocity_or_zero()):
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(json.dumps(reports, sort_keys=True).encode())
    return h.hexdigest()


def _fit_mixture(scene, seed: int):
    counts = [f.n_points for f in scene.radar_frames]
    return gmm.fit_em(counts, gmm.DEFAULT_COMPONENTS, seed=seed).model


# ---------------------------------------------------------------------------
# pipeline-10k


@dataclass
class SceneInput:
    frames: list  # LiDAR frames fed to the pipeline
    radar: list  # reference radar frames with the same ids
    model: object
    config: object


class Pipeline:
    """``lidar_to_radar`` in memory on default-density scenes.

    Several short scenes rather than one long one: the Chamfer distance
    varies more between scenes than between frames of one scene, so its
    mean over scenes is what stays steady from one seed to the next.
    """

    name = "pipeline-10k"
    unit = "frame"
    setup_repeats = 9  # a set-up takes ~0.07 s, so its median needs more of them

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.n_scenes, self.n_frames = (2, 2) if tiny else (6, 2)
        self.density = 0.3 if tiny else 2.0
        self.ops_per_item = self.units_per_item = self.n_frames
        self.items: list[SceneInput] = []

    def setup(self) -> None:
        self.items = []
        for s in range(self.n_scenes):
            spec = synth.SceneSpec(seed=self.seed * self.n_scenes + s,
                                   lidar_density=self.density)
            scene = synth.gen_scene(spec)
            self.items.append(SceneInput(scene.lidar_frames[:self.n_frames],
                                         scene.radar_frames[:self.n_frames],
                                         _fit_mixture(scene, spec.seed),
                                         sampling.SamplingConfig(seed=spec.seed)))

    def prepare(self, item: SceneInput) -> SceneInput:
        return item

    def run(self, item: SceneInput):
        return sampling.lidar_to_radar(item.frames, item.model, item.config)

    def check(self, item: SceneInput, result) -> Outcome:
        outputs, reports = result
        problems, failed = [], 0
        for i, (out, rep, frame_in) in enumerate(zip(outputs, reports, item.frames)):
            found = frame_problems(out, frame_in, rep.N1, rep.N2,
                                   i == len(outputs) - 1, item.config.d_threshold)
            problems += found
            failed += bool(found)
        value = metrics.mean_chamfer(outputs, item.radar).mean
        digest = _frames_digest(outputs, [r.to_dict() for r in reports])
        return Outcome(len(item.frames), failed, digest, value, problems,
                       [(r.n_input, r.n_after_thin) for r in reports])

    def sizes(self) -> dict:
        return {"scenes": self.n_scenes, "frames_per_scene": self.n_frames,
                "lidar_density": self.density}


# ---------------------------------------------------------------------------
# cli-36k


@dataclass
class CorpusInput:
    root: Path  # holds lidar/, radar/ and gmm.json
    frames: list  # the LiDAR frames written to lidar/, for the spacing check
    seed: int


class CliCorpus:
    """``cli.main(["sample", ...])`` then ``cli.main(["chamfer", ...])`` in
    process on nuScenes-scale CSV corpora written during set-up."""

    name = "cli-36k"
    unit = "frame"
    setup_repeats = 3

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.n_scenes, self.n_frames = (2, 2) if tiny else (4, 2)
        self.density = 0.3 if tiny else 7.0
        self.ops_per_item, self.units_per_item = 2, self.n_frames
        self.config = sampling.SamplingConfig()
        self.items: list[CorpusInput] = []

    def setup(self) -> None:
        self.items = []
        for s in range(self.n_scenes):
            spec = synth.SceneSpec(seed=self.seed * self.n_scenes + s,
                                   lidar_density=self.density)
            scene = synth.gen_scene(spec)
            root = self.workdir / f"scene{s}"
            frames = scene.lidar_frames[:self.n_frames]
            pointcloud.write_corpus(root / "lidar", frames)
            pointcloud.write_corpus(root / "radar", scene.radar_frames[:self.n_frames])
            gmm.save_gmm(_fit_mixture(scene, spec.seed), root / "gmm.json")
            self.items.append(CorpusInput(root, frames, spec.seed))

    def prepare(self, item: CorpusInput) -> CorpusInput:
        return item

    def run(self, item: CorpusInput):
        root = item.root
        sample_out, chamfer_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sample_out):
            rc_sample = cli.main(["sample", "--input", str(root / "lidar"),
                                  "--gmm", str(root / "gmm.json"), "--seed", str(item.seed),
                                  "--out", str(root / "pseudo")])
        if rc_sample != 0:
            return rc_sample, None, ""
        with contextlib.redirect_stdout(chamfer_out):
            rc_chamfer = cli.main(["chamfer", "--a", str(root / "pseudo"),
                                   "--b", str(root / "radar"),
                                   "--report", str(root / "chamfer.json")])
        return rc_sample, rc_chamfer, chamfer_out.getvalue().strip()

    def check(self, item: CorpusInput, result) -> Outcome:
        rc_sample, rc_chamfer, printed = result
        root = item.root
        if rc_sample != 0:
            return Outcome(2, 2, "", float("nan"), [f"sample exited {rc_sample}"])
        problems, chamfer_problems = [], []
        reports = json.loads((root / "pseudo" / "reports.json").read_text())["frames"]
        ids = [f.frame_id for f in item.frames]
        if [r["frame_id"] for r in reports] != ids:
            problems.append(f"reports.json lists {[r['frame_id'] for r in reports]}, "
                            f"expected {ids}")
        outputs = pointcloud.load_corpus(root / "pseudo")
        for i, (out, rep, frame_in) in enumerate(zip(outputs, reports, item.frames)):
            problems += frame_problems(out, frame_in, rep["N1"], rep["N2"],
                                       i == len(outputs) - 1, self.config.d_threshold)
        value = float("nan")
        if rc_chamfer != 0:
            chamfer_problems.append(f"chamfer exited {rc_chamfer}")
        else:
            expected = metrics.mean_chamfer(outputs, pointcloud.load_corpus(root / "radar"))
            value = json.loads((root / "chamfer.json").read_text())["mean"]
            if printed != f"{expected.mean:.6f}" or value != expected.mean:
                chamfer_problems.append(f"CLI printed {printed}, report {value}, "
                                        f"mean_chamfer gives {expected.mean}")
        h = hashlib.sha256()
        for path in sorted((root / "pseudo").iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        h.update((root / "chamfer.json").read_bytes())
        failed = int(bool(problems)) + int(bool(chamfer_problems))
        return Outcome(2, failed, h.hexdigest(), value, problems + chamfer_problems,
                       [(r["n_input"], r["n_after_thin"]) for r in reports])

    def sizes(self) -> dict:
        return {"scenes": self.n_scenes, "frames_per_scene": self.n_frames,
                "lidar_density": self.density, "corpus_format": "csv"}


# ---------------------------------------------------------------------------
# train-c64

MAP_NAMES = ("img_bev", "img_fv", "rad_bev", "rad_fv")


class Train:
    """``toy_pretrain`` trajectories of a fixed length on planted-correspondence
    feature batches. The loss is reported relative to the trajectory's first
    loss: between batch seeds the absolute loss spreads about three times
    as widely as the ratio."""

    name = "train-c64"
    unit = "step"
    setup_repeats = 5
    learning_rate = 0.05
    noise_sigma = 2.0

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.n_batches, self.steps = 4, 2
        self.ops_per_item = self.units_per_item = self.steps
        self.scenes = 4
        self.c, self.h, self.w, self.columns = (4, 4, 8, 4) if tiny else (64, 32, 64, 16)
        self.config = contrastive.ContrastiveConfig(batch_size=self.columns)
        self.items: list = []

    def setup(self) -> None:
        self.items = [synth.gen_feature_batch(self.seed * self.n_batches + b, self.scenes,
                                              self.c, self.h, self.w,
                                              noise_sigma=self.noise_sigma)
                      for b in range(self.n_batches)]

    def prepare(self, batch):
        """Training updates the maps in place, so each run gets a copy."""
        scenes = []
        for scene in batch.scenes:
            maps = {}
            for name in MAP_NAMES:
                fmap = getattr(scene, name)
                maps[name] = contrastive.FeatureMap(
                    tensor.Tensor(fmap.tensor.data.copy()), fmap.modality, fmap.view)
            scenes.append(contrastive.SceneMaps(**maps))
        return scenes, batch.seed

    def run(self, prepared):
        scenes, seed = prepared
        trace, _ = contrastive.toy_pretrain(scenes, self.config, steps=self.steps,
                                            learning_rate=self.learning_rate, seed=seed)
        return trace

    def check(self, batch, trace) -> Outcome:
        losses = trace.losses
        problems = []
        if len(losses) != self.steps or not np.isfinite(losses).all():
            problems.append(f"batch {batch.seed}: losses {losses}")
        elif not losses[-1] < losses[0]:
            problems.append(f"batch {batch.seed}: loss rose from {losses[0]} to {losses[-1]}")
        digest = hashlib.sha256(
            json.dumps([losses, trace.final_pos_sim, trace.final_neg_sim]).encode()
        ).hexdigest()
        value = losses[-1] / losses[0] if losses and losses[0] else float("nan")
        return Outcome(self.steps, self.steps if problems else 0, digest, value, problems)

    def sizes(self) -> dict:
        return {"C": self.c, "H": self.h, "W": self.w, "B": self.scenes, "N": self.columns,
                "batches": self.n_batches, "steps": self.steps}


WORKLOADS = {cls.name: cls for cls in (Pipeline, CliCorpus, Train)}
