"""Measure the ``tracemalloc`` peak of each ``toy_pretrain`` step.

A step runs from the start of one forward pass (``total_loss``) to the start
of the next, or of the final ``similarity_stats`` pass, so it holds the
forward, the backward and the update. Its peak is counted beyond what was
held when it started; the whole call's peak is counted from the call's
start. Both are in MB. Prints one JSON object, for the C64 batch the
step-peak test pins or for a batch given as JSON:

    PYTHONPATH=src python3 scripts/step_peaks.py
    PYTHONPATH=src python3 scripts/step_peaks.py '{"seed": 3, "scenes": 2, "channels": 3,
        "height": 3, "width": 8, "columns": 3, "pretrain_seed": 3}'
"""

from __future__ import annotations

import json
import sys
import tracemalloc

from pseudoradar import contrastive as C
from pseudoradar.synth import gen_feature_batch

# perfbench's train-c64 shape: C64 x H32 x W64, 4 scenes, 16 columns
C64_BATCH = {"seed": 83 * 4, "scenes": 4, "channels": 64, "height": 32, "width": 64,
             "columns": 16, "pretrain_seed": 83}
MB = 1e6


def step_peaks(seed: int, scenes: int, channels: int, height: int, width: int,
               columns: int, pretrain_seed: int, steps: int = 2) -> dict:
    """Two steps of ``toy_pretrain`` (learning rate 0.05) on a synthetic
    batch: each step's peak, the whole call's peak and the maps' size."""
    batch = gen_feature_batch(seed, scenes, channels, height, width, noise_sigma=2.0)
    maps_bytes = sum(getattr(s, name).tensor.data.nbytes
                     for s in batch.scenes for name in C.MAP_NAMES)
    marks = []  # (allocated, peak since the last mark) at each step's start

    def spy(real):
        def call(*args):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return real(*args)
        return call

    real = C.total_loss, C.similarity_stats
    C.total_loss, C.similarity_stats = spy(C.total_loss), spy(C.similarity_stats)
    tracemalloc.start()
    try:
        C.toy_pretrain(batch.scenes, C.ContrastiveConfig(batch_size=columns), steps=steps,
                       learning_rate=0.05, seed=pretrain_seed)
        marks.append(tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
        C.total_loss, C.similarity_stats = real
    return {"step_peak_mb": [(peak - start) / MB
                             for (start, _), (_, peak) in zip(marks, marks[1:-1])],
            "call_peak_mb": max(peak for _, peak in marks) / MB,
            "maps_mb": maps_bytes / MB}


if __name__ == "__main__":
    batch = json.loads(sys.argv[1]) if len(sys.argv) > 1 else C64_BATCH
    print(json.dumps({**step_peaks(**batch), "batch": batch}))
