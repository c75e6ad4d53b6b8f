import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_step_peaks_records_each_step_of_a_tiny_batch():
    batch = {"seed": 3, "scenes": 2, "channels": 3, "height": 3, "width": 8, "columns": 3,
             "pretrain_seed": 3}
    got = bench_pairs.step_peaks(bench_pairs.ROOT, batch)
    assert got["batch"] == batch
    assert len(got["step_peak_mb"]) == 2 and all(p > 0 for p in got["step_peak_mb"])
    assert got["call_peak_mb"] >= max(got["step_peak_mb"])
    assert got["maps_mb"] == 2 * 4 * 3 * 3 * 8 * 8 / 1e6  # scenes x maps x C x H x W

