import importlib.util
import json
import subprocess
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



PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_tier1_and_step_peaks_run_with_blas_on_one_thread(monkeypatch):
    envs = []

    def run(cmd, **kwargs):
        envs.append(kwargs["env"])
        out = "{}" if str(bench_pairs.STEP_PEAKS) in cmd else "1 passed in 0.01s"
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    tree = Path("tree")
    bench_pairs.step_peaks(tree)
    assert bench_pairs.tier1(tree)["counts"] == {"passed": 1}
    assert len(envs) == 2
    for env in envs:
        assert env["PYTHONPATH"] == str(tree / "src")
        assert {var: env[var] for var in PINNED} == PINNED


def test_the_header_records_the_pinned_blas_threads(monkeypatch, tmp_path):
    run = {"returncode": 0, "wall_s": 0.0, "rusage": dict.fromkeys(bench_pairs.RUSAGE, 0.0),
           "header": None, "result": {"correct": True, "metrics": {}}, "stderr": ""}
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "perfbench", lambda *args: run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "HEAD", "--pr", "0", "--seed", "1", "--pairs", "1",
                             "--workload", "pipeline-10k", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["blas_env"] == PINNED
