"""Smoke tests of the benchmark itself, at toy input sizes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, *argv) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_appears_with_its_unit(capsys, monkeypatch, tmp_path,
                                                   workload, trace, kind):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = _result(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        assert (tmp_path / f"trace-{workload}-seed3.json").is_file()
        assert result["metrics"]["trace.absent_spans"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_function_is_an_absent_span_and_wrappers_come_off():
    import pseudoradar.sampling as sampling

    original = sampling.sparsity_weights
    targets = (("pseudoradar.sampling", "no_such_function", None),
               ("pseudoradar.no_such_module", "f", None),
               ("pseudoradar.sampling", "sparsity_weights", None))
    tracer = spans.Tracer("test", targets)
    with tracer.installed():
        assert sampling.sparsity_weights is not original
        with tracer.span(spans.OP_ROOT):
            sampling.sparsity_weights([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], 1)
    assert sampling.sparsity_weights is original
    assert tracer.absent == ["pseudoradar.sampling.no_such_function",
                             "pseudoradar.no_such_module.f"]
    metrics = tracer.layer_metrics(units=1)
    assert metrics["trace.absent_spans"] == 2
    assert metrics["sampling.sparsity_s"] > 0


def test_without_package_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "train-c64",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
