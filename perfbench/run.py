"""Benchmark of the pseudoradar package, one workload per invocation.

    python3 perfbench/run.py --workload pipeline-10k --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it repeats the same operations untraced and then traced, checks that both
give identical outputs, and prints the per-layer metrics. Either way the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import OP_ROOT, SETUP_ROOT, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# Single-threaded BLAS: all load comes from one process with one caller, and
# one thread keeps the timings steady on a shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_CYCLES = 2  # every input runs at least twice, so repeats can be compared
TOLERANCE = 1e-12  # relative, for the cKDTree yardstick


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy input sizes, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import pseudoradar from this checkout's src/, never from elsewhere."""
    package = SRC / "pseudoradar"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no package source at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pseudoradar
    if Path(pseudoradar.__file__).resolve().parent != package.resolve():
        raise ImportError(f"pseudoradar imported from {pseudoradar.__file__}, not {package}")


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        name = version = None
    return {"name": name, "version": version, "threads": BLAS_THREADS,
            "env": {var: os.environ.get(var) for var in BLAS_ENV}}


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Record:
    """One timed operation: which input, how long, and what its checks said."""

    item: int
    seconds: float
    units: int  # frames or training steps
    outcome: object
    traced: bool


def closed_loop(wl, seconds: float, min_cycles: int, tracer=None):
    """One caller; each operation starts when the last one has finished.

    Cycles over the workload's inputs until ``seconds`` have passed and every
    input ran ``min_cycles`` times. With a tracer, each input runs untraced
    and then at once traced, so that both runs see the machine in the same
    state and the difference is the tracing overhead.
    """
    n = len(wl.items)
    records = []
    start = time.perf_counter()
    i = 0
    while i < min_cycles * n or time.perf_counter() - start < seconds:
        records.append(timed_op(wl, i % n))
        if tracer:
            with tracer.installed():
                records.append(timed_op(wl, i % n, tracer))
        i += 1
    return records


def timed_op(wl, index: int, tracer=None) -> Record:
    from workloads import Outcome

    item = wl.items[index]
    prepared = wl.prepare(item)
    gc.collect()  # the last operation's garbage is not this one's cost
    span = tracer.span(OP_ROOT) if tracer else contextlib.nullcontext()
    paused = tracer.paused() if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            result = wl.run(prepared)
        elapsed = time.perf_counter() - t0
        with paused:
            outcome = wl.check(item, result)
    except Exception:  # one failed operation must not end the run
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        outcome = Outcome(wl.ops_per_item, wl.ops_per_item, "", float("nan"),
                          [f"input {index}: raised"])
    return Record(index, elapsed, wl.units_per_item, outcome, tracer is not None)


def repeat_failures(records) -> tuple[int, list[str]]:
    """Operations whose outputs differ from the first run of the same input."""
    first: dict[int, str] = {}
    failed, problems = 0, []
    for rec in records:
        digest = first.setdefault(rec.item, rec.outcome.digest)
        if rec.outcome.digest != digest and not rec.outcome.failed:
            failed += rec.outcome.attempted
            problems.append(f"input {rec.item}: output differs from its first run")
    return failed, problems


def timed_setups(wl, tracer=None) -> list[float]:
    times = []
    for _ in range(wl.setup_repeats):
        span = tracer.span(SETUP_ROOT) if tracer else contextlib.nullcontext()
        gc.collect()
        t0 = time.perf_counter()
        with span:
            wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def output_loss(records) -> float:
    """Mean over inputs of each input's value; repeats are checked equal."""
    first: dict[int, float] = {}
    for rec in records:
        first.setdefault(rec.item, rec.outcome.value)
    return statistics.fmean(first.values())


def throughput(records) -> float:
    return statistics.median(r.units / r.seconds for r in records)


def yardstick(clouds, units: int) -> tuple[dict, list[str]]:
    """cKDTree sparsity weights on the clouds sparsity_weights saw: time per
    work unit, and agreement to TOLERANCE. Reference only; needs scipy."""
    import numpy as np
    try:
        from scipy.spatial import cKDTree
    except ImportError:
        return {}, []
    total, problems = 0.0, []
    for xyz, j_max, expected in clouds:
        t0 = time.perf_counter()
        if len(xyz) == 1:
            weights = np.ones(1)
        else:
            dist, _ = cKDTree(xyz).query(xyz, k=j_max + 1)
            raw = (dist[:, 1:] ** 2).sum(axis=1)
            weights = raw / raw.sum()
        total += time.perf_counter() - t0
        rel = np.abs(weights - expected) / np.abs(expected)
        if not rel.max() <= TOLERANCE:
            problems.append(f"sparsity_weights differs from cKDTree by {rel.max():.3g} relative")
    return {"yardstick.sparsity_ckdtree_s": total / units}, problems


def run_untraced(wl, seconds):
    setups = timed_setups(wl)
    records = closed_loop(wl, seconds, MIN_CYCLES)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": throughput(records),
        "output_loss": output_loss(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return records, metrics, []


def run_traced(wl, seconds, tracer):
    """Each operation untraced and then traced; outputs must agree."""
    import numpy as np

    with tracer.installed():
        timed_setups(wl, tracer)
    clouds = []
    tracer.observe("sampling.sparsity_weights",
                   lambda args, result: clouds.append((np.array(args[0]), args[1], result)))
    records = closed_loop(wl, seconds, 1, tracer)
    traced = [r for r in records if r.traced]
    units = sum(r.units for r in traced)
    metrics = tracer.layer_metrics(units)
    untraced_s = sum(r.seconds for r in records if not r.traced) / units
    traced_s = sum(r.seconds for r in traced) / units
    metrics.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                    "trace.overhead_s": traced_s - untraced_s})
    extra, yard_problems = yardstick(clouds, units)
    metrics.update(extra)
    # each traced operation repeats an untraced one, so the repeat check in
    # main() is what proves tracing left the outputs unchanged
    return records, metrics, yard_problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import numpy as np
    from workloads import WORKLOADS

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir = OUT / f"work-{run_id}"
    wl = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    tracer = Tracer(run_id) if args.trace else None
    try:
        if tracer:
            records, metrics, problems = run_traced(wl, args.seconds, tracer)
        else:
            records, metrics, problems = run_untraced(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    repeat_failed, repeat_problems = repeat_failures(records)
    problems += repeat_problems + [p for r in records for p in r.outcome.problems]
    attempted = sum(r.outcome.attempted for r in records)
    failed = sum(r.outcome.failed for r in records) + repeat_failed
    points = [p for r in records for p in r.outcome.points]
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    header = {
        "run_id": run_id, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy_version, "blas": blas_info(),
        "git_commit": git_commit(), "closed_loop": {"callers": 1},
        "sizes": {
            **wl.sizes(),
            "points_per_frame": statistics.fmean(p[0] for p in points) if points else None,
            "points_after_thinning": statistics.fmean(p[1] for p in points) if points else None,
        },
        "timed_operations": len(records), "units": wl.unit,
    }
    if tracer:
        header["absent_spans"] = tracer.absent
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", header)

    metric_units = {m["name"]: m["unit"]
                    for m in spec["per_layer" if args.trace else "end_to_end"]}
    problems += [f"metric {name} is not finite" for name in metric_units
                 if name in metrics and not np.isfinite(metrics[name])]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("perfbench header " + json.dumps(header))
    print(f"perfbench error_rate {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} failed of {attempted} operations)")
    result = {}
    for name, unit in metric_units.items():
        if name in metrics:
            value = float(metrics[name]) if np.isfinite(metrics[name]) else 0.0
            result[name] = {"value": value, "unit": unit}
            print(f"perfbench {name} {value:.6g} {unit}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
