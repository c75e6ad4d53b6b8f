"""Benchmark a change against its parent revision in alternating pairs.

Copies the parent revision and the change (this checkout's working tree:
tracked files and untracked ones git does not ignore) into two sibling
temporary directories whose paths have the same length, then runs
``perfbench/run.py`` in each for each workload, for the run length that
``BENCHMARK.json`` sets, alternating which side goes first so that drift in
the machine's speed falls on both; five traced pairs follow the untraced
ones, so each traced stage's median and quartiles come from five runs a
side. With equal paths the two processes differ only in the code they run:
identical code has measured slower from one directory than from another.
Writes one JSON file holding every result line, the per-metric medians and
interquartile ranges, how many pairs the change won, the tier-1 test counts
and wall times of both sides (``TIER1_RUNS`` runs a side, alternating which
side goes first, each run recorded with each side's median), and a machine
header. Each run also records
the user and system CPU seconds and minor page faults of its process tree,
with each side's quartiles per workload, so that a throughput reading can be
split into compute and page-fault cost.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pr N --seed 83 --pairs 10 \\
        --workload pipeline-10k --workload cli-36k --workload train-c64 --tier1

The parent is exported with ``git archive``, so a run leaves nothing behind
in the repository. Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
TRACED_PAIRS = 5  # per workload, after the untraced pairs
TIER1_RUNS = 3  # a side, alternating which side goes first
RUSAGE = ("user_s", "sys_s", "minflt")  # per run, from RUSAGE_CHILDREN


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--tier1", action="store_true", help="also time tier-1 on both sides")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the repo root")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("need --pairs >= 1")
    return args


def export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest``; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def copy_working_tree(dest: Path) -> None:
    """Copy the files git would see in this checkout, changed or new, to ``dest``."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, check=True,
                           capture_output=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of the tree's own perfbench: its header and result lines, and
    the CPU time and minor page faults of the run's process tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {"user_s": after.ru_utime - before.ru_utime,
             "sys_s": after.ru_stime - before.ru_stime,
             "minflt": after.ru_minflt - before.ru_minflt}
    lines = proc.stdout.strip().splitlines()
    header = next((json.loads(line[len("perfbench header "):]) for line in lines
                   if line.startswith("perfbench header ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"returncode": proc.returncode, "wall_s": wall, "rusage": usage, "header": header,
            "result": result, "stderr": proc.stderr[-2000:]}


def tier1(tree: Path) -> dict:
    """Run the tier-1 suite in ``tree``; its summary line, counts and wall time."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {key: int(n) for n, key in re.findall(r"(\d+) (passed|failed|skipped|errors?)",
                                                   summary)}
    return {"returncode": proc.returncode, "summary": summary, "counts": counts,
            "wall_s": wall}


def tier1_pairs(trees: dict[str, Path]) -> dict:
    """``TIER1_RUNS`` tier-1 runs a side in alternating order, so that drift
    in the machine's speed falls on both sides; each run, and each side's
    median wall time."""
    runs = {side: [] for side in trees}
    for i in range(TIER1_RUNS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(tier1(trees[side]))
            print(f"tier1 {i} {side}: {runs[side][-1]['summary']}", flush=True)
    return {side: {"runs": side_runs,
                   "median_wall_s": statistics.median(r["wall_s"] for r in side_runs)}
            for side, side_runs in runs.items()}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, the change's wins and its median ratio."""
    out = {}
    for name, direction in better.items():
        rows = [(p["parent"]["result"]["metrics"][name]["value"],
                 p["change"]["result"]["metrics"][name]["value"]) for p in pairs
                if all(p[s]["result"] and name in p[s]["result"]["metrics"]
                       for s in ("parent", "change"))]
        if not rows:
            continue
        parent, change = ([r[i] for r in rows] for i in (0, 1))
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in rows)
        stats = {"parent": quartiles(parent), "change": quartiles(change)}
        base = stats["parent"]["median"]
        out[name] = {**stats, "better": direction, "pairs": len(rows), "change_wins": wins,
                     "median_ratio": stats["change"]["median"] / base if base else None}
    return out


def summarize_rusage(pairs: list[dict]) -> dict:
    """Per RUSAGE key: each side's quartiles over the runs."""
    return {key: {side: quartiles([p[side]["rusage"][key] for p in pairs])
                  for side in ("parent", "change")} for key in RUSAGE}


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"platform": platform.platform(), "python": platform.python_version(),
            "cpu": model, "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = {w["name"] for w in spec["workloads"]}
    unknown = sorted(set(args.workload) - known)
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        return 2
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    traced_better = {m["name"]: m["better"] for m in spec["per_layer"]}
    start = time.perf_counter()
    doc = {"machine": machine(), "parent_rev": args.parent, "seed": args.seed,
           "seconds": spec["run_seconds"], "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        doc["parent_commit"] = export(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        for workload in args.workload:
            runs = {"pairs": [], "traced_pairs": []}
            for kind, count, trace in (("pairs", args.pairs, 0),
                                       ("traced_pairs", TRACED_PAIRS, 1)):
                for i in range(count):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = perfbench(trees[side], workload, args.seed,
                                               spec["run_seconds"], trace)
                        result = pair[side]["result"] or {}
                        print(f"{workload} {kind} {i} {side}: correct={result.get('correct')} "
                              f"{json.dumps(result.get('metrics', {}))[:160]}", flush=True)
                    runs[kind].append(pair)
            runs["summary"] = summarize(runs["pairs"], better)
            runs["traced_summary"] = summarize(runs["traced_pairs"], traced_better)
            runs["rusage_summary"] = summarize_rusage(runs["pairs"])
            runs["failed_runs"] = sum(
                not (p[s]["result"] or {}).get("correct", False)
                for p in runs["pairs"] + runs["traced_pairs"] for s in ("parent", "change"))
            doc["workloads"][workload] = runs
        if args.tier1:
            doc["tier1"] = tier1_pairs(trees)
    doc["wall_s"] = time.perf_counter() - start
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
