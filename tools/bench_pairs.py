"""Run ``bench/run.py`` on two trees in alternating order and write one BENCH
file with the pairs.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workloads wide_total small --seeds 3101-3110 --seconds 25 \\
        --tag my_change --out BENCH_my_change.json

Each tree is a checkout (a ``git archive`` of the parent, say) and runs
its own ``bench/run.py`` on its own ``src/``, from its own root.  For each
seed, in order, and each workload, in the order given, the two trees run
one after the other on the same seed: parent first on the first seed,
change first on the next, and so on.  Every ``__pycache__`` under both
trees is deleted before every run, so no run reads bytecode another run
compiled.  One run goes at a time.

The file holds, per workload, the seeds, the order of each pair, each
side's ``correct``, ``attempted`` and ``failed``, and per metric:

- each side's quartiles (``statistics.quantiles``, inclusive method) and
  raw runs;
- ``wins``: the pairs where the change is better in the metric's
  direction, and ``ties``;
- ``median_change``: the change's median over the parent's, minus 1;
- ``parent_spread``: the parent's quartile distance over its median;
- ``bound`` and ``within_bound``: the largest relative worsening of the
  medians that ``BENCHMARK.json`` allows (end-to-end metrics only), and
  whether the change stays within it.

Metric directions and bounds come from the change tree's ``BENCHMARK.json``.
``--trace 1`` pairs the per-layer (traced) runs instead; they have no
bound.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    """Seeds from ``"3101-3110"`` (inclusive) or ``"3101,3105"``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def pair_order(index: int) -> tuple[str, str]:
    """The sides of the ``index``-th pair in the order they run."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(parent: list[float], change: list[float], better: str,
              bound: float | None) -> dict:
    """The pairs of one metric: ``parent[k]`` and ``change[k]`` ran on the
    same seed.  ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "higher" else -1.0
    base = quartiles(parent)
    new = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    ratio = new["median"] / base["median"] - 1.0 if base["median"] else 0.0
    summary = {
        "parent": base,
        "change": new,
        "wins": wins,
        "ties": ties,
        "median_change": ratio,
        "parent_spread": ((base["q3"] - base["q1"]) / base["median"]
                          if base["median"] else 0.0),
        "bound": bound,
    }
    if bound is not None:
        summary["within_bound"] = -sign * ratio <= bound
    summary["runs"] = {"parent": parent, "change": change}
    return summary


def summarize_workload(seeds: list[int], results: dict, metrics: dict) -> dict:
    """``results[side]`` lists one ``bench/run.py`` JSON line per seed;
    ``metrics`` maps each metric to its (better, bound)."""
    entry = {
        "pairs": len(seeds),
        "seeds": seeds,
        "order": ["".join(side[0].upper() for side in pair_order(k))
                  for k in range(len(seeds))],
    }
    for key in ("correct", "attempted", "failed"):
        entry[key] = {side: [run[key] for run in results[side]] for side in SIDES}
    entry["metrics"] = {
        name: summarize(*[[run["metrics"][name]["value"] for run in results[side]]
                          for side in SIDES], better, bound)
        for name, (better, bound) in metrics.items()
        if all(name in run["metrics"] for side in SIDES for run in results[side])
    }
    return entry


def metric_table(benchmark: dict, trace: int) -> dict:
    """(better, bound) per metric of the end-to-end or per-layer list."""
    kind = "per_layer" if trace else "end_to_end"
    return {m["name"]: (m["better"], m.get("bound")) for m in benchmark[kind]}


def clear_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int,
              clear: list[Path]) -> dict:
    for root in clear:
        clear_bytecode(root)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=seconds * 4 + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name}: {' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr[-500:]}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the tree measured as the parent")
    parser.add_argument("change", type=Path, help="the tree measured as the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="e.g. 3101-3110 or 3101,3103")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default="pairs")
    parser.add_argument("--change-text", default="", help="what the change does")
    parser.add_argument("--note", default="", help="appended to the method")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = metric_table(benchmark, args.trace)
    results = {w: {side: [] for side in SIDES} for w in args.workloads}
    for k, seed in enumerate(args.seeds):
        for workload in args.workloads:
            for side in pair_order(k):
                result = run_bench(trees[side], workload, seed, args.seconds,
                                   args.trace, list(trees.values()))
                results[workload][side].append(result)
                p50 = result["metrics"].get("latency_ms_p50", {}).get("value")
                print(f"seed {seed} {workload} {side}: correct {result['correct']}"
                      + ("" if p50 is None else f", latency_ms_p50 {p50:.4g}"),
                      file=sys.stderr, flush=True)

    command = (f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
               f"--trace {args.trace}")
    method = (
        f"{len(args.seeds)} pairs per workload on seeds {args.seeds[0]}-{args.seeds[-1]}, "
        "made by tools/bench_pairs.py: per seed the workloads ran in the order "
        f"{', '.join(args.workloads)}, each as a pair of runs of the parent and the "
        "change tree on the same seed, parent first on even-numbered pairs (from 0) "
        "and change first on odd ones; every __pycache__ of both trees deleted before "
        "every run; one run at a time; "
        f"{os.cpu_count()} CPUs, {platform.python_implementation()} "
        f"{platform.python_version()}. Quartiles: statistics.quantiles(method="
        "'inclusive'); parent_spread is the parent's quartile distance over its "
        "median; wins counts pairs where the change is better in the metric's "
        "direction." + (" " + args.note if args.note else ""))
    document = {
        "tag": args.tag,
        "change": args.change_text,
        "command": command,
        "method": method,
        "workloads": {w: summarize_workload(args.seeds, results[w], metrics)
                      for w in args.workloads},
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
