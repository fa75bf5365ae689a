"""Run the benchmark on two checkouts in alternating pairs and record who wins, and by how much.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --seed S \\
        --pairs N [--seconds 30] --out BENCH_<n>.json [--about TEXT]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds SECONDS
--trace 0`` once in each checkout, from that checkout's root, so each side
runs its own benchmark and its own ``src/``; the parent runs first in even
pairs and the change in odd ones.  Nothing under either ``perfbench/`` is
changed.  The end-to-end metrics of every run, each side's median and
quartiles, and the pairs the change won go under ``workloads["W@seedS"]`` of
the JSON file ``--out``, which keeps the entries of earlier calls, so one
file can gather several workloads and seeds.  A metric meets the gain rule
when the change wins at least nine tenths of the pairs, ties counting for
neither, and its median beats the parent's by more than the parent's
interquartile range.  It is within its bound when its median is worse than
the parent's by at most the metric's ``bound`` times the parent's median, and
unresolved when the parent's interquartile range exceeds that much, unless
every change run beats every parent run.  Which direction is better, and each
bound, come from the parent's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one ``perfbench/run.py`` run in ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive: the values themselves for fewer than two."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: dict, higher_is_better: bool, bound: float) -> dict:
    """Median, quartiles, pairs won and rules of one metric, ``runs`` = {side: [value per pair]}."""
    sign = 1.0 if higher_is_better else -1.0
    (p1, pm, p3), (c1, cm, c3) = (quartiles(runs[side]) for side in SIDES)
    wins = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
    every_run_better = all(sign * (c - p) > 0 for p in runs["parent"] for c in runs["change"])
    return {
        "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
        "change_median": cm, "change_q1": c1, "change_q3": c3,
        "change_over_parent": cm / pm if pm else None,
        "change_better_pairs": wins,
        "meets_gain_rule": wins >= 0.9 * len(runs["parent"]) and sign * (cm - pm) > p3 - p1,
        "within_bound": sign * (cm - pm) >= -bound * abs(pm),
        "unresolved": p3 - p1 > bound * abs(pm) and not every_run_better,
    }


def measure(roots: dict, workload: str, seed: int, pairs: int, seconds: float,
            spec: dict) -> dict:
    """The entry of ``pairs`` alternating pairs of one workload and seed."""
    first, results = [], {side: [] for side in SIDES}
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            results[side].append(run_once(roots[side], workload, seed, seconds))
            metrics = results[side][-1]["metrics"]
            print(f"pair {k + 1}/{pairs} {side}: op_median_s = "
                  f"{metrics['op_median_s']['value']:.6g}", file=sys.stderr)
    names = list(results["parent"][0]["metrics"])
    runs = {side: {name: [r["metrics"][name]["value"] for r in results[side]] for name in names}
            for side in SIDES}
    return {
        "pairs": pairs,
        "seconds": seconds,
        "first_side": first,
        "attempted": {side: [r["attempted"] for r in results[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in results[side]] for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in results[side]),
        "runs": runs,
        "summary": {name: summarize({side: runs[side][name] for side in SIDES},
                                    spec[name]["better"] == "higher", spec[name]["bound"])
                    for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--about", default=None, help="text for the file's 'about' field")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    spec = {metric["name"]: metric for metric in spec["end_to_end"]}
    entry = measure(roots, args.workload, args.seed, args.pairs, args.seconds, spec)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.about is not None:
        record["about"] = args.about
    record.update(python=platform.python_version(), numpy=importlib.metadata.version("numpy"))
    record.setdefault("workloads", {})[f"{args.workload}@seed{args.seed}"] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
