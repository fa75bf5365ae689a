"""Time whole `dotbus` CLI processes of two source trees in alternating pairs.

    python3 tools/cli_wall.py PARENT_SRC CHANGE_SRC --pairs N [--bytecode {off,on}]

Each pair runs every command of COMMANDS once per tree as a fresh process,
``python -m dotbus.cli COMMAND --config config.json`` on the empty config
``{}``, with that tree's SRC alone on PYTHONPATH, in a scratch directory.
The parent runs first in even pairs and the change in odd ones.  One untimed
round of every command per tree comes first.  PYTHONDONTWRITEBYTECODE is set
explicitly in each child's environment: ``--bytecode off`` (the default) sets
it to 1, so every process compiles dotbus afresh; ``--bytecode on`` removes
it, so the untimed round writes ``__pycache__`` under each SRC and the timed
runs load it.  The setting is printed first.  For each command the script
prints each tree's median wall time and interquartile range, in ms, the
change's median over the parent's and the pairs in which the change ran
faster.  Nothing under either SRC is changed, bytecode aside.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import SIDES, quartiles

COMMANDS = {
    "device": ["device"],
    "epr": ["epr"],
    "epr --out": ["epr", "--out", "epr.csv"],
    "sweep": ["sweep"],
    "validate": ["validate"],
}


def run_once(env: dict, command: list[str], work: Path) -> float:
    """Wall seconds of one CLI process; a nonzero exit raises RuntimeError."""
    argv = [sys.executable, "-m", "dotbus.cli", *command, "--config", "config.json"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--bytecode", choices=("off", "on"), default="off",
                        help="off: PYTHONDONTWRITEBYTECODE=1; on: unset, bytecode cached")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    base = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    if args.bytecode == "off":
        base["PYTHONDONTWRITEBYTECODE"] = "1"
    envs = {side: {**base, "PYTHONPATH": str(src.resolve())}
            for side, src in zip(SIDES, (args.parent_src, args.change_src))}
    setting = base.get("PYTHONDONTWRITEBYTECODE", "unset")
    print(f"PYTHONDONTWRITEBYTECODE={setting} in every child; python {sys.version.split()[0]}")

    walls = {name: {side: [] for side in SIDES} for name in COMMANDS}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "config.json").write_text("{}")
        for side in SIDES:  # untimed: file cache, and bytecode where it is written
            for command in COMMANDS.values():
                run_once(envs[side], command, work)
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for name, command in COMMANDS.items():
                for side in order:
                    walls[name][side].append(run_once(envs[side], command, work))
            print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{'command':<10} {'parent ms (IQR)':>22} {'change ms (IQR)':>22} "
          f"{'change/parent':>14} {'change faster':>14}")
    for name, runs in walls.items():
        cells = []
        for side in SIDES:
            q1, median, q3 = (1e3 * q for q in quartiles(runs[side]))
            cells.append(f"{median:.1f} ({q1:.1f}-{q3:.1f})")
        ratio = statistics.median(runs["change"]) / statistics.median(runs["parent"])
        wins = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        print(f"{name:<10} {cells[0]:>22} {cells[1]:>22} {ratio:>14.3f} "
              f"{wins:>8}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
