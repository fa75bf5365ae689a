"""Print the largest change of each column of every CSV that differs between two CLI snapshots.

    python3 tools/csv_delta.py OLD NEW

OLD and NEW are trees written by `tools/cli_snapshot.py`.  For each file of
OLD whose bytes differ in NEW and that reads as a numeric CSV on both sides (a
header line, then one or more rows of floats), this prints its path, the
number of rows and of differing lines, and max |new - old| per column.  A CSV
whose shape or header changed, a file that reads as a numeric CSV on one side
only, and a file missing on one side are named as such.  Other files (stdout,
stderr, exit codes) are left to `diff -r`, and identical files print nothing.
A last line gives the largest |new - old| of each column name over all the
differing CSVs compared, if there are any.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np


def read_csv(path: Path) -> tuple[list[str], list[str], np.ndarray] | None:
    """(header, data lines, values) of a numeric CSV, or None if ``path`` is not one."""
    lines = path.read_text().splitlines()
    if len(lines) < 2:
        return None
    header = lines[0].split(",")
    try:
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError:
        return None
    if values.shape[1] != len(header):
        return None
    return header, lines[1:], values


def max_deltas(pairs) -> str:
    """``name delta`` for each (column name, max |new - old|) pair, comma-separated."""
    return ", ".join(f"{name} {delta:.3g}" for name, delta in pairs)


def compare(old_root: Path, new_root: Path) -> list[str]:
    """One line per file of either tree that differs and is or may be a CSV, then the maxima.

    The last line holds each column name's largest |new - old| over the
    compared CSVs; it is left out when no CSV was compared.
    """
    report, largest = [], {}
    paths = sorted({p.relative_to(root) for root in (old_root, new_root)
                    for p in root.rglob("*") if p.is_file()})
    for rel in paths:
        old, new = old_root / rel, new_root / rel
        if not (old.exists() and new.exists()):
            report.append(f"{rel}: only in {'OLD' if old.exists() else 'NEW'}")
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        a, b = read_csv(old), read_csv(new)
        if a is None or b is None:
            if a is not None or b is not None:
                report.append(f"{rel}: not a numeric CSV on one side")
            continue
        (head_a, lines_a, va), (head_b, lines_b, vb) = a, b
        if head_a != head_b or va.shape != vb.shape:
            report.append(f"{rel}: shape {va.shape} -> {vb.shape}, header "
                          f"{','.join(head_a)} -> {','.join(head_b)}")
            continue
        moved = sum(x != y for x, y in zip(lines_a, lines_b))
        deltas = np.max(np.abs(vb - va), axis=0, initial=0.0)
        report.append(f"{rel}: {len(lines_a)} rows, {moved} differ; "
                      f"max|delta| {max_deltas(zip(head_a, deltas))}")
        for name, delta in zip(head_a, deltas):
            largest[name] = max(largest.get(name, 0.0), delta)
    if largest:
        report.append(f"all CSVs: max|delta| {max_deltas(largest.items())}")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="snapshot tree of the old checkout")
    parser.add_argument("new", type=Path, help="snapshot tree of the new checkout")
    args = parser.parse_args()
    for line in compare(args.old, args.new):
        print(line)


if __name__ == "__main__":
    main()
