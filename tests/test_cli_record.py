"""Every CLI run of `tools/cli_snapshot.py` against the committed record `cli_record.json`.

The record holds, for each config and command, the exit code and the sha256
of stdout, stderr and each written file.  Regenerate it with

    python3 tools/cli_snapshot.py --record tests/cli_record.json

and list every changed entry in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

RECORD = Path(__file__).with_name("cli_record.json")
TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_snapshot.py"


def load_tool():
    """`tools/cli_snapshot.py` as a module; tools/ is a folder of scripts, not a package."""
    spec = importlib.util.spec_from_file_location("cli_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_cli_run_matches_the_record():
    expected, actual = json.loads(RECORD.read_text()), load_tool().cli_record()
    differing = [f"{run} {part}: {expected.get(run, {}).get(part)} -> {actual.get(run, {}).get(part)}"
                 for run in sorted(expected.keys() | actual.keys())
                 for part in sorted(expected.get(run, {}).keys() | actual.get(run, {}).keys())
                 if expected.get(run, {}).get(part) != actual.get(run, {}).get(part)]
    assert not differing, (
        f"{len(differing)} parts differ from {RECORD.name} (recorded -> now):\n"
        + "\n".join(differing)
        + "\nWrite the snapshot trees of both versions with tools/cli_snapshot.py, compare them "
        "with diff -r, and read the column deltas with tools/csv_delta.py.")
