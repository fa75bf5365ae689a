"""Record what the dotbus CLI prints and writes, for byte comparison across versions.

    python3 tools/cli_snapshot.py OUTDIR [--src SRC]

Runs `device`, `epr`, `sweep` and `validate` with `--out` on the empty
config `{}` and on the first three seeded inputs (seed 7) of each benchmark
workload, drawn by `perfbench/workloads.py` of this checkout.  For every
config and command it stores stdout, stderr, the exit code and every file
the run wrote (`out`, `out.resolved.json`) under OUTDIR/<config>/<command>/,
with the output path masked as `<OUT>`.  dotbus is imported from SRC
(default: `src/` of this checkout), so one checkout can snapshot another:

    python3 tools/cli_snapshot.py /tmp/new
    python3 tools/cli_snapshot.py /tmp/old --src /path/to/other/checkout/src
    diff -r /tmp/old /tmp/new
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("device", "epr", "sweep", "validate")
SEED = 7
PER_WORKLOAD = 3


def configs() -> dict[str, dict]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    import workloads

    out = {"default": {}}
    for name in workloads.WORKLOADS:
        for k, inp in enumerate(itertools.islice(workloads.inputs(name, SEED), PER_WORKLOAD)):
            out[f"{name}-{k}"] = inp.config
    return out


def snapshot(src: Path, outdir: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, config in configs().items():
        for command in COMMANDS:
            dest = outdir / name / command
            dest.mkdir(parents=True)
            with tempfile.TemporaryDirectory() as work:
                cfg = Path(work) / "config.json"
                cfg.write_text(json.dumps(config))
                out = Path(work) / "out"
                run = subprocess.run(
                    [sys.executable, "-m", "dotbus.cli", command, "--config", str(cfg),
                     "--out", str(out)],
                    capture_output=True, text=True, env=env,
                )
                (dest / "stdout").write_text(run.stdout.replace(str(out), "<OUT>"))
                (dest / "stderr").write_text(run.stderr.replace(str(out), "<OUT>"))
                (dest / "exit_code").write_text(f"{run.returncode}\n")
                for written in Path(work).iterdir():
                    if written != cfg:
                        (dest / written.name).write_bytes(written.read_bytes())
            print(f"{name}/{command}: exit {run.returncode}", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="new directory for the snapshot")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the dotbus package to run")
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=False)
    snapshot(args.src.resolve(), args.outdir)


if __name__ == "__main__":
    main()
