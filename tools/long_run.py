"""Time and trace one long Lindblad trajectory: the README's 100,000-snapshot run.

    python3 tools/long_run.py [--src SRC] [--snapshots N]

The run is `dotbus.dynamics.integrate_lindblad` of the two-qubit reduced
model at lambda = 1 rad/s from |10><10|, with gamma = 0.1 and
gamma_phi = 0.2 rad/s, over N steps of 0.01 s (default 100,000), recording
every step: N + 1 snapshots.  Each of three fresh processes imports dotbus
from SRC (default: `src/` of this checkout, as `cli_snapshot.py` takes it),
makes one untimed run, then ten timed runs and one run under tracemalloc,
and then traces the same run from the dense start rho0 = 0.05 + 0.2 I, whose
one 4-index block the check reads by eigvalsh.  For each process the script
prints the median wall time of the timed runs and their interquartile range,
in ms, and the traced peak of each start in MiB; then the median of the
process medians.  Pin it to one core for steady timings:

    taskset -c 1 python3 tools/long_run.py --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench_pairs import quartiles

ROOT = Path(__file__).resolve().parent.parent
RUNS, PROCESSES = 10, 3  # timed runs per process, fresh processes

# Run as `python -c CHILD SNAPSHOTS RUNS` against the dotbus under test.
CHILD = """
import json, sys, time, tracemalloc
import numpy as np
from dotbus.algebra import DensityMatrix, HilbertSpace, PureState
from dotbus.dynamics import NoiseSpec, TimeGrid, integrate_lindblad
from dotbus.hamiltonians import h_reduced_two_qubit

steps, runs = int(sys.argv[1]), int(sys.argv[2])
space = HilbertSpace((2, 2))
starts = (PureState(space, np.array([0, 0, 1, 0], dtype=complex)).density_matrix(),
          DensityMatrix(space, np.full((4, 4), 0.05) + 0.2 * np.eye(4)))
h, noise, grid = h_reduced_two_qubit(1.0), NoiseSpec(0.1, 0.2), TimeGrid(0.01 * steps, steps)
integrate_lindblad(h, starts[0], noise, grid)
walls = []
for _ in range(runs):
    start = time.perf_counter()
    integrate_lindblad(h, starts[0], noise, grid)
    walls.append(time.perf_counter() - start)
peaks = []
for rho0 in starts:
    tracemalloc.start()
    integrate_lindblad(h, rho0, noise, grid)
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(json.dumps({"wall_s": walls, "peak_bytes": peaks}))
"""


def measure(src: Path, snapshots: int) -> dict:
    """{"wall_s": [RUNS wall times], "peak_bytes": [traced peak of each start]} of one process."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(snapshots), str(RUNS)],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"the run exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the dotbus package to run")
    parser.add_argument("--snapshots", type=int, default=100_000, help="steps, one snapshot each")
    args = parser.parse_args(argv)
    if args.snapshots < 1:
        parser.error("--snapshots must be at least 1")
    print(f"{args.snapshots} steps, {RUNS} timed runs per process, dotbus from {args.src}")
    medians = []
    for k in range(PROCESSES):
        result = measure(args.src.resolve(), args.snapshots)
        walls = [1e3 * wall for wall in result["wall_s"]]
        lo, median, hi = quartiles(walls)
        medians.append(median)
        pure, dense = (peak / 2**20 for peak in result["peak_bytes"])
        print(f"process {k}: median {median:.1f} ms (IQR {lo:.1f}-{hi:.1f}), "
              f"traced peak {pure:.1f} MiB from |10><10|, {dense:.1f} MiB from 0.05 + 0.2 I")
    print(f"median of the process medians: {statistics.median(medians):.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
