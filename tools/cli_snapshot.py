"""Record what the dotbus CLI prints and writes, for byte comparison across versions.

    python3 tools/cli_snapshot.py OUTDIR [--src SRC]

Runs `device`, `epr`, `sweep` and `validate` with `--out`, and `epr` once
more without it (`epr-no-out`, which keeps only the final state), on the
empty config `{}`, on the first three seeded inputs (seed 7) of each
benchmark workload, drawn by `perfbench/workloads.py` of this checkout, and
on one config per documented failure exit (`FAILURES`, one for each
exit-code bullet of the README plus an underflowing resonator) and on the
named edge cases of `EDGE_CASES`.  For every config and command it stores
stdout, stderr, the exit code and every file the run wrote (`out`,
`out.resolved.json`) under OUTDIR/<config>/<command>/, with the output path
masked as `<OUT>`.  For `{}` and the `bus-check`
inputs it also stores, under OUTDIR/<config>/selective/, every float that
`protocols.selective_coupling_check` reports, as CSV at full float precision
with one row per n = 3..7: the benchmark times that library protocol, and no
command runs it.  For every
config it stores, under OUTDIR/<config>/exact-sweep/, exact-epr/ and
exact-validate/, the sweep's D, the EPR run's fidelity, D and concurrence
(without and with the `--out` trajectory) and every float of
`protocols.dispersive_validity`'s report as CSV at full float precision,
which the commands print to 10 and 8 digits; `tools/csv_delta.py` reads
the changes of all these CSVs.  dotbus is
imported from SRC (default: `src/` of this checkout), so one checkout can
snapshot another:

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

# One input per failure case the README lists, in its order.  A string is
# written to the config file as it is, not as JSON.
FAILURES = {
    "fail-nonfinite": {"noise": {"gamma_phi_over_2pi": "inf"}},
    "fail-rate-overflow": {"noise": {"gamma_over_2pi": 1e308}},
    "fail-sweep-grid": {"sweep": {"gamma_points": 198, "gamma_phi_points": 198}},
    "fail-bad-json": "{",
    "fail-photon-cutoff": {"model": {"photon_cutoff": 5}},
    "fail-dispersive-threshold": {"model": {"dispersive_threshold": 0}},
    "fail-space-dim": {"model": {"n_qubits": 10}},
    "fail-lambda-underflow": {"model": {"coupling_g": "1e-300 Hz"}},
    "fail-tlr-underflow": {"device": {"tlr": {"length": 1e-320}}},
    "fail-not-dispersive": {"model": {"tau_over_g": 2}},
    # The RK4 step count 40 t0 x rate overflows a float, so `epr` and `sweep`
    # exit 3 before any step.  The key stays so snapshot directory names stay put.
    "fail-step-budget": {"model": {"coupling_g": "1 Hz", "tau_over_g": 1e301}},
    # No known config makes the eigensolver fail; this one overflows the frame
    # phase like the next.  The key stays so snapshot directory names stay put.
    "fail-eigensolver": {"model": {"tau_over_g": 1e200}},
    "fail-frame-overflow": {"model": {"coupling_g": "1e-100 Hz", "tau_over_g": 1e160}},
    # Noiseless, so that `epr` takes 256 steps rather than 446,916.
    "fail-precision": {"model": {"tau_over_g": 1e6},
                       "noise": {"gamma_over_2pi": 0, "gamma_phi_over_2pi": 0}},
}


# Inputs on the edge of a documented behaviour.
EDGE_CASES = {
    # 575 RK4 steps, at which the noiseless corner's D reads -2.2e-16: roundoff
    # within algebra.TRACE_TOL of [0, 1], written as computed.
    "edge-roundoff-negative-d": {"sweep": {"gamma_points": 2, "gamma_phi_points": 2,
                                           "gamma_max_over_2pi": "45 MHz",
                                           "gamma_phi_max_over_2pi": "45 MHz"}},
    # lambda = 1e-308, the low end of the accepted range, where dt x G is of
    # order 1e-3 but G G underflows: the RK4 step matrix must scale by dt first.
    "edge-lambda-1e-308": {"model": {"coupling_g": "1e-150 Hz",
                                     "tau_over_g": 6.283185307179586e158},
                           "noise": {"gamma_over_2pi": 0, "gamma_phi_over_2pi": 0},
                           "sweep": {"gamma_points": 2, "gamma_phi_points": 2,
                                     "gamma_max_over_2pi": 0, "gamma_phi_max_over_2pi": 0}},
    # The same lambda with rates 0.1 lambda and 0.2 lambda: 40 t0 alone
    # overflows, so the step count must form the noise action t0 x rate first.
    "edge-lambda-1e-308-noisy": {"model": {"coupling_g": "1e-150 Hz",
                                           "tau_over_g": 6.283185307179586e158},
                                 "noise": {"gamma_over_2pi": 1.59154943091893e-310,
                                           "gamma_phi_over_2pi": 3.1830988618379e-310},
                                 "sweep": {"gamma_points": 2, "gamma_phi_points": 2,
                                           "gamma_max_over_2pi": 1.59154943091893e-310,
                                           "gamma_phi_max_over_2pi": 3.1830988618379e-310}},
    # 13,407,469 RK4 steps at the default noise: `epr` runs, and its `--out`
    # keeps 257 snapshots.  The sweep steps every point at its noisiest
    # point's 38,307,053, and its noiseless corner fails the snapshot trace
    # check, which names that point.
    "edge-past-old-budget": {"model": {"tau_over_g": 3e7}},
    # 441 sweep points x 127,691 RK4 steps: the sweep runs.
    "edge-sweep-past-old-budget": {"model": {"tau_over_g": 1e5}},
    # 23 x 23 = 529 sweep points, past the 512 matrices that earlier versions
    # checked at a time (hence the name): one step-matrix power and one check
    # of the whole stack.
    "edge-sweep-past-check-points": {"sweep": {"gamma_points": 23, "gamma_phi_points": 23}},
    # Exactly at the threshold tau/g = 5, with a g at which (5 g) / g rounds
    # to 4.999999999999999: the model is dispersive, since tau = 5 g.
    "edge-threshold-rounding": {"model": {"coupling_g": "42095669.24242398 Hz",
                                          "tau_over_g": 5}},
}


def configs() -> dict[str, dict | str]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    import workloads

    out = {"default": {}}
    for name in workloads.WORKLOADS:
        for k, inp in enumerate(itertools.islice(workloads.inputs(name, SEED), PER_WORKLOAD)):
            out[f"{name}-{k}"] = inp.config
    return {**out, **FAILURES, **EDGE_CASES}


# Run as `python -c SELECTIVE CONFIG_JSON` against the dotbus under test: one
# CSV row per n of every float of the spectator check's report, as its repr.
SELECTIVE = """
import json, sys
from dotbus.config import config_from_dict
from dotbus.protocols import selective_coupling_check
raw = json.loads(sys.argv[1])
print("n,spectator_ratio,spectator_max_deviation,spectator_final_deviation,active_pair_fidelity")
for n in range(3, 8):
    model = config_from_dict({**raw, "model": {**raw.get("model", {}), "n_qubits": n}}).model
    r = selective_coupling_check(model)
    print(f"{n},{r.spectator_ratio!r},{r.spectator_max_deviation!r},"
          f"{r.spectator_final_deviation!r},{r.active_pair_fidelity!r}")
"""


# Run as `python -c EXACT CONFIG COMMAND` against the dotbus under test: the
# library results behind `sweep`, `epr` and `validate`, every float as its repr.
EXACT = """
import json, sys
from dotbus.config import config_from_dict
from dotbus.protocols import decoherence_sweep, dispersive_validity, epr_generation
try:
    cfg = config_from_dict(json.loads(sys.argv[1]))
    if sys.argv[2] == "sweep":
        sweep = decoherence_sweep(cfg.model, cfg.sweep_gamma_axis, cfg.sweep_gamma_phi_axis)
        print("gamma,gamma_phi,error_D")
        for gamma, errors in zip(sweep.gamma_axis.tolist(), sweep.error_grid.tolist()):
            for gamma_phi, error in zip(sweep.gamma_phi_axis.tolist(), errors):
                print(f"{gamma!r},{gamma_phi!r},{error!r}")
    elif sys.argv[2] == "validate":
        r = dispersive_validity(cfg.model)
        print("tau_over_g,fidelity,infidelity,max_cavity_occupation,cavity_bound")
        print(f"{r.tau_over_g!r},{r.fidelity_full_vs_effective!r},{r.infidelity!r},"
              f"{r.max_cavity_occupation!r},{r.cavity_bound!r}")
    else:
        print("trajectory,fidelity,error_D,concurrence")
        for trajectory in (0, 1):
            r = epr_generation(cfg.model, cfg.noise, trajectory=bool(trajectory))
            print(f"{trajectory},{r.fidelity!r},{r.error_d!r},{r.concurrence!r}")
except Exception as exc:
    sys.exit(f"{type(exc).__name__}: {exc}")
"""


def record(dest: Path, argv: list[str], env: dict, out: Path | None = None) -> None:
    """Run ``argv`` and store its stdout, stderr and exit code under ``dest``."""
    dest.mkdir(parents=True)
    run = subprocess.run(argv, capture_output=True, text=True, env=env)
    for stream, text in (("stdout", run.stdout), ("stderr", run.stderr)):
        (dest / stream).write_text(text.replace(str(out), "<OUT>") if out else text)
    (dest / "exit_code").write_text(f"{run.returncode}\n")
    print(f"{dest.parent.name}/{dest.name}: exit {run.returncode}", flush=True)


def snapshot(src: Path, outdir: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, config in configs().items():
        for command in COMMANDS:
            dest = outdir / name / command
            with tempfile.TemporaryDirectory() as work:
                cfg = Path(work) / "config.json"
                cfg.write_text(config if isinstance(config, str) else json.dumps(config))
                argv = [sys.executable, "-m", "dotbus.cli", command, "--config", str(cfg)]
                if command == "epr":
                    record(outdir / name / "epr-no-out", argv, env)
                out = Path(work) / "out"
                record(dest, argv + ["--out", str(out)], env, out)
                for written in Path(work).iterdir():
                    if written != cfg:
                        (dest / written.name).write_bytes(written.read_bytes())
        raw = config if isinstance(config, str) else json.dumps(config)
        for command in ("sweep", "epr", "validate"):
            record(outdir / name / f"exact-{command}",
                   [sys.executable, "-c", EXACT, raw, command], env)
        if name == "default" or name.startswith("bus-check"):
            record(outdir / name / "selective",
                   [sys.executable, "-c", SELECTIVE, json.dumps(config)], env)


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
