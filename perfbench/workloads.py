"""Seeded inputs, the timed op and its oracle check, for each workload.

Op ``k`` of a run uses the ``k``-th input drawn from ``--seed``; the program
receives only the generated config.  Ranges keep every op valid: the sweep
and EPR step count stays at 256, and the bus ratio tau/g stays at or above
the model's dispersive threshold of 5.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

MHZ = 2e6 * math.pi  # rad/s per MHz of f = omega / 2pi
BUS_QUBITS = (3, 4, 5, 6, 7)
EPR_STEPS = 256


@dataclass
class Input:
    config: dict                               # all the program sees
    check: dict = field(default_factory=dict)  # oracle-only extras


def _mhz(x: float) -> str:
    return f"{x!r} MHz"


def sweep_input(rng: np.random.Generator) -> Input:
    config = {
        "model": {"tau_over_g": float(rng.uniform(10.0, 100.0))},
        "sweep": {
            "gamma_max_over_2pi": _mhz(float(rng.uniform(0.5, 2.0))),
            "gamma_phi_max_over_2pi": _mhz(float(rng.uniform(0.5, 2.0))),
        },
    }
    points = [tuple(int(v) for v in rng.integers(0, 21, size=2)) for _ in range(4)]
    return Input(config, {"points": points})


def epr_input(rng: np.random.Generator) -> Input:
    config = {
        "noise": {
            "gamma_over_2pi": _mhz(float(rng.uniform(0.0, 2.0))),
            "gamma_phi_over_2pi": _mhz(float(rng.uniform(0.0, 2.0))),
        }
    }
    rows = sorted(int(v) for v in rng.integers(1, EPR_STEPS, size=3))
    return Input(config, {"rows": rows})


def bus_input(rng: np.random.Generator) -> Input:
    return Input({"model": {
        "coupling_g": _mhz(float(rng.uniform(5.0, 100.0))),
        "tau_over_g": float(rng.uniform(5.0, 100.0)),
    }})


def inputs(workload: str, seed: int):
    """Endless, seed-determined stream of inputs for ``workload``."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    make = WORKLOADS[workload].make_input
    while True:
        yield make(rng)


class Ops:
    """Runs ops through dotbus's public entry points inside one scratch directory."""

    def __init__(self, dotbus_pkg, workdir: Path, threads: int):
        self.cli = dotbus_pkg.cli
        self.config = dotbus_pkg.config
        self.protocols = dotbus_pkg.protocols
        self.workdir = workdir
        self.threads = threads
        self.config_path = str(workdir / "config.json")

    def write_config(self, config: dict) -> None:
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)

    def main(self, *argv: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(list(argv))
        return code, out.getvalue()

    # -- timed ops -----------------------------------------------------------

    def sweep(self, inp: Input):
        out = str(self.workdir / "sweep.csv")
        code, _ = self.main("sweep", "--config", self.config_path, "--out", out,
                            "--threads", str(self.threads))
        return code, out

    def epr(self, inp: Input):
        out = str(self.workdir / "epr.csv")
        code, stdout = self.main("epr", "--config", self.config_path, "--out", out)
        return code, out, stdout

    def bus(self, inp: Input):
        code, stdout = self.main("validate", "--config", self.config_path)
        reports = []
        for n in BUS_QUBITS:
            raw = {**inp.config, "model": {**inp.config["model"], "n_qubits": n}}
            model = self.config.config_from_dict(raw).model
            reports.append(self.protocols.selective_coupling_check(model))
        return code, stdout, reports

    # -- oracle checks, run outside the timed region --------------------------

    def check_sweep(self, inp: Input, result) -> list[str]:
        code, out = result
        if code != 0:
            return [f"sweep exited {code}"]
        resolved = self.config.config_from_dict(inp.config)
        with open(out) as fh:
            text = fh.read()
        return oracles.check_sweep(text, resolved.model.lam, resolved.sweep_gamma_axis,
                                   resolved.sweep_gamma_phi_axis, inp.check["points"])

    def check_epr(self, inp: Input, result) -> list[str]:
        code, out, stdout = result
        if code != 0:
            return [f"epr exited {code}"]
        noise = inp.config["noise"]
        gamma = MHZ * float(noise["gamma_over_2pi"].split()[0])
        gamma_phi = MHZ * float(noise["gamma_phi_over_2pi"].split()[0])
        with open(out) as fh:
            text = fh.read()
        lam = self.config.config_from_dict(inp.config).model.lam
        return oracles.check_epr(text, stdout, lam, gamma, gamma_phi, EPR_STEPS,
                                 inp.check["rows"])

    def check_bus(self, inp: Input, result) -> list[str]:
        code, stdout, reports = result
        g = MHZ * float(inp.config["model"]["coupling_g"].split()[0])
        tau = inp.config["model"]["tau_over_g"] * g
        errors = oracles.check_validate(code, stdout, g, tau)
        for n, report in zip(BUS_QUBITS, reports):
            errors += oracles.check_selective(report, g, tau, n)
        return errors


@dataclass(frozen=True)
class Workload:
    make_input: object
    run: str          # name of the Ops method for the timed op
    count_ops: int    # traced ops whose exact counts are reported
    gauge: str        # hostspeed kernel read between ops
    gauge_reps: int   # kernel runs per reading
    warm_up: dict = field(default_factory=dict)  # merged into the warm-up op's config


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sweep": Workload(sweep_input, "sweep", 2, "small", 4,
                      {"sweep": {"gamma_points": 3, "gamma_phi_points": 3}}),
    "epr-trace": Workload(epr_input, "epr", 20, "small", 1),
    "bus-check": Workload(bus_input, "bus", 4, "dense", 2),
}
