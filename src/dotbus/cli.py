"""Command-line front end.

Subcommands:
  device    derived circuit quantities from the configured geometry
  epr       entangled-pair generation under the configured noise
  sweep     error-probability grid over (gamma, gamma_phi), written as CSV
  validate  full-model vs effective-model consistency checks

Exit codes: 0 success, 2 configuration error, 3 numerical-diagnostic or
threshold failure, 4 I/O error.  All outputs are deterministic for a fixed
config; CSV files are byte-stable across runs.  ``--threads`` is accepted and
ignored: the sweep steps every grid point at once in one process.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .device import (
    bare_frequency,
    coupling_g,
    decay_kappa,
    mixing_angle,
    phase_shift,
    renormalized_frequency,
)
from .dynamics import DiagnosticError
from .hamiltonians import DISPERSIVE_THRESHOLD
from .protocols import (
    _epr_fidelity,
    decoherence_sweep,
    dispersive_validity,
    epr_generation,
    gate_time_t0,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIAGNOSTIC = 3
EXIT_IO = 4

REFERENCE_POINT_MHZ = (0.2, 0.5)
REFERENCE_CLAIM = "reference claim: below 1%"


def _fmt_freq(omega: float) -> str:
    """Angular value plus the f = omega/2pi reading in sensible units."""
    f = omega / (2.0 * math.pi)
    for unit, scale in (("GHz", 1e9), ("MHz", 1e6), ("kHz", 1e3), ("Hz", 1.0)):
        if abs(f) >= scale or unit == "Hz":
            return f"{omega:.6e} rad/s  ({f / scale:.6g} {unit})"


def _write_outputs(cfg: RunConfig, out: str, text: str) -> None:
    """Write ``text`` to ``out`` and the resolved config to ``<out>.resolved.json``.

    Both are written in full to ``<path>.tmp`` beside their targets before
    either is moved into place with os.replace, ``<out>`` last, so a write
    that fails leaves no new output and no temporary file behind, and an
    older ``<out>`` as it was: a resolved config already moved into place
    when ``<out>`` cannot be is removed again, though an older
    ``<out>.resolved.json`` that it replaced is not restored.  An existing
    ``<path>.tmp``, say from a killed run, is left alone and fails the write.
    """
    staged, moved = [], []
    try:
        for path, content in ((out, text), (out + ".resolved.json", cfg.dump_json())):
            with open(path + ".tmp", "x") as fh:
                staged.append(path)
                fh.write(content)
        for path in reversed(staged):
            os.replace(path + ".tmp", path)
            moved.append(path)
    except OSError:
        for path in moved:
            os.remove(path)
        raise
    finally:
        for path in staged:
            if os.path.exists(path + ".tmp"):
                os.remove(path + ".tmp")


def cmd_device(cfg: RunConfig, out) -> int:
    tlr, dot, coupler = cfg.tlr, cfg.dot, cfg.coupler
    w0 = bare_frequency(tlr)
    w = renormalized_frequency(tlr)
    delta = phase_shift(tlr)
    kappa = decay_kappa(tlr)
    g = cfg.model.couplings_g[0]
    tau = cfg.model.detunings_tau[0]
    lam = cfg.model.lam
    lines = [
        f"bare mode frequency     omega0 = {_fmt_freq(w0)}",
        f"renormalized frequency  omega  = {_fmt_freq(w)}",
        f"mode phase shift        delta  = {delta:.6e} rad",
        f"cavity decay factor     kappa  = {_fmt_freq(kappa)}",
        f"device coupling         g(x)   = {_fmt_freq(coupling_g(tlr, dot, coupler))}",
        f"model coupling          g      = {_fmt_freq(g)}",
        f"detuning                tau    = {_fmt_freq(tau)}  (tau/g = {tau / g:.6g})",
        f"effective exchange      lambda = {_fmt_freq(lam)}",
        f"entangling time         t0     = {gate_time_t0(lam):.6e} s",
        f"qubit mixing angle      theta  = {mixing_angle(dot):.6f} rad",
    ]
    print("\n".join(lines))
    if out:
        _write_outputs(cfg, out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_epr(cfg: RunConfig, out) -> int:
    report = epr_generation(cfg.model, cfg.noise, trajectory=bool(out))
    gamma_mhz = cfg.noise.gamma / (2e6 * math.pi)
    gamma_phi_mhz = cfg.noise.gamma_phi / (2e6 * math.pi)
    print(f"entangling time t0      = {report.t0:.6e} s")
    print(f"rates: gamma/2pi = {gamma_mhz:.6g} MHz, gamma_phi/2pi = {gamma_phi_mhz:.6g} MHz")
    print(f"fidelity to target      = {report.fidelity:.10f}")
    print(f"error probability D     = {report.error_d:.10f}")
    print(f"concurrence             = {report.concurrence:.10f}")
    print(
        f"reference operating point gamma/2pi = {REFERENCE_POINT_MHZ[0]} MHz, "
        f"gamma_phi/2pi = {REFERENCE_POINT_MHZ[1]} MHz ({REFERENCE_CLAIM}); "
        f"this run: D = {report.error_d:.4%}"
    )
    if out:
        result = report.result
        columns = np.stack([result.times, _epr_fidelity(result.states),
                            np.trace(result.states, axis1=1, axis2=2).real,
                            result.diagnostics["min_eig"]], axis=1)
        # One % over every row, on Python floats, which format faster than numpy's
        rows = "%.10e,%.10e,%.10e,%.10e\n" * len(columns) % tuple(columns.ravel().tolist())
        _write_outputs(cfg, out, "t,fidelity,trace,min_eig\n" + rows)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out) -> int:
    out = out or "sweep.csv"
    sweep = decoherence_sweep(cfg.model, cfg.sweep_gamma_axis, cfg.sweep_gamma_phi_axis)
    # Each axis value formatted once, then one % over every D, on Python
    # floats, which format faster than numpy's
    gammas, gamma_phis = (["%.10e" % (rate / (2e6 * math.pi)) for rate in axis.tolist()]
                          for axis in (sweep.gamma_axis, sweep.gamma_phi_axis))
    rows = "".join(f"{gamma},{gamma_phi},%.10e\n" for gamma in gammas for gamma_phi in gamma_phis)
    _write_outputs(cfg, out, "gamma_over_2pi_MHz,gamma_phi_over_2pi_MHz,error_D\n"
                   + rows % tuple(sweep.error_grid.ravel().tolist()))
    print(f"wrote {sweep.error_grid.size} sweep rows to {out}")
    print(
        f"reference operating point gamma/2pi = {REFERENCE_POINT_MHZ[0]} MHz, "
        f"gamma_phi/2pi = {REFERENCE_POINT_MHZ[1]} MHz ({REFERENCE_CLAIM})"
    )
    return EXIT_OK


def cmd_validate(cfg: RunConfig, out) -> int:
    report = dispersive_validity(cfg.model)
    checks = [
        ("full_vs_effective_fidelity",
         report.fidelity_full_vs_effective >= 0.95,
         f"{report.fidelity_full_vs_effective:.8f} (threshold >= 0.95)"),
        ("max_cavity_occupation",
         report.max_cavity_occupation < report.cavity_bound,
         f"{report.max_cavity_occupation:.3e} (bound {report.cavity_bound:.3e})"),
    ]
    lines = [f"tau/g = {report.tau_over_g:.6g}"]
    ok = True
    for name, passed, detail in checks:
        lines.append(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        ok = ok and passed
    print("\n".join(lines))
    if out:
        _write_outputs(cfg, out, "\n".join(lines) + "\n")
    if not ok:
        failing = ", ".join(name for name, passed, _ in checks if not passed)
        print(f"validation failed: {failing}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


# Commands that simulate exactly one qubit pair with the dispersive model.
_TWO_QUBIT_COMMANDS = ("epr", "sweep", "validate")

_COMMANDS = {
    "device": cmd_device,
    "epr": cmd_epr,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse_args returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="dotbus",
        description="Dispersively coupled double-dot qubits on a resonator bus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON run configuration")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored; the sweep steps all grid points at once")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        model = cfg.model
        if args.command in _TWO_QUBIT_COMMANDS:
            if model.n_qubits != 2:
                raise ConfigError(
                    "model.n_qubits",
                    f"'{args.command}' simulates exactly 2 qubits, got {model.n_qubits}",
                )
            if not model.is_dispersive:
                ratio = model.detunings_tau[0] / model.couplings_g[0]
                print(f"validation failed: tau/g = {ratio:.6g} is below the dispersive "
                      f"threshold {DISPERSIVE_THRESHOLD:.6g}", file=sys.stderr)
                return EXIT_DIAGNOSTIC
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DiagnosticError, np.linalg.LinAlgError) as exc:
        print(f"numerical diagnostics failed: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
