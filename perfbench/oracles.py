"""Independent references for the outputs of each workload.

Nothing here calls dotbus.  The Lindblad reference builds the generator
entry by entry from the README equations (relaxation sigma^- at rate
gamma/4, pure dephasing sigma_z at rate gamma_phi/2, the vacuum-sector
exchange Hamiltonian) and propagates it with `scipy.linalg.expm`.  The bus
references solve the one-excitation sector, which the interaction conserves,
exactly.  Every ``check_*`` returns a list of failure messages; an empty
list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np
import scipy.linalg

D_TOL = 1e-10             # generation error D against the exact propagator
SECTOR_TOL = 1e-10        # bus quantities against the one-excitation sector
VALIDATE_FID_TOL = 1e-8   # `validate` prints the fidelity with 8 decimals
TRACE_DRIFT_TOL = 1e-8    # dynamics health checks, as documented there
MIN_EIG_TOL = -1e-8
VALIDATE_EXITS = (0, 3)

# Reduced two-qubit basis {|00>, |10>, |01>, |11>}: index = q1 + 2 q2.
EPR_TARGET = np.array([0, 1, -1j, 0]) / math.sqrt(2)
START = 1  # |10>


def gate_time(lam: float) -> float:
    return math.pi / (4.0 * lam)


def _bit(k: int, q: int) -> int:
    return (k >> q) & 1


def liouvillian(lam: float, gamma: float, gamma_phi: float) -> np.ndarray:
    """Generator on row-major vec(rho), one column per basis matrix E_ab."""
    h = np.diag([lam * (_bit(k, 0) + _bit(k, 1)) for k in range(4)]).astype(complex)
    h[1, 2] = h[2, 1] = lam
    channels = []
    for q in range(2):
        sz = np.diag([1.0 - 2.0 * _bit(k, q) for k in range(4)]).astype(complex)
        sm = np.zeros((4, 4), dtype=complex)
        for k in range(4):
            if _bit(k, q):
                sm[k ^ (1 << q), k] = 1.0
        channels += [(gamma_phi / 2.0, sz), (gamma / 4.0, sm)]
    gen = np.zeros((16, 16), dtype=complex)
    for col in range(16):
        e = np.zeros((4, 4), dtype=complex)
        e.flat[col] = 1.0
        d = -1j * (h @ e - e @ h)
        for rate, op in channels:
            opd = op.conj().T
            d += rate * (op @ e @ opd - 0.5 * (opd @ op @ e + e @ opd @ op))
        gen[:, col] = d.reshape(-1)
    return gen


def epr_fidelity(lam: float, gamma: float, gamma_phi: float, times) -> np.ndarray:
    """<target| rho(t) |target> for rho(0) = |10><10|, at each time."""
    gen = liouvillian(lam, gamma, gamma_phi)
    rho0 = np.zeros(16, dtype=complex)
    rho0[START * 4 + START] = 1.0
    out = []
    for t in np.atleast_1d(times):
        rho = (scipy.linalg.expm(gen * t) @ rho0).reshape(4, 4)
        out.append(float(np.real(EPR_TARGET.conj() @ rho @ EPR_TARGET)))
    return np.array(out)


def _rows(text: str, header: list[str]) -> tuple[list[list[float]], list[str]]:
    reader = csv.reader(io.StringIO(text))
    got = next(reader, None)
    if got != header:
        return [], [f"csv header {got!r}, expected {header!r}"]
    try:
        return [[float(x) for x in row] for row in reader if row], []
    except ValueError as exc:
        return [], [f"unparsable csv row: {exc}"]


def check_sweep(text: str, lam: float, gamma_axis, gamma_phi_axis, points) -> list[str]:
    """Sweep CSV: axes, D at ``points`` (and the far corner), strict monotonicity."""
    rows, errors = _rows(text, ["gamma_over_2pi_MHz", "gamma_phi_over_2pi_MHz", "error_D"])
    if errors:
        return errors
    ng, nphi = len(gamma_axis), len(gamma_phi_axis)
    if len(rows) != ng * nphi:
        return [f"{len(rows)} sweep rows, expected {ng * nphi}"]
    data = np.array(rows)
    grid = data[:, 2].reshape(ng, nphi)
    mhz = 2e6 * math.pi
    if not (
        np.allclose(data[:, 0], np.repeat(gamma_axis, nphi) / mhz, rtol=1e-9, atol=0)
        and np.allclose(data[:, 1], np.tile(gamma_phi_axis, ng) / mhz, rtol=1e-9, atol=0)
    ):
        errors.append("sweep axes differ from the configured grid")
    for i, j in list(points) + [(ng - 1, nphi - 1)]:
        d_ref = 1.0 - epr_fidelity(lam, gamma_axis[i], gamma_phi_axis[j], gate_time(lam))[0]
        if abs(grid[i, j] - d_ref) > D_TOL:
            errors.append(f"D[{i},{j}] = {float(grid[i, j])!r}, reference {d_ref!r}")
    if not (np.all(np.diff(grid, axis=0) > 0) and np.all(np.diff(grid, axis=1) > 0)):
        errors.append("D does not rise strictly along both axes")
    return errors


_D_LINE = re.compile(r"^error probability D\s*=\s*(\S+)$", re.M)


def check_epr(text: str, stdout: str, lam: float, gamma: float, gamma_phi: float,
              steps: int, rows_to_check) -> list[str]:
    """Timeseries CSV plus the printed D against the exact propagator."""
    rows, errors = _rows(text, ["t", "fidelity", "trace", "min_eig"])
    if errors:
        return errors
    if len(rows) != steps + 1:
        return [f"{len(rows)} timeseries rows, expected {steps + 1}"]
    data = np.array(rows)
    t0 = gate_time(lam)
    if abs(data[-1, 0] - t0) > 1e-9 * t0 or np.any(np.diff(data[:, 0]) <= 0):
        errors.append("time column does not rise to t0")
    if np.max(np.abs(data[:, 2] - 1.0)) > TRACE_DRIFT_TOL:
        errors.append("trace column leaves tolerance")
    if np.min(data[:, 3]) < MIN_EIG_TOL:
        errors.append("min_eig column below tolerance")
    picks = list(rows_to_check) + [steps]
    fid_ref = epr_fidelity(lam, gamma, gamma_phi, data[picks, 0])
    for row, ref in zip(picks, fid_ref):
        if abs(data[row, 1] - ref) > D_TOL:
            errors.append(f"fidelity at row {row} = {float(data[row, 1])!r}, "
                          f"reference {float(ref)!r}")
    match = _D_LINE.search(stdout)
    if match is None:
        errors.append("no D line on stdout")
    elif abs(float(match.group(1)) - (1.0 - fid_ref[-1])) > D_TOL:
        errors.append(f"printed D = {match.group(1)}, reference {float(1.0 - fid_ref[-1])!r}")
    return errors


def sector_amplitudes(g: float, taus, t: float, start: int) -> np.ndarray:
    """One-excitation amplitudes (qubit 0..n-1 excited, then the photon) at t.

    Static-frame Hamiltonian diag(tau_j, 0) + g (|j><photon| + h.c.), exact
    exponential, then the frame phases e^{i tau_j t}.
    """
    n = len(taus)
    h = np.diag(list(taus) + [0.0]).astype(complex)
    h[:n, n] = h[n, :n] = g
    psi0 = np.zeros(n + 1, dtype=complex)
    psi0[start] = 1.0
    frame = np.exp(1j * np.array(list(taus) + [0.0]) * t)
    return frame * (scipy.linalg.expm(-1j * h * t) @ psi0)


def selective_reference(g: float, tau: float, n: int, ratio: float) -> tuple[float, float]:
    """(spectator final deviation, active-pair fidelity) with qubits 0, 1 active."""
    taus = [tau, tau] + [ratio * tau] * (n - 2)
    amps = sector_amplitudes(g, taus, gate_time(g * g / tau), start=0)
    spectators = float(np.sum(np.abs(amps[2:n]) ** 2))
    # Target (|10> - i|01>)/sqrt2 over (qubit 0, qubit 1); the rest of the
    # reduced state sits on |00> and has no overlap with it.
    fid = float(abs(amps[0] + 1j * amps[1]) ** 2 / 2.0)
    return spectators, fid


def check_selective(report, g: float, tau: float, n: int) -> list[str]:
    spect, fid = selective_reference(g, tau, n, report.spectator_ratio)
    errors = []
    if abs(report.spectator_final_deviation - spect) > SECTOR_TOL:
        errors.append(f"n={n}: spectator deviation {report.spectator_final_deviation!r}, "
                      f"reference {spect!r}")
    if abs(report.active_pair_fidelity - fid) > SECTOR_TOL:
        errors.append(f"n={n}: active-pair fidelity {report.active_pair_fidelity!r}, "
                      f"reference {fid!r}")
    return errors


_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (\w+): (\S+)", re.M)


def validate_reference_fidelity(g: float, tau: float) -> float:
    """Full-model vs effective-model fidelity from the 3-level sector."""
    amps = sector_amplitudes(g, [tau, tau], gate_time(g * g / tau), start=0)
    target = np.exp(-1j * math.pi / 4) * np.array([1, -1j, 0]) / math.sqrt(2)
    return float(abs(np.vdot(target, amps)) ** 2)


def check_validate(code: int, stdout: str, g: float, tau: float) -> list[str]:
    """Exit code in {0, 3}, agreeing with the PASS/FAIL lines; fidelity vs sector."""
    if code not in VALIDATE_EXITS:
        return [f"validate exited {code}"]
    lines = {name: (verdict, value) for verdict, name, value in _CHECK_LINE.findall(stdout)}
    if "full_vs_effective_fidelity" not in lines:
        return ["no full_vs_effective_fidelity line"]
    errors = []
    any_fail = any(verdict == "FAIL" for verdict, _ in lines.values())
    if any_fail != (code == 3):
        errors.append(f"exit {code} disagrees with the PASS/FAIL lines")
    verdict, value = lines["full_vs_effective_fidelity"]
    ref = validate_reference_fidelity(g, tau)
    if abs(float(value) - ref) > VALIDATE_FID_TOL:
        errors.append(f"full_vs_effective_fidelity {value}, reference {ref!r}")
    if (verdict == "PASS") != (ref >= 0.95):
        errors.append(f"fidelity verdict {verdict} for reference {ref!r}")
    return errors
