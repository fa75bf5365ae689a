"""Experiment-level routines composed from the lower modules.

Covers entangled-pair generation under noise, validation of the dispersive
effective model against the full qubit-cavity dynamics, spectator decoupling
checks, and the two-axis decoherence sweep of the generation error.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .algebra import TRACE_TOL, DensityMatrix, HilbertSpace, PureState
from .dynamics import (DiagnosticError, NoiseSpec, SimResult, TimeGrid, _Coordinates, _evolve,
                       _real_coordinates, build_liouvillian, integrate_lindblad)
from .hamiltonians import DISPERSIVE_THRESHOLD, ModelParams, h_reduced_two_qubit, sector_hamiltonian

TWO_QUBIT_SPACE = HilbertSpace((2, 2))
_EPR_START = DensityMatrix(TWO_QUBIT_SPACE, np.diag([0.0, 0.0, 1.0, 0.0]))  # |10><10|
_EPR_TARGET = np.array([0, -1j, 1, 0]) / math.sqrt(2)  # (|10> - i|01>)/sqrt(2)
_EPR_START.matrix.flags.writeable = False  # every pair run reads both: formed once
_EPR_TARGET.flags.writeable = False
MIN_EPR_STEPS = 256  # also the most snapshot intervals a recorded trajectory keeps
FRAME_SAMPLES = 400  # intervals of [0, t0] at which _pair_run records mean levels
# Largest frame phase tau x t0 = (pi/4)(tau/g)^2, in rad, for `validate`.  Its
# roundoff grows like eps x tau x t0 and reaches the cavity check's margin
# 8 (g/tau)^2 from 2.5e8 rad up (tools/precision_scan.py); below 1e7 it is within 1.1e-3 of it.
MAX_FRAME_PHASE = 1e7
# Largest |spectator_ratio| of `selective_coupling_check`.  The eigensolver's
# error grows with the parked detuning; at n = 3..7 and tau/g = 5..100 the
# spectator deviation is within 1.9e-4 (relative) and the pair fidelity within
# 1.3e-8 of 60 digits up to here, and the deviation's error passes 1e-3 at 1e9
# (tools/spectator_scan.py).
MAX_SPECTATOR_RATIO = 1e8


def gate_time_t0(lam: float) -> float:
    """Entangling time pi / (4 lambda): a quarter of the full exchange period."""
    if not lam > 0:  # NaN fails too
        raise ValueError("lambda must be positive")
    return math.pi / (4.0 * lam)


def epr_target() -> PureState:
    """(|10> - i|01>)/sqrt(2) on the register {|00>, |01>, |10>, |11>}."""
    return PureState(TWO_QUBIT_SPACE, _EPR_TARGET)


@dataclass(frozen=True, eq=False)
class EprReport:
    t0: float
    fidelity: float
    error_d: float
    concurrence: float
    result: SimResult


def _require_dispersive_pair(p: ModelParams) -> None:
    """Refuse a model that is not one qubit pair with tau/g at least DISPERSIVE_THRESHOLD."""
    if p.n_qubits != 2:
        raise ValueError("entangled-pair generation targets exactly two qubits")
    if not p.is_dispersive:
        raise ValueError(f"detuning/coupling ratio below dispersive threshold {DISPERSIVE_THRESHOLD}")


def _epr_grid(lam: float, noise: NoiseSpec) -> TimeGrid:
    """Time grid of one EPR run.

    40 steps per unit of noise action t0 x 2(gamma + gamma_phi), the pair's
    total rate, at least MIN_EPR_STEPS (the Hamiltonian's action t0 x 2 lam =
    pi/2 asks for 20 pi).  So dt x (2 lambda + 2(gamma + gamma_phi)) <=
    pi/512 + 1/40 < 0.031: within the stability guard, which
    `integrate_lindblad` holds and `_sweep_errors` need not.  `dynamics._rk4`
    takes an interval of n steps as log2(n) squarings, so the count bounds
    no work; `_check_snapshot` refuses a run whose roundoff has grown past
    its tolerances.  Raises DiagnosticError if the count overflows a float.
    """
    t0 = gate_time_t0(lam)
    rate = 2.0 * (noise.gamma + noise.gamma_phi)
    # The action t0 x rate first: 40 t0 alone overflows for lambda below 1.75e-307,
    # where a small rate still asks for few steps.  Without noise, inf x 0 is NaN.
    try:
        steps = max(MIN_EPR_STEPS, math.ceil(40.0 * (t0 * rate) if rate else 0.0))
    except OverflowError:
        raise DiagnosticError(
            f"the RK4 step count 40 t0 x 2(gamma + gamma_phi) = 40 x {t0:.3g} s x "
            f"{rate:.3g} rad/s overflows a float"
        ) from None
    return TimeGrid(t0, steps)


@functools.cache
def _pair_coordinates() -> _Coordinates:
    """`dynamics._real_coordinates` of the pair from |10><10| at lambda = 1: once, read-only."""
    coords = _real_coordinates(build_liouvillian(h_reduced_two_qubit(1.0)), _EPR_START.matrix)
    for array in (coords.support, *coords.transposes, coords.parts, coords.start, *coords.blocks):
        array.flags.writeable = False  # every later sweep in the process steps them
    return coords


def _epr_fidelity(rho: np.ndarray) -> np.ndarray:
    """<target| rho |target> of `epr_target`, as `fidelity` forms it, for one rho or a stack."""
    return np.real(_EPR_TARGET.conj() @ rho @ _EPR_TARGET)


def epr_generation(p: ModelParams, noise: NoiseSpec, trajectory: bool = False) -> EprReport:
    """Evolve |10> under the vacuum-sector Hamiltonian with noise for t0.

    One `integrate_lindblad` run on `_epr_grid`, the call at which `perfbench`
    counts RK4 work.  Reports fidelity against the entangled target, D = 1 -
    fidelity and the concurrence (`_x_state_concurrence`) of the final state,
    which `_check_snapshot` has checked.  The result keeps the states at 0
    and t0, or with ``trajectory`` at every ceil(steps / MIN_EPR_STEPS)-th
    step and the last: every step of a MIN_EPR_STEPS run, at most
    MIN_EPR_STEPS + 1 snapshots of any.  Refuses a model below its dispersive
    threshold, where that Hamiltonian does not hold.
    """
    _require_dispersive_pair(p)
    grid = _epr_grid(p.lam, noise)
    record_every = -(-grid.steps // MIN_EPR_STEPS) if trajectory else grid.steps
    result = integrate_lindblad(h_reduced_two_qubit(p.lam), _EPR_START, noise, grid, record_every)
    fid = float(_epr_fidelity(result.final))
    return EprReport(t0=grid.t_end, fidelity=fid, error_d=1.0 - fid,
                     concurrence=_x_state_concurrence(result.final), result=result)


def _x_state_concurrence(rho: np.ndarray) -> float:
    """Wootters' concurrence of a two-qubit X state, the kind every run from |10> makes.

    Its l_i are r +- |rho_{01,10}| and s +- |rho_{00,11}|, with r^2 =
    rho_{01,01} rho_{10,10} and s^2 = rho_{00,00} rho_{11,11}, so no
    eigenvalue is taken.  On a valid state this is 2 max(0, |rho_{01,10}| - s,
    |rho_{00,11}| - r) (Yu and Eberly, Quantum Inf. Comput. 7, 459 (2007));
    min and max keep Wootters' value where RK4's error lifts a coherence past
    its bound.
    """
    pop = rho.diagonal().real.clip(0.0)
    r, s = math.sqrt(pop[1] * pop[2]), math.sqrt(pop[0] * pop[3])
    c_r, c_s = abs(rho[1, 2]), abs(rho[0, 3])
    return float(2.0 * max(0.0, min(r, c_r) - max(s, c_s), min(s, c_s) - max(r, c_r)))


def _sector_run(p: ModelParams, start: int, t_end: float) -> np.ndarray:
    """Exact amplitudes of the one-excitation run from qubit ``start`` excited in the vacuum.

    The interaction conserves excitation number, so the run stays on n + 1
    states: qubit j excited in the vacuum for each j, then all qubits down
    with one photon.  Diagonalizes `sector_hamiltonian` once and returns the
    amplitudes of e^{-i(A+V)t}, in its static frame, on those states in that
    order at FRAME_SAMPLES + 1 equally spaced times of [0, t_end].  Raises
    DiagnosticError if a phase overflows, which would make them NaN.
    """
    evals, evecs = np.linalg.eigh(sector_hamiltonian(p))
    energy = float(np.max(np.abs(evals)))  # at least max|tau_j|, since the block is Hermitian
    if not math.isfinite(energy * t_end):  # bounds every phase below
        raise DiagnosticError(
            f"frame trajectory is not finite: the phase energy x time = {energy:.3g} rad/s "
            f"x {t_end:.3g} s overflows a float"
        )
    times = np.linspace(0.0, t_end, FRAME_SAMPLES + 1)
    return (np.exp(-1j * np.outer(times, evals)) * evecs[start].conj()) @ evecs.T


def _pair_run(p: ModelParams, active: tuple[int, int], pair: ModelParams) -> tuple[float, np.ndarray]:
    """Excite qubit ``active[0]`` of ``p`` in the vacuum and evolve it exactly to t0.

    ``pair`` is the active pair's two-qubit model: `_require_dispersive_pair`
    refuses it, and its lambda sets t0 = pi/(4 lambda).  Returns the
    `_epr_fidelity` of the pair at t0, ``active[0]`` first, and the levels
    <n_k>(t), each qubit's then the photon's, on FRAME_SAMPLES + 1 equally
    spaced times.  Both read the static frame of `_sector_run`, safe because
    e^{i tau_k t} cancels in every |c_k|^2 and, since both active qubits of
    ``p`` must share one tau, in c_a c_b*.  `PureState` checks c(t0).
    """
    _require_dispersive_pair(pair)
    amps = _sector_run(p, active[0], gate_time_t0(pair.lam))
    final = PureState(HilbertSpace((p.n_qubits + 1,)), amps[-1]).amplitudes
    c_a, c_b = final[list(active)]
    rho = np.zeros((4, 4), dtype=complex)  # |10> is active[0] excited, |01> active[1]
    rho[0, 0] = np.sum(np.abs(np.delete(final, active)) ** 2)
    rho[1, 1], rho[2, 2] = abs(c_b) ** 2, abs(c_a) ** 2
    rho[2, 1] = c_a * c_b.conjugate()
    rho[1, 2] = rho[2, 1].conjugate()
    return float(_epr_fidelity(rho)), np.abs(amps.T) ** 2


@dataclass(frozen=True)
class DispersiveReport:
    tau_over_g: float
    fidelity_full_vs_effective: float
    infidelity: float
    max_cavity_occupation: float
    cavity_bound: float


def dispersive_validity(p: ModelParams) -> DispersiveReport:
    """Compare the full qubit-cavity dynamics against the effective model.

    `_pair_run` of |10> x |vacuum> to t0 under the full model: the pair's
    overlap with `epr_target`, into which the reduced model of
    `epr_generation` takes |10> at t0, and the peak cavity occupation.
    """
    fid, levels = _pair_run(p, (0, 1), p)  # refuses a phase that overflows first
    g, tau, t0 = p.couplings_g[0], p.detunings_tau[0], gate_time_t0(p.lam)
    if tau * t0 > MAX_FRAME_PHASE:
        raise DiagnosticError(
            f"tau/g = {tau / g:.6g} is past the precision bound: the frame phase tau x t0 = "
            f"{tau * t0:.3g} rad exceeds {MAX_FRAME_PHASE:.3g} rad (tau/g = "
            f"{math.sqrt(4.0 * MAX_FRAME_PHASE / math.pi):.6g}), past which roundoff sets "
            "the readings"
        )
    return DispersiveReport(
        tau_over_g=tau / g,
        fidelity_full_vs_effective=fid,
        infidelity=1.0 - fid,
        max_cavity_occupation=float(np.max(levels[-1])),
        cavity_bound=4.0 * (g / tau) * (g / tau),  # inf, not OverflowError, for tiny tau
    )


@dataclass(frozen=True)
class SelectiveCouplingReport:
    spectator_ratio: float
    spectator_max_deviation: float
    spectator_final_deviation: float
    active_pair_fidelity: float


def selective_coupling_check(
    p: ModelParams,
    active: tuple[int, int] = (0, 1),
    spectator_ratio: float = 10.0,
) -> SelectiveCouplingReport:
    """Run the entangler on two target qubits while spectators sit far detuned.

    Spectators keep their coupling but are parked at ``spectator_ratio``
    (finite; DiagnosticError past MAX_SPECTATOR_RATIO in magnitude) times
    tau_0, at which both active qubits sit; `_pair_run`
    refuses and times the run by the pair (g_0, tau_0), whichever qubits are
    active and even where the couplings differ.  The report carries how far
    any spectator strays from its ground state (the worst excursion over the
    run and the final value) and the active pair's fidelity to the target.
    """
    if p.n_qubits < 3:
        raise ValueError("selective-coupling check needs at least one spectator qubit")
    try:
        active = tuple(map(operator.index, active))
    except TypeError:
        raise ValueError(f"active qubits must be integers, got {active!r}") from None
    if len(set(active)) != 2:
        raise ValueError("exactly two distinct active qubits required")
    if not all(0 <= j < p.n_qubits for j in active):
        raise ValueError(f"active qubits {active} must lie in range({p.n_qubits})")
    if not math.isfinite(spectator_ratio):
        raise ValueError(f"spectator_ratio must be finite, got {spectator_ratio!r}")
    if abs(spectator_ratio) > MAX_SPECTATOR_RATIO:
        raise DiagnosticError(
            f"spectator_ratio = {spectator_ratio!r} is past the precision bound "
            f"|spectator_ratio| <= {MAX_SPECTATOR_RATIO:.3g}, past which the eigensolver's "
            "roundoff sets the readings"
        )
    g, tau = p.couplings_g[0], p.detunings_tau[0]
    run = replace(p, detunings_tau=[tau if j in active else spectator_ratio * tau
                                    for j in range(p.n_qubits)])
    fid, levels = _pair_run(run, active, ModelParams.uniform(2, g, tau))
    excitation = np.delete(levels[:-1], active, axis=0).sum(axis=0)  # spectators only

    return SelectiveCouplingReport(
        spectator_ratio=spectator_ratio,
        spectator_max_deviation=float(np.max(excitation)),
        spectator_final_deviation=float(excitation[-1]),
        active_pair_fidelity=fid,
    )


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Error-probability grid over relaxation and dephasing axes.

    ``error_grid[i, j]`` is the generation error at relaxation rate
    ``gamma_axis[i]`` and dephasing rate ``gamma_phi_axis[j]``.  A value more
    than TRACE_TOL outside [0, 1], or NaN, is a numerical failure and raises
    DiagnosticError; roundoff within it, such as a noiseless D of -2.2e-16, is
    kept as computed.
    """

    gamma_axis: np.ndarray
    gamma_phi_axis: np.ndarray
    error_grid: np.ndarray

    def __post_init__(self):
        if self.error_grid.shape != (len(self.gamma_axis), len(self.gamma_phi_axis)):
            raise ValueError("grid shape does not match axes")
        if not np.all((self.error_grid >= -TRACE_TOL) & (self.error_grid <= 1 + TRACE_TOL)):
            raise DiagnosticError(
                f"error probabilities must lie in [0, 1] within {TRACE_TOL:g}; the grid spans "
                f"[{np.min(self.error_grid):.3g}, {np.max(self.error_grid):.3g}]"
            )


def _sweep_errors(p: ModelParams, gammas: np.ndarray, gamma_phis: np.ndarray) -> np.ndarray:
    """D = 1 - fidelity of the EPR run at every point (gammas[k], gamma_phis[k]), all at once.

    L = lambda L_H + gamma L_rel + gamma_phi L_deph on the parts at lambda = 1,
    bit for bit, since L_H(lambda) is lambda times small integers entry for
    entry.  So `_evolve` steps `_pair_coordinates` at one rate row per point,
    all with the step count of the worst point, which `_epr_grid` keeps within
    the stability guard.  It checks the snapshots at t = 0 and t0, as
    `epr_generation` does, naming the first grid point that fails.
    """
    worst = NoiseSpec(np.max(gammas), np.max(gamma_phis))
    grid = _epr_grid(p.lam, worst)
    rows = np.stack([np.full_like(gammas, p.lam), gammas, gamma_phis], axis=1)

    def point(k: int) -> str:
        return (f"gamma/2pi = {gammas[k] / (2e6 * math.pi):.6g} MHz, "
                f"gamma_phi/2pi = {gamma_phis[k] / (2e6 * math.pi):.6g} MHz")

    rho = _evolve(_pair_coordinates(), rows, grid.dt, grid.steps, grid.steps, point).final
    return 1.0 - _epr_fidelity(rho)  # every snapshot is checked


def decoherence_sweep(p: ModelParams, gamma_axis, gamma_phi_axis) -> SweepResult:
    """Generation error D over a (gamma, gamma_phi) grid.

    Every grid point shares the same step count (sized for the largest rates)
    so the output is a pure function of the inputs.  All points are stepped
    together (`_sweep_errors`).
    """
    gamma_axis = np.asarray(gamma_axis, dtype=float)
    gamma_phi_axis = np.asarray(gamma_phi_axis, dtype=float)
    if gamma_axis.size == 0 or gamma_phi_axis.size == 0:
        raise ValueError("sweep axes must be nonempty")
    if not (np.all(gamma_axis >= 0) and np.all(gamma_phi_axis >= 0)):  # NaN fails too
        raise ValueError("noise rates must be nonnegative")
    _require_dispersive_pair(p)

    gammas, gamma_phis = np.meshgrid(gamma_axis, gamma_phi_axis, indexing="ij")
    errors = _sweep_errors(p, gammas.ravel(), gamma_phis.ravel())
    return SweepResult(gamma_axis, gamma_phi_axis, errors.reshape(gammas.shape))
