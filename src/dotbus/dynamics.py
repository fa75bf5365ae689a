"""Time evolution: the Lindblad integrator of the two-qubit register.

One engine, `_evolve`, runs every master-equation integration: `integrate_lindblad`
is its one-point call, and `protocols.decoherence_sweep` steps a stack of points.
It steps only the entries of row-major vec(rho) that the generators reach from
rho0 (`_support`) with `_rk4`, the fixed-step RK4 stepper.  Its generators are
constant, so every RK4 step applies one matrix S, and `_rk4` advances each
snapshot interval of n steps with S^n.  `_rk4_step` holds the stage formula
that forms S, which the reference Schroedinger integrator takes once per step.
Nothing is renormalized: `_check_snapshot` measures trace, Hermiticity and the
smallest eigenvalue and stops a run at the first snapshot out of tolerance,
before it steps into overflow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .algebra import (EIG_FLOOR, HERMITIAN_TOL, SIGMA_MINUS, SIGMA_Z, TRACE_TOL, DensityMatrix,
                      HilbertSpace, embed, hermiticity_defect)

STABILITY_LIMIT = 0.1        # max allowed dt * ||generator||
# Points of a stacked run whose states one snapshot check, and whose step
# matrices one power, takes at a time, which bounds their temporaries; a whole
# stack's would add to peak memory.
CHECK_POINTS = 64


class DiagnosticError(RuntimeError):
    """A run violated its numerical health checks (norm/trace/positivity)."""


@dataclass(frozen=True)
class TimeGrid:
    """``steps`` equal steps from t = 0 to ``t_end``."""

    t_end: float
    steps: int

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")

    @property
    def dt(self) -> float:
        return self.t_end / self.steps


@dataclass(frozen=True)
class NoiseSpec:
    """Per-qubit relaxation and pure-dephasing rates, rad/s."""

    relaxation: tuple[float, ...]
    dephasing: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "relaxation", tuple(float(g) for g in self.relaxation))
        object.__setattr__(self, "dephasing", tuple(float(g) for g in self.dephasing))
        if len(self.relaxation) != len(self.dephasing):
            raise ValueError("relaxation and dephasing lists must have equal length")
        if any(g < 0 for g in self.relaxation + self.dephasing):
            raise ValueError("noise rates must be nonnegative")

    @property
    def n_qubits(self) -> int:
        return len(self.relaxation)

    @property
    def total_rate(self) -> float:
        return sum(self.relaxation) + sum(self.dephasing)

    @classmethod
    def uniform(cls, n_qubits: int, gamma: float, gamma_phi: float) -> "NoiseSpec":
        return cls((gamma,) * n_qubits, (gamma_phi,) * n_qubits)

    @classmethod
    def none(cls, n_qubits: int) -> "NoiseSpec":
        return cls.uniform(n_qubits, 0.0, 0.0)


@dataclass(frozen=True, eq=False)
class SimResult:
    """Recorded trajectory: snapshot times, raw state arrays, health diagnostics.

    ``states`` holds bare complex arrays (vectors for wavefunction runs,
    matrices for density-matrix runs); wrap in PureState/DensityMatrix at the
    point of use.  Diagnostics are parallel arrays, one entry per snapshot.
    """

    times: np.ndarray
    states: list
    diagnostics: dict

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _snapshot_steps(grid: TimeGrid, scale: float, record_every: int) -> Iterator[int]:
    """Step counts at which a run records a snapshot: 0, every ``record_every``-th and the last.

    First the stability guard: ``scale`` bounds the generator's norm, and a
    step with dt x scale >= STABILITY_LIMIT raises ValueError naming a step
    count that passes.
    """
    dt = grid.dt
    if dt * scale >= STABILITY_LIMIT:
        needed = math.ceil(grid.t_end * scale / (STABILITY_LIMIT * 0.5)) + 1
        raise ValueError(
            f"step size too large: dt*||H|| = {dt * scale:.3g} >= {STABILITY_LIMIT}; "
            f"use at least {needed} steps"
        )
    return itertools.chain(range(0, grid.steps, record_every), [grid.steps])


def _rk4_step(a_left: np.ndarray, a_mid: np.ndarray, a_right: np.ndarray,
              y: np.ndarray) -> np.ndarray:
    """One RK4 step of dy/dt = G(t) y, given a = dt x G at the step's start, midpoint and end.

    Each ``a`` is scaled by dt before any product is formed, so no power of G
    alone under- or overflows where the step itself does not.  For a constant
    generator, with ``y`` the identity, this is the step matrix
    S = I + a (I + a/2 (I + a/3 (I + a/4))).
    """
    k1 = a_left @ y
    k2 = a_mid @ (y + 0.5 * k1)
    k3 = a_mid @ (y + 0.5 * k2)
    k4 = a_right @ (y + k3)
    return y + (k1 + 2 * k2 + 2 * k3 + k4) / 6.0


def _rk4(
    generator: np.ndarray,
    y: np.ndarray,
    grid: TimeGrid,
    scale: float,
    record_every: int,
) -> Iterator[tuple[float, np.ndarray]]:
    """Fixed-step RK4 for dy/dt = generator @ y, generator constant, yielding (t, y) snapshots.

    Yields the initial state, then the state after every ``record_every``-th
    step and after the last, at t = steps x dt (`_snapshot_steps`, which also
    holds the stability guard); the caller checks each one before the next
    interval runs.  Every RK4 step applies the same matrix S (`_rk4_step`),
    so an interval of n steps is one product with S^n, raised by repeated
    squaring, ``CHECK_POINTS`` generators at a time to bound the temporaries.
    A stack of generators, shape (points, n, n), steps a stack of states,
    shape (points, n, 1), at once.
    """
    snapshots = _snapshot_steps(grid, scale, record_every)
    done = next(snapshots)
    yield 0.0, y
    # Interval lengths: the full ones, and a shorter last one if steps leave a remainder.
    lengths = {min(record_every, grid.steps), grid.steps % record_every} - {0}
    stack = generator.reshape((-1,) + generator.shape[-2:])
    powers = {n: np.empty_like(stack) for n in lengths}
    eye = np.eye(stack.shape[-1])
    for lo in range(0, len(stack), CHECK_POINTS):
        a = grid.dt * stack[lo:lo + CHECK_POINTS]
        step = _rk4_step(a, a, a, eye)
        for n, power in powers.items():
            power[lo:lo + CHECK_POINTS] = np.linalg.matrix_power(step, n)
    powers = {n: power.reshape(generator.shape) for n, power in powers.items()}
    for mark in snapshots:
        y = powers[mark - done] @ y
        done = mark
        yield mark * grid.dt, y


@lru_cache(maxsize=8)
def _qubit_channel_ops(n_qubits: int):
    """(sigma_z_i, sigma_i^-) pairs on the n-qubit register."""
    space = HilbertSpace((2,) * n_qubits)
    return tuple(
        (embed(space, (j, SIGMA_Z)), embed(space, (j, SIGMA_MINUS))) for j in range(n_qubits)
    )


def _channels(noise: NoiseSpec):
    """(rate, jump operator) list for the master equation exactly as modeled.

    Dephasing enters as (gamma_phi/2) D[sigma_z] (identical to the
    sigma_z rho sigma_z - rho form since sigma_z^2 = 1) and relaxation as
    (gamma/4) D[sigma^-].  The gamma/4 prefactor is deliberate; converting to
    the common gamma/2 convention means doubling the relaxation rates.
    """
    ops = _qubit_channel_ops(noise.n_qubits)
    out = []
    for (sz, sm), g_phi, g_rel in zip(ops, noise.dephasing, noise.relaxation):
        if g_phi:
            out.append((g_phi / 2.0, sz))
        if g_rel:
            out.append((g_rel / 4.0, sm))
    return out


def build_liouvillian(h_eff: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """`reference.lindblad_rhs` as a d^2 x d^2 matrix on row-major vec(rho)."""
    h_eff = np.asarray(h_eff, dtype=complex)
    d = h_eff.shape[0]
    eye = np.eye(d, dtype=complex)
    liou = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.T))
    for rate, l_op in _channels(noise):
        ld = l_op.conj().T
        ldl = ld @ l_op
        liou += rate * (
            np.kron(l_op, l_op.conj())
            - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
        )
    return liou


def _check_snapshot(rho: np.ndarray, t: float, point: Callable[[int], str] | None = None):
    """(|trace - 1|, Hermiticity defect, smallest eigenvalue) of the snapshot ``rho`` at ``t``.

    ``rho`` is one density matrix, giving one value each, or a stack of them,
    giving one array entry per matrix.  The first matrix that `DensityMatrix`
    would refuse, with a non-finite entry, |trace - 1| > TRACE_TOL, a
    Hermiticity defect > HERMITIAN_TOL or an eigenvalue below EIG_FLOOR,
    raises DiagnosticError; ``point(k)`` names the k-th matrix of a stack.
    """
    trace_dev = abs(rho.trace(axis1=-2, axis2=-1).real - 1.0)
    herm_dev = hermiticity_defect(rho)  # not finite where rho has a non-finite entry
    try:  # .T[0] is the smallest eigenvalue of each matrix, a scalar for one
        min_eig = np.linalg.eigvalsh(rho).T[0]
    except np.linalg.LinAlgError:  # one non-finite matrix fails the whole stack
        finite = np.isfinite(herm_dev)[..., None, None]
        min_eig = np.linalg.eigvalsh(np.where(finite, rho, 0.0)).T[0]
    # A NaN fails every comparison, so a non-finite value is a breach too.
    bad = ~((trace_dev <= TRACE_TOL) & (herm_dev <= HERMITIAN_TOL) & (min_eig >= EIG_FLOOR))
    if np.count_nonzero(bad):
        k = int(np.flatnonzero(bad)[0])
        tr, herm, eig = (np.ravel(x)[k] for x in (trace_dev, herm_dev, min_eig))
        if not np.isfinite(herm):
            breaches = ["non-finite entries"]
        else:
            breaches = [f"|trace-1| = {tr:.3g}"] if tr > TRACE_TOL else []
            if herm > HERMITIAN_TOL:
                breaches.append(f"hermiticity defect = {herm:.3g}")
            if eig < EIG_FLOOR:
                breaches.append(f"min eigenvalue = {eig:.3g}")
        where = f", {point(k)}" if point else ""
        raise DiagnosticError(
            f"density-matrix diagnostics failed at t = {t:.6g}{where}: " + "; ".join(breaches)
        )
    return trace_dev, herm_dev, min_eig


def _support(parts: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """Row-major vec(rho) indices, ascending, that ``parts`` reach from ``rho0``'s nonzero entries.

    With P the parts' joint nonzero pattern, (1 + P)^(d^2) holds every path of
    up to d^2 steps, so a run from ``rho0`` under any sum of rates times parts
    leaves every entry outside these exactly 0.
    """
    pattern = np.any(parts != 0, axis=0)
    reach = np.linalg.matrix_power(pattern | np.eye(len(pattern), dtype=bool), len(pattern))
    return np.flatnonzero(reach @ (rho0.reshape(-1) != 0))


def _evolve(parts: np.ndarray, rates: np.ndarray, rho0: np.ndarray, grid: TimeGrid, scale: float,
            record_every: int, point: Callable[[int], str] | None = None) -> Iterator[tuple]:
    """RK4 run of the generator sum_c rates[..., c] parts[c] on row-major vec(rho), from ``rho0``.

    Rates of shape (C,) give one run; rates of shape (points, C) one run per
    row, stepped at once and checked CHECK_POINTS points at a time, ``point(k)``
    naming the k-th.  Only the `_support` entries are stepped.  Yields (t,
    snapshot, its diagnostics, None for a stack) once the snapshot passes its
    check.  A stack's snapshots share one buffer, shape rates.shape[:-1] + (d, d),
    which the next snapshot overwrites; a single run's are each a new (d, d) array.
    """
    d, points = rho0.shape[-1], rates.shape[:-1]
    support = _support(parts, rho0)
    blocks = parts[:, support[:, None], support].reshape(len(parts), -1)
    generators = (rates @ blocks).reshape(points + (support.size,) * 2)
    start = np.broadcast_to(rho0.reshape(-1)[support, None], points + (support.size, 1))
    shape, size = points + (d, d), math.prod(points) * d * d
    flat = (np.arange(0, size, d * d)[:, None] + support).ravel()  # where y's entries go
    vec = None
    for t, y in _rk4(generators, start, grid, scale, record_every):
        if vec is None or not points:  # a stack reuses one buffer; one run's snapshots are kept
            vec = np.zeros(size, dtype=complex)  # the entries off the support stay 0
            rho = vec.reshape(shape)
        vec[flat] = y.ravel()
        if points:
            for lo in range(0, len(rho), CHECK_POINTS):
                _check_snapshot(rho[lo:lo + CHECK_POINTS], t, lambda k, lo=lo: point(lo + k))
        yield t, rho, None if points else _check_snapshot(rho, t)


def integrate_lindblad(h_eff: np.ndarray, rho0: DensityMatrix, noise: NoiseSpec, grid: TimeGrid,
                       record_every: int = 1) -> SimResult:
    """RK4 integration of the master equation: one `_evolve` run of its Liouvillian.

    The first snapshot that `DensityMatrix` would refuse stops the run with
    DiagnosticError (`_check_snapshot`).
    """
    scale = np.linalg.norm(h_eff, 2) + noise.total_rate
    run = _evolve(build_liouvillian(h_eff, noise)[None], np.ones(1), rho0.matrix, grid, scale,
                  record_every)
    times, states, rows = zip(*run)
    diagnostics = dict(zip(("trace_dev", "herm_dev", "min_eig"), np.array(rows).T))
    return SimResult(np.array(times), list(states), diagnostics)
