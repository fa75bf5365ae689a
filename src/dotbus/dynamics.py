"""Time evolution: the Lindblad integrator of the qubit register.

One engine, `_evolve`, runs and checks every master-equation integration.  It
steps a `_real_coordinates` set-up (rho0 and the parts [L_H, L_rel, L_deph] of
`build_liouvillian`) at a row of rates or a stack of rows:
`integrate_lindblad` at `NoiseSpec.rates` = [1, gamma, gamma_phi], and
`protocols.decoherence_sweep` the pair's set-up, formed once at lambda = 1, at
one row [lambda, gamma, gamma_phi] per grid point.  It steps only the entries
of row-major vec(rho) that the parts reach from rho0 (`_support`), in real
coordinates: a diagonal entry as it is, each pair rho_ij, rho_ji as
(Re rho_ij, Im rho_ij).  Every generator that keeps rho Hermitian is real
there, and one that does not, beyond roundoff, is refused before any step.
`_rk4` is the fixed-step RK4 stepper.  Its generators are constant, so every RK4 step
applies one matrix S, and `_rk4` advances each snapshot interval of n steps
with S^n.  `_rk4_step` holds the stage formula that forms S, which the
reference Schroedinger integrator takes once per step.  `_evolve` takes the
snapshots in blocks of up to CHECK_POINTS matrices, scatters each block back
to Hermitian matrices (`_scatter`) and checks it before it steps on.  Nothing
is renormalized: `_check_snapshot` measures trace, Hermiticity and the
smallest eigenvalue and stops a run at the first snapshot out of tolerance,
within the block that holds it, before it steps into overflow.
`build_liouvillian` forms the dissipator parts once per qubit count
(`_dissipators`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .algebra import (EIG_FLOOR, HERMITIAN_TOL, SIGMA_MINUS, SIGMA_Z, TRACE_TOL, DensityMatrix,
                      HilbertSpace, embed, hermiticity_defect)

STABILITY_LIMIT = 0.1        # max allowed dt * ||generator||
# Matrices that one snapshot check, and step matrices that one power, takes at
# a time, which bounds their temporaries; a whole stack's would add to peak
# memory.  `_evolve` fills a block of snapshots with this many matrices: 64
# snapshots of one run, one snapshot of a stack of 64 points or more.
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
    """Relaxation rate gamma and pure-dephasing rate gamma_phi, rad/s, of every qubit."""

    gamma: float = 0.0
    gamma_phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "gamma_phi", float(self.gamma_phi))
        if not (self.gamma >= 0 and self.gamma_phi >= 0):  # NaN fails too
            raise ValueError("noise rates must be nonnegative")

    @property
    def rates(self) -> np.ndarray:
        """The weights [1, gamma, gamma_phi] of the `build_liouvillian` parts."""
        return np.array([1.0, self.gamma, self.gamma_phi])


@dataclass(frozen=True, eq=False)
class SimResult:
    """Recorded trajectory: snapshot times, raw state arrays, health diagnostics.

    ``states`` is one bare complex array, one entry per snapshot: shape (T, d)
    for wavefunction runs, (T, d, d) for density-matrix runs, (T, points, d, d)
    for a stack; wrap an entry in PureState/DensityMatrix at the point of use.
    Diagnostics are parallel arrays, one entry per snapshot (and point).
    """

    times: np.ndarray
    states: np.ndarray
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
    holds the stability guard); each interval runs only when the caller asks
    for the next snapshot.  Every RK4 step applies the same matrix S (`_rk4_step`),
    so an interval of n steps is one product with S^n, raised by repeated
    squaring, ``CHECK_POINTS`` generators at a time to bound the temporaries.
    A stack of generators, shape (points, n, n), steps a stack of states,
    shape (points, n, 1), at once.  Real and complex generators alike.
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


@functools.cache
def _dissipators(n: int) -> np.ndarray:
    """The parts [L_rel, L_deph] of n qubits at unit rates, shape (2, 4^n, 4^n), read-only.

    They do not depend on the Hamiltonian, so `build_liouvillian` forms them
    once per qubit count.
    """
    d = 1 << n
    eye, space = np.eye(d, dtype=complex), HilbertSpace((2,) * n)
    parts = np.zeros((2, d * d, d * d), dtype=complex)
    for j in range(n):
        for part, rate, op in ((parts[0], 0.25, SIGMA_MINUS), (parts[1], 0.5, SIGMA_Z)):
            l_op = embed(space, (j, op))
            ldl = l_op.conj().T @ l_op
            part += rate * (np.kron(l_op, l_op.conj())
                            - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T)))
    parts.flags.writeable = False
    return parts


def build_liouvillian(h_eff: np.ndarray) -> np.ndarray:
    """The parts [L_H, L_rel, L_deph] at unit rates, shape (3, d^2, d^2) on row-major vec(rho).

    ``NoiseSpec.rates`` weights them.  L_H = -i[H, .], and each of the n qubits
    of a 2^n x 2^n ``h_eff`` relaxes as (gamma/4) D[sigma^-] and dephases as
    (gamma_phi/2) D[sigma_z] = (gamma_phi/2)(sigma_z rho sigma_z - rho).  The
    gamma/4 prefactor is deliberate; the common gamma/2 convention doubles gamma.
    The last two are copies of the `_dissipators` of n qubits.
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    d = len(h_eff)
    n = d.bit_length() - 1
    if n < 1 or h_eff.shape != (1 << n,) * 2:
        raise ValueError(f"h_eff must be 2^n x 2^n for n >= 1 qubits, got shape {h_eff.shape}")
    eye = np.eye(d, dtype=complex)
    parts = np.empty((3, d * d, d * d), dtype=complex)
    parts[0] = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.T))
    parts[1:] = _dissipators(n)
    return parts


def _check_snapshot(rho: np.ndarray, times, point: Callable[[int], str] | None = None):
    """(|trace - 1|, Hermiticity defect, smallest eigenvalue) of the snapshots ``rho``.

    ``rho`` is one density matrix, giving one value each, or a stack of them,
    giving one array entry per matrix; ``times`` holds the time of each, shape
    rho.shape[:-2].  The first matrix that `DensityMatrix` would refuse, with
    a non-finite entry, |trace - 1| > TRACE_TOL, a Hermiticity defect >
    HERMITIAN_TOL or an eigenvalue below EIG_FLOOR, raises DiagnosticError
    naming its time; ``point(k)`` names the k-th matrix of a stack.
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
        t, tr, herm, eig = (np.ravel(x)[k] for x in (times, trace_dev, herm_dev, min_eig))
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
    leaves every entry outside these exactly 0.  P and the start are taken
    together with their transposes, rho -> rho^T on every index, so the
    support holds each entry's transpose: parts that keep rho Hermitian have
    that pattern already, and parts that keep it Hermitian up to roundoff may
    hold an exact 0 where its transpose is not.
    """
    d = rho0.shape[-1]
    flip = np.arange(d * d).reshape(d, d).T.reshape(-1)  # vec(rho^T) = vec(rho)[flip]
    pattern = np.any(parts != 0, axis=0) | np.eye(d * d, dtype=bool)
    reach = np.linalg.matrix_power(pattern | pattern[flip][:, flip], d * d)
    start = rho0.reshape(-1) != 0
    return np.flatnonzero(reach @ (start | start[flip]))


class _Coordinates(NamedTuple):
    """A run's set-up in real coordinates (`_real_coordinates`)."""

    support: np.ndarray  # the `_support` entries of row-major vec(rho), ascending
    transposes: tuple    # (partner, upper, lower): where each transpose sits, i < j, i > j
    parts: np.ndarray    # T part T^-1 of each part, shape (parts, s, s), s = support.size
    start: np.ndarray    # rho0's coordinates, shape (s,)
    d: int               # rho is d x d


def _real_coordinates(parts: np.ndarray, rho0: np.ndarray) -> _Coordinates:
    """The set-up of a run of ``parts`` from ``rho0``: its `_support`, parts and start.

    x = T y maps the support entries y of vec(rho) to real coordinates x: a
    diagonal rho_ii stays, and the pair rho_ij, rho_ji with i < j becomes
    (Re rho_ij, Im rho_ij).  T part T^-1 is real exactly when the rows of
    M = part T^-1 come in conjugate pairs, M[partner] = conj(M), as they do
    for parts that keep every Hermitian rho Hermitian; its rows are then
    Re M for a diagonal or upper entry and -Im M for a lower one, formed with
    no product by T.  A part whose pairs differ by at most HERMITIAN_TOL of
    its largest entry (an H that is Hermitian up to roundoff) enters as the
    real part of T part T^-1, formed from the pairs' conjugate mean: the part
    of the Hermitian part of H.  A part past that (a non-Hermitian H) is
    refused with DiagnosticError naming the largest imaginary entry of its
    T part T^-1.  rho0 likewise enters as its Hermitian part, which is rho0
    itself for a Hermitian rho0.
    """
    d = rho0.shape[-1]
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    support = _support(parts, rho0)
    i, j = np.divmod(support, d)  # each entry's transpose is in the support (`_support`)
    partner, upper, lower = np.searchsorted(support, j * d + i), i < j, i > j
    g = parts[:, support[:, None], support]
    g_t = g[..., partner]  # each column's transpose
    m = np.where(upper, g + g_t, np.where(lower, 1j * (g_t - g), g))  # part T^-1
    # Half the largest mismatch of each part's conjugate pairs: the size of Im(T part T^-1)
    defect = abs(m[:, partner] - m.conj()).max(axis=(1, 2), initial=0.0) / 2
    if np.any(defect != 0.0):  # NaN too
        if not np.all(defect <= HERMITIAN_TOL * abs(m).max(axis=(1, 2), initial=0.0)):
            raise DiagnosticError("the generator does not keep rho Hermitian: its "
                                  "real-coordinate form has imaginary entries up to "
                                  f"{np.max(defect):.3g}")
        m = 0.5 * (m + m[:, partner].conj())
    start = rho0.reshape(-1)[support]
    return _Coordinates(support, (partner, upper, lower), np.where(lower[:, None], -m.imag, m.real),
                        np.where(lower, start[partner].imag, start.real), d)


def _scatter(x: np.ndarray, coords: _Coordinates) -> np.ndarray:
    """The flat row-major d x d matrices of the real coordinates ``x`` (last axis) of ``coords``.

    rho_ij = x_re + i x_im and rho_ji = x_re - i x_im exactly, so every matrix
    is Hermitian; entries off the support are 0.
    """
    support, (partner, upper, lower), _, _, d = coords
    rho = np.zeros(x.shape[:-1] + (d * d,), dtype=complex)
    rho.real[..., support] = x[..., np.where(lower, partner, np.arange(support.size))]
    rho.imag[..., support[upper]] = x[..., partner[upper]]
    rho.imag[..., support[lower]] = -x[..., lower]
    return rho


def _evolve(coords: _Coordinates, rates: np.ndarray, grid: TimeGrid, scale: float,
            record_every: int, point: Callable[[int], str] | None = None) -> SimResult:
    """The checked RK4 run of the generator sum_c rates[..., c] coords.parts[c] from coords.start.

    Rates of shape (C,) give one run; rates of shape (points, C) one run per
    row, stepped at once, ``point(k)`` naming the k-th, and states and
    diagnostics of shape (T, points, ...).  The snapshots come in blocks of
    m, as many as fill CHECK_POINTS matrices and at least one: 64 for one
    run, one for a stack of 64 points or more.  Each block is scattered back
    (`_scatter`) and checked CHECK_POINTS matrices at a time, in time order,
    before the run steps on: a breach stops it within the block that holds it.
    """
    d, s, points = coords.d, coords.support.size, rates.shape[:-1]
    generators = (rates @ coords.parts.reshape(len(coords.parts), -1)).reshape(points + (s, s))
    start = np.broadcast_to(coords.start[:, None], points + (s, 1))
    size = math.prod(points)
    snapshots = _rk4(generators, start, grid, scale, record_every)
    times, states, checks = [], [], []
    while block := list(itertools.islice(snapshots, max(1, CHECK_POINTS // size))):
        times += [t for t, _ in block]
        x = np.reshape([y for _, y in block], (len(block),) + points + (s,))
        states.append(_scatter(x, coords).reshape((len(block),) + points + (d, d)))
        # Time-major, so the first breach in a check is the earliest snapshot's.
        matrices, matrix_times = states[-1].reshape(-1, d, d), np.repeat(times[-len(block):], size)
        for lo in range(0, len(matrices), CHECK_POINTS):
            name = point and (lambda k, lo=lo: point((lo + k) % size))
            checks.append(np.stack(_check_snapshot(matrices[lo:lo + CHECK_POINTS],
                                                   matrix_times[lo:lo + CHECK_POINTS], name)))
    states = np.concatenate(states)
    checks = np.concatenate(checks, axis=-1).reshape((3,) + states.shape[:-2])
    return SimResult(np.array(times), states,
                     dict(zip(("trace_dev", "herm_dev", "min_eig"), checks)))


def integrate_lindblad(h_eff: np.ndarray, rho0: DensityMatrix, noise: NoiseSpec, grid: TimeGrid,
                       record_every: int = 1) -> SimResult:
    """RK4 integration of the master equation of the qubits of ``h_eff``, each with ``noise``.

    The `_evolve` run of ``rho0`` and the `build_liouvillian` parts at
    ``noise.rates``.  An ``h_eff`` that is Hermitian up to roundoff runs as
    its Hermitian part; a non-Hermitian one is refused with DiagnosticError
    before any step (`_real_coordinates`), and the first snapshot that
    `DensityMatrix` would refuse stops the run with DiagnosticError (`_check_snapshot`).
    """
    parts = build_liouvillian(h_eff)  # refuses an h_eff that is not 2^n x 2^n
    n_qubits = len(h_eff).bit_length() - 1
    scale = np.linalg.norm(h_eff, 2) + n_qubits * (noise.gamma + noise.gamma_phi)
    return _evolve(_real_coordinates(parts, rho0.matrix), noise.rates, grid, scale, record_every)
