"""Time evolution: the Lindblad integrator of the qubit register.

One engine, `_evolve`, runs and checks every master-equation integration.  It
steps a `_real_coordinates` set-up (rho0 and the parts [L_H, L_rel, L_deph] of
`build_liouvillian`) at a row of rates or a stack of rows:
`integrate_lindblad` at `NoiseSpec.rates` = [1, gamma, gamma_phi], and
`protocols.decoherence_sweep` the pair's set-up, formed once at lambda = 1, at
one row [lambda, gamma, gamma_phi] per grid point.  It steps only the entries
of row-major vec(rho) that the parts reach from rho0 (`_support`), in real
coordinates: a diagonal entry as it is, each pair rho_ij, rho_ji as
(Re rho_ij, Im rho_ij).  `build_liouvillian`, the one check on H, takes an
h_eff that is Hermitian up to roundoff as its Hermitian part and refuses any
other, so every part keeps rho exactly Hermitian and is real there.
A run's schedule is two integers: its step count and its snapshot interval
n, with a snapshot at step 0, every n steps and the last step.  Its
generators are constant, so every fixed RK4 step applies one matrix S, which
`_rk4` forms in closed form over a whole stack at once.  `_evolve` fills the
snapshots before the last by doubling from snapshot 0, the start: snapshots
[m, 2m) are one stacked product of S^(n m) with snapshots [0, m).  The last
is S^steps times the start, so a run ends on the same bits whatever its
interval; a 257-snapshot trajectory takes 9 products, 7 squarings and S^256.
It scatters every snapshot, the start included, back to exactly Hermitian
matrices in one `_scatter` call and checks them in one `_check_snapshot` call.
Nothing is renormalized: the check is `algebra._defects`, the reading that
`DensityMatrix` makes too, on the set-up's blocks, and it names the first
snapshot out of tolerance.  The support links indices i ~ j where rho_ij is in
it, the linked groups partition the indices, and every rho on it is their
direct sum, so the least eigenvalue is read block by block, a 1- or 2-index
block in closed form.  From |10><10| the blocks are {|00>}, {|01>, |10>} and
{|11>}, so the pair's runs take no eigvalsh.  `build_liouvillian` forms the
dissipator parts once per qubit count (`_dissipators`).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (EIG_FLOOR, HERMITIAN_TOL, SIGMA_MINUS, SIGMA_Z, TRACE_TOL, DensityMatrix,
                      HilbertSpace, _defects, embed)

STABILITY_LIMIT = 0.1        # max allowed dt * ||generator||


class DiagnosticError(RuntimeError):
    """A run violated its numerical health checks (norm/trace/positivity)."""


def _count(name: str, value) -> int:
    """``value`` by `operator.index`, at least 1; else ValueError naming ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be at least 1")
    return count


@dataclass(frozen=True)
class TimeGrid:
    """``steps`` equal steps from t = 0 to ``t_end``."""

    t_end: float
    steps: int

    def __post_init__(self):
        if not self.t_end > 0:  # NaN fails too
            raise ValueError("t_end must be positive")
        if self.t_end == math.inf:
            raise ValueError("t_end must be finite")
        object.__setattr__(self, "steps", _count("steps", self.steps))

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
    Diagnostics are parallel arrays, one entry per snapshot (and point): a
    density-matrix run's ``trace_dev`` and ``min_eig`` (`_check_snapshot`).
    """

    times: np.ndarray
    states: np.ndarray
    diagnostics: dict

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _snapshot_interval(grid: TimeGrid, scale: float, record_every: int) -> int:
    """A run's snapshot interval (`_evolve`): ``record_every`` steps, at most grid.steps.

    ``record_every`` that is not an integer of at least 1 raises ValueError.
    Then the stability guard: ``scale`` bounds the generator's norm, and a
    step with dt x scale >= STABILITY_LIMIT raises ValueError naming a step
    count that passes, or saying that the count it needs overflows a float.
    """
    record_every = _count("record_every", record_every)
    dt, scale = grid.dt, float(scale)  # Python floats overflow to inf with no warning
    if dt * scale >= STABILITY_LIMIT:
        needed = grid.t_end * scale / (STABILITY_LIMIT * 0.5)
        raise ValueError(
            f"step size too large: dt*||H|| = {dt * scale:.3g} >= {STABILITY_LIMIT}; "
            + (f"use at least {math.ceil(needed) + 1} steps" if needed < math.inf
               else "the step count it needs overflows a float")
        )
    return min(record_every, grid.steps)


def _rk4(generator: np.ndarray, dt: float) -> np.ndarray:
    """The RK4 step matrix S of dy/dt = G y for a step of ``dt``.

    The generator G is constant, so every RK4 step of ``dt`` applies the same
    matrix S = I + a (I + a/2 (I + a/3 (I + a/4))), a = dt x G, formed by
    Horner's rule, and n steps apply S^n, which `_evolve` raises by repeated
    squaring.  dt scales G before any product, so no power of G alone under-
    or overflows where the step itself does not.  A stack of generators,
    shape (points, n, n), gives a stack of step matrices of that shape in
    one evaluation.  Real and complex generators alike.
    """
    a, eye = dt * generator, np.eye(generator.shape[-1])
    return eye + a @ (eye + a @ (eye + a @ (eye + a / 4) / 3) / 2)


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
    The last two are copies of the `_dissipators` of n qubits.  An ``h_eff``
    with max|H - H^dagger| <= HERMITIAN_TOL x max|H| (Hermitian up to
    roundoff) enters as its Hermitian part, so every part is exactly
    conjugate-symmetric under rho -> rho^T and keeps every Hermitian rho
    exactly Hermitian; any other ``h_eff``, NaN included, raises
    DiagnosticError naming the defect and the bound.
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    d = len(h_eff)
    n = d.bit_length() - 1
    if n < 1 or h_eff.shape != (1 << n,) * 2:
        raise ValueError(f"h_eff must be 2^n x 2^n for n >= 1 qubits, got shape {h_eff.shape}")
    defect, bound = abs(h_eff - h_eff.conj().T).max(), HERMITIAN_TOL * abs(h_eff).max()
    if not defect <= bound:  # NaN fails too
        raise DiagnosticError(f"h_eff is not Hermitian: max|H - H^dagger| = {defect:.3g} "
                              f"is not within HERMITIAN_TOL x max|H| = {bound:.3g}")
    h_eff = 0.5 * (h_eff + h_eff.conj().T)
    eye = np.eye(d, dtype=complex)
    parts = np.empty((3, d * d, d * d), dtype=complex)
    parts[0] = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.T))
    parts[1:] = _dissipators(n)
    return parts


def _check_snapshot(rho: np.ndarray, times: np.ndarray, blocks: tuple,
                    point: Callable[[int], str] | None = None):
    """(|trace - 1|, smallest eigenvalue) of each snapshot of ``rho``, Hermitian by `_scatter`.

    ``rho`` is a time-ordered stack of density matrices, shape (N, d, d), and
    ``times`` holds the time of each.  `algebra._defects` reads them on
    ``blocks``, the set-up's (`_real_coordinates`) or (np.arange(d),) for
    whole matrices.  The first breach it names raises DiagnosticError naming
    its time and what failed; ``point(k)`` names the k-th matrix.
    """
    trace, min_eig, k = _defects(rho, blocks)
    trace_dev = abs(trace - 1.0)
    if k < len(rho):
        if k == len(trace):
            breaches = ["non-finite entries"]
        else:
            breaches = [f"|trace-1| = {trace_dev[k]:.3g}"] if trace_dev[k] > TRACE_TOL else []
            if min_eig[k] < EIG_FLOOR:
                breaches.append(f"min eigenvalue = {min_eig[k]:.3g}")
        where = f", {point(k)}" if point else ""
        raise DiagnosticError(
            f"density-matrix diagnostics failed at t = {times[k]:.6g}{where}: " + "; ".join(breaches)
        )
    return trace_dev, min_eig


def _support(parts: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """Row-major vec(rho) indices, ascending, that ``parts`` reach from ``rho0``'s nonzero entries.

    With P the parts' joint nonzero pattern, (1 + P)^(d^2) holds every path of
    up to d^2 steps, so a run from ``rho0`` under any sum of rates times parts
    leaves every entry outside these exactly 0.  For `build_liouvillian` parts
    and a Hermitian rho0 it holds each entry's transpose with the entry: P
    and the start are then both closed under rho -> rho^T.
    """
    d = rho0.shape[-1]
    pattern = np.any(parts != 0, axis=0) | np.eye(d * d, dtype=bool)
    return np.flatnonzero(np.linalg.matrix_power(pattern, d * d) @ (rho0.reshape(-1) != 0))


class _Coordinates(NamedTuple):
    """A run's set-up in real coordinates (`_real_coordinates`)."""

    support: np.ndarray  # the `_support` entries of row-major vec(rho), ascending
    transposes: tuple    # (partner, upper, lower): where each transpose sits, i < j, i > j
    parts: np.ndarray    # T part T^-1 of each part, shape (parts, s, s), s = support.size
    start: np.ndarray    # rho0's coordinates, shape (s,)
    d: int               # rho is d x d
    blocks: tuple        # index arrays partitioning range(d): the blocks `_check_snapshot` reads


def _real_coordinates(parts: np.ndarray, rho0: np.ndarray) -> _Coordinates:
    """The set-up of a run of ``parts`` from ``rho0``: its `_support`, parts and start.

    x = T y maps the support entries y of vec(rho) to real coordinates x: a
    diagonal rho_ii stays, and the pair rho_ij, rho_ji with i < j becomes
    (Re rho_ij, Im rho_ij).  T part T^-1 is real exactly when the rows of
    M = part T^-1 come in conjugate pairs, M[partner] = conj(M), as they do
    for the `build_liouvillian` parts, which keep every Hermitian rho exactly
    Hermitian; its rows are then Re M for a diagonal or upper entry and -Im M
    for a lower one, formed with no product by T.  rho0 enters as its
    Hermitian part, which is rho0 itself for a Hermitian rho0.  The blocks
    are the connected groups of indices i ~ j with rho_ij in the support, in
    order of their least index; an index that no entry touches is a block of
    its own, with diagonal exactly 0.  From |10><10| they are {|00>},
    {|01>, |10>} and {|11>}, so every snapshot's eigenvalues are in closed form.
    """
    d = rho0.shape[-1]
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    support = _support(parts, rho0)
    i, j = np.divmod(support, d)  # each entry's transpose is in the support (`_support`)
    partner, upper, lower = np.searchsorted(support, j * d + i), i < j, i > j
    g = parts[:, support[:, None], support]
    g_t = g[..., partner]  # each column's transpose
    m = np.where(upper, g + g_t, np.where(lower, 1j * (g_t - g), g))  # part T^-1
    start = rho0.reshape(-1)[support]
    link = np.eye(d, dtype=bool)
    link[i, j] = True
    reach = np.linalg.matrix_power(link, d)  # reach[k]: the indices of k's block
    blocks = tuple(np.flatnonzero(row) for k, row in enumerate(reach) if row.argmax() == k)
    return _Coordinates(support, (partner, upper, lower), np.where(lower[:, None], -m.imag, m.real),
                        np.where(lower, start[partner].imag, start.real), d, blocks)


def _scatter(x: np.ndarray, coords: _Coordinates) -> np.ndarray:
    """The flat row-major d x d matrices of the real coordinates ``x`` (last axis) of ``coords``.

    rho_ij = x_re + i x_im and rho_ji = x_re - i x_im exactly, so every matrix
    is Hermitian; entries off the support are 0.
    """
    support, (partner, upper, lower), d = coords.support, coords.transposes, coords.d
    rho = np.zeros(x.shape[:-1] + (d * d,), dtype=complex)
    rho.real[..., support] = x[..., np.where(lower, partner, np.arange(support.size))]
    rho.imag[..., support[upper]] = x[..., partner[upper]]
    rho.imag[..., support[lower]] = -x[..., lower]
    return rho


def _evolve(coords: _Coordinates, rates: np.ndarray, dt: float, steps: int, every: int,
            point: Callable[[int], str] | None = None) -> SimResult:
    """The checked RK4 run of the generator sum_c rates[..., c] coords.parts[c] from coords.start.

    ``steps`` steps of ``dt``, with a snapshot at step 0, every ``every``
    steps (at most ``steps``: `_snapshot_interval`) and the last, each at
    its step count times dt, as a Python int times dt gives it.  Rates of
    shape (C,) give one run; rates of shape (points, C) one run per row,
    stepped at once, ``point(k)`` naming the k-th, and states and
    diagnostics of shape (T, points, ...).  `_rk4` forms every row's step
    matrix S at once.  Snapshot 0 is coords.start at every point, and
    snapshots [m, 2m) before the last are one stacked product of
    S^(every m) with snapshots [0, m), m = 1, 2, 4, ...: S^every, formed
    only if such a snapshot exists, then each the square of the one before.
    The last is S^steps (`np.linalg.matrix_power`) times the start, so the
    final state does not depend on ``every``.  Every snapshot, the start
    included, is then scattered in one `_scatter` call and checked in one
    `_check_snapshot` call on coords.blocks, in time order, so a breach
    names the earliest bad snapshot, and at t = 0 the first point.
    """
    d, s, points = coords.d, coords.support.size, rates.shape[:-1]
    generators = (rates @ coords.parts.reshape(len(coords.parts), -1)).reshape(points + (s, s))
    step = _rk4(generators, dt)
    size, count = math.prod(points), -(-steps // every) + 1
    times = np.empty(count)  # k x every exactly, then rounded once, as a Python int is
    times[:-1] = np.arange(count - 1, dtype=np.int64 if steps < 2**63 else object) * every * dt
    times[-1] = steps * dt
    x = np.empty((count,) + points + (s, 1))
    x[0] = coords.start[:, None]
    span = 1  # snapshots [0, count - 1) lie every steps apart
    while span < count - 1:
        power = np.linalg.matrix_power(step, every) if span == 1 else power @ power
        top = min(count - 1, 2 * span)
        np.matmul(power, x[:top - span], out=x[span:top])
        span = top
    np.matmul(np.linalg.matrix_power(step, steps), x[:1], out=x[-1:])
    states = _scatter(x[..., 0], coords).reshape((count,) + points + (d, d))
    del x  # freed before the check makes its temporaries
    # Time-major, so the first breach in the check is the earliest snapshot's.
    checks = _check_snapshot(states.reshape(-1, d, d), np.repeat(times, size), coords.blocks,
                             point and (lambda k: point(k % size)))
    return SimResult(times, states, {key: check.reshape((count,) + points)
                                     for key, check in zip(("trace_dev", "min_eig"), checks)})


def integrate_lindblad(h_eff: np.ndarray, rho0: DensityMatrix, noise: NoiseSpec, grid: TimeGrid,
                       record_every: int = 1) -> SimResult:
    """RK4 integration of the master equation of the qubits of ``h_eff``, each with ``noise``.

    The `_evolve` run of ``rho0`` and the `build_liouvillian` parts at
    ``noise.rates``.  An ``h_eff`` that is Hermitian up to roundoff runs as
    its Hermitian part; a non-Hermitian one is refused with DiagnosticError
    before any step (`build_liouvillian`), as is a ``rho0`` of another
    dimension, with ValueError.  The first snapshot that `DensityMatrix`
    would refuse fails the run with DiagnosticError (`_check_snapshot`).
    """
    parts = build_liouvillian(h_eff)  # refuses an h_eff that is not 2^n x 2^n
    d = len(h_eff)
    if len(rho0.matrix) != d:
        raise ValueError(f"rho0 is {len(rho0.matrix)} x {len(rho0.matrix)} but h_eff is {d} x {d}")
    n_qubits = d.bit_length() - 1
    scale = np.linalg.norm(h_eff, 2) + n_qubits * (noise.gamma + noise.gamma_phi)
    every = _snapshot_interval(grid, scale, record_every)
    return _evolve(_real_coordinates(parts, rho0.matrix), noise.rates, grid.dt, grid.steps, every)
