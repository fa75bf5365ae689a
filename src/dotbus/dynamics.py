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
Its generators are constant, so every fixed RK4 step applies one matrix S,
which `_rk4` forms in closed form and returns as S^n for each snapshot
interval length n, over a whole stack at once.  `_evolve` checks the start
once, then fills every snapshot by doubling from snapshot 0: snapshots
[m, 2m) are one stacked product of S^(n m) with snapshots [0, m), so a
256-snapshot trajectory takes 9 products and 8 squarings.  It scatters the
snapshots back to exactly Hermitian matrices (`_scatter`, into the states
array itself) and checks them in one call.  Nothing is renormalized:
`_check_snapshot` reads finiteness, trace and least eigenvalue and names the
first snapshot out of tolerance.  It reads the least eigenvalue block by
block: the support links indices i ~ j where rho_ij is in it, every rho on
it is a direct sum of the linked groups (`_Blocks`), and a 1- or 2-index
block has its least eigenvalue in closed form, a larger one `eigvalsh`'s.
From |10><10| the groups are {|00>} and {|01>, |10>} and |11> is a zero
row, so the pair's runs take no eigvalsh.  `build_liouvillian` forms the
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
                      HilbertSpace, embed)

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


def _snapshot_steps(grid: TimeGrid, scale: float, record_every: int) -> list[int]:
    """Step counts at which a run records a snapshot: 0, every ``record_every``-th and the last.

    ``record_every`` that is not an integer of at least 1 raises ValueError.
    Then the stability guard: ``scale`` bounds the generator's norm, and a
    step with dt x scale >= STABILITY_LIMIT raises ValueError naming a step
    count that passes.  The counts are Python ints, which a float step count
    past 2^63 fits.  Every run has at least two marks, 0 and grid.steps.
    """
    record_every = _count("record_every", record_every)
    dt = grid.dt
    if dt * scale >= STABILITY_LIMIT:
        needed = math.ceil(grid.t_end * scale / (STABILITY_LIMIT * 0.5)) + 1
        raise ValueError(
            f"step size too large: dt*||H|| = {dt * scale:.3g} >= {STABILITY_LIMIT}; "
            f"use at least {needed} steps"
        )
    return [*range(0, grid.steps, record_every), grid.steps]


def _rk4(generator: np.ndarray, dt: float, marks: list[int]) -> dict[int, np.ndarray]:
    """{n: S^n} for each n steps between successive ``marks``: S the RK4 step matrix.

    The generator G of dy/dt = G y is constant, so every RK4 step of ``dt``
    applies the same matrix S = I + a (I + a/2 (I + a/3 (I + a/4))), a = dt x G,
    formed by Horner's rule, and n steps apply S^n, raised by repeated
    squaring.  dt scales G before any product, so no power of G alone under-
    or overflows where the step itself does not.  One power array per
    distinct n: a trajectory recorded every step has one, and a last interval
    shorter than the rest adds a second.  They are allocated before S's
    temporaries, which at 197 x 198 points keeps `dotbus sweep` at 83 MiB
    peak RSS, not 93.  A stack of generators, shape (points, n, n), is formed
    and raised in one evaluation and gives powers of that shape.  Real and
    complex generators alike.
    """
    powers = {n: np.empty_like(generator) for n in {b - a for a, b in zip(marks, marks[1:])}}
    a, eye = dt * generator, np.eye(generator.shape[-1])
    step = eye + a @ (eye + a @ (eye + a @ (eye + a / 4) / 3) / 2)
    for n, power in powers.items():
        power[...] = np.linalg.matrix_power(step, n)
    return powers


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


def _dense_min_eig(rho: np.ndarray) -> np.ndarray:
    """The `eigvalsh` smallest eigenvalue of each matrix of ``rho``; a non-finite matrix's is 0.

    eigvalsh refuses a whole stack for one non-finite matrix, so that matrix
    enters as 0; `_check_snapshot` names it before it reads this value.
    """
    finite = np.isfinite(rho).all(axis=(-2, -1))
    return np.linalg.eigvalsh(np.where(finite[..., None, None], rho, 0.0))[..., 0]


def _min_eig(rho: np.ndarray, blocks: _Blocks | None) -> np.ndarray:
    """The smallest eigenvalue of each Hermitian matrix of ``rho``: the least of its ``blocks``'.

    A 1-index block gives its diagonal entry, a 2-index block [[a, c], [c*, b]]
    (a + b)/2 - hypot((a - b)/2, |c|), a larger one `_dense_min_eig`, and a
    zero row 0.  ``blocks`` None reads each whole matrix by `_dense_min_eig`.
    """
    if blocks is None:
        return _dense_min_eig(rho)
    least = [0.0] if blocks.zero_row else []
    for block in blocks.groups:
        if block.size == 1:
            least.append(rho[..., block[0], block[0]].real)
        elif block.size == 2:
            i, j = block  # halved first: a/2 + b/2 is (a + b)/2, and overflows for no finite a, b
            a, b = 0.5 * rho[..., i, i].real, 0.5 * rho[..., j, j].real
            with np.errstate(invalid="ignore"):  # inf - inf in a non-finite matrix
                least.append(a + b - np.hypot(a - b, abs(rho[..., i, j])))
        else:
            least.append(_dense_min_eig(rho[..., block[:, None], block]))
    return functools.reduce(np.minimum, least)


def _check_snapshot(rho: np.ndarray, times, point: Callable[[int], str] | None = None,
                    blocks: _Blocks | None = None):
    """(|trace - 1|, smallest eigenvalue) of the snapshots ``rho``, Hermitian by `_scatter`.

    ``rho`` is one density matrix, giving one value each, or a stack of them,
    giving one array entry per matrix; ``times`` holds the time of each, shape
    rho.shape[:-2].  ``blocks``, the set-up's (`_real_coordinates`), give the
    smallest eigenvalue block by block (`_min_eig`); without them it is the
    whole matrix's.  The first matrix that `DensityMatrix` would refuse, with
    a non-finite entry, |trace - 1| > TRACE_TOL or an eigenvalue below
    EIG_FLOOR, raises DiagnosticError naming its time; ``point(k)`` names the
    k-th matrix of a stack.
    """
    finite = np.isfinite(rho).all(axis=(-2, -1))
    trace_dev = abs(rho.trace(axis1=-2, axis2=-1).real - 1.0)
    min_eig = _min_eig(rho, blocks)
    bad = ~(finite & (trace_dev <= TRACE_TOL) & (min_eig >= EIG_FLOOR))
    if np.count_nonzero(bad):
        k = int(np.flatnonzero(bad)[0])
        t, ok, tr, eig = (np.ravel(x)[k] for x in (times, finite, trace_dev, min_eig))
        if not ok:
            breaches = ["non-finite entries"]
        else:
            breaches = [f"|trace-1| = {tr:.3g}"] if tr > TRACE_TOL else []
            if eig < EIG_FLOOR:
                breaches.append(f"min eigenvalue = {eig:.3g}")
        where = f", {point(k)}" if point else ""
        raise DiagnosticError(
            f"density-matrix diagnostics failed at t = {t:.6g}{where}: " + "; ".join(breaches)
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


class _Blocks(NamedTuple):
    """The diagonal blocks of a support: every rho on it is, up to a permutation, their sum."""

    groups: tuple   # index arrays, ascending: the connected groups of i ~ j, rho_ij in the support
    zero_row: bool  # an index that no support entry touches: a zero row, eigenvalue exactly 0


class _Coordinates(NamedTuple):
    """A run's set-up in real coordinates (`_real_coordinates`)."""

    support: np.ndarray  # the `_support` entries of row-major vec(rho), ascending
    transposes: tuple    # (partner, upper, lower): where each transpose sits, i < j, i > j
    parts: np.ndarray    # T part T^-1 of each part, shape (parts, s, s), s = support.size
    start: np.ndarray    # rho0's coordinates, shape (s,)
    d: int               # rho is d x d
    blocks: _Blocks      # the support's diagonal blocks, which `_check_snapshot` reads


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
    are the connected groups of indices i ~ j with rho_ij in the support; an
    index in none is a zero row.  From |10><10| they are {|00>}, {|01>, |10>}
    and the zero row |11>, so every snapshot's eigenvalues are in closed form.
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
    link, touched = np.eye(d, dtype=bool), np.zeros(d, dtype=bool)
    link[i, j] = touched[i] = True
    reach = np.linalg.matrix_power(link, d)  # reach[k]: the indices of k's block
    groups = tuple(np.flatnonzero(reach[k]) for k in np.flatnonzero(touched)
                   if reach[k].argmax() == k)  # each block once, from its least index
    return _Coordinates(support, (partner, upper, lower), np.where(lower[:, None], -m.imag, m.real),
                        np.where(lower, start[partner].imag, start.real), d,
                        _Blocks(groups, not touched.all()))


def _scatter(x: np.ndarray, coords: _Coordinates, out: np.ndarray | None = None) -> np.ndarray:
    """The flat row-major d x d matrices of the real coordinates ``x`` (last axis) of ``coords``.

    rho_ij = x_re + i x_im and rho_ji = x_re - i x_im exactly, so every matrix
    is Hermitian; entries off the support are 0.  They are written into
    ``out``, which must hold 0 off the support, and returned, or into a new array.
    """
    support, (partner, upper, lower), d = coords.support, coords.transposes, coords.d
    rho = np.zeros(x.shape[:-1] + (d * d,), dtype=complex) if out is None else out
    rho.real[..., support] = x[..., np.where(lower, partner, np.arange(support.size))]
    rho.imag[..., support[upper]] = x[..., partner[upper]]
    rho.imag[..., support[lower]] = -x[..., lower]
    return rho


def _evolve(coords: _Coordinates, rates: np.ndarray, dt: float, marks: list[int],
            point: Callable[[int], str] | None = None) -> SimResult:
    """The checked RK4 run of the generator sum_c rates[..., c] coords.parts[c] from coords.start.

    Steps of ``dt``, with a snapshot at each step count of ``marks``: 0, then
    every n = marks[1] steps and a last interval of at most n, as
    `_snapshot_steps` gives them.  Rates of shape (C,) give one run; rates of
    shape (points, C) one run per row, stepped at once, ``point(k)`` naming
    the k-th, and states and diagnostics of shape (T, points, ...).  `_rk4`
    forms the powers of every row's step matrix in one evaluation.  Snapshot
    0, coords.start at every point, is scattered (`_scatter`) and checked
    once, before any step.  Snapshot k before a shorter last interval is
    S^(n k) x snapshot 0: snapshots [m, 2m) are one stacked product of
    S^(n m) with snapshots [0, m), m = 1, 2, 4, ..., and S^(2 n m) is the
    square of S^(n m).  A shorter last interval is its own `_rk4` power times
    the snapshot before it.  So a 256-step run ends on the S^256 that
    `np.linalg.matrix_power` forms, with or without the snapshots between.
    The other snapshots are scattered straight into the states and checked
    in one `_check_snapshot` call on coords.blocks, in time order, so a
    breach names the earliest bad snapshot.  Every run makes two checks, and
    a sweep one product.
    """
    d, s, points = coords.d, coords.support.size, rates.shape[:-1]
    generators = (rates @ coords.parts.reshape(len(coords.parts), -1)).reshape(points + (s, s))
    powers = _rk4(generators, dt, marks)
    size, count = math.prod(points), len(marks)
    times = np.array([mark * dt for mark in marks])
    states = np.zeros((count,) + points + (d * d,), dtype=complex)
    checks = np.empty((2, count * size))
    start = states[0] = _scatter(coords.start, coords)  # every point starts here: checked once
    checks[:, :size] = np.reshape(
        _check_snapshot(start.reshape(d, d), times[0], point, coords.blocks), (2, 1))
    x = np.empty((count,) + points + (s, 1))
    x[0] = coords.start[:, None]
    regular = marks[-1] // marks[1] + 1  # snapshots [0, regular) lie n steps apart
    power, span = powers[marks[1]], 1  # S^(n span)
    while span < regular:
        if span > 1:
            power = power @ power
        top = min(regular, 2 * span)
        np.matmul(power, x[:top - span], out=x[span:top])
        span = top
    if regular < count:  # a last interval shorter than n
        np.matmul(powers[marks[-1] - marks[-2]], x[-2], out=x[-1])
    rest = _scatter(x[1:, ..., 0], coords, states[1:])
    del x  # freed before the check makes its temporaries
    # Time-major, so the first breach in the check is the earliest snapshot's.
    checks[:, size:] = _check_snapshot(rest.reshape(-1, d, d), np.repeat(times[1:], size),
                                       point and (lambda k: point(k % size)), coords.blocks)
    checks = dict(zip(("trace_dev", "min_eig"), checks.reshape((2, count) + points)))
    return SimResult(times, states.reshape(states.shape[:-1] + (d, d)), checks)


def integrate_lindblad(h_eff: np.ndarray, rho0: DensityMatrix, noise: NoiseSpec, grid: TimeGrid,
                       record_every: int = 1) -> SimResult:
    """RK4 integration of the master equation of the qubits of ``h_eff``, each with ``noise``.

    The `_evolve` run of ``rho0`` and the `build_liouvillian` parts at
    ``noise.rates``.  An ``h_eff`` that is Hermitian up to roundoff runs as
    its Hermitian part; a non-Hermitian one is refused with DiagnosticError
    before any step (`build_liouvillian`), and the first snapshot that
    `DensityMatrix` would refuse fails the run with DiagnosticError (`_check_snapshot`).
    """
    parts = build_liouvillian(h_eff)  # refuses an h_eff that is not 2^n x 2^n
    n_qubits = len(h_eff).bit_length() - 1
    scale = np.linalg.norm(h_eff, 2) + n_qubits * (noise.gamma + noise.gamma_phi)
    marks = _snapshot_steps(grid, scale, record_every)
    return _evolve(_real_coordinates(parts, rho0.matrix), noise.rates, grid.dt, marks)
