"""Dense reference forms of the model, kept only as what the tests check against.

The production modules run faster or narrower equivalents of everything here;
none of them imports this module, and ``import dotbus`` does not load it.

- `h_double_dot`: the double-dot level matrix; `device.mixing_angle` and
  `device.singlet_splitting` are its closed-form singlet eigenvectors and gap.
- `full_space`, `destroy`: the qubit-cavity space [qubit 1, ..., qubit n,
  cavity] truncated at N photons, and the annihilation operator on its
  (N + 1)-dimensional Fock factor.  Every dense builder below takes the
  cutoff N as an explicit argument; production has no cutoff, since a run
  from one excitation never holds two photons.
- `h_interaction`, `h_effective`, `total_excitation`: the paper's n-qubit
  interaction, its second-order dispersive form and the conserved excitation
  number, on the full qubit-cavity space.  The one-excitation run
  `protocols._sector_run`, the dense run `_frame_trajectory` and
  `hamiltonians.h_reduced_two_qubit` are checked against them.
- `analytic_u`: the closed-form propagator of
  `hamiltonians.h_reduced_two_qubit`, itself checked against
  `scipy.linalg.expm`; at t0 it takes |10> to `protocols.epr_target` up to a
  global phase, and the noiseless RK4 runs of the pair are checked against it.
- `static_frame_hamiltonian`: the time-independent A + V over the whole
  space; its one-excitation rows and columns are the block that
  `hamiltonians.sector_hamiltonian` builds directly.
- `_frame_trajectory`: the static-frame run over the whole space, one dense
  eigendecomposition of `static_frame_hamiltonian` and the frame phases; the
  spectator check's reports, read from the sector run, are checked against it.
- `expm_propagator`, `partial_trace`: exact propagation and reduction of dense
  states; the RK4 order checks and the pair state that `protocols._pair_run`
  writes in closed form are checked against them.
- `lindblad_rhs`: the master equation element-wise, with its own
  relaxation and dephasing prefactors; the `dynamics.build_liouvillian`
  parts, weighted by `NoiseSpec.rates`, are checked against it.
- `epr_error_closed_form`: the pair run's D in closed form;
  `protocols.epr_generation` and `protocols.decoherence_sweep` are checked
  against it.
- `concurrence`: Wootters' concurrence from the eigenvalues of rho rho~, at
  50 digits; the X-state form that `protocols.epr_generation` reads is
  checked against it.
- `propagate_schrodinger`: RK4 on -iH(t), its four stages written out at
  every step, under the stability guard and snapshot interval of
  `dynamics._snapshot_interval`.  The production stepper `dynamics._rk4` forms
  the closed-form step matrix of a constant generator and shares no step
  formula with it, so the order checks test one against the other.
"""

from __future__ import annotations

from math import prod
from typing import Callable

import mpmath
import numpy as np

from .algebra import (EIG_FLOOR, HERMITIAN_TOL, SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z, DensityMatrix,
                      HilbertSpace, PureState, embed, hermiticity_defect)
from .device import HBAR, DotParams
from .dynamics import DiagnosticError, NoiseSpec, SimResult, TimeGrid, _snapshot_interval
from .hamiltonians import DISPERSIVE_THRESHOLD, ModelParams

NORM_DRIFT_TOL = 1e-6
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def full_space(p: ModelParams, cutoff: int) -> HilbertSpace:
    """The n qubits and the cavity mode truncated at ``cutoff`` photons."""
    if cutoff < 1:
        raise ValueError("photon cutoff must be at least 1")
    return HilbertSpace((2,) * p.n_qubits + (cutoff + 1,))


def destroy(cutoff: int) -> np.ndarray:
    """Truncated annihilation operator on a (N+1)-dimensional Fock space."""
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), k=1).astype(complex)


def h_double_dot(dot: DotParams, triplet_energy: float = 0.0,
                 singlet_energy: float = 0.0) -> np.ndarray:
    """Three-level double-dot Hamiltonian in rad/s.

    Ordered basis {(1,1)T0, (1,1)S, (0,2)S}: diagonal (E_T, E_S, -eps) with
    tunneling T_C mixing the two singlets.  The level energies E_T and E_S
    are joules like DotParams; at their default 0 the (1,1) singlet is the
    energy zero that `device.mixing_angle` takes.  The matrix is returned
    divided by hbar.
    """
    h = np.zeros((3, 3), dtype=complex)
    h[0, 0] = triplet_energy
    h[1, 1] = singlet_energy
    h[2, 2] = -dot.bias_epsilon
    h[1, 2] = h[2, 1] = dot.tunneling
    return h / HBAR


def h_interaction(t: float, p: ModelParams, cutoff: int) -> np.ndarray:
    """Time-dependent exchange coupling between each qubit and the cavity mode.

    sum_j g_j (e^{-i tau_j t} a^dagger sigma_j^- + e^{+i tau_j t} a sigma_j^+);
    Hermitian at every t.  At t = 0 with one qubit this is the plain
    Jaynes-Cummings interaction g (a sigma^+ + a^dagger sigma^-).
    """
    space, cav = full_space(p, cutoff), p.n_qubits
    adag = destroy(cutoff).conj().T
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for j, (g, tau) in enumerate(zip(p.couplings_g, p.detunings_tau)):
        term = g * np.exp(-1j * tau * t) * embed(space, (cav, adag), (j, SIGMA_MINUS))
        h += term + term.conj().T
    return h


def h_effective(p: ModelParams, cutoff: int) -> np.ndarray:
    """Second-order dispersive Hamiltonian on n qubits + cavity.

    lambda * sum_{i,j} (sigma_j^+ sigma_i^- a a^dagger - sigma_j^- sigma_i^+
    a^dagger a), written out literally including the i = j terms, which
    produce the single-qubit Stark/Lamb diagonal shifts.  Requires identical
    couplings/detunings and a dispersive ratio of at least DISPERSIVE_THRESHOLD.
    """
    if not p.identical:
        raise ValueError("effective Hamiltonian assumes identical couplings and detunings")
    if not p.is_dispersive:
        raise ValueError(
            f"detuning/coupling ratio below dispersive threshold {DISPERSIVE_THRESHOLD}"
        )
    space, cav = full_space(p, cutoff), p.n_qubits
    a = destroy(cutoff)
    adag = a.conj().T
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(p.n_qubits):
        for i in range(p.n_qubits):
            h += (embed(space, (j, SIGMA_PLUS), (i, SIGMA_MINUS), (cav, a), (cav, adag))
                  - embed(space, (j, SIGMA_MINUS), (i, SIGMA_PLUS), (cav, adag), (cav, a)))
    return p.lam * h


def analytic_u(lam: float, t: float) -> np.ndarray:
    """Closed-form propagator of the reduced two-qubit Hamiltonian.

    Basis {|00>, |01>, |10>, |11>}.  The central block is a phase-dressed
    excitation swap; the doubly excited entry is the unitary phase
    e^{-2 i lam t} (a published /2 on that entry fails unitarity and is
    treated as a typo; the exponential oracle confirms this value).
    """
    z = np.exp(-2j * lam * t)
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = 1.0
    u[1, 1] = u[2, 2] = (z + 1.0) / 2.0
    u[1, 2] = u[2, 1] = (z - 1.0) / 2.0
    u[3, 3] = z
    return u


def total_excitation(p: ModelParams, cutoff: int) -> np.ndarray:
    """Conserved excitation number sum_j sigma_j^+ sigma_j^- + a^dagger a."""
    space, cav = full_space(p, cutoff), p.n_qubits
    a = destroy(cutoff)
    n = embed(space, (cav, a.conj().T), (cav, a))
    for j in range(p.n_qubits):
        n += embed(space, (j, SIGMA_PLUS), (j, SIGMA_MINUS))
    return n


def static_frame_hamiltonian(p: ModelParams, cutoff: int) -> np.ndarray:
    """Time-independent Hamiltonian A + V equivalent to the rotating interaction.

    H(t) = e^{iAt} V e^{-iAt} (`h_interaction`) with A the diagonal detuning
    generator and V = sum_j g_j (a sigma_j^+ + a^dagger sigma_j^-), so the
    exact propagator factorizes as U(t) = e^{iAt} e^{-i(A+V)t}.  V has a zero
    diagonal, so the diagonal of the result is A = sum_j tau_j sigma_j^+
    sigma_j^-: tau_j on every basis state with qubit j excited.
    """
    space, cav = full_space(p, cutoff), p.n_qubits
    adag = destroy(cutoff).conj().T
    a_diag = np.zeros(space.dims)
    for j, tau in enumerate(p.detunings_tau):
        a_diag[(slice(None),) * j + (1,)] += tau
    h = np.diag(a_diag.reshape(-1).astype(complex))
    for j, g in enumerate(p.couplings_g):
        r = embed(space, (cav, adag), (j, SIGMA_MINUS))
        h += g * (r + r.conj().T)
    return h


def _frame_trajectory(p: ModelParams, cutoff: int, psi0: np.ndarray,
                      times: np.ndarray) -> np.ndarray:
    """Exact states of the time-dependent interaction at the given times.

    Diagonalizes the equivalent static-frame Hamiltonian once, then applies
    the frame phases; returns an array of shape (len(times), dim).
    """
    h = static_frame_hamiltonian(p, cutoff)
    evals, evecs = np.linalg.eigh(h)
    a_diag = np.real(np.diag(h))  # the frame generator A; V has a zero diagonal
    c0 = evecs.conj().T @ psi0
    # (dim, nt) phases for both the propagation and the frame rotation
    prop = evecs @ (np.exp(-1j * np.outer(evals, times)) * c0[:, None])
    frame = np.exp(1j * np.outer(a_diag, times))
    return (frame * prop).T


def expm_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i t H) of a Hermitian generator, via eigendecomposition.

    Exact up to the eigensolver, which is preferable to a truncated series
    for Hermitian input.  Raises if ``h`` is not Hermitian within 1e-10.
    """
    h = np.asarray(h, dtype=complex)
    if hermiticity_defect(h) > HERMITIAN_TOL:
        raise ValueError("generator is not Hermitian within tolerance")
    evals, evecs = np.linalg.eigh(h)
    phases = np.exp(-1j * evals * t)
    return (evecs * phases) @ evecs.conj().T


def partial_trace(rho: DensityMatrix, keep: tuple[int, ...] | list[int] | set[int]) -> DensityMatrix:
    """Trace out every subsystem not in ``keep``; preserves trace and Hermiticity."""
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(k < 0 or k >= rho.space.n_subsystems for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {rho.space.dims}")
    dims = rho.space.dims
    reduced = rho.matrix.reshape(dims + dims)
    remaining = list(dims)
    for idx in sorted(set(range(len(dims))) - set(keep), reverse=True):
        reduced = np.trace(reduced, axis1=idx, axis2=idx + len(remaining))
        del remaining[idx]
    reduced = reduced.reshape(prod(remaining), prod(remaining))
    reduced = 0.5 * (reduced + reduced.conj().T)  # scrub roundoff asymmetry
    return DensityMatrix(HilbertSpace(tuple(remaining)), reduced)


def lindblad_rhs(rho: np.ndarray, h_eff: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Right-hand side of the master equation of n qubits, each with ``noise``.

    d rho/dt = -i[H, rho]
             + sum_i (gamma_phi / 2) (sigma_zi rho sigma_zi - rho)
             + sum_i (gamma / 4) (sigma_i^- rho sigma_i^+
                                  - {sigma_i^+ sigma_i^-, rho} / 2)
    """
    rho = np.asarray(rho, dtype=complex)
    h_eff = np.asarray(h_eff, dtype=complex)
    n = len(h_eff).bit_length() - 1
    if n < 1 or rho.shape != (2**n, 2**n) or h_eff.shape != rho.shape:
        raise ValueError(f"expected 2^n x 2^n operators, got rho {rho.shape} and H {h_eff.shape}")
    space = HilbertSpace((2,) * n)
    drho = -1j * (h_eff @ rho - rho @ h_eff)
    for j in range(n):
        sz, sm = embed(space, (j, SIGMA_Z)), embed(space, (j, SIGMA_MINUS))
        drho += noise.gamma_phi / 2 * (sz @ rho @ sz - rho)
        ldl = sm.conj().T @ sm
        drho += noise.gamma / 4 * (sm @ rho @ sm.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
    return drho


def epr_error_closed_form(lam, gamma, gamma_phi):
    """D = 1 - <target| rho(t0) |target> of the pair run from |10>, in closed form.

    From |10> the state stays on |00> and the one-excitation block span{|01>,
    |10>}.  Both block states relax at gamma/4 and every jump leaves the
    block, so relaxation scales it by e^{-gamma t/4}.  H is lam I plus a lam
    exchange, and dephasing damps the |01>-|10> coherence at 2 gamma_phi, so
    the block's Bloch vector is a damped oscillator z'' + 2 gamma_phi z' +
    4 lam^2 z = 0.  With omega = sqrt(4 lam^2 - gamma_phi^2), imaginary past
    gamma_phi = 2 lam, and t0 = pi/(4 lam):

        D = 1 - e^{-gamma t0/4} [1 + 2 lam t0 sinc(omega t0/pi) e^{-gamma_phi t0}] / 2,

    where 2 lam t0 = pi/2 and omega t0/pi = sqrt(1 - s^2)/2 with s =
    gamma_phi/(2 lam), finite through omega = 0.  Past it the sinc is
    sinh(pi u/2)/(pi u/2) with u = sqrt(s^2 - 1), and its growth is folded
    into the decay, e^{(pi/2)(u - s)} (1 - e^{-pi u})/(pi u), so that no
    factor overflows however large gamma_phi t0 = pi s/2 is.  Rates broadcast
    as numpy arrays.
    """
    t0 = np.pi / (4.0 * lam)
    gamma, gamma_phi = np.asarray(gamma, dtype=float), np.asarray(gamma_phi, dtype=float)
    s = gamma_phi / (2.0 * lam)
    root = np.sqrt(np.abs(1.0 - s)) * np.sqrt(1.0 + s)  # sqrt|1 - s^2|, with no s^2 to overflow
    damped = np.sinc(root / 2.0) * np.exp(-gamma_phi * t0)
    u = np.where(s > 1.0, root, 1.0)  # the overdamped branch, kept off u = 0
    overdamped = np.exp(-np.pi / 2.0 / (u + s)) * -np.expm1(-np.pi * u) / (np.pi * u)
    oscillation = np.pi / 2.0 * np.where(s > 1.0, overdamped, damped)
    return 1.0 - np.exp(-gamma * t0 / 4.0) * (1.0 + oscillation) / 2.0


def concurrence(rho: DensityMatrix) -> float:
    """Wootters' concurrence of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) with l_i the square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy), sorted descending.  They
    are found at 50 significant digits: in double precision, the
    roundoff of an eigenvalue near 0, under its square root, would cost 1e-8
    near a pure state.  Real parts above EIG_FLOOR are clipped to zero;
    anything more negative is rejected.
    """
    if rho.space.dim != 4:
        raise ValueError("concurrence is defined for a 4-dimensional two-qubit state")
    with mpmath.workdps(50):
        m = mpmath.matrix(rho.matrix.tolist())
        yy = mpmath.matrix(np.kron(SIGMA_Y, SIGMA_Y).tolist())
        evals = sorted(mpmath.re(e) for e in mpmath.eig(m * yy * m.conjugate() * yy,
                                                         left=False, right=False))
        if evals[0] < EIG_FLOOR:
            raise ValueError(f"spin-flipped product has eigenvalue {float(evals[0])!r} "
                             "below tolerance")
        lams = [mpmath.sqrt(max(e, 0)) for e in evals]
        return float(max(0, lams[3] - lams[2] - lams[1] - lams[0]))


def propagate_schrodinger(
    h_of_t: Callable[[float], np.ndarray],
    psi0: PureState,
    grid: TimeGrid,
    record_every: int = 1,
) -> SimResult:
    """RK4 integration of d psi/dt = -i H(t) psi.

    Each step takes the four stages on a = dt x (-iH) at the step's start,
    midpoint and end; dt scales H before any product.  The stability guard
    and snapshot interval are `dynamics._snapshot_interval`'.  No renormalization
    is applied; a snapshot whose norm drifts by more than 1e-6 stops the run
    with DiagnosticError.
    """
    sample_ts = np.linspace(0.0, grid.t_end, 9)
    h_scale = max(np.linalg.norm(h_of_t(t), 2) for t in sample_ts)
    dt = grid.dt

    def a(t: float) -> np.ndarray:  # dt x the generator -iH(t)
        return -1j * dt * h_of_t(t)

    psi = psi0.amplitudes.copy()
    times, states, drifts = [], [], []
    done, a_left = 0, a(0.0)
    every = _snapshot_interval(grid, h_scale, record_every)
    for mark in [*range(0, grid.steps, every), grid.steps]:
        for step in range(done, mark):
            t = step * dt
            a_mid, a_right = a(t + 0.5 * dt), a(t + dt)
            k1 = a_left @ psi
            k2 = a_mid @ (psi + 0.5 * k1)
            k3 = a_mid @ (psi + 0.5 * k2)
            k4 = a_right @ (psi + k3)
            psi = psi + (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            a_left = a_right
        done = mark
        drift = abs(np.linalg.norm(psi) - 1.0)
        if drift > NORM_DRIFT_TOL:
            raise DiagnosticError(f"norm drift {drift:.3g} exceeds {NORM_DRIFT_TOL} "
                                  f"at t = {mark * dt:.6g}")
        times.append(mark * dt)
        states.append(psi)
        drifts.append(drift)
    return SimResult(np.array(times), np.array(states), {"norm_drift": np.array(drifts)})
