"""Hamiltonian builders for n double-dot qubits coupled to a resonator mode.

Every operator, full-space or reduced, uses one ordering: the tensor order
[qubit 1, ..., qubit n, cavity] with row-major Kronecker products, built by
`algebra.embed`.  Qubit 1 is the slowest index, so the two-qubit register
reads {|00>, |01>, |10>, |11>} with |q1 q2> at index 2 q1 + q2.

hbar = 1 throughout: all matrix elements are angular frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import HilbertSpace, SIGMA_MINUS, SIGMA_PLUS, embed

DEFAULT_PHOTON_CUTOFF = 5
# Smallest tau/g at which the dispersive (effective) model is run.
DISPERSIVE_THRESHOLD = 5.0


@dataclass(frozen=True)
class ModelParams:
    """Simulation-level parameters: per-qubit couplings and detunings, cutoff.

    Couplings may be zero (a decoupled qubit); detunings may be zero (resonant
    operation) but the dispersive machinery then refuses to run.
    """

    couplings_g: tuple[float, ...]
    detunings_tau: tuple[float, ...]
    photon_cutoff: int = DEFAULT_PHOTON_CUTOFF

    def __post_init__(self):
        object.__setattr__(self, "couplings_g", tuple(float(g) for g in self.couplings_g))
        object.__setattr__(self, "detunings_tau", tuple(float(t) for t in self.detunings_tau))
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be at least 1")
        if len(self.detunings_tau) != self.n_qubits:
            raise ValueError("couplings_g and detunings_tau must have equal length")
        if any(g < 0 for g in self.couplings_g):
            raise ValueError("couplings must be nonnegative")
        if self.photon_cutoff < 1:
            raise ValueError("photon_cutoff must be at least 1")

    @classmethod
    def uniform(cls, n_qubits: int, g: float, tau: float,
                photon_cutoff: int = DEFAULT_PHOTON_CUTOFF) -> "ModelParams":
        return cls((g,) * n_qubits, (tau,) * n_qubits, photon_cutoff)

    @property
    def n_qubits(self) -> int:
        return len(self.couplings_g)

    @property
    def identical(self) -> bool:
        return len(set(self.couplings_g)) == 1 and len(set(self.detunings_tau)) == 1

    @property
    def is_dispersive(self) -> bool:
        return all(
            g > 0 and abs(tau) / g >= DISPERSIVE_THRESHOLD
            for g, tau in zip(self.couplings_g, self.detunings_tau)
        )

    @property
    def lam(self) -> float:
        """Effective qubit-qubit exchange rate g^2/tau (identical parameters only)."""
        if not self.identical:
            raise ValueError("lambda = g^2/tau is defined only for identical couplings and detunings")
        g, tau = self.couplings_g[0], self.detunings_tau[0]
        if tau == 0:
            raise ValueError("lambda is undefined at zero detuning")
        return g * g / tau

    @property
    def space(self) -> HilbertSpace:
        return HilbertSpace((2,) * self.n_qubits + (self.photon_cutoff + 1,))


def destroy(cutoff_n: int) -> np.ndarray:
    """Truncated annihilation operator on a (N+1)-dimensional Fock space."""
    return np.diag(np.sqrt(np.arange(1, cutoff_n + 1, dtype=float)), k=1).astype(complex)


def h_reduced_two_qubit(lam: float) -> np.ndarray:
    """Vacuum-sector two-qubit Hamiltonian on the register {|00>, |01>, |10>, |11>}.

    diag(0, lam, lam, 2 lam) plus a lam exchange coupling |10> <-> |01>.
    """
    space = HilbertSpace((2, 2))
    return lam * (
        embed(space, (0, SIGMA_PLUS), (0, SIGMA_MINUS))
        + embed(space, (1, SIGMA_PLUS), (1, SIGMA_MINUS))
        + embed(space, (0, SIGMA_PLUS), (1, SIGMA_MINUS))
        + embed(space, (0, SIGMA_MINUS), (1, SIGMA_PLUS))
    )


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


def static_frame_hamiltonian(p: ModelParams) -> np.ndarray:
    """Time-independent Hamiltonian A + V equivalent to the rotating interaction.

    The explicit time dependence of the interaction (`reference.h_interaction`)
    is a frame artifact: H(t) = e^{iAt} V e^{-iAt} with A the diagonal detuning
    generator and V = sum_j g_j (a sigma_j^+ + a^dagger sigma_j^-).  The exact
    propagator therefore factorizes as U(t) = e^{iAt} e^{-i(A+V)t}.  V has a
    zero diagonal, so the diagonal of the result is A = sum_j tau_j sigma_j^+
    sigma_j^-: tau_j on every basis state with qubit j excited.
    """
    space, cav = p.space, p.n_qubits
    adag = destroy(p.photon_cutoff).conj().T
    a_diag = np.zeros(space.dims)
    for j, tau in enumerate(p.detunings_tau):
        a_diag[(slice(None),) * j + (1,)] += tau
    h = np.diag(a_diag.reshape(-1).astype(complex))
    for j, g in enumerate(p.couplings_g):
        r = embed(space, (cav, adag), (j, SIGMA_MINUS))
        h += g * (r + r.conj().T)
    return h
