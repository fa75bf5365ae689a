"""Hamiltonian builders for n double-dot qubits coupled to a resonator mode.

Production never forms the 2^n (N+1)-dimensional qubit-cavity space.  The
exact interaction conserves excitation number, so a run from one excited
qubit in the vacuum stays on n + 1 states, and `sector_hamiltonian` builds
that block from g_j and tau_j alone; no photon cutoff enters.  The
two-qubit register uses the tensor order [qubit 1, qubit 2] of the row-major
Kronecker products that `algebra.embed` builds: qubit 1 is the slowest index,
so it reads {|00>, |01>, |10>, |11>} with |q1 q2> at index 2 q1 + q2.  The
dense full-space forms, in the same order with the cavity last, are the
test references in `dotbus.reference`.

hbar = 1 throughout: all matrix elements are angular frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Smallest tau/g at which the dispersive (effective) model is run.
DISPERSIVE_THRESHOLD = 5.0


@dataclass(frozen=True)
class ModelParams:
    """Simulation-level parameters: per-qubit couplings and detunings.

    Couplings may be zero (a decoupled qubit); detunings may be zero (resonant
    operation) but the dispersive machinery then refuses to run.
    """

    couplings_g: tuple[float, ...]
    detunings_tau: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "couplings_g", tuple(float(g) for g in self.couplings_g))
        object.__setattr__(self, "detunings_tau", tuple(float(t) for t in self.detunings_tau))
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be at least 1")
        if len(self.detunings_tau) != self.n_qubits:
            raise ValueError("couplings_g and detunings_tau must have equal length")
        if not all(g >= 0 for g in self.couplings_g):  # NaN fails too
            raise ValueError("couplings must be nonnegative")
        if np.isnan(self.detunings_tau).any():
            raise ValueError("detunings must not be NaN")

    @classmethod
    def uniform(cls, n_qubits: int, g: float, tau: float) -> "ModelParams":
        return cls((g,) * n_qubits, (tau,) * n_qubits)

    @property
    def n_qubits(self) -> int:
        return len(self.couplings_g)

    @property
    def identical(self) -> bool:
        return len(set(self.couplings_g)) == 1 and len(set(self.detunings_tau)) == 1

    @property
    def is_dispersive(self) -> bool:
        # The product, not the ratio: tau formed as 5 g passes, where (5 g) / g can round below 5.
        return all(
            g > 0 and abs(tau) >= DISPERSIVE_THRESHOLD * g
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


def h_reduced_two_qubit(lam: float) -> np.ndarray:
    """Vacuum-sector two-qubit Hamiltonian on the register {|00>, |01>, |10>, |11>}.

    diag(0, lam, lam, 2 lam) plus a lam exchange coupling |10> <-> |01>: lam
    times sigma_1^+ sigma_1^- + sigma_2^+ sigma_2^- + sigma_1^+ sigma_2^- +
    sigma_1^- sigma_2^+.
    """
    return lam * np.array([[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 2]], dtype=complex)


def sector_hamiltonian(p: ModelParams) -> np.ndarray:
    """One-excitation block of the time-independent Hamiltonian A + V.

    The explicit time dependence of the interaction (`reference.h_interaction`)
    is a frame artifact: H(t) = e^{iAt} V e^{-iAt} with A = sum_j tau_j
    sigma_j^+ sigma_j^- and V = sum_j g_j (a sigma_j^+ + a^dagger sigma_j^-),
    so the exact propagator factorizes as U(t) = e^{iAt} e^{-i(A+V)t}.  A + V
    conserves excitation number; on its one-excitation states (qubit j
    excited in the vacuum for each j, then all qubits down with one photon)
    it is diag(tau_1, ..., tau_n, 0) with g_j sqrt(1) = g_j between qubit j
    and the photon.  The diagonal is the frame generator A, since V has none.
    """
    n = p.n_qubits
    h = np.diag(np.array([*p.detunings_tau, 0.0], dtype=complex))
    h[:n, n] = h[n, :n] = p.couplings_g
    return h
