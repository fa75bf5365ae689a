"""Double-quantum-dot qubits on a transmission-line resonator bus.

Simulation library for n charge-stabilized two-electron qubits dispersively
coupled through a superconducting resonator: device-level circuit formulas,
Hamiltonian builders, Lindblad propagation, entangling-gate protocols and
decoherence sweeps.  The dense reference forms that the tests check these
against live in `dotbus.reference`, which ``import dotbus`` does not load.
"""

from .algebra import DensityMatrix, HilbertSpace, PureState, embed, fidelity
from .device import CouplerParams, DotParams, TlrParams
from .dynamics import DiagnosticError, NoiseSpec, SimResult, TimeGrid, integrate_lindblad
from .hamiltonians import ModelParams, h_reduced_two_qubit
from .protocols import (
    EprReport,
    SweepResult,
    decoherence_sweep,
    dispersive_validity,
    epr_generation,
    epr_target,
    gate_time_t0,
    selective_coupling_check,
)

__all__ = [
    "CouplerParams",
    "DensityMatrix",
    "DiagnosticError",
    "DotParams",
    "EprReport",
    "HilbertSpace",
    "ModelParams",
    "NoiseSpec",
    "PureState",
    "SimResult",
    "SweepResult",
    "TimeGrid",
    "TlrParams",
    "decoherence_sweep",
    "dispersive_validity",
    "embed",
    "epr_generation",
    "epr_target",
    "fidelity",
    "gate_time_t0",
    "h_reduced_two_qubit",
    "integrate_lindblad",
    "selective_coupling_check",
]

__version__ = "0.1.0"
