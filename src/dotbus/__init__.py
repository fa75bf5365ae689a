"""Double-quantum-dot qubits on a transmission-line resonator bus.

Simulation library for n charge-stabilized two-electron qubits dispersively
coupled through a superconducting resonator: device-level circuit formulas,
Hamiltonian builders, Schrodinger/Lindblad propagation, entangling-gate
protocols and decoherence sweeps.
"""

from .algebra import (
    DensityMatrix,
    HilbertSpace,
    PureState,
    concurrence,
    embed,
    expm_propagator,
    fidelity,
    kron,
    partial_trace,
)
from .device import CouplerParams, DotParams, TlrParams
from .dynamics import (
    DiagnosticError,
    NoiseSpec,
    SimResult,
    TimeGrid,
    error_probability,
    integrate_lindblad,
    lindblad_rhs,
    propagate_schrodinger,
)
from .hamiltonians import (
    ModelParams,
    analytic_u,
    h_double_dot,
    h_effective,
    h_interaction,
    h_reduced_two_qubit,
)
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
    "analytic_u",
    "concurrence",
    "decoherence_sweep",
    "dispersive_validity",
    "embed",
    "epr_generation",
    "epr_target",
    "error_probability",
    "expm_propagator",
    "fidelity",
    "gate_time_t0",
    "h_double_dot",
    "h_effective",
    "h_interaction",
    "h_reduced_two_qubit",
    "integrate_lindblad",
    "kron",
    "lindblad_rhs",
    "partial_trace",
    "propagate_schrodinger",
    "selective_coupling_check",
]

__version__ = "0.1.0"
