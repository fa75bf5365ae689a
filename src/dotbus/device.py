"""Derived circuit quantities from SI device parameters.

This is the only module that touches SI units.  It maps resonator geometry,
dot bias and coupler capacitances to the quantities the simulation core
consumes: mode frequency, phase shift, coupling strength g(x), cavity decay
factor and the qubit mixing angle.  Outputs that are energies come back as
angular frequencies (J divided by hbar) so the rest of the package can keep
hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ELEMENTARY_CHARGE = 1.602176634e-19  # C
HBAR = 1.054571817e-34               # J s
EV_TO_JOULE = ELEMENTARY_CHARGE

# Above this the perturbative frequency renormalization is not trusted.
MAX_WIRING_EPSILON = 0.1


@dataclass(frozen=True)
class TlrParams:
    """Transmission-line resonator: geometry, wiring capacitor, quality factor."""

    length: float                  # m
    inductance_per_length: float   # H/m
    capacitance_per_length: float  # F/m
    wiring_capacitance: float = 0.0  # F
    quality_factor: float = 1e5

    def __post_init__(self):
        for name in ("length", "inductance_per_length", "capacitance_per_length", "quality_factor"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be strictly positive")
        if not self.wiring_capacitance >= 0:
            raise ValueError("wiring_capacitance must be nonnegative")
        # Positive factors can still multiply to zero; the formulas divide by both products.
        lfc = self.length * math.sqrt(self.inductance_per_length * self.capacitance_per_length)
        if self.total_capacitance == 0 or lfc == 0:
            raise ValueError("length x capacitance_per_length or length x sqrt("
                             "inductance_per_length x capacitance_per_length) underflows to zero")
        if self.wiring_epsilon >= MAX_WIRING_EPSILON:
            raise ValueError(
                f"wiring capacitor ratio {self.wiring_epsilon:.3g} exceeds the "
                f"perturbative limit {MAX_WIRING_EPSILON}"
            )

    @property
    def total_capacitance(self) -> float:
        return self.length * self.capacitance_per_length

    @property
    def wiring_epsilon(self) -> float:
        """Dimensionless ratio C0 / (L C) controlling the wiring perturbation."""
        return self.wiring_capacitance / self.total_capacitance


@dataclass(frozen=True)
class DotParams:
    """Double-dot molecule: bias and interdot tunneling (J), total capacitance (F)."""

    bias_epsilon: float
    tunneling: float
    total_capacitance: float

    def __post_init__(self):
        if math.isnan(self.bias_epsilon):
            raise ValueError("bias_epsilon must not be NaN")
        if not self.tunneling > 0:  # NaN fails too
            raise ValueError("tunneling must be strictly positive")
        if not self.total_capacitance > 0:
            raise ValueError("total_capacitance must be strictly positive")


@dataclass(frozen=True)
class CouplerParams:
    """Capacitive coupler between a dot and the resonator."""

    coupling_capacitance: float  # F
    position: float              # m, measured from the left end of the line

    def validate_against(self, tlr: TlrParams) -> None:
        if not 0 <= self.position <= tlr.length:
            raise ValueError("coupler position must lie on the resonator")

    def __post_init__(self):
        if not self.coupling_capacitance > 0:  # NaN fails too
            raise ValueError("coupling_capacitance must be strictly positive")


def bare_frequency(tlr: TlrParams) -> float:
    """Full-wave mode frequency 2 pi / (L sqrt(F C)), rad/s."""
    return 2.0 * math.pi / (
        tlr.length * math.sqrt(tlr.inductance_per_length * tlr.capacitance_per_length)
    )


def renormalized_frequency(tlr: TlrParams) -> float:
    """Mode frequency shifted down by the wiring capacitor: w0 (1 - 2 C0/LC)."""
    return bare_frequency(tlr) * (1.0 - 2.0 * tlr.wiring_epsilon)


def phase_shift(tlr: TlrParams) -> float:
    """Mode phase offset delta with tan(delta) = 2 pi C0/LC, in [0, pi/2)."""
    return math.atan(2.0 * math.pi * tlr.wiring_epsilon)


def decay_kappa(tlr: TlrParams) -> float:
    """Cavity photon loss rate kappa = w / Q (scalar only; never a Lindblad channel here)."""
    return renormalized_frequency(tlr) / tlr.quality_factor


def mixing_angle(dot: DotParams) -> float:
    """Rotation angle diagonalizing the singlet block [[0, Tc], [Tc, -eps]].

    The (1,1) singlet is the energy zero and the (0,2) singlet sits at -eps.
    Convention: theta = atan2(2 Tc, eps) / 2, so cos(theta) >= 0, the angle is
    pi/4 at zero bias and falls to 0 as eps >> Tc.
    """
    return 0.5 * math.atan2(2.0 * dot.tunneling, dot.bias_epsilon)


def singlet_splitting(dot: DotParams) -> float:
    """Energy gap between the mixed singlet eigenstates: sqrt(eps^2 + 4 Tc^2), J.

    Same singlet block as `mixing_angle`, with the (1,1) singlet at zero.
    First-order insensitive to bias fluctuations at eps = 0 (the sweet spot).
    """
    return math.hypot(dot.bias_epsilon, 2.0 * dot.tunneling)


def coupling_g(tlr: TlrParams, dot: DotParams, coupler: CouplerParams) -> float:
    """Qubit-resonator coupling g(x) as an angular frequency, rad/s.

    g(x) = (e Cc / Ctot) sqrt(hbar w / L C) cos(k x + delta) / hbar with the
    full-wave wavenumber k = 2 pi / L.  Sign follows the cosine; callers that
    only care about magnitude should take abs().
    """
    coupler.validate_against(tlr)
    omega = renormalized_frequency(tlr)
    k = 2.0 * math.pi / tlr.length
    voltage_scale = math.sqrt(HBAR * omega / tlr.total_capacitance)
    g_joule = (
        ELEMENTARY_CHARGE
        * coupler.coupling_capacitance
        / dot.total_capacitance
        * voltage_scale
        * math.cos(k * coupler.position + phase_shift(tlr))
    )
    return g_joule / HBAR
