"""Device formulas against arithmetic, eigen-solve and finite-difference oracles."""

import math

import numpy as np
import pytest

from dotbus.device import (
    CouplerParams,
    DotParams,
    HBAR,
    TlrParams,
    bare_frequency,
    coupling_g,
    decay_kappa,
    mixing_angle,
    phase_shift,
    renormalized_frequency,
    singlet_splitting,
)
from dotbus.hamiltonians import ModelParams
from dotbus.reference import h_double_dot

PAPER_TLR = dict(length=0.01, inductance_per_length=4e-7, capacitance_per_length=2.5e-10)


def make_tlr(**overrides):
    return TlrParams(**{**PAPER_TLR, **overrides})


NAN = math.nan


@pytest.mark.parametrize("build, message", [
    (lambda: TlrParams(NAN, 4e-7, 2.5e-10), "length must be strictly positive"),
    (lambda: TlrParams(0.01, NAN, 2.5e-10), "inductance_per_length must be strictly positive"),
    (lambda: TlrParams(0.01, 4e-7, NAN), "capacitance_per_length must be strictly positive"),
    (lambda: make_tlr(quality_factor=NAN), "quality_factor must be strictly positive"),
    (lambda: make_tlr(wiring_capacitance=NAN), "wiring_capacitance must be nonnegative"),
    (lambda: DotParams(NAN, 1e-24, 1e-15), "bias_epsilon must not be NaN"),
    (lambda: DotParams(0.0, NAN, 1e-15), "tunneling must be strictly positive"),
    (lambda: DotParams(0.0, 1e-24, NAN), "total_capacitance must be strictly positive"),
    (lambda: CouplerParams(NAN, 0.0), "coupling_capacitance must be strictly positive"),
    (lambda: ModelParams((NAN, 1.0), (10.0, 10.0)), "couplings must be nonnegative"),
    (lambda: ModelParams((1.0, 1.0), (10.0, NAN)), "detunings must not be NaN"),
])
def test_a_nan_parameter_is_refused(build, message):
    # Each comparison is written so that NaN fails it, as in NoiseSpec and TimeGrid.
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


class TestBareFrequency:
    def test_reference_point_is_10_ghz(self):
        f = bare_frequency(make_tlr()) / (2 * math.pi)
        assert f == pytest.approx(10e9, rel=1e-9)

    def test_doubling_length_halves_frequency(self):
        assert bare_frequency(make_tlr(length=0.02)) == pytest.approx(
            bare_frequency(make_tlr()) / 2
        )

    def test_sqrt_scaling_in_fc(self):
        quadrupled = make_tlr(inductance_per_length=16e-7)
        assert bare_frequency(quadrupled) == pytest.approx(bare_frequency(make_tlr()) / 2)


class TestRenormalizedFrequency:
    def test_no_wiring_capacitor(self):
        tlr = make_tlr(wiring_capacitance=0.0)
        assert renormalized_frequency(tlr) == bare_frequency(tlr)

    def test_small_wiring_shift(self):
        tlr = make_tlr(wiring_capacitance=1e-15)  # eps0 = 1e-15 / 2.5e-12 = 4e-4
        assert renormalized_frequency(tlr) == pytest.approx(
            bare_frequency(tlr) * (1 - 8e-4), rel=1e-12
        )

    def test_large_wiring_ratio_rejected(self):
        with pytest.raises(ValueError):
            make_tlr(wiring_capacitance=0.2 * 2.5e-12)  # eps0 = 0.2

    def test_negative_wiring_capacitance_rejected(self):
        with pytest.raises(ValueError, match="^wiring_capacitance must be nonnegative$"):
            make_tlr(wiring_capacitance=-1e-15)

    def test_never_exceeds_bare(self):
        tlr = make_tlr(wiring_capacitance=5e-14)
        assert renormalized_frequency(tlr) < bare_frequency(tlr)


class TestPhaseShift:
    def test_zero_without_wiring(self):
        assert phase_shift(make_tlr()) == 0.0

    def test_arctan_value(self):
        tlr = make_tlr(wiring_capacitance=1e-15)  # eps0 = 4e-4
        assert phase_shift(tlr) == pytest.approx(math.atan(2 * math.pi * 4e-4), rel=1e-12)
        assert phase_shift(tlr) == pytest.approx(2.513e-3, rel=1e-3)

    def test_tan_relation(self):
        tlr = make_tlr(wiring_capacitance=0.05 * 2.5e-12)  # eps0 = 0.05, still perturbative
        assert math.tan(phase_shift(tlr)) == pytest.approx(2 * math.pi * 0.05, rel=1e-12)


class TestDecayKappa:
    def test_high_q_reference(self):
        tlr = make_tlr(quality_factor=1e5)
        assert decay_kappa(tlr) / (2 * math.pi) == pytest.approx(100e3, rel=1e-9)

    def test_lower_q(self):
        tlr = make_tlr(quality_factor=1e4)
        assert decay_kappa(tlr) / (2 * math.pi) == pytest.approx(1e6, rel=1e-9)

    def test_vanishes_for_lossless_cavity(self):
        assert decay_kappa(make_tlr(quality_factor=1e15)) < 1e-3


def singlet_block(dot):
    """Singlet block of `reference.h_double_dot`, basis {(1,1)S, (0,2)S}, joules."""
    return (h_double_dot(dot) * HBAR)[1:, 1:].real


class TestMixingAngle:
    def test_sweet_spot(self):
        dot = DotParams(bias_epsilon=0.0, tunneling=1e-24, total_capacitance=1e-15)
        assert mixing_angle(dot) == pytest.approx(math.pi / 4)

    def test_large_bias_unmixes(self):
        dot = DotParams(bias_epsilon=1e-18, tunneling=1e-24, total_capacitance=1e-15)
        assert mixing_angle(dot) < 1e-5

    def test_diagonalization_residual(self):
        dot = DotParams(bias_epsilon=2e-24, tunneling=1e-24, total_capacitance=1e-15)
        theta = mixing_angle(dot)
        r = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        rotated = r.T @ singlet_block(dot) @ r
        assert abs(rotated[0, 1]) < 1e-12 * dot.tunneling

    def test_random_parameters_diagonalize(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            tc = 10.0 ** rng.uniform(-25, -22)
            eps = rng.uniform(-5, 5) * tc
            dot = DotParams(bias_epsilon=eps, tunneling=tc, total_capacitance=1e-15)
            theta = mixing_angle(dot)
            assert math.cos(theta) >= 0.0
            c, s = math.cos(theta), math.sin(theta)
            r = np.array([[c, -s], [s, c]])
            rotated = r.T @ singlet_block(dot) @ r
            assert abs(rotated[0, 1]) < 1e-12 * tc


class TestSingletSplitting:
    def test_random_parameters_match_the_level_matrix(self):
        # The gap is the singlet block's eigenvalue splitting, and the mixing
        # angle rotates (1,1)S into the upper singlet eigenstate.
        rng = np.random.default_rng(8)
        for _ in range(1000):
            tc = 10.0 ** rng.uniform(-25, -22)
            dot = DotParams(bias_epsilon=rng.uniform(-5, 5) * tc, tunneling=tc,
                            total_capacitance=1e-15)
            evals, evecs = np.linalg.eigh(singlet_block(dot))
            assert evals[1] - evals[0] == pytest.approx(singlet_splitting(dot), rel=1e-12)
            theta = mixing_angle(dot)
            overlap = evecs[:, 1] @ [math.cos(theta), math.sin(theta)]
            assert abs(overlap) == pytest.approx(1.0, abs=1e-12)

    def test_resonant_gap(self):
        dot = DotParams(bias_epsilon=0.0, tunneling=2e-24, total_capacitance=1e-15)
        assert singlet_splitting(dot) == pytest.approx(4e-24)

    def test_pythagorean_point(self):
        dot = DotParams(bias_epsilon=3.0e-24, tunneling=2.0e-24, total_capacitance=1e-15)
        assert singlet_splitting(dot) == pytest.approx(5.0e-24, rel=1e-12)

    def test_sweet_spot_first_derivative_vanishes(self):
        tc = 1e-24
        h = 1e-6 * tc
        gap = lambda eps: singlet_splitting(
            DotParams(bias_epsilon=eps, tunneling=tc, total_capacitance=1e-15)
        )
        deriv = (gap(h) - gap(-h)) / (2 * h)
        assert abs(deriv) < 1e-8 * tc
        second = (gap(h) - 2 * gap(0.0) + gap(-h)) / h**2
        assert second > 0.0


class TestCouplingG:
    def setup_method(self):
        self.tlr = make_tlr()
        self.dot = DotParams(bias_epsilon=0.0, tunneling=1e-24, total_capacitance=1e-15)
        self.coupler = CouplerParams(coupling_capacitance=2.5e-16, position=0.0)

    def test_antinode_scale(self):
        g = coupling_g(self.tlr, self.dot, self.coupler) / (2 * math.pi)
        assert 90e6 < g < 110e6
        # SI arithmetic oracle: (e Cc/Ctot) sqrt(hbar w / LC) / hbar at cos = 1
        omega = renormalized_frequency(self.tlr)
        expected = (
            1.602176634e-19 * 0.25 * math.sqrt(HBAR * omega / 2.5e-12) / HBAR
        )
        assert coupling_g(self.tlr, self.dot, self.coupler) == pytest.approx(expected, rel=1e-12)

    def test_node_gives_zero(self):
        # quarter of the way along the line: k x = pi/2 with delta = 0
        node = CouplerParams(coupling_capacitance=2.5e-16, position=self.tlr.length / 4)
        g = coupling_g(self.tlr, self.dot, node)
        assert abs(g) < 1e-6 * abs(coupling_g(self.tlr, self.dot, self.coupler))

    def test_linear_in_coupling_capacitance(self):
        doubled = CouplerParams(coupling_capacitance=5e-16, position=0.0)
        assert coupling_g(self.tlr, self.dot, doubled) == pytest.approx(
            2 * coupling_g(self.tlr, self.dot, self.coupler), rel=1e-12
        )

    def test_inverse_in_total_capacitance(self):
        halved = DotParams(bias_epsilon=0.0, tunneling=1e-24, total_capacitance=2e-15)
        assert coupling_g(self.tlr, halved, self.coupler) == pytest.approx(
            coupling_g(self.tlr, self.dot, self.coupler) / 2, rel=1e-12
        )

    def test_sqrt_omega_scaling_at_fixed_lc(self):
        # Quadrupling F halves omega at fixed L*C, so g drops by sqrt(2).
        slower = make_tlr(inductance_per_length=16e-7)
        ratio = coupling_g(slower, self.dot, self.coupler) / coupling_g(
            self.tlr, self.dot, self.coupler
        )
        assert ratio == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_off_resonator_position_rejected(self):
        bad = CouplerParams(coupling_capacitance=2.5e-16, position=0.05)
        with pytest.raises(ValueError):
            coupling_g(self.tlr, self.dot, bad)
