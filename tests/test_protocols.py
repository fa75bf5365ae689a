"""Protocol-level checks against analytic sector oracles.

The noiseless entangling dynamics conserves total excitation number, so runs
starting from one excitation live in a tiny sector that can be solved
exactly with an independent matrix exponential.  Those sector solutions are
the oracles for the full-model comparisons below.
"""

import math
import re
import tracemalloc
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from dotbus import dynamics, protocols
from dotbus.algebra import DensityMatrix, PureState
from dotbus.dynamics import (DiagnosticError, NoiseSpec, TimeGrid, _real_coordinates, _support,
                             build_liouvillian, integrate_lindblad)
from dotbus.config import MAX_QUBITS, config_from_dict
from dotbus.hamiltonians import ModelParams, h_reduced_two_qubit
from dotbus.protocols import (
    FRAME_SAMPLES,
    MIN_EPR_STEPS,
    SweepResult,
    TWO_QUBIT_SPACE,
    _epr_grid,
    _sector_run,
    _sweep_errors,
    decoherence_sweep,
    dispersive_validity,
    epr_generation,
    gate_time_t0,
    selective_coupling_check,
)
from dotbus.reference import (_frame_trajectory, analytic_u, concurrence, epr_error_closed_form,
                              epr_target, fidelity, full_space, h_interaction, partial_trace,
                              propagate_schrodinger)

G_PAPER = 2 * math.pi * 100e6       # coupling, rad/s
TAU_PAPER = 10 * G_PAPER
GAMMA_PAPER = 2 * math.pi * 0.2e6
GAMMA_PHI_PAPER = 2 * math.pi * 0.5e6
EPS = np.finfo(float).eps


def paper_model():
    return ModelParams.uniform(2, G_PAPER, TAU_PAPER)


def rate_over_lam():
    """A rate in units of lambda, 0 to 100, through the exceptional point gamma_phi = 2 lambda."""
    return st.sampled_from([0.0, 2.0]) | st.floats(0.0, 100.0) | st.floats(1.99, 2.01)


def sector_oracle_two_qubits(g, tau, t):
    """Exact one-excitation amplitudes (|10>, |01>, photon) of the full model.

    Independent route: 3x3 static-frame Hamiltonian, scipy matrix
    exponential, then the frame phases.
    """
    h = np.array([[tau, 0, g], [0, tau, g], [g, g, 0]], dtype=complex)
    frame = np.diag(np.exp(1j * np.array([tau, tau, 0.0]) * t))
    return frame @ scipy.linalg.expm(-1j * h * t) @ np.array([1, 0, 0], dtype=complex)


class TestGateTime:
    def test_reference_point(self):
        lam = 2 * math.pi * 10e6
        assert gate_time_t0(lam) == pytest.approx(12.5e-9, rel=1e-12)

    def test_inverse_scaling(self):
        assert gate_time_t0(2.0) == pytest.approx(gate_time_t0(1.0) / 2)

    def test_slow_gate(self):
        assert gate_time_t0(2 * math.pi * 1e6) == pytest.approx(125e-9, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
    def test_nonpositive_rejected(self, lam):
        with pytest.raises(ValueError, match="^lambda must be positive$"):
            gate_time_t0(lam)


class TestEprGeneration:
    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(1.0, 1.0)])
    def test_an_infinite_model_is_refused(self, noise):
        # inf couplings and detunings pass the dispersive test, and lambda is NaN
        p = ModelParams((math.inf,) * 2, (math.inf,) * 2)
        assert p.is_dispersive and math.isnan(p.lam)
        with pytest.raises(ValueError, match="^lambda must be positive$"):
            epr_generation(p, noise)

    def test_a_lambda_whose_gate_time_overflows_is_refused_without_a_warning(self):
        # lambda = g^2/tau = 1e-320, so t0 = pi / (4 lambda) is inf.
        p = ModelParams.uniform(2, 1e-160, 1.0)
        assert p.lam == 1e-320 and gate_time_t0(p.lam) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^t_end must be finite$"):
                epr_generation(p, NoiseSpec())

    def test_noiseless_is_exact(self):
        report = epr_generation(paper_model(), NoiseSpec())
        assert report.fidelity > 1 - 1e-8
        assert report.concurrence > 1 - 1e-8
        assert report.error_d == pytest.approx(1 - report.fidelity, abs=1e-12)

    def test_noiseless_matches_closed_form(self):
        report = epr_generation(paper_model(), NoiseSpec())
        lam = paper_model().lam
        psi = analytic_u(lam, report.t0) @ np.array([0, 0, 1, 0], dtype=complex)  # |10>
        closed_form = float(abs(np.vdot(epr_target().amplitudes, psi)) ** 2)
        assert abs(report.fidelity - closed_form) < 1e-8

    def test_reference_operating_point(self):
        noise = NoiseSpec(GAMMA_PAPER, GAMMA_PHI_PAPER)
        report = epr_generation(paper_model(), noise)
        assert report.error_d < 0.05

    def test_heavy_dephasing_limit(self):
        # gphi * t0 >> 1: dephasing freezes the exchange (Zeno pinning at
        # |10>) and kills the off-diagonal, so the target overlap settles at
        # 1/2 up to a residual coherence of order lambda / gphi.
        noise = NoiseSpec(0.0, 2 * math.pi * 2e9)
        report = epr_generation(paper_model(), noise)
        assert report.fidelity == pytest.approx(0.5, abs=0.05)
        assert report.concurrence < 0.1

    def test_error_monotone_in_each_rate(self):
        base = paper_model()
        rates = [2 * math.pi * f for f in (0.0, 0.25e6, 0.5e6, 0.75e6, 1e6)]
        d_relax = [
            epr_generation(base, NoiseSpec(r, GAMMA_PHI_PAPER)).error_d
            for r in rates
        ]
        d_dephase = [
            epr_generation(base, NoiseSpec(GAMMA_PAPER, r)).error_d
            for r in rates
        ]
        assert all(a < b for a, b in zip(d_relax, d_relax[1:]))
        assert all(a < b for a, b in zip(d_dephase, d_dephase[1:]))

    def test_concurrence_nonincreasing_in_noise(self):
        base = paper_model()
        rates = [2 * math.pi * f for f in (0.0, 0.25e6, 0.5e6, 0.75e6, 1e6)]
        conc = [
            epr_generation(base, NoiseSpec(r, r)).concurrence for r in rates
        ]
        assert all(a >= b for a, b in zip(conc, conc[1:]))

    def test_noiseless_concurrence_is_one(self):
        # Wootters' eigenvalues read 0.9999999937 here: the roundoff of a zero
        # eigenvalue under a square root.
        report = epr_generation(paper_model(), NoiseSpec())
        assert abs(report.concurrence - 1.0) <= 1e-12

    # Relaxation asking for 256 steps, one past it, twice it and 446,916 (tau/g = 1e6).
    @pytest.mark.parametrize("steps", [256, 257, 512, 446_916])
    def test_trajectory_keeps_every_kth_step_and_the_last(self, steps):
        p = paper_model()
        noise = NoiseSpec(steps / (80.0 * gate_time_t0(p.lam)), 0.0)  # 40 t0 x 2 gamma = steps
        grid = _epr_grid(p.lam, noise)
        assert grid.steps == steps
        every = -(-steps // MIN_EPR_STEPS)  # 1, 2, 2 and 1746
        marks = [*range(0, steps, every), steps]
        assert len(marks) <= MIN_EPR_STEPS + 1
        times = epr_generation(p, noise).result.times
        assert np.array_equal(times, np.array(marks) * grid.dt)

    @settings(max_examples=100, deadline=None)
    @given(gamma=rate_over_lam(), gamma_phi=rate_over_lam())
    def test_concurrence_matches_wootters(self, gamma, gamma_phi):
        p = paper_model()
        report = epr_generation(p, NoiseSpec(gamma * p.lam, gamma_phi * p.lam))
        rho = DensityMatrix(TWO_QUBIT_SPACE, report.result.final)
        assert abs(report.concurrence - concurrence(rho)) <= 1e-12

    def test_wrong_qubit_count_rejected(self):
        with pytest.raises(ValueError):
            epr_generation(ModelParams.uniform(3, G_PAPER, TAU_PAPER), NoiseSpec())

    def test_below_threshold_rejected(self):
        # The reduced model is the dispersive limit; at tau/g = 2 it does not hold.
        p = ModelParams.uniform(2, G_PAPER, 2 * G_PAPER)
        with pytest.raises(ValueError, match="below dispersive threshold 5.0"):
            epr_generation(p, NoiseSpec())
        with pytest.raises(ValueError, match="below dispersive threshold 5.0"):
            decoherence_sweep(p, [0.0], [0.0])


def test_epr_grid_step_count():
    # t0 = pi/(4 lam) = 1: 40 steps per unit of noise action, at least MIN_EPR_STEPS.
    lam = math.pi / 4
    assert _epr_grid(lam, NoiseSpec(2.5, 2.5)).steps == 400
    assert _epr_grid(lam, NoiseSpec(1.0, 1.5)).steps == MIN_EPR_STEPS  # not 200
    # The Hamiltonian's own 40 t0 x 2 lam = 20 pi steps never set the count,
    # not even where 40 t0 overflows (lam below 1.75e-307).
    for lam in 10.0 ** np.arange(-308.0, 308.0, 4.0):
        assert _epr_grid(lam, NoiseSpec()).steps == MIN_EPR_STEPS


class TestDispersiveValidity:
    @pytest.mark.parametrize("ratio", [5.0, 10.0, 20.0, 50.0, 100.0])
    def test_matches_sector_oracle(self, ratio):
        g = 1.0
        tau = ratio * g
        p = ModelParams.uniform(2, g, tau)
        report = dispersive_validity(p)
        t0 = gate_time_t0(g * g / tau)
        amps = sector_oracle_two_qubits(g, tau, t0)
        target = np.exp(-1j * math.pi / 4) * np.array([1, -1j, 0]) / math.sqrt(2)
        oracle_fid = float(abs(np.vdot(target, amps)) ** 2)
        assert report.fidelity_full_vs_effective == pytest.approx(oracle_fid, abs=1e-9)

    def test_reference_detuning(self):
        report = dispersive_validity(paper_model())
        assert report.fidelity_full_vs_effective >= 0.95
        assert report.max_cavity_occupation < report.cavity_bound

    def test_cavity_stays_nearly_empty(self):
        # Exact bound from the one-excitation sector: the symmetric qubit
        # state Rabi-oscillates against the photon with generalized frequency
        # sqrt(tau^2 + 8 g^2), so occupation never exceeds 4g^2/(tau^2 + 8g^2).
        g, tau = 1.0, 10.0
        report = dispersive_validity(ModelParams.uniform(2, g, tau))
        exact_peak = 4 * g**2 / (tau**2 + 8 * g**2)
        assert report.max_cavity_occupation <= exact_peak + 1e-9
        assert report.max_cavity_occupation == pytest.approx(exact_peak, rel=1e-3)

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            dispersive_validity(ModelParams.uniform(2, 1.0, 3.0))

    def test_wrong_qubit_count_rejected(self):
        with pytest.raises(ValueError, match="^entangled-pair generation targets exactly two qubits$"):
            dispersive_validity(ModelParams.uniform(3, 1.0, 10.0))

    def test_precision_bound(self):
        # The frame phase (pi/4)(tau/g)^2 crosses MAX_FRAME_PHASE = 1e7 rad
        # between tau/g = 3568 and 3569.
        report = dispersive_validity(ModelParams.uniform(2, 1.0, 3568.0))
        assert report.max_cavity_occupation < report.cavity_bound
        with pytest.raises(DiagnosticError, match="tau/g = 3569 is past the precision bound"):
            dispersive_validity(ModelParams.uniform(2, 1.0, 3569.0))


class TestSelectiveCoupling:
    def test_decoupled_spectator_is_untouched(self):
        p = ModelParams((1.0, 1.0, 0.0), (10.0, 10.0, 10.0))
        report = selective_coupling_check(p, spectator_ratio=10.0)
        assert report.spectator_max_deviation == pytest.approx(0.0, abs=1e-20)
        assert report.active_pair_fidelity > 0.95

    def test_inverse_square_scaling_of_worst_excursion(self):
        p = ModelParams.uniform(3, 1.0, 10.0)
        dev10 = selective_coupling_check(p, spectator_ratio=10.0).spectator_max_deviation
        dev20 = selective_coupling_check(p, spectator_ratio=20.0).spectator_max_deviation
        ratio = dev10 / dev20
        assert 2.0 < ratio < 8.0  # (tau_spec/tau_active)^2 = 4, within factor 2

    def test_active_pair_reaches_target(self):
        p = ModelParams.uniform(3, 1.0, 10.0)
        report = selective_coupling_check(p, spectator_ratio=10.0)
        assert report.active_pair_fidelity > 0.95

    def test_matches_sector_oracle(self):
        # Independent 4x4 one-excitation solution with the spectator included,
        # for the default pair, the reversed pair and a non-adjacent pair.
        g, tau, ratio = 1.0, 10.0, 10.0
        p = ModelParams.uniform(3, g, tau)
        t0 = gate_time_t0(g * g / tau)
        for active in [(0, 1), (1, 0), (2, 0)]:
            report = selective_coupling_check(p, active=active, spectator_ratio=ratio)
            taus = [tau if j in active else ratio * tau for j in range(3)] + [0.0]
            h = np.diag(taus).astype(complex)
            for i in range(3):
                h[i, 3] = h[3, i] = g
            frame = np.diag(np.exp(1j * np.array(taus) * t0))
            amps = frame @ scipy.linalg.expm(-1j * h * t0) @ np.eye(4)[active[0]]
            (spectator,) = set(range(3)) - set(active)
            assert report.spectator_final_deviation == pytest.approx(
                abs(amps[spectator]) ** 2, abs=1e-10
            )
            # Target (|10> - i|01>)/sqrt2 over (active[0], active[1]); the rest
            # of the pair's state sits on |00> and has no overlap with it.
            fid = abs(amps[active[0]] + 1j * amps[active[1]]) ** 2 / 2
            assert report.active_pair_fidelity == pytest.approx(fid, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_full_space_reference(self, data):
        # The read-out: production's own sector amplitudes, embedded in the
        # full space, read with partial_trace and the full probability table.
        p, active, ratio = draw_spectator_check(data)
        cutoff = data.draw(st.integers(1, 5))
        full, t0 = spectator_model(p, active, ratio)
        states = embed_sector(full, cutoff, _sector_run(full, active[0], t0))
        report = selective_coupling_check(p, active=active, spectator_ratio=ratio)
        max_dev, final_dev, fid = selective_reference(full, cutoff, active, states)
        assert report.spectator_max_deviation == pytest.approx(max_dev, abs=1e-14)
        assert report.spectator_final_deviation == pytest.approx(final_dev, abs=1e-14)
        assert report.active_pair_fidelity == pytest.approx(fid, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_agrees_with_dense_run(self, data):
        # The dense static-frame run over the whole space.  Against a 40-digit
        # solution, its amplitudes were off by up to 6.7 eps x tau_max x t0 and
        # the sector run's by up to 2.7 (1,500 draws), and the reports move by
        # at most twice the amplitudes: 2 (6.7 + 2.7) < 20.
        p, active, ratio = draw_spectator_check(data)
        cutoff = data.draw(st.integers(1, 5))
        full, t0 = spectator_model(p, active, ratio)
        psi0 = embed_sector(full, cutoff, np.eye(full.n_qubits + 1)[active[0]][None])[0]
        times = np.linspace(0.0, t0, FRAME_SAMPLES + 1)
        report = selective_coupling_check(p, active=active, spectator_ratio=ratio)
        max_dev, final_dev, fid = selective_reference(
            full, cutoff, active, _frame_trajectory(full, cutoff, psi0, times))
        bound = 20 * EPS * max(full.detunings_tau) * t0
        assert abs(report.spectator_max_deviation - max_dev) <= bound
        assert abs(report.spectator_final_deviation - final_dev) <= bound
        assert abs(report.active_pair_fidelity - fid) <= bound

    def test_memory_stays_within_the_sector_at_max_qubits(self):
        # The run holds arrays of n + 1 amplitudes; a dense static-frame build
        # at nine qubits, 3072 x 3072 complex, peaks near 608 MB.
        p = ModelParams.uniform(MAX_QUBITS, 1.0, 10.0)
        tracemalloc.start()
        try:
            selective_coupling_check(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_requires_spectator(self):
        with pytest.raises(ValueError):
            selective_coupling_check(paper_model())

    # (0, -1) would pair qubit 0 with the photon amplitude, (-3, 1) would read
    # qubit 1 twice, and (0, 3) would index past the sector.
    @pytest.mark.parametrize("active", [(0, -1), (-3, 1), (0, 3)])
    def test_active_pair_outside_the_register_is_refused(self, active):
        p = ModelParams.uniform(3, 1.0, 10.0)
        with pytest.raises(ValueError, match=r"active qubits .* must lie in range\(3\)"):
            selective_coupling_check(p, active=active)

    @pytest.mark.parametrize("active", [(0, 1.0), (0.0, 1), ("0", 1)])
    def test_an_active_qubit_that_is_not_an_integer_is_refused(self, active):
        p = ModelParams.uniform(3, 1.0, 10.0)
        with pytest.raises(ValueError, match=r"^active qubits must be integers, got \("):
            selective_coupling_check(p, active=active)

    def test_a_repeated_active_qubit_is_refused(self):
        p = ModelParams.uniform(3, 1.0, 10.0)
        with pytest.raises(ValueError, match="^exactly two distinct active qubits required$"):
            selective_coupling_check(p, active=(1, 1))

    # The pair (g_0, tau_0) is refused as validate refuses it: at tau_0 = 0,
    # tau_0/g_0 = 2 and g_0 = 0.
    @pytest.mark.parametrize("p", [
        ModelParams.uniform(3, 1.0, 0.0),
        ModelParams.uniform(3, 1.0, 2.0),
        ModelParams((0.0, 1.0, 1.0), (10.0, 10.0, 10.0)),
    ])
    def test_a_pair_below_the_dispersive_threshold_is_refused(self, p):
        with pytest.raises(ValueError, match="^detuning/coupling ratio below dispersive threshold"):
            selective_coupling_check(p)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
    def test_a_spectator_ratio_that_is_not_finite_is_refused_before_any_run(self, ratio):
        p = ModelParams.uniform(3, 1.0, 10.0)
        with mock.patch.object(protocols, "_sector_run") as run:
            with pytest.raises(ValueError, match="^spectator_ratio must be finite"):
                selective_coupling_check(p, spectator_ratio=ratio)
        run.assert_not_called()

    @pytest.mark.parametrize("ratio", [1.0000001e8, -1.0000001e8, 1e13, -1e300])
    def test_a_spectator_ratio_past_the_precision_bound_is_refused_before_any_run(self, ratio):
        p = ModelParams.uniform(3, 1.0, 10.0)
        with mock.patch.object(protocols, "_sector_run") as run:
            with pytest.raises(DiagnosticError,
                               match=re.escape(f"spectator_ratio = {ratio!r} is past the "
                                               "precision bound |spectator_ratio| <= 1e+08,")):
                selective_coupling_check(p, spectator_ratio=ratio)
        run.assert_not_called()

    # The corners of tools/spectator_scan.py's range, at the bound
    @pytest.mark.parametrize("n, tau_over_g", [(3, 5.0), (3, 100.0), (7, 5.0), (7, 100.0)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_at_the_precision_bound_the_readings_hold_three_digits(self, n, tau_over_g, sign):
        ratio = sign * protocols.MAX_SPECTATOR_RATIO
        p = ModelParams.uniform(n, 1.0, tau_over_g)
        full, t0 = spectator_model(p, (0, 1), ratio)
        amps = mp_sector_run(full, 0, [t0])[0]
        report = selective_coupling_check(p, spectator_ratio=ratio)
        deviation = np.sum(np.abs(amps[2:n]) ** 2)
        # The scan's worst over n = 3..7 and tau/g = 5..100: 1.9e-4 and 1.3e-8.
        assert abs(report.spectator_final_deviation - deviation) <= 1e-3 * deviation
        assert abs(report.active_pair_fidelity - abs(amps[0] + 1j * amps[1]) ** 2 / 2) <= 1e-7

    @pytest.mark.parametrize("ratio", [0.0, -10.0])
    def test_a_spectator_parked_at_zero_or_negative_detuning_is_accepted(self, ratio):
        report = selective_coupling_check(ModelParams.uniform(3, 1.0, 10.0), spectator_ratio=ratio)
        assert 0.0 <= report.spectator_max_deviation <= 1.0


def test_validate_and_the_spectator_check_score_the_pair_against_epr_target(monkeypatch):
    # With |01> as the target, each report reads the population of active[1]
    # at t0 in the sector run's own final amplitudes.
    monkeypatch.setattr(protocols, "_EPR_TARGET", np.array([0, 1, 0, 0], dtype=complex))
    p = ModelParams.uniform(2, 1.0, 10.0)
    c_b = _sector_run(p, 0, gate_time_t0(p.lam))[-1][1]
    assert dispersive_validity(p).fidelity_full_vs_effective == abs(c_b) ** 2
    p3, active = ModelParams((1.0, 1.5, 0.8), (10.0, 10.0, 10.0)), (2, 0)
    full, t0 = spectator_model(p3, active, 10.0)
    c_b = _sector_run(full, active[0], t0)[-1][active[1]]
    assert selective_coupling_check(p3, active=active).active_pair_fidelity == abs(c_b) ** 2


def draw_spectator_check(data):
    """A spectator check: n = 3..5 non-uniform couplings, tau/g 5..50, any ordered pair."""
    n = data.draw(st.integers(3, 5))
    couplings = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    tau = data.draw(st.floats(5.0, 50.0)) * couplings[0]
    p = ModelParams(couplings, (tau,) * n)
    ratio = data.draw(st.floats(2.0, 20.0))
    active = tuple(data.draw(st.permutations(range(n)))[:2])
    return p, active, ratio


def spectator_model(p, active, ratio):
    """The model the spectator check runs (spectators at ratio x tau) and its t0."""
    g, tau = p.couplings_g[0], p.detunings_tau[0]
    taus = [tau if j in active else ratio * tau for j in range(p.n_qubits)]
    return ModelParams(p.couplings_g, taus), gate_time_t0(g * g / tau)


def embed_sector(p, cutoff, amps):
    """Full-space states from one-excitation amplitudes (qubit 0..n-1 excited, then photon)."""
    n = p.n_qubits
    states = np.zeros((len(amps), full_space(p, cutoff).dim), dtype=complex)
    # Qubit j excited in the vacuum, qubit j the 2^(n-1-j) bit above the cavity;
    # all qubits down with one photon is index 1.
    states[:, [(cutoff + 1) * 2 ** (n - 1 - j) for j in range(n)] + [1]] = amps
    return states


def selective_reference(full, cutoff, active, states):
    """(max, final) spectator excitation and pair fidelity read from full-space states.

    |psi><psi| at the last time traced down to the pair with partial_trace and
    swapped into ``active`` order, and each spectator's excitation summed out
    of the full probability table.
    """
    n, space = full.n_qubits, full_space(full, cutoff)
    rho = partial_trace(PureState(space, states[-1]).density_matrix(), sorted(active))
    rho = rho.matrix.reshape(2, 2, 2, 2)
    if active[0] > active[1]:
        rho = rho.transpose(1, 0, 3, 2)
    target = epr_target().amplitudes
    fid = float(np.real(target.conj() @ rho.reshape(4, 4) @ target))

    probs = np.abs(states.reshape(len(states), *space.dims)) ** 2
    excitation = np.zeros(len(states))
    for j in set(range(n)) - set(active):
        for t in range(len(states)):
            excitation[t] += probs[t].take(1, axis=j).sum()
    return float(np.max(excitation)), float(excitation[-1]), fid


def mp_sector_run(p, start, times, dps=40):
    """_sector_run's amplitudes at ``times``, from a `dps`-digit eigendecomposition."""
    with mp.workdps(dps):
        n = p.n_qubits
        h = mp.zeros(n + 1, n + 1)
        for j, (g, tau) in enumerate(zip(p.couplings_g, p.detunings_tau)):
            h[j, j] = tau
            h[j, n] = h[n, j] = g
        evals, evecs = mp.eigsy(h)
        # c_m(t) = sum_k w_mk e^{-i E_k t}, with real w_mk = Q_mk Q_start,k
        w = [[evecs[m, k] * evecs[start, k] for k in range(n + 1)] for m in range(n + 1)]
        amps = np.empty((len(times), n + 1), dtype=complex)
        for i, t in enumerate(times):
            t = mp.mpf(t)  # the float sample time, exactly
            cos, sin = zip(*(mp.cos_sin(e * t) for e in evals))
            for m in range(n + 1):
                amps[i, m] = complex(mp.mpc(mp.fdot(w[m], cos), -mp.fdot(w[m], sin)))
    return amps


class TestSectorRun:
    def test_matches_direct_time_dependent_integration(self):
        # RK4 of the explicitly time-dependent interaction over the full space,
        # recorded at every sample time of the sector run.  The sector run is
        # in the static frame, U(t) = e^{iAt} e^{-i(A+V)t}: the frame phases
        # e^{i tau_j t} (and 1 on the photon) are applied here.
        p, cutoff = ModelParams((1.0, 0.7, 1.3), (10.0, 10.0, 30.0)), 2
        t_end, per_sample = 2.0, 4
        times = np.linspace(0.0, t_end, FRAME_SAMPLES + 1)
        frame = np.exp(1j * np.outer(times, [*p.detunings_tau, 0.0]))
        amps = frame * _sector_run(p, 1, t_end)
        psi0 = PureState(full_space(p, cutoff), embed_sector(p, cutoff, amps[:1])[0])
        grid = TimeGrid(t_end, FRAME_SAMPLES * per_sample)
        rk4 = propagate_schrodinger(lambda t: h_interaction(t, p, cutoff), psi0, grid,
                                    record_every=per_sample)
        assert np.max(np.abs(np.array(rk4.states) - embed_sector(p, cutoff, amps))) < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_high_precision_solution(self, data):
        # Roundoff grows with the largest phase max|E| x t0, about tau_max x t0;
        # over 25,000 draws the worst error was 3.1 eps x tau_max x t0.  Every
        # tenth sample time, the last one included.
        p, active, ratio = draw_spectator_check(data)
        full, t0 = spectator_model(p, active, ratio)
        times = np.linspace(0.0, t0, FRAME_SAMPLES + 1)[::10]
        amps = _sector_run(full, active[0], t0)[::10]
        error = np.max(np.abs(amps - mp_sector_run(full, active[0], times)))
        assert error <= 4 * EPS * max(full.detunings_tau) * t0


class TestDecoherenceSweep:
    def make_axes(self):
        return (
            2 * math.pi * np.linspace(0, 1e6, 4),
            2 * math.pi * np.linspace(0, 1e6, 3),
        )

    def test_noiseless_corner(self):
        gamma, gamma_phi = self.make_axes()
        sweep = decoherence_sweep(paper_model(), gamma, gamma_phi)
        assert sweep.error_grid[0, 0] < 1e-6

    def test_entrywise_monotone(self):
        gamma, gamma_phi = self.make_axes()
        grid = decoherence_sweep(paper_model(), gamma, gamma_phi).error_grid
        assert np.all(np.diff(grid, axis=0) >= 0)
        assert np.all(np.diff(grid, axis=1) >= 0)

    def test_deterministic_across_thread_counts(self):
        gamma, gamma_phi = self.make_axes()
        a = decoherence_sweep(paper_model(), gamma, gamma_phi)
        b = decoherence_sweep(paper_model(), gamma, gamma_phi)
        assert np.array_equal(a.error_grid, b.error_grid)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            decoherence_sweep(paper_model(), [], [0.0])

    def test_a_grid_that_does_not_match_its_axes_is_refused(self):
        with pytest.raises(ValueError, match="^grid shape does not match axes$"):
            SweepResult(np.zeros(2), np.zeros(3), np.zeros((3, 2)))

    def test_a_nan_error_is_refused(self):
        with pytest.raises(DiagnosticError, match=re.escape(
                "error probabilities must lie in [0, 1] within 1e-09; the grid spans [nan, nan]")):
            SweepResult(np.zeros(1), np.zeros(1), np.array([[np.nan]]))

    @pytest.mark.parametrize("gamma_axis, gamma_phi_axis", [
        ([0.0, math.nan], [0.0]), ([0.0], [math.nan]), ([-1.0], [0.0])])
    def test_negative_or_nan_rate_rejected(self, gamma_axis, gamma_phi_axis):
        with pytest.raises(ValueError, match="noise rates must be nonnegative"):
            decoherence_sweep(paper_model(), gamma_axis, gamma_phi_axis)


class TestOneBatchPerDefaultRun:
    """A sweep of any size raises one step-matrix power, `epr` two, and each makes one check.

    Neither takes an `eigvalsh`: the pair's blocks give every snapshot's least
    eigenvalue in closed form, and the start is validated once per process.
    """

    @staticmethod
    def counted(monkeypatch):
        """Count the step-matrix powers of `_rk4`, the `_check_snapshot` calls and every eigvalsh.

        All of them still run.  A power of a boolean array is `_support`'s or
        the blocks' (`_real_coordinates`), once per set-up, and is not counted.
        """
        matrix_power, powers = np.linalg.matrix_power, []

        def counted_power(a, n):
            if a.dtype != bool:
                powers.append(n)
            return matrix_power(a, n)

        checks = mock.Mock(wraps=dynamics._check_snapshot)
        eigvalsh = mock.Mock(wraps=np.linalg.eigvalsh)
        monkeypatch.setattr(np.linalg, "matrix_power", counted_power)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(dynamics, "_check_snapshot", checks)
        return powers, checks, eigvalsh

    def test_the_default_sweep(self, monkeypatch):
        cfg = config_from_dict({})
        powers, checks, eigvalsh = self.counted(monkeypatch)
        decoherence_sweep(cfg.model, cfg.sweep_gamma_axis, cfg.sweep_gamma_phi_axis)
        assert len(powers) == 1  # one power of the whole 441-point stack
        # The start and the final of each of the 21 x 21 points in one check
        assert [call.args[0].shape for call in checks.call_args_list] == [(882, 4, 4)]
        assert not eigvalsh.called

    def test_a_600_point_sweep(self, monkeypatch):
        # 600 points, the start and the final of each in the one check
        cfg = config_from_dict({"sweep": {"gamma_points": 24, "gamma_phi_points": 25}})
        powers, checks, eigvalsh = self.counted(monkeypatch)
        decoherence_sweep(cfg.model, cfg.sweep_gamma_axis, cfg.sweep_gamma_phi_axis)
        assert len(powers) == 1
        assert [call.args[0].shape for call in checks.call_args_list] == [(1200, 4, 4)]
        assert not eigvalsh.called

    def test_the_default_epr_trajectory(self, monkeypatch):
        cfg = config_from_dict({})
        powers, checks, eigvalsh = self.counted(monkeypatch)
        epr_generation(cfg.model, cfg.noise)  # what `epr` runs, with or without --out
        assert powers == [1, 256]  # a snapshot every step: S itself, and S^256 for the last
        assert ([call.args[0].shape for call in checks.call_args_list]
                == [(MIN_EPR_STEPS + 1, 4, 4)])
        assert not eigvalsh.called


class TestClosedFormError:
    """D against `reference.epr_error_closed_form`, which shares no code with the engine."""

    @staticmethod
    def model(data, ratios=st.floats(5.0, 100.0)):
        g = data.draw(power_of_ten(-100, 100))
        return ModelParams.uniform(2, g, data.draw(ratios) * g)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_epr_generation(self, data):
        p = self.model(data)
        gamma, gamma_phi = (data.draw(rate_over_lam()) * p.lam for _ in range(2))
        error = epr_generation(p, NoiseSpec(gamma, gamma_phi)).error_d
        assert abs(error - epr_error_closed_form(p.lam, gamma, gamma_phi)) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_decoherence_sweep(self, data):
        p = self.model(data)
        axes = [p.lam * np.array(data.draw(st.lists(rate_over_lam(), min_size=1, max_size=4)))
                for _ in range(2)]
        sweep = decoherence_sweep(p, *axes)
        exact = epr_error_closed_form(p.lam, axes[0][:, None], axes[1][None, :])
        assert np.max(np.abs(sweep.error_grid - exact)) <= 1e-10

    # tau/g up to 1e9 and rates up to 1e6 lambda, which take up to 1.3e8 RK4
    # steps.  Where roundoff drives a snapshot past the DensityMatrix
    # tolerances the run raises DiagnosticError; every other run is within
    # twice the worst |D - closed form| of about 10,000 random draws: 5.0e-10 for
    # epr, 1.02e-9 for the sweep, whose quiet points take the step count of
    # its noisiest.  Neither warns.
    @classmethod
    def wide_model(cls, data):
        return cls.model(data, power_of_ten(math.log10(5.0), 9.0))

    @staticmethod
    def wide_rate_over_lam():
        return rate_over_lam() | power_of_ten(-3.0, 6.0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_epr_generation_is_refused_or_within_roundoff(self, data):
        p = self.wide_model(data)
        gamma, gamma_phi = (data.draw(self.wide_rate_over_lam()) * p.lam for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                error = epr_generation(p, NoiseSpec(gamma, gamma_phi)).error_d
            except DiagnosticError:
                return
            assert abs(error - epr_error_closed_form(p.lam, gamma, gamma_phi)) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_decoherence_sweep_is_refused_or_within_roundoff(self, data):
        p = self.wide_model(data)
        axes = [p.lam * np.array(data.draw(st.lists(self.wide_rate_over_lam(), min_size=1,
                                                     max_size=3)))
                for _ in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                sweep = decoherence_sweep(p, *axes)
            except DiagnosticError:
                return
            exact = epr_error_closed_form(p.lam, axes[0][:, None], axes[1][None, :])
        assert np.max(np.abs(sweep.error_grid - exact)) <= 2e-9

    @pytest.mark.parametrize("phase", [1e4, 1e300])
    def test_heavy_dephasing_does_not_overflow(self, phase):
        # gamma_phi t0 = phase.  The sinc of an imaginary argument is a sinh,
        # which overflows past gamma_phi t0 = 710 unless its growth is folded
        # into the decay e^{-gamma_phi t0}.
        lam, gamma_phi = 1.0, phase * 4.0 / math.pi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            error = epr_error_closed_form(lam, 0.0, gamma_phi)
        with mp.workdps(700):  # x - gamma_phi t0 is about -1e-300 at phase = 1e300
            s = mp.mpf(gamma_phi) / (2 * lam)
            x = mp.pi * mp.sqrt(s * s - 1) / 2
            oscillation = mp.pi / 2 * mp.sinh(x) / x * mp.exp(-mp.pi * s / 2)  # t0 = pi/(4 lam)
            exact = 1 - (1 + oscillation) / 2
        assert abs(error - float(exact)) <= EPS

    def test_exceptional_point_is_finite(self):
        at = epr_error_closed_form(1.0, 0.0, 2.0)
        near = epr_error_closed_form(1.0, 0.0, np.array([2.0 - 1e-9, 2.0 + 1e-9]))
        assert np.isfinite(at) and np.max(np.abs(near - at)) < 1e-9


class TestBelowOnePercent:
    """Where the default config's D falls below 1%, the paper's claim, from the closed form.

    The README's "When is D below 1%?" section states these roots of
    `reference.epr_error_closed_form`; rates and lambda read in MHz as x/2pi.
    """

    MHZ = 2e6 * math.pi
    CFG = config_from_dict({})
    LAM, GAMMA, GAMMA_PHI = CFG.model.lam, CFG.noise.gamma, CFG.noise.gamma_phi

    @staticmethod
    def one_percent(error, lo, hi):
        """The x in [lo, hi] at which error(x) = 1%, where it changes sign."""
        return brentq(lambda x: float(error(x)) - 0.01, lo, hi, xtol=1e-12)

    def test_the_default_point_gives_2_33_percent(self):
        assert round(self.LAM / self.MHZ, 2) == 9.84
        assert round(100 * float(epr_error_closed_form(self.LAM, self.GAMMA, self.GAMMA_PHI)),
                     4) == 2.3309

    def test_rates_below_which_d_is_below_1_percent(self):
        lam = self.LAM
        gamma = self.one_percent(lambda r: epr_error_closed_form(lam, r, 0.0), 0.0, 5 * self.MHZ)
        gamma_phi = self.one_percent(lambda r: epr_error_closed_form(lam, 0.0, r), 0.0,
                                     5 * self.MHZ)
        assert round(gamma / self.MHZ, 5) == 0.50374  # with no dephasing
        assert round(gamma_phi / self.MHZ, 5) == 0.25419  # with no relaxation
        assert (epr_error_closed_form(lam, 0.999 * gamma, 0.0) < 0.01
                < epr_error_closed_form(lam, 1.001 * gamma, 0.0))
        assert (epr_error_closed_form(lam, 0.0, 0.999 * gamma_phi) < 0.01
                < epr_error_closed_form(lam, 0.0, 1.001 * gamma_phi))
        # The engine reads the same 1% at the root.
        assert abs(epr_generation(self.CFG.model, NoiseSpec(gamma, 0.0)).error_d - 0.01) <= 1e-9

    def test_the_exchange_above_which_d_is_below_1_percent(self):
        lam = self.one_percent(lambda x: epr_error_closed_form(x, self.GAMMA, self.GAMMA_PHI),
                               self.LAM, 10 * self.LAM)
        assert round(lam / self.MHZ, 4) == 23.2954  # 2.4 times the default exchange
        assert round(gate_time_t0(lam) * 1e9, 4) == 5.3659  # t0 in ns
        assert epr_error_closed_form(1.001 * lam, self.GAMMA, self.GAMMA_PHI) < 0.01


# lambda = 1e-308, 1 and 1.26e153, which span what the config accepts.
LAMBDA_SPAN = [ModelParams.uniform(2, g, ratio * g) for g, ratio in (
    (2 * math.pi * 1e-150, 6.283185307179586e158), (10.0, 10.0), (2 * math.pi * 2e153, 10.0))]


def test_errors_do_not_depend_on_the_scale_of_lambda():
    # lambda t0 = pi/4 at each lambda of LAMBDA_SPAN, and rates in units of
    # lambda give the same D.  A step matrix formed from G G before scaling by
    # dt underflows to 0 at the low end.
    errors = []
    for p in LAMBDA_SPAN:
        lam = p.lam
        errors.append([epr_generation(p, NoiseSpec(gamma * lam, gamma_phi * lam)).error_d
                       for gamma, gamma_phi in ((0.0, 0.0), (0.1, 0.2))])
        # Its (0, 0) point is noiseless; the other three carry one or both rates.
        errors[-1] += decoherence_sweep(p, lam * np.array([0.0, 0.1]),
                                        lam * np.array([0.0, 0.2])).error_grid.ravel().tolist()
    assert [p.lam for p in LAMBDA_SPAN] == pytest.approx([1e-308, 1.0, 1.2566370614359172e153])
    assert np.max(np.abs(np.array(errors) - errors[1])) <= 1e-13
    assert errors[1][1] > 0.05  # the noisy points do see the noise


def power_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


class TestPairSetUp:
    """The sweep steps one set-up, formed at lambda = 1, at rate rows [lambda, gamma, gamma_phi]."""

    @settings(max_examples=200, deadline=None)
    @given(lam=power_of_ten(-300, 300),
           rates=st.lists(st.tuples(rate_over_lam(), rate_over_lam()), min_size=1, max_size=4))
    @example(lam=LAMBDA_SPAN[0].lam, rates=[(0.0, 0.0), (0.1, 0.2)])
    @example(lam=LAMBDA_SPAN[1].lam, rates=[(0.0, 0.0), (0.1, 0.2)])
    @example(lam=LAMBDA_SPAN[2].lam, rates=[(0.0, 0.0), (0.1, 0.2)])
    def test_the_set_up_at_lambda_is_the_cached_one_scaled(self, lam, rates):
        # L_H at lambda has entries lambda times small integers, as has its real
        # form, so lambda times the cached L_H is the L_H at lambda, and each rate
        # row steps the same generator bit for bit.
        cached = protocols._pair_coordinates()
        at_lam = _real_coordinates(build_liouvillian(h_reduced_two_qubit(lam)),
                                   protocols._EPR_START.matrix)
        assert np.array_equal(at_lam.support, cached.support)
        for a, b in zip(at_lam.transposes, cached.transposes):
            assert np.array_equal(a, b)
        assert np.array_equal(at_lam.parts[0], lam * cached.parts[0])
        assert np.array_equal(at_lam.parts[1:], cached.parts[1:])
        assert np.array_equal(at_lam.start, cached.start) and at_lam.d == cached.d
        noise = lam * np.array(rates)
        rows = np.column_stack([np.ones(len(rates)), noise])  # NoiseSpec.rates
        scaled_rows = np.column_stack([np.full(len(rates), lam), noise])
        per_lam, unit = at_lam.parts.reshape(3, -1), cached.parts.reshape(3, -1)
        assert np.array_equal(rows @ per_lam, scaled_rows @ unit)  # the sweep's stack
        for row, scaled_row in zip(rows, scaled_rows):  # one row
            assert np.array_equal(row @ per_lam, scaled_row @ unit)

    def test_the_cached_set_up_is_read_only(self):
        coords = protocols._pair_coordinates()
        for array in (coords.support, *coords.transposes, coords.parts, coords.start,
                      *coords.blocks, protocols._EPR_START.matrix, protocols._EPR_TARGET):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_the_blocks_are_00_then_01_and_10_then_11(self):
        # |11> is the one index that no entry of the support touches: a block of its own.
        blocks = protocols._pair_coordinates().blocks
        assert [block.tolist() for block in blocks] == [[0], [1, 2], [3]]

    def test_epr_target_is_the_constant_the_runs_read(self):
        target = epr_target()
        assert np.array_equal(target.amplitudes, protocols._EPR_TARGET)
        assert np.array_equal(target.amplitudes, np.array([0, -1j, 1, 0]) / math.sqrt(2))
        assert target.amplitudes.flags.writeable  # each call's own copy

    @settings(max_examples=200, deadline=None)
    @given(g=power_of_ten(-100, 100), ratio=st.floats(5.0, 100.0), gamma=rate_over_lam(),
           gamma_phi=rate_over_lam())
    def test_a_one_point_sweep_is_the_epr_run(self, g, ratio, gamma, gamma_phi):
        # The sweep steps the cached set-up at [lambda, gamma, gamma_phi], epr
        # the `integrate_lindblad` run at lambda on the same grid: the same D.
        p = ModelParams.uniform(2, g, ratio * g)
        noise = NoiseSpec(gamma * p.lam, gamma_phi * p.lam)
        errors = _sweep_errors(p, np.array([noise.gamma]), np.array([noise.gamma_phi]))
        assert errors.tolist() == [epr_generation(p, noise).error_d]


class TestBatchedSweep:
    """The sweep steps every grid point at once on the vec(rho) entries |10><10| reaches."""

    @settings(max_examples=200, deadline=None)
    @given(lam=power_of_ten(-300, 300))
    def test_support_from_the_start_is_the_five_pair_entries(self, lam):
        parts = build_liouvillian(h_reduced_two_qubit(lam))
        support = _support(parts, protocols._EPR_START.matrix)
        # rho_{00,00}, rho_{01,01}, rho_{01,10}, rho_{10,01} and rho_{10,10}, row-major
        assert support.tolist() == [0, 5, 6, 9, 10]
        outside = np.setdiff1d(np.arange(16), support)
        assert np.all(parts[:, outside[:, None], support] == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_a_serial_run_at_every_point(self, data):
        g = 2 * math.pi * data.draw(st.floats(5e6, 1e9))
        p = ModelParams.uniform(2, g, data.draw(st.floats(5.0, 100.0)) * g)
        rates = st.lists(st.floats(0.0, 5.0), min_size=0, max_size=2)
        # Axes start at 0, so the grid holds a noiseless row and column.
        gamma_axis = p.lam * np.array([0.0, *data.draw(rates)])
        gamma_phi_axis = p.lam * np.array([0.0, *data.draw(rates)])
        worst = NoiseSpec(max(gamma_axis), max(gamma_phi_axis))
        grid = _epr_grid(p.lam, worst)
        rho0 = protocols._EPR_START
        # The errors before SweepResult's [0, 1] check: at a few hundred steps
        # the noiseless D can be -2.2e-16, in the serial run as well.
        gammas, gamma_phis = np.meshgrid(gamma_axis, gamma_phi_axis, indexing="ij")
        errors = _sweep_errors(p, gammas.ravel(), gamma_phis.ravel())
        for gamma, gamma_phi, error in zip(gammas.ravel(), gamma_phis.ravel(), errors):
            serial = integrate_lindblad(h_reduced_two_qubit(p.lam), rho0,
                                        NoiseSpec(gamma, gamma_phi), grid)
            serial_d = 1.0 - fidelity(DensityMatrix(TWO_QUBIT_SPACE, serial.final), epr_target())
            assert abs(error - serial_d) <= 1e-12

    # Each spoil acts on one scattered flat matrix rho, support entries
    # [0, 5, 6, 9, 10] of row-major vec(rho).
    @staticmethod
    def spoil_trace(rho):
        rho[10] += 1e-6  # rho_{10,10}

    @staticmethod
    def spoil_positivity(rho):
        rho[[0, 10]] += [-0.5, 0.5]  # rho_{00,00} < 0, which nothing couples to, trace kept

    @staticmethod
    def spoil_finiteness(rho):
        rho[0] = np.nan

    @staticmethod
    def spoil_coherence(rho):
        rho[[6, 9]] += 0.6  # rho_{01,10} and its conjugate past the populations': lambda_- < 0

    @staticmethod
    def spoil_coherence_finiteness(rho):
        rho[[6, 9]] = np.inf

    @staticmethod
    def spoil_scatter(monkeypatch, spoil, spoiled):
        """Make `_scatter` apply ``spoil`` to point k of snapshot n, each (n, k) of ``spoiled``.

        Snapshot 0 is the start, one matrix that every point shares: spoiling
        it at any point spoils it at all of them.
        """
        scatter = dynamics._scatter

        def spoiled_scatter(*args):
            rho = scatter(*args)  # every snapshot at once: (snapshots, points, 16)
            if any(snapshot == 0 for snapshot, _ in spoiled):
                for start in rho[0]:  # the start, once at every point
                    spoil(start)
            for snapshot, k in spoiled:
                if snapshot:
                    spoil(rho[snapshot, k])
            return rho

        monkeypatch.setattr(dynamics, "_scatter", spoiled_scatter)

    # Every snapshot of every point is one check, ordered (t, point) = (0, 0),
    # (0, 1), (t0, 0), (t0, 1): a breach at t = 0 names the first point, and
    # the first spoiled in time is named.
    @pytest.mark.parametrize("spoiled, t, name", [
        ({(1, 1)}, "1e-08", "gamma/2pi = 0.5 MHz, gamma_phi/2pi = 0.25 MHz"),
        ({(1, 0), (0, 1)}, "0", "gamma/2pi = 0 MHz, gamma_phi/2pi = 0.25 MHz"),
        ({(1, 0), (1, 1)}, "1e-08", "gamma/2pi = 0 MHz, gamma_phi/2pi = 0.25 MHz"),
    ])
    def test_a_breach_in_the_stack_names_its_time_and_grid_point(
            self, monkeypatch, spoiled, t, name):
        self.spoil_scatter(monkeypatch, self.spoil_finiteness, spoiled)
        p = ModelParams.uniform(2, 2 * math.pi * 100e6, 2 * math.pi * 800e6)  # t0 = 10 ns
        mhz = 2e6 * math.pi
        with pytest.raises(DiagnosticError) as err:
            decoherence_sweep(p, mhz * np.array([0.0, 0.5]), mhz * np.array([0.25]))
        assert str(err.value) == (
            f"density-matrix diagnostics failed at t = {t}, {name}: non-finite entries"
        )

    @pytest.mark.parametrize("snapshot, t", [(0, "0"), (1, "1e-08")])
    @pytest.mark.parametrize("spoil, breach", [
        ("spoil_trace", "|trace-1| = 1e-06"),
        ("spoil_positivity", "min eigenvalue = -"),
        ("spoil_finiteness", "non-finite entries"),
        ("spoil_coherence", "min eigenvalue = -"),
        ("spoil_coherence_finiteness", "non-finite entries"),
    ])
    # 2 x 3 points, spoiled at (1, 0) and (1, 1); 30 x 3 points, spoiled at (21, 1)
    # and (23, 1), both in the one check of the 90 points' finals.
    @pytest.mark.parametrize("gamma_points, spoiled, name", [
        (2, (3, 4), "gamma/2pi = 0.5 MHz, gamma_phi/2pi = 0 MHz"),
        (30, (64, 70), "gamma/2pi = 10.5 MHz, gamma_phi/2pi = 0.25 MHz"),
    ])
    def test_bad_snapshot_names_the_first_failing_grid_point(
            self, monkeypatch, snapshot, t, spoil, breach, gamma_points, spoiled, name):
        self.spoil_scatter(monkeypatch, getattr(self, spoil), {(snapshot, k) for k in spoiled})
        p = ModelParams.uniform(2, 2 * math.pi * 100e6, 2 * math.pi * 800e6)  # t0 = 10 ns
        mhz = 2e6 * math.pi
        if snapshot == 0:  # every point shares the start, and the first is named
            name = "gamma/2pi = 0 MHz, gamma_phi/2pi = 0 MHz"
        with pytest.raises(DiagnosticError) as err:
            decoherence_sweep(p, mhz * 0.5 * np.arange(gamma_points),
                              mhz * np.array([0.0, 0.25, 1.0]))
        assert str(err.value).startswith(
            f"density-matrix diagnostics failed at t = {t}, {name}: {breach}"
        )
