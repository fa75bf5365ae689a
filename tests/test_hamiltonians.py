"""Hamiltonian builders: structure, symmetries, and the closed-form propagator."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dotbus.algebra import (
    HilbertSpace,
    PureState,
    SIGMA_MINUS,
    SIGMA_PLUS,
    embed,
    hermiticity_defect,
    identity,
)
from dotbus.device import DotParams, HBAR
from dotbus.dynamics import TimeGrid
from dotbus.hamiltonians import ModelParams, h_reduced_two_qubit, sector_hamiltonian
from dotbus.reference import (
    _frame_trajectory,
    analytic_u,
    destroy,
    full_space,
    h_double_dot,
    h_effective,
    h_interaction,
    propagate_schrodinger,
    static_frame_hamiltonian,
    total_excitation,
)


class TestModelParams:
    def test_qubit_count_is_the_register_length(self):
        assert ModelParams((1.0, 2.0, 0.5), (10.0, 20.0, 5.0)).n_qubits == 3

    def test_empty_register_names_n_qubits(self):
        with pytest.raises(ValueError, match="n_qubits must be at least 1"):
            ModelParams((), ())

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            ModelParams((1.0, 1.0), (10.0,))

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError, match="^couplings must be nonnegative$"):
            ModelParams((1.0, -1.0), (10.0, 10.0))

    def test_lambda_needs_identical_parameters(self):
        with pytest.raises(ValueError, match="^lambda = g\\^2/tau is defined only for identical"):
            ModelParams((1.0, 1.0), (10.0, 12.0)).lam


class TestDestroy:
    def test_number_operator_is_diagonal(self):
        a = destroy(4)
        assert np.max(np.abs(a.conj().T @ a - np.diag(np.arange(5.0)))) < 1e-14


class TestDoubleDot:
    def test_matrix_structure(self):
        dot = DotParams(bias_epsilon=3e-24, tunneling=2e-24, total_capacitance=1e-15)
        h = h_double_dot(dot, triplet_energy=5e-25, singlet_energy=1e-25) * HBAR
        expected = np.array(
            [[5e-25, 0, 0], [0, 1e-25, 2e-24], [0, 2e-24, -3e-24]], dtype=complex
        )
        assert np.max(np.abs(h - expected)) < 1e-36

    def test_resonant_eigenvalues(self):
        dot = DotParams(bias_epsilon=0.0, tunneling=2e-24, total_capacitance=1e-15)
        evals = np.linalg.eigvalsh(h_double_dot(dot) * HBAR)
        assert evals == pytest.approx([-2e-24, 0.0, 2e-24], abs=1e-38)

    def test_sweet_spot_eigenvectors_are_equal_mixtures(self):
        dot = DotParams(bias_epsilon=0.0, tunneling=2e-24, total_capacitance=1e-15)
        evals, evecs = np.linalg.eigh(h_double_dot(dot))
        # top eigenstate = cos(pi/4)|11S> + sin(pi/4)|02S>, no triplet weight
        top = evecs[:, 2]
        assert abs(top[0]) < 1e-12
        assert abs(abs(top[1]) - 1 / math.sqrt(2)) < 1e-12
        assert abs(abs(top[2]) - 1 / math.sqrt(2)) < 1e-12


class TestInteraction:
    def test_zero_coupling(self):
        p = ModelParams((0.0, 0.0), (10.0, 10.0))
        for t in (0.0, 0.3, 2.1):
            assert np.max(np.abs(h_interaction(t, p, 3))) == 0.0

    def test_reduces_to_jaynes_cummings_at_t0(self):
        g = 1.3
        p = ModelParams.uniform(1, g, 10.0)
        space = HilbertSpace((2, 5))
        a = destroy(4)
        jc = g * (embed(space, (1, a), (0, SIGMA_PLUS))
                  + embed(space, (1, a.conj().T), (0, SIGMA_MINUS)))
        assert np.max(np.abs(h_interaction(0.0, p, 4) - jc)) < 1e-13

    def test_hermitian_at_random_times(self):
        p = ModelParams.uniform(2, 1.0, 7.0)
        rng = np.random.default_rng(8)
        for t in rng.uniform(-5, 5, size=100):
            assert hermiticity_defect(h_interaction(t, p, 3)) < 1e-13


class TestEffective:
    def test_vacuum_sector_matches_reduced(self):
        p = ModelParams.uniform(2, 1.0, 10.0)
        h = h_effective(p, 4)
        vac = [b * 5 for b in range(4)]  # qubit basis x |0_cav>, 5 Fock levels
        block = h[np.ix_(vac, vac)]
        assert np.max(np.abs(block - h_reduced_two_qubit(p.lam))) < 1e-12

    def test_ground_vacuum_is_dark(self):
        p = ModelParams.uniform(2, 1.0, 10.0)
        assert abs(h_effective(p, 5)[0, 0]) < 1e-13

    def test_hermitian(self):
        p = ModelParams.uniform(3, 0.9, 11.0)
        assert hermiticity_defect(h_effective(p, 2)) < 1e-13

    def test_non_dispersive_rejected(self):
        p = ModelParams.uniform(2, 1.0, 2.0)
        with pytest.raises(ValueError):
            h_effective(p, 5)

    def test_non_identical_rejected(self):
        p = ModelParams((1.0, 1.0), (10.0, 12.0))
        with pytest.raises(ValueError):
            h_effective(p, 5)

    def test_commutes_with_photon_number(self):
        # Photon number is conserved, so a run from the vacuum never leaves it.
        p = ModelParams.uniform(2, 1.0, 10.0)
        h = h_effective(p, 4)
        n_cav = embed(full_space(p, 4), (2, destroy(4).conj().T), (2, destroy(4)))
        assert np.max(np.abs(h @ n_cav - n_cav @ h)) < 1e-12


class TestExcitationConservation:
    def test_interaction_commutes(self):
        p = ModelParams.uniform(2, 1.0, 9.0)
        n_exc = total_excitation(p, 3)
        rng = np.random.default_rng(9)
        for t in rng.uniform(0, 3, size=10):
            h = h_interaction(t, p, 3)
            assert np.max(np.abs(h @ n_exc - n_exc @ h)) < 1e-12

    def test_effective_commutes(self):
        p = ModelParams.uniform(2, 1.0, 9.0)
        h = h_effective(p, 3)
        n_exc = total_excitation(p, 3)
        assert np.max(np.abs(h @ n_exc - n_exc @ h)) < 1e-12


class TestReducedTwoQubit:
    def test_eigenvalues(self):
        lam = 0.7
        evals = np.linalg.eigvalsh(h_reduced_two_qubit(lam))
        assert evals == pytest.approx([0.0, 0.0, 2 * lam, 2 * lam], abs=1e-12)

    def test_zero_lambda(self):
        assert np.max(np.abs(h_reduced_two_qubit(0.0))) == 0.0

    def test_exchange_element(self):
        lam = 1.9
        h = h_reduced_two_qubit(lam)
        assert h[1, 2] == pytest.approx(lam)
        assert np.allclose(np.diag(h).real, [0.0, lam, lam, 2 * lam])

    @pytest.mark.parametrize("lam", [1e-308, 0.37, 6.2e7, 1.26e153])
    def test_is_the_operator_sum_bit_for_bit(self, lam):
        # lam (s1+ s1- + s2+ s2- + s1+ s2- + s1- s2+), built from Kronecker products.
        space = HilbertSpace((2, 2))
        sums = lam * (embed(space, (0, SIGMA_PLUS), (0, SIGMA_MINUS))
                      + embed(space, (1, SIGMA_PLUS), (1, SIGMA_MINUS))
                      + embed(space, (0, SIGMA_PLUS), (1, SIGMA_MINUS))
                      + embed(space, (0, SIGMA_MINUS), (1, SIGMA_PLUS)))
        h = h_reduced_two_qubit(lam)
        assert h.dtype == sums.dtype
        assert h.view(np.uint64).tolist() == sums.view(np.uint64).tolist()  # sign bits too


class TestAnalyticU:
    def test_identity_at_zero_time(self):
        assert np.max(np.abs(analytic_u(1.0, 0.0) - identity(4))) < 1e-15

    def test_entangled_state_at_quarter_period(self):
        lam = 2 * math.pi * 10e6
        t0 = math.pi / (4 * lam)
        psi = analytic_u(lam, t0) @ np.array([0, 0, 1, 0], dtype=complex)  # |10>
        target = np.exp(-1j * math.pi / 4) * np.array([0, -1j, 1, 0]) / math.sqrt(2)
        assert np.max(np.abs(psi - target)) < 1e-12

    def test_matches_exponential_oracle(self):
        lam = 2 * math.pi * 10e6
        h = h_reduced_two_qubit(lam)
        rng = np.random.default_rng(10)
        for t in rng.uniform(0, 1e-7, size=50):
            oracle = scipy.linalg.expm(-1j * t * h)
            assert np.max(np.abs(analytic_u(lam, t) - oracle)) < 1e-10

    def test_unitary_including_doubly_excited_entry(self):
        lam, t = 1.0, 0.37
        u = analytic_u(lam, t)
        assert np.max(np.abs(u.conj().T @ u - identity(4))) < 1e-12
        assert abs(abs(u[3, 3]) - 1.0) < 1e-14


class TestStaticFrame:
    def test_diagonal_is_the_frame_generator(self):
        # Spectator case: qubit 3 parked at ten times the active detuning, and
        # every coupling different.  V = sum_j g_j (a sigma_j^+ + h.c.) has a
        # zero diagonal, so the diagonal is A = sum_j tau_j n_j, bit for bit.
        p = ModelParams((1.0, 0.7, 1.3), (10.0, 10.0, 100.0))
        a = sum(tau * embed(full_space(p, 3), (j, SIGMA_PLUS), (j, SIGMA_MINUS))
                for j, tau in enumerate(p.detunings_tau))
        h = static_frame_hamiltonian(p, 3)
        assert np.array_equal(np.diag(h), np.diag(a))
        assert hermiticity_defect(h) == 0.0

    @pytest.mark.parametrize("n", range(1, 7))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_sector_block_is_the_dense_block(self, n, data):
        # The one-excitation rows and columns of the dense matrix, at every
        # cutoff: qubit j excited in the vacuum is index (N+1) 2^(n-1-j), since
        # qubit j is the 2^(n-1-j) bit above the cavity, and all qubits down
        # with one photon is index 1.  Both sides copy tau_j and g_j sqrt(1)
        # unrounded, so the block is equal entry for entry.
        couplings = data.draw(st.lists(st.just(0.0) | st.floats(0.0, 1e9), min_size=n, max_size=n))
        taus = data.draw(st.lists(st.just(0.0) | st.floats(-1e10, 1e10), min_size=n, max_size=n))
        p = ModelParams(couplings, taus)
        block = sector_hamiltonian(p)
        assert block.dtype == complex
        for cutoff in range(1, 9):
            sector = [(cutoff + 1) * 2 ** (n - 1 - j) for j in range(n)] + [1]
            dense = static_frame_hamiltonian(p, cutoff)[np.ix_(sector, sector)]
            assert np.array_equal(block, dense)


class TestFramePropagator:
    def test_matches_direct_time_dependent_integration(self):
        # The factorized propagator must agree with brute-force RK4 of the
        # explicitly time-dependent interaction.
        p, cutoff = ModelParams.uniform(2, 1.0, 10.0), 3
        t_final = 2.0
        space = full_space(p, cutoff)
        psi0_vec = np.zeros(space.dim, dtype=complex)
        psi0_vec[2 * (cutoff + 1)] = 1.0  # |10> x |0_cav>
        psi0 = PureState(space, psi0_vec)
        grid = TimeGrid(t_final, 4000)
        rk4 = propagate_schrodinger(lambda t: h_interaction(t, p, cutoff), psi0, grid,
                                    record_every=grid.steps)
        exact = _frame_trajectory(p, cutoff, psi0_vec, np.array([t_final]))[0]
        assert np.max(np.abs(rk4.final - exact)) < 1e-8

    def test_unitary(self):
        p = ModelParams.uniform(3, 0.8, 8.0)
        t, dim = np.array([1.7]), full_space(p, 2).dim
        u = np.column_stack([_frame_trajectory(p, 2, e, t)[0] for e in identity(dim)])
        assert np.max(np.abs(u.conj().T @ u - identity(dim))) < 1e-10

