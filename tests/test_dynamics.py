"""Integrators against exponential, analytic-decay and superoperator oracles."""

import contextlib
import math
import tracemalloc
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dotbus import dynamics
from dotbus.algebra import (HERMITIAN_TOL, DensityMatrix, HilbertSpace, PureState, _min_eig,
                            hermiticity_defect)
from dotbus.dynamics import (
    STABILITY_LIMIT,
    DiagnosticError,
    NoiseSpec,
    TimeGrid,
    _check_snapshot,
    _evolve,
    _real_coordinates,
    _rk4,
    _scatter,
    _snapshot_interval,
    _support,
    build_liouvillian,
    integrate_lindblad,
)
from dotbus.config import config_from_dict
from dotbus.hamiltonians import ModelParams, h_reduced_two_qubit
from dotbus.protocols import _epr_grid, epr_generation
from dotbus.reference import (analytic_u, expm_propagator, fidelity, full_space, h_interaction,
                              lindblad_rhs, propagate_schrodinger)

TWO_QUBITS = HilbertSpace((2, 2))
EPS = np.finfo(float).eps


def basis_state(space, index):
    v = np.zeros(space.dim, dtype=complex)
    v[index] = 1.0
    return PureState(space, v)


def pure_rho(index):
    return basis_state(TWO_QUBITS, index).density_matrix()


def liouvillian(h, noise):
    """The generator of a run: the build_liouvillian parts weighted by noise.rates."""
    return np.tensordot(noise.rates, build_liouvillian(h), axes=1)


class TestSchrodinger:
    def test_free_evolution_is_exact(self):
        space = HilbertSpace((2, 3))
        psi0 = basis_state(space, 2)
        h = np.zeros((space.dim, space.dim), dtype=complex)
        result = propagate_schrodinger(lambda t: h, psi0, TimeGrid(1.0, 10))
        assert np.array_equal(result.final, psi0.amplitudes)

    def test_constant_hamiltonian_matches_exponential(self):
        lam = 1.0
        h = h_reduced_two_qubit(lam)
        psi0 = basis_state(TWO_QUBITS, 1)
        t = 2.0
        errors = []
        for steps in (200, 400):
            result = propagate_schrodinger(lambda _: h, psi0, TimeGrid(t, steps),
                                           record_every=steps)
            exact = expm_propagator(h, t) @ psi0.amplitudes
            errors.append(np.max(np.abs(result.final - exact)))
        assert errors[1] < 1e-8
        assert errors[0] / errors[1] > 8.0  # 4th-order convergence

    def test_resonant_vacuum_rabi_return(self):
        g = 1.0
        p, cutoff = ModelParams.uniform(1, g, 0.0), 5
        space = full_space(p, cutoff)
        psi0 = basis_state(space, cutoff + 1)  # |1> x |0_cav>
        t = math.pi / g
        result = propagate_schrodinger(
            lambda tt: h_interaction(tt, p, cutoff), psi0, TimeGrid(t, 2000),
            record_every=2000,
        )
        final = PureState(space, result.final / np.linalg.norm(result.final))
        assert fidelity(final, psi0) > 1 - 1e-6

    def test_stability_guard_names_required_steps(self):
        h = 100.0 * h_reduced_two_qubit(1.0)
        psi0 = basis_state(TWO_QUBITS, 1)
        with pytest.raises(ValueError, match="steps"):
            propagate_schrodinger(lambda _: h, psi0, TimeGrid(10.0, 5))

    def test_norm_drift_breach_rejected(self):
        # A non-Hermitian generator leaks norm; the integrator must refuse it.
        decay = -0.5j * np.eye(4, dtype=complex)
        psi0 = basis_state(TWO_QUBITS, 0)
        with pytest.raises(DiagnosticError):
            propagate_schrodinger(lambda _: decay, psi0, TimeGrid(1.0, 100))


class TestLindbladRhs:
    def test_closed_system_commutator(self):
        h = h_reduced_two_qubit(0.9)
        rho = pure_rho(1).matrix
        quiet = NoiseSpec()
        expected = -1j * (h @ rho - rho @ h)
        assert np.max(np.abs(lindblad_rhs(rho, h, quiet) - expected)) < 1e-14

    def test_trace_free(self):
        rng = np.random.default_rng(11)
        noise = NoiseSpec(0.3, 0.2)
        h = h_reduced_two_qubit(1.3)
        for _ in range(10):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            assert abs(np.trace(lindblad_rhs(rho, h, noise))) < 1e-12

    def test_maximally_mixed_flow(self):
        rho = np.eye(4, dtype=complex) / 4
        h = np.zeros((4, 4), dtype=complex)
        dephasing_only = NoiseSpec(0.0, 1.0)
        assert np.max(np.abs(lindblad_rhs(rho, h, dephasing_only))) < 1e-14
        relaxation_only = NoiseSpec(1.0, 0.0)
        drho = lindblad_rhs(rho, h, relaxation_only)
        assert drho[0, 0].real > 0  # population flows toward |00>

    def test_matches_superoperator(self):
        rng = np.random.default_rng(12)
        noise = NoiseSpec(0.4, 0.9)
        h = h_reduced_two_qubit(0.8)
        liou = liouvillian(h, noise)
        for _ in range(5):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            direct = lindblad_rhs(rho, h, noise)
            vectorized = (liou @ rho.reshape(-1)).reshape(4, 4)
            assert np.max(np.abs(direct - vectorized)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lindblad_rhs(np.eye(2) / 2, np.zeros((4, 4)), NoiseSpec())
        with pytest.raises(ValueError):  # not a register of qubits
            lindblad_rhs(np.eye(3) / 3, np.zeros((3, 3)), NoiseSpec())


class TestParts:
    def test_three_parts_at_unit_rates(self):
        h = h_reduced_two_qubit(0.7)
        parts = build_liouvillian(h)
        assert parts.shape == (3, 16, 16)
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        for part, h_part, noise in zip(parts, (h, 0 * h, 0 * h),
                                       (NoiseSpec(), NoiseSpec(1.0, 0.0), NoiseSpec(0.0, 1.0))):
            bare = lindblad_rhs(rho, h_part, noise)
            assert np.max(np.abs((part @ rho.reshape(-1)).reshape(4, 4) - bare)) < 1e-15

    def test_each_build_is_a_fresh_copy_of_the_dissipators(self):
        # L_rel and L_deph are formed once per qubit count; a caller that
        # writes into one build reaches no later build.
        h = h_reduced_two_qubit(0.7)
        first = build_liouvillian(h)
        expected = first.copy()
        first[1:] = 0.0
        assert np.array_equal(build_liouvillian(h), expected)

    @pytest.mark.parametrize("shape", [(3, 3), (1, 1), (4, 2), (6, 6)])
    def test_a_dimension_that_is_not_a_qubit_register_is_refused(self, shape):
        with pytest.raises(ValueError, match="2\\^n x 2\\^n"):
            build_liouvillian(np.zeros(shape))
        with pytest.raises(ValueError, match="2\\^n x 2\\^n"):
            integrate_lindblad(np.zeros(shape), pure_rho(1), NoiseSpec(), TimeGrid(1.0, 10))

    def test_one_qubit_relaxes_at_a_quarter_of_gamma(self):
        rho0 = DensityMatrix(HilbertSpace((2,)), np.diag([0.0, 1.0]))
        result = integrate_lindblad(np.zeros((2, 2)), rho0, NoiseSpec(0.8, 0.3),
                                    TimeGrid(1.0, 400), record_every=400)
        assert result.final[1, 1].real == pytest.approx(math.exp(-0.8 / 4), rel=1e-10)


class TestNoiseSpec:
    def test_two_rates_and_their_weights(self):
        noise = NoiseSpec(0.5, 2)
        assert (noise.gamma, noise.gamma_phi) == (0.5, 2.0)
        assert noise.rates.tolist() == [1.0, 0.5, 2.0]
        assert NoiseSpec().rates.tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("rates", [(-1.0, 0.0), (0.0, -1e-300), (math.nan, 0.0),
                                       (0.0, math.nan)])
    def test_negative_or_nan_rates_are_refused(self, rates):
        with pytest.raises(ValueError, match="noise rates must be nonnegative"):
            NoiseSpec(*rates)


@pytest.mark.parametrize("t_end, steps, message", [
    (0.0, 10, "t_end must be positive"), (-1.0, 10, "t_end must be positive"),
    (math.nan, 10, "t_end must be positive"), (math.inf, 10, "t_end must be finite"),
    (1.0, 0, "steps must be at least 1"),
    (1.0, 100.5, r"steps must be an integer, got 100\.5"),
    (1.0, 100.0, r"steps must be an integer, got 100\.0")])
def test_a_time_grid_without_time_or_steps_is_refused(t_end, steps, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TimeGrid(t_end, steps)


def test_a_numpy_integer_step_count_is_a_python_int():
    grid = TimeGrid(1.0, np.int64(100))
    assert type(grid.steps) is int and grid == TimeGrid(1.0, 100)


RATE = st.floats(0.0, 5.0)


def random_model(data):
    """A seeded generator, a random Hermitian 4x4 H and random non-negative rates."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = data.draw(st.floats(0.0, 5.0)) * (a + a.conj().T)
    return rng, h, NoiseSpec(data.draw(RATE), data.draw(RATE))


class TestLiouvillianProperties:
    """build_liouvillian for a random Hermitian H and random non-negative rates."""

    @staticmethod
    def draw_generator(data):
        rng, h, noise = random_model(data)
        return rng, liouvillian(h, noise)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_trace_preserving(self, data):
        # d tr(rho)/dt = vec(1) . L vec(rho) vanishes for every rho.
        _, liou = self.draw_generator(data)
        defect = np.max(np.abs(np.eye(4).reshape(-1) @ liou))
        # Relative to the norm, with a floor of 4 ulps of the largest entry: at
        # a subnormal rate the norm's bound underflows to 0 while forming
        # gamma/4 in subnormal arithmetic leaves a defect of one subnormal ulp.
        assert defect <= max(1e-12 * np.linalg.norm(liou), 4 * np.spacing(np.abs(liou).max()))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_positivity_preserving(self, data):
        rng, liou = self.draw_generator(data)
        rank = data.draw(st.integers(1, 4))
        a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
        t = data.draw(st.floats(0.0, 3.0))
        evolved = (scipy.linalg.expm(liou * t) @ rho.reshape(-1)).reshape(4, 4)
        assert np.linalg.eigvalsh(evolved)[0] >= -1e-12


class TestAcceptedSnapshots:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_accepted_snapshot_is_a_density_matrix(self, data):
        # The run's health checks are those of DensityMatrix: a snapshot it
        # keeps always validates, even with RK4 steps near the stability limit.
        rng, h, noise = random_model(data)
        rank = data.draw(st.integers(1, 4))
        a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho0 = DensityMatrix(TWO_QUBITS, a @ a.conj().T / np.trace(a @ a.conj().T).real)
        t = data.draw(st.floats(0.05, 1.0))
        scale = np.linalg.norm(h, 2) + 2 * (noise.gamma + noise.gamma_phi)
        steps = max(1, math.ceil(t * scale / data.draw(st.floats(0.02, 0.099))))
        try:
            result = integrate_lindblad(h, rho0, noise, TimeGrid(t, steps))
        except DiagnosticError:
            return
        for rho in result.states:
            DensityMatrix(TWO_QUBITS, rho)


class TestDerivedSupport:
    """Runs step only the entries of vec(rho) that the generator reaches from rho0."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_the_exponential_with_exact_zeros_off_the_support(self, data):
        rng, h, noise = random_model(data)
        if data.draw(st.booleans()):  # |01> <-> |10> exchange only: a sparse support
            h = h_reduced_two_qubit(data.draw(st.floats(0.1, 5.0))) + np.diag(rng.normal(size=4))
        rows = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
        a = np.zeros((4, 4), dtype=complex)  # rho0 lives on the drawn rows and columns
        a[rows] = rng.normal(size=(len(rows), 4)) + 1j * rng.normal(size=(len(rows), 4))
        rho0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
        t = 1.0
        scale = np.linalg.norm(h, 2) + 2 * (noise.gamma + noise.gamma_phi)
        steps = math.ceil(t * scale / 0.005) + 1  # coarser steps can dip an eigenvalue < EIG_FLOOR
        result = integrate_lindblad(h, DensityMatrix(TWO_QUBITS, rho0), noise,
                                    TimeGrid(t, steps), record_every=steps)
        exact = scipy.linalg.expm(liouvillian(h, noise) * t) @ rho0.reshape(-1)
        final = result.final.reshape(-1)
        # RK4's global error is below t scale (dt scale)^4 for a unit-trace state.
        assert np.max(np.abs(final - exact)) <= t * scale * (t * scale / steps) ** 4 + 1e-14
        outside = np.setdiff1d(np.arange(16), _support(build_liouvillian(h), rho0))
        assert np.all(final[outside] == 0.0)

    @settings(max_examples=50, deadline=None)
    @given(rates=st.lists(st.tuples(st.floats(0.01, 5.0), st.floats(0.0, 5.0)),
                          min_size=1, max_size=6))
    def test_a_noiseless_point_in_a_stack_keeps_rho_00_00_at_zero(self, rates):
        # Only relaxation reaches rho_{00,00} from |10><10|; the noiseless
        # point's generator carries 0 x L_rel there, which is exactly 0.
        coords = _real_coordinates(build_liouvillian(h_reduced_two_qubit(1.0)),
                                   np.diag([0.0, 0.0, 1.0, 0.0]))
        stack = np.array([(1.0, 0.0, 0.0)] + [(1.0, g, g_phi) for g, g_phi in rates])
        rho = _evolve(coords, stack, TimeGrid(math.pi / 4, 400).dt, 400, 50, str).states
        assert np.all(rho[:, 0, 0, 0] == 0.0)  # every snapshot
        assert np.all(rho[-1, 1:, 0, 0].real > 0.0)  # at t0, where relaxation does reach it


class TestIntegrateLindblad:
    def test_noiseless_matches_closed_form_unitary(self):
        lam = 2 * math.pi * 10e6
        t0 = math.pi / (4 * lam)
        h = h_reduced_two_qubit(lam)
        result = integrate_lindblad(
            h, pure_rho(1), NoiseSpec(), TimeGrid(t0, 400), record_every=400
        )
        u = analytic_u(lam, t0)
        psi = u @ np.array([0, 1, 0, 0], dtype=complex)
        expected = np.outer(psi, psi.conj())
        assert np.max(np.abs(result.final - expected)) < 1e-8

    def test_pure_dephasing_coherence_decay(self):
        # With H = 0 the |10><01| coherence obeys d/dt = -2 gphi; solved by
        # hand from the dephasing form, which carries gphi/2 per qubit and a
        # (-2) factor on a coherence flipped by both sigma_z's.
        g_phi = 0.65
        noise = NoiseSpec(0.0, g_phi)
        h = np.zeros((4, 4), dtype=complex)
        rho0 = DensityMatrix(
            TWO_QUBITS,
            np.array(
                [[0, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 0]],
                dtype=complex,
            ),
        )
        t = 1.3
        result = integrate_lindblad(noise=noise, h_eff=h, rho0=rho0,
                                    grid=TimeGrid(t, 800), record_every=800)
        expected = 0.5 * math.exp(-2 * g_phi * t)
        assert abs(result.final[1, 2]) == pytest.approx(expected, rel=1e-8)

    def test_relaxation_population_decay(self):
        # Printed gamma/4 prefactor: population of |10> decays as exp(-g t/4).
        g1 = 0.9
        noise = NoiseSpec(g1, 0.0)
        h = np.zeros((4, 4), dtype=complex)
        t = 2.0
        result = integrate_lindblad(h, pure_rho(2), noise, TimeGrid(t, 800),
                                    record_every=800)
        assert result.final[2, 2].real == pytest.approx(math.exp(-g1 * t / 4), rel=1e-8)

    def test_diagnostics_recorded(self):
        h = h_reduced_two_qubit(1.0)
        result = integrate_lindblad(
            h, pure_rho(1), NoiseSpec(0.05, 0.1), TimeGrid(1.0, 100)
        )
        diag = result.diagnostics
        assert diag.keys() == {"trace_dev", "min_eig"}
        assert len(diag["trace_dev"]) == len(result.times)
        assert np.max(diag["trace_dev"]) < 1e-8
        assert np.all(hermiticity_defect(result.states) == 0.0)
        assert np.min(diag["min_eig"]) > -1e-8

    def test_health_breach_raises(self):
        # A non-Hermitian generator destroys the Hermiticity of rho.
        h = np.triu(np.ones((4, 4), dtype=complex))
        with pytest.raises(DiagnosticError):
            integrate_lindblad(h, pure_rho(1), NoiseSpec(), TimeGrid(2.0, 200))

    def test_run_stops_at_the_first_unhealthy_snapshot(self):
        # A negative dephasing rate keeps rho Hermitian, so the engine steps
        # it, but grows the |01><10| coherence as exp(1.8 t) past the
        # populations: an eigenvalue goes negative at the first step, and the
        # one check of the stepped run names that snapshot.  Only such a row,
        # which `NoiseSpec` refuses, can diverge; by t = 1 the coherence has
        # grown only e^1.8-fold, so no step overflows.
        psi = PureState(TWO_QUBITS, np.array([0, 1, 1, 0]) / math.sqrt(2))
        coords = _real_coordinates(build_liouvillian(np.zeros((4, 4))),
                                   psi.density_matrix().matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DiagnosticError, match=r"at t = 0\.01: "):
                _evolve(coords, np.array([1.0, 0.0, -0.9]), 0.01, 100, 1)

    @pytest.mark.parametrize("record_every, message", [
        (-1, "record_every must be at least 1"), (0, "record_every must be at least 1"),
        (2.0, r"record_every must be an integer, got 2\.0")])
    def test_a_record_interval_that_is_not_a_positive_integer_is_refused(self, record_every,
                                                                          message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            integrate_lindblad(h_reduced_two_qubit(1.0), pure_rho(2), NoiseSpec(),
                               TimeGrid(1.0, 100), record_every)

    def test_a_numpy_integer_record_interval_runs_as_a_python_int(self):
        h, grid = h_reduced_two_qubit(1.0), TimeGrid(1.0, 100)
        result = integrate_lindblad(h, pure_rho(2), NoiseSpec(), grid, np.int32(10))
        expected = integrate_lindblad(h, pure_rho(2), NoiseSpec(), grid, 10)
        assert np.array_equal(result.times, expected.times)
        assert np.array_equal(result.states, expected.states)

    def test_a_grid_too_coarse_for_the_stability_guard_names_the_steps_that_pass(self):
        # ||H|| + 2 (gamma + gamma_phi) = 20 + 3 rad/s: over t = 1, dt x 23 < 0.1
        # asks for more than 230 steps, so 100 are refused.
        h, noise = h_reduced_two_qubit(10.0), NoiseSpec(1.0, 0.5)
        with pytest.raises(ValueError, match=r"^step size too large: .* use at least \d+ steps$"
                           ) as refused:
            integrate_lindblad(h, pure_rho(2), noise, TimeGrid(1.0, 100))
        needed = int(str(refused.value).split()[-2])
        result = integrate_lindblad(h, pure_rho(2), noise, TimeGrid(1.0, needed), needed)
        assert result.times.tolist() == [0.0, 1.0]

    def test_a_step_count_that_overflows_a_float_is_refused_without_a_warning(self):
        # ||H|| + 2 (gamma + gamma_phi) is inf, and so is the count that would pass.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                    r"^step size too large: dt\*\|\|H\|\| = inf >= 0\.1; "
                    r"the step count it needs overflows a float$")):
                integrate_lindblad(h_reduced_two_qubit(1.0), pure_rho(2), NoiseSpec(1e308, 1e308),
                                   TimeGrid(1.0, 10))

    def test_a_rho0_of_another_dimension_is_refused_before_any_step(self):
        rho0 = DensityMatrix(HilbertSpace((2,)), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match=r"^rho0 is 2 x 2 but h_eff is 4 x 4$"):
            integrate_lindblad(h_reduced_two_qubit(1.0), rho0, NoiseSpec(), TimeGrid(1.0, 100))

    def test_a_long_run_from_a_dense_start_holds_little_beside_its_states(self):
        # A full-rank rho0 makes one 4-index block: eigvalsh reads one copy of
        # the states' stack, and the check holds little else.
        rho0 = DensityMatrix(TWO_QUBITS, np.full((4, 4), 0.05) + 0.2 * np.eye(4))
        tracemalloc.start()
        try:
            result = integrate_lindblad(h_reduced_two_qubit(1.0), rho0, NoiseSpec(0.1, 0.2),
                                        TimeGrid(100.0, 10_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * result.states.nbytes


class TestSchedule:
    """A run's schedule is its step count and interval: snapshots at 0, every interval, the last."""

    @settings(max_examples=100, deadline=None)
    @given(steps=st.integers(1, 10**4), data=st.data(),
           t_end=st.floats(1e-300, 1e300, allow_subnormal=False))
    def test_the_times_are_the_step_counts_times_dt(self, steps, data, t_end):
        # H = 0 and no noise: the guard passes any dt, and every snapshot is rho0.
        record_every = data.draw(st.integers(1, 2 * steps))
        grid = TimeGrid(t_end, steps)
        assert _snapshot_interval(grid, 0.0, record_every) == min(record_every, steps)
        result = integrate_lindblad(np.zeros((4, 4)), pure_rho(2), NoiseSpec(), grid,
                                    record_every)
        marks = [*range(0, steps, record_every), steps]
        assert result.times.tolist() == [mark * grid.dt for mark in marks]  # bit for bit
        assert result.states.shape == (len(marks), 4, 4)

    @pytest.mark.parametrize("steps, every", [
        (2**70, 2**70),  # two snapshots, past int64
        # float(every) rounds up by 1, so 3.0 * float(every) != float(3 * every)
        (3 * (2**54 + 3) + 1, 2**54 + 3),
    ])
    def test_a_long_schedule_keeps_its_times(self, steps, every):
        # A zero generator: S is I exactly, so any power keeps rho0.
        coords = _real_coordinates(build_liouvillian(np.zeros((4, 4))), pure_rho(2).matrix)
        dt = TimeGrid(1.0, steps).dt
        result = _evolve(coords, NoiseSpec().rates, dt, steps, every)
        marks = [*range(0, steps, every), steps]
        assert result.times.tolist() == [mark * dt for mark in marks]  # bit for bit
        assert len(result.states) == len(marks)


def stepped_snapshots(generator, y, grid, scale, record_every):
    """(t, y) at 0, every `_snapshot_interval` steps and the last step, by powers of `_rk4`'s S."""
    every = _snapshot_interval(grid, scale, record_every)
    marks = [*range(0, grid.steps, every), grid.steps]
    step = _rk4(generator, grid.dt)
    powers = {n: np.linalg.matrix_power(step, n) for n in {b - a for a, b in zip(marks, marks[1:])}}
    yield 0.0, y
    for done, mark in zip(marks, marks[1:]):
        y = powers[mark - done] @ y
        yield mark * grid.dt, y


def per_snapshot_run(h, rho0, noise, grid, record_every):
    """The one-point run before doubling: one product by S^n per snapshot, each checked alone.

    It steps the same real coordinates as `_evolve` and reads each whole
    matrix's least eigenvalue.

    Returns (times, states, diagnostics) as arrays, or the DiagnosticError message.
    """
    coords = _real_coordinates(build_liouvillian(h), rho0)
    s, d = coords.support.size, len(rho0)
    generator = (noise.rates @ coords.parts.reshape(3, -1)).reshape(s, s)
    scale = np.linalg.norm(h, 2) + 2 * (noise.gamma + noise.gamma_phi)
    times, states, rows = [], [], []
    try:
        for t, x in stepped_snapshots(generator, coords.start[:, None], grid, scale,
                                      record_every):
            rho = _scatter(x.ravel(), coords).reshape(d, d)
            rows.append([check[0] for check in _check_snapshot(rho[None], [t], (np.arange(d),))])
            times.append(t)
            states.append(rho)
    except DiagnosticError as exc:
        return str(exc)
    return times, np.array(states), np.array(rows).T


@contextlib.contextmanager
def counted_powers():
    """Count `_evolve`'s powers of `_rk4`'s S, its products and its squarings, which still run.

    Yields the list of (kind, n): ("power", the exponent `np.linalg.matrix_power`
    raises S to), ("product", the snapshots it writes) or ("square", 0).  A
    power or square of a counted matrix is counted in turn.
    """
    rk4, matrix_power, counts = dynamics._rk4, np.linalg.matrix_power, []

    class CountedPower(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            square = all(isinstance(x, CountedPower) for x in inputs)
            if ufunc is np.matmul:
                counts.append(("square", 0) if square else ("product", len(kwargs["out"][0])))
            inputs = [x.view(np.ndarray) if isinstance(x, CountedPower) else x for x in inputs]
            result = getattr(ufunc, method)(*inputs, **kwargs)
            return result.view(CountedPower) if square else result

    def counted_matrix_power(a, n):
        if not isinstance(a, CountedPower):  # the boolean powers of `_support` and the blocks
            return matrix_power(a, n)
        counts.append(("power", n))
        return matrix_power(a.view(np.ndarray), n).view(CountedPower)

    with mock.patch.object(dynamics, "_rk4", lambda *args: rk4(*args).view(CountedPower)), \
            mock.patch.object(np.linalg, "matrix_power", counted_matrix_power):
        yield counts


class TestSnapshotChecks:
    """`_evolve` steps every snapshot, then scatters and checks them all in one call."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_run_is_near_the_snapshot_by_snapshot_run(self, data):
        rng, h, noise = random_model(data)
        rank = data.draw(st.integers(1, 4))
        a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
        t = data.draw(st.floats(0.05, 1.0))
        scale = np.linalg.norm(h, 2) + 2 * (noise.gamma + noise.gamma_phi)
        steps = math.ceil(t * scale / 0.05) + data.draw(st.integers(1, 60))
        record_every = data.draw(st.sampled_from([1, 2]) | st.integers(1, steps))
        grid = TimeGrid(t, steps)
        try:
            result = integrate_lindblad(h, DensityMatrix(TWO_QUBITS, rho0), noise, grid,
                                        record_every)
        except DiagnosticError as exc:
            run = str(exc)
        else:
            run = (result.times, result.states, result.diagnostics)
        expected = per_snapshot_run(h, rho0, noise, grid, record_every)
        assert isinstance(run, str) == isinstance(expected, str)  # 3,000 draws: none refused
        if isinstance(expected, str):
            return
        (times, states, diagnostics), (ref_times, ref_states, ref_rows) = run, expected
        assert times.tolist() == ref_times and states.shape == (len(ref_times), 4, 4)
        assert diagnostics.keys() == {"trace_dev", "min_eig"}
        # Snapshot k is S^(n k) x0 formed by a different association of the same
        # products: within 4 k eps max|rho| of it (3,000 draws reached 1.9 k eps).
        bound = 4 * np.maximum(np.arange(len(times)), 1) * EPS * np.max(np.abs(ref_states))
        assert np.all(np.max(np.abs(states - ref_states), axis=(1, 2)) <= bound)
        for key, column in zip(("trace_dev", "min_eig"), ref_rows):  # each moves by d x that
            assert np.all(np.abs(diagnostics[key] - column) <= 4 * bound)

    @staticmethod
    def spoil_trace(rho):
        rho[0] += 1e-6  # rho_{00,00}: the trace moves

    @staticmethod
    def spoil_coherence(rho):
        rho[[6, 9]] += 0.6  # rho_{01,10} and its conjugate, past the populations': lambda_- < 0

    @staticmethod
    def spoil_coherence_finiteness(rho):
        rho[[6, 9]] = np.inf

    @pytest.mark.parametrize("spoil, breach", [
        ("spoil_trace", lambda snapshot: "|trace-1| = 1e-06"),
        # The check reads the {|01>, |10>} block in closed form; the message
        # gives the dense eigvalsh value to 3 digits.
        ("spoil_coherence",
         lambda snapshot: f"min eigenvalue = {np.linalg.eigvalsh(snapshot)[0]:.3g}"),
        ("spoil_coherence_finiteness", lambda snapshot: "non-finite entries"),
    ])
    def test_a_breach_names_the_time_of_the_first_bad_snapshot(self, spoil, breach):
        # All 101 snapshots, the start included, are scattered and checked at
        # once; snapshots 6 and 7 are spoiled, and the run names the first of them.
        scatter, made = dynamics._scatter, []
        checks = mock.Mock(wraps=dynamics._check_snapshot)

        def spoiled_scatter(*args):
            rho = scatter(*args)  # every snapshot, shape (snapshots, 16)
            for snapshot in rho[6:8]:
                getattr(self, spoil)(snapshot)
            made.extend(rho.reshape(-1, 4, 4))
            return rho

        with counted_powers() as counts, mock.patch.object(dynamics, "_scatter", spoiled_scatter), \
                mock.patch.object(dynamics, "_check_snapshot", checks):
            with pytest.raises(DiagnosticError) as err:
                integrate_lindblad(h_reduced_two_qubit(1.0), pure_rho(1), NoiseSpec(0.1, 0.2),
                                   TimeGrid(1.0, 100))
        assert str(err.value) == ("density-matrix diagnostics failed at t = 0.06: "
                                  + breach(made[6]))
        # One product chain for snapshots 1 to 99, S^1 to S^64 by 6 squarings,
        # the last as S^100 x rho0, then one scatter and one check of every snapshot.
        assert [n for kind, n in counts if kind == "product"] == [1, 2, 4, 8, 16, 32, 36, 1]
        assert [kind for kind, _ in counts].count("square") == 6
        assert [n for kind, n in counts if kind == "power"] == [1, 100]
        assert len(made) == 101
        assert [call.args[0].shape for call in checks.call_args_list] == [(101, 4, 4)]

    def test_a_long_trajectory_is_one_product_chain_and_one_check(self):
        checks = mock.Mock(wraps=dynamics._check_snapshot)
        with counted_powers() as counts, mock.patch.object(dynamics, "_check_snapshot", checks):
            result = integrate_lindblad(h_reduced_two_qubit(1.0), pure_rho(1),
                                        NoiseSpec(0.1, 0.2), TimeGrid(10.0, 1000))
        assert len(result.times) == 1001
        products = [n for kind, n in counts if kind == "product"]
        assert products == [1 << k for k in range(9)] + [488, 1]  # the last is S^1000 x rho0
        assert [kind for kind, _ in counts].count("square") == 9  # S^2 to S^512
        assert [n for kind, n in counts if kind == "power"] == [1, 1000]
        assert [call.args[0].shape for call in checks.call_args_list] == [(1001, 4, 4)]


class TestDoubling:
    """`_evolve` fills a trajectory by doubling: snapshots [m, 2m) are S^(n m) x [0, m)."""

    def test_the_default_epr_trajectory_takes_log2_products(self):
        cfg = config_from_dict({})
        with counted_powers() as counts:
            epr_generation(cfg.model, cfg.noise)  # what `epr` runs, with or without --out
        products = [n for kind, n in counts if kind == "product"]
        assert products == [1, 2, 4, 8, 16, 32, 64, 128, 1]  # 256 snapshots in 9 products
        assert [kind for kind, _ in counts].count("square") == 7  # S^2 to S^128
        assert [n for kind, n in counts if kind == "power"] == [1, 256]  # S, and S^256 for the last

    @pytest.mark.parametrize("noise", [{}, {"gamma_over_2pi": 0, "gamma_phi_over_2pi": 0}])
    def test_every_snapshot_of_the_default_trajectory_is_near_a_40_digit_power(self, noise):
        cfg = config_from_dict({"noise": noise})
        result = epr_generation(cfg.model, cfg.noise).result
        coords = _real_coordinates(build_liouvillian(h_reduced_two_qubit(cfg.model.lam)),
                                   pure_rho(2).matrix)
        s, grid = coords.support.size, _epr_grid(cfg.model.lam, cfg.noise)
        generator = (cfg.noise.rates @ coords.parts.reshape(3, -1)).reshape(s, s)
        step = _rk4(generator, grid.dt)  # S in floats: the oracle powers it exactly
        exact = [coords.start]
        with mp.workdps(40):
            power, x = mp.matrix(step.tolist()), mp.matrix(coords.start.tolist())
            for _ in range(grid.steps):
                x = power * x
                exact.append([float(v) for v in x])
        expected = _scatter(np.array(exact), coords).reshape(-1, 4, 4)
        # 19.5 eps on the default config and 21.5 eps noiseless; one product per
        # snapshot stayed within 3 eps.
        assert np.max(np.abs(result.states - expected)) <= 32 * EPS

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_run_ends_on_the_bits_of_its_two_snapshot_run(self, data):
        # The last snapshot is S^steps x rho0 whatever the interval, so the
        # final state depends on the generator, dt, the step count and rho0 alone.
        rng, h, noise = random_model(data)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho0 = DensityMatrix(TWO_QUBITS, a @ a.conj().T / np.trace(a @ a.conj().T).real)
        t = data.draw(st.floats(0.05, 1.0))
        scale = np.linalg.norm(h, 2) + 2 * (noise.gamma + noise.gamma_phi)
        steps = math.ceil(t * scale / 0.05) + data.draw(st.integers(1, 60) | st.integers(1, 5000))
        record_every = data.draw(st.sampled_from([1, 2, 3]) | st.integers(1, steps))
        grid = TimeGrid(t, steps)
        final = integrate_lindblad(h, rho0, noise, grid, steps).final
        assert np.array_equal(integrate_lindblad(h, rho0, noise, grid, record_every).final, final)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(5.0, 100.0), st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.data())
    def test_an_epr_run_ends_bit_for_bit_where_its_two_mark_run_does(
            self, tau_over_g, gamma, gamma_phi, data):
        # 256 to 6,284 steps: the last snapshot is S^steps x0 by `matrix_power`
        # whatever the interval, so `epr` reports one D with or without --out.
        p = ModelParams.uniform(2, 1.0, tau_over_g)
        noise = NoiseSpec(gamma * p.lam, gamma_phi * p.lam)
        grid = _epr_grid(p.lam, noise)
        final = integrate_lindblad(h_reduced_two_qubit(p.lam), pure_rho(2), noise, grid,
                                   grid.steps).final
        record_every = data.draw(st.sampled_from([1, 2, 3]) | st.integers(1, grid.steps))
        assert np.array_equal(integrate_lindblad(h_reduced_two_qubit(p.lam), pure_rho(2), noise,
                                                 grid, record_every).final, final)
        assert np.array_equal(epr_generation(p, noise).result.final, final)


def per_stage_rk4(generator, y, grid, record_every):
    """The stepper before step matrices: four stages at every step of a constant generator."""
    dt = grid.dt
    yield 0.0, y
    for step in range(grid.steps):
        k1 = generator @ y
        k2 = generator @ (y + 0.5 * dt * k1)
        k3 = generator @ (y + 0.5 * dt * k2)
        k4 = generator @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (step + 1) % record_every == 0 or step == grid.steps - 1:
            yield (step + 1) * dt, y


class TestStepMatrixStepper:
    """Powers of the RK4 step matrix from `_rk4`; the per-stage recurrence is their oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_per_stage_recurrence(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        points, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        shape = (points,) if data.draw(st.booleans()) or points > 1 else ()
        a, b = (rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
                for _ in range(2))
        # -iH - c B^dagger B, with H Hermitian: a damped, hence stable, generator
        generator = (-1j * (a + a.conj().swapaxes(-1, -2))
                     - data.draw(st.floats(0.0, 1.0)) * b.conj().swapaxes(-1, -2) @ b)
        scale = max(np.linalg.norm(g, 2) for g in generator.reshape(-1, n, n))
        steps = data.draw(st.integers(1, 600))
        record_every = data.draw(st.integers(1, steps))
        dt_scale = data.draw(st.floats(1e-3, 0.99 * STABILITY_LIMIT))
        grid = TimeGrid(steps * dt_scale / scale, steps)
        y0 = rng.normal(size=shape + (n, 1)) + 1j * rng.normal(size=shape + (n, 1))
        new = list(stepped_snapshots(generator, y0, grid, scale, record_every))
        old = list(per_stage_rk4(generator, y0, grid, record_every))
        assert [t for t, _ in new] == [t for t, _ in old]
        for (_, y_new), (_, y_old) in zip(new, old):
            # Each side rounds O(n eps ||y||) per step; 3,000 draws reached 0.54 steps n eps ||y||.
            norm = max(np.max(np.abs(y0)), np.max(np.abs(y_old)))
            assert np.max(np.abs(y_new - y_old)) <= 2 * steps * n * np.finfo(float).eps * norm

    # S^1 and S^256; S^3 and S^256, with no power for the last interval of 1
    # (256 = 85 x 3 + 1); S^255 and S^256; S^10 alone, since no snapshot lies between
    @pytest.mark.parametrize("steps, record_every, powers", [
        (256, 1, [1, 256]), (256, 3, [3, 256]), (256, 255, [255, 256]), (10, 10, [10])])
    def test_one_power_per_interval_and_one_of_every_step(self, steps, record_every, powers):
        with counted_powers() as counts:
            integrate_lindblad(h_reduced_two_qubit(1.0), pure_rho(2), NoiseSpec(0.1, 0.2),
                               TimeGrid(0.1, steps), record_every)
        assert [n for kind, n in counts if kind == "power"] == powers


class TestRealCoordinates:
    """`_evolve` steps Re and Im of the support entries; the complex per-stage run is its oracle."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_the_complex_per_stage_run(self, data):
        rng, h, noise = random_model(data)
        rank = data.draw(st.integers(1, 4))
        a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
        rho0 = 0.5 * (rho0 + rho0.conj().T)  # exactly Hermitian, as the engine reads it
        parts = build_liouvillian(h)
        support = _support(parts, rho0)
        i, j = np.divmod(support, 4)
        assert np.array_equal(np.sort(4 * j + i), support)  # closed under (i, j) -> (j, i)
        t = data.draw(st.floats(0.05, 1.0))
        scale = np.linalg.norm(h, 2) + 2 * (noise.gamma + noise.gamma_phi)
        steps = math.ceil(t * scale / 0.05) + data.draw(st.integers(1, 60))
        record_every = data.draw(st.integers(1, steps))
        grid = TimeGrid(t, steps)
        try:
            result = integrate_lindblad(h, DensityMatrix(TWO_QUBITS, rho0), noise, grid,
                                        record_every)
        except DiagnosticError:  # an eigenvalue of a rank-deficient rho0 dips below EIG_FLOOR
            return
        assert np.all(hermiticity_defect(result.states) == 0.0)
        s = support.size
        generator = (noise.rates @ parts[:, support[:, None], support].reshape(3, -1)).reshape(s, s)
        old = list(per_stage_rk4(generator, rho0.reshape(-1)[support, None], grid, record_every))
        assert result.times.tolist() == [t for t, _ in old]
        states = result.states.reshape(len(old), 16)
        y_old = np.array([y.ravel() for _, y in old])
        assert np.all(np.delete(states, support, axis=1) == 0.0)
        # TestStepMatrixStepper's bound: each side rounds O(n eps ||y||) per step.
        norm = max(np.max(np.abs(rho0)), np.max(np.abs(y_old)))
        bound = 2 * steps * s * np.finfo(float).eps * norm
        assert np.max(np.abs(states[:, support] - y_old)) <= bound

    @staticmethod
    def run_against_the_complex_run(h, rho0, noise, t, steps, record_every):
        """Max |state - complex per-stage state| of an `integrate_lindblad` run, and the bound.

        The oracle steps the full complex generator of ``h`` as it is, with no
        support and no real coordinates; the bound is TestStepMatrixStepper's.
        """
        grid = TimeGrid(t, steps)
        result = integrate_lindblad(h, DensityMatrix(TWO_QUBITS, rho0), noise, grid, record_every)
        assert np.all(hermiticity_defect(result.states) == 0.0)
        old = list(per_stage_rk4(liouvillian(h, noise), rho0.reshape(-1, 1), grid, record_every))
        assert result.times.tolist() == [t for t, _ in old]
        y_old = np.array([y.ravel() for _, y in old])
        norm = max(np.max(np.abs(rho0)), np.max(np.abs(y_old)))
        return (np.max(np.abs(result.states.reshape(len(old), 16) - y_old)),
                2 * steps * 16 * np.finfo(float).eps * norm)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_an_h_hermitian_up_to_roundoff_runs_as_the_complex_run(self, data):
        # V diag(w) V^dagger is Hermitian only up to roundoff: its pairs of
        # entries differ in their last bits, over ten decades of scale.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        size = 10.0 ** data.draw(st.floats(-5.0, 5.0))
        v, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        h = size * v @ np.diag(rng.normal(size=4)) @ v.conj().T
        noise = NoiseSpec(size * data.draw(RATE), size * data.draw(RATE))
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
        rho0 = 0.5 * (rho0 + rho0.conj().T)
        # H enters as its Hermitian part, so each part maps rho^T to the conjugate
        # of what it maps rho to, entry for entry, and the support holds transposes.
        parts, flip = build_liouvillian(h), np.arange(16).reshape(4, 4).T.reshape(-1)
        assert np.array_equal(parts[:, flip][:, :, flip], parts.conj())
        support = _support(parts, rho0)
        i, j = np.divmod(support, 4)
        assert np.array_equal(np.sort(4 * j + i), support)  # closed under (i, j) -> (j, i)
        t = data.draw(st.floats(0.05, 1.0)) / size
        scale = np.linalg.norm(h, 2) + 2 * (noise.gamma + noise.gamma_phi)
        steps = math.ceil(t * scale / 0.05) + data.draw(st.integers(1, 60))
        try:
            delta, bound = self.run_against_the_complex_run(
                h, rho0, noise, t, steps, data.draw(st.integers(1, steps)))
        except DiagnosticError as exc:  # an eigenvalue dips below EIG_FLOOR, never a refusal
            assert str(exc).startswith("density-matrix diagnostics failed")
            return
        assert delta <= bound

    def test_a_roundoff_entry_whose_transpose_is_an_exact_zero_runs(self):
        # H[0, 3] = 1e-17 but H[3, 0] = 0: build_liouvillian takes the
        # Hermitian part, 5e-18 at both entries, so the parts reach rho[0, 3]
        # and rho[3, 0] alike from the diagonal.
        h = h_reduced_two_qubit(1.0) + np.diag([0.3, 0.0, 0.0, -0.2])
        h[0, 3] = 1e-17
        rho0 = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        assert 0 < hermiticity_defect(h) <= HERMITIAN_TOL
        delta, bound = self.run_against_the_complex_run(h, rho0, NoiseSpec(0.1, 0.2), 1.0, 200, 20)
        assert delta <= bound

    @pytest.mark.parametrize("h, rho0, breach", [
        # rho[1, 1] feeds rho[0, 1] through H[0, 1] = 1, and rho[1, 0] not at all, as H[1, 0] = 0
        (np.triu(np.ones((4, 4))), pure_rho(1), "1 is not within HERMITIAN_TOL x max|H| = 1e-10"),
        # d rho_{01,10}/dt = -0.9 rho_{01,10} but d rho_{10,01}/dt = +0.9 rho_{10,01}
        (np.diag([0, 0, 0.9j, 0]), PureState(TWO_QUBITS, np.array([0, 1, 1, 0]) / math.sqrt(2))
         .density_matrix(), "1.8 is not within HERMITIAN_TOL x max|H| = 9e-11"),
        # H[3, 3] = 2 + 0.5i, which no run from |10><10| reaches
        (h_reduced_two_qubit(1.0) + np.diag([0, 0, 0, 0.5j]), pure_rho(2),
         "1 is not within HERMITIAN_TOL x max|H| = 2.06e-10"),
        # a NaN that the run from |10><10| reaches
        (h_reduced_two_qubit(1.0) + np.diag([0, np.nan, 0, 0]), pure_rho(2),
         "nan is not within HERMITIAN_TOL x max|H| = nan"),
    ])
    def test_a_generator_that_does_not_keep_rho_hermitian_is_refused_before_any_step(
            self, h, rho0, breach):
        with mock.patch.object(dynamics, "_rk4") as rk4:
            with pytest.raises(DiagnosticError) as err:
                integrate_lindblad(h, rho0, NoiseSpec(0.1, 0.2), TimeGrid(1.0, 200))
        assert str(err.value) == f"h_eff is not Hermitian: max|H - H^dagger| = {breach}"
        rk4.assert_not_called()


def random_set_up(data):
    """The `_real_coordinates` of random sparse parts -i[H, .], D[L] and a random sparse rho0.

    H and rho0 are Hermitian, so the parts keep rho Hermitian, and their
    nonzero patterns, hence the `_support`, are drawn as well.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    d = data.draw(st.sampled_from([4, 3, 2, 1]))

    def sparse():
        mask = rng.random((d, d)) < data.draw(st.floats(0.0, 1.0))
        return np.where(mask, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 0.0)

    # L is real, as the production jump operators are: a complex product
    # l conj(l') is the conjugate of l' conj(l) only up to roundoff.
    a, l_op, b = sparse(), sparse().real, sparse()
    h, eye, ldl = a + a.conj().T, np.eye(d), l_op.T @ l_op
    parts = np.stack([-1j * (np.kron(h, eye) - np.kron(eye, h.T)),
                      np.kron(l_op, l_op) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))])
    rho0 = b + b.conj().T
    k = data.draw(st.integers(0, d - 1))
    rho0[k, k] += 1.0  # a nonzero entry, so the support is not empty
    return _real_coordinates(parts, rho0)


# Any finite double, with the extremes and subnormals drawn often.
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e308, -1e308, np.finfo(float).max, -np.finfo(float).max, 5e-324, -5e-324, 1e-310])


class TestScatter:
    """`_scatter` makes each matrix exactly Hermitian, so `_check_snapshot` need not measure it."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_matrix_is_exactly_hermitian_and_0_off_the_support(self, data):
        coords = random_set_up(data)
        d, s = coords.d, coords.support.size
        x = data.draw(arrays(np.float64, (data.draw(st.integers(1, 3)), s), elements=FINITE))
        rho = _scatter(x, coords)
        assert np.all(np.delete(rho, coords.support, axis=-1) == 0.0)
        rho = rho.reshape(-1, d, d)
        assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))  # entry for entry, no tolerance
        assert np.all(hermiticity_defect(rho) == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_a_non_finite_coordinate_is_named_by_the_check(self, data):
        # The check reads trace and eigenvalues only of the matrices before the
        # first non-finite one, and names the first breach: the non-finite
        # matrix, or a finite breach before it, with that matrix's own time.
        coords = random_set_up(data)
        d, s = coords.d, coords.support.size
        x = data.draw(arrays(np.float64, (data.draw(st.integers(1, 3)), s), elements=FINITE))
        x[0, data.draw(st.integers(0, s - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        rho = _scatter(x, coords).reshape(-1, d, d)  # rho[0] is non-finite
        # Diagonal matrices, 0 off any blocks, with exact traces and eigenvalues.
        valid = np.eye(d) / d
        breaches = [(np.diag([2.0] + [0.0] * (d - 1)), "|trace-1| = 1")]
        if d > 1:
            breaches.append((np.diag([2.0, -1.0] + [0.0] * (d - 2)), "min eigenvalue = -1"))
        cases = [(rho, "t = 0: non-finite entries"), (rho[:1], "t = 0: non-finite entries")]
        for breach, message in breaches:
            cases += [(np.stack([valid, breach, *rho]), f"t = 0.5: {message}"),
                      (np.stack([valid, rho[0], breach]), "t = 0.5: non-finite entries")]
        for blocks in (coords.blocks, (np.arange(d),)):  # the set-up's, then whole matrices
            for matrices, message in cases:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # no inf - inf: no non-finite matrix is read
                    with pytest.raises(DiagnosticError) as err:
                        _check_snapshot(matrices, np.arange(len(matrices)) * 0.5, blocks)
                assert str(err.value) == "density-matrix diagnostics failed at " + message


class TestBlockCheck:
    """`_check_snapshot` reads the least eigenvalue block by block (`_min_eig`)."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_the_block_minimum_is_the_dense_minimum(self, data):
        # The drawn supports give blocks of 1, 2, 3 and 4 indices, untouched
        # indices among them; 4,000 draws met an error of at most 4.3 eps
        # max|rho|.  Entries are multiples of 2^-20 scaled by 10^k, so none is
        # subnormal.
        coords = random_set_up(data)
        d, s = coords.d, coords.support.size
        n = data.draw(arrays(np.int64, (data.draw(st.integers(1, 3)), s),
                             elements=st.integers(-2**20, 2**20)))
        scale = 2.0**-20 * 10.0 ** data.draw(st.integers(-290, 290))
        rho = _scatter(n * scale, coords).reshape(-1, d, d)
        dense = np.linalg.eigvalsh(rho)[..., 0]
        bound = 16 * EPS * np.max(np.abs(rho), axis=(-2, -1))
        whole = _min_eig(rho, (np.arange(d),))  # one block: the whole matrix
        if d > 2:
            assert np.array_equal(whole, dense)
        assert np.all(np.abs(whole - dense) <= bound)
        assert np.all(np.abs(_min_eig(rho, coords.blocks) - dense) <= bound)
        assert np.all(np.abs(_min_eig(rho[0], coords.blocks) - dense[0]) <= bound[0])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_the_blocks_partition_the_indices_and_link_every_support_entry(self, data):
        coords = random_set_up(data)
        blocks, d = coords.blocks, coords.d
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(d))  # each index once
        assert [block[0] for block in blocks] == sorted(block.min() for block in blocks)
        assert all(np.array_equal(block, np.unique(block)) for block in blocks)  # ascending
        owner = np.empty(d, dtype=int)
        for k, block in enumerate(blocks):
            owner[block] = k
        i, j = np.divmod(coords.support, d)
        assert np.array_equal(owner[i], owner[j])  # rho_ij in the support: i, j share a block
        # A block is linked: it is not the union of two blocks with no entry between them.
        for block in blocks:
            linked = {int(block[0])}
            for _ in range(d):
                linked |= {int(b) for a, b in zip(i, j) if a in linked}
            assert linked == set(block.tolist())

    def test_a_dense_start_takes_one_eigvalsh_per_check(self, monkeypatch):
        # A full-rank rho0 couples every index: one 4-index block, which only
        # eigvalsh reads.
        rho0 = DensityMatrix(TWO_QUBITS, np.full((4, 4), 0.05) + 0.2 * np.eye(4))
        eigvalsh = mock.Mock(wraps=np.linalg.eigvalsh)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        result = integrate_lindblad(h_reduced_two_qubit(1.0), rho0, NoiseSpec(0.1, 0.2),
                                    TimeGrid(1.0, 100))
        assert [call.args[0].shape for call in eigvalsh.call_args_list] == [(101, 4, 4)]
        assert np.all(np.abs(result.diagnostics["min_eig"]
                             - np.linalg.eigvalsh(result.states)[:, 0]) <= 16 * EPS)


class TestFourthOrderScaling:
    def test_schrodinger_step_halving(self):
        h = h_reduced_two_qubit(1.0)
        psi0 = basis_state(TWO_QUBITS, 1)
        t = 3.0
        exact = expm_propagator(h, t) @ psi0.amplitudes
        errors = []
        for steps in (100, 200, 400, 800, 1600):  # a 16x span of dt
            result = propagate_schrodinger(lambda _: h, psi0, TimeGrid(t, steps),
                                           record_every=steps)
            errors.append(np.max(np.abs(result.final - exact)))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 8.0

    def test_lindblad_step_halving(self):
        h = h_reduced_two_qubit(1.0)
        noise = NoiseSpec(0.2, 0.3)
        rho0 = pure_rho(1)
        t = 3.0
        liou = liouvillian(h, noise)
        exact = (scipy.linalg.expm(liou * t) @ rho0.matrix.reshape(-1)).reshape(4, 4)
        errors = []
        for steps in (100, 200, 400, 800, 1600):
            result = integrate_lindblad(h, rho0, noise, TimeGrid(t, steps),
                                        record_every=steps)
            errors.append(np.max(np.abs(result.final - exact)))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 8.0


class TestErrorProbability:
    """The error probability D that epr_generation reports, 1 - fidelity."""

    def test_target_state(self):
        target = PureState(TWO_QUBITS, np.array([0, 1, -1j, 0]) / math.sqrt(2))
        assert 1 - fidelity(target.density_matrix(), target) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_state(self):
        target = PureState(TWO_QUBITS, [0, 1, 0, 0])
        assert 1 - fidelity(pure_rho(2), target) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        target = PureState(TWO_QUBITS, np.array([0, 1, -1j, 0]) / math.sqrt(2))
        mixed = DensityMatrix(TWO_QUBITS, np.eye(4, dtype=complex) / 4)
        assert 1 - fidelity(mixed, target) == pytest.approx(0.75)

