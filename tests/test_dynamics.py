"""Integrators against exponential, analytic-decay and superoperator oracles."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dotbus import dynamics
from dotbus.algebra import (HERMITIAN_TOL, DensityMatrix, HilbertSpace, PureState, fidelity,
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
    _support,
    build_liouvillian,
    integrate_lindblad,
)
from dotbus.hamiltonians import ModelParams, analytic_u, h_reduced_two_qubit
from dotbus.reference import (expm_propagator, full_space, h_interaction, lindblad_rhs,
                              propagate_schrodinger)

TWO_QUBITS = HilbertSpace((2, 2))


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
        rho = _evolve(coords, stack, TimeGrid(math.pi / 4, 400), 12.0, 50, str).states
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
        assert len(diag["trace_dev"]) == len(result.times)
        assert np.max(diag["trace_dev"]) < 1e-8
        assert np.max(diag["herm_dev"]) < 1e-10
        assert np.min(diag["min_eig"]) > -1e-8

    def test_health_breach_raises(self):
        # A non-Hermitian generator destroys the Hermiticity of rho.
        h = np.triu(np.ones((4, 4), dtype=complex))
        with pytest.raises(DiagnosticError):
            integrate_lindblad(h, pure_rho(1), NoiseSpec(), TimeGrid(2.0, 200))

    def test_run_stops_at_the_first_unhealthy_snapshot(self):
        # A negative dephasing rate keeps rho Hermitian, so the engine steps
        # it, but grows the |01><10| coherence as exp(1.8 t) past the
        # populations: an eigenvalue goes negative at the first step, and
        # stepping on past the breach would overflow long before t = 1000.
        psi = PureState(TWO_QUBITS, np.array([0, 1, 1, 0]) / math.sqrt(2))
        coords = _real_coordinates(build_liouvillian(np.zeros((4, 4))),
                                   psi.density_matrix().matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DiagnosticError, match=r"at t = 0\.01: "):
                _evolve(coords, np.array([1.0, 0.0, -0.9]), TimeGrid(1000, 100000), 3.6, 1)


def per_snapshot_run(h, rho0, noise, grid, record_every):
    """The one-point run before blocks: each snapshot scattered into its own array, checked alone.

    It steps the same real coordinates as `_evolve`.

    Returns (times, states, diagnostics) as lists, or the DiagnosticError message.
    """
    coords = _real_coordinates(build_liouvillian(h), rho0)
    s, d = coords.support.size, len(rho0)
    generator = (noise.rates @ coords.parts.reshape(3, -1)).reshape(s, s)
    scale = np.linalg.norm(h, 2) + 2 * (noise.gamma + noise.gamma_phi)
    times, states, rows = [], [], []
    try:
        for t, x in _rk4(generator, coords.start[:, None], grid, scale, record_every):
            rho = _scatter(x.ravel(), coords).reshape(d, d)
            rows.append(_check_snapshot(rho, t))
            times.append(t)
            states.append(rho)
    except DiagnosticError as exc:
        return str(exc)
    return times, states, rows


class TestBlockChecks:
    """`_evolve` scatters and checks snapshots a block at a time; no result depends on blocks."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_blocked_run_equals_the_snapshot_by_snapshot_run(self, data):
        rng, h, noise = random_model(data)
        rank = data.draw(st.integers(1, 4))
        a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
        t = data.draw(st.floats(0.05, 1.0))
        scale = np.linalg.norm(h, 2) + 2 * (noise.gamma + noise.gamma_phi)
        steps = math.ceil(t * scale / 0.05) + data.draw(st.integers(1, 60))
        record_every = data.draw(st.integers(1, steps))
        grid = TimeGrid(t, steps)
        expected = per_snapshot_run(h, rho0, noise, grid, record_every)
        with mock.patch.object(dynamics, "CHECK_POINTS", data.draw(st.integers(1, 5))):
            try:
                result = integrate_lindblad(h, DensityMatrix(TWO_QUBITS, rho0), noise, grid,
                                            record_every)
            except DiagnosticError as exc:
                assert str(exc) == expected
                return
        times, states, rows = expected
        assert result.times.tolist() == times
        assert isinstance(result.states, np.ndarray) and result.states.shape == (len(times), 4, 4)
        assert np.array_equal(result.states, states)
        for key, column in zip(("trace_dev", "herm_dev", "min_eig"), zip(*rows)):
            assert np.array_equal(result.diagnostics[key], column)

    def test_a_breach_inside_a_block_names_its_time_and_stops_the_run_there(self):
        # Blocks of 4 snapshots; snapshots 6 and 7, the third and fourth of
        # the second block, are spoiled, and the run names the first of them.
        rk4, made = dynamics._rk4, []

        def spoiled_rk4(*args):
            for n, (t, y) in enumerate(rk4(*args)):
                made.append(t)
                if n in (6, 7):
                    y = y.copy()
                    y[0] += 1e-6  # rho_{00,00}: the trace moves
                yield t, y

        with mock.patch.object(dynamics, "CHECK_POINTS", 4), \
                mock.patch.object(dynamics, "_rk4", spoiled_rk4):
            with pytest.raises(DiagnosticError,
                               match=r"^density-matrix diagnostics failed at t = 0\.06: "
                                     r"\|trace-1\| = 1e-06$"):
                integrate_lindblad(h_reduced_two_qubit(1.0), pure_rho(1), NoiseSpec(0.1, 0.2),
                                   TimeGrid(1.0, 100))
        assert len(made) <= 8  # no snapshot past the breach's block


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
    """_rk4 applies powers of the RK4 step matrix; the per-stage recurrence is its oracle."""

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
        # Chunks smaller than the stack, so powers are formed across chunk edges.
        with mock.patch.object(dynamics, "CHECK_POINTS", data.draw(st.integers(1, 5))):
            new = list(_rk4(generator, y0, grid, scale, record_every))
        old = list(per_stage_rk4(generator, y0, grid, record_every))
        assert [t for t, _ in new] == [t for t, _ in old]
        for (_, y_new), (_, y_old) in zip(new, old):
            # Each side rounds O(n eps ||y||) per step; 3,000 draws reached 0.54 steps n eps ||y||.
            norm = max(np.max(np.abs(y0)), np.max(np.abs(y_old)))
            assert np.max(np.abs(y_new - y_old)) <= 2 * steps * n * np.finfo(float).eps * norm


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
        assert np.all(result.diagnostics["herm_dev"] == 0.0)
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
        assert np.all(result.diagnostics["herm_dev"] == 0.0)
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
        # H[0, 3] = 1e-17 but H[3, 0] = 0: the parts reach rho[0, 3] from
        # rho[3, 3] but not rho[3, 0], and the support takes both.
        h = h_reduced_two_qubit(1.0) + np.diag([0.3, 0.0, 0.0, -0.2])
        h[0, 3] = 1e-17
        rho0 = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        assert 0 < hermiticity_defect(h) <= HERMITIAN_TOL
        delta, bound = self.run_against_the_complex_run(h, rho0, NoiseSpec(0.1, 0.2), 1.0, 200, 20)
        assert delta <= bound

    @pytest.mark.parametrize("h, rho0, breach", [
        # rho[1, 1] feeds rho[0, 1] through H[0, 1] = 1, and rho[1, 0] not at all, as H[1, 0] = 0
        (np.triu(np.ones((4, 4))), pure_rho(1), "up to 1"),
        # d rho_{01,10}/dt = -0.9 rho_{01,10} but d rho_{10,01}/dt = +0.9 rho_{10,01}
        (np.diag([0, 0, 0.9j, 0]), PureState(TWO_QUBITS, np.array([0, 1, 1, 0]) / math.sqrt(2))
         .density_matrix(), "up to 0.9"),
    ])
    def test_a_generator_that_does_not_keep_rho_hermitian_is_refused_before_any_step(
            self, h, rho0, breach):
        with mock.patch.object(dynamics, "_rk4") as rk4:
            with pytest.raises(DiagnosticError) as err:
                integrate_lindblad(h, rho0, NoiseSpec(), TimeGrid(2.0, 200))
        assert str(err.value) == ("the generator does not keep rho Hermitian: its "
                                  f"real-coordinate form has imaginary entries {breach}")
        rk4.assert_not_called()


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

