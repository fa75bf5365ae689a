"""Linear-algebra primitives against hand-expanded and scipy oracles."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dotbus.algebra import (
    EIG_FLOOR,
    HERMITIAN_TOL,
    TRACE_TOL,
    DensityMatrix,
    HilbertSpace,
    PureState,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    _defects,
    embed,
    hermiticity_defect,
    identity,
)
from dotbus.hamiltonians import h_reduced_two_qubit
from dotbus.reference import destroy, expm_propagator, fidelity, partial_trace


def random_density(rng, dims):
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(HilbertSpace(tuple(dims)), rho)


class TestEmbed:
    def test_single_subsystem(self):
        assert np.array_equal(embed(HilbertSpace((2,)), (0, SIGMA_X)), SIGMA_X)

    def test_second_of_two(self):
        assert np.array_equal(
            embed(HilbertSpace((2, 2)), (1, SIGMA_Z)), np.kron(identity(2), SIGMA_Z)
        )

    def test_annihilation_number_consistency(self):
        space = HilbertSpace((2, 2, 3))
        a = destroy(2)
        lifted = embed(space, (2, a))
        number = embed(space, (2, a.conj().T), (2, a))
        assert np.max(np.abs(lifted.conj().T @ lifted - number)) < 1e-14

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            embed(HilbertSpace((2, 2, 3)), (2, SIGMA_X))
        with pytest.raises(ValueError):
            embed(HilbertSpace((2, 2)), (5, SIGMA_X))

    def test_disjoint_supports_commute(self):
        rng = np.random.default_rng(2)
        space = HilbertSpace((2, 3, 2))
        for _ in range(20):
            i, j = rng.choice(3, size=2, replace=False)
            a = rng.normal(size=(space.dims[i],) * 2) + 1j * rng.normal(size=(space.dims[i],) * 2)
            b = rng.normal(size=(space.dims[j],) * 2) + 1j * rng.normal(size=(space.dims[j],) * 2)
            ea, eb = embed(space, (i, a)), embed(space, (j, b))
            assert np.max(np.abs(ea @ eb - eb @ ea)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_product_of_single_factor_embeds(self, data):
        # Factors may repeat a subsystem; embed multiplies them in the order given.
        dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        space = HilbertSpace(tuple(dims))
        subsystems = data.draw(st.lists(st.integers(0, len(dims) - 1), max_size=6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        factors = [
            (at, rng.normal(size=(dims[at],) * 2) + 1j * rng.normal(size=(dims[at],) * 2))
            for at in subsystems
        ]
        expected = identity(space.dim)
        for factor in factors:
            expected = expected @ embed(space, factor)
        assert np.max(np.abs(embed(space, *factors) - expected), initial=0.0) < 1e-12

class TestExpmPropagator:
    def test_zero_generator(self):
        assert np.array_equal(expm_propagator(np.zeros((3, 3)), 2.7), identity(3))

    def test_sigma_z_half_turn(self):
        assert np.max(np.abs(expm_propagator(SIGMA_Z, np.pi) + identity(2))) < 1e-14

    def test_against_scaling_squaring_oracle(self):
        # scipy's expm (Pade + scaling/squaring) is the independent algorithm.
        lam = 2 * np.pi * 10e6
        h = h_reduced_two_qubit(lam)
        t = np.pi / (4 * lam)
        expected = scipy.linalg.expm(-1j * t * h)
        assert np.max(np.abs(expm_propagator(h, t) - expected)) < 1e-9

    def test_unitarity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            h = a + a.conj().T
            u = expm_propagator(h, rng.uniform(-2, 2))
            assert np.max(np.abs(u.conj().T @ u - identity(6))) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            expm_propagator(SIGMA_PLUS, 1.0)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(4)
        rho_a = random_density(rng, (2,))
        rho_b = random_density(rng, (3,))
        joint = DensityMatrix(HilbertSpace((2, 3)), np.kron(rho_a.matrix, rho_b.matrix))
        reduced = partial_trace(joint, {0})
        assert np.max(np.abs(reduced.matrix - rho_a.matrix)) < 1e-12

    def test_bell_state_reduces_to_mixed(self):
        bell = PureState(HilbertSpace((2, 2)), np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = partial_trace(bell.density_matrix(), {0})
        assert np.max(np.abs(reduced.matrix - identity(2) / 2)) < 1e-12

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = random_density(rng, (2, 2, 3))
            reduced = partial_trace(rho, {1})
            assert abs(np.trace(reduced.matrix).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(reduced.matrix)[0] >= -1e-9

    def test_invalid_indices_rejected(self):
        rho = random_density(np.random.default_rng(6), (2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, set())
        with pytest.raises(ValueError):
            partial_trace(rho, {0, 7})


class TestFidelity:
    def setup_method(self):
        self.space = HilbertSpace((2,))
        self.zero = PureState(self.space, [1, 0])
        self.one = PureState(self.space, [0, 1])

    def test_self_overlap(self):
        assert fidelity(self.zero, self.zero) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(self.zero, self.one) == pytest.approx(0.0)

    def test_diagonal_mixture(self):
        rho = DensityMatrix(self.space, np.diag([0.5, 0.5]).astype(complex))
        assert fidelity(rho, self.zero) == pytest.approx(0.5)

    def test_dimension_mismatch_rejected(self):
        big = PureState(HilbertSpace((2, 2)), [1, 0, 0, 0])
        with pytest.raises(ValueError):
            fidelity(big, self.zero)
        mixed = DensityMatrix(HilbertSpace((2, 2)), np.eye(4) / 4)
        with pytest.raises(ValueError, match="^state and target dimensions differ$"):
            fidelity(mixed, self.zero)

    def test_unsupported_state_type_rejected(self):
        with pytest.raises(TypeError, match="^unsupported state type <class 'numpy.ndarray'>$"):
            fidelity(np.eye(2) / 2, self.zero)


class TestStateValidation:
    def test_unnormalized_pure_state_rejected(self):
        with pytest.raises(ValueError):
            PureState(HilbertSpace((2,)), [1, 1])

    def test_bad_density_matrices_rejected(self):
        space = HilbertSpace((2,))
        with pytest.raises(ValueError):
            DensityMatrix(space, np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(space, np.diag([0.7, 0.7]).astype(complex))  # trace != 1
        with pytest.raises(ValueError):
            DensityMatrix(space, np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
        with pytest.raises(ValueError,
                           match=r"^matrix shape \(3, 3\) does not match space dimension 2$"):
            DensityMatrix(space, np.eye(3) / 3)

    @pytest.mark.parametrize("dims", [(), (2, 0)])
    def test_nonpositive_subsystem_dimension_rejected(self, dims):
        with pytest.raises(ValueError, match="^subsystem dimensions must be positive, got "):
            HilbertSpace(dims)

    def test_amplitude_count_mismatch_rejected(self):
        with pytest.raises(ValueError,
                           match="^amplitude vector has length 3, space dimension is 2$"):
            PureState(HilbertSpace((2,)), [1, 0, 0])

    def test_non_finite_pure_state_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PureState(HilbertSpace((2,)), [np.nan, 0])

    @pytest.mark.parametrize("matrix", [np.full((2, 2), np.nan),
                                        np.array([[0.5, np.nan], [np.nan, 0.5]])])
    def test_non_finite_density_matrix_rejected(self, matrix):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(HilbertSpace((2,)), matrix)


def drawn_matrix(data, d):
    """A random d x d matrix near a density matrix, each defect drawn below or past its bound."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    w = rng.dirichlet(np.ones(d))
    least = data.draw(st.sampled_from([None, 0.0, -0.5 * EIG_FLOOR, 2 * EIG_FLOOR, -0.1]))
    if least is not None:  # moved between two eigenvalues: the trace stays
        w[1] += w[0] - least
        w[0] = least
    rho = (q * w) @ q.conj().T
    rho *= 1.0 + data.draw(st.sampled_from([0.0, 0.5 * TRACE_TOL, -2 * TRACE_TOL, 1e-3]))
    skew = data.draw(st.sampled_from([0.0, 0.1 * HERMITIAN_TOL, 3 * HERMITIAN_TOL, 1e-3]))
    rho += skew * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    if data.draw(st.integers(0, 3)) == 0:  # one matrix in four is not finite
        rho[tuple(rng.integers(d, size=2))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return rho


class TestDefects:
    """`DensityMatrix` reads trace and least eigenvalue by `_defects`, as `_check_snapshot` does."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_density_matrix_refuses_exactly_a_breach_or_a_non_hermitian_matrix(self, data):
        n = data.draw(st.integers(1, 3))
        d = 2**n
        rho = drawn_matrix(data, d)
        breach = _defects(rho[None], (np.arange(d),))[2] == 0
        hermitian = np.isfinite(rho).all() and hermiticity_defect(rho) <= HERMITIAN_TOL
        try:
            DensityMatrix(HilbertSpace((2,) * n), rho)
        except ValueError:
            refused = True
        else:
            refused = False
        assert refused == (breach or not hermitian)

    @pytest.mark.parametrize("d", [4, 5, 8])
    def test_a_block_of_every_index_hands_eigvalsh_rho_itself(self, d, monkeypatch):
        eigvalsh = mock.Mock(wraps=np.linalg.eigvalsh)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        rho = np.tile(np.eye(d, dtype=complex) / d, (5, 1, 1))
        _defects(rho, (np.arange(d),))
        state = DensityMatrix(HilbertSpace((d,)), np.eye(d) / d)
        _defects(rho, (np.arange(1), np.arange(1, d)))  # a 1-index block, then one of d - 1
        whole, single, gathered = (call.args[0] for call in eigvalsh.call_args_list)
        assert np.shares_memory(whole, rho)
        assert np.shares_memory(single, state.matrix)
        assert not np.shares_memory(gathered, rho)
