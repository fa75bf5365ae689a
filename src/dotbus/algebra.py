"""Dense complex linear algebra on composite Hilbert spaces.

Everything downstream (Hamiltonian builders, propagators, protocol-level
reports) is written against the handful of primitives in this module:
validated states, their one validity reading (`_defects`) and operator
embedding.  All operators are plain dense complex ``numpy`` arrays of small
dimension (a few thousand at most), so no sparse machinery is used anywhere.

Conventions: hbar = 1, energies are angular frequencies (rad/s), times are
seconds.  Qubit basis |0> = (1, 0), |1> = (0, 1), sigma^+ = |1><0|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod

import numpy as np

HERMITIAN_TOL = 1e-10
NORM_TOL = 1e-9
TRACE_TOL = 1e-9
EIG_FLOOR = -1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0|
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def hermiticity_defect(a: np.ndarray) -> float | np.ndarray:
    """max |A - A^dagger|, the amount by which A fails to be Hermitian.

    A stack of matrices (last two axes) gives one defect per matrix.
    """
    return abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def _min_eig(rho: np.ndarray, blocks: tuple) -> np.ndarray:
    """The smallest eigenvalue of each finite Hermitian matrix of ``rho``: its ``blocks``' least.

    ``blocks`` partition the indices, and rho is 0 off them.  A 1-index block
    gives its diagonal entry, a 2-index block [[a, c], [c*, b]]
    (a + b)/2 - hypot((a - b)/2, |c|), a larger one `eigvalsh` of the block,
    read from ``rho`` itself, with no copy, when the block is every index.
    """
    least = []
    for block in blocks:
        if block.size == 1:
            least.append(rho[..., block[0], block[0]].real)
        elif block.size == 2:
            i, j = block  # halved first: a/2 + b/2 is (a + b)/2, and overflows for no finite a, b
            a, b = 0.5 * rho[..., i, i].real, 0.5 * rho[..., j, j].real
            least.append(a + b - np.hypot(a - b, abs(rho[..., i, j])))
        else:  # a block of every index is range(d) in order, since the blocks partition it
            stack = rho if block.size == rho.shape[-1] else rho[..., block[:, None], block]
            least.append(np.linalg.eigvalsh(stack)[..., 0])
    return reduce(np.minimum, least)


def _defects(rho: np.ndarray, blocks: tuple) -> tuple[np.ndarray, np.ndarray, int]:
    """(trace, least eigenvalue, first breach) of a stack of Hermitian matrices, shape (N, d, d).

    The one reading of whether a Hermitian matrix is a valid density matrix.
    Trace (its real part) and least eigenvalue (`_min_eig` on ``blocks``;
    (np.arange(d),) for whole matrices) are read only of the n matrices
    before the first one with a non-finite entry.  The first breach is the
    index of the first matrix with a non-finite entry, |trace - 1| >
    TRACE_TOL or a least eigenvalue below EIG_FLOOR (NaN fails too), and N
    if there is none; it is n exactly when that matrix is the non-finite one.
    """
    finite = np.isfinite(rho).all(axis=(-2, -1))
    n = len(rho) if finite.all() else int(finite.argmin())  # the matrices before a non-finite one
    trace = rho[:n].trace(axis1=-2, axis2=-1).real
    least = _min_eig(rho[:n], blocks)
    bad = np.flatnonzero(~((abs(trace - 1.0) <= TRACE_TOL) & (least >= EIG_FLOOR)))
    return trace, least, int(bad[0]) if bad.size else n


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor factorization of a composite space.

    ``dims`` lists the subsystem dimensions, e.g. (2, 2, 6) for two qubits
    and a cavity truncated at five photons.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {self.dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


@dataclass(frozen=True, eq=False)
class PureState:
    """Finite, normalized state vector over an explicit HilbertSpace."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size != self.space.dim:
            raise ValueError(
                f"amplitude vector has length {amps.size}, space dimension is {self.space.dim}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes are not all finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: ||psi|| = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Valid density operator: finite, Hermitian, then unit trace and PSD by `_defects`."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex).copy()
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match space dimension {d}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("density matrix entries are not all finite")
        if hermiticity_defect(mat) > HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        (tr,), (min_eig,), breach = _defects(mat[None], (np.arange(d),))
        if breach == 0:
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"density matrix trace is {tr!r}, expected 1")
            raise ValueError(f"density matrix has negative eigenvalue {float(min_eig)!r}")
        object.__setattr__(self, "matrix", mat)


def embed(space: HilbertSpace, *factors: tuple[int, np.ndarray]) -> np.ndarray:
    """Lift a product of single-subsystem operators to the full space.

    Each factor is a ``(subsystem, op)`` pair.  Factors on the same subsystem
    multiply in the order given, every other subsystem carries the identity,
    and the result is one Kronecker product in ``space.dims`` order, e.g.
    ``embed(space, (2, a.conj().T), (0, SIGMA_MINUS))`` is a^dagger sigma_0^-.
    """
    local = {}
    for at, op in factors:
        op = np.array(op, dtype=complex)  # a copy: the result never aliases an input
        if not 0 <= at < space.n_subsystems:
            raise ValueError(f"subsystem index {at} out of range for {space.dims}")
        d = space.dims[at]
        if op.shape != (d, d):
            raise ValueError(
                f"operator shape {op.shape} does not match subsystem {at} dimension {d}"
            )
        local[at] = local[at] @ op if at in local else op
    return reduce(np.kron, [local.get(i, identity(d)) for i, d in enumerate(space.dims)])

