"""Reference kernels that gauge how fast the host runs at a given moment.

The shared 2-vCPU VM this benchmark was written on changes speed by up to
about 2x, in phases that last from under a second to minutes.  Raw op times
therefore jump between runs of the same code by more than any useful
regression bound.  To take that out, every op is bracketed by a fixed
reference kernel, and the op's wall time is rescaled to the kernel's
nominal speed:

    normalized = wall * NOMINAL_S / mean(kernel time before, kernel time after)

The kernels are the benchmark's own code and never call dotbus, so a change
to dotbus moves the normalized time exactly as it moves the wall time; only
the host's speed cancels.  Each kernel does the kind of work its workload
does, because the host's slow phases slow different code by different
amounts: ``small`` is Python-level RK4 stepping on a 16x16 complex
generator, like the Lindblad layer; ``dense`` diagonalizes a 384x384
Hermitian matrix and streams a 768x768 Kronecker product through memory,
like the static-frame layer with its dense n = 7 space.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20260101)
_L = (_rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))) / 8.0
_RHO = np.eye(4, dtype=complex).reshape(16) / 4.0
_H = _rng.standard_normal((384, 384)) + 1j * _rng.standard_normal((384, 384))
_H = _H + _H.conj().T
_BLOCK = _H[:8, :8].copy()


def small() -> None:
    """128 RK4 steps of d(rho)/dt = L rho, each with a trace and eigenvalue check."""
    rho, dt = _RHO, 1e-2
    for _ in range(128):
        k1 = _L @ rho
        k2 = _L @ (rho + 0.5 * dt * k1)
        k3 = _L @ (rho + 0.5 * dt * k2)
        k4 = _L @ (rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        m = rho.reshape(4, 4)
        np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        abs(np.trace(m))


def dense() -> None:
    """eigh of a 384x384 Hermitian matrix, then three passes over a 768x768 product."""
    np.linalg.eigh(_H)
    big = np.kron(np.eye(96, dtype=complex), _BLOCK)
    for _ in range(3):
        big = big * 1.0001 + big.T


KERNELS = {"small": small, "dense": dense}
# Nominal kernel times: the medians measured on the 2-vCPU VM described in
# README.md, rounded.  Normalized times are seconds at that speed.
NOMINAL_S = {"small": 0.005, "dense": 0.1}


class Gauge:
    """Times a kernel between ops and rescales op times by its readings."""

    def __init__(self, kernel: str, reps: int = 1):
        self.kernel = kernel
        self.run_kernel = KERNELS[kernel]
        self.nominal_s = NOMINAL_S[kernel]
        self.reps = reps
        self.readings: list[float] = []
        self.run_kernel()  # warm up

    def read(self) -> float:
        """Time the kernel once per rep; returns and records the mean."""
        start = time.perf_counter()
        for _ in range(self.reps):
            self.run_kernel()
        reading = (time.perf_counter() - start) / self.reps
        self.readings.append(reading)
        return reading

    def scale(self, before: float, after: float) -> float:
        """Factor that takes a wall time measured between two readings to nominal speed."""
        return self.nominal_s / (0.5 * (before + after))
