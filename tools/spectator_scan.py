"""Measure where the spectator check stops reading physics and starts reading roundoff.

    python3 tools/spectator_scan.py [--src SRC]

`protocols.selective_coupling_check` parks the spectators at spectator_ratio x
tau_0 and diagonalizes the one-excitation block once.  The eigensolver's error
is eps times the largest detuning, and the pair's splitting 2 g^2 / tau_0 and
the spectators' small excitation are read through it.  For n = 3..7 qubits,
uniform g, tau/g at 14 points from 5 to 100 and ratios +-10^0 to +-10^16 in
half decades, this prints, per |ratio|, the worst error of the two readings at
t0 against the same block diagonalized with mpmath at 60 digits: |dF| of
`active_pair_fidelity` and the relative error of `spectator_final_deviation`.
Its last line names the first |ratio| at which that relative error passes
TOLERANCE.  `protocols.MAX_SPECTATOR_RATIO` is lifted for the scan.
Needs mpmath (a dependency of sympy).  Takes about 17 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

QUBITS = range(3, 8)
TAU_OVER_G = np.geomspace(5.0, 100.0, 14)
EXPONENTS = np.arange(0.0, 16.01, 0.5)
TOLERANCE = 1e-3  # relative error of the spectator deviation, as for validate's cavity check


def exact_readings(p, active: tuple[int, int], t0: float) -> tuple[float, float]:
    """(pair fidelity, spectator excitation) at ``t0`` of the block of ``p``, at 60 digits."""
    n = p.n_qubits
    with mp.workdps(60):
        h = mp.zeros(n + 1, n + 1)
        for j, (g, tau) in enumerate(zip(p.couplings_g, p.detunings_tau)):
            h[j, j] = tau
            h[j, n] = h[n, j] = g
        evals, evecs = mp.eigsy(h)
        phases = [mp.expj(-e * mp.mpf(t0)) for e in evals]
        amps = [mp.fsum(evecs[m, k] * evecs[active[0], k] * phases[k] for k in range(n + 1))
                for m in range(n + 1)]
        c_a, c_b = (amps[j] for j in active)
        # <target| rho |target> with target (|10> - i|01>)/sqrt(2), |10> = active[0] excited
        fidelity = (abs(c_a) ** 2 + abs(c_b) ** 2 + 2 * mp.im(c_a * mp.conj(c_b))) / 2
        spectators = mp.fsum(abs(amps[j]) ** 2 for j in range(n) if j not in active)
        return float(fidelity), float(spectators)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the dotbus package to scan")
    sys.path.insert(0, str(parser.parse_args().src))
    from dotbus import protocols
    from dotbus.hamiltonians import ModelParams

    protocols.MAX_SPECTATOR_RATIO = math.inf
    print("|ratio|   max |dF|   max rel. error of the spectator deviation")
    first = None
    for exponent in EXPONENTS:
        d_fid = d_dev = 0.0
        for n in QUBITS:
            for tau_over_g in TAU_OVER_G:
                p = ModelParams.uniform(n, 1.0, float(tau_over_g))
                t0 = protocols.gate_time_t0(ModelParams.uniform(2, 1.0, float(tau_over_g)).lam)
                for ratio in (10.0 ** exponent, -(10.0 ** exponent)):
                    report = protocols.selective_coupling_check(p, spectator_ratio=ratio)
                    run = ModelParams(p.couplings_g, [p.detunings_tau[0]] * 2
                                      + [ratio * p.detunings_tau[0]] * (n - 2))
                    fid, dev = exact_readings(run, (0, 1), t0)
                    d_fid = max(d_fid, abs(report.active_pair_fidelity - fid))
                    d_dev = max(d_dev, abs(report.spectator_final_deviation - dev) / dev)
        print(f"1e{exponent:<5.1f}  {d_fid:9.2g}  {d_dev:9.2g}")
        if d_dev > TOLERANCE and first is None:
            first = f"|ratio| = 1e{exponent:.1f}"
    print(f"first past {TOLERANCE:g}: {first}")


if __name__ == "__main__":
    main()
