"""Measure where `validate` stops reading physics and starts reading roundoff.

    python3 tools/precision_scan.py [--src SRC]

The exact run behind `validate` carries a frame phase tau x t0 = (pi/4)(tau/g)^2,
and its float error grows with that phase.  The check with the smallest margin
is the peak cavity occupation: physics puts it a relative 8 (g/tau)^2 below its
bound 4 (g/tau)^2.  For several configs and tau/g from 10^3.5 to 10^4.6 this
prints the roundoff error of that reading, relative to the exact sampled peak
computed with mpmath at 60 digits, divided by that margin, and the first tau/g
where the ratio passes 1.  `protocols.MAX_FRAME_PHASE` is lifted for the scan.
The configs vary only the coupling: the run holds one photon at most, so it has
no photon cutoff to vary, and a config that sets `model.photon_cutoff` exits 2
(unknown key).
Needs mpmath (a dependency of sympy).  Takes about 4 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

CASES = {
    "{}": {},
    "g 1 MHz": {"coupling_g": "1 MHz"},
    "g 1 GHz": {"coupling_g": "1 GHz"},
}
RATIOS = np.round(10.0 ** np.arange(3.5, 4.61, 0.05))


def exact_peak(g: float, tau: float, t0: float, samples: int) -> float:
    """Largest photon occupation 4g^2/W^2 sin^2(W t/2), W^2 = tau^2 + 8g^2, on the sample times."""
    g, tau, t0 = mp.mpf(g), mp.mpf(tau), mp.mpf(t0)
    w = mp.sqrt(tau**2 + 8 * g**2)
    return float(max(4 * g**2 / w**2 * mp.sin(w * t0 * k / samples / 2) ** 2
                      for k in range(samples + 1)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the dotbus package to scan")
    sys.path.insert(0, str(parser.parse_args().src))
    from dotbus import protocols
    from dotbus.config import config_from_dict

    mp.mp.dps = 60
    protocols.MAX_FRAME_PHASE = math.inf
    ratios = ", ".join(f"{r:.0f}" for r in RATIOS)
    print(f"error / margin of max_cavity_occupation at tau/g = {ratios}")
    for name, model in CASES.items():
        ratios, first = [], None
        for ratio in RATIOS:
            p = config_from_dict({"model": {**model, "tau_over_g": float(ratio)}}).model
            g, tau = p.couplings_g[0], p.detunings_tau[0]
            t0 = protocols.gate_time_t0(p.lam)
            peak = exact_peak(g, tau, t0, protocols.FRAME_SAMPLES)
            error = abs(protocols.dispersive_validity(p).max_cavity_occupation - peak) / peak
            ratios.append(error / (8 * (g / tau) ** 2 / (1 + 8 * (g / tau) ** 2)))
            if ratios[-1] > 1 and first is None:
                first = f"tau/g = {ratio:.0f}, phase tau x t0 = {tau * t0:.3g} rad"
        print(f"{name:>9}: first past 1 at {first}")
        print("           " + " ".join(f"{r:.2g}" for r in ratios))


if __name__ == "__main__":
    main()
