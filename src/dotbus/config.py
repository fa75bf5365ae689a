"""Run configuration: JSON with optional unit-suffixed strings.

Every physical value may be written either as a bare number (SI base unit of
that key, frequencies as plain Hz for keys named ``*_over_2pi``) or as a
string like ``"10 mm"`` / ``"0.2 MHz"`` / ``"20 ueV"``.  Parsing validates
all invariants and produces a normalized all-numeric dump that reparses to
the identical configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .device import (
    CouplerParams,
    DotParams,
    EV_TO_JOULE,
    MAX_WIRING_EPSILON,
    TlrParams,
    coupling_g,
)
from .dynamics import NoiseSpec
from .hamiltonians import ModelParams
from .protocols import gate_time_t0

# Most qubits a config may ask for.  No production array grows with 2**n: the
# one-excitation block is (n + 1) x (n + 1).  The bound stays at nine so that
# no exit code or message moves until one is stated from measured time.
MAX_QUBITS = 9
# Most sweep grid points, sweep.gamma_points x sweep.gamma_phi_points.  The sweep
# steps all of them as one stack, 200 bytes of generator per point: `dotbus sweep`
# on a 197 x 198 grid (39,006 points) takes 0.4-0.6 s and 83 MiB peak RSS on one pinned core.
MAX_SWEEP_POINTS = 39_062


class ConfigError(Exception):
    """Invalid configuration; carries the offending key path."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


_UNITS = {
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9},
    "capacitance": {"F": 1.0, "pF": 1e-12, "fF": 1e-15, "aF": 1e-18},
    "capacitance_per_length": {"F/m": 1.0, "pF/m": 1e-12, "fF/m": 1e-15},
    "inductance_per_length": {"H/m": 1.0, "uH/m": 1e-6, "µH/m": 1e-6, "nH/m": 1e-9},
    "energy": {
        "J": 1.0,
        "eV": EV_TO_JOULE,
        "meV": 1e-3 * EV_TO_JOULE,
        "ueV": 1e-6 * EV_TO_JOULE,
        "µeV": 1e-6 * EV_TO_JOULE,
        "neV": 1e-9 * EV_TO_JOULE,
    },
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "dimensionless": {},
}


def _quantity(value, kind: str, path: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(path, "expected a number or unit string, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        parts = value.split()
        table = _UNITS[kind]
        if len(parts) == 2 and parts[1] in table:
            try:
                return float(parts[0]) * table[parts[1]]
            except ValueError:
                raise ConfigError(path, f"cannot parse number in {value!r}") from None
        if len(parts) == 1:
            try:
                return float(parts[0])
            except ValueError:
                pass
        allowed = ", ".join(table) or "none (bare number only)"
        raise ConfigError(path, f"cannot parse {value!r}; accepted units: {allowed}")
    raise ConfigError(path, f"expected a number or unit string, got {type(value).__name__}")


def parse_quantity(value, kind: str, path: str) -> float:
    """A finite float from a bare number or a ``"<number> <unit>"`` string."""
    try:
        result = _quantity(value, kind, path)
    except OverflowError:  # an integer too large for a float
        result = math.inf
    if not math.isfinite(result):
        raise ConfigError(path, f"expected a finite value, got {value!r}")
    return result


# Every key of a run configuration.  A leaf is (default, kind): kind "int"
# takes JSON integers, any other kind is a key of _UNITS.
# A string default is a sentinel the leaf also accepts verbatim.
SCHEMA = {
    "device": {
        "tlr": {
            "length": (0.01, "length"),
            "inductance_per_length": (4e-7, "inductance_per_length"),
            "capacitance_per_length": (2.5e-10, "capacitance_per_length"),
            "wiring_capacitance": (0.0, "capacitance"),
            "quality_factor": (1e5, "dimensionless"),
        },
        "dot": {
            "bias": (0.0, "energy"),
            "tunneling": (20e-6 * EV_TO_JOULE, "energy"),
            "total_capacitance": (1e-15, "capacitance"),
        },
        "coupler": {
            "coupling_capacitance": (2.5e-16, "capacitance"),
            "position": (0.0, "length"),
        },
    },
    "model": {
        "n_qubits": (2, "int"),
        "coupling_g": ("from-device", "frequency"),
        "tau_over_g": (10.0, "dimensionless"),
    },
    "noise": {
        "gamma_over_2pi": (0.2e6, "frequency"),
        "gamma_phi_over_2pi": (0.5e6, "frequency"),
    },
    "sweep": {
        "gamma_max_over_2pi": (1e6, "frequency"),
        "gamma_phi_max_over_2pi": (1e6, "frequency"),
        "gamma_points": (21, "int"),
        "gamma_phi_points": (21, "int"),
    },
}


def _parse_leaf(value, default, kind: str, path: str):
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        return value
    if isinstance(default, str) and value == default:
        return value
    value = parse_quantity(value, kind, path)
    # The program reads a *_over_2pi value times 2 pi, as an angular rate.
    if path.endswith("_over_2pi") and not math.isfinite(2.0 * math.pi * value):
        raise ConfigError(path, f"2 pi x {value!r} overflows a float")
    return value


def _resolve(schema: dict, given, path: str) -> dict:
    """Overlay ``given`` on the schema defaults, rejecting unknown keys and parsing every leaf."""
    if not isinstance(given, dict):
        raise ConfigError(path or "<root>", "expected an object")
    for key in given:
        if key not in schema:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    out = {}
    for key, node in schema.items():
        sub_path = f"{path}.{key}" if path else key
        if isinstance(node, dict):
            out[key] = _resolve(node, given.get(key, {}), sub_path)
        else:
            default, kind = node
            out[key] = _parse_leaf(given.get(key, default), default, kind, sub_path)
    return out


@dataclass(frozen=True, eq=False)
class RunConfig:
    tlr: TlrParams
    dot: DotParams
    coupler: CouplerParams
    model: ModelParams
    noise: NoiseSpec
    sweep_gamma_axis: np.ndarray       # rad/s
    sweep_gamma_phi_axis: np.ndarray   # rad/s
    normalized: dict

    def dump_json(self) -> str:
        return json.dumps(self.normalized, indent=2, sort_keys=True) + "\n"


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError reported as a ConfigError at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def config_from_dict(raw: dict) -> RunConfig:
    tree = _resolve(SCHEMA, raw, "")

    t = tree["device"]["tlr"]
    # A copy of TlrParams' own check, whose error can only name device.tlr; this one names the key.
    lc = t["length"] * t["capacitance_per_length"]
    if lc > 0 and t["wiring_capacitance"] / lc >= MAX_WIRING_EPSILON:
        raise ConfigError(
            "device.tlr.wiring_capacitance",
            f"wiring ratio C0/LC = {t['wiring_capacitance'] / lc:.3g} "
            f"exceeds the perturbative limit {MAX_WIRING_EPSILON}",
        )
    tlr = _build("device.tlr", TlrParams, **t)
    d = tree["device"]["dot"]
    dot = _build("device.dot", DotParams, d["bias"], d["tunneling"], d["total_capacitance"])
    coupler = _build("device.coupler", CouplerParams, **tree["device"]["coupler"])
    _build("device.coupler", coupler.validate_against, tlr)

    m = tree["model"]
    if m["coupling_g"] == "from-device":
        g = abs(coupling_g(tlr, dot, coupler))
    else:
        g = 2.0 * math.pi * m["coupling_g"]
    if g <= 0:
        raise ConfigError("model.coupling_g", "resolved coupling must be positive")
    if m["tau_over_g"] <= 0:
        raise ConfigError("model.tau_over_g", "detuning ratio must be positive")
    n = m["n_qubits"]
    if n > MAX_QUBITS:
        raise ConfigError("model.n_qubits", f"{n} qubits exceed MAX_QUBITS = {MAX_QUBITS}")
    model = _build("model", ModelParams.uniform, n, g, m["tau_over_g"] * g)
    lam = _build("model", lambda: model.lam)
    if not (0 < lam < math.inf and 0 < gate_time_t0(lam) < math.inf):
        raise ConfigError(
            "model",
            f"lambda = g^2/tau = {lam!r} rad/s from model.coupling_g and model.tau_over_g "
            "must be positive and finite, and so must t0 = pi/(4 lambda)",
        )

    rates = tree["noise"]
    noise = _build("noise", NoiseSpec, 2.0 * math.pi * rates["gamma_over_2pi"],
                   2.0 * math.pi * rates["gamma_phi_over_2pi"])

    s = tree["sweep"]
    for key in ("gamma_points", "gamma_phi_points"):
        if s[key] < 1:
            raise ConfigError(f"sweep.{key}", "point count must be at least 1")
    points = s["gamma_points"] * s["gamma_phi_points"]  # refused before the axes are allocated
    if points > MAX_SWEEP_POINTS:
        raise ConfigError("sweep", f"sweep.gamma_points x sweep.gamma_phi_points = {points} "
                          f"points exceed MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}")
    for key in ("gamma_max_over_2pi", "gamma_phi_max_over_2pi"):
        if s[key] < 0:
            raise ConfigError(f"sweep.{key}", "axis maximum must be nonnegative")
    gamma_axis = 2.0 * math.pi * np.linspace(0.0, s["gamma_max_over_2pi"], s["gamma_points"])
    gamma_phi_axis = 2.0 * math.pi * np.linspace(
        0.0, s["gamma_phi_max_over_2pi"], s["gamma_phi_points"]
    )

    return RunConfig(
        tlr=tlr,
        dot=dot,
        coupler=coupler,
        model=model,
        noise=noise,
        sweep_gamma_axis=gamma_axis,
        sweep_gamma_phi_axis=gamma_phi_axis,
        normalized=tree,
    )


def parse_config(path: str) -> RunConfig:
    """Load, validate and normalize a JSON run configuration."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<file>", f"config file not found: {path}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, bytes or nesting
        raise ConfigError("<file>", f"malformed JSON: {exc}") from None
    return config_from_dict(raw)
