"""Configuration parsing and the command-line entry points."""

import errno
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dotbus import cli, protocols
from dotbus.cli import main
from dotbus.config import (
    _UNITS,
    MAX_QUBITS,
    MAX_SWEEP_POINTS,
    SCHEMA,
    ConfigError,
    config_from_dict,
    parse_config,
)
from dotbus.algebra import TRACE_TOL
from dotbus.dynamics import STABILITY_LIMIT, DiagnosticError, NoiseSpec, SimResult
from dotbus.hamiltonians import h_reduced_two_qubit
from dotbus.protocols import MAX_FRAME_PHASE, MIN_EPR_STEPS, _epr_grid, epr_generation


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigDefaults:
    def test_empty_config_uses_defaults(self):
        cfg = config_from_dict({})
        assert cfg.model.n_qubits == 2
        assert cfg.tlr.length == 0.01
        assert cfg.noise.gamma == pytest.approx(2 * math.pi * 0.2e6)
        assert cfg.noise.gamma_phi == pytest.approx(2 * math.pi * 0.5e6)

    def test_device_coupling_near_100_mhz(self):
        g = config_from_dict({}).model.couplings_g[0] / (2 * math.pi)
        assert 90e6 < g < 110e6

    def test_explicit_coupling_overrides_device(self):
        cfg = config_from_dict({"model": {"coupling_g": "100 MHz"}})
        assert cfg.model.couplings_g[0] == pytest.approx(2 * math.pi * 100e6)
        assert cfg.model.detunings_tau[0] == pytest.approx(2 * math.pi * 1e9)

    def test_sweep_axes(self):
        cfg = config_from_dict({"sweep": {"gamma_points": 5, "gamma_max_over_2pi": "2 MHz"}})
        assert len(cfg.sweep_gamma_axis) == 5
        assert cfg.sweep_gamma_axis[0] == 0.0
        assert cfg.sweep_gamma_axis[-1] == pytest.approx(2 * math.pi * 2e6)
        assert len(cfg.sweep_gamma_phi_axis) == 21


class TestUnitStrings:
    def test_length_and_energy_units(self):
        cfg = config_from_dict(
            {"device": {"tlr": {"length": "10 mm"}, "dot": {"tunneling": "20 ueV"}}}
        )
        assert cfg.tlr.length == pytest.approx(0.01)
        assert cfg.dot.tunneling == pytest.approx(20e-6 * 1.602176634e-19)

    def test_frequency_units(self):
        cfg = config_from_dict({"noise": {"gamma_over_2pi": "0.2 MHz"}})
        assert cfg.noise.gamma == pytest.approx(2 * math.pi * 0.2e6)

    def test_bad_unit_reports_path(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"device": {"tlr": {"length": "10 parsec"}}})
        assert err.value.path == "device.tlr.length"


class TestConfigValidation:
    def test_unknown_key_reports_path(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"model": {"bogus": 1}})
        assert err.value.path == "model.bogus"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"nonsense": {}})
        assert err.value.path == "nonsense"

    def test_wiring_ratio_limit(self):
        # C0 / LC = 5e-13 / 2.5e-12 = 0.2 breaks the perturbative expansion
        with pytest.raises(ConfigError) as err:
            config_from_dict({"device": {"tlr": {"wiring_capacitance": 5e-13}}})
        assert err.value.path == "device.tlr.wiring_capacitance"

    def test_nonpositive_detuning_ratio(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"model": {"tau_over_g": 0}})
        assert err.value.path == "model.tau_over_g"

    def test_non_integer_count_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"sweep": {"gamma_points": 2.5}})


def schema_leaves(schema=SCHEMA, path=""):
    """(dotted path, (default, kind)) for every leaf of the schema."""
    for key, node in schema.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(node, dict):
            yield from schema_leaves(node, sub)
        else:
            yield sub, node


def nested(path, value):
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


@pytest.mark.parametrize("bad", [[1.0], "not-a-number"])
@pytest.mark.parametrize("path", [path for path, _ in schema_leaves()])
def test_wrong_type_reports_exact_leaf_path(path, bad):
    with pytest.raises(ConfigError) as err:
        config_from_dict(nested(path, bad))
    assert err.value.path == path


# Valid draws for leaves whose default is zero; every other number is drawn
# within a factor of two of its default.
ZERO_DEFAULT_RANGES = {
    "device.tlr.wiring_capacitance": (0.0, 5e-14),  # C0/LC stays below 0.1
    "device.dot.bias": (-1e-23, 1e-23),
    "device.coupler.position": (0.0, 5e-3),  # on the shortest drawn line
}


# Integer leaves are drawn from 1..40, except n_qubits, which stops at MAX_QUBITS.
INT_RANGES = {"model.n_qubits": (1, MAX_QUBITS)}


def leaf_values(path, default, kind):
    if kind == "int":
        return st.integers(*INT_RANGES.get(path, (1, 40)))
    if isinstance(default, str):
        return st.just(default) | leaf_values(path, 1e8, kind)
    lo, hi = ZERO_DEFAULT_RANGES.get(path, (default / 2, default * 2))
    number = st.floats(lo, hi)
    units = sorted(_UNITS[kind].items())
    if not units:
        return number
    with_unit = st.tuples(number, st.sampled_from(units)).map(
        lambda pair: f"{pair[0] / pair[1][1]!r} {pair[1][0]}"
    )
    return number | with_unit


def overrides(schema=SCHEMA, path=""):
    optional = {}
    for key, node in schema.items():
        sub = f"{path}.{key}" if path else key
        optional[key] = overrides(node, sub) if isinstance(node, dict) else leaf_values(sub, *node)
    return st.fixed_dictionaries({}, optional=optional)


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(overrides())
    def test_dump_round_trip_property(self, raw):
        cfg = config_from_dict(raw)
        assert config_from_dict(cfg.normalized).normalized == cfg.normalized

    def test_dump_reparses_identically(self):
        cfg = config_from_dict(
            {
                "device": {"tlr": {"length": "10 mm"}, "dot": {"tunneling": "20 ueV"}},
                "noise": {"gamma_phi_over_2pi": "0.5 MHz"},
            }
        )
        again = config_from_dict(cfg.normalized)
        assert again.normalized == cfg.normalized
        assert again.model.lam == cfg.model.lam

    def test_file_round_trip(self, tmp_path):
        path = write_config(tmp_path, {"model": {"coupling_g": "100 MHz"}})
        cfg = parse_config(path)
        path2 = tmp_path / "normalized.json"
        path2.write_text(cfg.dump_json())
        assert parse_config(str(path2)).normalized == cfg.normalized


class TestCliDevice:
    def test_reports_gate_time(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": {"coupling_g": "100 MHz"}})
        assert main(["device", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "1.250000e-08 s" in out
        assert "omega0" in out
        assert "10 GHz" in out

    def test_writes_output_and_resolved_config(self, tmp_path, capsys):
        path = write_config(tmp_path, {})
        out_file = tmp_path / "device.txt"
        assert main(["device", "--config", path, "--out", str(out_file)]) == 0
        assert out_file.exists()
        resolved = json.loads((tmp_path / "device.txt.resolved.json").read_text())
        assert resolved == config_from_dict({}).normalized


class TestCliEpr:
    def test_noiseless_error_is_tiny(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "model": {"coupling_g": "100 MHz"},
                "noise": {"gamma_over_2pi": 0, "gamma_phi_over_2pi": 0},
            },
        )
        assert main(["epr", "--config", path]) == 0
        out = capsys.readouterr().out
        d = float(out.split("error probability D     = ")[1].split()[0])
        assert d < 1e-6

    def test_reference_point_comparison_printed(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": {"coupling_g": "100 MHz"}})
        assert main(["epr", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "reference" in out
        assert "below 1%" in out
        d = float(out.split("error probability D     = ")[1].split()[0])
        assert 0.01 < d < 0.05  # above the quoted 1%, below the loose bound

    def test_timeseries_csv(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "model": {"coupling_g": "100 MHz"},
                "noise": {"gamma_over_2pi": 0, "gamma_phi_over_2pi": 0},
            },
        )
        out_file = tmp_path / "epr.csv"
        assert main(["epr", "--config", path, "--out", str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "t,fidelity,trace,min_eig"
        assert len(lines) == 258  # 256 steps + initial sample + header
        last = lines[-1].split(",")
        assert float(last[1]) > 1 - 1e-6
        assert float(last[2]) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("ratio", [1e6, 1e9])
    def test_epr_trajectory_keeps_at_most_257_snapshots(self, tmp_path, ratio):
        # The default noise asks for 446,916 steps at tau/g = 1e6, 446,915,611 at 1e9.
        raw = {"model": {"tau_over_g": ratio}}
        cfg = config_from_dict(raw)
        grid = _epr_grid(cfg.model.lam, cfg.noise)
        assert grid.steps > 1000 * MIN_EPR_STEPS
        out = tmp_path / "out.csv"
        assert main(["epr", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 0
        times = [row.split(",")[0] for row in out.read_text().splitlines()[1:]]
        assert len(times) == MIN_EPR_STEPS + 1
        assert (times[0], times[-1]) == (f"{0.0:.10e}", f"{grid.t_end:.10e}")

    def test_trace_column_is_the_trace(self, tmp_path, monkeypatch):
        # A state whose trace is below 1 must read below 1 in the CSV.
        def shrunk(*args, **kwargs):
            report = epr_generation(*args, **kwargs)
            report.result.states[-1] = 0.9 * report.result.states[-1]
            return report

        monkeypatch.setattr(cli, "epr_generation", shrunk)
        out_file = tmp_path / "epr.csv"
        assert main(["epr", "--config", write_config(tmp_path, {}), "--out", str(out_file)]) == 0
        assert out_file.read_text().splitlines()[-1].split(",")[2] == "9.0000000000e-01"


class TestCliSweep:
    def small_sweep(self, tmp_path, name="run.json"):
        return write_config(
            tmp_path,
            {
                "model": {"coupling_g": "100 MHz"},
                "sweep": {
                    "gamma_points": 4,
                    "gamma_phi_points": 3,
                    "gamma_max_over_2pi": "1 MHz",
                    "gamma_phi_max_over_2pi": "1 MHz",
                },
            },
            name=name,
        )

    def test_csv_layout(self, tmp_path, capsys):
        path = self.small_sweep(tmp_path)
        out_file = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--out", str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "gamma_over_2pi_MHz,gamma_phi_over_2pi_MHz,error_D"
        assert len(lines) == 1 + 4 * 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert float(first[2]) < 1e-6
        assert float(lines[-1].split(",")[2]) > float(first[2])

    def test_byte_identical_across_thread_counts(self, tmp_path, capsys):
        path = self.small_sweep(tmp_path)
        out1, out4 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", path, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["sweep", "--config", path, "--out", str(out4), "--threads", "4"]) == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        path = self.small_sweep(tmp_path)
        code = main(["sweep", "--config", path, "--out", "/nonexistent-dir/sweep.csv"])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err


def per_row_sweep_csv(sweep):
    """The sweep CSV formatted one row at a time: the oracle of `cmd_sweep`."""
    rows = []
    for gamma, errors in zip(sweep.gamma_axis.tolist(), sweep.error_grid.tolist()):
        for gamma_phi, error in zip(sweep.gamma_phi_axis.tolist(), errors):
            rows.append(
                "%.10e,%.10e,%.10e" % (gamma / (2e6 * math.pi), gamma_phi / (2e6 * math.pi), error)
            )
    return "gamma_over_2pi_MHz,gamma_phi_over_2pi_MHz,error_D\n" + "\n".join(rows) + "\n"


def per_row_epr_csv(result):
    """The `epr --out` CSV formatted row by row: the oracle of `cmd_epr`."""
    columns = np.stack([result.times, protocols._epr_fidelity(result.states),
                        np.trace(result.states, axis1=1, axis2=2).real,
                        result.diagnostics["min_eig"]], axis=1)
    rows = ["t,fidelity,trace,min_eig\n"] + [
        f"{t:.10e},{fid:.10e},{trace:.10e},{min_eig:.10e}\n"
        for t, fid, trace, min_eig in columns.tolist()
    ]
    return "".join(rows)


# Signed zeros, subnormals, the smallest normal and 1 + 1e-10, then any float in range.
SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e-320, 2.2250738585072014e-308,
                                  1 + 1e-10, 1.0, 0.5])


def csv_floats(lo=None, hi=None):
    return (SPECIAL_FLOATS.filter(lambda x: (lo is None or x >= lo) and (hi is None or x <= hi))
            | st.floats(lo, hi, allow_nan=False, allow_infinity=False))


class TestCsvBytes:
    """The CSV writers format every value as the row-by-row writers did, byte for byte."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_sweep_csv(self, tmp_path_factory, data):
        axis = st.lists(csv_floats(), min_size=1, max_size=6).map(np.array)
        gamma_axis, gamma_phi_axis = data.draw(axis), data.draw(axis)
        # D within TRACE_TOL of [0, 1], as `SweepResult` accepts it, negative roundoff included
        errors = csv_floats(-TRACE_TOL, 1 + TRACE_TOL) | st.floats(-TRACE_TOL, 0.0)
        size = gamma_axis.size * gamma_phi_axis.size
        grid = np.array(data.draw(st.lists(errors, min_size=size, max_size=size)))
        sweep = protocols.SweepResult(gamma_axis, gamma_phi_axis,
                                      grid.reshape(gamma_axis.size, gamma_phi_axis.size))
        tmp = tmp_path_factory.mktemp("sweep")
        out = tmp / "sweep.csv"
        with mock.patch.object(cli, "decoherence_sweep", lambda *args: sweep):
            assert main(["sweep", "--config", write_config(tmp, {}), "--out", str(out)]) == 0
        assert out.read_bytes() == per_row_sweep_csv(sweep).encode()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_epr_csv(self, tmp_path_factory, data):
        count = data.draw(st.integers(1, 12))
        column = st.lists(csv_floats(), min_size=count, max_size=count).map(np.array)
        # Diagonal states with bounded entries, so that the trace and fidelity sums stay
        # finite; the fidelity column is (rho_01,01 + rho_10,10) / 2.
        diagonals = st.lists(csv_floats(-1e300, 1e300), min_size=4 * count, max_size=4 * count)
        states = np.zeros((count, 4, 4), dtype=complex)
        states[:, range(4), range(4)] = np.reshape(data.draw(diagonals), (count, 4))
        result = SimResult(data.draw(column), states,
                           {"trace_dev": np.zeros(count), "min_eig": data.draw(column)})
        report = protocols.EprReport(t0=1.0, fidelity=1.0, error_d=0.0, concurrence=1.0,
                                     result=result)
        tmp = tmp_path_factory.mktemp("epr")
        out = tmp / "epr.csv"
        with mock.patch.object(cli, "epr_generation", lambda *args, **kwargs: report):
            assert main(["epr", "--config", write_config(tmp, {}), "--out", str(out)]) == 0
        assert out.read_bytes() == per_row_epr_csv(result).encode()


class TestAtomicOutput:
    @pytest.mark.parametrize("failing", [0, 1])
    @pytest.mark.parametrize("command", ["device", "epr", "sweep", "validate"])
    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch, command, failing):
        # The disk fills up halfway through the output (0) or the resolved config (1).
        opened = []

        def filling_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            opened.append(path)
            if len(opened) == failing + 1:
                def write_half(text):
                    fh.buffer.write(text[: len(text) // 2].encode())
                    raise OSError(errno.ENOSPC, "No space left on device", path)
                fh.write = write_half
            return fh

        monkeypatch.setattr(cli, "open", filling_open, raising=False)
        path = write_config(tmp_path, {"model": {"coupling_g": "100 MHz"},
                                       "sweep": {"gamma_points": 2, "gamma_phi_points": 2}})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 4
        assert "No space left on device" in capsys.readouterr().err
        assert len(opened) == failing + 1
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_leftover_temporary_file_is_not_overwritten(self, tmp_path, capsys):
        path = write_config(tmp_path, {})
        leftover = tmp_path / "out.tmp"
        leftover.write_text("from a killed run\n")
        assert main(["device", "--config", path, "--out", str(tmp_path / "out")]) == 4
        assert "out.tmp" in capsys.readouterr().err
        assert leftover.read_text() == "from a killed run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tmp", "run.json"]

    @pytest.mark.parametrize("command", ["device", "epr", "sweep", "validate"])
    def test_a_failed_second_move_takes_back_the_first(self, tmp_path, capsys, command):
        # <out> is a directory, so moving the output onto it fails after
        # <out>.resolved.json is already in place.
        path = write_config(tmp_path, {"model": {"coupling_g": "100 MHz"},
                                       "sweep": {"gamma_points": 2, "gamma_phi_points": 2}})
        (tmp_path / "out").mkdir()
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 4
        assert "i/o error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.json"]
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command", ["device", "epr", "sweep", "validate"])
    def test_a_failed_write_keeps_an_older_output(self, tmp_path, capsys, command):
        # <out>.resolved.json is a directory, so its move fails; <out> is never replaced.
        path = write_config(tmp_path, {"model": {"coupling_g": "100 MHz"},
                                       "sweep": {"gamma_points": 2, "gamma_phi_points": 2}})
        older = tmp_path / "out"
        older.write_bytes(b"older results\r\n")
        (tmp_path / "out.resolved.json").mkdir()
        assert main([command, "--config", path, "--out", str(older)]) == 4
        assert "i/o error" in capsys.readouterr().err
        assert older.read_bytes() == b"older results\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "out.resolved.json",
                                                               "run.json"]


    @pytest.mark.parametrize("command", ["device", "epr", "sweep", "validate"])
    def test_a_failed_write_keeps_an_older_resolved_config(self, tmp_path, capsys, command):
        # <out> is a directory, so its move fails after <out>.resolved.json
        # is in place; the older resolved config, moved aside, comes back.
        path = write_config(tmp_path, {"model": {"coupling_g": "100 MHz"},
                                       "sweep": {"gamma_points": 2, "gamma_phi_points": 2}})
        (tmp_path / "out").mkdir()
        older = tmp_path / "out.resolved.json"
        older.write_bytes(b'{"older": true}\r\n')
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 4
        assert "i/o error" in capsys.readouterr().err
        assert older.read_bytes() == b'{"older": true}\r\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "out.resolved.json",
                                                               "run.json"]

    def test_a_second_write_replaces_both_outputs_and_leaves_nothing_aside(self, tmp_path):
        path = write_config(tmp_path, {})
        out = tmp_path / "out"
        out.write_text("older\n")
        (tmp_path / "out.resolved.json").write_text('{"older": true}\n')
        assert main(["device", "--config", path, "--out", str(out)]) == 0
        assert out.read_text().startswith("bare mode frequency")
        assert json.loads((tmp_path / "out.resolved.json").read_text()) != {"older": True}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "out.resolved.json",
                                                               "run.json"]

    def test_a_leftover_moved_aside_file_is_not_overwritten(self, tmp_path, capsys):
        path = write_config(tmp_path, {})
        for name in ("out", "out.old"):
            (tmp_path / name).write_text(f"{name} from a killed run\n")
        assert main(["device", "--config", path, "--out", str(tmp_path / "out")]) == 4
        assert "out.old" in capsys.readouterr().err
        for name in ("out", "out.old"):
            assert (tmp_path / name).read_text() == f"{name} from a killed run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "out.old", "run.json"]


class TestCliValidate:
    def test_dispersive_point_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": {"coupling_g": "100 MHz"}})
        assert main(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 2
        assert "[FAIL]" not in out

    def test_marginal_detuning_fails_named_check(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"model": {"coupling_g": "100 MHz", "tau_over_g": 5}}
        )
        assert main(["validate", "--config", path]) == 3
        captured = capsys.readouterr()
        assert "[FAIL] full_vs_effective_fidelity" in captured.out
        assert "full_vs_effective_fidelity" in captured.err


def test_one_parser_gives_each_argv_its_own_namespace(tmp_path, capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser  # built once per process
    epr = parser.parse_args(["epr", "--config", "a.json", "--out", "a.csv"])
    sweep = parser.parse_args(["sweep", "--config", "b.json"])
    assert vars(epr) == {"command": "epr", "config": "a.json", "out": "a.csv", "threads": None}
    assert vars(sweep) == {"command": "sweep", "config": "b.json", "out": None, "threads": None}
    # Through main: the second run's --out is its own, not the first's.
    path = write_config(tmp_path, {})
    assert main(["device", "--config", path, "--out", str(tmp_path / "a.txt")]) == 0
    assert main(["device", "--config", path]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "a.txt.resolved.json",
                                                           "run.json"]


class TestCliErrors:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["epr", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["device", "--config", str(tmp_path / "absent.json")]) == 2

    def test_config_error_path_in_message(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": {"bogus": 1}})
        assert main(["device", "--config", path]) == 2
        assert "model.bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, text",
        [
            ("noise.gamma_over_2pi", '"nan MHz"'),
            ("noise.gamma_over_2pi", '"inf"'),
            ("noise.gamma_phi_over_2pi", "NaN"),
            ("noise.gamma_phi_over_2pi", "Infinity"),
            ("model.tau_over_g", '"inf"'),
            ("model.tau_over_g", "-Infinity"),
            ("model.tau_over_g", "1" + "0" * 400),  # a JSON integer past any float
        ],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, key, text):
        section, leaf = key.split(".")
        path = tmp_path / "run.json"
        path.write_text(f'{{"{section}": {{"{leaf}": {text}}}}}')
        assert main(["epr", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        ('{"noise": {"gamma_over_2pi": true}}',
         "noise.gamma_over_2pi: expected a number or unit string, got a boolean"),
        ('{"noise": {"gamma_over_2pi": "abc MHz"}}',
         "noise.gamma_over_2pi: cannot parse number in 'abc MHz'"),
        ('{"model": 5}', "model: expected an object"),
    ])
    def test_value_of_the_wrong_kind_is_config_error(self, tmp_path, capsys, text, error):
        path = tmp_path / "run.json"
        path.write_text(text)
        assert main(["epr", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {error}\n"

    @pytest.mark.parametrize("command", ["epr", "sweep", "validate"])
    def test_qubit_count_mismatch_is_config_error(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {"model": {"n_qubits": 3}})
        assert main([command, "--config", path]) == 2
        assert "model.n_qubits" in capsys.readouterr().err

    def test_validate_below_dispersive_threshold_fails(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": {"tau_over_g": 2}})
        assert main(["validate", "--config", path]) == 3
        err = capsys.readouterr().err
        assert "tau/g = 2 is below the dispersive threshold 5" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["epr", "sweep"])
    def test_below_dispersive_threshold_fails(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {"model": {"tau_over_g": 2}})
        out = tmp_path / "out.csv"
        assert main([command, "--config", path, "--out", str(out)]) == 3
        assert "dispersive threshold" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]

    @pytest.mark.parametrize("command", ["epr", "sweep"])
    def test_a_ratio_at_the_threshold_runs(self, tmp_path, capsys, command):
        # tau = 5 g, at the threshold, though (5 g) / g rounds to 4.999999999999999 at this g.
        path = write_config(tmp_path, {"model": {"coupling_g": "42095669.24242398 Hz",
                                                 "tau_over_g": 5}})
        assert main([command, "--config", path, "--out", str(tmp_path / "out.csv")]) == 0
        assert "dispersive threshold" not in capsys.readouterr().err

    def test_a_step_count_past_2_to_the_63_runs(self, tmp_path, capsys):
        # t0 = 1.27e191 s: about 4.5e199 RK4 steps, which no int64 holds.  The
        # epr run's state is still |10><10| up to roundoff, so D reads 1.
        path = write_config(tmp_path, {"model": {"tau_over_g": 1e200}})
        out = tmp_path / "out.csv"
        assert main(["epr", "--config", path, "--out", str(out)]) == 0
        assert "error probability D     = 1.0000000000\n" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 1 + MIN_EPR_STEPS + 1
        # The sweep steps its noiseless corner as many times, past its trace tolerance.
        assert main(["sweep", "--config", path, "--out", str(out)]) == 3
        assert ("gamma/2pi = 0 MHz, gamma_phi/2pi = 0 MHz: |trace-1| = 3.46e-09"
                in capsys.readouterr().err)

    def test_sweep_past_its_roundoff_stops_at_the_trace_check(self, tmp_path, capsys):
        # The noiseless corner takes the step count of the noisiest point; at
        # this ratio its trace drifts past TRACE_TOL.
        path = write_config(tmp_path, {"model": {"tau_over_g": 3e7}})
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err
        assert "gamma/2pi = 0 MHz, gamma_phi/2pi = 0 MHz: |trace-1| = " in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]

    @pytest.mark.parametrize("command", ["device", "epr", "validate"])
    @pytest.mark.parametrize(
        "model",
        [{"coupling_g": "1e-300 Hz"}, {"tau_over_g": 1e300}, {"coupling_g": "1e200 GHz"},
         # lambda = 1.26e308 is finite, but 4 lambda overflows, so t0 = pi/(4 lambda) is 0.
         {"coupling_g": "1e153 Hz", "tau_over_g": 5e-155}],
        ids=["lambda-underflows", "lambda-underflows-by-ratio", "lambda-overflows",
             "gate-time-underflows"],
    )
    def test_lambda_out_of_range_is_config_error(self, tmp_path, capsys, command, model):
        path = write_config(tmp_path, {"model": model})
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert "lambda" in err
        assert "model.coupling_g" in err and "model.tau_over_g" in err

    @pytest.mark.parametrize("command", ["device", "epr", "sweep", "validate"])
    @pytest.mark.parametrize("model", [{"n_qubits": 10**9}, {"n_qubits": MAX_QUBITS + 1}])
    def test_space_dimension_bound_is_config_error(self, tmp_path, capsys, command, model):
        path = write_config(tmp_path, {"model": model})
        assert main([command, "--config", path]) == 2
        assert (f"model.n_qubits: {model['n_qubits']} qubits exceed MAX_QUBITS = {MAX_QUBITS}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["device", "epr", "sweep", "validate"])
    def test_photon_cutoff_is_unknown_key(self, tmp_path, capsys, command):
        # The one-excitation runs hold at most one photon, so no cutoff is read.
        path = write_config(tmp_path, {"model": {"photon_cutoff": 5}})
        assert main([command, "--config", path]) == 2
        assert "model.photon_cutoff: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["device", "epr", "sweep", "validate"])
    @pytest.mark.parametrize("key", ["device.dot.triplet_energy", "device.dot.singlet_energy",
                                     "model.dispersive_threshold"])
    def test_removed_key_is_unknown_key(self, tmp_path, capsys, command, key):
        # No result read the dot level energies; the threshold is DISPERSIVE_THRESHOLD.
        path = write_config(tmp_path, nested(key, 0))
        assert main([command, "--config", path]) == 2
        assert f"{key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [b"\xff\xfe{", b'{"model": {"n_qubits": ' + b"1" * 5000 + b"}}", b"[" * 100_000],
        ids=["not-utf8", "integer-too-long", "nested-too-deep"],
    )
    def test_unreadable_json_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "run.json"
        path.write_bytes(text)
        assert main(["device", "--config", str(path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["device", "epr", "validate"])
    @pytest.mark.parametrize(
        "tlr",
        [{"length": 1e-320}, {"inductance_per_length": 1e-320},
         {"capacitance_per_length": 1e-320}, {"length": 1e-200, "capacitance_per_length": 1e-200}],
    )
    def test_underflowing_resonator_is_config_error(self, tmp_path, capsys, command, tlr):
        # Each factor is positive, but L C or L sqrt(F C) underflows to zero.
        path = write_config(tmp_path, {"device": {"tlr": tlr}})
        assert main([command, "--config", path]) == 2
        assert "device.tlr: " in capsys.readouterr().err

    def test_eigensolver_failure_is_diagnostic(self, tmp_path, capsys, monkeypatch):
        # No known config makes eigh fail to converge, so the failure is injected.
        def not_converging(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", not_converging)
        path = write_config(tmp_path, {})
        assert main(["validate", "--config", path]) == 3
        assert capsys.readouterr().err == (
            "numerical diagnostics failed: Eigenvalues did not converge\n"
        )

    def test_error_probability_out_of_range_is_diagnostic(self, tmp_path, capsys, monkeypatch):
        # No known config gives a D more than TRACE_TOL outside [0, 1], so one is injected.
        sweep_errors = protocols._sweep_errors

        def negative(*args, **kwargs):
            return np.full_like(sweep_errors(*args, **kwargs), -1e-6)

        monkeypatch.setattr(protocols, "_sweep_errors", negative)
        path = write_config(tmp_path, {"sweep": {"gamma_points": 2, "gamma_phi_points": 2}})
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical diagnostics failed: error probabilities must lie in [0, 1] within 1e-09; "
            "the grid spans [-1e-06, -1e-06]\n"
        )
        assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]

    def test_roundoff_negative_error_probability_is_written(self, tmp_path):
        # 45 MHz maxima take 575 RK4 steps, at which the noiseless corner's
        # D = 1 - F reads -2.2e-16: roundoff within TRACE_TOL, not a failure.
        path = write_config(tmp_path, {"sweep": {
            "gamma_points": 2, "gamma_phi_points": 2,
            "gamma_max_over_2pi": "45 MHz", "gamma_phi_max_over_2pi": "45 MHz",
        }})
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 4
        assert rows[0].startswith("0.0000000000e+00,0.0000000000e+00,-")

    def test_overflowing_frame_phase_is_diagnostic(self, tmp_path, capsys):
        for model in (
            # tau ~ 6e60 rad/s times t0 ~ 1e259 s overflows, so the states would be NaN.
            {"coupling_g": "1e-100 Hz", "tau_over_g": 1e160},
            # A phase energy of 1.2e209 rad/s times t0 = 1.3e191 s overflows too.
            {"tau_over_g": 1e200},
        ):
            path = write_config(tmp_path, {"model": model})
            assert main(["validate", "--config", path]) == 3
            assert "frame trajectory is not finite" in capsys.readouterr().err

    def test_validate_past_the_precision_bound_is_diagnostic(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": {"tau_over_g": 1e6}})
        assert main(["validate", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tau/g = 1e+06 is past the precision bound" in captured.err
        assert f"exceeds {MAX_FRAME_PHASE:.3g} rad (tau/g = 3568.25)" in captured.err

    @pytest.mark.parametrize("key", ["noise.gamma_over_2pi", "noise.gamma_phi_over_2pi",
                                     "sweep.gamma_max_over_2pi",
                                     "sweep.gamma_phi_max_over_2pi"])
    def test_angular_rate_overflow_is_config_error(self, tmp_path, capsys, key):
        path = write_config(tmp_path, nested(key, 1e308))
        assert main(["epr", "--config", path]) == 2
        assert f"{key}: 2 pi x 1e+308 overflows" in capsys.readouterr().err

    # The sweep's count is set by its largest rates, 1 MHz each.
    @pytest.mark.parametrize("command, rate", [("epr", "8.8e+06"), ("sweep", "2.51e+07")])
    def test_step_count_past_float_range_is_diagnostic(self, tmp_path, capsys, command, rate):
        # lambda = g/1e301 with g/2pi = 1 Hz: 40 t0 x rate overflows to inf.
        path = write_config(tmp_path, {"model": {"coupling_g": "1 Hz", "tau_over_g": 1e301}})
        assert main([command, "--config", path]) == 3
        assert capsys.readouterr().err == (
            "numerical diagnostics failed: the RK4 step count 40 t0 x 2(gamma + gamma_phi) = "
            f"40 x 1.25e+300 s x {rate} rad/s overflows a float\n"
        )


class TestSpaceDimensionBound:
    @pytest.mark.parametrize("n_qubits, accepted", [(9, True), (10, False), (10**30, False)])
    def test_bound_is_inclusive(self, n_qubits, accepted):
        raw = {"model": {"n_qubits": n_qubits}}
        assert accepted == (n_qubits <= MAX_QUBITS)
        if accepted:
            assert config_from_dict(raw).model.n_qubits == n_qubits
        else:
            with pytest.raises(ConfigError) as err:
                config_from_dict(raw)
            assert err.value.path == "model.n_qubits"


class TestSweepGridBound:
    @pytest.mark.parametrize(
        "points, accepted",
        [((197, 198), True), ((198, 198), False), ((10**12, 1), False)],
    )
    def test_grid_is_bounded_before_allocation(self, points, accepted):
        raw = {"sweep": {"gamma_points": points[0], "gamma_phi_points": points[1]}}
        assert accepted == (points[0] * points[1] <= MAX_SWEEP_POINTS)
        if accepted:
            assert config_from_dict(raw).sweep_gamma_axis.size == points[0]
        else:
            with pytest.raises(ConfigError) as err:
                config_from_dict(raw)
            assert err.value.path == "sweep"
            assert "sweep.gamma_points" in err.value.reason
            assert "sweep.gamma_phi_points" in err.value.reason


def any_float():
    return st.floats(allow_nan=False, allow_infinity=False)


def any_rate():
    return any_float() | any_float().map(lambda x: f"{x!r} GHz")


def power_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# Every value a model leaf accepts, extremes included.  Positive couplings (g^2
# finite) and ratios are drawn as often as any float, so that most runs get past
# the config to a lambda.
MODEL_OVERRIDES = st.fixed_dictionaries({}, optional={
    "n_qubits": st.integers(-2, 13) | st.integers(13, 10**30),
    "coupling_g": st.just("from-device") | power_of_ten(-150, 150) | any_rate(),
    "tau_over_g": power_of_ten(0, 8) | any_float(),
})


def any_count():
    return st.integers(-2, 300) | st.integers(300, 10**30)


# Every value a noise or sweep leaf accepts, extremes included.
NOISE_SWEEP_OVERRIDES = st.fixed_dictionaries({}, optional={
    "noise": st.fixed_dictionaries({}, optional={
        "gamma_over_2pi": any_rate(),
        "gamma_phi_over_2pi": any_rate(),
    }),
    "sweep": st.fixed_dictionaries({}, optional={
        "gamma_max_over_2pi": any_rate(),
        "gamma_phi_max_over_2pi": any_rate(),
        "gamma_points": any_count(),
        "gamma_phi_points": any_count(),
    }),
})


def assert_exits_cleanly(tmp_path_factory, command, raw, *options):
    """``command`` on ``raw`` ends in a documented exit code, with no RuntimeWarning."""
    path = write_config(tmp_path_factory.mktemp("cfg"), raw)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", path, *options])
    assert code in (0, 2, 3, 4)
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []


@settings(max_examples=150, deadline=None)
@given(raw=NOISE_SWEEP_OVERRIDES)
def test_every_noise_and_sweep_override_exits_cleanly(tmp_path_factory, raw):
    assert_exits_cleanly(tmp_path_factory, "device", raw)


def sizing_noise(cfg, command):
    """The noise that sets the step count of ``command``: the worst grid point's for sweep."""
    if command == "epr":
        return cfg.noise
    return NoiseSpec(max(cfg.sweep_gamma_axis), max(cfg.sweep_gamma_phi_axis))


def assert_runs_cleanly(tmp_path_factory, command, raw):
    """``command --out`` on ``raw`` exits cleanly; a sweep runs 3 x 3 unless ``raw`` sets its grid."""
    if command == "sweep":
        raw = {**raw, "sweep": {"gamma_points": 3, "gamma_phi_points": 3, **raw.get("sweep", {})}}
    out = tmp_path_factory.mktemp("out") / "out.csv"
    assert_exits_cleanly(tmp_path_factory, command, raw, "--out", str(out))


@pytest.mark.parametrize("command", ["epr", "sweep"])
@settings(max_examples=150, deadline=None)
@given(raw=NOISE_SWEEP_OVERRIDES)
def test_every_noise_and_sweep_override_runs_cleanly(tmp_path_factory, command, raw):
    assert_runs_cleanly(tmp_path_factory, command, raw)


@pytest.mark.parametrize("command", ["device", "validate", "epr", "sweep"])
@settings(max_examples=150, deadline=None)
@given(model=MODEL_OVERRIDES, noiseless=st.booleans())
# The largest lambda at tau/g = DISPERSIVE_THRESHOLD: g^2 is still finite.
@example(model={"coupling_g": "2.1e153 Hz", "tau_over_g": 5}, noiseless=True)
def test_every_model_override_exits_with_a_documented_code(tmp_path_factory, command, model,
                                                           noiseless):
    raw = {"model": model}
    if command in cli._TWO_QUBIT_COMMANDS:
        # They refuse every n_qubits but 2 (test_qubit_count_mismatch_is_config_error),
        # so a drawn n_qubits would mostly test that refusal, not the lambda range.
        raw["model"] = {**model, "n_qubits": 2}
    if noiseless:  # MIN_EPR_STEPS at every lambda, where noise asks for up to 1e308 steps
        raw["noise"] = {"gamma_over_2pi": 0, "gamma_phi_over_2pi": 0}
    assert_runs_cleanly(tmp_path_factory, command, raw)


def any_accepted_rate():
    return st.just(0) | power_of_ten(-300, 300)


# lambda = g^2/tau over the whole range config_from_dict accepts and beyond
# (it does not check tau/g against the dispersive threshold, so tau/g goes
# below 1), and rates from 0 to past a step count that overflows a float.
LAMBDA_AND_RATES = st.fixed_dictionaries({
    "model": st.fixed_dictionaries({
        "coupling_g": power_of_ten(-165, 160).map(lambda g: f"{g!r} Hz"),
        "tau_over_g": power_of_ten(-320, 308),
    }),
    "noise": st.fixed_dictionaries({
        "gamma_over_2pi": any_accepted_rate(),
        "gamma_phi_over_2pi": any_accepted_rate(),
    }),
    "sweep": st.fixed_dictionaries({
        "gamma_max_over_2pi": any_accepted_rate(),
        "gamma_phi_max_over_2pi": any_accepted_rate(),
        "gamma_points": st.integers(1, 30),
        "gamma_phi_points": st.integers(1, 30),
    }),
})


def at_lambda(coupling_g, tau_over_g):
    """A noiseless config at this coupling and ratio, so every run takes MIN_EPR_STEPS."""
    return {"model": {"coupling_g": coupling_g, "tau_over_g": tau_over_g},
            "noise": {"gamma_over_2pi": 0, "gamma_phi_over_2pi": 0},
            "sweep": {"gamma_max_over_2pi": 0, "gamma_phi_max_over_2pi": 0}}


@settings(max_examples=300, deadline=None)
@given(raw=LAMBDA_AND_RATES)
@example(raw=at_lambda("1e153 Hz", 1.3993731196391059e-154))  # largest lambda, 4.49e307
@example(raw=at_lambda("1e-150 Hz", 6.283185307179586e158))  # lambda = 1e-308
def test_no_accepted_run_reaches_the_step_size_guard(raw):
    # With _epr_grid's step count, dt x (||h20||_2 + total rate) is
    # (pi/2 + t0 x total rate) / steps <= 0.031 < STABILITY_LIMIT, for an epr
    # run and for a sweep's worst point alike.  So epr never reaches the
    # ValueError of _snapshot_interval, which the CLI does not map to an exit
    # code, and the sweep, which steps every point at its worst point's
    # count, needs no guard of its own.
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        assume(False)
    lam = cfg.model.lam
    h_norm = np.linalg.norm(h_reduced_two_qubit(lam), 2)
    for noise in (sizing_noise(cfg, "epr"), sizing_noise(cfg, "sweep")):
        try:
            dt = _epr_grid(lam, noise).dt
        except DiagnosticError as exc:  # refused with exit 3 before any step
            assert "overflows a float" in str(exc)
            continue
        assert dt * (h_norm + 2 * (noise.gamma + noise.gamma_phi)) < STABILITY_LIMIT


def any_quantity(kind):
    """Any finite float, subnormals included, bare or with a unit ``kind`` accepts."""
    units = list(_UNITS[kind])
    if not units:
        return any_float()
    with_unit = st.tuples(any_float(), st.sampled_from(units)).map(lambda p: f"{p[0]!r} {p[1]}")
    return any_float() | with_unit


# Every value a device leaf accepts, extremes included.
DEVICE_OVERRIDES = st.fixed_dictionaries({}, optional={
    group: st.fixed_dictionaries({}, optional={
        key: any_quantity(kind) for key, (_, kind) in leaves.items()
    })
    for group, leaves in SCHEMA["device"].items()
})


@pytest.mark.parametrize("command", ["device", "validate"])
@settings(max_examples=150, deadline=None)
@given(device=DEVICE_OVERRIDES)
def test_every_device_override_exits_cleanly(tmp_path_factory, command, device):
    assert_exits_cleanly(tmp_path_factory, command, {"device": device})


# Each leaf is changed from this base, one at a time.  Its bias is not zero,
# since at zero bias theta = pi/4 whatever the tunneling.
LEAF_BASE = {"device": {"dot": {"bias": "10 ueV"}},
             "sweep": {"gamma_points": 3, "gamma_phi_points": 3}}
LEAF_CHANGES = {
    "device.tlr.length": "11 mm",
    "device.tlr.inductance_per_length": "0.44 uH/m",
    "device.tlr.capacitance_per_length": "275 pF/m",
    "device.tlr.wiring_capacitance": "0.1 pF",
    "device.tlr.quality_factor": 2e5,
    "device.dot.bias": "11 ueV",
    "device.dot.tunneling": "22 ueV",
    "device.dot.total_capacitance": "1.1 fF",
    "device.coupler.coupling_capacitance": "0.3 fF",
    "device.coupler.position": "1 mm",
    "model.n_qubits": 3,
    "model.coupling_g": "100 MHz",
    "model.tau_over_g": 20,
    "noise.gamma_over_2pi": "0.3 MHz",
    "noise.gamma_phi_over_2pi": "0.6 MHz",
    "sweep.gamma_max_over_2pi": "2 MHz",
    "sweep.gamma_phi_max_over_2pi": "2 MHz",
    "sweep.gamma_points": 2,
    "sweep.gamma_phi_points": 2,
}


def command_outputs(tmp_path, capsys, raw):
    """Exit code, stdout, stderr and ``--out`` file of every command on ``raw``."""
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    outputs = {}
    for command in ("device", "epr", "sweep", "validate"):
        code = main([command, "--config", path, "--out", str(out)])
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        # It echoes the config back, so it would show any leaf, read or not.
        (tmp_path / "out.resolved.json").unlink(missing_ok=True)
        outputs[command] = (code, *capsys.readouterr(), written)
    return outputs


def test_every_schema_leaf_changes_an_output(tmp_path, capsys):
    assert set(LEAF_CHANGES) == {path for path, _ in schema_leaves()}
    base = command_outputs(tmp_path, capsys, LEAF_BASE)
    unread = []
    for path, value in LEAF_CHANGES.items():
        raw = json.loads(json.dumps(LEAF_BASE))
        *groups, leaf = path.split(".")
        node = raw
        for group in groups:
            node = node.setdefault(group, {})
        node[leaf] = value
        if command_outputs(tmp_path, capsys, raw) == base:
            unread.append(path)
    assert unread == []
