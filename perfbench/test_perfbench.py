"""Tests of the benchmark itself: inputs, oracles, span arithmetic, counts.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from dataclasses import replace

import pytest

import hostspeed
import oracles
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

import dotbus  # noqa: E402
import dotbus.cli  # noqa: E402
import dotbus.config  # noqa: E402


@pytest.fixture
def ops(tmp_path):
    return workloads.Ops(dotbus, tmp_path, threads=1)


def first_inputs(workload, seed, n=5):
    stream = workloads.inputs(workload, seed)
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_between_seeds(workload):
    a = first_inputs(workload, 7)
    assert a == first_inputs(workload, 7)
    assert a != first_inputs(workload, 8)
    assert len({json.dumps(inp.config) for inp in a}) == len(a)


def test_input_ranges():
    for inp in first_inputs("bus-check", 3, 50):
        assert 5.0 <= inp.config["model"]["tau_over_g"] <= 100.0
    for inp in first_inputs("sweep", 3, 50):
        assert 10.0 <= inp.config["model"]["tau_over_g"] <= 100.0


# -- oracles accept the program's output and reject a perturbed copy ---------

def small_sweep(ops):
    inp = workloads.Input(
        {"sweep": {"gamma_points": 4, "gamma_phi_points": 3,
                   "gamma_max_over_2pi": "2 MHz", "gamma_phi_max_over_2pi": "2 MHz"},
         "model": {"tau_over_g": 100}},
        {"points": [(1, 1), (3, 0)]},
    )
    ops.write_config(inp.config)
    return inp, ops.sweep(inp)


def perturb_csv(path, row, col, delta):
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = "%.10e" % (float(fields[col]) + delta)
    lines[row + 1] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_sweep_oracle(ops):
    inp, result = small_sweep(ops)
    assert ops.check_sweep(inp, result) == []
    perturb_csv(result[1], row=4, col=2, delta=1e-8)  # grid point (1, 1)
    assert any("D[1,1]" in e for e in ops.check_sweep(inp, result))


def test_sweep_oracle_requires_strict_rise(ops):
    inp, result = small_sweep(ops)
    perturb_csv(result[1], row=1, col=2, delta=1.0)
    assert any("rise strictly" in e for e in ops.check_sweep(inp, result))


def test_epr_oracle(ops):
    inp = first_inputs("epr-trace", 1, 1)[0]
    ops.write_config(inp.config)
    code, out, stdout = ops.epr(inp)
    assert ops.check_epr(inp, (code, out, stdout)) == []
    bad_stdout = stdout.replace("error probability D     = 0.", "error probability D     = 1.")
    assert ops.check_epr(inp, (code, out, bad_stdout))
    perturb_csv(out, row=inp.check["rows"][0], col=1, delta=1e-8)
    assert any("fidelity at row" in e for e in ops.check_epr(inp, (code, out, stdout)))


def test_epr_oracle_counts_rows_and_health_columns(ops):
    inp = first_inputs("epr-trace", 2, 1)[0]
    ops.write_config(inp.config)
    code, out, stdout = ops.epr(inp)
    perturb_csv(out, row=10, col=3, delta=-1e-6)
    assert any("min_eig" in e for e in ops.check_epr(inp, (code, out, stdout)))
    with open(out) as fh:
        lines = fh.readlines()
    with open(out, "w") as fh:
        fh.writelines(lines[:-1])
    assert any("rows" in e for e in ops.check_epr(inp, (code, out, stdout)))


def test_bus_oracle(ops):
    inp = first_inputs("bus-check", 1, 1)[0]
    ops.write_config(inp.config)
    code, stdout, reports = ops.bus(inp)
    assert ops.check_bus(inp, (code, stdout, reports)) == []

    moved = list(reports)
    moved[0] = replace(reports[0],
                       spectator_final_deviation=reports[0].spectator_final_deviation + 1e-9)
    assert any("spectator" in e for e in ops.check_bus(inp, (code, stdout, moved)))
    moved[0] = replace(reports[0], active_pair_fidelity=reports[0].active_pair_fidelity - 1e-9)
    assert any("active-pair" in e for e in ops.check_bus(inp, (code, stdout, moved)))
    assert ops.check_bus(inp, (1, stdout, reports)) == ["validate exited 1"]
    assert ops.check_bus(inp, (3 - code, stdout, reports))


def test_validate_oracle_fidelity_line():
    g, tau = 2 * math.pi * 50e6, 2 * math.pi * 50e6 * 8.0
    ref = oracles.validate_reference_fidelity(g, tau)
    verdict = "PASS" if ref >= 0.95 else "FAIL"
    code = 0 if verdict == "PASS" else 3
    line = f"[{verdict}] full_vs_effective_fidelity: {ref:.8f} (threshold >= 0.95)\n"
    assert oracles.check_validate(code, line, g, tau) == []
    off = f"[{verdict}] full_vs_effective_fidelity: {ref + 1e-7:.8f} (threshold >= 0.95)\n"
    assert oracles.check_validate(code, off, g, tau)


# -- self-time arithmetic ----------------------------------------------------

def span(span_id, name, thread, depth, start, end, parent=None):
    return (span_id, name, 0, thread, parent, depth, start, end)


def test_self_times_nested():
    out = spans.self_times([
        span(0, "root", 1, 0, 0.0, 10.0),
        span(1, "a", 1, 1, 1.0, 6.0, 0),
        span(2, "b", 1, 2, 2.0, 4.0, 1),
        span(3, "c", 1, 1, 7.0, 9.0, 0),
        span(4, "empty", 1, 1, 9.5, 9.5, 0),
    ])
    assert out == pytest.approx({0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0, 4: 0.0})
    assert sum(out.values()) == pytest.approx(10.0)


def test_self_times_split_overlapping_pool_threads():
    # The main thread waits in "sweep" while two pool threads run spans that
    # are attached to the op's root.
    out = spans.self_times([
        span(0, "root", 1, 0, 0.0, 10.0),
        span(1, "sweep", 1, 1, 1.0, 9.0, 0),
        span(2, "x", 2, 1, 2.0, 6.0, 0),
        span(3, "x.child", 2, 2, 4.0, 5.0, 2),
        span(4, "y", 3, 1, 3.0, 8.0, 0),
    ])
    # [2,3] is split 2 ways, [3,6] 3 ways and [6,8] 2 ways.
    assert out[0] == pytest.approx(2.0)
    assert out[1] == pytest.approx(1.0 + 0.5 + 1.0 + 1.0 + 1.0)
    assert out[2] == pytest.approx(0.5 + 2.0 / 3.0)
    assert out[3] == pytest.approx(1.0 / 3.0)
    assert out[4] == pytest.approx(1.0 + 1.0)
    assert sum(out.values()) == pytest.approx(10.0)


def test_tracer_restores_every_binding():
    before = {name: dict(vars(mod)) for name, mod in
              [("pkg", dotbus)] + [(m, getattr(dotbus, m)) for m in spans.TRACED_MODULES]}
    tracer = spans.Tracer(dotbus)
    with tracer.installed():
        assert dotbus.cli.parse_config is not before["cli"]["parse_config"]
        assert dotbus.dynamics.np is not before["dynamics"]["np"]
    after = {name: dict(vars(mod)) for name, mod in
             [("pkg", dotbus)] + [(m, getattr(dotbus, m)) for m in spans.TRACED_MODULES]}
    for name in before:
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


# -- host-speed normalization ------------------------------------------------

def test_gauge_scale_takes_wall_time_to_nominal_speed():
    gauge = hostspeed.Gauge("small")
    nominal = hostspeed.NOMINAL_S["small"]
    assert gauge.scale(nominal, nominal) == pytest.approx(1.0)
    # A host running at half speed doubles both the kernel and the op.
    assert 2.0 * gauge.scale(2 * nominal, 2 * nominal) == pytest.approx(1.0)
    assert gauge.scale(nominal, 3 * nominal) == pytest.approx(0.5)
    assert len(gauge.readings) == 0
    reading = gauge.read()
    assert reading > 0 and gauge.readings == [reading]


def test_run_op_records_wall_and_normalized_time(tmp_path):
    runner = run.Runner(dotbus, "epr-trace", 3, tmp_path)
    scale = runner.run_op(next(runner.inputs), 0)
    assert runner.failures == []
    assert len(runner.gauge.readings) == 2
    assert runner.normalized == [pytest.approx(runner.durations[0] * scale)]


# -- exact counts repeat ----------------------------------------------------

def traced_metrics(tmp_path, workload, seed):
    runner = run.Runner(dotbus, workload, seed, tmp_path)
    metrics, _, errors, _ = run.traced_run(runner, dotbus, seconds=0.0)
    assert errors == [] and runner.failures == []
    return metrics


def test_counts_identical_between_two_runs(tmp_path):
    a = traced_metrics(tmp_path, "epr-trace", 5)
    b = traced_metrics(tmp_path, "epr-trace", 5)
    exact = list(run.COUNTS) + [f"{name}.calls" for name in run.SPANS]
    assert {k: a[k] for k in exact} == {k: b[k] for k in exact}
    n = workloads.WORKLOADS["epr-trace"].count_ops
    assert a["dynamics.rk4_steps"] == 256 * n
    assert a["dynamics.snapshots"] == 257 * n
    assert a["dynamics.rk4_flops_computed"] == 256 * 4 * 8 * 16**2 * n
    assert a["protocols.epr_generation.calls"] == n


def test_bus_op_counts_and_layer_shares(ops):
    inp = first_inputs("bus-check", 5, 1)[0]
    ops.write_config(inp.config)
    tracer = spans.Tracer(dotbus)
    with tracer.installed(), tracer.op(0):
        ops.bus(inp)
    m, seconds, errors = run.layer_metrics(tracer.spans, tracer.counts, {0: 1.0}, 1)
    assert errors == []
    assert "dynamics.integrate_lindblad" not in seconds
    frame = seconds["hamiltonians.static_frame_hamiltonian"]
    assert frame["busy_s"] == m["hamiltonians.static_frame_hamiltonian.busy_s"]
    assert frame["busy_s"] == pytest.approx(
        m["hamiltonians.static_frame_hamiltonian.busy_frac"] * m["trace.op_wall_s"]
    )
    slow, _, _ = run.layer_metrics(tracer.spans, tracer.counts, {0: 0.5}, 1)
    for name in run.SPANS:
        assert slow[f"{name}.self_s"] == pytest.approx(0.5 * m[f"{name}.self_s"])
        assert slow[f"{name}.self_frac"] == m[f"{name}.self_frac"]
    assert m["hamiltonians.frame_dim_max"] == 2**7 * 6
    assert m["protocols.selective_coupling_check.calls"] == len(workloads.BUS_QUBITS)
    assert m["layer.dynamics.self_frac"] == 0.0
    assert sum(m[f"layer.{layer}.self_frac"] for layer in run.LAYERS) == pytest.approx(1.0)


def test_benchmark_json_matches_the_runner():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
