"""dotbus benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root (or anywhere: the root is this file's parent
directory).  dotbus is imported from ``src/`` of that root.  Ops run one
after another until ``--seconds`` have passed since the first; every op
is checked against an independent oracle outside its timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` interleaves
untraced and traced ops on the same inputs and prints per-layer metrics
from the traced ones.  Op times are rescaled to a nominal host speed by
the reference kernels of ``hostspeed.py``, read before and after each op.
Scratch files, the run record and the span dump go to
``.bench_build/perfbench/`` under the root.  The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # Run on one CPU, pinned before numpy loads so that OpenBLAS starts one
    # thread.  The op and the hostspeed gauge then share that CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse
import gzip
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy
import scipy

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21

# Spans reported one by one; every other span is summed into its module.
SPANS = (
    "cli.main",
    "config.parse_config",
    "config.config_from_dict",
    "protocols.decoherence_sweep",
    "protocols.epr_generation",
    "protocols.selective_coupling_check",
    "protocols.dispersive_validity",
    "dynamics.integrate_lindblad",
    "dynamics.build_liouvillian",
    "dynamics.diagnostics",
    "hamiltonians.static_frame_hamiltonian",
    "hamiltonians.h_effective",
    "algebra.expm_propagator",
    "algebra.partial_trace",
    "algebra.fidelity",
    "algebra.concurrence",
)
LAYERS = ("bench", "cli", "config", "protocols", "dynamics", "hamiltonians", "algebra")
COUNTS = (
    "dynamics.rk4_steps",
    "dynamics.snapshots",
    "dynamics.rk4_flops_computed",
    "hamiltonians.frame_dim_max",
    "cli.validate_exit3",
)
END_TO_END = {
    "setup_s": "s",
    "op_median_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.busy_s"] = "s"
        units[f"{span}.self_s"] = "s"
        units[f"{span}.busy_frac"] = "frac"
        units[f"{span}.self_frac"] = "frac"
    for layer in LAYERS:
        units[f"layer.{layer}.self_frac"] = "frac"
    for count in COUNTS:
        units[count] = "count"
    units["trace.op_wall_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    units["trace.op_median_s"] = "s"
    units["trace.untraced_op_median_s"] = "s"
    units["host.gauge_s"] = "s"
    return units


def usable_cores() -> int:
    return min(len(os.sched_getaffinity(0)), os.cpu_count() or 1)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import dotbus
from dotbus.config import parse_config
parse_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


def measure_setup(config_path: str) -> tuple[list[float], list[float]]:
    """Time `import dotbus` plus the first config parse, each in a fresh process.

    Returns the wall times and the same times rescaled to nominal host speed
    by the ``small`` kernel read around each process.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    gauge = hostspeed.Gauge("small", reps=2)
    times, normalized = [], []
    before = gauge.read()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, config_path],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=60, check=True)
        after = gauge.read()
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        normalized.append(times[-1] * gauge.scale(before, after))
        before = after
    return times, normalized


class Runner:
    def __init__(self, dotbus_pkg, workload: str, seed: int, workdir: Path):
        self.spec = workloads.WORKLOADS[workload]
        self.ops = workloads.Ops(dotbus_pkg, workdir, usable_cores())
        self.inputs = workloads.inputs(workload, seed)
        self.gauge = hostspeed.Gauge(self.spec.gauge, self.spec.gauge_reps)
        self.durations: list[float] = []
        self.normalized: list[float] = []
        self.failures: list[dict] = []
        self.attempted = 0

    def run_op(self, inp, op_id: int, tracer=None) -> float:
        """Run and time one op, then check it.

        Records its wall time and that time rescaled to nominal host speed,
        by gauge readings just before and after the op.  Returns the factor
        of that rescaling.
        """
        run = getattr(self.ops, self.spec.run)
        check = getattr(self.ops, "check_" + self.spec.run)
        self.ops.write_config(inp.config)
        self.attempted += 1
        errors = []
        before = self.gauge.read()
        start = time.perf_counter()
        try:
            if tracer is None:
                result = run(inp)
            else:
                with tracer.installed(), tracer.op(op_id):
                    result = run(inp)
        except Exception:
            result = None
            errors.append(traceback.format_exc())
        elapsed = time.perf_counter() - start
        scale = self.gauge.scale(before, self.gauge.read())
        self.durations.append(elapsed)
        self.normalized.append(elapsed * scale)
        if result is not None:
            try:
                errors += check(inp, result)
            except Exception:
                errors.append(traceback.format_exc())
        if errors:
            self.failures.append({"op": op_id, "config": inp.config, "errors": errors})
        return scale

    def warm_up(self) -> None:
        """One small unchecked, untimed op so that lazy set-up is not timed."""
        inp = next(self.inputs)
        config = dict(inp.config)
        for section, values in self.spec.warm_up.items():
            config[section] = {**config.get(section, {}), **values}
        self.ops.write_config(config)
        getattr(self.ops, self.spec.run)(inp)


def untraced_run(runner: Runner, seconds: float) -> dict:
    op_id = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        runner.run_op(next(runner.inputs), op_id)
        op_id += 1
    d = runner.normalized
    return {
        "op_median_s": statistics.median(d),
        "ops_per_s": len(d) / sum(d),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(span_list, counts, scales, count_ops) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from the spans of the traced ops, the seconds per
    traced op of every span called, and any arithmetic errors.

    ``scales`` maps each traced op to the factor that rescales its times to
    nominal host speed.  Seconds are rescaled; shares and counts are not.
    """
    traced_ops = list(scales)
    by_op = defaultdict(list)
    for span in span_list:
        by_op[span[2]].append(span)
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    busy_s = defaultdict(float)
    own_s = defaultdict(float)
    layer_own = defaultdict(float)
    wall = 0.0
    errors = []
    for op_id in traced_ops:
        op_spans = by_op[op_id]
        selfs = spans.self_times(op_spans)
        root = next(s for s in op_spans if s[1] == spans.ROOT)
        op_wall = root[7] - root[6]
        wall += op_wall
        if abs(sum(selfs.values()) - op_wall) > 1e-9 * op_wall:
            errors.append(f"op {op_id}: self times sum to {sum(selfs.values())!r}, "
                          f"wall {op_wall!r}")
        for span in op_spans:
            name = span[1]
            busy[name] += span[7] - span[6]
            own[name] += selfs[span[0]]
            busy_s[name] += (span[7] - span[6]) * scales[op_id]
            own_s[name] += selfs[span[0]] * scales[op_id]
            layer_own[name.split(".", 1)[0]] += selfs[span[0]]
            if op_id < count_ops:
                calls[name] += 1
    metrics = {"trace.op_wall_s": wall / len(traced_ops)}
    seconds = {
        name: {"busy_s": busy_s[name] / len(traced_ops), "self_s": own_s[name] / len(traced_ops)}
        for name in sorted(busy)
    }
    for name in SPANS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.busy_s"] = busy_s[name] / len(traced_ops)
        metrics[f"{name}.self_s"] = own_s[name] / len(traced_ops)
        metrics[f"{name}.busy_frac"] = busy[name] / wall
        metrics[f"{name}.self_frac"] = own[name] / wall
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_frac"] = layer_own[layer] / wall
    for key in COUNTS:
        per_op = [counts[op_id].get(key, 0) for op_id in range(count_ops)]
        metrics[key] = max(per_op) if key.endswith("_max") else sum(per_op)
    return metrics, seconds, errors


def traced_run(runner: Runner, dotbus_pkg, seconds: float) -> tuple[dict, dict, list[str], list]:
    """Pairs of untraced and traced ops on the same input, order alternating."""
    tracer = spans.Tracer(dotbus_pkg)
    untraced, traced, scales = [], [], {}
    op_id = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or op_id < runner.spec.count_ops:
        inp = next(runner.inputs)
        order = (None, tracer) if op_id % 2 == 0 else (tracer, None)
        for maybe_tracer in order:
            scale = runner.run_op(inp, op_id, maybe_tracer)
            if maybe_tracer is None:
                untraced.append(runner.normalized[-1])
            else:
                traced.append(runner.normalized[-1])
                scales[op_id] = scale
        op_id += 1
    metrics, span_seconds, errors = layer_metrics(tracer.spans, tracer.counts, scales,
                                                  runner.spec.count_ops)
    metrics["trace.op_median_s"] = statistics.median(traced)
    metrics["trace.untraced_op_median_s"] = statistics.median(untraced)
    metrics["host.gauge_s"] = statistics.median(runner.gauge.readings)
    metrics["trace.overhead_frac"] = (
        metrics["trace.op_median_s"] / metrics["trace.untraced_op_median_s"] - 1.0
    )
    return metrics, span_seconds, errors, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dotbus" / "__init__.py").is_file():
        print(f"perfbench: no dotbus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dotbus
    import dotbus.cli
    import dotbus.config

    if Path(dotbus.__file__).resolve().parent != SRC / "dotbus":
        print(f"perfbench: imported dotbus from {dotbus.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_build" / "perfbench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    runner = Runner(dotbus, args.workload, args.seed, workdir)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "claim": None,
        "nproc": os.cpu_count(),
        "usable_cores": usable_cores(),
        "sweep_threads": runner.ops.threads,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dotbus": dotbus.__version__,
        "git_commit": git_commit(),
    }
    runner.warm_up()
    errors: list[str] = []
    if args.trace:
        metrics, record["span_seconds_per_op"], errors, span_list = traced_run(
            runner, dotbus, args.seconds
        )
        units = per_layer_units()
        with gzip.open(out_dir / f"{tag}.spans.json.gz", "wt") as fh:
            json.dump({"fields": spans.FIELDS, "spans": span_list}, fh)
    else:
        # The first generated input doubles as the set-up config.
        setup_config = str(workdir / "setup.json")
        with open(setup_config, "w") as fh:
            json.dump(next(workloads.inputs(args.workload, args.seed)).config, fh)
        setup, setup_normalized = measure_setup(setup_config)
        metrics = untraced_run(runner, args.seconds)
        metrics["setup_s"] = statistics.median(setup_normalized)
        record["setup_wall_s"] = setup
        record["setup_normalized_s"] = setup_normalized
        units = END_TO_END

    record.update(
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures,
        trace_errors=errors,
        op_wall_s=runner.durations,
        gauge_kernel=runner.gauge.kernel,
        gauge_readings_s=runner.gauge.readings,
        op_normalized_s=runner.normalized,
        metrics=metrics,
    )
    with open(out_dir / f"{tag}.record.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    shutil.rmtree(workdir, ignore_errors=True)

    for failure in runner.failures[:3]:
        print(f"failed op {failure['op']}: {failure['errors'][0]}", file=sys.stderr)
    result = {
        "correct": not runner.failures and not errors,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
