"""Span tracing of dotbus from outside the package.

`Tracer.installed()` replaces every public function of the traced modules
with a timing wrapper in each namespace that binds it (the defining module,
modules that imported it by name, and the ``dotbus`` package), and restores
the originals on exit.  Nothing inside ``src/dotbus`` changes.  The RK4
health checks in ``dynamics`` call ``np.linalg.eigvalsh`` and
``hermiticity_defect``; both are wrapped as one ``dynamics.diagnostics``
span, the first through a copy of the numpy module bound as ``dynamics.np``.

Spans are kept in memory as tuples and written out when the run ends.  A
span opened on a thread that has no open span (a sweep pool thread) takes
the op's root span as its parent.

Self time partitions an op's wall time exactly: at every instant, each
thread's innermost open span is running, and when several threads have one,
the instant is split equally between them.  So the self times of one op
always sum to its wall time, and concurrent pool-thread spans are not
counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time
import types
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("cli", "config", "protocols", "dynamics", "hamiltonians", "algebra")
ROOT = "bench.op"
DIAGNOSTICS = "dynamics.diagnostics"

# Span tuple fields, in order.
FIELDS = ("id", "name", "op", "thread", "parent", "depth", "start", "end")


def _public_functions(module):
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def _module_view(module, **overrides):
    """A module object with the same attributes as ``module`` except ``overrides``."""
    view = types.ModuleType(module.__name__)
    view.__dict__.update(vars(module))
    view.__dict__.update(overrides)
    return view


class Tracer:
    """Records spans and exact counts for ops run while it is installed."""

    def __init__(self, package):
        self.package = package
        self.modules = {
            name: importlib.import_module(f"{package.__name__}.{name}") for name in TRACED_MODULES
        }
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._ids = itertools.count()
        self._local = threading.local()
        self._counts_lock = threading.Lock()
        self._op = None  # (op id, root span id) of the op in progress
        self._hooks = {
            "cli.main": self._count_cli_main,
            "dynamics.integrate_lindblad": self._count_lindblad,
            "hamiltonians.static_frame_hamiltonian": self._count_frame,
        }
        self._patches = self._plan()

    # -- counts, computed from call arguments and results --------------------

    def _add(self, key: str, value: int) -> None:
        with self._counts_lock:
            self.counts[self._op[0]][key] += value

    def _count_cli_main(self, bound, result):
        argv = bound.get("argv") or []
        self._add("cli.validate_exit3", int(bool(argv) and argv[0] == "validate" and result == 3))

    def _count_lindblad(self, bound, result):
        steps = bound["grid"].steps
        liouville_dim = np.shape(bound["h_eff"])[0] ** 2
        self._add("dynamics.rk4_steps", steps)
        self._add("dynamics.snapshots", len(result.times))
        # Four complex matvecs per step, 8 real flops per complex multiply-add.
        self._add("dynamics.rk4_flops_computed", steps * 4 * 8 * liouville_dim**2)

    def _count_frame(self, bound, result):
        dim = int(np.shape(result)[0])
        with self._counts_lock:
            op_counts = self.counts[self._op[0]]
            op_counts["hamiltonians.frame_dim_max"] = max(
                op_counts["hamiltonians.frame_dim_max"], dim
            )

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op_id, root_id = self._op
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else root_id
            depth = len(stack) + 1 if stack else 1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append(
                    (span_id, name, op_id, threading.get_ident(), parent, depth, start, end)
                )
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span recorded inside it carries ``op_id``."""
        root_id = next(self._ids)
        self._op = (op_id, root_id)
        stack = self._stack()
        stack.append(root_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (root_id, ROOT, op_id, threading.get_ident(), None, 0, start, end)
            )
            self._op = None

    def _plan(self):
        """(namespace, attribute, wrapper) for every binding of a traced function."""
        wrappers = {}
        for mod_name, module in self.modules.items():
            for fn_name, fn in _public_functions(module).items():
                wrappers[fn] = self.wrap(f"{mod_name}.{fn_name}", fn)
        dynamics = self.modules["dynamics"]
        eigvalsh = self.wrap(DIAGNOSTICS, np.linalg.eigvalsh)
        plan = {
            (dynamics, "np"): _module_view(np, linalg=_module_view(np.linalg, eigvalsh=eigvalsh)),
        }
        if hasattr(dynamics, "hermiticity_defect"):
            plan[dynamics, "hermiticity_defect"] = self.wrap(
                DIAGNOSTICS, dynamics.hermiticity_defect
            )
        for namespace in [self.package, *self.modules.values()]:
            for attr, value in vars(namespace).items():
                traced = inspect.isfunction(value) and value in wrappers
                if traced and (namespace, attr) not in plan:
                    plan[namespace, attr] = wrappers[value]
        return [(ns, attr, wrapper) for (ns, attr), wrapper in plan.items()]

    @contextlib.contextmanager
    def installed(self):
        """Swap in the wrappers for the duration of the block."""
        originals = [(ns, attr, getattr(ns, attr)) for ns, attr, _ in self._patches]
        try:
            for ns, attr, wrapper in self._patches:
                setattr(ns, attr, wrapper)
            yield self
        finally:
            for ns, attr, original in originals:
                setattr(ns, attr, original)


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by span id.

    ``spans`` are tuples laid out as ``FIELDS``.  Spans on one thread must
    nest.  Each elementary interval between span boundaries is split
    equally between the innermost open span of every thread that has one.
    """
    events = []
    for span in spans:
        start, end = span[6], span[7]
        if end > start:  # an empty span covers no time and opens nothing
            events.append((start, 1, span))
            events.append((end, 0, span))
    events.sort(key=lambda e: (e[0], e[1]))
    open_by_thread: dict[int, dict[int, int]] = defaultdict(dict)  # thread -> {id: depth}
    out = {span[0]: 0.0 for span in spans}
    prev = None
    for t, is_start, span in events:
        if prev is not None and t > prev:
            running = [
                max(opened, key=opened.get) for opened in open_by_thread.values() if opened
            ]
            share = (t - prev) / len(running) if running else 0.0
            for span_id in running:
                out[span_id] += share
        prev = t
        span_id, thread, depth = span[0], span[3], span[5]
        if is_start:
            open_by_thread[thread][span_id] = depth
        else:
            open_by_thread[thread].pop(span_id, None)
    return out
