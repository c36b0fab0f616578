"""Tracing from outside the program: spans, counts and a per-layer ledger.

Nothing under ``src/`` knows it is traced.  :class:`Tracer` wraps the
program's public entry points in place and restores them afterwards:

* *spans* (name, start, end, parent) around the coarse boundaries --
  plan build, trace generation, query submission, engine launch and
  collect, metrics records and the kernel's run loop;
* the number of kernel events, read from every ``Environment`` built.

Calls too frequent for a wrapper -- kernel charges and
``tree_signature``, millions per run -- are counted by the profiler
instead (:meth:`Tracer.calls`).

Activation execution, the admission loop and kernel dispatch all run
inside kernel callbacks, below any span, so the per-layer self times
come from ``cProfile``: each function's self time goes to the layer of
the package that defines it (:data:`LAYERS`).  The self time of a
builtin or stdlib function goes to the layer of the program function
that called it, one level up; what is left -- stdlib calling stdlib,
and this module's own wrappers -- is ``unattributed_s``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time

#: ledger layers, first match wins: (metric, path prefixes inside the
#: ``repro`` package).  Every ``repro`` file lands in exactly one.
LAYERS = (
    ("optimizer.self_s", ("optimizer/", "query/")),
    ("catalog.self_s", ("catalog/",)),
    ("workloads.self_s", ("workloads/",)),
    ("metrics.self_s", ("engine/metrics.py", "serving/trace.py")),
    ("serving.self_s", ("serving/",)),
    (
        "engine.exec_self_s",
        (
            "engine/thread_exec.py",
            "engine/routing.py",
            "engine/queues.py",
            "engine/opstate.py",
            "engine/tables.py",
            "engine/activation.py",
        ),
    ),
    ("engine.steal_self_s", ("engine/scheduler.py",)),
    ("engine.other_self_s", ("engine/",)),
    ("sim.self_s", ("sim/",)),
    ("other.self_s", ("",)),
)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(path: str, package_dir: str):
    """The ledger layer of a source file, or None outside ``repro``."""
    if not path.startswith(package_dir):
        return None
    relative = path[len(package_dir):].replace(os.sep, "/")
    for name, prefixes in LAYERS:
        if any(relative.startswith(prefix) for prefix in prefixes):
            return name
    raise AssertionError("the catch-all layer matches every path")


class Tracer:
    """Wraps the program's entry points; ``full=False`` times set-up only.

    The set-up spans (``PlanSpec.build``, ``generate_trace``) are cheap
    enough -- one call each per run -- to stay on in untraced runs, where
    they split set-up from simulation time.
    """

    def __init__(self, full: bool) -> None:
        self.full = full
        #: [name, start, end, parent index] per span, in start order.
        self.spans: list[list] = []
        self.environments: list = []
        self.traces: list = []
        self.profile = cProfile.Profile() if full else None
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._profile_stats = None

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr, name) -> None:
        self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))

    def install(self) -> None:
        from repro.api.spec import PlanSpec
        from repro.workloads import tracegen

        self._span(PlanSpec, "build", "PlanSpec.build")
        generate = self._spanned("generate_trace", tracegen.generate_trace)
        traces = self.traces

        def generate_trace(*args, **kwargs):
            trace = generate(*args, **kwargs)
            traces.append(trace)
            return trace

        self._patch(tracegen, "generate_trace", generate_trace)
        if not self.full:
            return
        from repro.engine.executor import QueryExecutor
        from repro.engine.metrics import WorkloadMetrics
        from repro.serving.coordinator import MultiQueryCoordinator
        from repro.sim import core

        self._span(MultiQueryCoordinator, "submit", "MultiQueryCoordinator.submit")
        self._span(QueryExecutor, "launch", "QueryExecutor.launch")
        self._span(QueryExecutor, "collect", "QueryExecutor.collect")
        self._span(WorkloadMetrics, "record", "WorkloadMetrics.record")
        self._span(WorkloadMetrics, "record_shed", "WorkloadMetrics.record_shed")
        self._span(core.Environment, "run", "Environment.run")
        environments = self.environments
        init = core.Environment.__init__

        def environment_init(env, *args, **kwargs):
            init(env, *args, **kwargs)
            environments.append(env)

        self._patch(core.Environment, "__init__", environment_init)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- readings ------------------------------------------------------------

    def span_intervals(self, name: str) -> list[tuple[float, float]]:
        return [(start, end) for span_name, start, end, _ in self.spans if span_name == name]

    def span_total(self, name: str) -> float:
        return sum(end - start for start, end in self.span_intervals(name))

    def span_calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def span_table(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds).

        A span's self time is its duration minus its direct children's.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        table: dict = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            calls, total, own = table.get(name, (0, 0.0, 0.0))
            table[name] = (calls + 1, total + end - start, own + end - start - children[index])
        return table

    def _stats(self) -> dict:
        if self._profile_stats is None:
            self._profile_stats = pstats.Stats(self.profile).stats
        return self._profile_stats

    def calls(self, function) -> int:
        """How often the profiler saw ``function`` called (with recursion)."""
        code = function.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        entry = self._stats().get(key)
        return entry[1] if entry else 0

    def kernel_events(self) -> int:
        """Events scheduled by every kernel built.

        Read from each kernel's sequence counter: the scheduling
        disciplines push onto the event heap directly, past any public
        call a wrapper could count.
        """
        return sum(next(env._counter) for env in self.environments)

    def layer_self_times(self, package_dir: str) -> dict:
        """Layer -> profiled self seconds (the rest is unattributed)."""
        stats = self._stats()
        times = {name: 0.0 for name, _ in LAYERS}
        for (path, _line, _func), (_cc, _nc, own, _ct, callers) in stats.items():
            layer = layer_of(path, package_dir)
            if layer is not None:
                times[layer] += own
                continue
            if path.startswith(_BENCH_DIR):
                continue
            # A builtin or stdlib function: charge each call site's share
            # to the caller's layer.
            for (caller_path, _l, _f), caller_stats in callers.items():
                caller_layer = layer_of(caller_path, package_dir)
                if caller_layer is not None:
                    times[caller_layer] += caller_stats[2]
        return times
