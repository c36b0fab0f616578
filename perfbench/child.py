"""One benchmark run of one workload, in a fresh process.

Usage: ``python3 perfbench/child.py WORKLOAD SEED SIZE TRACE`` from the
root of a checkout (``SIZE`` is ``full`` or ``tiny``, ``TRACE`` is 0 or
1).  Prints one JSON object: the checks, the simulated digest, the host
figures as measured and on the nominal host (``probe.py``; untraced runs
only), the run's sample for the simulated metrics, and with ``TRACE`` 1
the per-layer ledger.

A fresh process per run matters twice: ``repro.api.facade`` memoizes
compiled plan populations per process (a second run in one process
would report a set-up time near zero), and peak RSS is a per-process
high-water mark.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import outcome
import probe
import specs
from ledger import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "repro") + os.sep


def import_program():
    """Import ``repro`` from this checkout's sources, nowhere else."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        raise FileNotFoundError(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(PACKAGE_DIR):
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    return repro


def _slos(spec, traces) -> dict:
    """Service-class name -> latency SLO, from the spec and the trace."""
    slos = {cls.name: cls.latency_slo for cls, _share in spec.workload.classes}
    for trace in traces:
        for query in trace.queries:
            if query.service_class is not None:
                slos[query.service_class.name] = query.service_class.latency_slo
    return slos


def _layer_metrics(tracer, result: dict, wall: float) -> dict:
    """The per-layer ledger of one traced run (seconds, counts, ratios)."""
    from repro.optimizer.join_tree import tree_signature
    from repro.sim.core import Resource

    workload = result["workload"]
    metrics = workload["metrics"]
    clients = workload["clients"]
    layers = tracer.layer_self_times(PACKAGE_DIR)
    submits = tracer.span_calls("MultiQueryCoordinator.submit")
    launches = tracer.span_calls("QueryExecutor.launch")
    launch_s = tracer.span_total("QueryExecutor.launch")
    events = tracer.kernel_events()
    out = {
        "optimizer.build_s": (tracer.span_total("PlanSpec.build"), "s"),
        "optimizer.tree_signature_calls": (tracer.calls(tree_signature), "count"),
        "tracegen.generate_s": (tracer.span_total("generate_trace"), "s"),
        "serving.submits": (submits, "count"),
        "serving.admit_ratio": (workload["admitted"] / submits if submits else 0.0, "ratio"),
        "engine.launches": (launches, "count"),
        "engine.launch_s": (launch_s, "s"),
        "engine.launch_us": (1e6 * launch_s / launches if launches else 0.0, "us"),
        "engine.steal_bytes": (metrics["total_steal_bytes"], "bytes"),
        "engine.cross_steal_rounds": (metrics["cross_steal_rounds"], "count"),
        "sim.events": (events, "count"),
        "sim.us_per_event": (1e6 * layers["sim.self_s"] / events if events else 0.0, "us"),
        "sim.charges": (
            tracer.calls(Resource.use) + tracer.calls(Resource.use_until),
            "count",
        ),
        "sim.cpu_contention_s": (metrics["total_cpu_contention"], "s"),
        "sim.disk_wait_s": (metrics["total_disk_wait"], "s"),
        "metrics.records": (
            tracer.span_calls("WorkloadMetrics.record")
            + tracer.span_calls("WorkloadMetrics.record_shed"),
            "count",
        ),
        "serving.retries": (clients["retries"], "count"),
        "serving.gave_up": (clients["gave_up"], "count"),
        "serving.preemptions": (metrics["memory_preemptions"], "count"),
        "serving.spill_bytes": (metrics["spill_bytes"], "bytes"),
    }
    for reason in ("queue_timeout", "deadline", "retries_exhausted", "memory_preempted"):
        out[f"serving.shed.{reason}"] = (metrics["shed_reasons"].get(reason, 0), "count")
    for name, seconds in layers.items():
        out[name] = (seconds, "s")
    out["unattributed_s"] = (wall - sum(layers.values()), "s")
    return out


def run_once(workload: str, seed: int, size: str, traced: bool) -> dict:
    """Run one workload once; never raises (a failure is reported)."""
    report: dict = {"ok": False, "offered": 0, "problems": []}
    try:
        repro = import_program()
        from repro.api.spec import ScenarioSpec

        data = specs.scenario_dict(workload, seed, size)
        tracer = Tracer(full=traced)
        # Untraced runs sample the host's speed; traced runs are profiled.
        sampler = None if traced else probe.Sampler()
        tracer.install()
        if traced:
            tracer.profile.enable()
        else:
            sampler.start()
        try:
            start = time.perf_counter()
            spec = ScenarioSpec.from_dict(data)
            decoded = time.perf_counter()
            run = repro.run(spec)
            end = time.perf_counter()
        finally:
            if traced:
                tracer.profile.disable()
            else:
                sampler.stop()
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = run.to_dict()
        if tracer.traces:
            offered = len(tracer.traces[0].queries)
        else:
            offered = spec.workload.queries
        report["offered"] = offered
        report["problems"] = outcome.check(result, offered)
        report["digest"] = outcome.digest(result)
        setup_intervals = (
            [(start, decoded)]
            + tracer.span_intervals("PlanSpec.build")
            + tracer.span_intervals("generate_trace")
        )
        measured = {
            "setup_s": sum(b - a for a, b in setup_intervals),
            "wall_s": end - start,
        }
        host = dict(measured)
        if sampler is not None:
            # Take the probe's own slices out, then scale to the nominal host.
            host["setup_s"] -= sum(sampler.spent(a, b) for a, b in setup_intervals)
            host["wall_s"] -= sampler.spent(start, end)
            host = {name: value * sampler.factor for name, value in host.items()}
        for figures in (measured, host):
            figures["queries_per_s"] = offered / (figures["wall_s"] - figures["setup_s"])
            figures["peak_rss_mb"] = peak_rss_mb
        report["measured"] = measured
        report["host"] = host
        report["sim"] = outcome.sample(result, offered, _slos(spec, tracer.traces))
        if traced:
            report["layers"] = _layer_metrics(tracer, result, measured["wall_s"])
            report["spans"] = tracer.span_table()
        report["ok"] = not report["problems"]
    except Exception:  # noqa: BLE001 - the run's failure is the report
        report["problems"].append(traceback.format_exc())
    return report


def main(argv: list[str]) -> int:
    workload, seed, size, traced = argv
    report = run_once(workload, int(seed), size, traced == "1")
    print(json.dumps(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
