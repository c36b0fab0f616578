"""Benchmark: million-scale trace replay, emitting BENCH_trace_replay.json.

End-to-end throughput of the serving stack's replay path: render a
:class:`~repro.workloads.tracegen.TraceGenSpec` (diurnal cycle, flash
crowd, heavy-tailed sessions) into a trace of ``TRACE_REPLAY_QUERIES``
queries (default 100k; the nightly job sets 1_000_000), then replay it
through the full admission/coordination/engine stack under *sustained
overload* — the offered rate exceeds the tiny substrate's capacity, so
the admission queue stays deep and the overload scans (shedding,
head-of-line selection) are genuinely on the hot path.

The replay uses a ``WorkloadMetrics(retain=False)`` sink (per-query
latencies only, no retained results) and batched macro-charges.

At macro-charge granularity the engine's per-activation machinery, not
kernel charge events, dominates replay wall-clock.  What made
million-query replays land in minutes rather than hours are the
coordinator's O(classes) overload scans (precomputed shed deadlines,
class-head early exit) — the ``reference`` block records that
before/after on this bench's exact configuration.
"""

import json
import os
import time
from pathlib import Path

from repro.engine.metrics import WorkloadMetrics
from repro.engine.params import ExecutionParams
from repro.serving.admission import AdmissionPolicy
from repro.serving.arrivals import ArrivalSpec
from repro.serving.driver import WorkloadDriver, WorkloadSpec
from repro.workloads.scenarios import pipeline_chain_scenario
from repro.workloads.tracegen import TraceGenSpec, generate_trace

#: trace length; the nightly stress job exports TRACE_REPLAY_QUERIES=1000000.
QUERIES = int(os.environ.get("TRACE_REPLAY_QUERIES", "100000"))

OUTPUT = Path(__file__).with_name("BENCH_trace_replay.json")

#: replay throughput before/after the overload-scan rework on the
#: serving path (queries resolved per wall second, this configuration at 5k
#: queries, dev container): precomputed shed deadlines plus the
#: class-head early exit in the admission loop turned two O(pending)
#: sweeps per admission wake into O(classes) checks.
REFERENCE = {
    "queries_per_second": {"before": 1_414, "after": 2_554},
}

SEED = 3
BASE_RATE = 40.0
MPL = 8
QUEUE_TIMEOUT = 5.0


def build_inputs():
    """The plan, machine and trace every replay below shares."""
    plan, config = pipeline_chain_scenario(
        nodes=1, processors_per_node=2, base_tuples=16, chain_joins=1
    )
    gen = TraceGenSpec(
        queries=QUERIES, seed=SEED, base_rate=BASE_RATE,
        diurnal_period=QUERIES / BASE_RATE * 2.0,
    )
    start = time.perf_counter()
    trace = generate_trace(gen, 1)
    return plan, config, trace, time.perf_counter() - start


def run_replay(plan, config, trace) -> dict:
    """One full replay; returns its measured row for the report."""
    params = ExecutionParams(charge_quantum="batched")
    spec = WorkloadSpec(
        queries=len(trace.queries), arrival=ArrivalSpec(kind="poisson"),
        policy=AdmissionPolicy(max_multiprogramming=MPL,
                               queue_timeout=QUEUE_TIMEOUT),
        seed=SEED,
    )
    driver = WorkloadDriver([plan], config, spec, params=params,
                            trace=trace, metrics=WorkloadMetrics(retain=False))
    coordinator = driver.build_coordinator()
    start = time.perf_counter()
    metrics = coordinator.run()
    wall = time.perf_counter() - start
    events = next(coordinator.env._counter)
    n = len(trace.queries)
    assert metrics.completed + metrics.shed_count == n
    return {
        "wall_seconds": round(wall, 3),
        "queries_per_second": round(n / wall),
        "kernel_events": events,
        "events_per_second": round(events / wall),
        "completed": metrics.completed,
        "shed": metrics.shed_count,
    }


def test_trace_replay_throughput(benchmark):
    plan, config, trace, gen_seconds = build_inputs()

    row = benchmark.pedantic(lambda: run_replay(plan, config, trace),
                             rounds=1, iterations=1, warmup_rounds=0)
    report = {
        "queries": QUERIES,
        "trace_generation_seconds": round(gen_seconds, 3),
        "replay": row,
        # Flat mirror of the headline rate so the generic regression
        # gate (scripts/check_bench_regression.py) picks it up.
        "events_per_second": {
            "replay_event": row["events_per_second"],
        },
        "reference": REFERENCE,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print()
    print(f"  replay: {row['queries_per_second']:,} q/s, "
          f"{row['events_per_second']:,} events/s, "
          f"{row['wall_seconds']}s wall "
          f"({row['completed']:,} completed, {row['shed']:,} shed)")
    # Generous wall-clock floor: a million-query replay must stay in
    # minutes, not hours (200 q/s would be ~83 min at 1M).
    assert row["queries_per_second"] > 200
