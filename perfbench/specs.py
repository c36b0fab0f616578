"""The benchmark's three workloads as sparse scenario specs.

Each spec is plain data for ``ScenarioSpec.from_dict``: it lists only the
fields that differ from the defaults, so a default the program changes
(or a knob it deletes) needs no edit here.  The seed of a sub-run sets
the arrival stream or trace, the class and plan draws, retry jitter and
the engine's per-query streams; the plan population is fixed
(:data:`PLAN_SEED`).

Why these three (each is traffic the repo already runs):

* ``replay`` -- the ``bench_trace_replay.py`` shape: a generated trace
  (diurnal cycle, flash crowds, Pareto sessions) replays one tiny
  one-join plan on a 1x2 machine at MPL 8 with a 5 s queue timeout, at
  sustained overload.  Admission, shedding and per-query engine start-up
  do the work; the optimizer does almost none, and one node means no
  inter-node stealing.  Two changes from the bench keep its simulated
  figures steady from seed to seed: it offers 60 queries/s instead of
  40 (about three times capacity, so the queue never drains and latency
  sits at the timeout rather than flipping between the drained and the
  full queue), and the interactive SLO lies above the queue timeout (so
  goodput counts completions rather than the rare lulls in which an
  interactive query beats a 2 s SLO).
* ``overload`` -- the graceful regime of the ``overload`` experiment at
  2x its calibrated rate (``examples/scenarios/overload_retry.json``):
  the Section 5.1.2 plan mix on 2x4 with 4 MiB per processor, two
  service classes, bounded retries, memory preemption and the ``best``
  broker.  Optimizer search dominates set-up, per-tuple execution and
  kernel charges dominate the run.  Not in ``BENCHMARK.json``: the 72
  logical queries a run can afford land in a retry-multimodal latency
  distribution, and its p50, tail, wall time and throughput spread
  0.2-0.3 (quartile distance over median) from seed to seed, above the
  largest bound a metric may have.
* ``skew`` -- the ``mixed-skew`` regime of the ``placement`` experiment:
  a closed loop of 4 clients at MPL 4 on the hierarchical 4x4 machine,
  redistribution skew 0.8, steal protocol on, drawing from all 8 plans
  its set-up compiles (the experiment uses the first 4).  Few long
  queries whose imbalance only inter-node stealing fixes.
"""

from __future__ import annotations

WORKLOADS = ("replay", "overload", "skew")

#: (logical queries, sub-runs) of one benchmark run, for the full
#: benchmark and the self-test.  A run pools its sub-runs: each is the
#: workload at its own seed, in its own process.
SIZES = {
    "full": {"replay": (8000, 5), "overload": (24, 3), "skew": (12, 5)},
    "tiny": {"replay": (300, 2), "overload": (6, 2), "skew": (4, 2)},
}

#: queries the overload/skew plan populations are compiled from, two
#: plans each: the experiments' quick setting.
PLAN_QUERIES = 4

#: the plan population's seed: the experiments' own, and the same for
#: every benchmark seed.  Populations drawn per seed differ threefold in
#: optimizer cost and by half in execution cost, which would swamp what
#: the benchmark compares; the seed varies everything else.
PLAN_SEED = 1996

#: replay's mean arrival rate (queries per simulated second).
REPLAY_RATE = 60.0

#: the experiments' fixed latencies at scale 0.01
#: (``repro.experiments.config.scaled_execution_params``).
_SCALED_LATENCIES = {
    "disk": {"latency": 0.00017, "seek_time": 5e-05},
    "network": {"transmission_delay": 5e-06},
    "steal_cooldown": 2e-05,
}


def _plan_mix(plan_count: int) -> dict:
    return {
        "kind": "workload_mix",
        "plan_count": plan_count,
        "workload_queries": PLAN_QUERIES,
        "seed": PLAN_SEED,
    }


def sub_seeds(workload: str, seed: int, size: str = "full") -> list[int]:
    """The seeds of one run's sub-runs: disjoint for distinct run seeds."""
    subruns = SIZES[size][workload][1]
    return [seed * subruns + k for k in range(subruns)]


def scenario_dict(workload: str, seed: int, size: str = "full") -> dict:
    """The sparse scenario of one sub-run of ``workload`` at ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    queries = SIZES[size][workload][0]
    if workload == "replay":
        return {
            "cluster": {"machines": {"nodes": 1, "processors_per_node": 2}},
            "params": {"seed": seed},
            "workload": {
                "policy": {"queue_timeout": 5.0},
                "seed": seed,
            },
            "plans": {"kind": "pipeline_chain", "base_tuples": 16, "chain_joins": 1},
            "trace": {
                "generate": {
                    "queries": queries,
                    "seed": seed,
                    # about three times the machine's capacity, so the
                    # queue never drains and latency sits at the timeout
                    "base_rate": REPLAY_RATE,
                    # half a diurnal cycle over the trace, as the replay bench
                    "diurnal_period": queries / REPLAY_RATE * 2.0,
                    # above the queue timeout: every completion is good
                    "interactive_slo": 6.0,
                },
            },
            "label": "perfbench-replay",
        }
    if workload == "overload":
        return {
            "cluster": {
                "machines": {
                    "nodes": 2,
                    "processors_per_node": 4,
                    "memory_per_processor": 4 << 20,
                },
            },
            "params": dict(_SCALED_LATENCIES, cross_steal_policy="best", seed=seed),
            "workload": {
                "queries": queries,
                "arrival": {"rate": 4.0},
                "policy": {
                    "max_multiprogramming": 4,
                    "queue_timeout": 0.5,
                    "memory_preemption": True,
                    "preemption_shed": True,
                },
                "classes": [
                    [
                        {
                            "name": "interactive",
                            "weight": 4.0,
                            "priority": 10,
                            "latency_slo": 3.0,
                            "queue_timeout": 0.5,
                        },
                        3.0,
                    ],
                    [{"name": "batch", "queue_timeout": 2.0}, 1.0],
                ],
                "retry": {"max_attempts": 3, "max_backoff": 4.0},
                "seed": seed,
            },
            # the first 4 plans, as the experiment
            "plans": _plan_mix(PLAN_QUERIES),
            "label": "perfbench-overload",
        }
    return {
        "cluster": {"machines": {"nodes": 4, "processors_per_node": 4}},
        "params": dict(_SCALED_LATENCIES, skew={"redistribution": 0.8}, seed=seed),
        "workload": {
            "queries": queries,
            "arrival": {"kind": "closed"},
            "policy": {"max_multiprogramming": 4},
            "seed": seed,
        },
        # all 8 plans: the 4 the experiment draws from are two queries,
        # whose two latency modes made the median flip from seed to seed
        "plans": _plan_mix(2 * PLAN_QUERIES),
        "label": "perfbench-skew",
    }
