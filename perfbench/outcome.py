"""Checks and simulated metrics of one run, from ``RunResult.to_dict()``.

Everything here reads the run's public plain-data output only, so a
corrupted result (the self-test builds some) is caught the same way a
wrong one from the program would be.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

#: percentiles whose samples beyond must number at least this many.
TAIL_BEYOND = 10


def digest(result: dict) -> str:
    """Hash of the simulated metrics: equal runs of one seed must agree."""
    text = json.dumps(result["workload"]["metrics"], sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(result: dict, offered: int) -> list[str]:
    """The run's accounting identities; returns what broke (empty if none).

    ``offered`` is the number of logical queries the inputs hold.
    """
    workload = result["workload"]
    metrics = workload["metrics"]
    clients = workload["clients"]
    problems = []
    completed = metrics["completed"]
    shed = len(metrics["shed"])
    if metrics["unfinished"] != 0:
        problems.append(f"{metrics['unfinished']} queries unfinished")
    if clients["served"] + clients["gave_up"] != offered:
        problems.append(
            f"served {clients['served']} + gave up {clients['gave_up']} "
            f"!= {offered} logical queries"
        )
    if completed + clients["gave_up"] != offered:
        problems.append(
            f"completed {completed} + refused {clients['gave_up']} "
            f"!= {offered} offered"
        )
    if completed + shed != offered + clients["retries"]:
        problems.append(
            f"completed {completed} + shed {shed} != {offered} offered "
            f"+ {clients['retries']} retries"
        )
    if len(metrics["per_query"]) != completed:
        problems.append(
            f"{len(metrics['per_query'])} per-query rows for {completed} completions"
        )
    if sum(metrics["shed_reasons"].values()) != shed:
        problems.append("shed reasons do not add up to the shed count")
    for row in metrics["per_query"]:
        query_id, _plan, _cls, arrival, start, done = row[:6]
        if not arrival <= start <= done:
            problems.append(f"query {query_id}: times out of order")
            break
    return problems


def first_arrivals(metrics: dict, offered: int) -> dict:
    """logical index -> arrival of its first attempt.

    Attempt ``a`` of logical query ``i`` has query id ``a * offered + i``
    (ids of runs without retries are ``0..offered-1``), so attempt 0 is
    the row whose id is below ``offered``.
    """
    arrivals = {}
    for row in metrics["per_query"]:
        if row[0] < offered:
            arrivals[row[0]] = row[3]
    for row in metrics["shed"]:
        if row[0] < offered:
            arrivals[row[0]] = row[2]
    return arrivals


def latencies(metrics: dict, offered: int) -> list[tuple[float, str]]:
    """(latency from the first attempt's arrival, class) per completion."""
    arrivals = first_arrivals(metrics, offered)
    return [
        (row[5] - arrivals[row[0] % offered], row[2]) for row in metrics["per_query"]
    ]


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value): the highest with ``beyond`` samples beyond it.

    The value is the ``beyond + 1``-th largest sample.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"{n} completions: a tail needs more than {beyond}")
    ordered = sorted(values)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def sample(result: dict, offered: int, slos: dict) -> dict:
    """What one run adds to the pooled simulated metrics.

    ``slos`` maps service-class name to its latency SLO; a completion of
    a class without one counts as good.
    """
    metrics = result["workload"]["metrics"]
    rows = latencies(metrics, offered)
    makespan = metrics["makespan"]
    if not makespan > 0 or not math.isfinite(makespan):
        raise ValueError(f"makespan {makespan!r} is not a positive time")
    return {
        "latencies": [latency for latency, _cls in rows],
        "good": sum(
            1 for latency, cls in rows if slos.get(cls) is None or latency <= slos[cls]
        ),
        "makespan": makespan,
        "offered": offered,
        "refused": result["workload"]["clients"]["gave_up"],
    }


def simulated(samples: list[dict], beyond: int = TAIL_BEYOND) -> dict:
    """The simulated end-to-end metrics over the pooled runs.

    Deterministic at a fixed seed.  ``beyond`` sets the tail (see
    :func:`tail`); only the tiny self-test runs lower it.
    """
    values = [latency for s in samples for latency in s["latencies"]]
    percentile, tail_value = tail(values, beyond)
    offered = sum(s["offered"] for s in samples)
    refused = sum(s["refused"] for s in samples)
    return {
        "sim_latency_p50_s": statistics.median(values),
        "sim_latency_tail_s": tail_value,
        "sim_goodput_qps": sum(s["good"] for s in samples)
        / sum(s["makespan"] for s in samples),
        "sim_served_ratio": (offered - refused) / offered,
        "sim_refused_ratio": refused / offered,
        "tail_percentile": percentile,
        "tail_samples": len(values),
    }
