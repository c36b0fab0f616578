"""Benchmark: raw kernel throughput (events/second), emitting BENCH_kernel.json.

Measures the discrete-event kernel itself — the floor under every other
number in this repo — with two storms:

* ``timer``: pure heap churn (processes hopping over timeouts), the cost
  of one schedule/fire/resume cycle;
* ``resource``: contended :class:`~repro.sim.core.Resource` charges, the
  serving layer's processor-sharing hot path, measured per discipline.

Writes ``BENCH_kernel.json`` next to this file so the perf trajectory is
machine-readable across PRs.  The ``reference`` block records the
before/after of each optimization pass (same dev container):

* the PR-2 ``__slots__``/fast-path pass over ``sim/core.py`` — a slotted
  ``Environment``, a flattened ``Timeout.__init__`` (no ``super`` chain,
  no per-event f-string name) and an ``until``-free ``run()`` loop —
  lifted the timer storm from ~391k to ~608k events/s (+55%) and the
  FIFO resource storm from ~201k to ~280k events/s (+39%);
* the macro-charge PR's callback-driven rewrite of the fair and priority
  disciplines — one event per charge (a ``_FairCharge``/``_PrioSegment``
  timeout that doubles as the park spot, no acquire/grant/preempt events,
  no ``any_of`` gates, lazy-deleted cancelled heap entries, the deferred
  fair grant riding ``Environment.defer`` instead of a scheduled event)
  — lifted the fair storm from ~168k to ~359k events/s (+113%) and the
  priority storm from ~141k to ~312k events/s (+121%), with FIFO
  untouched (byte-identity) and the timer storm unchanged.

The FIFO storm is reported as ``resource_fifo_discrete``: the one FIFO
path, every contended charge queued and granted by events.
"""

import json
import time
from pathlib import Path

from repro.sim.core import ChargeTag, Environment, Resource, make_discipline

#: pre/post numbers of the sim/core.py optimization passes, recorded when
#: each landed (events/second, best of 3, dev container): the PR-2
#: ``__slots__`` pass (timer/fifo) and the macro-charge PR's
#: callback-driven fair/priority rewrite.
REFERENCE = {
    "timer": {"before": 391_182, "after": 608_267},
    "resource_fifo_discrete": {"before": 200_819, "after": 280_162},
    "resource_fair": {"before": 168_265, "after": 358_611},
    "resource_priority": {"before": 141_023, "after": 311_691},
}

OUTPUT = Path(__file__).with_name("BENCH_kernel.json")


def timer_storm(n_procs: int = 200, hops: int = 400) -> tuple[int, float]:
    """``n_procs`` processes each hopping over ``hops`` timeouts."""
    env = Environment()

    def hopper(i):
        for _ in range(hops):
            yield env.timeout((i % 7 + 1) * 1e-4)

    for i in range(n_procs):
        env.process(hopper(i))
    start = time.perf_counter()
    env.run()
    return n_procs * hops, time.perf_counter() - start


def resource_storm(discipline: str, n_procs: int = 100,
                   charges: int = 200) -> tuple[int, float]:
    """Contended charges through one resource under ``discipline``."""
    env = Environment()
    resource = Resource(env, capacity=4, name="cpu",
                        discipline=make_discipline(discipline))

    def worker(i):
        tag = ChargeTag(key=f"c{i % 5}", weight=float(i % 3 + 1),
                        priority=i % 4)
        for _ in range(charges):
            yield from resource.use(1e-4 * (i % 5 + 1), tag)

    for i in range(n_procs):
        env.process(worker(i))
    start = time.perf_counter()
    env.run()
    return n_procs * charges, time.perf_counter() - start


def best_rate(fn, *args, repeats: int = 3) -> float:
    best = 0.0
    for _ in range(repeats):
        events, elapsed = fn(*args)
        best = max(best, events / elapsed)
    return best


def test_kernel_events_per_second(benchmark):
    def measure():
        rates = {
            "timer": best_rate(timer_storm),
            "resource_fifo_discrete": best_rate(resource_storm, "fifo"),
        }
        for discipline in ("fair", "priority"):
            rates[f"resource_{discipline}"] = best_rate(
                resource_storm, discipline
            )
        return rates

    rates = benchmark.pedantic(measure, rounds=1, iterations=1,
                               warmup_rounds=0)
    report = {
        "events_per_second": {k: round(v) for k, v in rates.items()},
        "reference": REFERENCE,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print()
    for name, rate in rates.items():
        print(f"  {name}: {rate:,.0f} events/sec")
    # Generous floors: catch order-of-magnitude regressions, not machine
    # noise (CI machines vary; the JSON carries the precise numbers).
    assert rates["timer"] > 50_000
    for name in ("resource_fifo_discrete", "resource_fair",
                 "resource_priority"):
        assert rates[name] > 20_000
