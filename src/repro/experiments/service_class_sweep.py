"""Service-class sweep — scheduling discipline × multiprogramming level.

The serving-layer experiment for the machine-scheduler refactor: a mixed
workload of *interactive* (weight 4, priority 10, tight latency SLO) and
*batch* (weight 1, priority 0) queries runs against one hierarchical
machine under each CPU scheduling discipline — FIFO (the paper's model),
weighted fair sharing and priority-preemptive — at increasing
multiprogramming levels, reading back per-class throughput, p95 latency
and SLO attainment.

Four columns, each a declarative
:class:`~repro.api.sweep.SweepSpec` over a base
:class:`~repro.api.spec.ScenarioSpec` (the cell *is* the config — the
run kind, the swept discipline, the bandwidth are all read back off the
spec, no bespoke cell plumbing):

* **closed** — CPU discipline × MPL over the Section 5.3 chain;
* **overload** — a Poisson/bursty stream far above capacity with queue
  timeouts on batch and deadline shedding on interactive, showing
  non-zero shed counts while admitted interactive SLO attainment stays
  high;
* **io** — the **disk** discipline over a disk-dominated plan
  population (``PlanSpec(kind="io_heavy")``, disks at 20x the scaled
  latency), CPU pinned to FIFO: scheduling only the CPU would just move
  the interference to the disk queue;
* **net** — net discipline × bandwidth over the shared finite-bandwidth
  :class:`~repro.sim.network.NetworkLink` (CPU and disks FIFO).

Expected shape: FIFO is class-blind, so both classes see the same p95.
Fair sharing and (more strongly) priority preemption shorten the
interactive class's p95 at MPL >= 8 — its charges stop queueing behind
batch work — while batch throughput stays within 20% of FIFO's: the
disciplines reorder the same total work, they do not add any.  The same
ordering holds end to end at the disk arms and the link.

Every cell of the grid is an independent simulation, so the sweep fans
cells across cores with :func:`repro.experiments.parallel.parallel_map`
(``processes=``/``--parallel``), and ``charge_quantum="batched"`` runs
the engine in macro-charge mode — together the batched+parallel
configuration that makes big-MPL sweeps wall-clock cheap.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from ..api.facade import RunResult
from ..api.spec import PlanSpec, ScenarioSpec
from ..api.sweep import SweepSpec, run_scenarios
from ..catalog.skew import SkewSpec
from ..serving import (AdmissionPolicy, ArrivalSpec, BATCH, INTERACTIVE,
                       WorkloadSpec)
from ..sim.disk import DiskParams
from ..sim.machine import MachineConfig
from .config import ExperimentOptions, scaled_execution_params
from .registry import register_experiment
from .reporting import format_table

__all__ = ["ServiceClassSweepResult", "run", "PAPER_EXPECTATION",
           "DISCIPLINES", "MPL_LEVELS", "IO_MPL_LEVELS", "NET_MPL",
           "NET_BANDWIDTHS", "io_heavy_params"]

#: scheduling disciplines under comparison (CPU and disk sweeps alike).
DISCIPLINES = ("fifo", "fair", "priority")
#: multiprogramming levels on the sweep's x-axis.
MPL_LEVELS = (2, 8)
#: multiprogramming levels of the I/O-heavy disk-discipline sweep.
IO_MPL_LEVELS = (8,)
#: how much slower than the figure-scaled disks the I/O-heavy sweep's
#: disks are (latency/seek at 20x the scaled setting, i.e. one fifth of
#: the paper's full-size values), making disk service the bottleneck.
IO_DISK_SCALE = 0.2
#: multiprogramming level of the finite-bandwidth link column.
NET_MPL = 8
#: link bandwidths (bytes/s) of the finite-bandwidth column: a loose
#: link where queueing is visible but mild, and a tight one (comparable
#: to a single disk arm's 6 MB/s) where the interconnect is a real
#: bottleneck and the link discipline decides who eats the queueing.
NET_BANDWIDTHS = (64e6, 8e6)

PAPER_EXPECTATION = (
    "The paper's engine is FIFO and class-blind; the pluggable scheduler "
    "layer adds the differentiation: at MPL >= 8 the interactive class's "
    "p95 latency improves under priority-preemptive (and fair) scheduling "
    "relative to FIFO, while batch throughput stays within 20% of FIFO's "
    "(the disciplines reorder work, they do not add any).  Under open-loop "
    "overload, queue timeouts and deadline shedding bound the admission "
    "queue instead of letting it grow without limit.  The same ordering "
    "holds end to end: on the I/O-heavy mix, priority scheduling of the "
    "disk arms improves the interactive p95 over FIFO disks at MPL >= 8 "
    "with batch throughput again within 20% — scheduling only the CPU "
    "would just move the interference to the disk queue."
)


@dataclass(frozen=True)
class ClassCell:
    """One (discipline, MPL, class) measurement."""

    discipline: str
    mpl: int
    service_class: str
    completed: int
    shed: int
    throughput: float
    p50_latency: float
    p95_latency: float
    slo_attainment: float
    #: mean per-query queueing delay at each resource (cpu/disk/net) —
    #: the breakdown that says where the latency went.
    cpu_wait: float = 0.0
    disk_wait: float = 0.0
    net_wait: float = 0.0
    #: link bandwidth (bytes/s) of a finite-bandwidth cell; None on the
    #: CPU/disk columns (the paper's infinite interconnect).
    bandwidth: Optional[float] = None


@dataclass(frozen=True)
class ServiceClassSweepResult:
    """The full sweep grid plus the overload and I/O-heavy columns."""

    cells: tuple[ClassCell, ...]
    overload_cells: tuple[ClassCell, ...]
    options: ExperimentOptions
    #: disk-discipline cells of the I/O-heavy mix (``discipline`` holds
    #: the *disk* discipline; the CPU stays FIFO to isolate the effect).
    io_cells: tuple[ClassCell, ...] = ()
    #: net-discipline × bandwidth cells over the shared finite-bandwidth
    #: link (``discipline`` holds the *net* discipline, CPU/disks FIFO).
    net_cells: tuple[ClassCell, ...] = ()

    def cell(self, discipline: str, mpl: int,
             service_class: str) -> ClassCell:
        for cell in self.cells:
            if (cell.discipline == discipline and cell.mpl == mpl
                    and cell.service_class == service_class):
                return cell
        raise KeyError((discipline, mpl, service_class))

    def overload_cell(self, discipline: str, service_class: str) -> ClassCell:
        for cell in self.overload_cells:
            if (cell.discipline == discipline
                    and cell.service_class == service_class):
                return cell
        raise KeyError((discipline, service_class))

    def io_cell(self, discipline: str, mpl: int,
                service_class: str) -> ClassCell:
        for cell in self.io_cells:
            if (cell.discipline == discipline and cell.mpl == mpl
                    and cell.service_class == service_class):
                return cell
        raise KeyError((discipline, mpl, service_class))

    def net_cell(self, discipline: str, bandwidth: float,
                 service_class: str) -> ClassCell:
        for cell in self.net_cells:
            if (cell.discipline == discipline
                    and cell.bandwidth == bandwidth
                    and cell.service_class == service_class):
                return cell
        raise KeyError((discipline, bandwidth, service_class))

    @staticmethod
    def _disciplines_of(cells) -> list[str]:
        """Distinct disciplines of ``cells`` in canonical sweep order."""
        present = {c.discipline for c in cells}
        ordered = [d for d in DISCIPLINES if d in present]
        return ordered + sorted(present.difference(DISCIPLINES))

    def table(self) -> str:
        mpls = sorted({c.mpl for c in self.cells})
        classes = sorted({c.service_class for c in self.cells})
        blocks = []
        for mpl in mpls:
            headers = ["Discipline"]
            for name in classes:
                headers += [f"{name} q/s", f"{name} p95", f"{name} SLO%"]
            rows = []
            for discipline in self._disciplines_of(self.cells):
                row: list[object] = [discipline]
                for name in classes:
                    cell = self.cell(discipline, mpl, name)
                    row += [
                        f"{cell.throughput:.2f}",
                        f"{cell.p95_latency:.4f}",
                        f"{cell.slo_attainment:.0%}",
                    ]
                rows.append(row)
            blocks.append(format_table(
                headers, rows,
                title=f"Service classes at MPL {mpl} (closed loop)",
            ))
        if self.overload_cells:
            headers = ["Discipline"]
            for name in classes:
                headers += [f"{name} done", f"{name} shed", f"{name} SLO%"]
            rows = []
            for discipline in self._disciplines_of(self.overload_cells):
                row = [discipline]
                for name in classes:
                    cell = self.overload_cell(discipline, name)
                    row += [str(cell.completed), str(cell.shed),
                            f"{cell.slo_attainment:.0%}"]
                rows.append(row)
            blocks.append(format_table(
                headers, rows,
                title="Open-loop overload (queue timeout + deadline shedding)",
            ))
        if self.io_cells:
            io_classes = sorted({c.service_class for c in self.io_cells})
            for mpl in sorted({c.mpl for c in self.io_cells}):
                headers = ["Disk discipline"]
                for name in io_classes:
                    headers += [f"{name} q/s", f"{name} p95",
                                f"{name} disk-wait"]
                rows = []
                for discipline in self._disciplines_of(self.io_cells):
                    row = [discipline]
                    for name in io_classes:
                        cell = self.io_cell(discipline, mpl, name)
                        row += [
                            f"{cell.throughput:.2f}",
                            f"{cell.p95_latency:.4f}",
                            f"{cell.disk_wait:.4f}",
                        ]
                    rows.append(row)
                blocks.append(format_table(
                    headers, rows,
                    title=(f"I/O-heavy mix at MPL {mpl}: disk discipline "
                           "(CPU stays FIFO)"),
                ))
        if self.net_cells:
            net_classes = sorted({c.service_class for c in self.net_cells})
            for bandwidth in sorted(
                {c.bandwidth for c in self.net_cells}, reverse=True
            ):
                headers = ["Net discipline"]
                for name in net_classes:
                    headers += [f"{name} q/s", f"{name} p95",
                                f"{name} net-wait"]
                rows = []
                net_at = [c for c in self.net_cells
                          if c.bandwidth == bandwidth]
                for discipline in self._disciplines_of(net_at):
                    row = [discipline]
                    for name in net_classes:
                        cell = self.net_cell(discipline, bandwidth, name)
                        row += [
                            f"{cell.throughput:.2f}",
                            f"{cell.p95_latency:.4f}",
                            f"{cell.net_wait:.4f}",
                        ]
                    rows.append(row)
                blocks.append(format_table(
                    headers, rows,
                    title=(f"Finite-bandwidth link at MPL {NET_MPL}, "
                           f"{bandwidth / 1e6:.0f} MB/s: net discipline "
                           "(CPU and disks stay FIFO)"),
                ))
        return "\n\n".join(blocks)


def io_heavy_params(options: ExperimentOptions, disk_discipline: str,
                    cpu_discipline: str = "fifo"):
    """Execution params whose service demand is dominated by the disks.

    The disks run at :data:`IO_DISK_SCALE` (20x the figure-scaled
    latency/seek) and triggers carry twice the default pages, so a
    query's lifetime is mostly disk service — the regime where only the
    *disk* discipline can protect the interactive class.  The CPU
    discipline defaults to FIFO to isolate the disks' contribution.
    """
    params = scaled_execution_params(
        scale=options.scale,
        skew=SkewSpec.uniform_redistribution(0.8),
        seed=options.seed,
        cpu_discipline=cpu_discipline,
        disk_discipline=disk_discipline,
    )
    return dataclasses.replace(
        params,
        disk=DiskParams(latency=17e-3 * IO_DISK_SCALE,
                        seek_time=5e-3 * IO_DISK_SCALE),
        pages_per_trigger=8,
    )


# ---------------------------------------------------------------------------
# Scenario construction: four sweeps over one base cell
# ---------------------------------------------------------------------------


def _class_mix(interactive_slo: float,
               batch_queue_timeout: Optional[float] = None):
    """The interactive/batch population of every column."""
    interactive = dataclasses.replace(INTERACTIVE, latency_slo=interactive_slo)
    batch = BATCH
    if batch_queue_timeout is not None:
        batch = dataclasses.replace(BATCH, queue_timeout=batch_queue_timeout)
    return ((interactive, 1.0), (batch, 2.0))


def sweep_specs(options: ExperimentOptions,
                mpl_levels: Sequence[int] = MPL_LEVELS,
                disciplines: Sequence[str] = DISCIPLINES,
                nodes: int = 2, processors_per_node: int = 4,
                base_tuples: int = 2000,
                queries_per_cell: int = 18,
                interactive_slo: float = 0.3,
                overload: bool = True,
                io_sweep: bool = True,
                io_mpl_levels: Sequence[int] = IO_MPL_LEVELS,
                io_base_tuples: Optional[int] = None,
                net_sweep: bool = True,
                net_bandwidths: Sequence[float] = NET_BANDWIDTHS,
                charge_quantum: str = "tuple") -> list[SweepSpec]:
    """The experiment as data: one :class:`SweepSpec` per column."""
    cluster = MachineConfig(nodes=nodes,
                            processors_per_node=processors_per_node)
    closed_base = ScenarioSpec(
        cluster=cluster,
        params=scaled_execution_params(
            scale=options.scale,
            skew=SkewSpec.uniform_redistribution(0.8),
            seed=options.seed,
            charge_quantum=charge_quantum,
        ),
        workload=WorkloadSpec(
            queries=queries_per_cell,
            arrival=ArrivalSpec(kind="closed", population=1),
            policy=AdmissionPolicy(max_multiprogramming=1),
            classes=_class_mix(interactive_slo),
            seed=options.seed,
        ),
        plans=PlanSpec(kind="pipeline_chain", base_tuples=base_tuples),
        label="classes-closed",
    )
    sweeps = [SweepSpec(
        base=closed_base,
        axes=(("params.cpu_discipline", tuple(disciplines)),
              ("mpl", tuple(mpl_levels))),
        label="classes-closed",
    )]
    if overload:
        # Offered load far above capacity (a whole burst arrives in a
        # fraction of one query's service time, MPL 1): admission must
        # shed, not queue without bound.  Batch tolerates a queue up to
        # its timeout; interactive is shed the moment its SLO can no
        # longer be met.
        overload_base = dataclasses.replace(
            closed_base,
            workload=WorkloadSpec(
                queries=queries_per_cell,
                arrival=ArrivalSpec(kind="bursty", rate=400.0, burst_size=16),
                policy=AdmissionPolicy(max_multiprogramming=1,
                                       deadline_shedding=True),
                classes=_class_mix(interactive_slo, batch_queue_timeout=0.4),
                seed=options.seed,
            ),
            label="classes-overload",
        )
        sweeps.append(SweepSpec(
            base=overload_base,
            axes=(("params.cpu_discipline", tuple(disciplines)),),
            label="classes-overload",
        ))
    if io_sweep:
        io_base = dataclasses.replace(
            closed_base,
            params=dataclasses.replace(
                io_heavy_params(options, disk_discipline="fifo"),
                charge_quantum=charge_quantum,
            ),
            plans=PlanSpec(kind="io_heavy",
                           base_tuples=io_base_tuples or base_tuples),
            label="classes-io",
        )
        sweeps.append(SweepSpec(
            base=io_base,
            axes=(("params.disk_discipline", tuple(disciplines)),
                  ("mpl", tuple(io_mpl_levels))),
            label="classes-io",
        ))
    if net_sweep:
        # The link is the variable: CPU and disks stay FIFO, the
        # interconnect gets finite bandwidth + the swept discipline.
        net_base = dataclasses.replace(
            closed_base,
            workload=dataclasses.replace(
                closed_base.workload,
                arrival=ArrivalSpec(kind="closed", population=NET_MPL),
                policy=AdmissionPolicy(max_multiprogramming=NET_MPL),
            ),
            label="classes-net",
        )
        sweeps.append(SweepSpec(
            base=net_base,
            axes=(("params.network.bandwidth", tuple(net_bandwidths)),
                  ("params.net_discipline", tuple(disciplines))),
            label="classes-net",
        ))
    return sweeps


def _cell_kind(scenario: ScenarioSpec) -> str:
    """Which column a cell belongs to — read straight off the spec."""
    if scenario.plans.kind == "io_heavy":
        return "io"
    if scenario.params.network.bandwidth is not None:
        return "net"
    if scenario.workload.arrival.open_loop:
        return "overload"
    return "closed"


def _collect_cells(result: RunResult) -> list[ClassCell]:
    """Reduce one cell's run to per-class rows (runs in the worker)."""
    scenario = result.scenario
    kind = _cell_kind(scenario)
    params = scenario.params
    discipline = {"io": params.disk_discipline,
                  "net": params.net_discipline}.get(kind,
                                                    params.cpu_discipline)
    mpl = scenario.workload.policy.max_multiprogramming
    bandwidth = params.network.bandwidth if kind == "net" else None
    metrics = result.metrics
    cells = []
    for name in metrics.class_names():
        waits = metrics.class_resource_waits(name)
        cells.append(ClassCell(
            discipline=discipline,
            mpl=mpl,
            service_class=name,
            completed=len(metrics.completions_of(name)),
            shed=len(metrics.shed_of(name)),
            throughput=metrics.class_throughput(name),
            p50_latency=metrics.class_latency_percentile(name, 50.0),
            p95_latency=metrics.class_latency_percentile(name, 95.0),
            slo_attainment=metrics.slo_attainment(name),
            cpu_wait=waits["cpu"],
            disk_wait=waits["disk"],
            net_wait=waits["net"],
            bandwidth=bandwidth,
        ))
    return cells


@register_experiment(
    "classes",
    "Service classes: CPU discipline x MPL (machine-scheduler layer)",
    expectation=PAPER_EXPECTATION,
    accepts=("processes", "charge_quantum"),
)
def run(options: Optional[ExperimentOptions] = None,
        mpl_levels: Sequence[int] = MPL_LEVELS,
        disciplines: Sequence[str] = DISCIPLINES,
        nodes: int = 2, processors_per_node: int = 4,
        base_tuples: int = 2000,
        queries_per_cell: int = 18,
        interactive_slo: float = 0.3,
        overload: bool = True,
        io_sweep: bool = True,
        io_mpl_levels: Sequence[int] = IO_MPL_LEVELS,
        io_base_tuples: Optional[int] = None,
        net_sweep: bool = True,
        net_bandwidths: Sequence[float] = NET_BANDWIDTHS,
        charge_quantum: str = "tuple",
        processes: Optional[int] = None) -> ServiceClassSweepResult:
    """Sweep discipline × MPL for an interactive/batch mix.

    ``io_sweep`` adds the I/O-heavy disk-discipline comparison (same
    class mix, disk-dominated plan population, CPU pinned to FIFO) and
    ``net_sweep`` the finite-bandwidth net-discipline × bandwidth
    column.  ``charge_quantum`` selects the engine's charge granularity
    (``"batched"`` = macro-charges) and ``processes`` fans the
    independent cells across worker processes (None = sequential,
    0 = one per core) — results are identical either way.
    """
    options = options or ExperimentOptions()
    sweeps = sweep_specs(
        options, mpl_levels=mpl_levels, disciplines=disciplines,
        nodes=nodes, processors_per_node=processors_per_node,
        base_tuples=base_tuples, queries_per_cell=queries_per_cell,
        interactive_slo=interactive_slo, overload=overload,
        io_sweep=io_sweep, io_mpl_levels=io_mpl_levels,
        io_base_tuples=io_base_tuples, net_sweep=net_sweep,
        net_bandwidths=net_bandwidths, charge_quantum=charge_quantum,
    )
    scenarios = [cell for sweep in sweeps for cell in sweep.cells()]
    results = run_scenarios(scenarios, processes=processes,
                            collect=_collect_cells)

    buckets: dict[str, list[ClassCell]] = {
        "closed": [], "overload": [], "io": [], "net": [],
    }
    for scenario, cell_list in zip(scenarios, results):
        buckets[_cell_kind(scenario)].extend(cell_list)
    return ServiceClassSweepResult(
        cells=tuple(buckets["closed"]),
        overload_cells=tuple(buckets["overload"]),
        options=options,
        io_cells=tuple(buckets["io"]),
        net_cells=tuple(buckets["net"]),
    )


def main(argv: Optional[list] = None) -> int:  # pragma: no cover - CLI
    import argparse
    parser = argparse.ArgumentParser(
        description="Sweep CPU discipline x MPL for an interactive/batch mix."
    )
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--procs", type=int, default=4)
    parser.add_argument("--tuples", type=int, default=2000)
    parser.add_argument("--queries", type=int, default=18)
    parser.add_argument("--quick", action="store_true",
                        help="small grid for smoke runs")
    parser.add_argument("--parallel", type=int, default=None, metavar="N",
                        help="fan cells across N processes (0 = per core)")
    parser.add_argument("--quantum", choices=("tuple", "batched"),
                        default="tuple",
                        help="engine charge granularity (batched = "
                             "macro-charges)")
    args = parser.parse_args(argv)
    options = ExperimentOptions.quick() if args.quick else ExperimentOptions()
    kwargs = dict(nodes=args.nodes, processors_per_node=args.procs,
                  base_tuples=args.tuples, queries_per_cell=args.queries,
                  charge_quantum=args.quantum, processes=args.parallel)
    if args.quick:
        kwargs.update(nodes=2, processors_per_node=2, base_tuples=1000,
                      queries_per_cell=10, mpl_levels=(8,))
    result = run(options, **kwargs)
    print(result.table())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
