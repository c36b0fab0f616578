"""Query executor: plan + machine + strategy -> execution result.

The public entry point of the engine.  For DP and FP it builds an
:class:`~repro.engine.context.ExecutionContext` (queues, channels,
schedulers, threads), seeds the trigger activations and runs the
simulation to completion; SP dispatches to its own executor.

Example::

    from repro.engine import QueryExecutor
    result = QueryExecutor(plan, config, strategy="DP").run()
    print(result.response_time, result.metrics.idle_fraction())
"""

from __future__ import annotations

import copy
from typing import Optional, Union

from ..optimizer.plan import ParallelExecutionPlan
from ..sim.machine import MachineConfig
from .context import ExecutionContext, ExecutionDeadlock
from .metrics import ExecutionResult
from .params import ExecutionParams
from .scheduler import NodeScheduler
from .strategies.base import ExecutionStrategy, StrategyError, make_strategy
from .strategies.sp import SynchronousPipeliningExecutor
from .thread_exec import ExecutionThread

__all__ = ["QueryExecutor"]


class QueryExecutor:
    """Runs one parallel execution plan on one simulated machine."""

    def __init__(self, plan: ParallelExecutionPlan, config: MachineConfig,
                 strategy: Union[str, ExecutionStrategy] = "DP",
                 params: Optional[ExecutionParams] = None):
        self.plan = plan
        self.config = config
        self.params = params or ExecutionParams()
        if isinstance(strategy, str):
            self.strategy_name = strategy.upper()
        else:
            self.strategy_name = strategy.name
            self._strategy_instance = strategy
        max_node = max(plan.node_set)
        if max_node >= config.nodes:
            raise ValueError(
                f"plan references node {max_node} but the machine has only "
                f"{config.nodes} nodes"
            )

    def run(self) -> ExecutionResult:
        """Execute to completion; raises :class:`ExecutionDeadlock` if the
        simulation wedges (which would indicate an engine bug)."""
        if self.strategy_name == "SP":
            return SynchronousPipeliningExecutor(
                self.plan, self.config, self.params
            ).run()

        context = self.launch()
        context.env.run()
        if not context.done:
            context.assert_all_terminated()
            raise ExecutionDeadlock("simulation drained without finishing")

        return self.collect(context)

    def launch(self, substrate=None, query_id: int = 0,
               service_class=None) -> ExecutionContext:
        """Build and start an execution, without running the simulation.

        Creates the context (optionally on a shared ``substrate`` so
        several queries contend for one machine — see
        :mod:`repro.serving`), wires the per-node schedulers, creates one
        thread per processor (Section 3.1: one thread per processor *per
        query*), seeds the trigger activations and starts the threads.
        ``service_class`` tags the query's CPU charges with its
        weight/priority for non-FIFO scheduling disciplines.  The caller
        decides when the environment runs; completion is observable on
        ``context.finished``.
        """
        if self.strategy_name == "SP":
            raise StrategyError(
                "SP bypasses the activation engine; use "
                "SynchronousPipeliningExecutor.launch for shared-substrate runs"
            )
        strategy = getattr(self, "_strategy_instance", None)
        if strategy is None:
            strategy = make_strategy(self.strategy_name)

        context = ExecutionContext(self.plan, self.config, self.params,
                                   substrate=substrate, query_id=query_id,
                                   service_class=service_class)
        context.strategy = strategy

        # Per-node schedulers (message handling, LB, end detection).
        for node in context.nodes:
            NodeScheduler(context, node)

        # One thread per processor per query (Section 3.1).
        for node in context.nodes:
            for index in range(self.config.processors_per_node):
                thread = ExecutionThread(context, node, index)
                node.threads.append(thread)

        strategy.initialize(context)
        context.seed_triggers()
        for node in context.nodes:
            for thread in node.threads:
                thread.start()
        return context

    def collect(self, context: ExecutionContext) -> ExecutionResult:
        metrics = context.metrics
        metrics.thread_count = sum(len(n.threads) for n in context.nodes)
        # Derived (not live-accumulated): per-thread busy totals sum in a
        # fixed order, so both charge quantums produce the identical float.
        metrics.thread_busy_time = sum(
            thread.busy_time for node in context.nodes
            for thread in node.threads
        )
        metrics.result_tuples = context.result_sink.tuples
        metrics.data_activations = sum(
            channel.activations_emitted for channel in context.channels.values()
        )
        network = context.network
        metrics.messages_sent = network.messages_sent
        metrics.bytes_sent = network.bytes_sent
        metrics.pipeline_bytes = network.bytes_for("pipeline")
        metrics.loadbalance_bytes = network.bytes_for("loadbalance")
        metrics.control_bytes = network.bytes_for("control")
        metrics.loadbalance_messages = network.messages_for("loadbalance")
        metrics.memory_high_watermark = max(
            (n.store.high_watermark for n in context.nodes), default=0
        )
        return ExecutionResult(
            plan_label=self.plan.label,
            strategy=self.strategy_name,
            config_label=self.config.describe(),
            response_time=context.response_time,
            # A snapshot: under the serving layer this runs when the root
            # terminates, and threads still finishing an in-flight charge
            # go on adding CPU contention to the live context metrics.
            metrics=copy.copy(metrics),
        )
