"""Unit tests for the SP executor internals and the metrics objects."""

import pytest

from repro.catalog import SkewSpec
from repro.engine import (
    ExecutionMetrics,
    ExecutionParams,
    QueryExecutor,
    SynchronousPipeliningExecutor,
)
from repro.engine.metrics import StreamingWorkloadMetrics
from repro.optimizer import chain_total_order
from repro.serving import (AdmissionPolicy, ArrivalSpec, WorkloadDriver,
                           WorkloadSpec)
from repro.sim import MachineConfig
from repro.workloads import pipeline_chain_scenario, two_node_join_scenario


class TestExecutionMetrics:
    def test_idle_fraction_complements_busy(self):
        metrics = ExecutionMetrics(response_time=10.0, thread_count=4,
                                   thread_busy_time=30.0)
        assert metrics.idle_fraction() == pytest.approx(0.25)
        assert metrics.busy_fraction() == pytest.approx(0.75)

    def test_zero_response_time_safe(self):
        metrics = ExecutionMetrics()
        assert metrics.idle_fraction() == 0.0
        assert metrics.busy_fraction() == 0.0

    def test_busy_fraction_clamped(self):
        metrics = ExecutionMetrics(response_time=1.0, thread_count=1,
                                   thread_busy_time=2.0)
        assert metrics.busy_fraction() == 1.0
        assert metrics.idle_fraction() == 0.0

    def test_result_str_mentions_key_facts(self):
        from repro.engine import ExecutionResult
        result = ExecutionResult(
            plan_label="p", strategy="DP", config_label="2x4",
            response_time=1.25, metrics=ExecutionMetrics(
                response_time=1.25, thread_count=8, thread_busy_time=8.0,
                result_tuples=123,
            ),
        )
        text = str(result)
        assert "DP" in text and "2x4" in text and "123" in text


class TestSPExecutor:
    def test_rejects_multi_node(self):
        from repro.engine import StrategyError
        plan, _ = two_node_join_scenario()
        with pytest.raises(StrategyError):
            SynchronousPipeliningExecutor(
                plan, MachineConfig(nodes=2, processors_per_node=2)
            )

    def test_chains_execute_in_schedule_order(self):
        """SP runs chains one at a time in the plan's total order."""
        plan, _ = pipeline_chain_scenario(nodes=1, processors_per_node=2,
                                          base_tuples=500)
        order = chain_total_order(plan.operators)
        # The driving scan's chain is last (it probes every hash table).
        longest = max(plan.operators.chains, key=len)
        assert order[-1] == longest.chain_id

    def test_busy_time_bounded_by_response(self):
        plan, config = pipeline_chain_scenario(nodes=1, processors_per_node=4,
                                               base_tuples=1000)
        result = QueryExecutor(plan, config, strategy="SP").run()
        m = result.metrics
        assert 0 < m.thread_busy_time <= m.response_time * m.thread_count * 1.001

    def test_no_network_traffic(self):
        plan, config = pipeline_chain_scenario(nodes=1, processors_per_node=4,
                                               base_tuples=1000)
        result = QueryExecutor(plan, config, strategy="SP").run()
        assert result.metrics.messages_sent == 0
        assert result.metrics.loadbalance_bytes == 0

    def test_deterministic(self):
        plan, config = pipeline_chain_scenario(nodes=1, processors_per_node=4,
                                               base_tuples=1000)
        a = QueryExecutor(plan, config, strategy="SP").run()
        b = QueryExecutor(plan, config, strategy="SP").run()
        assert a.response_time == b.response_time
        assert a.metrics.result_tuples == b.metrics.result_tuples

    def test_more_processors_not_slower(self):
        plan2, config2 = pipeline_chain_scenario(nodes=1, processors_per_node=2,
                                                 base_tuples=2000)
        plan8, config8 = pipeline_chain_scenario(nodes=1, processors_per_node=8,
                                                 base_tuples=2000)
        t2 = QueryExecutor(plan2, config2, strategy="SP").run().response_time
        t8 = QueryExecutor(plan8, config8, strategy="SP").run().response_time
        assert t8 < t2

    def test_scan_count_matches_base_data(self):
        plan, config = pipeline_chain_scenario(nodes=1, processors_per_node=4,
                                               base_tuples=1500)
        result = QueryExecutor(plan, config, strategy="SP").run()
        expected = sum(r.cardinality for r in plan.graph.relations.values())
        assert result.metrics.tuples_scanned == expected


class TestStreamingWorkloadMetrics:
    def test_streaming_summary_matches_retained(self):
        """A mixed multi-query workload reports the same digest through
        ``StreamingWorkloadMetrics`` as through the retaining
        ``WorkloadMetrics``, without keeping per-query results."""
        plan, config = pipeline_chain_scenario(
            nodes=2, processors_per_node=2, base_tuples=600,
        )
        spec = WorkloadSpec(
            queries=8,
            arrival=ArrivalSpec(kind="poisson", rate=40.0),
            strategy="DP",
            policy=AdmissionPolicy(max_multiprogramming=4),
            seed=11,
        )
        params = ExecutionParams(
            skew=SkewSpec.uniform_redistribution(0.8), seed=11
        )
        retained = WorkloadDriver(plan, config, spec, params).run().metrics

        streaming_sink = StreamingWorkloadMetrics()
        streaming = WorkloadDriver(
            plan, config, spec, params, metrics=streaming_sink,
        ).run().metrics
        assert streaming is streaming_sink
        assert not streaming.completions  # nothing retained
        expected = dict(retained.summary())
        expected.pop("per_query")
        assert repr(streaming.summary()) == repr(expected)
        with pytest.raises(NotImplementedError):
            streaming.completions_of("default")
