"""Unit tests for the SP executor internals and the metrics objects."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec
from repro.api.facade import build_plans
from repro.engine import (
    ExecutionMetrics,
    ExecutionResult,
    QueryExecutor,
    SynchronousPipeliningExecutor,
)
from repro.engine.metrics import QueryCompletion, WorkloadMetrics
from repro.optimizer import chain_total_order
from repro.serving import WorkloadDriver
from repro.sim import MachineConfig
from repro.workloads import pipeline_chain_scenario, two_node_join_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


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


class TestWorkloadMetricsRetention:
    def test_unretained_summary_matches_retained(self):
        """A two-class run with sheds reports the same digest with
        ``retain=False`` as with the default, minus ``per_query``."""
        scenario = ScenarioSpec.from_json(
            (SCENARIO_DIR / "service_classes.json").read_text()
        )
        retained = _drive(scenario)
        sink = WorkloadMetrics(retain=False)
        unretained = _drive(scenario, sink)
        assert unretained is sink
        assert len(retained.class_names()) == 2 and retained.shed_count > 0
        expected = dict(retained.summary())
        expected.pop("per_query")
        assert repr(unretained.summary()) == repr(expected)
        assert unretained.per_class_summary() == retained.per_class_summary()
        assert unretained.shed_reason_counts() == retained.shed_reason_counts()
        for name in retained.class_names():
            assert (unretained.class_resource_waits(name)
                    == retained.class_resource_waits(name))

    def test_results_stop_changing_once_recorded(self):
        """Threads still finishing a charge after their query's root
        terminated queue for processors; that wait must not reach the
        recorded result, or the totals taken at record time would
        disagree with the completions read at the end of the run."""
        scenario = ScenarioSpec.from_dict({
            "cluster": {"machines": {"nodes": 2, "processors_per_node": 2}},
            "params": {
                "disk": {"latency": 0.00017, "seek_time": 5e-05},
                "network": {"transmission_delay": 5e-06},
                "steal_cooldown": 2e-05,
                "skew": {"redistribution": 0.8},
                "seed": 1,
            },
            "workload": {"queries": 4, "arrival": {"kind": "closed"},
                         "policy": {"max_multiprogramming": 4}, "seed": 1},
            "plans": {"kind": "pipeline_chain", "base_tuples": 2000},
        })
        retained = _drive(scenario)
        assert retained.total_cpu_contention() > 0.0
        assert retained.total_cpu_contention() == sum(
            c.result.metrics.cpu_contention_time for c in retained.completions)

    def test_unretained_completion_readers_raise(self):
        metrics = WorkloadMetrics(retain=False)
        metrics.record(_completion(0, 0.0, 0.5, 1.0))
        for read in (lambda: metrics.completions,
                     lambda: metrics.completions_of("default"),
                     metrics.steal_bytes_per_query):
            with pytest.raises(RuntimeError, match="retain=False"):
                read()
        assert metrics.completed == 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(0, 10), st.floats(0, 10), st.floats(0, 10),
                  st.floats(0, 1), st.sampled_from(["a", "b"]),
                  st.integers(0, 10**6)),
        max_size=12,
    ))
    def test_property_totals_equal_sums_over_completions(self, rows):
        """Every running total is the value ``sum()`` over the completion
        list gives, added in record order (an empty run's ``0`` too)."""
        metrics = WorkloadMetrics()
        for qid, (arrival, wait, run, cpu, name, steal) in enumerate(rows):
            metrics.record(_completion(qid, arrival, arrival + wait,
                                       arrival + wait + run, cpu=cpu,
                                       service_class=name, steal=steal))
        done = metrics.completions
        assert repr(metrics.total_cpu_contention()) == repr(sum(
            c.result.metrics.cpu_contention_time for c in done))
        assert metrics.total_steal_bytes() == sum(c.steal_bytes for c in done)
        assert metrics.max_queueing_delay() == max(
            (c.queueing_delay for c in done), default=0.0)
        n = len(done)
        assert metrics.mean_queueing_delay() == (
            sum(c.queueing_delay for c in done) / n if n else 0.0)
        assert metrics.mean_execution_time() == (
            sum(c.execution_time for c in done) / n if n else 0.0)
        for name in metrics.class_names():
            mine = metrics.completions_of(name)
            assert metrics.per_class_summary()[name]["mean_queueing_delay"] == (
                sum(c.queueing_delay for c in mine) / len(mine))
            assert metrics.class_resource_waits(name)["cpu"] == (
                sum(c.result.metrics.cpu_contention_time for c in mine)
                / len(mine))


def _drive(scenario, metrics=None):
    return WorkloadDriver(
        list(build_plans(scenario)), scenario.cluster.machines,
        scenario.workload, scenario.params, metrics=metrics,
    ).run().metrics


def _completion(query_id, arrival, start, end, *, cpu=0.0,
                service_class="default", steal=0):
    metrics = ExecutionMetrics(cpu_contention_time=cpu,
                               loadbalance_bytes=steal)
    result = ExecutionResult(plan_label="p", strategy="DP", config_label="1x1",
                             response_time=end - start, metrics=metrics)
    return QueryCompletion(query_id=query_id, plan_label="p", strategy="DP",
                           arrival_time=arrival, start_time=start,
                           completion_time=end, result=result,
                           service_class=service_class)
