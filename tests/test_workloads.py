"""Tests for the workload builder and the canned scenarios."""

import hashlib

import pytest

from repro.optimizer import BushySearch, CostModel, is_right_deep, validate_tree
from repro.sim import MachineConfig
from repro.workloads import (
    WorkloadConfig,
    build_workload,
    pipeline_chain_scenario,
    two_node_join_scenario,
)
from repro.workloads.plans import _intermediate_bytes, build_query_population


SMALL = WorkloadConfig(queries=3)


class TestWorkloadBuilder:
    def test_plans_per_query(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        workload = build_workload(config, SMALL)
        assert len(workload.plans) == 3 * 2
        assert len(workload.accepted_queries) == 3

    def test_sequential_band_respected(self):
        from repro.optimizer.cost import CostModel
        cost_model = CostModel()
        population = build_query_population(SMALL, cost_model)
        low, high = SMALL.effective_band
        from repro.optimizer.search import BushySearch
        for graph, trees, _ in population.entries:
            for tree in trees:
                validate_tree(tree, graph)
            candidates = BushySearch(graph, cost_model=cost_model, k=2).run()
            for candidate in candidates:
                seq = candidate.cost / cost_model.params.mips
                assert low <= seq <= high

    def test_intermediate_ratio_respected(self):
        population = build_query_population(SMALL)
        for graph, trees, _ in population.entries:
            for tree in trees:
                ratio = _intermediate_bytes(graph, tree) / graph.total_base_bytes()
                assert ratio <= SMALL.max_intermediate_ratio

    def test_deterministic_across_calls(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        a = build_workload(config, SMALL)
        b = build_workload(config, SMALL)
        assert [p.label for p in a.plans] == [p.label for p in b.plans]

    def test_population_cached_across_machines(self):
        pop1 = build_query_population(SMALL)
        pop2 = build_query_population(SMALL)
        assert pop1 is pop2
        # Different machines share the query population but get their own
        # placements.
        c1 = MachineConfig(nodes=1, processors_per_node=4)
        c2 = MachineConfig(nodes=4, processors_per_node=2)
        w1 = build_workload(c1, SMALL)
        w2 = build_workload(c2, SMALL)
        assert w1.accepted_queries == w2.accepted_queries
        assert w1.plans[0].node_set == (0,)
        assert w2.plans[0].node_set == (0, 1, 2, 3)

    def test_the_two_plans_differ(self):
        from repro.optimizer import tree_signature
        config = MachineConfig(nodes=1, processors_per_node=2)
        workload = build_workload(config, SMALL)
        for i in range(0, len(workload.plans), 2):
            a, b = workload.plans[i], workload.plans[i + 1]
            assert tree_signature(a.join_tree) != tree_signature(b.join_tree)

    def test_paper_population_is_pinned(self):
        # The paper's 20 queries, two best bushy trees each: every tree's
        # signature and its search cost, bit for bit.  A change here means
        # the optimizer's output moved, and with it every figure.
        config = WorkloadConfig()
        cost_model = CostModel()
        digest = hashlib.sha256()
        for graph, trees, index in build_query_population(config).entries:
            found = BushySearch(graph, cost_model=cost_model,
                                k=config.plans_per_query).run()
            assert tuple(c.tree for c in found) == trees
            digest.update(f"{index}\n".encode())
            for candidate in found:
                digest.update(
                    f"{candidate.signature} {candidate.cost.hex()}\n".encode())
        assert digest.hexdigest() == (
            "6919d3cefd3e85d875d4ddccebe8267160c2fb7109c11f349b929b856be1453b")

    def test_invalid_config_detected(self):
        with pytest.raises(RuntimeError):
            build_workload(
                MachineConfig(nodes=1, processors_per_node=2),
                # An impossible band: nothing can be accepted.
                WorkloadConfig(queries=1, band=(1e12, 2e12),
                               max_candidates=20),
            )


class TestScenarios:
    def test_two_node_scenario_structure(self):
        plan, config = two_node_join_scenario()
        assert config.nodes == 2
        assert len(plan.operators.scans()) == 2
        assert len(plan.operators.probes()) == 1

    def test_pipeline_chain_scenario_right_deep(self):
        plan, config = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                               base_tuples=1000)
        assert is_right_deep(plan.join_tree)

    def test_pipeline_chain_length_parameterized(self):
        plan, _ = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                          base_tuples=1000, chain_joins=6)
        longest = max(plan.operators.chains, key=len)
        assert len(longest) == 7

    def test_pipeline_chain_rejects_zero_joins(self):
        with pytest.raises(ValueError):
            pipeline_chain_scenario(chain_joins=0)

    def test_pipeline_chain_intermediates_controlled(self):
        plan, _ = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                          base_tuples=1000)
        for probe in plan.operators.probes():
            assert probe.output_cardinality == pytest.approx(1000, rel=0.01)
