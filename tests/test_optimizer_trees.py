"""Tests for join trees, the cost model, and the bushy search."""

import copy
import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Relation
from repro.optimizer import (
    BaseNode,
    BushySearch,
    CardinalityEstimator,
    CostModel,
    CostParams,
    JoinNode,
    best_bushy_trees,
    compile_plan,
    distort_cardinalities,
    is_left_deep,
    is_right_deep,
    is_zigzag,
    joins,
    leaves,
    tree_signature,
    validate_tree,
)
from repro.query import JoinEdge, QueryGenerator, QueryGraph
from repro.sim import MachineConfig, RandomStreams


def chain_graph(cards=(100, 200, 300, 400)):
    """R0 - R1 - R2 - R3 chain with unit-result selectivities."""
    relations = [Relation(f"R{i}", c) for i, c in enumerate(cards)]
    edges = []
    for i in range(len(cards) - 1):
        a, b = relations[i], relations[i + 1]
        sel = max(a.cardinality, b.cardinality) / (a.cardinality * b.cardinality)
        edges.append(JoinEdge(a.name, b.name, sel))
    return QueryGraph(relations, edges)


def leaf(graph, name):
    return BaseNode(graph.relation(name))


@st.composite
def tree_graphs(draw, min_relations=3, max_relations=7):
    """A random tree-shaped query graph: R{i} hangs off an earlier relation."""
    n = draw(st.integers(min_relations, max_relations))
    relations = [Relation(f"R{i}", draw(st.integers(10, 5000))) for i in range(n)]
    edges = [
        JoinEdge(f"R{draw(st.integers(0, i - 1))}", f"R{i}",
                 draw(st.floats(1e-4, 0.1)))
        for i in range(1, n)
    ]
    return QueryGraph(relations, edges)


@st.composite
def join_trees(draw, max_relations=8):
    """A random bushy tree: repeatedly join two random pending subtrees."""
    n = draw(st.integers(1, max_relations))
    pending = [BaseNode(Relation(f"R{i}", draw(st.integers(1, 1000))))
               for i in range(n)]
    while len(pending) > 1:
        build = pending.pop(draw(st.integers(0, len(pending) - 1)))
        probe = pending.pop(draw(st.integers(0, len(pending) - 1)))
        pending.append(JoinNode(build, probe, draw(st.floats(1e-4, 1.0))))
    return pending[0]


def all_bushy_trees(graph):
    """Every cross-product-free join tree of ``graph``, both orientations."""
    memo = {}

    def trees(subset):
        if subset in memo:
            return memo[subset]
        if len(subset) == 1:
            (name,) = subset
            found = [leaf(graph, name)]
        else:
            found = []
            for size in range(1, len(subset)):
                for chosen in itertools.combinations(sorted(subset), size):
                    build_set = frozenset(chosen)
                    probe_set = subset - build_set
                    if not (graph.is_connected_subset(build_set)
                            and graph.is_connected_subset(probe_set)):
                        continue
                    (edge,) = graph.connecting_edges(build_set, probe_set)
                    for build in trees(build_set):
                        for probe in trees(probe_set):
                            found.append(JoinNode(build, probe, edge.selectivity))
        memo[subset] = found
        return found

    return trees(frozenset(graph.names))


def recursive_relations(tree):
    if isinstance(tree, BaseNode):
        return frozenset((tree.relation.name,))
    return recursive_relations(tree.build) | recursive_relations(tree.probe)


def recursive_signature(tree):
    if isinstance(tree, BaseNode):
        return tree.relation.name
    return f"({recursive_signature(tree.build)}>{recursive_signature(tree.probe)})"


def rebuilt(tree):
    """A structurally equal tree made of fresh nodes."""
    if isinstance(tree, BaseNode):
        return BaseNode(tree.relation)
    return JoinNode(rebuilt(tree.build), rebuilt(tree.probe), tree.selectivity)


def assert_cached_fields_hold(tree):
    for node in [*leaves(tree), *joins(tree)]:
        assert node.relations == recursive_relations(node)
        assert node.signature == recursive_signature(node)
        assert tree_signature(node) == node.signature


# ---------------------------------------------------------------------------
# Join tree structure
# ---------------------------------------------------------------------------

class TestJoinTree:
    def test_leaves_and_joins_traversal(self):
        graph = chain_graph()
        tree = JoinNode(
            JoinNode(leaf(graph, "R0"), leaf(graph, "R1"),
                     graph.edge_between("R0", "R1").selectivity),
            JoinNode(leaf(graph, "R2"), leaf(graph, "R3"),
                     graph.edge_between("R2", "R3").selectivity),
            graph.edge_between("R1", "R2").selectivity,
        )
        assert [leaf_node.relation.name
                for leaf_node in leaves(tree)] == ["R0", "R1", "R2", "R3"]
        assert len(list(joins(tree))) == 3
        assert tree.relations == frozenset(["R0", "R1", "R2", "R3"])

    def test_overlapping_children_rejected(self):
        graph = chain_graph()
        with pytest.raises(ValueError):
            JoinNode(leaf(graph, "R0"), leaf(graph, "R0"), 0.1)

    def test_shape_predicates(self):
        graph = chain_graph()
        sel01 = graph.edge_between("R0", "R1").selectivity
        sel12 = graph.edge_between("R1", "R2").selectivity
        sel23 = graph.edge_between("R2", "R3").selectivity
        # Left-deep: probe is always a base relation.
        left_deep = JoinNode(
            JoinNode(JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), sel01),
                     leaf(graph, "R2"), sel12),
            leaf(graph, "R3"), sel23,
        )
        assert is_left_deep(left_deep)
        assert is_zigzag(left_deep)
        assert not is_right_deep(left_deep)
        # Right-deep: build is always a base relation.
        right_deep = JoinNode(
            leaf(graph, "R0"),
            JoinNode(leaf(graph, "R1"),
                     JoinNode(leaf(graph, "R2"), leaf(graph, "R3"), sel23),
                     sel12),
            sel01,
        )
        assert is_right_deep(right_deep)
        assert not is_left_deep(right_deep)
        # Balanced bushy: neither.
        bushy = JoinNode(
            JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), sel01),
            JoinNode(leaf(graph, "R2"), leaf(graph, "R3"), sel23),
            sel12,
        )
        assert not is_left_deep(bushy)
        assert not is_right_deep(bushy)
        assert not is_zigzag(bushy)

    def test_validate_tree_accepts_valid(self):
        graph = chain_graph()
        tree = JoinNode(
            JoinNode(leaf(graph, "R0"), leaf(graph, "R1"),
                     graph.edge_between("R0", "R1").selectivity),
            JoinNode(leaf(graph, "R2"), leaf(graph, "R3"),
                     graph.edge_between("R2", "R3").selectivity),
            graph.edge_between("R1", "R2").selectivity,
        )
        validate_tree(tree, graph)  # should not raise

    def test_validate_tree_rejects_cross_product(self):
        graph = chain_graph()
        # R0 joined with R2 crosses no predicate edge.
        bad = JoinNode(leaf(graph, "R0"), leaf(graph, "R2"), 0.001)
        from repro.query import GraphError
        with pytest.raises(GraphError):
            validate_tree(
                JoinNode(bad,
                         JoinNode(leaf(graph, "R1"), leaf(graph, "R3"), 0.001),
                         0.001),
                graph,
            )

    def test_validate_tree_rejects_missing_relation(self):
        graph = chain_graph()
        partial = JoinNode(leaf(graph, "R0"), leaf(graph, "R1"),
                           graph.edge_between("R0", "R1").selectivity)
        from repro.query import GraphError
        with pytest.raises(GraphError):
            validate_tree(partial, graph)

    def test_non_positive_selectivity_rejected(self):
        graph = chain_graph()
        for selectivity in (0.0, -0.5):
            with pytest.raises(ValueError, match="selectivity must be positive"):
                JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), selectivity)

    def test_overlapping_composite_children_rejected(self):
        graph = chain_graph()
        sel = graph.edge_between("R0", "R1").selectivity
        pair = JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), sel)
        with pytest.raises(ValueError, match="children overlap on \\['R1'\\]"):
            JoinNode(pair, leaf(graph, "R1"), sel)

    def test_cached_fields_take_no_part_in_equality(self):
        for cls in (BaseNode, JoinNode):
            cached = {f.name for f in dataclasses.fields(cls) if not f.compare}
            assert cached == {"relations", "signature"}
            assert not any(f.init or f.repr for f in dataclasses.fields(cls)
                           if f.name in cached)

    @given(tree=join_trees())
    @settings(max_examples=40, deadline=None)
    def test_property_cached_fields_match_recursive_definitions(self, tree):
        assert_cached_fields_hold(tree)
        twin = rebuilt(tree)
        assert twin is not tree
        assert twin == tree
        assert hash(twin) == hash(tree)
        assert twin.signature == tree.signature

    def test_compiled_plan_survives_pickle_and_deepcopy(self):
        # Sweep workers receive plans pickled; the cached fields must
        # travel with the nodes rather than be rebuilt or lost.
        graph = chain_graph()
        tree = best_bushy_trees(graph, k=1)[0]
        plan = compile_plan(graph, tree,
                            MachineConfig(nodes=2, processors_per_node=2))
        for clone in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan)):
            assert clone.join_tree is not plan.join_tree
            assert clone.join_tree == plan.join_tree
            assert clone.join_tree.signature == plan.join_tree.signature
            assert clone.join_tree.relations == frozenset(graph.names)
            assert_cached_fields_hold(clone.join_tree)

    def test_tree_signature_distinguishes_orientation(self):
        graph = chain_graph()
        sel = graph.edge_between("R0", "R1").selectivity
        a = JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), sel)
        b = JoinNode(leaf(graph, "R1"), leaf(graph, "R0"), sel)
        assert tree_signature(a) != tree_signature(b)


# ---------------------------------------------------------------------------
# Cardinality estimation and distortion
# ---------------------------------------------------------------------------

class TestEstimation:
    def test_base_cardinality(self):
        graph = chain_graph()
        estimator = CardinalityEstimator(graph)
        assert estimator.cardinality(leaf(graph, "R2")) == 300

    def test_join_cardinality(self):
        graph = chain_graph()
        estimator = CardinalityEstimator(graph)
        sel = graph.edge_between("R0", "R1").selectivity
        tree = JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), sel)
        assert estimator.cardinality(tree) == pytest.approx(100 * 200 * sel)

    def test_distortion_within_bounds(self):
        graph = chain_graph()
        rng = random.Random(0)
        for rate in (0.05, 0.1, 0.2, 0.3):
            distorted = distort_cardinalities(graph, rate, rng)
            for name, relation in graph.relations.items():
                low = relation.cardinality * (1 - rate)
                high = relation.cardinality * (1 + rate)
                assert low - 1e-9 <= distorted[name] <= high + 1e-9

    def test_distortion_zero_is_exact(self):
        graph = chain_graph()
        distorted = distort_cardinalities(graph, 0.0, random.Random(0))
        for name, relation in graph.relations.items():
            assert distorted[name] == relation.cardinality

    def test_distortion_rate_out_of_range(self):
        with pytest.raises(ValueError):
            distort_cardinalities(chain_graph(), 1.5, random.Random(0))

    def test_estimator_with_overrides(self):
        graph = chain_graph()
        estimator = CardinalityEstimator(graph, {"R0": 1000.0, "R1": 200.0,
                                                 "R2": 300.0, "R3": 400.0})
        assert estimator.cardinality(leaf(graph, "R0")) == 1000.0


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

class TestCostModel:
    def test_operator_costs_are_linear(self):
        model = CostModel()
        assert model.scan_instructions(1000) == 1000 * 300
        assert model.build_instructions(1000) == 1000 * 200
        assert model.probe_instructions(1000, 500) == 1000 * 100 + 500 * 100

    def test_tree_cost_positive_and_monotone_in_size(self):
        small = chain_graph((100, 100, 100, 100))
        large = chain_graph((10_000, 10_000, 10_000, 10_000))
        model = CostModel()

        def any_tree(graph):
            sel01 = graph.edge_between("R0", "R1").selectivity
            sel12 = graph.edge_between("R1", "R2").selectivity
            sel23 = graph.edge_between("R2", "R3").selectivity
            return JoinNode(
                JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), sel01),
                JoinNode(leaf(graph, "R2"), leaf(graph, "R3"), sel23),
                sel12,
            )

        cost_small = model.join_tree_cost(any_tree(small), graph=small)
        cost_large = model.join_tree_cost(any_tree(large), graph=large)
        assert 0 < cost_small < cost_large

    def test_instructions_time(self):
        params = CostParams(mips=40e6)
        assert params.instructions_time(40e6) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Bushy search
# ---------------------------------------------------------------------------

class TestBushySearch:
    def test_returns_k_valid_trees(self):
        graph = chain_graph()
        trees = best_bushy_trees(graph, k=2)
        assert len(trees) == 2
        for tree in trees:
            validate_tree(tree, graph)

    def test_top1_is_cheapest(self):
        graph = chain_graph()
        search = BushySearch(graph, k=4)
        candidates = search.run()
        costs = [c.cost for c in candidates]
        assert costs == sorted(costs)

    def test_candidates_are_distinct(self):
        graph = chain_graph()
        candidates = BushySearch(graph, k=4).run()
        signatures = [c.signature for c in candidates]
        assert len(signatures) == len(set(signatures))

    def test_connected_subsets_of_chain(self):
        # A path of n nodes has n*(n+1)/2 connected subpaths.
        graph = chain_graph()
        subsets = BushySearch(graph).connected_subsets()
        assert len(subsets) == 4 * 5 // 2

    def test_single_join_builds_smaller_side(self):
        relations = [Relation("Small", 100), Relation("Big", 10_000)]
        edges = [JoinEdge("Small", "Big", 1e-4)]
        graph = QueryGraph(relations, edges)
        best = best_bushy_trees(graph, k=1)[0]
        assert isinstance(best, JoinNode)
        assert best.build.relations == frozenset(["Small"])

    def test_search_on_generated_query_is_feasible(self):
        generator = QueryGenerator(RandomStreams(5))
        graph = generator.generate(0)
        trees = best_bushy_trees(graph, k=2)
        assert len(trees) == 2
        for tree in trees:
            validate_tree(tree, graph)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            BushySearch(chain_graph(), k=0)

    @given(graph=tree_graphs())
    @settings(max_examples=25, deadline=None)
    def test_property_search_matches_exhaustive_oracle(self, graph):
        # Ground truth: cost every bushy tree, both orientations, with the
        # plain recursive cost model, and rank them.
        model = CostModel()
        estimator = CardinalityEstimator(graph)
        oracle = sorted(
            (model.join_tree_cost(tree, estimator=estimator), tree_signature(tree))
            for tree in all_bushy_trees(graph)
        )
        for k in (1, 2, 3):
            found = BushySearch(graph, cost_model=model, k=k).run()
            assert [c.cost for c in found] == pytest.approx(
                [cost for cost, _sig in oracle[:k]], rel=1e-9)
            if oracle[1][0] != pytest.approx(oracle[0][0], rel=1e-9):
                assert found[0].signature == oracle[0][1]

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_property_search_valid_on_random_queries(self, seed):
        from repro.query import QueryGeneratorConfig
        generator = QueryGenerator(
            RandomStreams(seed),
            QueryGeneratorConfig(relations_per_query=6, scale=0.01),
        )
        graph = generator.generate(0)
        candidates = BushySearch(graph, k=2).run()
        assert 1 <= len(candidates) <= 2
        for candidate in candidates:
            validate_tree(candidate.tree, graph)
            assert candidate.cost > 0
