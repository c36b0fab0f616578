"""Bushy join-tree search with top-k retention.

The paper runs each generated query "through our DBS3 query optimizer
[Lanzelotte93]" and keeps "the two best bushy operator trees" (Section
5.1.2).  This module provides an equivalent: exact dynamic programming over
connected sub-graphs, retaining the top ``k`` trees per subset, which for
``k = 2`` reproduces the two-plans-per-query population.

Because query graphs are trees (acyclic connected), the partition step is
cheap: a connected subset induces a subtree, and every way of splitting it
into two connected halves cuts exactly one induced edge ``e``, whose
side holding ``e.left`` is the subset's overlap with that side of the
whole graph (precomputed once per search).

The DP is incremental: each retained plan carries its ``(cost,
signature, cardinality)``, so costing a candidate join of two retained
halves is O(1) -- one cardinality product, one cost sum, one signature
concatenation -- and candidates are ranked as plain tuples.  Only the
top ``k`` of each subset become :class:`JoinNode` objects.  For 12
relations the whole search visits at most a few thousand subsets.

Build-side choice: both orientations of every join are explored; the cost
model then prefers hashing the smaller side, unless the global shape makes
the other orientation cheaper (that is what makes retained plans genuinely
bushy).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from ..query.graph import JoinEdge, QueryGraph
from .cost import CardinalityEstimator, CostModel
from .join_tree import BaseNode, JoinNode, JoinTree

__all__ = ["PlanCandidate", "BushySearch", "best_bushy_trees"]


@dataclass(frozen=True)
class PlanCandidate:
    """A join tree together with its estimated cost."""

    cost: float
    tree: JoinTree

    @property
    def signature(self) -> str:
        """Canonical tree string, the tie-break between equal costs."""
        return self.tree.signature


class BushySearch:
    """Exact DP over connected subsets of a tree-shaped query graph."""

    def __init__(self, graph: QueryGraph, cost_model: Optional[CostModel] = None,
                 estimator: Optional[CardinalityEstimator] = None, k: int = 2):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.graph = graph
        self.cost_model = cost_model or CostModel()
        self.estimator = estimator or CardinalityEstimator(graph)
        self.k = k

    # -- subset enumeration -------------------------------------------------

    def connected_subsets(self) -> list[frozenset[str]]:
        """All connected subsets, ordered by size then lexicographically."""
        neighbors = {
            name: tuple(self.graph.neighbors(name)) for name in self.graph.names
        }
        frontier = {frozenset((name,)) for name in self.graph.names}
        all_subsets = set(frontier)
        while frontier:
            grown = set()
            for subset in frontier:
                for name in subset:
                    for neighbor in neighbors[name]:
                        if neighbor not in subset:
                            bigger = subset | {neighbor}
                            if bigger not in all_subsets:
                                grown.add(bigger)
            all_subsets |= grown
            frontier = grown
        return sorted(all_subsets, key=lambda s: (len(s), tuple(sorted(s))))

    def _sides(self) -> list[tuple[JoinEdge, frozenset[str]]]:
        """Each edge with the relations on its ``left`` side of the graph."""
        sides = []
        for edge in self.graph.edges:
            side = {edge.left}
            stack = [edge.left]
            while stack:
                for neighbor in self.graph.neighbors(stack.pop()):
                    if neighbor != edge.right and neighbor not in side:
                        side.add(neighbor)
                        stack.append(neighbor)
            sides.append((edge, frozenset(side)))
        return sides

    # -- the DP ---------------------------------------------------------------

    def run(self) -> list[PlanCandidate]:
        """Top-``k`` bushy trees for the full relation set, cheapest first."""
        model = self.cost_model
        # subset -> its top k as (cost, cardinality, tree); the tree
        # carries its signature
        best: dict[frozenset[str], list[tuple[float, float, JoinTree]]] = {}
        for name in self.graph.names:
            leaf = BaseNode(self.graph.relation(name))
            card = self.estimator.cardinality(leaf)
            cost = (
                model.scan_instructions(card)
                + model.scan_io_seconds(card) * model.params.mips
            )
            best[leaf.relations] = [(cost, card, leaf)]

        sides = self._sides()
        for subset in self.connected_subsets():
            if len(subset) == 1:
                continue
            ranked = []
            for edge, side in sides:
                if edge.left not in subset or edge.right not in subset:
                    continue
                left = subset & side
                selectivity = edge.selectivity
                for l_cand in best[left]:
                    for r_cand in best[subset - left]:
                        for build, probe in ((l_cand, r_cand), (r_cand, l_cand)):
                            b_cost, b_card, b_tree = build
                            p_cost, p_card, p_tree = probe
                            out_card = b_card * p_card * selectivity
                            cost = b_cost + p_cost + (
                                model.build_instructions(b_card)
                                + model.probe_instructions(p_card, out_card)
                            )
                            signature = f"({b_tree.signature}>{p_tree.signature})"
                            ranked.append((cost, signature, out_card,
                                           b_tree, p_tree, selectivity))
            # Distinct splits and orientations give distinct top-level
            # build sets, so signatures never repeat and the key is total.
            ranked.sort(key=itemgetter(0, 1))
            best[subset] = [
                (cost, card, JoinNode(b_tree, p_tree, selectivity))
                for cost, _sig, card, b_tree, p_tree, selectivity
                in ranked[: self.k]
            ]

        full = frozenset(self.graph.names)
        return [PlanCandidate(cost, tree) for cost, _card, tree in best[full]]


def best_bushy_trees(graph: QueryGraph, k: int = 2,
                     cost_model: Optional[CostModel] = None,
                     estimator: Optional[CardinalityEstimator] = None) -> list[JoinTree]:
    """Convenience wrapper: the ``k`` best bushy join trees for ``graph``."""
    search = BushySearch(graph, cost_model=cost_model, estimator=estimator, k=k)
    return [candidate.tree for candidate in search.run()]
