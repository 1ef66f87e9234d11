"""Greedy Clique Expansion baseline ([18] Lee, Reid, McDaid, Hurley).

GCE seeds communities with maximal cliques and greedily expands each
seed by the node that most improves the fitness

    F(S) = k_in(S) / (k_in(S) + k_out(S))^alpha

where k_in is twice the number of internal edges and k_out the number
of boundary edges.  Near-duplicate grown communities are discarded.

The paper *rejects* GCE for the AS-level graph because this fitness
"searches for sub-graphs where nodes have more internal connections
than external connections" — a property Internet communities (regional
transit meshes, the Tier-1 clique) do not have.  We implement it
anyway: the baseline-contrast benchmark demonstrates the rejection
empirically by showing GCE refuses to grow (or outright loses) the
Tier-1-mesh-like communities CPM finds.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from ..core.cliques import maximal_cliques
from ..graph.undirected import Graph

__all__ = ["GCEConfig", "greedy_clique_expansion"]


@dataclass(frozen=True)
class GCEConfig:
    """GCE parameters (defaults follow the reference implementation)."""

    min_clique_size: int = 4
    alpha: float = 1.0
    #: Overlap fraction above which a grown community is a duplicate.
    dedupe_eta: float = 0.6


def _fitness(k_in: int, degree_sum: int, alpha: float) -> float:
    """F(S) from k_in(S) and the degree sum of S (k_in + k_out)."""
    if degree_sum == 0:
        return 0.0
    return k_in / degree_sum**alpha


def _expand(graph: Graph, seed: frozenset, alpha: float) -> frozenset:
    """Grow ``seed`` while a frontier node v raises F; k_in and the degree
    sum run (v adds 2·|N(v) ∩ S| and deg(v)), so no candidate recounts S."""
    members = set(seed)
    k_in = 2 * graph.edge_count_within(members)
    degree_sum = sum(graph.degree(n) for n in members)
    current = _fitness(k_in, degree_sum, alpha)
    while True:
        frontier: set[Hashable] = set()
        for node in members:
            frontier |= graph.neighbors(node)
        frontier -= members
        best_node, best_fitness = None, current
        for node in frontier:
            fitness = _fitness(
                k_in + 2 * graph.degree_within(node, members),
                degree_sum + graph.degree(node),
                alpha,
            )
            if fitness > best_fitness:
                best_node, best_fitness = node, fitness
        if best_node is None:
            return frozenset(members)
        k_in += 2 * graph.degree_within(best_node, members)
        degree_sum += graph.degree(best_node)
        members.add(best_node)
        current = best_fitness


def greedy_clique_expansion(
    graph: Graph, config: GCEConfig | None = None
) -> list[frozenset]:
    """Run GCE; returns grown communities, largest first.

    Seeds are processed largest-clique-first; a grown community whose
    membership is mostly covered by an already-accepted community
    (Jaccard-style containment above ``dedupe_eta``) is dropped.
    """
    config = config or GCEConfig()
    seeds = sorted(
        maximal_cliques(graph, min_size=config.min_clique_size),
        key=lambda c: (-len(c), tuple(sorted(map(repr, c)))),
    )
    accepted: list[frozenset] = []
    for seed in seeds:
        grown = _expand(graph, seed, config.alpha)
        duplicate = any(
            len(grown & other) / len(grown) >= config.dedupe_eta for other in accepted
        )
        if not duplicate:
            accepted.append(grown)
    accepted.sort(key=len, reverse=True)
    return accepted
