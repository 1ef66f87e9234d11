"""Degeneracy-order shard planning for the sharded CPM pipeline.

The Bron–Kerbosch outer loop over a degeneracy-ordered graph is a
disjoint union of per-vertex subtrees: vertex ``v`` enumerates exactly
the maximal cliques whose lowest-ranked member is ``v`` (candidates are
``N(v)`` after ``v``, excluded set is ``N(v)`` before ``v``).  Any
partition of the vertex set therefore shards enumeration with no
duplicated and no missed cliques — the only coupling between shards is
read-only access to the forward-neighborhood closure.

Planning is a classic makespan problem: subtree cost is superlinear in
the forward degree (the recursion branches inside ``N⁺(v)``), so the
planner scores each vertex ``1 + f(v)²`` and assigns vertices to the
least-loaded shard in decreasing cost order (LPT greedy, deterministic
tie-breaks).  Owned vertex lists are kept ascending so the driver can
reassemble per-vertex results in global degeneracy order and reproduce
the serial emission sequence byte for byte.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = [
    "ShardPlan",
    "plan_shards",
    "prefix_count",
    "resolve_shards",
]


def resolve_shards(shards: int | str, workers: int) -> int:
    """Normalise a ``--shards`` request to a positive shard count.

    ``"auto"`` matches the worker count (one shard per worker keeps the
    pool busy without over-splitting the payload); integers and integer
    strings pass through after validation.
    """
    if isinstance(shards, str):
        text = shards.strip().lower()
        if text == "auto":
            return max(1, workers)
        try:
            shards = int(text)
        except ValueError:
            raise ValueError(
                f"shards must be a positive integer or 'auto', got {shards!r}"
            ) from None
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return int(shards)


@dataclass(frozen=True)
class ShardPlan:
    """A balanced assignment of degeneracy-ordered vertices to shards.

    * ``owners[s]`` — the vertices shard ``s`` enumerates, ascending;
    * ``costs[s]`` — the shard's summed cost estimate (load balance).
    """

    n_shards: int
    owners: tuple[tuple[int, ...], ...]
    costs: tuple[int, ...]

    @property
    def n_vertices(self) -> int:
        return sum(len(owned) for owned in self.owners)

    def imbalance(self) -> float:
        """max/mean shard cost — 1.0 is a perfectly level plan."""
        if not self.costs or not any(self.costs):
            return 1.0
        mean = sum(self.costs) / len(self.costs)
        return max(self.costs) / mean if mean else 1.0


def plan_shards(forward_degrees: Sequence[int], n_shards: int) -> ShardPlan:
    """LPT-balance vertices into ``n_shards`` shards by subtree cost.

    ``forward_degrees[v]`` is the number of neighbors ranked after
    ``v`` in the degeneracy order.  Deterministic: costs tie-break on
    vertex id, loads tie-break on shard id.
    """
    n = len(forward_degrees)
    n_shards = max(1, min(n_shards, n) if n else 1)
    costs = [1 + f * f for f in forward_degrees]
    by_cost = sorted(range(n), key=lambda v: (-costs[v], v))
    heap: list[tuple[int, int]] = [(0, s) for s in range(n_shards)]
    owners: list[list[int]] = [[] for _ in range(n_shards)]
    for v in by_cost:
        load, s = heapq.heappop(heap)
        owners[s].append(v)
        heapq.heappush(heap, (load + costs[v], s))
    return ShardPlan(
        n_shards=n_shards,
        owners=tuple(tuple(sorted(owned)) for owned in owners),
        costs=tuple(sum(costs[v] for v in owned) for owned in owners),
    )


def prefix_count(sorted_desc: Sequence[int], k: int) -> int:
    """How many leading entries of a descending sequence are >= k."""
    lo, hi = 0, len(sorted_desc)
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_desc[mid] >= k:
            lo = mid + 1
        else:
            hi = mid
    return lo
