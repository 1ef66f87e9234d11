"""Overlap counting and packed percolation buffers.

The overlap phase dominates LP-CPM runtime (the paper's Section 3
profile and ours agree), so the pipeline restructures it around
three observations:

* **Truncated counting.**  Maximal cliques cannot nest, so a 2-clique
  shares at most one node with any other clique — its pairs never
  reach overlap 2 and can never merge anything at order k >= 3.
  Counting is therefore restricted to cliques of size >= 3, which on
  AS-like graphs removes the long tail of edge-cliques from the
  quadratic co-occurrence loop.
* **Chain unions for k = 2.**  At order 2 the threshold is overlap
  >= 1, i.e. "shares a node": connectivity is unchanged if, instead of
  all pairs, we union only *consecutive* clique ids in each node's
  inverted-index list.  That covers every clique (including the
  2-cliques excluded from counting) with a linear number of unions.
* **Activation orders.**  A counted pair (i, j, o) with j > i (so
  ``sizes[j] <= sizes[i]``) participates exactly at orders
  ``k <= k_act = min(sizes[j], o + 1)``.  Bucketing pairs by ``k_act``
  lets one percolation sweep run orders descending, applying each pair once
  (see :func:`~.percolation.percolate_wire`).

Pairs are packed as ``(i << shift) | j`` words whose little-endian
``<i8`` bytes go into checkpoints and the on-disk cache as flat memory
instead of a pickled list of tuples.  :class:`OverlapWire` is that
bundle; :func:`count_overlaps`, the one counter both the batch
pipeline and :class:`~repro.incremental.CPMSession` open through,
builds it in numpy passes over bounded chunks of pair words
(:func:`~.blocks.count_overlaps_blocks`).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..obs.tracing import NULL_TRACER, Tracer
from ..shard.plan import prefix_count

__all__ = [
    "OverlapWire",
    "chain_pairs",
    "count_overlaps",
]


@dataclass
class OverlapWire:
    """The overlap phase's output, packed for checkpoints and caching.

    Every buffer is ``bytes`` (an ``array('q')``'s raw memory), so
    pickling the wire into a checkpoint or the clique cache is a
    memcpy, not a per-element traversal.

    * ``buckets`` maps an activation order ``k_act`` to the packed
      pairs that first become usable at that order;
    * ``chains`` holds the consecutive-id pairs that reproduce order-2
      connectivity (empty when the run's ``min_k > 2``);
    * ``shift`` is the pair-packing shift (``word = (i << shift) | j``).
    """

    n_cliques: int
    shift: int
    n_pairs: int
    n_chain_pairs: int
    buckets: dict[int, bytes] = field(default_factory=dict)
    chains: bytes = b""


def chain_pairs(index: Iterable[list[int]], shift: int) -> array:
    """Packed consecutive-id pairs reproducing order-2 connectivity.

    Unioning ``(cids[t], cids[t+1])`` for every node chains together
    all cliques sharing that node — exactly the overlap >= 1 relation
    percolation needs at k = 2, in O(incidences) pairs instead of
    O(incidences^2) co-occurrences.
    """
    out = array("q")
    append = out.append
    for cids in index:
        prev = -1
        for cid in cids:
            if prev >= 0:
                append((prev << shift) | cid)
            prev = cid
    return out


def count_overlaps(
    dense: list[tuple[int, ...]],
    sizes: list[int],
    shift: int,
    tracer: Tracer = NULL_TRACER,
) -> tuple[OverlapWire, int, dict]:
    """The overlap wire of size-descending dense cliques.

    The twin of :func:`~.percolation.percolate_wire`: counts the
    size >= 3 prefix of ``sizes`` with
    :func:`~.blocks.count_overlaps_blocks` and returns its
    ``(wire, n_counted, stats)``; ``shift`` is the pair-packing shift.
    """
    # Imported here: blocks needs this module's OverlapWire.
    from .blocks import count_overlaps_blocks

    return count_overlaps_blocks(dense, sizes, prefix_count(sizes, 3), shift, tracer)
