"""Overlap counting and packed percolation buffers (integer fast path).

The overlap phase dominates LP-CPM runtime (the paper's Section 3
profile and ours agree), so the fast kernel restructures it around
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
  lets one union-find sweep orders descending, applying each pair once
  (see :func:`~.percolation.percolate_wire`).

Pairs are packed as ``(i << shift) | j`` words in ``array('q')``
buffers whose ``bytes`` form goes into checkpoints and the on-disk
cache as flat memory instead of a pickled list of tuples.
:class:`OverlapWire` is that bundle, and :func:`count_overlaps_bitset`
builds it in one serial pass (the blocks kernel's numpy twin is
:func:`~.blocks.count_overlaps_blocks`).  :func:`count_overlaps` picks
between the two by kernel; it is the one counter both the batch
pipeline and :class:`~repro.incremental.CPMSession` open through.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..obs.tracing import NULL_TRACER, Tracer
from ..shard.plan import prefix_count

__all__ = [
    "OverlapWire",
    "build_node_index",
    "chain_pairs",
    "count_overlaps",
    "count_overlaps_bitset",
    "truncate_index",
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


def build_node_index(cliques: list[tuple[int, ...]]) -> list[list[int]]:
    """Inverted node -> clique-id index over dense-id cliques.

    ``cliques`` must be sorted by size descending (the pipeline's
    invariant), so each node's list comes out in ascending clique-id
    order — which both the truncation slice and the chain unions rely
    on.  The index spans dense ids up to the largest one any clique
    holds.
    """
    n_nodes = 1 + max((max(clique) for clique in cliques), default=-1)
    index: list[list[int]] = [[] for _ in range(n_nodes)]
    for cid, clique in enumerate(cliques):
        for v in clique:
            index[v].append(cid)
    return index


def truncate_index(index: list[list[int]], n_counting: int) -> list[list[int]]:
    """Per-node id lists restricted to the counting-eligible prefix.

    ``n_counting`` is the number of cliques of size >= 3 (a prefix of
    the size-descending clique list).  Lists are ascending, so the
    restriction is one bisect per node; nodes left with fewer than two
    eligible cliques contribute no pairs and are dropped.
    """
    out: list[list[int]] = []
    for cids in index:
        cut = bisect_left(cids, n_counting)
        if cut >= 2:
            out.append(cids if cut == len(cids) else cids[:cut])
    return out


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


def count_overlaps_bitset(
    dense: list[tuple[int, ...]],
    sizes: list[int],
    n_counting: int,
    shift: int,
    tracer: Tracer = NULL_TRACER,
) -> tuple[OverlapWire, int, dict]:
    """Serial overlap counting + bucketing + chains, as one wire.

    The bitset kernel's counter, and the numpy-less twin of
    :func:`~.blocks.count_overlaps_blocks`: same arguments, same
    ``(wire, n_counted, stats)`` return, same wire content (call either
    through :func:`count_overlaps`).  Pairs are
    counted into one word -> count dict over the per-node id lists
    truncated to the size >= 3 prefix (``n_counting``); overlap-1 pairs
    are dropped (the k = 2 chains cover them) and the rest are bucketed
    at ``k_act = min(sizes[j], o + 1)``.  ``n_counted`` is the number of
    distinct co-occurring pairs and ``stats`` reports the
    ``pair_updates`` the loop performed.  ``tracer`` times the
    inverted-index build as ``cpm.overlap.index``.
    """
    with tracer.span("cpm.overlap.index"):
        index = build_node_index(dense)
        counting = truncate_index(index, n_counting)
    counts: dict[int, int] = {}
    get = counts.get
    pair_updates = 0
    for cids in counting:
        n = len(cids)
        pair_updates += n * (n - 1) // 2
        for a in range(n):
            base = cids[a] << shift
            for b in range(a + 1, n):
                word = base | cids[b]
                counts[word] = get(word, 0) + 1

    mask = (1 << shift) - 1
    buckets: dict[int, array] = {}
    for word, o in counts.items():
        if o <= 1:
            continue
        sj = sizes[word & mask]
        k_act = sj if sj < o + 1 else o + 1
        arr = buckets.get(k_act)
        if arr is None:
            arr = buckets[k_act] = array("q")
        arr.append(word)
    chains = chain_pairs(index, shift)
    wire = OverlapWire(
        n_cliques=len(sizes),
        shift=shift,
        n_pairs=sum(len(arr) for arr in buckets.values()),
        n_chain_pairs=len(chains),
        buckets={k: arr.tobytes() for k, arr in buckets.items()},
        chains=chains.tobytes(),
    )
    return wire, len(counts), {"pair_updates": pair_updates}


def count_overlaps(
    kernel: str,
    dense: list[tuple[int, ...]],
    sizes: list[int],
    shift: int,
    tracer: Tracer = NULL_TRACER,
) -> tuple[OverlapWire, int, dict]:
    """The kernel's overlap counter over size-descending dense cliques.

    The twin of :func:`~.percolation.percolate_wire`: ``"blocks"``
    runs the numpy pass (:func:`~.blocks.count_overlaps_blocks`), every
    other kernel the pure-Python :func:`count_overlaps_bitset`.  Both
    count the size >= 3 prefix of ``sizes`` and return the same
    ``(wire, n_counted, stats)``; ``shift`` is the pair-packing shift.
    """
    if kernel == "blocks":
        from .blocks import count_overlaps_blocks as count
    else:
        count = count_overlaps_bitset
    return count(dense, sizes, prefix_count(sizes, 3), shift, tracer)
