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
buffers whose ``bytes`` form ships to worker processes (and into the
on-disk cache) as flat memory instead of a per-batch re-pickle of a
list of tuples.  :class:`OverlapWire` is that shippable bundle.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = [
    "OverlapWire",
    "build_node_index",
    "chain_pairs",
    "truncate_index",
]


@dataclass
class OverlapWire:
    """The overlap phase's output, packed for shipping and caching.

    Every buffer is ``bytes`` (an ``array('q')``'s raw memory), so
    pickling the wire for a worker process — or writing it into the
    clique cache — is a memcpy, not a per-element traversal.

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

    @property
    def n_bytes(self) -> int:
        """Total payload size (what one worker receives)."""
        return len(self.chains) + sum(len(b) for b in self.buckets.values())

    def checksum(self) -> str:
        """Content digest of the wire (BLAKE2b over every buffer).

        Used by the checkpoint/resume path to verify that a persisted
        wire deserialised intact before percolation trusts it — a
        mismatch is treated like a torn checkpoint and the overlap
        phase is recomputed.
        """
        import hashlib

        digest = hashlib.blake2b(digest_size=16)
        digest.update(f"{self.n_cliques}:{self.shift}:{self.n_pairs}:"
                      f"{self.n_chain_pairs}".encode())
        for k_act in sorted(self.buckets):
            digest.update(f"|{k_act}|".encode())
            digest.update(self.buckets[k_act])
        digest.update(b"|chains|")
        digest.update(self.chains)
        return digest.hexdigest()


def build_node_index(cliques: list[tuple[int, ...]], n_nodes: int) -> list[list[int]]:
    """Inverted node -> clique-id index over dense-id cliques.

    ``cliques`` must be sorted by size descending (the pipeline's
    invariant), so each node's list comes out in ascending clique-id
    order — which both the truncation slice and the chain unions rely
    on.
    """
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


def chain_pairs(index: list[list[int]], shift: int) -> array:
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
