"""The numpy passes of the CPM pipeline: overlap counting and percolation.

Enumeration stays pure Python — :func:`~.cliques.maximal_cliques_bitset`,
the one integer Bron–Kerbosch, over the degeneracy-ordered
:class:`~repro.graph.csr.CSRGraph` snapshot.  (A numpy
``bitwise_count`` pivot argmax was prototyped for enumeration in three
variants — per-call, whole-graph batched, and column-pruned — and
*lost* to the scalar scan at AS-graph scale because the median pivot
scan examines ~3.5 candidates; ``docs/performance.md`` records the
numbers.)  The two phases where batching wins are whole-array passes:

* **Overlap counting** (:func:`count_overlaps_blocks`, called through
  :func:`~repro.core.overlap.count_overlaps`) — clique memberships
  are flattened and lex-sorted into per-node runs, run prefixes are
  truncated to the counting-eligible (size >= 3) cliques, every
  within-prefix pair is emitted as a packed ``(i << shift) | j`` word
  by one ragged repeat/cumsum gather (no per-run Python loop), and
  ``np.unique(..., return_counts=True)`` produces the exact overlap
  multiset.  Activation-order bucketing and the k=2 chain pairs are
  plain array arithmetic.
* **Percolation** (:func:`percolate_orders_blocks`, called through
  :func:`~repro.core.percolation.percolate_wire`) — min-label
  propagation over the packed pair arrays: hook each endpoint's *root*
  label to the pair minimum (``np.minimum.at``), then pointer-jump
  (``labels[labels]``) to a fixed point.  Groups come largest first,
  ties by smallest member, members ascending, which
  ``tests/test_blocks_kernel.py`` pins against a
  :class:`~.unionfind.UnionFind` reference.

The set oracle (:class:`~.percolation.CliqueOverlapIndex`) computes
the same overlaps and groups from frozensets; the wire tests check
these passes against it, and the hierarchy tests check that identical
cliques, overlap counts and groups give byte-identical hierarchies,
trees and query artifacts.
"""

from __future__ import annotations

import numpy as np

from ..obs.tracing import NULL_TRACER, Tracer
from .overlap import OverlapWire

__all__ = [
    "count_overlaps_blocks",
    "percolate_orders_blocks",
]


def count_overlaps_blocks(
    dense: list[tuple[int, ...]],
    sizes: list[int],
    n_counting: int,
    shift: int,
    tracer: Tracer = NULL_TRACER,
) -> tuple[OverlapWire, int, dict]:
    """Vectorized overlap counting + bucketing + chains, as one wire.

    ``dense`` must be sorted by size descending (the pipeline
    invariant); ``n_counting`` is the size>=3 prefix length and
    ``shift`` the pair-packing shift.  Returns ``(wire, n_counted,
    stats)`` where ``n_counted`` is the number of distinct co-occurring
    pairs and ``stats`` reports the ``pair_updates`` (pair words
    emitted before ``np.unique``).  ``tracer`` times the pass as
    ``cpm.blocks.count``.

    Counting semantics: pairs are counted over the per-node id lists
    truncated to the eligible prefix, nodes with fewer than two
    eligible cliques contribute nothing, overlap-1 pairs are dropped
    from the buckets (the k=2 chains cover them), and
    ``k_act = min(sizes[j], o + 1)``.
    """
    with tracer.span("cpm.blocks.count", cliques=len(dense)) as span:
        n_cliques = len(dense)
        # Pair words are (id << shift) | id; on every graph this
        # pipeline meets they fit int32, which halves the sort traffic
        # of the np.unique below.  The wire stays '<i8' regardless.
        word_dtype = (
            np.int32
            if (n_cliques << shift) | ((1 << shift) - 1) < 2**31
            else np.int64
        )
        lens = np.fromiter(map(len, dense), np.int64, count=n_cliques)
        total = int(lens.sum())
        flat = np.fromiter((v for c in dense for v in c), word_dtype, count=total)
        cid = np.repeat(np.arange(n_cliques, dtype=word_dtype), lens)
        order = np.lexsort((cid, flat))
        cids_s = cid[order]
        nodes_s = flat[order]
        # k=2 chains: consecutive clique ids within each node run.
        same = nodes_s[:-1] == nodes_s[1:]
        chains = (cids_s[:-1][same] << shift) | cids_s[1:][same]
        # Per-node runs (none without cliques); the eligible ids are an
        # ascending prefix.
        starts = np.flatnonzero(np.concatenate(([total > 0], ~same)))
        eligible_len = np.add.reduceat((cids_s < n_counting).astype(np.int64), starts)
        keep = eligible_len >= 2
        kept_starts = starts[keep]
        kept_len = eligible_len[keep].astype(word_dtype)
        # All pairs within each eligible prefix, in one ragged gather:
        # each prefix position q > 0 contributes q pairs as the larger
        # endpoint, partnered with every earlier position of its run.
        # Ids ascend within a run, so position order is id order and the
        # packed word is (smaller id << shift) | larger id.
        n_incident = int(kept_len.sum())
        within = np.arange(n_incident, dtype=word_dtype) - np.repeat(
            np.cumsum(kept_len, dtype=word_dtype) - kept_len, kept_len
        )
        pos = np.repeat(kept_starts.astype(word_dtype), kept_len) + within
        pair_updates = int(within.sum())
        if pair_updates:
            j_pos = np.repeat(pos, within)
            grp_starts = np.cumsum(within, dtype=word_dtype) - within
            delta = (
                np.arange(pair_updates, dtype=word_dtype)
                - np.repeat(grp_starts, within)
                + word_dtype(1)
            )
            i_pos = j_pos - delta
            words = (cids_s[i_pos] << shift) | cids_s[j_pos]
            unique_words, counts = np.unique(words, return_counts=True)
        else:
            unique_words = counts = np.empty(0, np.int64)
        n_counted = len(unique_words)
        # Activation-order bucketing over the overlap >= 2 pairs.
        strong = counts > 1
        kept_words = unique_words[strong]
        kept_counts = counts[strong]
        sizes_j = np.asarray(sizes, dtype=np.int64)[kept_words & ((1 << shift) - 1)]
        k_act = np.minimum(sizes_j, kept_counts + 1)
        by_k = np.argsort(k_act, kind="stable")
        words_sorted = kept_words[by_k]
        k_sorted = k_act[by_k]
        if len(k_sorted):
            bounds = np.flatnonzero(np.diff(k_sorted)) + 1
            bucket_starts = np.concatenate(([0], bounds))
            bucket_ends = np.concatenate((bounds, [len(k_sorted)]))
        else:
            bucket_starts = bucket_ends = ()
        wire = OverlapWire(
            n_cliques=n_cliques,
            shift=shift,
            n_pairs=len(words_sorted),
            n_chain_pairs=len(chains),
            buckets={
                int(k_sorted[s]): words_sorted[s:e].astype("<i8", copy=False).tobytes()
                for s, e in zip(bucket_starts, bucket_ends)
            },
            chains=chains.astype("<i8", copy=False).tobytes(),
        )
        span.set("pairs", n_counted)
    return wire, n_counted, {"pair_updates": pair_updates}


def percolate_orders_blocks(
    orders: list[int],
    eligibles: list[int],
    wire: OverlapWire,
) -> tuple[dict[int, list[list[int]]], int, int]:
    """Min-label percolation sweep over a packed wire, vectorized.

    Call it through :func:`~.percolation.percolate_wire`, which holds
    the contract: ``orders`` strictly descending, a bucket at ``k_act``
    applied once, at the first order ``k <= k_act``, and the chains
    folded in at k = 2.  Returns ``(groups_by_order, merges,
    pairs_applied)``.  Each batch of pairs hooks both endpoint *roots*
    to the pair minimum and pointer-jumps to a fixed point — equal
    labels stay equal under that transformation, so previously
    contracted components remain contracted and connectivity through
    them is preserved.

    Group snapshots order like a union-find's: member ids ascending
    (stable argsort of the label array), groups largest-first with ties
    broken by smallest (prefix form) or first-listed (explicit form)
    member.
    """
    shift = wire.shift
    labels = np.arange(wire.n_cliques, dtype=np.int64)
    bucket_orders = sorted(wire.buckets, reverse=True)
    bi = 0
    n_buckets = len(bucket_orders)
    applied = 0
    result: dict[int, list[list[int]]] = {}

    def apply_pairs(words) -> None:
        nonlocal labels
        i = words >> shift
        j = words & ((1 << shift) - 1)
        while True:
            li = labels[i]
            lj = labels[j]
            if np.array_equal(li, lj):
                break
            lo = np.minimum(li, lj)
            np.minimum.at(labels, li, lo)
            np.minimum.at(labels, lj, lo)
            while True:
                jumped = labels[labels]
                if np.array_equal(jumped, labels):
                    break
                labels = jumped

    for idx, k in enumerate(orders):
        while bi < n_buckets and bucket_orders[bi] >= k:
            words = np.frombuffer(wire.buckets[bucket_orders[bi]], dtype="<i8")
            applied += len(words)
            apply_pairs(words)
            bi += 1
        if k == 2 and wire.chains:
            words = np.frombuffer(wire.chains, dtype="<i8")
            applied += len(words)
            apply_pairs(words)
        eligible = eligibles[idx]
        if isinstance(eligible, (int, np.integer)):
            # Prefix form: the first ``eligible`` clique ids.
            if eligible == 0:
                result[k] = []
                continue
            members = None
            snapshot = labels[:eligible]
        else:
            # Explicit-id form: the incremental session passes
            # stable ids that are not a prefix of the label array.
            if len(eligible) == 0:
                result[k] = []
                continue
            members = np.asarray(eligible, dtype=np.int64)
            snapshot = labels[members]
        _uniq, inverse = np.unique(snapshot, return_inverse=True)
        by_label = np.argsort(inverse, kind="stable")
        cuts = np.flatnonzero(np.diff(inverse[by_label])) + 1
        # Positions ascend within each split, so g[0] is both the
        # smallest member (prefix form) and the first-listed member
        # (explicit form), the groups' tie-break.
        groups = list(np.split(by_label, cuts))
        groups.sort(key=lambda g: (-len(g), g[0]))
        if members is None:
            result[k] = [g.tolist() for g in groups]
        else:
            result[k] = [members[g].tolist() for g in groups]
    merges = wire.n_cliques - len(np.unique(labels))
    return result, merges, applied
