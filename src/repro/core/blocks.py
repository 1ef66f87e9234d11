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
  are flattened and lex-sorted into per-node runs, and run prefixes
  are truncated to the counting-eligible (size >= 3) cliques.  Every
  within-prefix pair is a packed ``(i << shift) | j`` word with
  ``i < j``; all co-occurrences of a pair share its smaller id ``i``
  (its "owner").  So the prefix positions are ordered by owner and cut
  at owner boundaries into chunks of at most :data:`CHUNK_WORDS` words;
  each chunk emits its words by one ragged repeat/cumsum gather (no
  per-run Python loop) and ``np.unique(..., return_counts=True)``
  gives those pairs' exact overlaps.  Memory is bounded by one chunk
  plus the wire, not by the whole pair multiset.  Activation-order
  bucketing and the k=2 chain pairs are plain array arithmetic.
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


#: The most pair words the co-occurrence pass holds at once; an owner
#: with more partner words than this is a chunk by itself.  2^15 to
#: 2^17 time alike (2^14 pays per-chunk overhead, 2^20 loses cache
#: locality in ``np.unique``'s sort); ``docs/performance.md`` has the
#: numbers.
CHUNK_WORDS = 1 << 16


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
    ``cpm.blocks.count``, with the ``chunks`` it counted in and their
    ``max_chunk_words``.

    Counting semantics: pairs are counted over the per-node id lists
    truncated to the eligible prefix, nodes with fewer than two
    eligible cliques contribute nothing, overlap-1 pairs are dropped
    from the buckets (the k=2 chains cover them), and
    ``k_act = min(sizes[j], o + 1)``.
    """
    with tracer.span("cpm.blocks.count", cliques=len(dense)) as span:
        n_cliques = len(dense)
        # Pair words are (id << shift) | id; up to 32,767 cliques they
        # fit int32, which halves the sort traffic of the np.unique
        # below.  The wire stays '<i8' regardless.
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
        kept_len = eligible_len[keep].astype(word_dtype)
        # Each prefix position is the smaller id (the "owner") of a pair
        # with every later position of its run: ids ascend within a run,
        # so the packed word is (owner << shift) | partner.
        n_incident = int(kept_len.sum())
        within = np.arange(n_incident, dtype=word_dtype) - np.repeat(
            np.cumsum(kept_len, dtype=word_dtype) - kept_len, kept_len
        )
        pos = np.repeat(starts[keep].astype(word_dtype), kept_len) + within
        partners = np.repeat(kept_len, kept_len) - word_dtype(1) - within
        owning = partners > 0
        pos, partners = pos[owning], partners[owning]
        owners = cids_s[pos]
        by_owner = np.argsort(owners, kind="stable")
        pos, partners, owners = pos[by_owner], partners[by_owner], owners[by_owner]
        pair_updates = int(partners.sum())
        # Every co-occurrence of a pair has the same owner, so chunks cut
        # at owner boundaries each count their pairs exactly; chunks come
        # in ascending owner order, so each bucket's pieces concatenate
        # to ascending words.
        owner_ends = np.flatnonzero(np.append(owners[1:] != owners[:-1], len(owners) > 0)) + 1
        words_done = np.cumsum(partners, dtype=np.int64)[owner_ends - 1]
        sizes_a = np.asarray(sizes, dtype=np.int64)
        mask = (1 << shift) - 1
        parts: dict[int, list[bytes]] = {}
        n_counted = n_chunks = max_chunk_words = 0
        group = lo = lo_done = 0
        while group < len(owner_ends):
            group = max(
                group + 1,
                int(np.searchsorted(words_done, lo_done + CHUNK_WORDS, side="right")),
            )
            hi, hi_done = int(owner_ends[group - 1]), int(words_done[group - 1])
            n_words = hi_done - lo_done
            counts_c = partners[lo:hi]
            offset = np.arange(n_words, dtype=word_dtype) - np.repeat(
                np.cumsum(counts_c, dtype=word_dtype) - counts_c, counts_c
            )
            j_pos = np.repeat(pos[lo:hi] + word_dtype(1), counts_c) + offset
            words = (np.repeat(owners[lo:hi], counts_c) << shift) | cids_s[j_pos]
            unique_words, counts = np.unique(words, return_counts=True)
            n_counted += len(unique_words)
            n_chunks += 1
            max_chunk_words = max(max_chunk_words, n_words)
            # Activation-order bucketing over the overlap >= 2 pairs.
            strong = counts > 1
            kept_words = unique_words[strong]
            k_act = np.minimum(sizes_a[kept_words & mask], counts[strong] + 1)
            by_k = np.argsort(k_act, kind="stable")
            k_sorted = k_act[by_k]
            if len(k_sorted):
                cuts = np.flatnonzero(np.diff(k_sorted)) + 1
                runs = np.split(kept_words[by_k], cuts)
                for k, run in zip(k_sorted[np.append(0, cuts)].tolist(), runs):
                    parts.setdefault(k, []).append(run.astype("<i8").tobytes())
            lo, lo_done = hi, hi_done
        buckets = {k: b"".join(parts.pop(k)) for k in sorted(parts)}
        wire = OverlapWire(
            n_cliques=n_cliques,
            shift=shift,
            n_pairs=sum(len(blob) // 8 for blob in buckets.values()),
            n_chain_pairs=len(chains),
            buckets=buckets,
            chains=chains.astype("<i8", copy=False).tobytes(),
        )
        span.set("pairs", n_counted)
        span.set("chunks", n_chunks)
        span.set("max_chunk_words", max_chunk_words)
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
