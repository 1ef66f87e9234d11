"""Shared fixtures.

The expensive artefacts (synthetic datasets and their CPM runs) are
session-scoped: the default-profile dataset takes ~1 s of CPM, the tiny
profile is near-instant, and dozens of analysis tests reuse both.
"""

from __future__ import annotations

import pickle
import pickletools
import random
from array import array

import pytest

from repro.analysis.context import AnalysisContext
from repro.core.percolation import CliqueOverlapIndex
from repro.core.unionfind import UnionFind
from repro.graph import Graph, ring_of_cliques
from repro.topology.generator import GeneratorConfig, generate_topology


#: Persisted-pickle bytes a store must survive: an unknown pickle
#: protocol, a GLOBAL naming a module that does not exist, and two
#: readable payloads of the wrong shape (an int where a dict belongs,
#: and a dict without the reader's fields).  The first two are written
#: as raw bytes and fail the store's frame check; the last two are
#: planted through ``store_phase`` (``pickle.loads`` of the blob), so
#: they pass the frame and must fail the shape check.
CORRUPT_PICKLES = {
    "protocol-9": b"\x80\x09",
    "missing-module": b"cnot_a_module\nX\n.",
    "not-a-dict": pickle.dumps(5),
    "missing-key": pickle.dumps({"cliques": []}),
}
UNREADABLE_PICKLES = ["protocol-9", "missing-module"]
WRONG_SHAPE_PICKLES = ["not-a-dict", "missing-key"]


def flip_stored_byte(path, payload, *, in_bytes: bool = False) -> None:
    """Flip one bit of a value inside the pickled ``payload`` at ``path``.

    ``payload`` is what the file holds; its pickle is found verbatim in
    the file (bare or behind a frame).  The bit flipped is the last
    byte of a data argument — of the last int, or with ``in_bytes`` of
    the longest bytes buffer — so the file still unpickles, to a
    different value.
    """
    blob = bytearray(path.read_bytes())
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    start = blob.find(body)
    assert start >= 0, f"{path} does not hold the payload's pickle"
    ops = list(pickletools.genops(body))
    if in_bytes:
        kinds = {"SHORT_BINBYTES", "BINBYTES", "BINBYTES8"}
        picks = [i for i, (op, _, _) in enumerate(ops) if op.name in kinds]
        index = max(picks, key=lambda i: len(ops[i][1]))
    else:
        kinds = {"BININT1", "BININT2", "BININT"}
        index = max(i for i, (op, _, _) in enumerate(ops) if op.name in kinds)
    end = ops[index + 1][2]
    blob[start + end - 1] ^= 1
    path.write_bytes(bytes(blob))


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate_topology(GeneratorConfig.tiny(), seed=7)


@pytest.fixture(scope="session")
def tiny_context(tiny_dataset):
    return AnalysisContext.from_dataset(tiny_dataset)


@pytest.fixture(scope="session")
def default_dataset():
    return generate_topology(GeneratorConfig.default(), seed=42)


@pytest.fixture(scope="session")
def default_context(default_dataset):
    return AnalysisContext.from_dataset(default_dataset)


@pytest.fixture(scope="session")
def paper_run(default_dataset):
    from repro.report.paper import PaperRun

    return PaperRun(default_dataset)


@pytest.fixture()
def rng():
    return random.Random(1234)


@pytest.fixture()
def ring_graph() -> Graph:
    """4 pentagon cliques joined in a ring — a standard CPM oracle."""
    return ring_of_cliques(4, 5)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Deterministic G(n, p) helper for oracle comparisons."""
    from repro.graph import erdos_renyi

    return erdos_renyi(n, p, random.Random(seed))


def reference_wire(cliques) -> dict:
    """The overlap wire's content, rebuilt from the set oracle's overlaps.

    ``cliques`` are the pipeline's size-descending cliques, so the
    oracle's stable size sort keeps their ids.  Counting is truncated
    the pipeline's way — only pairs of size >= 3 cliques are counted,
    overlap-1 pairs are dropped, the rest bucketed at
    ``k_act = min(o + 1, |A|, |B|)`` — and the k = 2 chains join
    consecutive ids in each node's clique list.  Returns sorted word
    lists (``buckets`` per ``k_act``, ``chains``), the ``counted``
    pairs and the ``pair_updates`` the truncated lists imply.
    """
    index = CliqueOverlapIndex([frozenset(clique) for clique in cliques])
    sizes = index.sizes
    shift = max(1, len(sizes).bit_length())
    buckets: dict[int, list[int]] = {}
    counted = 0
    for (i, j), o in index.overlaps().items():
        if sizes[i] < 3 or sizes[j] < 3:
            continue
        counted += 1
        if o >= 2:
            buckets.setdefault(min(o + 1, sizes[i], sizes[j]), []).append((i << shift) | j)
    node_index = index.node_index().values()
    eligible = [sum(sizes[cid] >= 3 for cid in cids) for cids in node_index]
    return {
        "shift": shift,
        "buckets": {k: sorted(words) for k, words in buckets.items()},
        "chains": sorted(
            (a << shift) | b for cids in node_index for a, b in zip(cids, cids[1:])
        ),
        "counted": counted,
        "pair_updates": sum(n * (n - 1) // 2 for n in eligible),
    }


def reference_sweep(orders, eligibles, wire) -> tuple[dict[int, list[list[int]]], int]:
    """:func:`~repro.core.percolation.percolate_wire`'s contract on a
    :class:`~repro.core.unionfind.UnionFind`.

    Walking ``orders`` downward, each bucket with ``k_act >= k`` is
    merged once and the chains join at k = 2; each order's groups are
    snapshotted over its eligible ids (a prefix count or an explicit
    list), members in the order given, groups largest first with ties
    by first member.  Returns ``(groups_by_order, merges)``.
    """
    uf = UnionFind(range(wire.n_cliques))
    shift, mask = wire.shift, (1 << wire.shift) - 1
    pending = sorted(wire.buckets, reverse=True)
    result = {}
    for k, eligible in zip(orders, eligibles):
        blobs = []
        while pending and pending[0] >= k:
            blobs.append(wire.buckets[pending.pop(0)])
        if k == 2:
            blobs.append(wire.chains)
        for blob in blobs:
            for word in array("q", blob):
                uf.union(word >> shift, word & mask)
        members = range(eligible) if isinstance(eligible, int) else eligible
        by_root: dict = {}
        for member in members:
            by_root.setdefault(uf.find(member), []).append(member)
        result[k] = sorted(by_root.values(), key=len, reverse=True)
    merges = wire.n_cliques - len({uf.find(i) for i in range(wire.n_cliques)})
    return result, merges
