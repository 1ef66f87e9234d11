"""The production kernel's own seams: kernel names, wire, CLI.

Cross-kernel *output* equivalence lives in
``tests/test_kernels_equivalence.py`` / ``tests/test_query.py``; this
module pins everything around the kernel:

* the kernel table, ``auto`` resolution, and the named error every
  entry point (API and CLI) gives a retired kernel name;
* the snapshot's lazy big-int rows against its CSR arrays, bit for
  bit, and that no CPM run builds them (only the analysis sweep does);
* the enumerator's emission sequence, tuple for tuple, against digests
  recorded before its subtrees moved onto local rows, and against the
  same recursion over un-indexed graph-width rows;
* enumeration without numpy: a ``numpy``-blocked interpreter emits the
  same cliques as this one;
* the numpy overlap counter against a reference built from the set
  oracle's overlaps at three chunk budgets, its traced memory against
  a bound one chunk keeps and the one-pass count did not, and its wire
  bytes against digests recorded before the pure-Python counter was
  deleted;
* the min-label percolation sweep against a union-find reference,
  group for group;
* the resolved kernel + numpy version stamped into manifest settings,
  and the ``obs diff`` kernel-mismatch warning.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.api import open_session, run_cpm
from repro.cli import main
from repro.core import blocks
from repro.core.cliques import maximal_cliques_bitset
from repro.core.lightweight import KERNELS, LightweightParallelCPM, resolve_kernel
from repro.core.overlap import count_overlaps
from repro.core.percolation import percolate_wire
from repro.graph import CSRGraph, Graph, ring_of_cliques
from repro.incremental import CPMSession
from repro.obs.inspect import diff_manifests
from repro.obs.tracing import Tracer
from repro.shard.pipeline import sharded_enumerate_dense
from repro.shard.plan import prefix_count
from repro.topology.generator import GeneratorConfig, generate_topology

from .conftest import random_graph, reference_sweep, reference_wire


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory, tiny_dataset):
    path = tmp_path_factory.mktemp("data") / "bundle"
    tiny_dataset.save(path)
    return str(path)


class TestGuard:
    def test_kernels_table_lists_blocks(self):
        assert KERNELS == ("blocks", "set")

    def test_auto_resolves_to_blocks(self):
        assert resolve_kernel("auto") == "blocks"

    def test_unknown_kernel_still_rejected(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            resolve_kernel("turbo")

    def test_auto_runs_and_records_resolved_kernel(self):
        cpm = LightweightParallelCPM(ring_of_cliques(3, 4), kernel="auto")
        assert cpm.kernel == "blocks"
        cpm.run()
        assert cpm.stats.kernel == "blocks"


#: A retired kernel name at every entry point: the call that must fail.
RETIRED_KERNEL_CALLS = {
    "run_cpm-bitset": lambda graph: run_cpm(graph, kernel="bitset"),
    "open_session-bitset": lambda graph: open_session(graph, kernel="bitset"),
    "CPMSession-set": lambda graph: CPMSession(graph, kernel="set"),
    "cli-communities-bitset": ["communities", "{tmp}/ds", "--kernel", "bitset"],
    "cli-session-open-bitset": ["session", "open", "{tmp}/ds", "{tmp}/s", "--kernel", "bitset"],
    "cli-session-open-set": ["session", "open", "{tmp}/ds", "{tmp}/s", "--kernel", "set"],
}


@pytest.mark.parametrize("case", sorted(RETIRED_KERNEL_CALLS))
def test_retired_kernel_gets_a_named_error(case, tmp_path, capsys):
    """Every entry point refuses a kernel it no longer runs with the one
    validator's error, which names ``blocks``; the CLI exits 2 with it."""
    call = RETIRED_KERNEL_CALLS[case]
    retired = case.rsplit("-", 1)[1]
    if callable(call):
        with pytest.raises(ValueError, match="blocks") as info:
            call(ring_of_cliques(3, 4))
        message = str(info.value)
    else:
        with pytest.raises(SystemExit) as info:
            main([arg.format(tmp=tmp_path) for arg in call])
        assert info.value.code == 2
        message = capsys.readouterr().err
        assert "Traceback" not in message
    assert f"got {retired!r}" in message and "'blocks'" in message


class TestBlockMatrix:
    """The snapshot's graph-width rows are a lazy, cached view of its
    CSR arrays that only the analysis sweep builds; no CPM run does,
    and no dense block matrix exists at all."""

    def test_blocks_match_bitsets_bit_for_bit(self):
        csr = CSRGraph.from_graph(random_graph(70, 0.2, seed=3))
        for i, mask in enumerate(csr.bitsets()):
            row = 0
            for j in csr.neighbors(i):
                row |= 1 << j
            assert row == mask

    def test_matrix_is_cached(self):
        from repro.analysis.engine import MetricsEngine
        from repro.core.tree import CommunityTree

        graph = ring_of_cliques(3, 4)
        for shards in (1, 2):
            result = run_cpm(graph, workers=shards, shards=shards)
            assert result.csr._bitsets is None, shards
        csr = result.csr
        MetricsEngine(result.hierarchy, CommunityTree(result.hierarchy), graph, csr=csr).rows()
        assert csr._bitsets is not None
        assert csr.bitsets() is csr.bitsets()
        assert csr.rank() is csr.rank()
        assert csr.degrees() is csr.degrees()
        assert csr.forward_starts() is csr.forward_starts()
        assert not hasattr(csr, "blocks")
        assert not hasattr(csr, "_blocks")


def _wide_hub_graph() -> Graph:
    """A 14-clique whose members each hang 60 leaves: every clique
    member's neighbourhood is wider than one 64-bit word."""
    graph = ring_of_cliques(1, 14)
    for member in range(14):
        for leaf in range(60):
            graph.add_edge(member, 100 + 60 * member + leaf)
    return graph


def _digest(cliques: list) -> str:
    return hashlib.blake2b(repr(cliques).encode(), digest_size=16).hexdigest()


class TestEmissionSequence:
    """Local rows change the adjacency's width, never the recursion.

    The digests were recorded from the enumerator that ran wide
    subtrees on a numpy re-index and narrow ones on graph-width rows:
    every tuple, its member order and the list order must stay put.
    """

    GRAPHS = {
        "gnp-dense": lambda: random_graph(40, 0.5, seed=5),
        "gnp-medium": lambda: random_graph(60, 0.3, seed=23),
        "wide-hub": _wide_hub_graph,
    }
    #: ``min_size`` -> blake2b-128 of ``repr(maximal_cliques_bitset(...))``.
    RECORDED = {
        "gnp-dense": {
            1: "ab4e181b1ad22f509870dc615d1a4f14",
            2: "ab4e181b1ad22f509870dc615d1a4f14",
            4: "136bdf2e6397f6d2373332db2d8e7e7e",
        },
        "gnp-medium": {
            1: "ba52e595ac9be85c41005ff4a873ecf8",
            2: "ba52e595ac9be85c41005ff4a873ecf8",
            4: "ff265af42261223d7dc501d07a852cdd",
        },
        "wide-hub": {
            1: "8fca4ffeacceb3f0bad69b05a92bd9e7",
            2: "8fca4ffeacceb3f0bad69b05a92bd9e7",
            4: "908270cec9550a5ff174fed9b19ad50b",
        },
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_emission_sequence_matches_recorded(self, name):
        csr = CSRGraph.from_graph(self.GRAPHS[name]())
        for min_size, digest in self.RECORDED[name].items():
            assert _digest(maximal_cliques_bitset(csr, min_size=min_size)) == digest

    def test_default_profile_matches_recorded(self, default_dataset):
        csr = CSRGraph.from_graph(default_dataset.graph)
        cliques = maximal_cliques_bitset(csr, min_size=2)
        assert len(cliques) == 4612
        assert _digest(cliques) == "451249af80e20ec513bc9712b86346c6"


def _unindexed_cliques(csr: CSRGraph, min_size: int, vertices: list[int]) -> list:
    """The enumerator's recursion over graph-width rows, un-indexed.

    The same Tomita pivot rule, lowest-bit branching and leaf inlining
    as :func:`maximal_cliques_bitset`, but every mask is ``n`` bits wide
    and bit ``j`` is dense id ``j`` — the reference the local rows must
    reproduce tuple for tuple.
    """
    rows = csr.bitsets()
    out: list[tuple[int, ...]] = []

    def small(r: tuple, p: int, x: int, c: int) -> None:
        if c == 0:
            if x == 0 and len(r) >= min_size:
                out.append(r)
        elif c == 1:
            u = p.bit_length() - 1
            if x & rows[u] == 0 and len(r) + 1 >= min_size:
                out.append((*r, u))
        else:
            low = p & -p
            u, w = low.bit_length() - 1, (p ^ low).bit_length() - 1
            if (rows[u] >> w) & 1:
                if x & rows[u] & rows[w] == 0 and len(r) + 2 >= min_size:
                    out.append((*r, u, w))
            elif len(r) + 1 >= min_size:
                out.extend((*r, z) for z in (u, w) if x & rows[z] == 0)

    def expand(r: tuple, p: int, x: int) -> None:
        c = p.bit_count()
        if c < 3:
            small(r, p, x, c)
            return
        best, pivot = -1, 0
        m = p | x
        while m:
            low = m & -m
            count = (rows[low.bit_length() - 1] & p).bit_count()
            if count > best:
                best, pivot = count, rows[low.bit_length() - 1]
            m ^= low
        branch = p & ~pivot
        while branch:
            low = branch & -branch
            u = low.bit_length() - 1
            expand((*r, u), p & rows[u], x & rows[u])
            p ^= low
            x |= low
            branch ^= low

    for v in vertices:
        expand((v,), (rows[v] >> (v + 1)) << (v + 1), rows[v] & ((1 << v) - 1))
    return out


class TestReindex:
    """Local rows re-index each subtree onto ``N(v)``; that changes the
    adjacency's width, never the recursion.

    ``width`` picks the top-level subtrees compared: those with at
    least that many forward candidates (12 reaches only the wide ones,
    3 nearly every subtree that recurses), passed as ``vertices``.
    """

    @pytest.mark.parametrize("width", [12, 3])
    @pytest.mark.parametrize(
        "graph",
        [random_graph(40, 0.5, seed=5), random_graph(60, 0.3, seed=23), _wide_hub_graph()],
        ids=["gnp-dense", "gnp-medium", "wide-hub"],
    )
    def test_emission_sequence_matches_unindexed(self, graph, width):
        csr = CSRGraph.from_graph(graph)
        forward = csr.forward_starts()
        vertices = [v for v in range(csr.n) if csr.indptr[v + 1] - forward[v] >= width]
        assert vertices
        for min_size in (1, 2, 4):
            local = maximal_cliques_bitset(csr, min_size=min_size, vertices=vertices)
            assert local == _unindexed_cliques(csr, min_size, vertices)


_NO_NUMPY_RUN = """
import hashlib, random, sys
sys.modules["numpy"] = None
from repro.core.lightweight import LightweightParallelCPM
from repro.graph import erdos_renyi
from repro.shard.pipeline import sharded_enumerate_dense
graph = erdos_renyi(60, 0.3, random.Random(23))
for shards in (1, 2):
    cpm = LightweightParallelCPM(graph, workers=shards, shards=shards)
    dense, _cliques = sharded_enumerate_dense(cpm, None)
    print(hashlib.blake2b(repr(dense).encode(), digest_size=16).hexdigest())
"""


def test_enumeration_never_needs_numpy():
    """The enumerator is pure Python: a numpy-blocked interpreter emits
    the same cliques at shards 1 and 2 as this process does."""
    cpm = LightweightParallelCPM(random_graph(60, 0.3, seed=23))
    dense, _cliques = sharded_enumerate_dense(cpm, None)
    expected = _digest(dense)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_RUN],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [expected, expected]


def _pipeline_wire(graph):
    """The pipeline's cliques and their overlap wire."""
    dense, cliques = sharded_enumerate_dense(LightweightParallelCPM(graph), None)
    sizes = [len(c) for c in dense]
    return dense, cliques, count_overlaps(dense, sizes, max(1, len(sizes).bit_length()))


def _words(blob: bytes) -> list[int]:
    return np.sort(np.frombuffer(blob, dtype="<i8")).tolist()


def _strip(size: int, count: int, step: int, base: int) -> list[tuple[int, ...]]:
    """``count`` cliques of ``size`` nodes, each ``step`` nodes past the last."""
    return [tuple(range(base + step * t, base + step * t + size)) for t in range(count)]


def _int64_cliques() -> list[tuple[int, ...]]:
    """33,000 size-descending cliques: shift 16, so pair words overflow
    int32.  Strips of 5-, 4- and 3-cliques overlap their neighbours, 200
    triangles share one hub (the largest owner, 200 partner words), and
    edges hang off the triangle strip for the chains."""
    hub = [(10**6, 900_000 + t, 900_001 + t) for t in range(200)]
    edges = [(500_000 + t, 700_000 + t) for t in range(5_800)]
    return (
        _strip(5, 4_000, 2, 0)
        + _strip(4, 8_000, 2, 100_000)
        + hub
        + _strip(3, 15_000, 1, 500_000)
        + edges
    )


#: Size-descending cliques (the pipeline's dense tuples) the counter is
#: checked on against the reference.
WIRE_CASES = {
    "11": lambda: _pipeline_wire(random_graph(55, 0.25, seed=11))[0],
    "23": lambda: _pipeline_wire(random_graph(55, 0.25, seed=23))[0],
    "no-triangle": lambda: [(0, 1), (1, 2), (2, 3), (1, 4)],
    "single-clique": lambda: [(0, 1, 2, 3, 4)],
    "int64-words": _int64_cliques,
}


@functools.cache
def _wire_case(name: str) -> tuple[list, dict, list[int]]:
    """A case's cliques, its reference wire, and the partner words each
    counting clique owns as a pair's smaller id (the chunks' unit)."""
    dense = WIRE_CASES[name]()
    runs: dict[int, list[int]] = {}
    for cid, clique in enumerate(dense[: prefix_count([len(c) for c in dense], 3)]):
        for node in clique:
            runs.setdefault(node, []).append(cid)
    owned = Counter()
    for cids in runs.values():
        for q, cid in enumerate(cids):
            owned[cid] += len(cids) - 1 - q
    return dense, reference_wire(dense), [n for n in owned.values() if n]


class TestWireEquivalence:
    """The numpy overlap/percolation passes vs the references."""

    @pytest.mark.parametrize(
        ("case", "budget"),
        [
            pytest.param(case, budget, id=case if budget == "default" else f"{case}-{budget}")
            for case in sorted(WIRE_CASES)
            for budget in ("default", "one-word", "below-largest-owner")
        ],
    )
    def test_overlap_wire_matches_reference(self, case, budget, monkeypatch):
        """Every chunk budget gives the reference's wire: the default
        (the id without a suffix), one word per chunk, and a budget the
        largest owner overruns alone."""
        dense, reference, owned = _wire_case(case)
        largest = max(owned, default=0)
        chunk_words = {
            "one-word": 1,
            "below-largest-owner": max(1, largest - 1),
            "default": blocks.CHUNK_WORDS,
        }[budget]
        monkeypatch.setattr(blocks, "CHUNK_WORDS", chunk_words)
        sizes = [len(c) for c in dense]
        tracer = Tracer()
        wire, counted, stats = count_overlaps(
            dense, sizes, max(1, len(sizes).bit_length()), tracer
        )
        assert counted == reference["counted"]
        assert stats["pair_updates"] == reference["pair_updates"]
        assert wire.n_cliques == len(dense)
        assert wire.shift == reference["shift"]
        assert {k: _words(blob) for k, blob in wire.buckets.items()} == reference["buckets"]
        assert list(wire.buckets) == sorted(wire.buckets)
        assert wire.n_pairs == sum(map(len, reference["buckets"].values()))
        assert _words(wire.chains) == reference["chains"]
        assert wire.n_chain_pairs == len(reference["chains"])
        # Each bucket is already ascending: the chunks come in owner order.
        for blob in wire.buckets.values():
            words = np.frombuffer(blob, dtype="<i8")
            assert (np.diff(words) > 0).all()
        (span,) = tracer.find("cpm.blocks.count")
        assert span.attrs["pairs"] == counted
        assert (span.attrs["chunks"] == 0) == (not owned)
        assert largest <= span.attrs["max_chunk_words"] <= max(chunk_words, largest)
        if chunk_words == 1:
            assert span.attrs["chunks"] == len(owned)
        if case == "int64-words":
            assert (len(dense) << wire.shift) >= 2**31
        if case in ("11", "23", "int64-words"):
            assert reference["buckets"], "the case should count some pairs"

    def test_counter_memory_is_bounded_by_the_chunk(self, default_dataset, monkeypatch):
        """The co-occurrence pass holds one chunk of pair words, not the
        whole multiset.  On the default profile with 2^14-word chunks
        the traced peak reads 2.8 MiB (1.1 MiB of it is the wire); the
        one-pass count it replaced peaked at 22.5 MiB."""
        dense, _cliques = sharded_enumerate_dense(
            LightweightParallelCPM(default_dataset.graph), None
        )
        sizes = [len(c) for c in dense]
        monkeypatch.setattr(blocks, "CHUNK_WORDS", 1 << 14)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            count_overlaps(dense, sizes, max(1, len(sizes).bit_length()))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("seed", [5, 23])
    def test_percolation_groups_match_union_find(self, seed):
        graph = random_graph(50, 0.3, seed=seed)
        dense, _cliques, (wire, _, _) = _pipeline_wire(graph)
        sizes = [len(c) for c in dense]
        orders = list(range(max(sizes), 1, -1))
        eligibles = [prefix_count(sizes, k) for k in orders]
        groups, stats = percolate_wire(orders, eligibles, wire)
        expected, merges = reference_sweep(orders, eligibles, wire)
        assert groups == expected
        assert stats["union_merges"] == merges
        assert stats["orders"] == len(orders)

    #: profile -> (n_cliques, shift, n_pairs, n_chain_pairs, counted,
    #: blake2b-128 of the bucket and chain bytes), recorded (seed 42)
    #: while the pure-Python counter still wrote the same wire.
    RECORDED = {
        "tiny": (745, 10, 19754, 2549, 39999, "dcffd936d69d5a690066c470b9afe4e1"),
        "default": (4612, 13, 132518, 12776, 380232, "e60fff5ab4b81d45e3a689d2cf1f4bc8"),
    }

    @pytest.mark.parametrize("profile", sorted(RECORDED))
    def test_wire_bytes_match_recorded(self, profile):
        graph = generate_topology(getattr(GeneratorConfig, profile)(), seed=42).graph
        _dense, _cliques, (wire, counted, _stats) = _pipeline_wire(graph)
        digest = hashlib.blake2b(digest_size=16)
        for k in sorted(wire.buckets):
            blob = wire.buckets[k]
            digest.update(k.to_bytes(8, "little") + len(blob).to_bytes(8, "little") + blob)
        digest.update(wire.chains)
        assert (
            wire.n_cliques, wire.shift, wire.n_pairs, wire.n_chain_pairs, counted,
            digest.hexdigest(),
        ) == self.RECORDED[profile]


class TestCLI:
    def test_blocks_kernel_end_to_end(self, saved_dataset, capsys):
        assert main(["communities", saved_dataset, "--kernel", "blocks", "--max-k", "4"]) == 0
        assert "k=4" in capsys.readouterr().out

    def test_manifest_records_resolved_kernel_and_numpy(
        self, saved_dataset, tmp_path, capsys
    ):
        manifest_path = tmp_path / "manifest.json"
        code = main(
            [
                "communities",
                saved_dataset,
                "--kernel",
                "auto",
                "--max-k",
                "4",
                "--metrics",
                str(manifest_path),
            ]
        )
        assert code == 0
        settings = json.loads(manifest_path.read_text())["settings"]
        assert settings["kernel"] == "blocks"
        assert settings["numpy"] == np.__version__


class TestObsDiff:
    def test_kernel_mismatch_warns_explicitly(self):
        base = {"settings": {"kernel": "bitset"}, "metrics": {"counters": {}}}
        fresh = {"settings": {"kernel": "blocks"}, "metrics": {"counters": {}}}
        out = diff_manifests(base, fresh)
        assert "kernel mismatch" in out
        assert "not a regression" in out

    def test_matching_kernels_do_not_warn(self):
        base = {"settings": {"kernel": "blocks"}, "metrics": {"counters": {}}}
        fresh = {"settings": {"kernel": "blocks"}, "metrics": {"counters": {}}}
        assert "kernel mismatch" not in diff_manifests(base, fresh)
