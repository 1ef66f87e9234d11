"""The blocks kernel's own seams: guard, auto-selection, wire, CLI.

Cross-kernel *output* equivalence lives in
``tests/test_kernels_equivalence.py`` / ``tests/test_query.py``; this
module pins everything around the kernel:

* the optional-dependency guard (``repro.core._blocks_compat``) and the
  documented degradation — ``--kernel auto`` falls back to ``bitset``
  and an explicit ``--kernel blocks`` exits 2 with an install hint on a
  numpy-less install (simulated by monkeypatching ``HAVE_NUMPY``, so
  both legs run regardless of which CI matrix cell executes them);
* the snapshot's lazy big-int rows against its CSR arrays, bit for
  bit, and that no CPM run builds them (only the analysis sweep does);
* the enumerator's emission sequence, tuple for tuple, against digests
  recorded before its subtrees moved onto local rows, and against the
  same recursion over un-indexed graph-width rows;
* enumeration without numpy: a ``numpy``-blocked interpreter produces
  the same hierarchy as this one;
* the vectorized overlap counter against the sharded reference at the
  wire level (same buckets as multisets, same chains);
* the min-label percolation sweep against the incremental union-find,
  group for group;
* the resolved kernel + numpy version stamped into manifest settings,
  and the ``obs diff`` kernel-mismatch warning.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import _blocks_compat
from repro.core._blocks_compat import (
    HAVE_NUMPY,
    BlocksUnavailableError,
    numpy_version,
    require_numpy,
)
from repro.api import run_cpm
from repro.core.blocks import count_overlaps_blocks
from repro.core.cliques import maximal_cliques_bitset
from repro.core.lightweight import KERNELS, LightweightParallelCPM, resolve_kernel
from repro.core.overlap import count_overlaps_bitset
from repro.core.percolation import percolate_wire
from repro.core.serialize import hierarchy_to_dict
from repro.shard.pipeline import sharded_enumerate_dense
from repro.shard.plan import prefix_count
from repro.graph import CSRGraph, Graph, ring_of_cliques
from repro.obs.inspect import diff_manifests

from .conftest import random_graph

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="blocks kernel needs numpy")


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory, tiny_dataset):
    path = tmp_path_factory.mktemp("data") / "bundle"
    tiny_dataset.save(path)
    return str(path)


class TestGuard:
    def test_kernels_table_lists_blocks(self):
        assert KERNELS == ("bitset", "blocks", "set")

    @needs_numpy
    def test_require_numpy_returns_the_module(self):
        np = require_numpy("test")
        assert np.__name__ == "numpy"
        assert numpy_version() == np.__version__

    def test_missing_numpy_raises_value_error_with_hint(self, monkeypatch):
        monkeypatch.setattr(_blocks_compat, "HAVE_NUMPY", False)
        with pytest.raises(BlocksUnavailableError, match=r"\[perf\]"):
            require_numpy("kernel 'blocks'")
        assert issubclass(BlocksUnavailableError, ValueError)
        assert numpy_version() is None

    @needs_numpy
    def test_auto_resolves_to_blocks(self):
        assert resolve_kernel("auto") == "blocks"

    def test_auto_degrades_to_bitset_without_numpy(self, monkeypatch):
        monkeypatch.setattr(_blocks_compat, "HAVE_NUMPY", False)
        assert resolve_kernel("auto") == "bitset"

    def test_explicit_blocks_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(_blocks_compat, "HAVE_NUMPY", False)
        with pytest.raises(BlocksUnavailableError, match="numpy"):
            resolve_kernel("blocks")
        with pytest.raises(BlocksUnavailableError, match="numpy"):
            LightweightParallelCPM(ring_of_cliques(3, 4), kernel="blocks")

    def test_unknown_kernel_still_rejected(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            resolve_kernel("turbo")

    @needs_numpy
    def test_auto_runs_and_records_resolved_kernel(self):
        cpm = LightweightParallelCPM(ring_of_cliques(3, 4), kernel="auto")
        assert cpm.kernel == "blocks"
        cpm.run()
        assert cpm.stats.kernel == "blocks"


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
        kernels = ("bitset", "blocks") if HAVE_NUMPY else ("bitset",)
        for kernel in kernels:
            for shards in (1, 2):
                result = run_cpm(graph, kernel=kernel, workers=shards, shards=shards)
                assert result.csr._bitsets is None, (kernel, shards)
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
import hashlib, json, random, sys
sys.modules["numpy"] = None
from repro.api import run_cpm
from repro.core._blocks_compat import HAVE_NUMPY
from repro.core.serialize import hierarchy_to_dict
from repro.graph import erdos_renyi
assert not HAVE_NUMPY
graph = erdos_renyi(60, 0.3, random.Random(23))
for shards in (1, 2):
    result = run_cpm(graph, kernel="bitset", workers=shards, shards=shards)
    document = json.dumps(hierarchy_to_dict(result.hierarchy), sort_keys=True)
    print(hashlib.blake2b(document.encode(), digest_size=16).hexdigest())
"""


def test_enumeration_never_needs_numpy():
    """One enumeration path: a numpy-blocked interpreter emits the same
    hierarchy at shards 1 and 2 as this process does."""
    result = run_cpm(random_graph(60, 0.3, seed=23), kernel="bitset")
    document = json.dumps(hierarchy_to_dict(result.hierarchy), sort_keys=True)
    expected = hashlib.blake2b(document.encode(), digest_size=16).hexdigest()
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


def _counter_args(dense):
    """The overlap counters' arguments for size-descending dense cliques."""
    sizes = [len(c) for c in dense]
    return dense, sizes, prefix_count(sizes, 3), max(1, len(sizes).bit_length())


@needs_numpy
class TestWireEquivalence:
    """The vectorized overlap/percolation stages vs the references."""

    def _wires(self, graph):
        fast = LightweightParallelCPM(graph, kernel="blocks")
        ref = LightweightParallelCPM(graph, kernel="bitset")
        hierarchies = (fast.run(), ref.run())
        return fast, ref, hierarchies

    @pytest.mark.parametrize("seed", [11, 23])
    def test_overlap_wire_matches_reference(self, seed):
        import numpy as np

        graph = random_graph(55, 0.25, seed=seed)
        cpm = LightweightParallelCPM(graph, kernel="blocks")
        dense, _cliques = sharded_enumerate_dense(cpm, None)
        args = _counter_args(dense)
        fast_wire, fast_counted, fast_stats = count_overlaps_blocks(*args)
        ref_wire, ref_counted, ref_stats = count_overlaps_bitset(*args)
        assert fast_stats.keys() - {"batches"} == ref_stats.keys()
        assert fast_counted == ref_counted
        assert fast_wire.n_cliques == ref_wire.n_cliques
        assert fast_wire.shift == ref_wire.shift
        assert fast_wire.n_pairs == ref_wire.n_pairs
        assert sorted(fast_wire.buckets) == sorted(ref_wire.buckets)
        for k in ref_wire.buckets:
            fast_words = np.sort(np.frombuffer(fast_wire.buckets[k], dtype="<i8"))
            ref_words = np.sort(np.frombuffer(ref_wire.buckets[k], dtype="<i8"))
            assert np.array_equal(fast_words, ref_words)
        fast_chains = np.sort(np.frombuffer(fast_wire.chains, dtype="<i8"))
        ref_chains = np.sort(np.frombuffer(ref_wire.chains, dtype="<i8"))
        assert np.array_equal(fast_chains, ref_chains)

    @pytest.mark.parametrize("seed", [5, 23])
    def test_percolation_groups_match_union_find(self, seed):
        graph = random_graph(50, 0.3, seed=seed)
        cpm = LightweightParallelCPM(graph, kernel="bitset")
        dense, _cliques = sharded_enumerate_dense(cpm, None)
        sizes = [len(c) for c in dense]
        wire, _, _ = count_overlaps_bitset(*_counter_args(dense))
        orders = list(range(max(sizes), 1, -1))
        eligibles = [prefix_count(sizes, k) for k in orders]
        fast, fast_stats = percolate_wire("blocks", orders, eligibles, wire)
        ref, ref_stats = percolate_wire("bitset", orders, eligibles, wire)
        assert fast == ref
        assert fast_stats["union_merges"] == ref_stats["union_merges"]
        assert fast_stats["orders"] == ref_stats["orders"]


class TestCLI:
    def test_blocks_without_numpy_exits_2(self, saved_dataset, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setattr(_blocks_compat, "HAVE_NUMPY", False)
        code = main(["communities", saved_dataset, "--kernel", "blocks"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "numpy" in err and "[perf]" in err

    def test_auto_without_numpy_runs_on_bitset(self, saved_dataset, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setattr(_blocks_compat, "HAVE_NUMPY", False)
        assert main(["communities", saved_dataset, "--kernel", "auto", "--max-k", "4"]) == 0

    @needs_numpy
    def test_blocks_kernel_end_to_end(self, saved_dataset, capsys):
        from repro.cli import main

        assert main(["communities", saved_dataset, "--kernel", "blocks", "--max-k", "4"]) == 0
        assert "k=4" in capsys.readouterr().out

    def test_manifest_records_resolved_kernel_and_numpy(
        self, saved_dataset, tmp_path, capsys
    ):
        from repro.cli import main

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
        assert settings["kernel"] == ("blocks" if HAVE_NUMPY else "bitset")
        assert settings["numpy"] == numpy_version()

    def test_manifest_records_bitset_and_null_without_numpy(
        self, saved_dataset, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setattr(_blocks_compat, "HAVE_NUMPY", False)
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
        assert settings["kernel"] == "bitset"
        assert settings["numpy"] is None


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
