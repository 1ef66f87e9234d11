"""Shared fixtures.

The expensive artefacts (synthetic datasets and their CPM runs) are
session-scoped: the default-profile dataset takes ~1 s of CPM, the tiny
profile is near-instant, and dozens of analysis tests reuse both.
"""

from __future__ import annotations

import pickle
import pickletools
import random

import pytest

from repro.analysis.context import AnalysisContext
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
