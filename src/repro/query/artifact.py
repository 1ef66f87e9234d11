"""The immutable community query artifact: build once, look up forever.

Every answer the paper's hierarchy can give — which communities contain
AS X at each order, the band of X, the lowest common community of two
ASes, the densest communities — is a pure function of the CPM output.
Today that output lives in a Python object graph that costs a full
``run_cpm`` + analysis sweep to materialise; a :class:`QueryArtifact`
is the same information serialised *once* into a packed, mmap-friendly
binary file so a long-lived server (``repro query serve``) answers
point queries in microseconds with **zero recompute**.

File layout (little-endian throughout)::

    magic "RQART" + u8 version        | identifies the format
    blake2b-128 digest of the payload | corruption check on load
    header: 14 x u64 section table    | offsets/lengths, counts
    meta JSON                         | graph fingerprint, band
                                      |   boundaries, orders, versions
    node table JSON                   | sorted node objects (int/str);
                                      |   position = dense node id
    community index                   | n_communities fixed 64-byte
                                      |   records (struct-packed)
    postings                          | per-node membership lists:
                                      |   (n_nodes+1) u64 offsets +
                                      |   u32 community ordinals
    top tables                        | 3 x n_communities u32 ordinals
                                      |   (by density / ODF / size)
    bitset blocks                     | per-community membership
                                      |   bitsets as u64 words

Each community index record stores ``(k, index, size, parent ordinal,
link density, average ODF, flags, bitset word offset, word count)``;
labels (``k<k>id<n>``) are derived, never stored.  Community ordinals
are global positions in ascending ``(k, index)`` order, so the paper's
tree (parent pointers, main-chain flags) round-trips without labels.

The *postings* section is the read path for membership/band/LCA
queries: one offset subtraction plus a contiguous u32 slice per node —
no bitset is touched.  The *bitset blocks* serve member expansion and
set-algebra queries; with ``mmap=True`` (the default in
:meth:`QueryArtifact.load`) they stay on disk until a query slices
them, so a server's resident set is the index, not the membership
matrix.

Keying: the meta block embeds the
:func:`~repro.obs.manifest.graph_fingerprint` of the source graph —
the same checksum the run manifests and the on-disk clique cache use —
so an artifact is verifiably *about* one input graph and stale
artifacts are detectable by comparing checksums, never by trusting
file names.
"""

from __future__ import annotations

import json
import mmap as mmap_module
import struct
from array import array
from os import PathLike
from pathlib import Path

from ..core.communities import CommunityHierarchy
from ..core.tree import CommunityTree
from ..obs.manifest import graph_fingerprint
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_TRACER, Tracer
from ..runner.checkpoint import FRAME, atomic_bytes_dump, frame_digest

__all__ = ["ARTIFACT_VERSION", "ArtifactError", "BandSpec", "QueryArtifact", "build_artifact"]

#: Bumped on any layout change; a mismatch is a clean load error.
ARTIFACT_VERSION = 1

_MAGIC = b"RQART"
#: Section table: all u64 — n_nodes, n_communities, then offset/length
#: pairs for meta, nodes, index, postings, tops, bitsets.
_HEADER = struct.Struct("<14Q")
#: One community record: k, index (u32); size; parent ordinal (i64,
#: -1 for roots); density, ODF (f64); flags; bitset word offset/count.
_RECORD = struct.Struct("<IIQqddQQQ")

_FLAG_MAIN = 1


class ArtifactError(ValueError):
    """A query artifact failed to load: wrong format, truncated, corrupt."""


class BandSpec:
    """Crown/trunk/root boundaries carried inside the artifact.

    Mirrors :class:`repro.analysis.bands.BandBoundaries` (root =
    ``[min_k, root_max]``, crown = ``[crown_min, max_k]``) without
    importing the analysis layer at query time.
    """

    __slots__ = ("root_max", "crown_min")

    def __init__(self, root_max: int, crown_min: int) -> None:
        self.root_max = int(root_max)
        self.crown_min = int(crown_min)

    def band_of(self, k: int) -> str:
        """The band name (``root`` / ``trunk`` / ``crown``) of order ``k``."""
        if k <= self.root_max:
            return "root"
        if k < self.crown_min:
            return "trunk"
        return "crown"

    def to_dict(self) -> dict:
        """The boundaries as the mapping stored in the artifact meta."""
        return {"root_max": self.root_max, "crown_min": self.crown_min}


#: Paper fallback boundaries (Sections 4.1-4.3) used when no IXP-share
#: derivation is available — same values as ``derive_bands``'s fallback.
_DEFAULT_BANDS = (13, 29)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ArtifactError(message)


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
def build_artifact(
    hierarchy: CommunityHierarchy,
    *,
    tree: CommunityTree | None = None,
    graph=None,
    csr=None,
    table: dict[str, tuple[float, float]] | None = None,
    bands=None,
    fingerprint: dict | None = None,
    analysis_engine: str = "bitset",
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> "QueryArtifact":
    """Assemble a :class:`QueryArtifact` from a community hierarchy.

    ``table`` maps each community label to its ``(link_density,
    average_odf)`` pair; when omitted it is swept by a
    :class:`~repro.analysis.engine.MetricsEngine` over ``graph``
    (reusing ``csr`` when the CPM run kept its snapshot), which is the
    memoized Chapter-4 metric table — the artifact freezes it.
    ``bands`` is anything with ``root_max``/``crown_min`` attributes
    (e.g. the IXP-share-derived
    :class:`~repro.analysis.bands.BandBoundaries`); without one the
    paper's fallback boundaries apply.  ``fingerprint`` defaults to
    the BLAKE2b fingerprint of ``graph``.

    The build runs inside a ``query.build`` span and emits
    ``query.build.*`` counters.  The span's ``engine`` attribute is
    ``analysis_engine``: the engine that sweeps the table here, so a
    caller passing a precomputed ``table`` names the engine that
    swept it.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    registry = metrics if metrics is not None else MetricsRegistry()
    with tracer.span("query.build", engine=analysis_engine) as span:
        if tree is None:
            tree = CommunityTree(hierarchy, tracer=tracer, metrics=metrics)
        if table is None:
            if graph is None:
                raise ValueError("build_artifact needs either a metric table or a graph")
            from ..analysis.engine import MetricsEngine

            engine = MetricsEngine(
                hierarchy,
                tree,
                graph,
                engine=analysis_engine,
                csr=csr,
                tracer=tracer,
                metrics=metrics,
            )
            table = {
                row["label"]: (row["link_density"], row["average_odf"])
                for row in engine.export_table()["rows"]
            }
        if fingerprint is None and graph is not None:
            fingerprint = graph_fingerprint(graph)
        if bands is None:
            band_spec = BandSpec(*_DEFAULT_BANDS)
        else:
            band_spec = BandSpec(bands.root_max, bands.crown_min)
        artifact = QueryArtifact._from_objects(
            hierarchy, tree, table, band_spec, fingerprint or {}
        )
        span.set("communities", artifact.n_communities)
        span.set("nodes", artifact.n_nodes)
        registry.inc("query.build.communities", artifact.n_communities)
        registry.inc("query.build.nodes", artifact.n_nodes)
    return artifact


def _canonical_nodes(hierarchy: CommunityHierarchy) -> list:
    """Sorted union of all community member sets (the node universe).

    Only int/str nodes serialise (AS numbers are ints) — the same
    constraint as ``repro.core.serialize``; mixed types raise rather
    than producing an unloadable artifact.
    """
    universe: set = set()
    for cover in hierarchy.values():
        universe.update(cover.nodes())
    for node in universe:
        if not isinstance(node, (int, str)):
            raise TypeError(
                f"only int/str nodes serialise into a query artifact; "
                f"got {type(node).__name__}"
            )
    return sorted(universe)


# ----------------------------------------------------------------------
# The artifact
# ----------------------------------------------------------------------
class QueryArtifact:
    """The parsed (or mmapped) community query artifact.

    Construct via :func:`build_artifact` (from live objects) or
    :meth:`load` (from a file); :meth:`save` writes the packed form.
    All index sections are held as Python ``array`` objects after
    parsing; the bitset blocks stay behind ``memoryview``/``mmap`` and
    are sliced lazily per query.
    """

    def __init__(
        self,
        *,
        meta: dict,
        nodes: list,
        ks: array,
        indices: array,
        sizes: array,
        parents: array,
        densities: array,
        odfs: array,
        flags: array,
        word_offs: array,
        word_counts: array,
        post_offsets: array,
        postings: array,
        tops: dict[str, array],
        bit_view,
        mmap_handle=None,
    ) -> None:
        self.meta = meta
        self.nodes = nodes
        self._node_id = {node: i for i, node in enumerate(nodes)}
        self._ks = ks
        self._indices = indices
        self._sizes = sizes
        self._parents = parents
        self._densities = densities
        self._odfs = odfs
        self._flags = flags
        self._word_offs = word_offs
        self._word_counts = word_counts
        self._post_offsets = post_offsets
        self._postings = postings
        self._tops = tops
        self._bits = bit_view
        self._mmap = mmap_handle
        #: ordinal of the first community of each order, for label lookup.
        self._order_start: dict[int, int] = {}
        for ordinal, k in enumerate(ks):
            self._order_start.setdefault(k, ordinal)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_communities(self) -> int:
        return len(self._ks)

    @property
    def fingerprint(self) -> dict:
        """The source graph's fingerprint (nodes/edges/checksum)."""
        return dict(self.meta.get("fingerprint", {}))

    @property
    def bands(self) -> BandSpec:
        band = self.meta["bands"]
        return BandSpec(band["root_max"], band["crown_min"])

    @property
    def orders(self) -> list[int]:
        return list(self.meta["orders"])

    def label(self, ordinal: int) -> str:
        """The ``k<k>id<n>`` label of a community ordinal."""
        return f"k{self._ks[ordinal]}id{self._indices[ordinal]}"

    def ordinal(self, label: str) -> int:
        """The ordinal of a ``k<k>id<n>`` label (KeyError if absent)."""
        try:
            k_part, id_part = label.lstrip("k").split("id")
            k, index = int(k_part), int(id_part)
        except ValueError as exc:
            raise KeyError(f"malformed community label: {label!r}") from exc
        start = self._order_start.get(k)
        if start is None:
            raise KeyError(f"no community {label!r} in artifact")
        ordinal = start + index
        if ordinal >= len(self._ks) or self._ks[ordinal] != k:
            raise KeyError(f"no community {label!r} in artifact")
        return ordinal

    def node_id(self, node) -> int:
        """Dense id of a node object (KeyError if unknown)."""
        return self._node_id[node]

    def record(self, ordinal: int) -> dict:
        """One community's stored fields as a plain dict."""
        return {
            "label": self.label(ordinal),
            "k": self._ks[ordinal],
            "index": self._indices[ordinal],
            "size": self._sizes[ordinal],
            "parent": (
                self.label(self._parents[ordinal]) if self._parents[ordinal] >= 0 else None
            ),
            "link_density": self._densities[ordinal],
            "average_odf": self._odfs[ordinal],
            "is_main": bool(self._flags[ordinal] & _FLAG_MAIN),
        }

    def postings_of(self, node_id: int) -> array:
        """Community ordinals containing a node id, ascending (k, index)."""
        start = self._post_offsets[node_id]
        stop = self._post_offsets[node_id + 1]
        return self._postings[start:stop]

    def member_bitset(self, ordinal: int) -> int:
        """The membership bitset of a community (bit i = node id i)."""
        off = self._word_offs[ordinal] * 8
        length = self._word_counts[ordinal] * 8
        return int.from_bytes(self._bits[off : off + length], "little")

    def members(self, ordinal: int) -> list:
        """The member node objects of a community, sorted."""
        mask = self.member_bitset(ordinal)
        nodes = self.nodes
        out = []
        while mask:
            low = mask & -mask
            out.append(nodes[low.bit_length() - 1])
            mask ^= low
        return out

    def top_ordinals(self, metric: str) -> array:
        """All ordinals sorted descending by ``density``/``odf``/``size``."""
        try:
            return self._tops[metric]
        except KeyError:
            raise KeyError(
                f"unknown top metric {metric!r}; expected one of {sorted(self._tops)}"
            ) from None

    def close(self) -> None:
        """Release the mmap (no-op for in-memory artifacts). Idempotent."""
        if self._mmap is not None:
            bits = self._bits
            self._bits = bytes(bits)  # detach before unmapping
            del bits
            self._mmap.close()
            self._mmap = None

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------
    @classmethod
    def _from_objects(
        cls,
        hierarchy: CommunityHierarchy,
        tree: CommunityTree,
        table: dict[str, tuple[float, float]],
        bands: BandSpec,
        fingerprint: dict,
    ) -> "QueryArtifact":
        nodes = _canonical_nodes(hierarchy)
        node_id = {node: i for i, node in enumerate(nodes)}
        n_words = (len(nodes) + 63) >> 6

        ks = array("I")
        indices = array("I")
        sizes = array("Q")
        parents = array("q")
        densities = array("d")
        odfs = array("d")
        flags = array("Q")
        word_offs = array("Q")
        word_counts = array("Q")
        bit_chunks: list[bytes] = []
        posting_lists: list[list[int]] = [[] for _ in nodes]

        ordinal_of: dict[str, int] = {}
        communities = list(hierarchy.all_communities())
        for ordinal, community in enumerate(communities):
            ordinal_of[community.label] = ordinal
        word_cursor = 0
        for ordinal, community in enumerate(communities):
            label = community.label
            density, odf = table[label]
            parent_node = tree.node(label).parent
            ks.append(community.k)
            indices.append(community.index)
            sizes.append(community.size)
            parents.append(ordinal_of[parent_node.label] if parent_node else -1)
            densities.append(density)
            odfs.append(odf)
            flags.append(_FLAG_MAIN if tree.is_main(label) else 0)
            mask = 0
            for member in community.members:
                i = node_id[member]
                mask |= 1 << i
                posting_lists[i].append(ordinal)
            word_offs.append(word_cursor)
            word_counts.append(n_words)
            word_cursor += n_words
            bit_chunks.append(mask.to_bytes(n_words * 8, "little"))

        post_offsets = array("Q", [0])
        postings = array("I")
        for ordinals in posting_lists:
            postings.extend(ordinals)
            post_offsets.append(len(postings))

        tops = {
            "density": _ranked(densities, ks, indices),
            "odf": _ranked(odfs, ks, indices),
            "size": _ranked(sizes, ks, indices),
        }
        meta = {
            "format": "repro.query-artifact",
            "version": ARTIFACT_VERSION,
            "fingerprint": dict(fingerprint),
            "bands": bands.to_dict(),
            "orders": hierarchy.orders,
            "min_k": hierarchy.min_k,
            "max_k": hierarchy.max_k,
            "n_nodes": len(nodes),
            "n_communities": len(communities),
            "bitset_words_per_community": n_words,
        }
        return cls(
            meta=meta,
            nodes=nodes,
            ks=ks,
            indices=indices,
            sizes=sizes,
            parents=parents,
            densities=densities,
            odfs=odfs,
            flags=flags,
            word_offs=word_offs,
            word_counts=word_counts,
            post_offsets=post_offsets,
            postings=postings,
            tops=tops,
            bit_view=b"".join(bit_chunks),
        )

    def _payload(self) -> bytes:
        """The packed sections after the preamble, ready to digest."""
        meta_blob = json.dumps(self.meta, sort_keys=True).encode("utf-8")
        nodes_blob = json.dumps(self.nodes).encode("utf-8")
        index_blob = bytearray()
        for ordinal in range(self.n_communities):
            index_blob += _RECORD.pack(
                self._ks[ordinal],
                self._indices[ordinal],
                self._sizes[ordinal],
                self._parents[ordinal],
                self._densities[ordinal],
                self._odfs[ordinal],
                self._flags[ordinal],
                self._word_offs[ordinal],
                self._word_counts[ordinal],
            )
        post_blob = self._post_offsets.tobytes() + self._postings.tobytes()
        tops_blob = (
            self._tops["density"].tobytes()
            + self._tops["odf"].tobytes()
            + self._tops["size"].tobytes()
        )
        bits_blob = bytes(self._bits)

        sections = [meta_blob, nodes_blob, bytes(index_blob), post_blob, tops_blob, bits_blob]
        cursor = FRAME.size + _HEADER.size
        table: list[int] = [self.n_nodes, self.n_communities]
        for blob in sections:
            table.extend((cursor, len(blob)))
            cursor += len(blob)
        return _HEADER.pack(*table) + b"".join(sections)

    def save(self, path: str | PathLike) -> Path:
        """Write the packed artifact atomically; returns the path.

        The file is replaced, never truncated in place, so a process
        serving the old bytes through mmap keeps reading them.
        """
        return atomic_bytes_dump(Path(path), self.to_bytes())

    @classmethod
    def load(
        cls, path: str | PathLike, *, mmap: bool = True, verify: bool = True
    ) -> "QueryArtifact":
        """Read a saved artifact back, mmapping the file by default.

        ``verify=True`` (default) recomputes the payload digest and
        refuses corrupt bytes; truncated or foreign files raise
        :class:`ArtifactError` either way.  With ``mmap=True`` the
        bitset blocks are never copied into memory — queries slice the
        mapping directly.
        """
        target = Path(path)
        try:
            handle = target.open("rb")
        except OSError as exc:
            raise ArtifactError(f"cannot open query artifact {target}: {exc}") from exc
        mm = None
        try:
            if mmap:
                try:
                    mm = mmap_module.mmap(handle.fileno(), 0, access=mmap_module.ACCESS_READ)
                    buffer = memoryview(mm)
                except (ValueError, OSError):  # empty file or no-mmap FS
                    handle.seek(0)
                    buffer = memoryview(handle.read())
                    mm = None
            else:
                buffer = memoryview(handle.read())
        finally:
            handle.close()
        try:
            return cls._parse(buffer, mm, target, verify=verify)
        except BaseException:
            del buffer
            if mm is not None:
                try:
                    mm.close()
                except BufferError:
                    # The in-flight exception's traceback still pins
                    # memoryview slices of the mapping; GC unmaps it
                    # once the exception is handled.
                    pass
            raise

    @classmethod
    def _parse(cls, buffer, mm, target: Path, *, verify: bool) -> "QueryArtifact":
        _check(
            len(buffer) >= FRAME.size + _HEADER.size,
            f"{target} is not a query artifact (file too small)",
        )
        magic, version, digest = FRAME.unpack_from(buffer, 0)
        _check(magic == _MAGIC, f"{target} is not a query artifact (bad magic)")
        _check(
            version == ARTIFACT_VERSION,
            f"{target} has artifact version {version}, expected {ARTIFACT_VERSION}",
        )
        if verify:
            actual = frame_digest(buffer[FRAME.size :])
            _check(
                actual == digest,
                f"{target} failed its integrity check (corrupt or truncated)",
            )
        header = _HEADER.unpack_from(buffer, FRAME.size)
        n_nodes, n_communities = header[0], header[1]
        spans = list(zip(header[2::2], header[3::2]))
        for off, length in spans:
            _check(
                off + length <= len(buffer),
                f"{target} is truncated (section [{off}, {off + length}) "
                f"past end of file {len(buffer)})",
            )
        (meta_s, nodes_s, index_s, post_s, tops_s, bits_s) = spans

        def section(span):
            off, length = span
            return buffer[off : off + length]

        try:
            meta = json.loads(bytes(section(meta_s)))
            nodes = json.loads(bytes(section(nodes_s)))
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{target} has an unreadable meta section: {exc}") from exc
        _check(len(nodes) == n_nodes, f"{target} node table disagrees with header")
        _check(
            index_s[1] == n_communities * _RECORD.size,
            f"{target} community index disagrees with header",
        )

        ks = array("I")
        indices = array("I")
        sizes = array("Q")
        parents = array("q")
        densities = array("d")
        odfs = array("d")
        flags = array("Q")
        word_offs = array("Q")
        word_counts = array("Q")
        for record in _RECORD.iter_unpack(section(index_s)):
            ks.append(record[0])
            indices.append(record[1])
            sizes.append(record[2])
            parents.append(record[3])
            densities.append(record[4])
            odfs.append(record[5])
            flags.append(record[6])
            word_offs.append(record[7])
            word_counts.append(record[8])

        post_blob = section(post_s)
        offsets_bytes = (n_nodes + 1) * 8
        _check(
            len(post_blob) >= offsets_bytes,
            f"{target} postings section disagrees with header",
        )
        post_offsets = array("Q")
        post_offsets.frombytes(bytes(post_blob[:offsets_bytes]))
        postings = array("I")
        postings.frombytes(bytes(post_blob[offsets_bytes:]))
        _check(
            len(postings) == (post_offsets[-1] if len(post_offsets) else 0),
            f"{target} postings list disagrees with its offsets",
        )

        tops_blob = section(tops_s)
        _check(
            len(tops_blob) == 3 * n_communities * 4,
            f"{target} top tables disagree with header",
        )
        tops = {}
        for slot, metric in enumerate(("density", "odf", "size")):
            chunk = array("I")
            chunk.frombytes(
                bytes(tops_blob[slot * n_communities * 4 : (slot + 1) * n_communities * 4])
            )
            tops[metric] = chunk

        return cls(
            meta=meta,
            nodes=nodes,
            ks=ks,
            indices=indices,
            sizes=sizes,
            parents=parents,
            densities=densities,
            odfs=odfs,
            flags=flags,
            word_offs=word_offs,
            word_counts=word_counts,
            post_offsets=post_offsets,
            postings=postings,
            tops=tops,
            bit_view=section(bits_s),
            mmap_handle=mm,
        )

    def to_bytes(self) -> bytes:
        """The full packed file as bytes (preamble + payload)."""
        payload = self._payload()
        return FRAME.pack(_MAGIC, ARTIFACT_VERSION, frame_digest(payload)) + payload

    def __repr__(self) -> str:
        return (
            f"QueryArtifact(nodes={self.n_nodes}, communities={self.n_communities}, "
            f"k=[{self.meta.get('min_k')}..{self.meta.get('max_k')}])"
        )


def _ranked(values, ks: array, indices: array) -> array:
    """Ordinals sorted by descending value, ties by (k, index)."""
    order = sorted(
        range(len(values)), key=lambda o: (-values[o], ks[o], indices[o])
    )
    return array("I", order)
