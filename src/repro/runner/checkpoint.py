"""Phase-level checkpoints for LP-CPM runs, and the one on-disk store.

The paper's extraction ran for 93 hours; on that horizon a crash that
loses all completed phases is not an inconvenience, it is the run.  A
:class:`CheckpointStore` persists the output of each pipeline phase —
enumeration, the overlap wire, and the accumulated per-order
percolation groups — into a directory of atomically-written files,
so an interrupted ``communities``/``paper`` run restarted with
``--resume`` picks up from the last completed phase (and, within the
percolation phase, from the last completed *order batch*).  It is the
one on-disk store: a clique-cache entry (:mod:`repro.core.cache`) is a
store that outlives its run, and a saved session is a ``session`` phase.

Layout of a checkpoint directory::

    <dir>/META.json           # schema, graph checksum, kernel, version
    <dir>/shard_enumerate.pickle  # completed shards of a sharded enumeration
    <dir>/enumerate.pickle    # phase 1 output
    <dir>/overlap.pickle      # phase 2 output (cliques + wire; a cache entry)
    <dir>/percolate.pickle    # {k: clique-id groups} for completed orders
    <dir>/session.pickle      # a persisted incremental CPMSession (exclusive
                              # with the three batch phases; docs/incremental.md)

Every phase file is one frame (the query artifact's preamble layout:
magic, version byte, blake2b-128 digest of the body) in front of a
pickle, written through :func:`atomic_bytes_dump` (same-directory temp
file + ``os.replace``).  The frame is checked before anything is
unpickled, so a torn, corrupt or foreign file reads back as "phase not
done" and is recomputed.  ``META.json`` is validated on resume: a
schema, graph-checksum or kernel mismatch raises
:class:`CheckpointMismatchError` instead of silently resuming the wrong
run (the CLI maps this to a clean non-zero exit).
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import tempfile
from hashlib import blake2b
from pathlib import Path
from typing import Any

__all__ = [
    "CheckpointStore",
    "CheckpointError",
    "CheckpointMismatchError",
    "CHECKPOINT_SCHEMA_VERSION",
    "PHASES",
    "FRAME",
    "atomic_bytes_dump",
    "frame_digest",
    "has_fields",
]

#: Bump on any change to the phase payload layout or the frame; old
#: checkpoints then fail resume loudly and old cache entries miss.
CHECKPOINT_SCHEMA_VERSION = 2

#: The checkpointable phases, in pipeline order.  ``shard_enumerate``
#: holds the sharded enumeration's per-task partials (completed shards
#: of a fan-out still in flight); ``enumerate`` stores the assembled
#: result once the fan-out finishes, so serial and sharded runs can
#: resume each other's completed phases.  ``session`` is not a
#: pipeline phase: it is the single-payload slot an incremental
#: :class:`~repro.incremental.CPMSession` persists itself into (the
#: session state subsumes the batch phases, so they are
#: never mixed in one directory — ``open`` clears the others).
PHASES = (
    "shard_enumerate",
    "enumerate",
    "overlap",
    "percolate",
    "session",
)

_MAGIC = b"RQCKP"
#: magic + version byte + blake2b-128 digest of the body: the one frame
#: of every persisted file (the query artifact's preamble too).
FRAME = struct.Struct("<5sB16s")


def atomic_bytes_dump(path: Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (same-dir temp + rename).

    A crash mid-write can never leave a torn file at ``path``, a
    reader holding the old file (or an mmap of it) keeps its bytes,
    and concurrent writers race benignly (last rename wins).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def has_fields(payload: Any, fields: dict[str, type]) -> bool:
    """True iff ``payload`` is a dict holding every field at its type
    (the shape check of every persisted-payload reader)."""
    return isinstance(payload, dict) and all(
        isinstance(payload.get(name), kind) for name, kind in fields.items()
    )


def frame_digest(body) -> bytes:
    """The blake2b-128 digest a :data:`FRAME` carries for ``body``."""
    return blake2b(body, digest_size=16).digest()


def _unframe(blob: bytes) -> memoryview | None:
    """The body behind a valid frame, or None (foreign, stale or corrupt)."""
    if len(blob) < FRAME.size:
        return None
    magic, version, digest = FRAME.unpack_from(blob)
    body = memoryview(blob)[FRAME.size :]
    if magic != _MAGIC or version != CHECKPOINT_SCHEMA_VERSION or frame_digest(body) != digest:
        return None
    return body


def _identity(checksum: str, kernel: str) -> dict:
    """The META fields naming a run (checked on resume and by a cache probe)."""
    return {"schema": CHECKPOINT_SCHEMA_VERSION, "checksum": checksum, "kernel": kernel}


class CheckpointError(ValueError):
    """Base class for checkpoint problems (a :class:`ValueError`)."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint on disk does not belong to this run.

    Raised on resume when the stored schema version, graph checksum or
    kernel differs from the current run's — continuing would splice
    phases of two different computations together.
    """


class CheckpointStore:
    """Directory-backed store of per-phase LP-CPM results.

    >>> import tempfile
    >>> store = CheckpointStore(tempfile.mkdtemp())
    >>> store.open(checksum="abc", kernel="blocks", resume=False)
    >>> _ = store.store_phase("percolate", {4: [[0, 1]]})
    >>> store.load_phase("percolate")
    {4: [[0, 1]]}
    """

    META_NAME = "META.json"

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def meta_path(self) -> Path:
        """Path of the ``META.json`` identity file."""
        return self.root / self.META_NAME

    def phase_path(self, phase: str) -> Path:
        """Path of one phase's pickle (phase must be in :data:`PHASES`)."""
        if phase not in PHASES:
            raise ValueError(f"unknown checkpoint phase {phase!r}; expected one of {PHASES}")
        return self.root / f"{phase}.pickle"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self, *, checksum: str, kernel: str, resume: bool) -> None:
        """Bind the store to one run, validating or resetting the directory.

        With ``resume=True`` an existing ``META.json`` must match the
        run (schema version, graph checksum, kernel) or
        :class:`CheckpointMismatchError` is raised; an empty directory
        starts fresh (there is simply nothing to resume).  With
        ``resume=False`` any previous content is cleared first.
        """
        meta = self.meta() if resume else None
        if meta is not None:
            for key, want in _identity(checksum, kernel).items():
                if meta.get(key) != want:
                    raise CheckpointMismatchError(
                        f"checkpoint at {self.root} was written for {key}={meta.get(key)!r}, "
                        f"this run has {key}={want!r}; refusing to resume "
                        "(use a fresh --checkpoint-dir or drop --resume)"
                    )
            return
        self.clear()
        self._write_meta(checksum=checksum, kernel=kernel)

    def holds(self, *, checksum: str, kernel: str) -> bool:
        """True iff a readable META names this schema, checksum and kernel.

        The read-only identity check of a clique-cache probe: unlike
        :meth:`open`, it never raises, clears or writes.
        """
        try:
            meta = self.meta()
        except CheckpointMismatchError:
            return False
        identity = _identity(checksum, kernel)
        return meta is not None and {key: meta.get(key) for key in identity} == identity

    def clear(self) -> None:
        """Remove every phase file and the META (idempotent)."""
        for phase in PHASES:
            try:
                self.phase_path(phase).unlink()
            except FileNotFoundError:
                pass
        try:
            self.meta_path.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # Phase payloads
    # ------------------------------------------------------------------
    def has_phase(self, phase: str) -> bool:
        """True iff a payload for ``phase`` is on disk."""
        return self.phase_path(phase).is_file()

    def load_phase(self, phase: str) -> Any | None:
        """The stored payload for ``phase``, or None if absent/unreadable.

        A torn, corrupt, stale or foreign file — one that fails the frame
        check or, whatever the exception, to unpickle — is treated as
        "not done": the phase is recomputed and the rewrite repairs it.
        """
        path = self.phase_path(phase)
        try:
            body = _unframe(path.read_bytes())
            return None if body is None else pickle.loads(body)
        except Exception:
            return None

    def store_phase(self, phase: str, payload: Any) -> Path:
        """Atomically persist ``phase``'s framed payload; returns its path."""
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        frame = FRAME.pack(_MAGIC, CHECKPOINT_SCHEMA_VERSION, frame_digest(body))
        return atomic_bytes_dump(self.phase_path(phase), frame + body)

    # ------------------------------------------------------------------
    # META
    # ------------------------------------------------------------------
    def meta(self) -> dict | None:
        """The directory's ``META.json`` contents, or None when absent.

        Read-only: unlike :meth:`open`, it never clears or rewrites
        anything.  An unreadable META raises
        :class:`CheckpointMismatchError`.
        """
        try:
            meta = json.loads(self.meta_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointMismatchError(
                f"checkpoint META at {self.meta_path} is unreadable: {exc}"
            ) from exc
        if not isinstance(meta, dict):
            raise CheckpointMismatchError(
                f"checkpoint META at {self.meta_path} is not a JSON object"
            )
        return meta

    def _write_meta(self, *, checksum: str, kernel: str) -> None:
        from .. import __version__

        meta = {**_identity(checksum, kernel), "repro": __version__}
        atomic_bytes_dump(
            self.meta_path, (json.dumps(meta, indent=2) + "\n").encode("utf-8")
        )

    def __repr__(self) -> str:
        done = [phase for phase in PHASES if self.has_phase(phase)]
        return f"CheckpointStore({str(self.root)!r}, phases={done})"
