"""Phase-level checkpoints for LP-CPM runs.

The paper's extraction ran for 93 hours; on that horizon a crash that
loses all completed phases is not an inconvenience, it is the run.  A
:class:`CheckpointStore` persists the output of each pipeline phase —
enumeration, the overlap wire, and the accumulated per-order
percolation groups — into a directory of atomically-written pickles,
so an interrupted ``communities``/``paper`` run restarted with
``--resume`` picks up from the last completed phase (and, within the
percolation phase, from the last completed *order batch*).

Layout of a checkpoint directory::

    <dir>/META.json           # schema, graph checksum, kernel, version
    <dir>/shard_enumerate.pickle  # completed shards of a sharded enumeration
    <dir>/enumerate.pickle    # phase 1 output
    <dir>/overlap.pickle      # phase 2 output (wire/overlaps + integrity checksum)
    <dir>/percolate.pickle    # {k: clique-id groups} for completed orders
    <dir>/session.pickle      # a persisted incremental CPMSession (exclusive
                              # with the three batch phases; docs/incremental.md)

Every write goes through :func:`repro.core.cache.atomic_bytes_dump`
(same-directory temp file + ``os.replace``), so a crash mid-write can
never leave a torn phase file — a torn or unreadable entry simply
reads back as "phase not done" and is recomputed.  ``META.json`` is
validated on resume: a schema, graph-checksum or kernel mismatch
raises :class:`CheckpointMismatchError` instead of silently resuming
the wrong run (the CLI maps this to a clean non-zero exit).
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path
from typing import Any

from ..core.cache import atomic_bytes_dump, atomic_pickle_dump

__all__ = [
    "CheckpointStore",
    "CheckpointError",
    "CheckpointMismatchError",
    "CHECKPOINT_SCHEMA_VERSION",
    "PHASES",
]

#: Bump on any change to the phase payload layout; old checkpoints
#: then fail resume loudly instead of deserialising garbage.
CHECKPOINT_SCHEMA_VERSION = 1

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
    >>> store.open(checksum="abc", kernel="bitset", resume=False)
    >>> store.store_phase("percolate", {4: [[0, 1]]})
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
        meta = self._read_meta() if resume else None
        if resume and meta is not None:
            expected = {
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "checksum": checksum,
                "kernel": kernel,
            }
            for key, want in expected.items():
                got = meta.get(key)
                if got != want:
                    raise CheckpointMismatchError(
                        f"checkpoint at {self.root} was written for {key}={got!r}, "
                        f"this run has {key}={want!r}; refusing to resume "
                        "(use a fresh --checkpoint-dir or drop --resume)"
                    )
            return
        self.clear()
        self._write_meta(checksum=checksum, kernel=kernel)

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

        A torn, stale or foreign entry — any file that fails to unpickle,
        whatever the exception — is treated as "not done": the phase is
        recomputed and the rewrite repairs the file.
        """
        try:
            with open(self.phase_path(phase), "rb") as fh:
                return pickle.load(fh)
        except Exception:
            return None

    def store_phase(self, phase: str, payload: Any) -> Path:
        """Atomically persist ``phase``'s payload; returns its path."""
        return atomic_pickle_dump(self.phase_path(phase), payload)

    # ------------------------------------------------------------------
    # META
    # ------------------------------------------------------------------
    def meta(self) -> dict | None:
        """The directory's ``META.json`` contents, or None when absent.

        The public read used by :func:`repro.incremental.load_session`
        to discover what a directory holds (schema, checksum, kernel
        tag) *before* deciding to trust its payloads — unlike
        :meth:`open`, it never clears or rewrites anything.  An
        unreadable META raises :class:`CheckpointMismatchError`.
        """
        return self._read_meta()

    def _read_meta(self) -> dict | None:
        try:
            return json.loads(self.meta_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointMismatchError(
                f"checkpoint META at {self.meta_path} is unreadable: {exc}"
            ) from exc

    def _write_meta(self, *, checksum: str, kernel: str) -> None:
        from .. import __version__

        meta = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "checksum": checksum,
            "kernel": kernel,
            "repro": __version__,
        }
        atomic_bytes_dump(
            self.meta_path, (json.dumps(meta, indent=2) + "\n").encode("utf-8")
        )

    def __repr__(self) -> str:
        done = [phase for phase in PHASES if self.has_phase(phase)]
        return f"CheckpointStore({str(self.root)!r}, phases={done})"
