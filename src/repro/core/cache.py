"""Persistent on-disk cache for the enumeration + overlap phases.

Enumerating maximal cliques and counting their overlaps is pure
function of the graph: the paper burned 93 hours of cluster time on
it, and every re-run of an analysis over the same topology snapshot
repeats it verbatim.  The cache memoises those two phases on disk so a
second run over the same graph goes straight to percolation.

Keying: the BLAKE2b graph fingerprint already computed by
:func:`repro.obs.manifest.graph_fingerprint` (order-independent over
the edge set), combined with the kernel name and a schema version.
Anything that changes the payload layout must bump
``CACHE_SCHEMA_VERSION`` — old entries then simply miss.

Location: ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``.
Writes go through a same-directory temp file + ``os.replace`` so a
crashed run can never leave a torn entry; concurrent writers race
benignly (last rename wins, both wrote identical bytes).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

__all__ = [
    "CliqueCache",
    "CACHE_SCHEMA_VERSION",
    "default_cache_dir",
    "atomic_pickle_dump",
    "atomic_bytes_dump",
    "has_fields",
]

CACHE_SCHEMA_VERSION = 1

_ENV_VAR = "REPRO_CACHE_DIR"


def atomic_bytes_dump(path: Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (same-dir temp + rename).

    The write-then-``os.replace`` dance shared by the clique cache and
    the checkpoint store (:mod:`repro.runner.checkpoint`): a crash mid-
    write can never leave a torn file at ``path``, and concurrent
    writers race benignly (last rename wins).
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


def atomic_pickle_dump(path: Path, payload: Any) -> Path:
    """Atomically pickle ``payload`` to ``path`` (highest protocol)."""
    return atomic_bytes_dump(
        path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    )


def has_fields(payload: Any, fields: dict[str, type]) -> bool:
    """True iff ``payload`` is a dict holding every field at its type
    (the shape check of every persisted-pickle reader)."""
    return isinstance(payload, dict) and all(
        isinstance(payload.get(name), kind) for name, kind in fields.items()
    )


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get(_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


class CliqueCache:
    """Pickle-per-entry cache of clique/overlap phase results.

    >>> import tempfile
    >>> cache = CliqueCache(tempfile.mkdtemp())
    >>> cache.load("abc", "bitset") is None
    True
    >>> cache.store("abc", "bitset", {"sizes": [3, 2]})
    >>> cache.load("abc", "bitset")["sizes"]
    [3, 2]
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, checksum: str, kernel: str) -> Path:
        """Entry path for a graph checksum + kernel variant."""
        return self.root / f"cpm-v{CACHE_SCHEMA_VERSION}-{kernel}-{checksum}.pickle"

    def load(self, checksum: str, kernel: str) -> Any | None:
        """The stored payload, or None on miss or an unreadable entry."""
        path = self.path_for(checksum, kernel)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except Exception:
            # A missing, torn, stale-schema or foreign entry is a miss,
            # not an error (unpickling can raise almost anything); the
            # rewrite after recomputation repairs it.
            return None

    def store(self, checksum: str, kernel: str, payload: Any) -> Path:
        """Atomically persist ``payload`` for this graph + kernel."""
        return atomic_pickle_dump(self.path_for(checksum, kernel), payload)
