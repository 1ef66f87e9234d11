"""Persistent on-disk cache of the LP-CPM phases.

Enumerating maximal cliques, counting their overlaps and percolating
every order are pure functions of the graph: the paper burned 93 hours
of cluster time on them, and every re-run of an analysis over the same
topology snapshot repeats them verbatim.  The cache memoises the
phases on disk so a second run over the same graph skips them.

An entry is a checkpoint that outlives its run: a
:class:`~repro.runner.checkpoint.CheckpointStore` directory
``cpm-v<schema>-<kernel>-<checksum>/`` holding the ``enumerate``,
``overlap`` and ``percolate`` phases, keyed by
``CHECKPOINT_SCHEMA_VERSION`` and the BLAKE2b graph fingerprint of
:func:`repro.obs.manifest.graph_fingerprint`, which the pipeline reads
and writes as it resumes a checkpoint: a hit is a resume.  An entry is
trusted only when its META names the probed schema, checksum and
kernel, and each phase only when its frame digest verifies; anything
else is recomputed and rewritten.

Location: ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from ..runner.checkpoint import CHECKPOINT_SCHEMA_VERSION, CheckpointStore

__all__ = ["CliqueCache", "default_cache_dir"]

_ENV_VAR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get(_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


class CliqueCache:
    """Cache of LP-CPM phase results, one checkpoint store per entry.

    >>> import tempfile
    >>> cache = CliqueCache(tempfile.mkdtemp())
    >>> cache.load("abc", "blocks") is None
    True
    >>> _ = cache.store("abc", "blocks", {"sizes": [3, 2]})
    >>> cache.load("abc", "blocks")["sizes"]
    [3, 2]
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def entry(self, checksum: str, kernel: str) -> CheckpointStore:
        """The store directory for a graph checksum + kernel variant."""
        name = f"cpm-v{CHECKPOINT_SCHEMA_VERSION}-{kernel}-{checksum}"
        return CheckpointStore(self.root / name)

    def load(self, checksum: str, kernel: str) -> Any | None:
        """The stored ``overlap`` payload (cliques + wire), or None on a miss.

        A missing entry, one whose META names another graph, kernel or
        schema, and a torn or corrupt phase file are all misses; the
        rewrite after recomputation repairs them.
        """
        entry = self.entry(checksum, kernel)
        if not entry.holds(checksum=checksum, kernel=kernel):
            return None
        return entry.load_phase("overlap")

    def store(self, checksum: str, kernel: str, payload: Any) -> Path:
        """Atomically persist ``payload`` as this graph + kernel's ``overlap``
        phase, resetting the entry first."""
        entry = self.entry(checksum, kernel)
        entry.open(checksum=checksum, kernel=kernel, resume=False)
        return entry.store_phase("overlap", payload)
