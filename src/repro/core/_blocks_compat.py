"""Optional-numpy guard for the ``blocks`` kernel.

numpy is an optional ``[perf]`` extra: only the ``blocks`` CPM
kernel's overlap and percolation phases need it; everything else in
the package, clique enumeration and the analysis sweep included, runs
without it.  This module is the single place that probes for the
dependency, so the import is attempted exactly once and every feature
gate reads the same answer.

``require_numpy`` raises :class:`BlocksUnavailableError` — a
``ValueError`` subclass, so the CLI's existing argument-error handling
turns a ``--kernel blocks`` request on a numpy-less install into a
clean ``error: ...`` message and exit code 2 instead of a traceback.
"""

from __future__ import annotations

__all__ = [
    "HAVE_NUMPY",
    "BlocksUnavailableError",
    "numpy_version",
    "require_numpy",
]

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _numpy

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the no-numpy CI leg hits this
    _numpy = None
    HAVE_NUMPY = False


class BlocksUnavailableError(ValueError):
    """A numpy-backed feature was requested but numpy is not installed."""


def numpy_version() -> str | None:
    """The installed numpy version, or None without the ``[perf]`` extra.

    Recorded in run-manifest settings so two runs can be told apart by
    the numerical stack they executed on, not just the kernel name.
    """
    return _numpy.__version__ if HAVE_NUMPY else None


def require_numpy(feature: str):
    """Return the numpy module, or raise a clean error naming ``feature``.

    >>> np = require_numpy("kernel 'blocks'")  # doctest: +SKIP
    """
    if not HAVE_NUMPY:
        raise BlocksUnavailableError(
            f"{feature} requires numpy, which is not installed; "
            "install the [perf] extra (pip install 'repro[perf]') "
            "or use the pure-Python 'bitset' kernel"
        )
    return _numpy
