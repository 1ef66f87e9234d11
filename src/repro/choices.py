"""The named alternatives a run picks between, defined once each.

The CPM kernels, the kernels a session runs on, the Chapter-4 metric
engines and the metrics the query engine ranks by.  The modules that
implement them re-export these names; this module imports nothing, so
the command-line parser takes its choices from here without loading a
kernel, numpy or the analysis layer.
"""

from __future__ import annotations

__all__ = ["KERNELS", "SESSION_KERNELS", "ENGINES", "TOP_METRICS", "resolve_kernel"]

#: CPM kernels of :class:`~repro.core.lightweight.LightweightParallelCPM`:
#: the production numpy pipeline and the set-based reference oracle.
KERNELS = ("blocks", "set")

#: The kernels a session runs on (plus ``"auto"``): the batch pipeline's.
SESSION_KERNELS = ("blocks",)

#: Selectable analysis engines: the popcount fast path and the
#: set-based reference oracle it is verified against.
ENGINES = ("bitset", "set")

#: Metrics :meth:`~repro.query.engine.LookupEngine.top` can rank by.
TOP_METRICS = ("density", "odf", "size")


def resolve_kernel(kernel: str, kernels: tuple[str, ...] = KERNELS) -> str:
    """Resolve a kernel request (including ``"auto"``) to a name in ``kernels``.

    The one kernel validator of the batch pipeline, the session
    (``kernels=SESSION_KERNELS``) and the CLI: ``"auto"`` is ``blocks``,
    any other name outside ``kernels`` raises a ``ValueError`` that
    lists the accepted names.
    """
    if kernel == "auto":
        return "blocks"
    if kernel not in kernels:
        raise ValueError(f"kernel must be one of {kernels} or 'auto', got {kernel!r}")
    return kernel
