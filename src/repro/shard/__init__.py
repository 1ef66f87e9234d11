"""Sharded CPM enumeration: degeneracy-partitioned Bron–Kerbosch.

``repro.shard`` fans the one LP-CPM phase that gains from a worker
pool — maximal-clique enumeration — out of
:class:`~repro.core.lightweight.LightweightParallelCPM`: the ``shards``
knob (``run_cpm(..., shards=4)`` / ``--shards auto``) partitions the
Bron–Kerbosch subtrees across workers while keeping output
byte-identical to the serial path.  Overlap counting and percolation
stay serial in the driver.  See :mod:`.plan` for the
partitioning scheme, :mod:`.workers` for the worker-side memory model
and :mod:`.pipeline` for the reassembly argument; docs/performance.md
covers when sharding wins (and when it loses at small scale).
"""

from .plan import ShardPlan, plan_shards, resolve_shards

__all__ = ["ShardPlan", "plan_shards", "resolve_shards"]
