"""Ablation — LP-CPM scaling with topology size (DESIGN.md §5).

The paper's CPM run was feasible only because of the lightweight
formulation; this bench sweeps the generator's ``scale`` knob and
reports how clique count and CPM time grow with the AS population while
the community-tree depth (driven by the fixed IXP core sizes) stays
constant — the property that makes scaled-down reproduction valid.
"""

import gc

from repro.core.lightweight import LightweightParallelCPM
from repro.obs import Tracer
from repro.report.figures import ascii_table
from repro.topology.generator import GeneratorConfig, generate_topology


def _run_at_scale(scale: float):
    dataset = generate_topology(GeneratorConfig(scale=scale), seed=42)
    cpm = LightweightParallelCPM(dataset.graph)
    hierarchy = cpm.run()
    return dataset, cpm.stats, hierarchy


def test_cpm_scaling_sweep(benchmark, emit, bench_record):
    rows = []
    results = {}
    for scale in (0.25, 0.5, 1.0):
        dataset, stats, hierarchy = _run_at_scale(scale)
        results[scale] = (dataset, stats, hierarchy)
        # Per-scale CPM wall time, persisted in the manifest config so
        # check_bench_regression.py can gate on it commit-to-commit.
        bench_record[f"cpm_seconds_scale_{scale}"] = round(stats.total_seconds, 4)
        rows.append(
            [
                scale,
                dataset.n_ases,
                dataset.n_links,
                stats.n_cliques,
                round(stats.total_seconds, 3),
                hierarchy.max_k,
                hierarchy.total_communities,
            ]
        )
    # The timed target: the reference scale.
    benchmark(lambda: LightweightParallelCPM(results[1.0][0].graph).run())

    table = ascii_table(
        ["scale", "ASes", "links", "maximal cliques", "CPM seconds", "max k", "communities"],
        rows,
        title="LP-CPM scaling sweep (depth fixed by IXP cores; population scales)",
    )
    emit("cpm_scaling", table)

    # Clique count grows with population; tree depth does not.
    assert results[0.25][1].n_cliques < results[1.0][1].n_cliques
    assert results[0.25][2].max_k == results[1.0][2].max_k == 36


def test_cpm_kernel_comparison(dataset, emit, bench_record):
    """The production kernel's end-to-end time at the reference scale.

    The pipeline runs three times under its own live tracer (the
    instrumented conditions CI gates in) with a ``gc.collect()`` first,
    and the *fastest* run's wall time lands in the manifest config as
    ``cpm_run_seconds_blocks`` — min-of-N on a collected heap measures
    the pipeline rather than whatever garbage the earlier benches left
    behind or whatever the host stole from a shared vCPU, which keeps
    the committed baseline reproducible enough for a 1.25x gate.  The
    per-run tracers are deliberately *not* merged into the manifest:
    the runs would write colliding ``cpm.*`` span names and the gate
    only reads the first.
    """
    best = None
    for _ in range(3):
        gc.collect()
        tracer = Tracer()
        cpm = LightweightParallelCPM(dataset.graph, tracer=tracer)
        hierarchy = cpm.run()
        tracer.close()
        if best is None or cpm.stats.total_seconds < best[0].stats.total_seconds:
            best = (cpm, hierarchy)
    cpm, hierarchy = best
    bench_record["cpm_run_seconds_blocks"] = round(cpm.stats.total_seconds, 4)

    table = ascii_table(
        ["kernel", "maximal cliques", "CPM seconds", "max k", "communities"],
        [
            [
                cpm.kernel,
                cpm.stats.n_cliques,
                round(cpm.stats.total_seconds, 3),
                hierarchy.max_k,
                hierarchy.total_communities,
            ]
        ],
        title="LP-CPM kernel comparison (reference scale, instrumented)",
    )
    emit("cpm_kernel_comparison", table)
