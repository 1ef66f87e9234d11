"""Gate pipeline wall-time regressions against committed bench baselines.

Compares the fresh ``benchmarks/output/BENCH_*.json`` manifests (what a
bench run just wrote to the working tree) against the versions
committed at a git ref (default ``HEAD``): every ``cpm.*`` and
``analysis.*`` span and every ``cpm_seconds_*`` / ``analysis_seconds_*``
config scalar present in both is checked, and the run fails when a
fresh value exceeds baseline x tolerance (default 1.25, i.e. a >25%
wall-time regression in a gated phase).

Tiny baselines (< ``--min-seconds``, default 0.05 s) are reported but
never fail the gate — at that magnitude the comparison measures
scheduler noise, not the pipeline.  Environment overrides
``REPRO_BENCH_TOLERANCE`` / ``REPRO_BENCH_MIN_SECONDS`` let a noisy or
differently-classed machine relax the gate without editing CI.

Usage::

    python benchmarks/check_bench_regression.py [--ref HEAD]
        [--tolerance 1.25] [--min-seconds 0.05]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

OUTPUT_DIR = Path(__file__).parent / "output"
REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(*argv: str) -> str:
    return subprocess.check_output(("git", *argv), cwd=REPO_ROOT, text=True)


def committed_manifests(ref: str) -> dict[str, dict]:
    """name -> parsed manifest for every BENCH_*.json committed at ``ref``."""
    try:
        listing = _git("ls-tree", "--name-only", ref, "benchmarks/output/")
    except subprocess.CalledProcessError:
        return {}
    manifests = {}
    for line in listing.splitlines():
        name = Path(line).name
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        try:
            manifests[name] = json.loads(_git("show", f"{ref}:{line}"))
        except (subprocess.CalledProcessError, json.JSONDecodeError):
            continue
    return manifests


#: Gated measurement families: span-name prefixes and config-scalar
#: prefixes.  ``cpm.*`` covers extraction phases; ``analysis.*`` covers
#: the metric-engine sweep (``bench_analysis_metrics.py``); ``query.*``
#: and ``query_lookup_seconds_*`` cover the query-service read path
#: (``bench_query_service.py``); ``cpm_run_seconds_blocks`` gates the
#: production kernel's end-to-end wall time at the reference scale
#: (``bench_cpm_scaling.py``); ``cpm_seconds_scale_<scale>``
#: gates every point of the scaling curve (``bench_cpm_scaling.py``'s
#: sweep), not just the reference scale, and
#: ``cpm_sharded_seconds_scale_<scale>`` does the same for the sharded
#: pipeline's sweep (``bench_cpm_sharded.py``); ``incr_apply_seconds_*``
#: gates the incremental session's edge-delta apply path as aggregate
#: scalars (``bench_incremental.py`` — individual ``incr.*`` spans are
#: per-batch and too small/noisy to gate one-by-one);
#: ``query_throughput_rps`` (higher-is-better) and
#: ``query_p99_seconds_*`` gate the live server's concurrent serving
#: path (``bench_query_service.py``'s HTTP load section) — served
#: throughput must not silently drop, and per-endpoint tail latency
#: rides in the same table (sub-ms p99s fall under the tiny-baseline
#: skip but stay visible per run).
SPAN_PREFIXES = ("cpm.", "analysis.", "query.")
SCALAR_PREFIXES = (
    "cpm_seconds",
    # Explicit, though "cpm_seconds" already prefix-matches it: the
    # per-scale scaling curve is a gated family in its own right and
    # must survive any future tightening of the parent prefix.
    "cpm_seconds_scale_",
    "cpm_run_seconds",
    "cpm_sharded_seconds",
    "cpm_shard_speedup",
    "analysis_seconds",
    "query_lookup_seconds",
    "query_throughput_rps",
    "query_p99_seconds",
    "incr_apply_seconds",
)

#: Scalars where *bigger* is better (ratios like sharded-vs-serial
#: speedup, served requests/second): the gate inverts for these — a
#: regression is the fresh value dropping below baseline / tolerance —
#: and the tiny-baseline skip does not apply (a ratio's magnitude is
#: not scheduler noise).
HIGHER_IS_BETTER_PREFIXES = ("cpm_shard_speedup", "query_throughput_rps")


def cpm_measurements(manifest: dict) -> dict[str, float]:
    """The gated wall-time measurements of one manifest.

    ``cpm.*`` / ``analysis.*`` / ``query.*`` spans (first occurrence
    per name, matching ``RunManifest.span``) plus any scalar a bench
    recorded in its config under one of ``SCALAR_PREFIXES``.
    """
    out: dict[str, float] = {}
    for span in manifest.get("spans") or []:
        name = span.get("name", "")
        if name.startswith(SPAN_PREFIXES) and name not in out:
            out[name] = float(span.get("wall_seconds", 0.0))
    for key, value in (manifest.get("config") or {}).items():
        if key.startswith(SCALAR_PREFIXES) and isinstance(value, (int, float)):
            out[key] = float(value)
    return out


def compare(
    baselines: dict[str, dict],
    output_dir: Path,
    tolerance: float,
    min_seconds: float,
) -> tuple[list[tuple], int]:
    """All (manifest, measurement, base, fresh, verdict) rows + fail count."""
    rows: list[tuple] = []
    failures = 0
    for name in sorted(baselines):
        fresh_path = output_dir / name
        if not fresh_path.is_file():
            continue  # bench not run this time; nothing to gate
        try:
            fresh_manifest = json.loads(fresh_path.read_text())
        except (OSError, json.JSONDecodeError):
            rows.append((name, "-", 0.0, 0.0, "UNREADABLE"))
            failures += 1
            continue
        base_m = cpm_measurements(baselines[name])
        fresh_m = cpm_measurements(fresh_manifest)
        for key in sorted(base_m):
            if key not in fresh_m:
                continue
            base, fresh = base_m[key], fresh_m[key]
            if key.startswith(HIGHER_IS_BETTER_PREFIXES):
                if base <= 0:
                    verdict = "skip (tiny)"
                elif fresh < base / tolerance:
                    verdict = "REGRESSION"
                    failures += 1
                else:
                    verdict = "ok"
            elif base < min_seconds:
                verdict = "skip (tiny)"
            elif fresh > base * tolerance:
                verdict = "REGRESSION"
                failures += 1
            else:
                verdict = "ok"
            rows.append((name, key, base, fresh, verdict))
    return rows, failures


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; exit code 1 iff any gated phase regressed."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", default="HEAD", help="git ref holding the baselines")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", "1.25")),
        help="fail when fresh > baseline x tolerance (default 1.25)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_MIN_SECONDS", "0.05")),
        help="baselines below this never fail the gate (default 0.05)",
    )
    parser.add_argument(
        "--output-dir", default=str(OUTPUT_DIR), help="directory with fresh manifests"
    )
    args = parser.parse_args(argv)

    baselines = committed_manifests(args.ref)
    if not baselines:
        print(f"no committed BENCH_*.json baselines at {args.ref}; nothing to gate")
        return 0
    rows, failures = compare(
        baselines, Path(args.output_dir), args.tolerance, args.min_seconds
    )
    if not rows:
        print("no overlapping gated measurements between baselines and fresh manifests")
        return 0

    width = max(len(r[1]) for r in rows)
    print(f"bench regression gate (ref={args.ref}, tolerance={args.tolerance:g}):")
    for name, key, base, fresh, verdict in rows:
        print(
            f"  {name}: {key:<{width}}  base={base:8.4f}s  "
            f"fresh={fresh:8.4f}s  {verdict}"
        )
    if failures:
        # Rank the offenders worst-first so the triage order is the
        # read order: the scalar with the largest fresh/base ratio is
        # the regression (or the regression's symptom) to chase.
        offenders = sorted(
            (r for r in rows if r[4] in ("REGRESSION", "UNREADABLE")),
            key=lambda r: (r[3] / r[2]) if r[2] else float("inf"),
            reverse=True,
        )
        print(f"FAILED: {failures} measurement(s) regressed past the gate")
        print("offending scalars (worst regression first):")
        for name, key, base, fresh, verdict in offenders:
            ratio = f"{fresh / base:5.2f}x" if base else "  n/a"
            print(f"  {ratio}  {name}: {key}  base={base:.4f}s fresh={fresh:.4f}s")
        return 1
    print("all gated measurements within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
