"""Benchmark of the CPM pipeline, incremental sessions and the query server.

Run from the repository root::

    python3 perfbench/run.py --workload cpm-batch --seed 1 --seconds 10 --trace 0

Workloads, metrics and their bounds are in ``perfbench/spec.py`` (and
mirrored in ``BENCHMARK.json``).  The command makes its inputs from
``--seed``, runs the stages of ``perfbench/stages.py`` in rounds for
about ``--seconds`` and then serves HTTP lookups, checks every output,
prints each metric by name and unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

End-to-end times are wall times scaled to a reference host speed, which
a probe loop measures during each timed call (``perfbench/clock.py``).
``--trace 0`` reports the end-to-end metrics with no tracer attached;
``--trace 1`` is the traced run: it reports the per-layer metrics and
prints each span's self time.  A failed check or a failed operation
exits with status 1 and prints no result line.  Scratch files live in
``.perfbench_work/`` under the root and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

from spans import self_time_table
from spec import END_TO_END, PER_LAYER, PROFILES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--profile", default="full", choices=sorted(PROFILES),
        help="run size; 'tiny' exists for the harness tests",
    )
    return parser.parse_args(argv)


def report(bench, metrics: dict) -> None:
    """Print inputs, every metric with its unit and, when traced, span self times."""
    w = bench.workload
    print(f"workload {w.name}  seed {bench.seed}  profile {bench.profile.name}  "
          f"trace {int(bench.traced)}  workers {w.workers}  shards {w.shards}")
    print("inputs:")
    for key, value in bench.props.items():
        print(f"  {key:<24} {value}")
    print("metrics:" if not bench.traced else "metrics (and the end-to-end metric each moves):")
    moves = {m.name: m.moves for m in PER_LAYER}
    for name, entry in metrics.items():
        line = f"  {name:<30} {entry['value']:>14.6g} {entry['unit']}"
        print(f"{line:<54}{moves[name]}" if bench.traced else line)
    if not bench.traced:
        return
    for title, spans in (("benchmark process", bench.tracer.to_dicts()),
                         ("server process", bench.server_spans)):
        print(f"spans, {title} (self time = wall minus children):")
        print(f"  {'name':<32} {'count':>7} {'wall s':>10} {'self s':>10}")
        for name, count, wall, own in self_time_table(spans):
            print(f"  {name:<32} {count:>7} {wall:>10.4f} {own:>10.4f}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import stages

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = stages.Bench(
        root=ROOT,
        workdir=workdir,
        workload=WORKLOADS[args.workload],
        profile=PROFILES[args.profile],
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
    )
    try:
        bench.run()
    except Exception:  # any failure fails the run: report it, print no numbers
        traceback.print_exc()
        print(f"FAILED after {bench.attempted} operations", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    values = {**bench.e2e, **bench.layer} if bench.traced else bench.e2e
    wanted = PER_LAYER if bench.traced else END_TO_END
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in wanted}
    report(bench, metrics)
    print(json.dumps({
        "correct": True,
        "attempted": bench.attempted,
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
