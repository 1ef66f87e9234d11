"""Span arithmetic for the traced run: subtrees and self time.

Spans are the plain dicts of ``Tracer.to_dicts()`` (or lines of a
``--trace`` JSONL file).  A span's self time is its duration minus the
part of its interval that its children cover; children absorbed from
pool workers can overlap each other, so the covered part is the union
of their intervals, clipped to the parent's.
"""

from __future__ import annotations

from collections import defaultdict


def _children(spans: list[dict]) -> dict[int | None, list[dict]]:
    children: dict[int | None, list[dict]] = defaultdict(list)
    for span in spans:
        children[span["parent_id"]].append(span)
    return children


def self_seconds(span: dict, children: list[dict]) -> float:
    """``span``'s wall time not covered by any of its ``children``."""
    start = span["start_wall"]
    end = start + span["wall_seconds"]
    intervals = sorted(
        (max(start, c["start_wall"]), min(end, c["start_wall"] + c["wall_seconds"]))
        for c in children
    )
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return max(0.0, span["wall_seconds"] - covered)


def self_time_table(spans: list[dict]) -> list[tuple[str, int, float, float]]:
    """``(name, count, total wall s, total self s)`` per span name, by self time."""
    children = _children(spans)
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = totals[span["name"]]
        row[0] += 1
        row[1] += span["wall_seconds"]
        row[2] += self_seconds(span, children.get(span["span_id"], []))
    return sorted(
        ((name, n, wall, own) for name, (n, wall, own) in totals.items()),
        key=lambda row: -row[3],
    )


def subtrees(spans: list[dict], root_name: str) -> list[list[dict]]:
    """For every span named ``root_name``: it and all its descendants."""
    children = _children(spans)
    out = []
    for root in spans:
        if root["name"] != root_name:
            continue
        tree, stack = [], [root]
        while stack:
            span = stack.pop()
            tree.append(span)
            stack.extend(children.get(span["span_id"], []))
        out.append(tree)
    return out


def wall(tree: list[dict], name: str) -> float:
    """Total wall seconds of the spans named ``name`` in ``tree``."""
    return sum(span["wall_seconds"] for span in tree if span["name"] == name)
