"""Quantitative comparison of community covers.

Used in two places:

* the baseline-contrast experiments (how close are GCE / EAGLE /
  label-propagation covers to the CPM cover?), and
* the measurement-robustness analysis (how much of the true community
  structure survives partial observation?).

Metrics:

* **Jaccard matching** — greedy best-pair matching by Jaccard
  similarity; cheap, works at any scale;
* **recall / precision at τ** — the fraction of reference communities
  with a match above a Jaccard threshold (and vice versa);
* **Omega index** (Collins & Dent) — the overlap-aware generalisation
  of the adjusted Rand index: chance-corrected agreement on *how many*
  communities each node pair shares.  Quadratic in the universe size;
  intended for comparison at a fixed order k or on small graphs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass

__all__ = ["MatchResult", "jaccard", "match_covers", "recall_at", "omega_index"]


def jaccard(a: Iterable[Hashable], b: Iterable[Hashable]) -> float:
    """|A ∩ B| / |A ∪ B| (1.0 for two empty sets)."""
    set_a, set_b = _as_set(a), _as_set(b)
    shared = len(set_a & set_b)
    union = len(set_a) + len(set_b) - shared
    if not union:
        return 1.0
    return shared / union


def _as_set(members: Iterable[Hashable]) -> set | frozenset:
    """``members`` itself when it already is a set, else a set copy."""
    return members if isinstance(members, (set, frozenset)) else set(members)


@dataclass(frozen=True)
class MatchResult:
    """Outcome of greedy cover matching."""

    pairs: tuple[tuple[int, int, float], ...]  # (index_a, index_b, jaccard)
    unmatched_a: tuple[int, ...]
    unmatched_b: tuple[int, ...]

    @property
    def mean_jaccard(self) -> float:
        if not self.pairs:
            return 0.0
        return sum(score for _, _, score in self.pairs) / len(self.pairs)

    def matched_fraction_a(self, *, threshold: float = 0.0) -> float:
        """Share of cover A's communities matched above ``threshold``."""
        total = len(self.pairs) + len(self.unmatched_a)
        if total == 0:
            return 0.0
        good = sum(1 for _, _, s in self.pairs if s > threshold)
        return good / total


def match_covers(
    cover_a: Sequence[Iterable[Hashable]],
    cover_b: Sequence[Iterable[Hashable]],
) -> MatchResult:
    """Greedy one-to-one matching by descending Jaccard similarity.

    Candidate pairs are generated through a shared-member index, so
    disjoint communities are never scored.
    """
    sets_a = [_as_set(c) for c in cover_a]
    sets_b = [_as_set(c) for c in cover_b]
    index_b: dict[Hashable, list[int]] = {}
    for j, members in enumerate(sets_b):
        for node in members:
            index_b.setdefault(node, []).append(j)
    scored: list[tuple[float, int, int]] = []
    for i, members in enumerate(sets_a):
        candidates = {j for node in members for j in index_b.get(node, ())}
        for j in candidates:
            scored.append((jaccard(members, sets_b[j]), i, j))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs: list[tuple[int, int, float]] = []
    for score, i, j in scored:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append((i, j, score))
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_a=tuple(i for i in range(len(sets_a)) if i not in used_a),
        unmatched_b=tuple(j for j in range(len(sets_b)) if j not in used_b),
    )


def recall_at(
    reference: Sequence[Iterable[Hashable]],
    candidate: Sequence[Iterable[Hashable]],
    *,
    threshold: float = 0.5,
) -> float:
    """Fraction of reference communities matched above ``threshold``.

    Each reference community may claim its best candidate independently
    (no one-to-one constraint): the question is "was this community
    found?", not "is the mapping a bijection".
    """
    if not reference:
        return 1.0
    sets_candidate = [_as_set(c) for c in candidate]
    index: dict[Hashable, list[int]] = {}
    for j, members in enumerate(sets_candidate):
        for node in members:
            index.setdefault(node, []).append(j)
    found = 0
    for community in reference:
        members = _as_set(community)
        candidates = {j for node in members for j in index.get(node, ())}
        best = max((jaccard(members, sets_candidate[j]) for j in candidates), default=0.0)
        if best >= threshold:
            found += 1
    return found / len(reference)


def omega_index(
    cover_a: Sequence[Iterable[Hashable]],
    cover_b: Sequence[Iterable[Hashable]],
    universe: Iterable[Hashable],
) -> float:
    """Chance-corrected pairwise agreement between two covers.

    For each unordered node pair, count in how many communities of each
    cover the pair co-occurs; the covers agree on a pair when these
    counts are equal.  Omega = (observed - expected) / (1 - expected),
    with the expectation from independently shuffled covers (Collins &
    Dent 1988).  Returns 1.0 for identical covers; ~0 for independent
    ones; can be negative.  O(|universe|²) memory-free streaming over
    co-occurrence counters.
    """
    nodes = sorted(set(universe), key=repr)
    n_pairs = len(nodes) * (len(nodes) - 1) // 2
    if n_pairs == 0:
        return 1.0

    def pair_counts(cover) -> Counter:
        counts: Counter[tuple, int] = Counter()
        for community in cover:
            members = sorted(set(community) & set(nodes), key=repr)
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    counts[(members[x], members[y])] += 1
        return counts

    counts_a = pair_counts(cover_a)
    counts_b = pair_counts(cover_b)

    # Distribution of co-occurrence multiplicities per cover.
    dist_a = Counter(counts_a.values())
    dist_a[0] = n_pairs - sum(dist_a.values())
    dist_b = Counter(counts_b.values())
    dist_b[0] = n_pairs - sum(dist_b.values())

    observed = 0
    for pair, count in counts_a.items():
        if counts_b.get(pair, 0) == count:
            observed += 1
    # Pairs sharing zero communities in both covers also agree.
    observed += n_pairs - len(set(counts_a) | set(counts_b))
    observed_fraction = observed / n_pairs

    expected_fraction = sum(
        (dist_a.get(level, 0) / n_pairs) * (dist_b.get(level, 0) / n_pairs)
        for level in set(dist_a) | set(dist_b)
    )
    if expected_fraction == 1.0:
        return 1.0
    return (observed_fraction - expected_fraction) / (1.0 - expected_fraction)
