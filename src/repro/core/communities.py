"""Community data model.

Three layers, mirroring the paper's vocabulary:

* :class:`Community` — one k-clique community: an AS (node) set at a
  given order k, labelled ``k<k>id<n>`` exactly like the node labels of
  the paper's Figure 4.2 tree;
* :class:`CommunityCover` — all communities of one order k (a *cover*:
  overlapping is allowed, membership is not exhaustive);
* :class:`CommunityHierarchy` — the covers for every k from 2 up to the
  maximum order found, the object the community tree is built from.

Identity scheme: within one k, communities are numbered by decreasing
size (ties broken by the sorted member tuple) so ``k<k>id0`` is always
the largest community of its order — which, for the main chain, matches
the paper's filled-node convention.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property

__all__ = [
    "Community",
    "CommunityCover",
    "CommunityHierarchy",
    "member_sort_key",
    "rank_member_sets",
]


def member_sort_key(members: frozenset) -> tuple:
    """Canonical ordering of community member sets within one order k.

    Larger communities first; ties broken by the sorted member tuple so
    that indices (and hence ``k<k>id<n>`` labels) are deterministic.
    Shared by :class:`CommunityCover` and the extraction layer, which
    must agree on indices to attach parent provenance.
    """
    return (-len(members), tuple(sorted(map(repr, members))))


def rank_member_sets(member_sets: list) -> list[int]:
    """Indices of ``member_sets`` in :func:`member_sort_key` order.

    Equivalent to sorting by ``member_sort_key`` (including its
    stability for fully tied sets), but the repr tie-break tuple is
    only materialised for size-*tied* sets — the giant low-k
    communities almost always have unique sizes, and repr-ing
    thousands of members to break a tie that cannot occur is the
    hierarchy assembly's hottest avoidable cost.
    """
    by_len = sorted(range(len(member_sets)), key=lambda i: -len(member_sets[i]))
    ranked: list[int] = []
    i, n = 0, len(by_len)
    while i < n:
        j = i + 1
        size = len(member_sets[by_len[i]])
        while j < n and len(member_sets[by_len[j]]) == size:
            j += 1
        if j - i == 1:
            ranked.append(by_len[i])
        else:
            ranked.extend(
                sorted(
                    by_len[i:j],
                    key=lambda t: tuple(sorted(map(repr, member_sets[t]))),
                )
            )
        i = j
    return ranked


@dataclass(frozen=True, order=False)
class Community:
    """One k-clique community.

    ``members`` is the union of all k-cliques reachable from one
    another through adjacent k-cliques (adjacency = sharing k-1 nodes);
    by definition ``len(members) >= k``.
    """

    k: int
    index: int
    members: frozenset = field(repr=False)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"community order k must be >= 2, got {self.k}")
        if self.index < 0:
            raise ValueError(f"community index must be >= 0, got {self.index}")
        if len(self.members) < self.k:
            raise ValueError(
                f"a {self.k}-clique community needs >= {self.k} members, got {len(self.members)}"
            )

    @property
    def label(self) -> str:
        """Paper-style identifier, e.g. ``k34id5`` (Figure 4.2)."""
        return f"k{self.k}id{self.index}"

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, node: Hashable) -> bool:
        return node in self.members

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def overlap(self, other: "Community") -> int:
        """Number of shared members (the paper's *overlap* metric)."""
        return len(self.members & other.members)

    def overlap_fraction(self, other: "Community") -> float:
        """Overlap divided by the smaller community's size.

        1.0 when one community's members are all inside the other;
        the normalisation the paper uses to compare pairs at equal k.
        """
        denom = min(len(self.members), len(other.members))
        if denom == 0:
            return 0.0
        return self.overlap(other) / denom

    def contains_community(self, other: "Community") -> bool:
        """True iff ``other``'s members are a subset of this one's."""
        return other.members <= self.members

    def __repr__(self) -> str:
        return f"Community({self.label}, size={self.size})"


class CommunityCover:
    """All k-clique communities of a single order k.

    Indexable by community index; iterable in index order (i.e. by
    decreasing size).  Provides the member→communities reverse map the
    overlap and tree layers rely on.
    """

    def __init__(self, k: int, member_sets: Iterable[frozenset]) -> None:
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        self.k = k
        sets = [frozenset(m) for m in member_sets]
        ordered = [sets[i] for i in rank_member_sets(sets)]
        self._communities = tuple(
            Community(k=k, index=i, members=members) for i, members in enumerate(ordered)
        )

    @cached_property
    def _by_node(self) -> dict[Hashable, list[Community]]:
        """node -> communities containing it, built on first lookup."""
        by_node: dict[Hashable, list[Community]] = {}
        for community in self._communities:
            for node in community.members:
                by_node.setdefault(node, []).append(community)
        return by_node

    def __len__(self) -> int:
        return len(self._communities)

    def __iter__(self) -> Iterator[Community]:
        return iter(self._communities)

    def __getitem__(self, index: int) -> Community:
        return self._communities[index]

    @property
    def communities(self) -> tuple[Community, ...]:
        return self._communities

    def communities_of(self, node: Hashable) -> list[Community]:
        """All communities of this order containing ``node``.

        Overlap means this can have more than one element — the defining
        difference between a cover and a partition (Chapter 1).
        """
        return list(self._by_node.get(node, ()))

    def nodes(self) -> set[Hashable]:
        """Union of all community member sets at this order."""
        return set(self._by_node)

    def largest(self) -> Community | None:
        """The largest community of the cover (None when empty)."""
        return self._communities[0] if self._communities else None

    def __repr__(self) -> str:
        return f"CommunityCover(k={self.k}, communities={len(self)})"


class CommunityHierarchy(Mapping):
    """The covers for every order k — the full CPM output.

    A mapping ``k -> CommunityCover`` over a contiguous range
    ``[2, max_k]``.  Levels where no community exists map to an empty
    cover (cannot happen on a graph with at least one edge, because a
    k-clique contains nested smaller cliques, but the type allows it so
    partial/filtered hierarchies stay well-formed).
    """

    def __init__(
        self,
        covers: Mapping[int, CommunityCover],
        parent_labels: Mapping[str, str] | None = None,
    ) -> None:
        if not covers:
            raise ValueError("a hierarchy needs at least one cover")
        for k, cover in covers.items():
            if cover.k != k:
                raise ValueError(f"cover at key {k} has k={cover.k}")
        self._covers = dict(sorted(covers.items()))
        self.min_k = min(self._covers)
        self.max_k = max(self._covers)
        #: Structural parent provenance: child label -> parent label.
        #: Populated by the extraction layer, which knows which maximal
        #: cliques each community percolated from — node-set containment
        #: alone cannot always disambiguate the parent (overlapping
        #: (k-1)-communities can both contain a k-community's members).
        self.parent_labels: dict[str, str] = dict(parent_labels or {})

    def __getitem__(self, k: int) -> CommunityCover:
        return self._covers[k]

    def __iter__(self) -> Iterator[int]:
        return iter(self._covers)

    def __len__(self) -> int:
        return len(self._covers)

    @property
    def orders(self) -> list[int]:
        """The orders k present, ascending."""
        return list(self._covers)

    def all_communities(self) -> Iterator[Community]:
        """Every community across all orders, ascending k."""
        for cover in self._covers.values():
            yield from cover

    @property
    def total_communities(self) -> int:
        """Total number of communities over all k (the paper found 627)."""
        return sum(len(cover) for cover in self._covers.values())

    def counts_by_k(self) -> dict[int, int]:
        """``k -> number of communities`` — the series of Figure 4.1."""
        return {k: len(cover) for k, cover in self._covers.items()}

    def unique_orders(self) -> list[int]:
        """Orders with exactly one community.

        By the nesting theorem a unique community at order k contains
        every community of every higher order (the paper: k in
        {2, 21, 22, 25, 36}).
        """
        return [k for k, cover in self._covers.items() if len(cover) == 1]

    def membership_of(self, node: Hashable) -> dict[int, list[str]]:
        """Order k -> labels of the communities containing ``node``.

        Orders where the node belongs to no community are omitted; the
        result is the node's full position in the community tree (an AS
        can sit in several communities per order — overlap — and in a
        chain of main communities across orders — nesting).
        """
        memberships: dict[int, list[str]] = {}
        for k, cover in self._covers.items():
            labels = [c.label for c in cover.communities_of(node)]
            if labels:
                memberships[k] = labels
        return memberships

    def find(self, label: str) -> Community:
        """Look a community up by its ``k<k>id<n>`` label."""
        try:
            k_part, id_part = label.lstrip("k").split("id")
            k, index = int(k_part), int(id_part)
        except ValueError as exc:
            raise KeyError(f"malformed community label: {label!r}") from exc
        try:
            return self._covers[k][index]
        except (KeyError, IndexError) as exc:
            raise KeyError(f"no community {label!r} in hierarchy") from exc

    def __repr__(self) -> str:
        return (
            f"CommunityHierarchy(k=[{self.min_k}..{self.max_k}], "
            f"communities={self.total_communities})"
        )
