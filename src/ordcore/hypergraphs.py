"""Ordered k-uniform hypergraphs and their homomorphism searches.

The homomorphism semantics: a monotone vertex map is a homomorphism when the
image of every hyperedge has full size k and is again a hyperedge.  In other
words the map is injective on each hyperedge; uniformity of the target
leaves no other consistent reading.  There is no polynomial retraction
shortcut for k >= 3, so both searches below are exhaustive backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _kernels
from .graphs import MonotoneMap


class HypergraphError(ValueError):
    pass


@dataclass(frozen=True)
class OrderedHypergraph:
    n: int
    k: int
    hyperedges: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise HypergraphError("hypergraph must have at least one vertex")
        if self.k < 2:
            raise HypergraphError("uniformity must be at least 2")
        for e in self.hyperedges:
            if len(e) != self.k or len(set(e)) != self.k:
                raise HypergraphError(f"hyperedge {e} is not {self.k} distinct vertices")
            if tuple(sorted(e)) != e:
                raise HypergraphError(f"hyperedge {e} not sorted")
            if e[0] < 0 or e[-1] >= self.n:
                raise HypergraphError(f"hyperedge {e} out of range")

    @property
    def m(self) -> int:
        return len(self.hyperedges)

    def edge_list(self) -> list[tuple[int, ...]]:
        return sorted(self.hyperedges)

    def is_connected(self) -> bool:
        """Connectivity of the vertex-hyperedge incidence structure."""
        return groups_connected(self.n, self.hyperedges)


def groups_connected(n: int, groups: Iterable[Sequence[int]]) -> bool:
    """Whether the groups, each joining its members, link 0..n-1 into a
    single component (False when n is 0); union-find with path halving."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for grp in groups:
        for v in grp[1:]:
            parent[find(v)] = find(grp[0])
    return len({find(v) for v in range(n)}) == 1


def new_hypergraph(
    n: int, k: int, hyperedges: Iterable[Sequence[int]]
) -> OrderedHypergraph:
    return OrderedHypergraph(
        n, k, frozenset(tuple(sorted(e)) for e in hyperedges)
    )


def is_ordered_hyperhom(
    g: OrderedHypergraph, h: OrderedHypergraph, f: MonotoneMap
) -> bool:
    if g.k != h.k:
        raise HypergraphError(f"uniformity mismatch: {g.k} vs {h.k}")
    if len(f) != g.n:
        raise HypergraphError(f"map length {len(f)} != vertex count {g.n}")
    if f.image and max(f.image) >= h.n:
        raise HypergraphError("map target out of range")
    for e in g.hyperedges:
        img = tuple(sorted({f(v) for v in e}))
        if len(img) != g.k or img not in h.hyperedges:
            return False
    return True


def _masks(edges: Iterable[tuple[int, ...]]) -> list[int]:
    return [sum(1 << v for v in e) for e in edges]


def find_nonsurjective_hyper_endomorphism(
    g: OrderedHypergraph,
) -> MonotoneMap | None:
    """Lex-first non-surjective endomorphism of g, or None when g is a core.

    As for graphs, the only monotone surjective self-map is the identity, so
    the search merely excludes the identity.
    """
    edges = g.edge_list()
    res = _kernels.find_hyperhom(
        g.n, edges, g.n, _masks(edges), forbid_identity=True
    )
    return MonotoneMap(tuple(res)) if res is not None else None


def decide_hyper_retraction(
    g: OrderedHypergraph, x: Iterable[int]
) -> MonotoneMap | None:
    """A retraction of g onto the sub-hypergraph of hyperedges inside X.

    The map must fix X pointwise, send every vertex into X, and send every
    hyperedge onto a hyperedge contained in X.  Returns None when impossible.
    """
    xs = sorted(set(x))
    if not xs:
        raise HypergraphError("X must be nonempty")
    if xs[0] < 0 or xs[-1] >= g.n:
        raise HypergraphError("X contains a vertex out of range")
    xset = set(xs)
    target = [e for e in g.edge_list() if xset.issuperset(e)]
    fixed = [v if v in xset else -1 for v in range(g.n)]
    allowed = sum(1 << v for v in xs)
    res = _kernels.find_hyperhom(
        g.n, g.edge_list(), g.n, _masks(target), fixed=fixed, allowed=allowed
    )
    return MonotoneMap(tuple(res)) if res is not None else None
