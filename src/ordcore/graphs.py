"""Ordered graphs and their elementary operations.

An ordered graph is a finite simple graph whose vertices carry a fixed total
order.  Throughout the package the order is the vertex index itself: vertex i
is the i-th vertex.  A monotone map between two ordered graphs sends vertex
indices to vertex indices without ever decreasing; an ordered homomorphism is
a monotone map under which every edge lands on an edge (never on a single
vertex).  Because the map is monotone, the preimage of each target vertex is
a contiguous, possibly empty, interval of source vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Raised for malformed graphs, maps, or out-of-range arguments."""


@dataclass(frozen=True)
class OrderedGraph:
    """A simple graph on vertices 0..n-1 ordered by index.

    Edges are stored normalized as pairs (u, v) with u < v.  Instances are
    immutable and hashable; treat them as values.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    # bitmask adjacency, adj[i] has bit j set iff {i, j} is an edge
    adj: tuple[int, ...] = field(compare=False, hash=False, repr=False, default=())

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphError("graph must have at least one vertex")
        adj = [0] * self.n
        for e in self.edges:
            u, v = e
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {e} has an endpoint outside 0..{self.n - 1}")
            if u > v:
                raise GraphError(f"edge {e} not normalized")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "adj", tuple(adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def degree(self, v: int) -> int:
        return bin(self.adj[v]).count("1")

    def induced(self, vertices: Iterable[int]) -> tuple["OrderedGraph", tuple[int, ...]]:
        """Induced subgraph on the given vertex set, re-indexed in order.

        Returns the subgraph and the embedding: element i of the embedding is
        the original index of new vertex i.
        """
        keep = sorted(set(vertices))
        if not keep:
            raise GraphError("induced subgraph needs at least one vertex")
        if keep[0] < 0 or keep[-1] >= self.n:
            raise GraphError("vertex out of range")
        pos = {v: i for i, v in enumerate(keep)}
        sub = [
            (pos[u], pos[v])
            for (u, v) in self.edges
            if u in pos and v in pos
        ]
        return new_graph(len(keep), sub), tuple(keep)


def new_graph(n: int, edges: Iterable[Sequence[int]]) -> OrderedGraph:
    """Build an ordered graph, normalizing and deduplicating edges.

    Raises GraphError on out-of-range endpoints or self-loops.
    """
    # copying a set gives a tighter table than growing from an iterator
    norm = {(u, v) if u < v else (v, u) for u, v in edges}
    return OrderedGraph(n, frozenset(norm))


def path_graph(m: int) -> OrderedGraph:
    """The ordered path on m consecutive vertices (m - 1 edges)."""
    return new_graph(m, [(i, i + 1) for i in range(m - 1)])


@dataclass(frozen=True)
class MonotoneMap:
    """A non-decreasing map from vertices 0..len-1 to target indices."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = -1
        for i, t in enumerate(self.image):
            if t < prev:
                raise GraphError(f"map decreases at position {i}")
            prev = t
        if self.image and self.image[0] < 0:
            raise GraphError("negative target")

    def __call__(self, v: int) -> int:
        return self.image[v]

    def __len__(self) -> int:
        return len(self.image)

    @property
    def image_set(self) -> frozenset[int]:
        return frozenset(self.image)

    def is_identity(self) -> bool:
        return all(t == i for i, t in enumerate(self.image))

    def preimage_interval(self, target: int) -> tuple[int, int]:
        """Half-open interval [lo, hi) of sources mapping to target."""
        lo = 0
        while lo < len(self.image) and self.image[lo] < target:
            lo += 1
        hi = lo
        while hi < len(self.image) and self.image[hi] == target:
            hi += 1
        return lo, hi

    def compose(self, outer: "MonotoneMap") -> "MonotoneMap":
        """The map v -> outer(self(v))."""
        return MonotoneMap(tuple(outer.image[t] for t in self.image))


@dataclass(frozen=True)
class IntervalPartition:
    """A partition of 0..n-1 into contiguous blocks, given by cut positions.

    boundaries lists the start of every block except the first; blocks are
    [0, b1), [b1, b2), ..., [bk, n).
    """

    n: int
    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = 0
        for b in self.boundaries:
            if not (prev < b < self.n):
                raise GraphError("cut positions must be strictly increasing and interior")
            prev = b

    @property
    def block_count(self) -> int:
        return len(self.boundaries) + 1

    def blocks(self) -> list[tuple[int, int]]:
        starts = (0,) + self.boundaries
        ends = self.boundaries + (self.n,)
        return list(zip(starts, ends))


def is_independent_interval(g: OrderedGraph, lo: int, hi: int) -> bool:
    """True iff no edge of g has both endpoints in the closed range [lo, hi]."""
    if not (0 <= lo <= hi < g.n):
        raise GraphError(f"range [{lo}, {hi}] invalid for n={g.n}")
    window = 0
    for v in range(lo, hi + 1):
        if g.adj[v] & window:
            return False
        window |= 1 << v
    return True


def interval_chromatic_number(g: OrderedGraph) -> tuple[int, IntervalPartition]:
    """Minimum number of independent contiguous intervals covering the order.

    Greedy leftmost-maximal extension: grow the current interval until the
    next vertex has a neighbor inside it, then cut.  Independence is
    hereditary on subintervals, so no optimal solution can cut earlier than
    the greedy does; an exchange argument gives optimality (cross-checked
    against a quadratic DP oracle in the test suite).
    """
    cuts = []
    window = 0
    for v in range(g.n):
        if g.adj[v] & window:
            cuts.append(v)
            window = 1 << v
        else:
            window |= 1 << v
    part = IntervalPartition(g.n, tuple(cuts))
    return part.block_count, part


def is_ordered_homomorphism(g: OrderedGraph, h: OrderedGraph, f: MonotoneMap) -> bool:
    """Check that f maps g into h: monotone, every edge onto an edge.

    Raises GraphError when f's length or target range does not fit.
    """
    if len(f) != g.n:
        raise GraphError(f"map length {len(f)} != vertex count {g.n}")
    if f.image and max(f.image) >= h.n:
        raise GraphError("map target out of range")
    for u, v in g.edges:
        a, b = f.image[u], f.image[v]
        if a == b or not h.has_edge(a, b):
            return False
    return True


def find_ordered_homomorphism(
    g: OrderedGraph, h: OrderedGraph
) -> MonotoneMap | None:
    """Search for an ordered homomorphism g -> h.

    Returns the homomorphism with lexicographically smallest image sequence,
    or None.  Backtracking with forward checking over bitmask domains;
    exponential in the worst case.
    """
    from . import _kernels

    res = _kernels.find_hom(g.n, g.adj, h.n, h.adj)
    return MonotoneMap(tuple(res)) if res is not None else None


def image_subgraph(
    g: OrderedGraph, f: MonotoneMap
) -> tuple[OrderedGraph, tuple[int, ...]]:
    """The homomorphic image (f(V), f(E)) of an endomorphism, re-indexed.

    The image need not be an induced subgraph: only edges that are images of
    edges survive.  Returns the image graph and the embedding (original index
    of each new vertex).  Raises GraphError when f is not an ordered
    homomorphism g -> g.
    """
    if not is_ordered_homomorphism(g, g, f):
        raise GraphError("map is not an ordered homomorphism into the graph itself")
    verts = sorted(f.image_set)
    pos = {v: i for i, v in enumerate(verts)}
    edges = {(pos[min(f(u), f(v))], pos[max(f(u), f(v))]) for u, v in g.edges}
    return new_graph(len(verts), edges), tuple(verts)
