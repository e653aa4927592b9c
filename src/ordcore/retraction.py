"""Polynomial-time decision of ordered retraction onto an induced subgraph.

Given an ordered graph G and a nonempty vertex set X, decide whether some
ordered homomorphism G -> G[X] fixes X pointwise.  The vertex order splits
into segments X_1, v_1, X_2, ..., v_h, X_{h+1} around the sorted anchors
v_1..v_h of X.  Monotonicity pins every non-anchor in segment k to one of
the two flanking anchors, so a single boolean per non-anchor (false = left
anchor, true = right anchor) captures the whole map, and the edge
constraints become a 2-CNF:

  1/2. within a segment, an earlier vertex mapping right forces all later
       ones right (one clause per ordered pair);
  3.   an edge between two non-anchors forbids each of the four target
       combinations that is not an edge of G[X];
  4.   an edge between a non-anchor and an anchor forbids each of the two
       target choices that is not an edge of G[X];
  5.   vertices before the first anchor are forced right, vertices after
       the last anchor are forced left (unit clauses).

Targets "outside" the anchor range (beyond the first or last anchor) do not
exist, and any combination involving them is forbidden.  When all options
for one edge are forbidden the encoder stops with EarlyUnsat.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from . import twosat
from .graphs import GraphError, MonotoneMap, OrderedGraph


class RetractionError(ValueError):
    pass


@dataclass(frozen=True)
class SegmentDecomposition:
    """Anchors v_1..v_h (sorted X) and the h+1 gaps of non-anchors."""

    n: int
    anchors: tuple[int, ...]
    segments: tuple[tuple[int, ...], ...]

    @property
    def h(self) -> int:
        return len(self.anchors)

    def flanks(self, segment_index: int) -> tuple[int, int]:
        """(left anchor, right anchor) of a segment; -1 marks a missing side."""
        left = self.anchors[segment_index - 1] if segment_index > 0 else -1
        right = self.anchors[segment_index] if segment_index < self.h else -1
        return left, right


@dataclass(frozen=True)
class EarlyUnsat:
    """Encoder verdict: some edge admits no target combination at all."""

    edge: tuple[int, int]
    reason: str


@dataclass(frozen=True)
class RetractionEncoding:
    decomposition: SegmentDecomposition
    instance: twosat.TwoSatInstance
    var_of: dict[int, int]
    seg_of: dict[int, int]

    def clause_bound(self) -> int:
        """Worst-case clause count for this decomposition.

        2 * sum_k C(|X_k|, 2)  +  3 (n-h)^2  +  h^2  +  |X_1|  +  |X_{h+1}|.
        """
        d = self.decomposition
        pairs = sum(len(s) * (len(s) - 1) // 2 for s in d.segments)
        free = d.n - d.h
        return (
            2 * pairs
            + 3 * free * free
            + d.h * d.h
            + len(d.segments[0])
            + len(d.segments[-1])
        )


def _check_x(g: OrderedGraph, x: Iterable[int], upto: int) -> tuple[int, ...]:
    if not 1 <= upto <= g.n:
        raise RetractionError(f"vertex range 0..{upto - 1} outside 0..{g.n - 1}")
    xs = sorted(set(x))
    if not xs:
        raise RetractionError("X must be nonempty")
    if xs[0] < 0 or xs[-1] >= upto:
        raise RetractionError("X contains a vertex out of range")
    return tuple(xs)


def decompose(
    g: OrderedGraph, x: Iterable[int], upto: int | None = None
) -> SegmentDecomposition:
    """Split the vertex order around the sorted anchors of X.

    upto restricts G to its first upto vertices (default: all of them).
    """
    upto = g.n if upto is None else upto
    anchors = _check_x(g, x, upto)
    in_x = set(anchors)
    segments: list[tuple[int, ...]] = []
    cur: list[int] = []
    for v in range(upto):
        if v in in_x:
            segments.append(tuple(cur))
            cur = []
        else:
            cur.append(v)
    segments.append(tuple(cur))
    return SegmentDecomposition(upto, anchors, tuple(segments))


def encode(
    g: OrderedGraph, x: Iterable[int], upto: int | None = None
) -> RetractionEncoding | EarlyUnsat:
    """Build the 2-SAT instance whose solutions are the retractions G -> G[X].

    The within-segment ordering clauses cover every pair, not only
    consecutive ones, so the emitted clause count is comparable against
    clause_bound().  upto replaces G by its induced subgraph on the first
    upto vertices, so the instance decides a retraction of that prefix onto X.
    """
    d = decompose(g, x, upto)
    var_of: dict[int, int] = {}
    seg_of: dict[int, int] = {}
    for k, seg in enumerate(d.segments):
        for v in seg:
            var_of[v] = len(var_of)
            seg_of[v] = k

    def target(v: int, right: bool) -> int:
        left_a, right_a = d.flanks(seg_of[v])
        return right_a if right else left_a

    clauses: list[tuple[twosat.Literal, twosat.Literal]] = []

    # ordering within each segment (families 1 and 2 collapse to one clause)
    for seg in d.segments:
        for a, b in combinations(seg, 2):
            clauses.append(((var_of[b], True), (var_of[a], False)))

    # edge constraints
    for u, v in sorted(e for e in g.edges if e[1] < d.n):
        u_free, v_free = u in var_of, v in var_of
        if not u_free and not v_free:
            continue  # anchor-anchor edges map to themselves
        if u_free and v_free:
            banned = 0
            combo_clauses = []
            for bu in (False, True):
                for bv in (False, True):
                    tu, tv = target(u, bu), target(v, bv)
                    if tu < 0 or tv < 0 or tu == tv or not g.has_edge(tu, tv):
                        banned += 1
                        combo_clauses.append(
                            ((var_of[u], not bu), (var_of[v], not bv))
                        )
            if banned == 4:
                return EarlyUnsat((u, v), "no target combination keeps this edge")
            clauses.extend(combo_clauses)
        else:
            free, anchor = (u, v) if u_free else (v, u)
            banned = 0
            for b in (False, True):
                t = target(free, b)
                if t < 0 or t == anchor or not g.has_edge(t, anchor):
                    banned += 1
                    clauses.append(((var_of[free], not b), (var_of[free], not b)))
            if banned == 2:
                return EarlyUnsat(
                    (u, v), "neither target of the free endpoint keeps this edge"
                )

    # boundary segments: forced right before the first anchor, forced left after
    # the last (emitted even for vertices already constrained above)
    for v in d.segments[0]:
        clauses.append(((var_of[v], True), (var_of[v], True)))
    for v in d.segments[-1]:
        clauses.append(((var_of[v], False), (var_of[v], False)))

    inst = twosat.TwoSatInstance(len(var_of), tuple(clauses))
    return RetractionEncoding(d, inst, var_of, seg_of)


def decode(enc: RetractionEncoding, a: twosat.Assignment) -> MonotoneMap:
    """Read the retraction off a satisfying assignment.

    Raises RetractionError when the assignment does not satisfy the instance.
    """
    if not twosat.check(enc.instance, a):
        raise RetractionError("assignment does not satisfy the encoding")
    d = enc.decomposition
    image = []
    for v in range(d.n):
        if v in enc.var_of:
            left_a, right_a = d.flanks(enc.seg_of[v])
            image.append(right_a if a.values[enc.var_of[v]] else left_a)
        else:
            image.append(v)
    return MonotoneMap(tuple(image))


def decide_retraction(
    g: OrderedGraph, x: Iterable[int], upto: int | None = None
) -> MonotoneMap | None:
    """The retraction G -> G[X] decoded from the 2-SAT solution, or None.

    With upto, G is cut to its first upto vertices and the map has that length.
    """
    enc = encode(g, x, upto)
    if isinstance(enc, EarlyUnsat):
        return None
    a = twosat.solve(enc.instance)
    if a is None:
        return None
    return decode(enc, a)
