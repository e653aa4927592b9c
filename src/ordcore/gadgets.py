"""Instance generators for the three hardness reductions, plus the small
brute-force oracles used to cross-check them.

Three constructions live here:

* a connected positive 1-in-3 formula becomes a k-uniform hypergraph whose
  non-surjective endomorphisms are exactly the satisfying assignments;
* a formula in which every variable occurs at least three times becomes an
  ordered graph plus (g, h) targets for the exact-size subgraph problem;
* a k-partite graph becomes an ordered graph whose core has exactly
  chi^< vertices precisely when the input has a multicolored clique.

All vertex indices are 0-based.  Layout objects record where every block of
each construction landed so that witnesses can be decoded and the counting
audits can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import Iterable

from .graphs import GraphError, MonotoneMap, OrderedGraph, new_graph
from .hypergraphs import OrderedHypergraph, groups_connected, new_hypergraph
from .cores import SliceTargets
from .matchings import mc


class GadgetError(ValueError):
    pass


# ==========================================================================
# formulas and partitioned graphs
# ==========================================================================

@dataclass(frozen=True)
class X13Formula:
    """Positive 1-in-3 formula: each clause lists three distinct variables,
    exactly one of which must be true."""

    var_count: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for cl in self.clauses:
            if len(set(cl)) != 3:
                raise GadgetError(f"clause {cl} must have three distinct variables")
            for v in cl:
                if not 0 <= v < self.var_count:
                    raise GadgetError(f"variable {v} out of range in clause {cl}")

    def occurrences(self, var: int) -> int:
        return sum(var in cl for cl in self.clauses)

    def is_connected(self) -> bool:
        """Connectivity of the clause-variable incidence graph."""
        return groups_connected(self.var_count, self.clauses)

    def is_one_in_three(self, assignment: tuple[bool, ...]) -> bool:
        if len(assignment) != self.var_count:
            raise GadgetError("assignment length mismatch")
        return all(sum(assignment[v] for v in cl) == 1 for cl in self.clauses)


@dataclass(frozen=True)
class PartitionedGraph:
    """k parts of l vertices each; edges only between different parts, so
    every part is independent.  A vertex is addressed as (part, index)."""

    k: int
    l: int
    edges: frozenset[tuple[tuple[int, int], tuple[int, int]]]

    def __post_init__(self) -> None:
        if self.k < 1 or self.l < 1:
            raise GadgetError("need at least one part and one vertex per part")
        for (pi, vi), (pj, vj) in self.edges:
            if pi == pj:
                raise GadgetError(f"edge inside part {pi}; parts must stay independent")
            if pi > pj:
                raise GadgetError("edge not normalized by part")
            for p, v in ((pi, vi), (pj, vj)):
                if not (0 <= p < self.k and 0 <= v < self.l):
                    raise GadgetError(f"vertex ({p}, {v}) out of range")

    def has_edge(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        if a[0] > b[0]:
            a, b = b, a
        return (a, b) in self.edges

    def is_multicolored_clique(self, choice: tuple[int, ...]) -> bool:
        """choice picks one vertex index per part."""
        if len(choice) != self.k:
            raise GadgetError("choice length must equal the part count")
        return all(
            self.has_edge((i, choice[i]), (j, choice[j]))
            for i, j in combinations(range(self.k), 2)
        )


def new_partitioned(
    k: int, l: int, edges: Iterable[tuple[tuple[int, int], tuple[int, int]]]
) -> PartitionedGraph:
    norm = set()
    for a, b in edges:
        a, b = (tuple(a), tuple(b))
        if a[0] > b[0]:
            a, b = b, a
        norm.add((a, b))
    return PartitionedGraph(k, l, frozenset(norm))


# ==========================================================================
# hypergraph gadget for 1-in-3 satisfiability
# ==========================================================================

@dataclass(frozen=True)
class HyperGadgetLayout:
    """Vertex positions of the hypergraph construction.

    Each variable owns a block of width k+1: its first vertex, k-3 padding
    vertices, then the second, third and fourth vertices.  Clause hyperedges
    borrow the padding block of the clause's smallest variable so that the
    dynamic hyperedge and all three static ones extend to size k the same
    way.
    """

    var_count: int
    k: int
    clauses: tuple[tuple[int, int, int], ...]

    @property
    def width(self) -> int:
        return self.k + 1

    def first(self, var: int) -> int:
        return self.width * var

    def padding(self, var: int) -> tuple[int, ...]:
        return tuple(range(self.width * var + 1, self.width * var + self.k - 2))

    def second(self, var: int) -> int:
        return self.width * var + self.k - 2

    def third(self, var: int) -> int:
        return self.width * var + self.k - 1

    def fourth(self, var: int) -> int:
        return self.width * var + self.k


def hypergraph_gadget(
    phi: X13Formula, k: int = 3
) -> tuple[OrderedHypergraph, HyperGadgetLayout]:
    """Connected formula -> k-uniform hypergraph, k >= 3.

    Per variable one hyperedge {first, padding..., second, fourth}.  Per
    clause, with variables a < b < c, the dynamic hyperedge through the three
    third vertices and three static hyperedges, one per choice of the true
    variable (second vertex of the true one, fourth of the others), all
    sharing a's padding block.
    """
    if k < 3:
        raise GadgetError("uniformity below 3 has no room for the construction")
    if not phi.is_connected():
        raise GadgetError("formula must be connected")
    lay = HyperGadgetLayout(phi.var_count, k, phi.clauses)
    edges: list[tuple[int, ...]] = []
    for x in range(phi.var_count):
        edges.append((lay.first(x), *lay.padding(x), lay.second(x), lay.fourth(x)))
    for cl in phi.clauses:
        a, b, c = sorted(cl)
        pad = lay.padding(a)
        edges.append((*pad, lay.third(a), lay.third(b), lay.third(c)))
        edges.append((*pad, lay.second(a), lay.fourth(b), lay.fourth(c)))
        edges.append((*pad, lay.fourth(a), lay.second(b), lay.fourth(c)))
        edges.append((*pad, lay.fourth(a), lay.fourth(b), lay.second(c)))
    return new_hypergraph(lay.width * phi.var_count, k, edges), lay


def extract_assignment(lay: HyperGadgetLayout, f: MonotoneMap) -> tuple[bool, ...]:
    """Read the satisfying assignment off a non-surjective endomorphism:
    a third vertex mapped to its second vertex means true, to its fourth
    means false.  Anything else violates the construction and raises."""
    values = []
    for x in range(lay.var_count):
        t = f(lay.third(x))
        if t == lay.second(x):
            values.append(True)
        elif t == lay.fourth(x):
            values.append(False)
        elif t == lay.third(x):
            raise GadgetError(f"map fixes the third vertex of variable {x}")
        else:
            raise GadgetError(
                f"third vertex of variable {x} maps to {t}, outside its gadget"
            )
    return tuple(values)


def satisfying_collapse(
    lay: HyperGadgetLayout, assignment: tuple[bool, ...]
) -> MonotoneMap:
    """The endomorphism induced by a 1-in-3 assignment: each third vertex
    moves to its second (true) or fourth (false) vertex."""
    image = list(range(lay.width * lay.var_count))
    for x, val in enumerate(assignment):
        image[lay.third(x)] = lay.second(x) if val else lay.fourth(x)
    return MonotoneMap(tuple(image))


def brute_force_x13(phi: X13Formula) -> tuple[bool, ...] | None:
    """Independent oracle: try all 2^v assignments, variable 0 as the least
    significant bit, and return the first exact-1-in-3 assignment."""
    if phi.var_count > 20:
        raise GadgetError("oracle limited to 20 variables")
    for bits in range(1 << phi.var_count):
        assignment = tuple(bool(bits >> j & 1) for j in range(phi.var_count))
        if phi.is_one_in_three(assignment):
            return assignment
    return None


# ==========================================================================
# slice gadget: exact-size homomorphic subgraph
# ==========================================================================

@dataclass(frozen=True)
class SliceGadgetLayout:
    """3c variable gadgets of 4 vertices each, consecutive gadgets sharing a
    boundary vertex: gadget t occupies positions 3t..3t+3.  Gadgets 3i,
    3i+1, 3i+2 belong to clause i, in clause literal order.  Edge families
    are kept tagged for the audits."""

    clauses: tuple[tuple[int, int, int], ...]
    variable_edges: frozenset[tuple[int, int]]
    clause_edges: frozenset[tuple[int, int]]
    external_edges: frozenset[tuple[int, int]]

    @property
    def gadget_count(self) -> int:
        return 3 * len(self.clauses)

    def second(self, gadget: int) -> int:
        return 3 * gadget + 1

    def third(self, gadget: int) -> int:
        return 3 * gadget + 2

    def gadgets_of_variable(self, var: int) -> tuple[int, ...]:
        hits = []
        for ci, cl in enumerate(self.clauses):
            for slot, v in enumerate(cl):
                if v == var:
                    hits.append(3 * ci + slot)
        return tuple(hits)


def slice_gadget(
    phi: X13Formula,
) -> tuple[OrderedGraph, SliceTargets, SliceGadgetLayout]:
    """Formula with every variable in at least three clauses -> ordered graph
    on 9c+1 vertices with targets g = n - c, h = m - 6c.

    Per gadget the edges {first, third}, {second, fourth}, {third, fourth};
    per clause all four second/third pairs between each two of its gadgets;
    per variable a cycle through the second vertices of its gadgets and a
    parallel cycle through the third vertices.
    """
    c = len(phi.clauses)
    if c == 0:
        raise GadgetError("formula needs at least one clause")
    for v in range(phi.var_count):
        if phi.occurrences(v) < 3:
            raise GadgetError(
                f"variable {v} occurs {phi.occurrences(v)} times; three are needed"
            )
    n = 9 * c + 1
    var_edges = set()
    for t in range(3 * c):
        base = 3 * t
        var_edges |= {(base, base + 2), (base + 1, base + 3), (base + 2, base + 3)}
    # positions only depend on the clauses; the edge families are filled in below
    lay = SliceGadgetLayout(phi.clauses, frozenset(), frozenset(), frozenset())
    clause_edges = set()
    for ci in range(c):
        for ga, gb in combinations(range(3 * ci, 3 * ci + 3), 2):
            for ua in (lay.second(ga), lay.third(ga)):
                for ub in (lay.second(gb), lay.third(gb)):
                    clause_edges.add((ua, ub))
    external_edges = set()
    for var in range(phi.var_count):
        occ = lay.gadgets_of_variable(var)
        for sel in (lay.second, lay.third):
            ring = [sel(t) for t in occ]
            for a, b in zip(ring, ring[1:] + ring[:1]):
                external_edges.add((min(a, b), max(a, b)))
    lay = replace(
        lay,
        variable_edges=frozenset(var_edges),
        clause_edges=frozenset(clause_edges),
        external_edges=frozenset(external_edges),
    )
    g = new_graph(n, var_edges | clause_edges | external_edges)
    m = g.m
    return g, SliceTargets(n - c, m - 6 * c), lay


# ==========================================================================
# clique gadget: core size versus interval chromatic number
# ==========================================================================

@dataclass(frozen=True)
class CliqueGadgetLayout:
    """Positions of the clique construction for a k-partite input with parts
    of size l.

    The order is p_1, D_1, p_2, D_2, ..., p_k, D_k, p_{k+1}, A_1, p_{k+2},
    A_2, ..., p_{2k}, A_k, p_{2k+1} with |D_i| = l+k-1 and A_i the l part
    vertices (C_i) followed by the k-1 connector vertices (B_i).  Edge
    families are kept tagged."""

    k: int
    l: int
    p: tuple[int, ...]
    d_blocks: tuple[tuple[int, ...], ...]
    c_blocks: tuple[tuple[int, ...], ...]
    b_blocks: tuple[tuple[int, ...], ...]
    path_edges: frozenset[tuple[int, int]]
    complete_edges: frozenset[tuple[int, int]]
    original_edges: frozenset[tuple[int, int]]
    collapsible_edges: frozenset[tuple[int, int]]

    def a_block(self, i: int) -> tuple[int, ...]:
        return self.c_blocks[i] + self.b_blocks[i]

    def connector(self, i: int, j: int) -> int:
        """Position of w^i_j, the vertex of B_i pointing at part j."""
        order = [x for x in range(self.k) if x != i]
        return self.b_blocks[i][order.index(j)]


def clique_gadget(f: PartitionedGraph) -> tuple[OrderedGraph, CliqueGadgetLayout]:
    """Partitioned graph with parts of size l > 3 -> ordered graph on
    2k+1+2k(l+k-1) vertices whose interval chromatic number is 4k+1.

    Four edge families: path edges tie each D_i to its two flanking p
    vertices and each C_i to its two flanking p vertices; complete edges pair
    the connectors w^i_j and w^j_i; original edges copy the input's edges
    onto the C blocks; collapsible edges lay the (l+k-1)-edge collapsible
    matching across each D_i, A_i pair."""
    k, l = f.k, f.l
    if l <= 3:
        raise GadgetError("parts of size at most 3 break the collapsible matching")
    d_size = l + k - 1
    p = []
    d_blocks = []
    c_blocks = []
    b_blocks = []
    cursor = 0
    for _ in range(k):
        p.append(cursor)
        cursor += 1
        d_blocks.append(tuple(range(cursor, cursor + d_size)))
        cursor += d_size
    for _ in range(k):
        p.append(cursor)
        cursor += 1
        c_blocks.append(tuple(range(cursor, cursor + l)))
        b_blocks.append(tuple(range(cursor + l, cursor + d_size)))
        cursor += d_size
    p.append(cursor)
    cursor += 1
    n = cursor

    path_edges = set()
    for i in range(k):
        for d in d_blocks[i]:
            path_edges.add((p[i], d))
            path_edges.add((p[i + 1], d))
        for v in c_blocks[i]:
            path_edges.add((p[k + i], v))
            path_edges.add((p[k + i + 1], v))

    complete_edges = set()
    b_pos = {}
    for i in range(k):
        order = [x for x in range(k) if x != i]
        for j, pos in zip(order, b_blocks[i]):
            b_pos[(i, j)] = pos
    for i, j in combinations(range(k), 2):
        complete_edges.add((b_pos[(i, j)], b_pos[(j, i)]))

    original_edges = set()
    for (pi, vi), (pj, vj) in f.edges:
        a, b = c_blocks[pi][vi], c_blocks[pj][vj]
        original_edges.add((min(a, b), max(a, b)))

    matching = mc(d_size).graph
    collapsible_edges = set()
    for i in range(k):
        a_block = c_blocks[i] + b_blocks[i]
        for u, v in matching.edges:
            if v < d_size:
                raise GadgetError("collapsible matching edge fails to cross the halves")
            collapsible_edges.add((d_blocks[i][u], a_block[v - d_size]))

    lay = CliqueGadgetLayout(
        k,
        l,
        tuple(p),
        tuple(d_blocks),
        tuple(c_blocks),
        tuple(b_blocks),
        frozenset(path_edges),
        frozenset(complete_edges),
        frozenset(original_edges),
        frozenset(collapsible_edges),
    )
    g = new_graph(
        n, path_edges | complete_edges | original_edges | collapsible_edges
    )
    return g, lay


def extract_clique(lay: CliqueGadgetLayout, f: MonotoneMap) -> tuple[int, ...]:
    """Read a multicolored clique off a non-surjective endomorphism of the
    gadget: every p vertex must stay fixed and every A block must collapse
    onto a single part vertex; those part vertices form the clique."""
    for pos in lay.p:
        if f(pos) != pos:
            raise GadgetError(f"endomorphism moves the separator at {pos}")
    choice = []
    for i in range(lay.k):
        images = {f(v) for v in lay.a_block(i)}
        if len(images) != 1:
            raise GadgetError(f"block A_{i + 1} does not collapse to one vertex")
        target = images.pop()
        if target not in lay.c_blocks[i]:
            raise GadgetError(f"block A_{i + 1} collapses outside its part vertices")
        choice.append(lay.c_blocks[i].index(target))
    return tuple(choice)


def brute_force_multicolored_clique(f: PartitionedGraph) -> tuple[int, ...] | None:
    """Independent oracle: try all l^k one-per-part choices lexicographically."""
    if f.l**f.k > 10**7:
        raise GadgetError("oracle limited to 10^7 choices")
    for choice in product(range(f.l), repeat=f.k):
        if f.is_multicolored_clique(choice):
            return choice
    return None
