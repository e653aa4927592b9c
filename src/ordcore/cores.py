"""Ordered cores and the size-constrained subgraph solvers.

A monotone surjection of an ordered vertex set onto itself is the identity,
so an ordered graph has a non-surjective endomorphism exactly when it has a
non-identity one; the searches below therefore exclude the identity map and
nothing else.  Iterating homomorphic images shrinks the graph to its core,
which is unique up to re-indexing.  The composed collapse map restricted to
the surviving vertices is an endomorphism of the core, hence the identity,
so the composition is itself a retraction of the input onto the induced
subgraph on the surviving vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations
from typing import Callable, Iterator, Sequence

from . import _kernels
from .graphs import (
    GraphError,
    MonotoneMap,
    OrderedGraph,
    find_ordered_homomorphism,
    image_subgraph,
    interval_chromatic_number,
)
from .retraction import decide_retraction


def find_nonsurjective_endomorphism(
    g: OrderedGraph, descending: bool = False
) -> MonotoneMap | None:
    """A non-surjective ordered homomorphism g -> g, or None when g is a core.

    descending flips the backtracking candidate order; the default finds the
    lexicographically smallest witness.
    """
    res = _kernels.find_hom(
        g.n, g.adj, g.n, g.adj, forbid_identity=True, descending=descending
    )
    return MonotoneMap(tuple(res)) if res is not None else None


def is_core(g: OrderedGraph) -> bool:
    return find_nonsurjective_endomorphism(g) is None


@dataclass(frozen=True)
class CoreResult:
    """The core as an induced subgraph, with its embedding and a retraction.

    embedding[i] is the original index of core vertex i; retraction is an
    idempotent homomorphism of the input onto the induced subgraph on the
    embedded vertex set.
    """

    core: OrderedGraph
    embedding: tuple[int, ...]
    retraction: MonotoneMap


def compute_core(g: OrderedGraph, descending: bool = False) -> CoreResult:
    """Shrink g to its core by iterating non-surjective endomorphisms."""
    cur = g
    emb = tuple(range(g.n))
    total = MonotoneMap(tuple(range(g.n)))
    while True:
        f = find_nonsurjective_endomorphism(cur, descending)
        if f is None:
            break
        cur, verts = image_subgraph(cur, f)
        # lift the step to original indices and compose
        lifted = {emb[i]: emb[f(i)] for i in range(len(emb))}
        total = MonotoneMap(tuple(lifted[t] for t in total.image))
        emb = tuple(emb[i] for i in verts)
    return CoreResult(cur, emb, total)


def _lex_subsets(
    n: int, size: int, prefix_ok: Callable[[tuple[int, ...]], bool]
) -> Iterator[tuple[int, ...]]:
    """The size-subsets of range(n) in the order of itertools.combinations,
    minus every subset whose proper prefix x_1 < .. < x_j fails prefix_ok.

    A depth-first search that chooses one vertex per level; it keeps its
    path in a list rather than on the call stack, because size can be close
    to n.
    """
    x: list[int] = []
    v = 0
    while True:
        if v > n - size + len(x):  # no room left for the remaining vertices
            if not x:
                return
            v = x.pop() + 1
            continue
        x.append(v)
        if len(x) == size:
            yield tuple(x)
            v = x.pop() + 1
        elif prefix_ok(tuple(x)):
            v += 1
        else:
            v = x.pop() + 1


def _prefix_retracts(g: OrderedGraph, x: Sequence[int]) -> bool:
    """Whether G[0..x_j] retracts onto {x_1..x_j}, x_j the last of x.

    Any retraction of G onto a vertex set whose j smallest elements are x
    restricts to such a map: it is monotone and fixes x_j, so 0..x_j lands in
    {x_1..x_j}.  A failure therefore rules out every set with this prefix.
    """
    return decide_retraction(g, x, upto=x[-1] + 1) is not None


def decide_core_with_k_vertices(
    g: OrderedGraph, k: int
) -> tuple[tuple[int, ...], MonotoneMap] | None:
    """First subset of at most k vertices admitting a retraction, with the map.

    k is a size budget: subsets are tried smallest size first, lexicographic
    within a size, running the polynomial retraction decision on each.  A
    proper retract exists iff one exists on at most n-1 vertices (the core
    itself qualifies), so a budget of n-1 succeeds exactly on non-cores;
    exact-size search lacks that property because retract sizes can skip
    values between the core size and n.  The exponential part is only the
    subset enumeration, which skips the subsets whose prefix has no
    retraction (see _prefix_retracts); prefix verdicts are shared between
    sizes.
    """
    if not 1 <= k < g.n:
        raise GraphError(f"k={k} outside 1..{g.n - 1}")
    prefix_ok = cache(partial(_prefix_retracts, g))
    for size in range(1, k + 1):
        for x in _lex_subsets(g.n, size, prefix_ok):
            # x's own prefix verdict is wanted at the next size anyway; when
            # x ends at n-1 it would repeat the full test
            if x[-1] < g.n - 1 and not prefix_ok(x):
                continue
            r = decide_retraction(g, x)
            if r is not None:
                return x, r
    return None


@dataclass(frozen=True)
class CoreHasChiVertices:
    chi: int
    vertices: tuple[int, ...]
    retraction: MonotoneMap


@dataclass(frozen=True)
class InstanceIsCore:
    chi: int


@dataclass(frozen=True)
class Neither:
    chi: int
    core_size: int
    witness: MonotoneMap


CoreVerdict = CoreHasChiVertices | InstanceIsCore | Neither


def decide_core_chi(g: OrderedGraph) -> CoreVerdict:
    """Decide whether the core of g has exactly chi^<(g) vertices.

    Every endomorphic image spans at least chi^< independent intervals, so no
    core is smaller than chi^<; and a retract on exactly chi^< vertices is
    homomorphically equivalent to g, shares its interval chromatic number,
    and admits no non-identity endomorphism, hence is the core.  Computing
    the core therefore answers the question directly, with no need to
    enumerate k-subsets.  Inputs where the core is neither g itself nor of
    size chi^< are reported as Neither with a witness endomorphism.
    """
    k, _ = interval_chromatic_number(g)
    res = compute_core(g)
    if res.core.n == k and k < g.n:
        return CoreHasChiVertices(k, res.embedding, res.retraction)
    if res.core.n == g.n:
        return InstanceIsCore(k)
    return Neither(k, res.core.n, res.retraction)


@dataclass(frozen=True)
class SliceTargets:
    g: int
    h: int


@dataclass(frozen=True)
class DoubleTuple:
    t: tuple[int, ...]
    u: tuple[int, ...]


def _validate_targets(g: OrderedGraph, tgt: SliceTargets) -> None:
    if not 0 < tgt.g < g.n:
        raise GraphError(f"target vertex count {tgt.g} outside 1..{g.n - 1}")
    if not 0 <= tgt.h < g.m:
        raise GraphError(f"target edge count {tgt.h} outside 0..{g.m - 1}")


def solve_slice(
    g: OrderedGraph, tgt: SliceTargets, strict_hom: bool = False
) -> tuple[tuple[int, ...], frozenset[tuple[int, int]], MonotoneMap] | None:
    """A proper subgraph H on exactly tgt.g vertices and tgt.h edges that g
    maps onto, or None.

    Vertex sets X are tried in lexicographic order.  In the default mode X
    qualifies when |E(g[X])| = h and a retraction r: g -> g[X] exists; r fixes
    X and maps into g[X], so r(E) = E(g[X]) and H is g[X] itself.  Sets whose
    prefix has no retraction are skipped without a test (see
    _prefix_retracts).

    With strict_hom X qualifies when |E(g[X])| >= h and some ordered
    homomorphism f: g -> g[X] has |f(E)| <= h.  Such an f exists iff the core
    C of g has at most h edges and maps into g[X]: f(g) is homomorphically
    equivalent to g, so it contains a copy of C, and conversely f = phi . rho
    has |f(E)| <= |E(C)| for rho the retraction onto C and phi: C -> g[X].
    The witness is that composition, with rho from compute_core and phi the
    lex-first homomorphism C -> g[X]; H is f(E) padded with the edges of
    g[X] in sorted order up to h.
    """
    _validate_targets(g, tgt)
    if strict_hom:
        return _solve_slice_strict(g, tgt)
    for x in _lex_subsets(g.n, tgt.g, partial(_prefix_retracts, g)):
        xset = set(x)
        edges = frozenset(e for e in g.edges if e[0] in xset and e[1] in xset)
        if len(edges) != tgt.h:
            continue
        r = decide_retraction(g, x)
        if r is not None:
            return x, edges, r
    return None


def _solve_slice_strict(
    g: OrderedGraph, tgt: SliceTargets
) -> tuple[tuple[int, ...], frozenset[tuple[int, int]], MonotoneMap] | None:
    core = compute_core(g)
    if core.core.m > tgt.h:
        return None
    pos = {v: i for i, v in enumerate(core.embedding)}
    for x in combinations(range(g.n), tgt.g):
        sub, _ = g.induced(x)
        if sub.m < tgt.h:
            continue
        phi = find_ordered_homomorphism(core.core, sub)
        if phi is None:
            continue
        f = MonotoneMap(tuple(x[phi(pos[t])] for t in core.retraction.image))
        h_edges = {(f(u), f(v)) for u, v in g.edges}
        for u, v in sorted(sub.edges):
            if len(h_edges) == tgt.h:
                break
            h_edges.add((x[u], x[v]))
        return x, frozenset(h_edges), f
    return None


def solve_sub(
    g: OrderedGraph, dt: DoubleTuple
) -> tuple[tuple[int, ...], frozenset[tuple[int, int]], MonotoneMap] | None:
    """First success of solve_slice over the deficit grid, t-major order."""
    if not dt.t or not dt.u:
        raise GraphError("doubletuple lists must be nonempty")
    for t in dt.t:
        if not 0 < t < g.n:
            raise GraphError(f"vertex deficit {t} outside 1..{g.n - 1}")
    for u in dt.u:
        if not 0 < u < g.m:
            raise GraphError(f"edge deficit {u} outside 1..{g.m - 1}")
    for t in dt.t:
        for u in dt.u:
            res = solve_slice(g, SliceTargets(g.n - t, g.m - u))
            if res is not None:
                return res
    return None
