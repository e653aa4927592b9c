"""Reference implementations the tests trust instead of the package.

Everything here enumerates with itertools and checks definitions directly;
none of it shares code with the package's solvers, except that brute_core_k
and brute_slice run the package's polynomial retraction test (itself checked
against `retract` here) on every subset, so that their witness maps are the
same 2-SAT solutions the solvers return.  Kept deliberately slow and
obvious.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, combinations_with_replacement

from ordcore import decide_retraction


def monotone_maps(n_from: int, n_to: int):
    """All order-preserving maps [0,n_from) -> [0,n_to) as image tuples."""
    return combinations_with_replacement(range(n_to), n_from)


def is_hom(edges_g, edges_h, f) -> bool:
    hset = {tuple(sorted(e)) for e in edges_h}
    for u, v in edges_g:
        a, b = f[u], f[v]
        if a == b or (min(a, b), max(a, b)) not in hset:
            return False
    return True


def find_hom(g, h):
    """Lexicographically first ordered homomorphism g -> h, or None."""
    for f in monotone_maps(g.n, h.n):
        if is_hom(g.edges, h.edges, f):
            return f
    return None


@cache
def monotone_homs_masks(n_g, adj_g, n_h, adj_h):
    """Every monotone homomorphism between two graphs given as tuples of
    adjacency bitmasks, in lexicographic order.  Cached, since the options
    of `find_hom_masks` only filter this list."""
    edges_g = [(u, v) for u in range(n_g) for v in range(u + 1, n_g) if adj_g[u] >> v & 1]
    edges_h = {(a, b) for a in range(n_h) for b in range(a + 1, n_h) if adj_h[a] >> b & 1}
    # f is monotone, so each edge u < v must land on an edge f[u] < f[v]
    return [
        f for f in monotone_maps(n_g, n_h)
        if all((f[u], f[v]) in edges_h for u, v in edges_g)
    ]


def find_hom_masks(
    n_g, adj_g, n_h, adj_h, fixed=None, forbid_identity=False, min_image=0,
    descending=False,
):
    """The contract of the kernel `find_hom`, by enumeration: the first
    monotone homomorphism [n_g] -> [n_h] in lexicographic order (the last
    with descending) that takes the pinned value wherever fixed[i] >= 0, is
    not the identity tuple under forbid_identity, and has at least min_image
    distinct values."""
    homs = monotone_homs_masks(n_g, tuple(adj_g), n_h, tuple(adj_h))
    for f in reversed(homs) if descending else homs:
        if fixed is not None and any(p >= 0 and f[i] != p for i, p in enumerate(fixed)):
            continue
        if forbid_identity and f == tuple(range(n_g)):
            continue
        if len(set(f)) < min_image:
            continue
        return list(f)
    return None


def find_hyperhom_masks(
    n_g, edges_g, n_h, edge_masks_h, fixed=None, forbid_identity=False, allowed=None,
):
    """The contract of the kernel `find_hyperhom`, by enumeration: the first
    monotone map [n_g] -> [n_h] in lexicographic order that takes the pinned
    value wherever fixed[i] >= 0, has every value inside the bitmask allowed
    (when given), is not the identity tuple under forbid_identity, and sends
    every hyperedge injectively onto one of the target masks."""
    targets = set(edge_masks_h)
    for f in monotone_maps(n_g, n_h):
        if fixed is not None and any(p >= 0 and f[i] != p for i, p in enumerate(fixed)):
            continue
        if allowed is not None and any(not allowed >> t & 1 for t in f):
            continue
        if forbid_identity and f == tuple(range(n_g)):
            continue
        if all(
            len({f[v] for v in e}) == len(e) and sum(1 << f[v] for v in e) in targets
            for e in edges_g
        ):
            return list(f)
    return None


def retraction_maps(g, x):
    """All retractions of g onto the subgraph induced by x."""
    xset = set(x)
    induced = [(u, v) for u, v in g.edges if u in xset and v in xset]
    for f in monotone_maps(g.n, g.n):
        if any(f[v] != v for v in xset):
            continue
        if any(t not in xset for t in f):
            continue
        if is_hom(g.edges, induced, f):
            yield f


def retract(g, x):
    for f in retraction_maps(g, x):
        return f
    return None


def nonsurjective_endo(g):
    full = set(range(g.n))
    for f in monotone_maps(g.n, g.n):
        if set(f) != full and is_hom(g.edges, g.edges, f):
            return f
    return None


def core_vertices(g):
    """Vertex set of the core: the smallest retract, smallest-size first,
    lexicographic within a size."""
    for size in range(1, g.n):
        for x in combinations(range(g.n), size):
            if retract(g, x) is not None:
                return x
    return tuple(range(g.n))


def brute_core_k(g, k):
    """First (X, retraction) with |X| <= k, smallest size first, then
    lexicographic, trying every subset."""
    for size in range(1, k + 1):
        for x in combinations(range(g.n), size):
            r = decide_retraction(g, x)
            if r is not None:
                return x, r
    return None


def brute_slice(g, tgt):
    """First (X, H edges, retraction) of the default slice search, trying
    every tgt.g-subset in lexicographic order."""
    for x in combinations(range(g.n), tgt.g):
        xset = set(x)
        induced = sorted(e for e in g.edges if e[0] in xset and e[1] in xset)
        if len(induced) < tgt.h:
            continue
        r = decide_retraction(g, x)
        if r is None:
            continue
        img = {(min(r(u), r(v)), max(r(u), r(v))) for u, v in g.edges}
        if len(img) > tgt.h:
            continue
        h_edges = set(img)
        for e in induced:
            if len(h_edges) == tgt.h:
                break
            h_edges.add(e)
        return x, frozenset(h_edges), r
    return None


@cache
def fewest_image_edges(g, x):
    """(count, map) for the first monotone map g -> g[X] with the fewest
    image edges among the homomorphisms, trying every map; None when there
    is no homomorphism.  Cached, since it does not depend on the targets."""
    xset = set(x)
    induced = [e for e in g.edges if e[0] in xset and e[1] in xset]
    best = None
    for pos in monotone_maps(g.n, len(x)):
        f = tuple(x[i] for i in pos)
        count = len({(f[u], f[v]) for u, v in g.edges})
        if (best is None or count < best[0]) and is_hom(g.edges, induced, f):
            best = count, f
    return best


def brute_slice_strict(g, tgt):
    """First (X, map) of the strict slice rule: the first tgt.g-subset X in
    lexicographic order with |E(G[X])| >= h into which some monotone map
    sends g homomorphically with at most h image edges."""
    for x in combinations(range(g.n), tgt.g):
        xset = set(x)
        if sum(e[0] in xset and e[1] in xset for e in g.edges) < tgt.h:
            continue
        best = fewest_image_edges(g, x)
        if best is not None and best[0] <= tgt.h:
            return x, best[1]
    return None


def chi(g) -> int:
    """Interval chromatic number by dynamic programming over prefixes."""
    n = g.n
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = [0] + [n + 1] * n
    for j in range(1, n + 1):
        window = 0
        for i in range(j - 1, -1, -1):
            if adj[i] & window:
                break
            window |= 1 << i
            if best[i] + 1 < best[j]:
                best[j] = best[i] + 1
    return best[n]


def twosat(var_count: int, clauses):
    """First satisfying assignment by truth table, variable 0 least
    significant, or None."""
    for bits in range(1 << var_count):
        a = [bool(bits >> i & 1) for i in range(var_count)]
        if all(a[v1] == p1 or a[v2] == p2 for (v1, p1), (v2, p2) in clauses):
            return a
    return None


def edge_collapsible(g) -> bool:
    seen_any = False
    full = set(range(g.n))
    for f in monotone_maps(g.n, g.n):
        if set(f) == full or not is_hom(g.edges, g.edges, f):
            continue
        if len(set(f)) != 2:
            return False
        seen_any = True
    return seen_any


def hyper_image_ok(hyperedges, k, f) -> bool:
    hset = set(hyperedges)
    for e in hyperedges:
        img = {f[v] for v in e}
        if len(img) != k or tuple(sorted(img)) not in hset:
            return False
    return True


def hyper_nonsurjective_endo(h):
    full = set(range(h.n))
    for f in monotone_maps(h.n, h.n):
        if set(f) != full and hyper_image_ok(h.hyperedges, h.k, f):
            return f
    return None


def hyper_retract(h, x):
    xset = set(x)
    allowed = sorted(xset)
    tset = {e for e in h.hyperedges if all(v in xset for v in e)}

    def extend(prefix):
        # monotone maps fixing X pointwise with image inside X
        v = len(prefix)
        if v == h.n:
            yield tuple(prefix)
            return
        lo = prefix[-1] if prefix else 0
        if v in xset:
            if v >= lo:
                yield from extend(prefix + [v])
            return
        for t in allowed:
            if t >= lo:
                yield from extend(prefix + [t])

    for f in extend([]):
        ok = True
        for e in h.hyperedges:
            img = {f[v] for v in e}
            if len(img) != h.k or tuple(sorted(img)) not in tset:
                ok = False
                break
        if ok:
            return f
    return None


def all_graphs(n: int):
    """Every ordered graph on n vertices, as (n, edge tuple)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
