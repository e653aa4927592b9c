from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from ordcore import _kernels
from ordcore import (
    find_ordered_homomorphism,
    is_ordered_homomorphism,
    MonotoneMap,
    new_graph,
    path_graph,
)

import oracles


def adj_masks(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


@st.composite
def mask_graph(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return n, adj_masks(n, edges)


@st.composite
def hom_case(draw):
    n_g, adj_g = draw(mask_graph())
    n_h, adj_h = draw(mask_graph())
    fixed = None
    if draw(st.booleans()):
        fixed = [
            draw(st.integers(0, n_h - 1)) if draw(st.booleans()) else -1
            for _ in range(n_g)
        ]
        # keep pins monotone so the case is not trivially unsatisfiable
        best = 0
        for i in range(n_g):
            if fixed[i] >= 0:
                if fixed[i] < best:
                    fixed[i] = best
                best = fixed[i]
    forbid = draw(st.booleans()) and n_g == n_h
    min_image = draw(st.integers(0, 4))
    descending = draw(st.booleans())
    return n_g, adj_g, n_h, adj_h, fixed, forbid, min_image, descending


def uniform_edges(n, k):
    return list(combinations(range(n), k))


@st.composite
def hyperhom_case(draw):
    k = draw(st.integers(2, 4))
    n_g = draw(st.integers(1, 7))
    n_h = n_g if draw(st.booleans()) else draw(st.integers(1, 7))
    # either list may be empty: an edgeless G, or no target hyperedge at all;
    # targets of size k + 1 have k-prefixes that are no target themselves
    pool_g = uniform_edges(n_g, k)
    pool_h = uniform_edges(n_h, k) + (uniform_edges(n_h, k + 1) if draw(st.booleans()) else [])
    edges_g = draw(st.lists(st.sampled_from(pool_g), unique=True, max_size=6)) if pool_g else []
    edges_h = draw(st.lists(st.sampled_from(pool_h), unique=True, max_size=6)) if pool_h else []
    masks_h = [sum(1 << v for v in e) for e in edges_h]
    fixed = None
    if draw(st.booleans()):
        fixed = [draw(st.integers(0, n_h - 1)) if draw(st.booleans()) else -1 for _ in range(n_g)]
    forbid = draw(st.booleans())
    allowed = draw(st.integers(0, (1 << n_h) - 1)) if draw(st.booleans()) else None
    return n_g, edges_g, n_h, masks_h, fixed, forbid, allowed


class TestFindHomOracle:
    def test_exhaustive_small(self):
        # every pair of graphs on at most 4 vertices, under every combination
        # of a pin, forbid_identity, an image bound and descending
        graphs = [
            (n, adj_masks(n, edges)) for n in range(1, 5) for edges in oracles.all_graphs(n)
        ]
        options = list(product((False, True), (False, True), (0, 3), (False, True)))
        for (n_g, adj_g), (n_h, adj_h) in product(graphs, graphs):
            for pin, forbid, min_image, descending in options:
                fixed = None
                if pin:
                    fixed = [-1] * n_g
                    fixed[n_g // 2] = n_h // 2
                args = (n_g, adj_g, n_h, adj_h, fixed, forbid, min_image, descending)
                assert _kernels.find_hom(*args) == oracles.find_hom_masks(*args), args

    @settings(max_examples=200, deadline=None)
    @given(hom_case())
    def test_random(self, case):
        assert _kernels.find_hom(*case) == oracles.find_hom_masks(*case)

    def test_large_sparse_identity(self):
        g = path_graph(2000)
        assert find_ordered_homomorphism(g, g) == MonotoneMap(tuple(range(2000)))


class TestFindHyperhomOracle:
    def test_exhaustive_small(self):
        # G: every 2-uniform hypergraph on at most 3 vertices and every
        # 3-uniform one on at most 4.  H: every hypergraph on as many
        # vertices with hyperedges of size k or k + 1.  Each pair runs under
        # every combination of a pin, forbid_identity and a forbidden target.
        def all_hypergraphs(top, sizes):
            for n in range(1, top + 1):
                pool = [e for s in sizes for e in uniform_edges(n, s)]
                for mask in range(1 << len(pool)):
                    yield n, [e for b, e in enumerate(pool) if mask >> b & 1]

        for k, top in ((2, 3), (3, 4)):
            targets = [
                (n, [sum(1 << v for v in e) for e in edges])
                for n, edges in all_hypergraphs(top, (k, k + 1))
            ]
            for (n_g, edges_g), (n_h, masks_h) in product(all_hypergraphs(top, (k,)), targets):
                for pin, forbid, gap in product((False, True), repeat=3):
                    fixed = None
                    if pin:
                        fixed = [-1] * n_g
                        fixed[n_g // 2] = n_h // 2
                    allowed = ((1 << n_h) - 1) & ~(1 << (n_h // 2)) if gap else None
                    args = (n_g, edges_g, n_h, masks_h, fixed, forbid, allowed)
                    assert _kernels.find_hyperhom(*args) == oracles.find_hyperhom_masks(*args), args

    @settings(max_examples=200, deadline=None)
    @given(hyperhom_case())
    def test_random(self, case):
        assert _kernels.find_hyperhom(*case) == oracles.find_hyperhom_masks(*case)


class TestDispatch:
    def test_backend_reports(self):
        assert _kernels.backend() == "pure"

    def test_large_graph_uses_pure_path(self):
        # 65 vertices do not fit a 64-bit mask; the kernel has no size limit
        g = path_graph(65)
        assert _kernels.find_hom(g.n, g.adj, g.n, g.adj) == list(range(65))

    def test_results_validate_as_homomorphisms(self):
        g = new_graph(6, [(0, 3), (1, 4), (2, 5), (0, 5)])
        res = _kernels.find_hom(g.n, g.adj, g.n, g.adj, forbid_identity=True)
        if res is not None:
            assert is_ordered_homomorphism(g, g, MonotoneMap(tuple(res)))
            assert tuple(res) != tuple(range(6))
