import random
import sys
from itertools import combinations, permutations

import pytest

import oracles
from ordcore import (
    CoreHasChiVertices,
    DoubleTuple,
    GraphError,
    InstanceIsCore,
    Neither,
    SliceTargets,
    X13Formula,
    brute_force_x13,
    compute_core,
    decide_core_chi,
    decide_core_with_k_vertices,
    find_nonsurjective_endomorphism,
    interval_chromatic_number,
    is_core,
    new_graph,
    path_graph,
    slice_gadget,
    solve_slice,
    solve_sub,
)

MC4 = new_graph(8, [(0, 5), (1, 7), (2, 4), (3, 6)])
WEDGE = new_graph(3, [(0, 2), (1, 2)])


def small_graphs(max_n):
    for n in range(1, max_n + 1):
        for edges in oracles.all_graphs(n):
            yield new_graph(n, edges)


class TestEndomorphismSearch:
    def test_p2_is_core(self):
        assert find_nonsurjective_endomorphism(path_graph(2)) is None
        assert is_core(path_graph(2))

    def test_mc4_collapses(self):
        f = find_nonsurjective_endomorphism(MC4)
        assert f is not None
        assert not is_core(MC4)

    def test_edgeless_pair(self):
        f = find_nonsurjective_endomorphism(new_graph(2, []))
        assert f.image == (0, 0)

    def test_paths_are_cores(self):
        for m in range(1, 8):
            assert is_core(path_graph(m))

    def test_single_vertex(self):
        assert is_core(new_graph(1, []))

    def test_agrees_with_oracle(self):
        for g in small_graphs(5):
            want = oracles.nonsurjective_endo(g)
            got = find_nonsurjective_endomorphism(g)
            assert (got is None) == (want is None)
            if got is not None:
                assert oracles.is_hom(g.edges, g.edges, got.image)
                assert len(set(got.image)) < g.n


class TestComputeCore:
    def test_core_input_fixed_point(self):
        res = compute_core(path_graph(3))
        assert res.core.edges == path_graph(3).edges
        assert res.embedding == (0, 1, 2)
        assert res.retraction.is_identity()

    def test_mc4_core_is_single_edge(self):
        res = compute_core(MC4)
        assert res.core.n == 2 and res.core.m == 1
        assert res.embedding == (0, 5)
        assert res.retraction.image == (0, 0, 0, 0, 5, 5, 5, 5)

    def test_edgeless_collapses_to_point(self):
        res = compute_core(new_graph(5, []))
        assert res.core.n == 1

    def test_result_is_core_and_valid(self):
        for g in small_graphs(5):
            res = compute_core(g)
            assert is_core(res.core)
            # embedding carries the core subgraph
            sub, _ = g.induced(res.embedding)
            assert sub.edges == res.core.edges
            # retraction fixes the embedded set and lands inside it
            assert all(res.retraction(v) == v for v in res.embedding)
            assert set(res.retraction.image) == set(res.embedding)
            if g.m:
                assert oracles.is_hom(g.edges, g.edges, res.retraction.image)

    def test_matches_oracle_core(self):
        for g in small_graphs(5):
            verts = oracles.core_vertices(g)
            want, _ = g.induced(verts)
            res = compute_core(g)
            assert res.core.n == want.n
            assert res.core.edges == want.edges

    def test_unique_under_reversed_search(self):
        for g in small_graphs(5):
            a = compute_core(g)
            b = compute_core(g, descending=True)
            assert a.core.n == b.core.n
            assert a.core.edges == b.core.edges

    def test_chi_preserved(self):
        for g in small_graphs(5):
            res = compute_core(g)
            assert (
                interval_chromatic_number(res.core)[0]
                == interval_chromatic_number(g)[0]
            )

    def test_core_no_smaller_than_chi(self):
        for g in small_graphs(5):
            assert compute_core(g).core.n >= interval_chromatic_number(g)[0]


class TestCoreK:
    def test_mc4(self):
        x, f = decide_core_with_k_vertices(MC4, 2)
        assert x == (0, 5)
        assert f.image == (0, 0, 0, 0, 5, 5, 5, 5)

    def test_p3_has_no_2_retract(self):
        assert decide_core_with_k_vertices(path_graph(3), 2) is None

    def test_edgeless_deterministic(self):
        x, f = decide_core_with_k_vertices(new_graph(3, []), 1)
        assert x == (0,)
        assert f.image == (0, 0, 0)

    def test_k_out_of_range(self):
        with pytest.raises(GraphError):
            decide_core_with_k_vertices(MC4, 0)
        with pytest.raises(GraphError):
            decide_core_with_k_vertices(MC4, 8)

    def test_n_minus_one_iff_not_core(self):
        for g in small_graphs(4):
            if g.n == 1:
                continue
            hit = decide_core_with_k_vertices(g, g.n - 1)
            assert (hit is not None) == (not is_core(g))

    def test_matches_subset_loop(self):
        # the pruned search returns the same X and the same map as trying
        # every subset, for every budget; sizes are tried smallest first, so
        # a budget k finds the unbudgeted witness when it has <= k vertices
        for g in small_graphs(5):
            if g.n == 1:
                continue
            first = oracles.brute_core_k(g, g.n - 1)
            for k in range(1, g.n):
                want = first if first is not None and len(first[0]) <= k else None
                assert decide_core_with_k_vertices(g, k) == want


class TestCoreChi:
    def test_mc4(self):
        v = decide_core_chi(MC4)
        assert isinstance(v, CoreHasChiVertices)
        assert v.chi == 2
        assert v.vertices == (0, 5)

    def test_p3(self):
        v = decide_core_chi(path_graph(3))
        assert isinstance(v, InstanceIsCore)
        assert v.chi == 3

    def test_neither(self):
        # two disjoint edges plus an isolated tail: core has 4 vertices, chi 3
        g = new_graph(5, [(0, 1), (2, 3)])
        v = decide_core_chi(g)
        assert isinstance(v, Neither)
        assert v.chi == 3
        assert v.core_size == 4

    def test_verdict_consistent_with_core(self):
        for g in small_graphs(5):
            chi = interval_chromatic_number(g)[0]
            core_n = compute_core(g).core.n
            v = decide_core_chi(g)
            if core_n == chi and chi < g.n:
                assert isinstance(v, CoreHasChiVertices)
                assert len(v.vertices) == chi
                assert all(v.retraction(u) == u for u in v.vertices)
            elif core_n == g.n:
                assert isinstance(v, InstanceIsCore)
            else:
                assert isinstance(v, Neither)
                assert v.core_size == core_n


class TestSlice:
    def test_wedge(self):
        res = solve_slice(WEDGE, SliceTargets(2, 1))
        assert res is not None
        x, edges, r = res
        assert x == (0, 2)
        assert edges == frozenset({(0, 2)})
        assert r.image == (0, 0, 2)

    def test_target_counts_validated(self):
        with pytest.raises(GraphError):
            solve_slice(WEDGE, SliceTargets(3, 1))
        with pytest.raises(GraphError):
            solve_slice(WEDGE, SliceTargets(2, 2))

    def test_agrees_with_oracle(self):
        # qualifying X: induced edge count equals h and a retraction exists
        for g in small_graphs(5):
            if g.m == 0:
                continue
            for gt in range(1, g.n):
                for ht in range(0, g.m):
                    want = None
                    for x in combinations(range(g.n), gt):
                        xs = set(x)
                        ind = [e for e in g.edges if e[0] in xs and e[1] in xs]
                        if len(ind) != ht:
                            continue
                        if oracles.retract(g, x) is not None:
                            want = x
                            break
                    got = solve_slice(g, SliceTargets(gt, ht))
                    assert got == oracles.brute_slice(g, SliceTargets(gt, ht))
                    assert (got is None) == (want is None)
                    if got is not None:
                        x, edges, r = got
                        assert x == want
                        assert len(edges) == ht
                        assert all(r(v) == v for v in x)

    def test_strict_hom_at_least_as_permissive(self):
        for g in small_graphs(4):
            if g.m == 0:
                continue
            for gt in range(1, g.n):
                for ht in range(0, g.m):
                    tgt = SliceTargets(gt, ht)
                    if solve_slice(g, tgt) is not None:
                        assert solve_slice(g, tgt, strict_hom=True) is not None


class TestStrictSlice:
    """slice with strict_hom against the rule written out with itertools."""

    def check_witness(self, g, tgt, res):
        x, edges, f = res
        xset = set(x)
        induced = {e for e in g.edges if e[0] in xset and e[1] in xset}
        assert len(x) == tgt.g
        assert set(f.image) <= xset
        assert oracles.is_hom(g.edges, induced, f.image)
        image = {(f(u), f(v)) for u, v in g.edges}
        assert image <= edges
        assert len(edges) == tgt.h
        assert edges <= induced
        # padding: the smallest further induced edges
        assert edges - image == set(sorted(induced - image)[: tgt.h - len(image)])

    def test_agrees_with_oracle(self):
        for g in small_graphs(5):
            for gt in range(1, g.n):
                for ht in range(0, g.m):
                    tgt = SliceTargets(gt, ht)
                    want = oracles.brute_slice_strict(g, tgt)
                    got = solve_slice(g, tgt, strict_hom=True)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert got[0] == want[0]
                        self.check_witness(g, tgt, got)

    def test_beyond_recursion_limit(self):
        n = sys.getrecursionlimit() + 10
        g = new_graph(n, [(0, n - 2), (0, n - 1)])
        tgt = SliceTargets(n - 1, 1)
        res = solve_slice(g, tgt, strict_hom=True)
        assert res[0] == tuple(range(n - 1))
        self.check_witness(g, tgt, res)
        assert solve_slice(g, SliceTargets(n - 1, 0), strict_hom=True) is None


class TestPrunedSearch:
    """The prefix-pruned subset search against the plain subset loops."""

    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        for n in range(7, 11):
            for p in (0.3, 0.5, 0.7):
                g = new_graph(
                    n, [e for e in combinations(range(n), 2) if rng.random() < p]
                )
                for k in (rng.randrange(1, n - 1), n - 1):
                    want = oracles.brute_core_k(g, k)
                    assert decide_core_with_k_vertices(g, k) == want
                if g.m == 0:
                    continue
                for gt in (rng.randrange(1, n - 1), n - 1):
                    tgt = SliceTargets(gt, rng.randrange(g.m))
                    assert solve_slice(g, tgt) == oracles.brute_slice(g, tgt)

    def test_satisfiable_slice_gadgets(self, seed):
        rng = random.Random(seed)
        perms = list(permutations((0, 1, 2)))
        for _ in range(3):
            phi = X13Formula(3, tuple(rng.choice(perms) for _ in range(3)))
            g, tgt, _ = slice_gadget(phi)
            got = solve_slice(g, tgt)
            assert got is not None
            assert got == oracles.brute_slice(g, tgt)

    def test_unsatisfiable_slice_gadget(self):
        phi = X13Formula(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
        assert brute_force_x13(phi) is None
        g, tgt, _ = slice_gadget(phi)
        assert solve_slice(g, tgt) is None

    def test_depth_beyond_recursion_limit(self):
        # keeping n-1 of n vertices walks a path of depth n-2 through the
        # prefixes; the search must not recurse along it
        n = sys.getrecursionlimit() + 10
        g = new_graph(n, [(0, n - 2), (0, n - 1)])
        tgt = SliceTargets(n - 1, 1)
        got = solve_slice(g, tgt)
        assert got == oracles.brute_slice(g, tgt)
        assert got[0] == tuple(range(n - 1))


class TestSub:
    def test_single_pair_matches_slice(self):
        want = solve_slice(WEDGE, SliceTargets(2, 1))
        got = solve_sub(WEDGE, DoubleTuple((1,), (1,)))
        assert got == want

    def test_all_failing(self):
        assert solve_sub(WEDGE, DoubleTuple((2,), (1,))) is None

    def test_second_pair_wins(self):
        want = solve_slice(WEDGE, SliceTargets(2, 1))
        got = solve_sub(WEDGE, DoubleTuple((2, 1), (1,)))
        assert got == want

    def test_validation(self):
        with pytest.raises(GraphError):
            solve_sub(WEDGE, DoubleTuple((), (1,)))
        with pytest.raises(GraphError):
            solve_sub(WEDGE, DoubleTuple((3,), (1,)))
        with pytest.raises(GraphError):
            solve_sub(WEDGE, DoubleTuple((1,), (2,)))
