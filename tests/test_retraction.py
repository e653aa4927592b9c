from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ordcore import new_graph, path_graph
from ordcore.retraction import (
    EarlyUnsat,
    RetractionError,
    decide_retraction,
    decompose,
    decode,
    encode,
)
from ordcore import twosat

MC4 = new_graph(8, [(0, 5), (1, 7), (2, 4), (3, 6)])
WEDGE = new_graph(3, [(0, 2), (1, 2)])


def proper_subsets(n):
    for size in range(1, n):
        yield from combinations(range(n), size)


@st.composite
def graph_and_x(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    size = draw(st.integers(1, n - 1))
    x = draw(st.permutations(range(n)))[:size]
    return new_graph(n, edges), tuple(sorted(x))


class TestDecompose:
    def test_interior_anchor(self):
        d = decompose(path_graph(3), [1])
        assert d.anchors == (1,)
        assert d.segments == ((0,), (2,))
        assert d.h == 1

    def test_flanks(self):
        d = decompose(path_graph(3), [1])
        assert d.flanks(0) == (-1, 1)
        assert d.flanks(1) == (1, -1)

    def test_full_x(self):
        d = decompose(MC4, range(8))
        assert d.h == 8
        assert all(s == () for s in d.segments)

    def test_empty_x(self):
        with pytest.raises(RetractionError):
            decompose(MC4, [])

    def test_out_of_range(self):
        with pytest.raises(RetractionError):
            decompose(MC4, [8])


class TestEncode:
    def test_path3_endpoints_unsat(self):
        # P_3 cannot retract onto its two endpoints
        enc = encode(path_graph(3), [0, 2])
        if isinstance(enc, EarlyUnsat):
            assert enc.edge in {(0, 1), (1, 2)}
        else:
            assert twosat.solve(enc.instance) is None

    def test_wedge_decodes(self):
        enc = encode(WEDGE, [0, 2])
        assert not isinstance(enc, EarlyUnsat)
        a = twosat.solve(enc.instance)
        assert a is not None
        assert decode(enc, a).image == (0, 0, 2)

    def test_x_equals_v_trivial(self):
        enc = encode(MC4, range(8))
        assert not isinstance(enc, EarlyUnsat)
        assert len(enc.instance.clauses) == 0

    def test_decode_rejects_bad_assignment(self):
        enc = encode(WEDGE, [0, 2])
        sat = twosat.solve(enc.instance)
        bad = twosat.Assignment(tuple(not b for b in sat.values))
        if twosat.check(enc.instance, bad):
            pytest.skip("flipped assignment happens to satisfy")
        with pytest.raises(RetractionError):
            decode(enc, bad)

    def test_clause_bound_holds_small(self):
        for n in range(2, 5):
            for edges in oracles.all_graphs(n):
                g = new_graph(n, edges)
                for x in proper_subsets(n):
                    enc = encode(g, x)
                    if isinstance(enc, EarlyUnsat):
                        continue
                    assert len(enc.instance.clauses) <= enc.clause_bound()


class TestDecide:
    def test_mc4_collapse(self):
        f = decide_retraction(MC4, [0, 5])
        assert f is not None
        assert f.image == (0, 0, 0, 0, 5, 5, 5, 5)

    def test_star_onto_edge(self):
        star = new_graph(3, [(0, 1), (0, 2)])
        f = decide_retraction(star, [0, 1])
        assert f is not None
        assert f.image == (0, 1, 1)

    def test_path3_endpoints_none(self):
        assert decide_retraction(path_graph(3), [0, 2]) is None

    def test_wedge(self):
        f = decide_retraction(WEDGE, [0, 2])
        assert f.image == (0, 0, 2)

    def test_returned_map_is_retraction(self):
        for n in range(2, 5):
            for edges in oracles.all_graphs(n):
                g = new_graph(n, edges)
                for x in proper_subsets(n):
                    f = decide_retraction(g, x)
                    if f is None:
                        continue
                    assert all(f(v) == v for v in x)
                    assert set(f.image) == set(x)
                    assert oracles.is_hom(g.edges, g.edges, f.image)

    def test_agrees_with_oracle_exhaustive(self):
        for n in range(2, 5):
            for edges in oracles.all_graphs(n):
                g = new_graph(n, edges)
                for x in proper_subsets(n):
                    want = oracles.retract(g, x) is not None
                    assert (decide_retraction(g, x) is not None) == want

    @settings(max_examples=300, deadline=None)
    @given(graph_and_x())
    def test_agrees_with_oracle_random(self, gx):
        g, x = gx
        want = oracles.retract(g, x) is not None
        assert (decide_retraction(g, x) is not None) == want


class TestVertexRange:
    @settings(max_examples=100, deadline=None)
    @given(graph_and_x(), st.data())
    def test_upto_is_the_induced_prefix(self, gx, data):
        g, x = gx
        upto = data.draw(st.integers(max(x) + 1, g.n))
        prefix, _ = g.induced(range(upto))
        assert decide_retraction(g, x, upto=upto) == decide_retraction(prefix, x)

    def test_bad_range(self):
        with pytest.raises(RetractionError):
            decompose(MC4, [0], upto=0)
        with pytest.raises(RetractionError):
            decompose(MC4, [0], upto=9)
        with pytest.raises(RetractionError):
            encode(MC4, [0, 5], upto=5)


class TestSegmentMonotonicity:
    def test_assignment_monotone_within_segment(self):
        # within one segment the chosen sides must read false* true*
        for n in range(3, 6):
            for edges in oracles.all_graphs(n):
                g = new_graph(n, edges)
                for x in proper_subsets(n):
                    enc = encode(g, x)
                    if isinstance(enc, EarlyUnsat):
                        continue
                    a = twosat.solve(enc.instance)
                    if a is None:
                        continue
                    for seg in enc.decomposition.segments:
                        sides = [a.values[enc.var_of[v]] for v in seg if v in enc.var_of]
                        assert sides == sorted(sides)
