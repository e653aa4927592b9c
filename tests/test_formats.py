from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordcore import (
    FormatError,
    new_graph,
    new_hypergraph,
    parse_graph,
    parse_hypergraph,
    parse_partitioned,
    parse_x13,
    serialize_graph,
    serialize_hypergraph,
    serialize_partitioned,
    serialize_x13,
)
from ordcore.gadgets import X13Formula, new_partitioned


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return new_graph(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return new_graph(n, edges)


class TestGraphFormat:
    def test_p2(self):
        g = parse_graph("og 2 1\n0 1")
        assert g.n == 2 and g.edges == frozenset({(0, 1)})

    def test_endpoint_out_of_range(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_graph("og 2 1\n0 5")

    def test_loop(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_graph("og 3 1\n1 1")

    def test_count_mismatch(self):
        with pytest.raises(FormatError, match="^line 1: header says 2 edges, found 1$"):
            parse_graph("og 3 2\n0 1")

    def test_count_mismatch_names_the_header_line(self):
        with pytest.raises(FormatError, match="^line 3: header says 1 edges, found 2$"):
            parse_graph("# a graph\n\nog 3 1\n0 1\n1 2")

    def test_bad_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_graph("graph 2 1\n0 1")

    def test_empty(self):
        with pytest.raises(FormatError):
            parse_graph("")

    def test_comments_and_blanks_skipped(self):
        text = "# a graph\n\nog 3 1\n# the only edge\n0 2\n"
        assert parse_graph(text).edges == frozenset({(0, 2)})

    def test_line_numbers_count_raw_lines(self):
        with pytest.raises(FormatError, match="line 5"):
            parse_graph("# a graph\n\nog 3 2\n0 1\n0 9")

    def test_round_trip(self):
        g = new_graph(5, [(0, 4), (1, 3), (0, 2)])
        assert parse_graph(serialize_graph(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_round_trip_random(self, g):
        assert parse_graph(serialize_graph(g)) == g


class TestHypergraphFormat:
    def test_triple(self):
        h = parse_hypergraph("ohg 3 1 3\n0 1 2")
        assert h.n == 3 and h.k == 3
        assert h.hyperedges == frozenset({(0, 1, 2)})

    def test_vertex_out_of_range(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_hypergraph("ohg 3 1 3\n0 1 3")

    def test_repeated_vertex(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_hypergraph("ohg 4 1 3\n0 1 1")

    def test_count_mismatch(self):
        with pytest.raises(FormatError, match="^line 1: header says 2 hyperedges, found 1$"):
            parse_hypergraph("ohg 3 2 3\n0 1 2")

    def test_round_trip(self):
        h = new_hypergraph(5, 3, [(0, 1, 2), (2, 3, 4), (0, 3, 4)])
        assert parse_hypergraph(serialize_hypergraph(h)) == h


class TestX13Format:
    def test_single_clause(self):
        phi = parse_x13("x13 3 1\n0 1 2")
        assert phi == X13Formula(3, ((0, 1, 2),))

    def test_variable_out_of_range(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_x13("x13 2 1\n0 1 2")

    def test_distinctness(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_x13("x13 3 1\n0 0 1")

    def test_count_mismatch(self):
        with pytest.raises(FormatError, match="^line 2: header says 2 clauses, found 1$"):
            parse_x13("# one clause\nx13 3 2\n0 1 2")

    def test_clause_order_preserved(self):
        phi = parse_x13("x13 3 2\n2 0 1\n0 1 2")
        assert phi.clauses == ((2, 0, 1), (0, 1, 2))

    def test_round_trip(self):
        phi = X13Formula(4, ((0, 1, 3), (1, 2, 3), (0, 1, 2)))
        assert parse_x13(serialize_x13(phi)) == phi


class TestPartitionedFormat:
    def test_single_edge(self):
        f = parse_partitioned("mcg 2 2\n0 0 1 1")
        assert f == new_partitioned(2, 2, [((0, 0), (1, 1))])

    def test_reads_to_eof(self):
        f = parse_partitioned("mcg 2 2\n0 0 1 1\n0 1 1 0\n")
        assert len(f.edges) == 2

    def test_vertex_out_of_range(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_partitioned("mcg 2 2\n0 0 1 2")

    def test_edge_inside_part(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_partitioned("mcg 2 2\n0 0 1 1\n1 0 1 1")

    def test_unnormalized_input_accepted(self):
        f = parse_partitioned("mcg 2 2\n1 1 0 0")
        assert f.has_edge((0, 0), (1, 1))

    def test_round_trip(self):
        f = new_partitioned(3, 2, [((0, 0), (1, 1)), ((1, 0), (2, 1)), ((0, 1), (2, 0))])
        assert parse_partitioned(serialize_partitioned(f)) == f


class TestSerializedShape:
    def test_graph_text(self):
        g = new_graph(3, [(0, 2), (0, 1)])
        assert serialize_graph(g) == "og 3 2\n0 1\n0 2\n"

    def test_hypergraph_text(self):
        h = new_hypergraph(3, 3, [(0, 1, 2)])
        assert serialize_hypergraph(h) == "ohg 3 1 3\n0 1 2\n"

    def test_x13_text(self):
        phi = X13Formula(3, ((2, 0, 1),))
        assert serialize_x13(phi) == "x13 3 1\n2 0 1\n"
