from itertools import product

import pytest

from ordcore import (
    CoreHasChiVertices,
    InstanceIsCore,
    MonotoneMap,
    SliceTargets,
    decide_core_chi,
    find_nonsurjective_hyper_endomorphism,
    interval_chromatic_number,
    is_ordered_hyperhom,
    mc,
    solve_slice,
)
from ordcore.gadgets import (
    GadgetError,
    PartitionedGraph,
    X13Formula,
    brute_force_multicolored_clique,
    brute_force_x13,
    clique_gadget,
    extract_assignment,
    extract_clique,
    hypergraph_gadget,
    new_partitioned,
    satisfying_collapse,
    slice_gadget,
)

SAT1 = X13Formula(3, ((0, 1, 2),))
UNSAT = X13Formula(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
# the unsatisfiable formula of the gadget-verify benchmark
UNSAT_HYPER = X13Formula(5, ((0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)))
# connected and satisfiable on 12 variables: 72 vertices at k=5, past 64
SAT12 = X13Formula(12, (
    (0, 1, 10), (2, 4, 5), (3, 4, 9), (0, 9, 11), (2, 6, 10),
    (6, 8, 10), (5, 7, 8), (0, 4, 8), (0, 5, 7),
))
TRIPLED = X13Formula(3, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))


class TestFormula:
    def test_repeated_variable(self):
        with pytest.raises(GadgetError):
            X13Formula(3, ((0, 1, 1),))

    def test_out_of_range(self):
        with pytest.raises(GadgetError):
            X13Formula(2, ((0, 1, 2),))

    def test_occurrences(self):
        assert TRIPLED.occurrences(0) == 3
        assert UNSAT.occurrences(3) == 3

    def test_connectivity(self):
        assert SAT1.is_connected()
        assert not X13Formula(6, ((0, 1, 2), (3, 4, 5))).is_connected()
        assert X13Formula(1, ()).is_connected()

    def test_one_in_three(self):
        assert SAT1.is_one_in_three((True, False, False))
        assert not SAT1.is_one_in_three((True, True, False))
        assert not SAT1.is_one_in_three((False, False, False))
        with pytest.raises(GadgetError):
            SAT1.is_one_in_three((True,))


class TestBruteForceX13:
    def test_no_clauses_all_false(self):
        assert brute_force_x13(X13Formula(1, ())) == (False,)

    def test_single_clause_first_witness(self):
        assert brute_force_x13(SAT1) == (True, False, False)

    def test_unsat(self):
        assert brute_force_x13(UNSAT) is None

    def test_variable_guard(self):
        with pytest.raises(GadgetError):
            brute_force_x13(X13Formula(21, ((0, 1, 2),)))


class TestHyperGadget:
    def test_counts_k3(self):
        hg, lay = hypergraph_gadget(SAT1)
        assert hg.n == 12 and hg.m == 7
        assert all(len(e) == 3 for e in hg.hyperedges)
        assert lay.width == 4

    def test_counts_k4(self):
        hg, lay = hypergraph_gadget(SAT1, k=4)
        assert hg.n == 15 and hg.m == 7
        assert all(len(e) == 4 for e in hg.hyperedges)
        assert lay.padding(1) == (6,)

    def test_layout_positions_k3(self):
        _, lay = hypergraph_gadget(SAT1)
        assert lay.first(1) == 4
        assert lay.padding(1) == ()
        assert lay.second(1) == 5
        assert lay.third(1) == 6
        assert lay.fourth(1) == 7

    def test_uniformity_floor(self):
        with pytest.raises(GadgetError):
            hypergraph_gadget(SAT1, k=2)

    def test_disconnected_rejected(self):
        with pytest.raises(GadgetError):
            hypergraph_gadget(X13Formula(6, ((0, 1, 2), (3, 4, 5))))

    @pytest.mark.parametrize("k", [3, 4])
    def test_collapse_round_trip(self, k):
        hg, lay = hypergraph_gadget(SAT1, k=k)
        hits = 0
        for bits in product((False, True), repeat=3):
            if not SAT1.is_one_in_three(bits):
                continue
            hits += 1
            f = satisfying_collapse(lay, bits)
            assert is_ordered_hyperhom(hg, hg, f)
            assert len(set(f.image)) < hg.n
            assert extract_assignment(lay, f) == bits
        assert hits == 3

    def test_search_round_trip_past_64_vertices(self):
        assert brute_force_x13(SAT12) is not None
        hg, lay = hypergraph_gadget(SAT12, k=5)
        assert hg.n == 72
        f = find_nonsurjective_hyper_endomorphism(hg)
        assert f is not None and not f.is_identity()
        assert is_ordered_hyperhom(hg, hg, f)
        assert SAT12.is_one_in_three(extract_assignment(lay, f))

    def test_search_unsatisfiable_k5(self):
        assert brute_force_x13(UNSAT_HYPER) is None
        hg, _ = hypergraph_gadget(UNSAT_HYPER, k=5)
        assert find_nonsurjective_hyper_endomorphism(hg) is None

    def test_extract_rejects_identity(self):
        hg, lay = hypergraph_gadget(SAT1)
        with pytest.raises(GadgetError):
            extract_assignment(lay, MonotoneMap(tuple(range(hg.n))))

    def test_extract_rejects_out_of_gadget_target(self):
        _, lay = hypergraph_gadget(SAT1)
        image = [0, 1, 4, 4, 4, 5, 6, 7, 8, 9, 10, 11]
        with pytest.raises(GadgetError):
            extract_assignment(lay, MonotoneMap(tuple(image)))


class TestSliceGadget:
    def test_counts(self):
        g, tgt, lay = slice_gadget(TRIPLED)
        assert g.n == 28 and g.m == 81
        assert tgt == SliceTargets(25, 63)
        assert len(lay.variable_edges) == 27
        assert len(lay.clause_edges) == 36
        assert len(lay.external_edges) == 18

    def test_families_disjoint(self):
        _, _, lay = slice_gadget(TRIPLED)
        assert not lay.variable_edges & lay.clause_edges
        assert not lay.variable_edges & lay.external_edges
        assert not lay.clause_edges & lay.external_edges

    def test_layout_positions(self):
        _, _, lay = slice_gadget(TRIPLED)
        assert lay.gadget_count == 9
        assert lay.second(4) == 13
        assert lay.third(4) == 14
        assert lay.gadgets_of_variable(0) == (0, 3, 6)
        assert lay.gadgets_of_variable(2) == (2, 5, 8)

    def test_audit_on_permuted_slots(self):
        phi = X13Formula(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        g, tgt, _ = slice_gadget(phi)
        c = len(phi.clauses)
        assert g.n == 9 * c + 1
        assert g.m == 27 * c
        assert tgt == SliceTargets(g.n - c, g.m - 6 * c)

    def test_occurrence_rule(self):
        with pytest.raises(GadgetError):
            slice_gadget(SAT1)

    def test_no_clauses(self):
        with pytest.raises(GadgetError):
            slice_gadget(X13Formula(1, ()))

    def test_satisfiable_round_trip(self):
        g, tgt, _ = slice_gadget(TRIPLED)
        res = solve_slice(g, tgt)
        assert res is not None
        x, edges, r = res
        assert len(x) == tgt.g and len(edges) == tgt.h
        assert all(r(v) == v for v in x)


class TestPartitioned:
    def test_edge_inside_part(self):
        with pytest.raises(GadgetError):
            PartitionedGraph(2, 2, frozenset({((0, 0), (0, 1))}))

    def test_normalization(self):
        f = new_partitioned(2, 2, [((1, 0), (0, 1))])
        assert f.has_edge((0, 1), (1, 0))
        assert f.has_edge((1, 0), (0, 1))

    def test_out_of_range(self):
        with pytest.raises(GadgetError):
            new_partitioned(2, 2, [((0, 0), (1, 2))])

    def test_clique_check(self):
        f = new_partitioned(2, 2, [((0, 0), (1, 1))])
        assert f.is_multicolored_clique((0, 1))
        assert not f.is_multicolored_clique((0, 0))
        with pytest.raises(GadgetError):
            f.is_multicolored_clique((0,))


def complete_between_parts(k, l):
    edges = [
        ((i, a), (j, b))
        for i in range(k)
        for j in range(i + 1, k)
        for a in range(l)
        for b in range(l)
    ]
    return new_partitioned(k, l, edges)


class TestCliqueGadget:
    def test_counts_k2(self):
        g, lay = clique_gadget(complete_between_parts(2, 4))
        assert g.n == 25
        assert g.n == 2 * 2 + 1 + 2 * 2 * (4 + 2 - 1)
        assert interval_chromatic_number(g)[0] == 9
        assert len(lay.collapsible_edges) == 2 * 5
        assert len(lay.complete_edges) == 1

    def test_counts_k3(self):
        g, _ = clique_gadget(complete_between_parts(3, 4))
        assert g.n == 43
        assert interval_chromatic_number(g)[0] == 13

    def test_part_size_floor(self):
        with pytest.raises(GadgetError):
            clique_gadget(complete_between_parts(2, 3))

    def test_block_layout(self):
        _, lay = clique_gadget(complete_between_parts(2, 4))
        assert lay.p == (0, 6, 12, 18, 24)
        assert lay.d_blocks == ((1, 2, 3, 4, 5), (7, 8, 9, 10, 11))
        assert lay.c_blocks == ((13, 14, 15, 16), (19, 20, 21, 22))
        assert lay.b_blocks == ((17,), (23,))
        assert lay.a_block(0) == (13, 14, 15, 16, 17)

    def test_collapsible_family_uses_matching(self):
        _, lay = clique_gadget(complete_between_parts(2, 4))
        matching = mc(5).graph
        block0 = {
            (lay.d_blocks[0][u], lay.a_block(0)[v - 5])
            for u, v in matching.edges
        }
        assert block0 <= lay.collapsible_edges

    def test_yes_instance(self):
        f = complete_between_parts(2, 4)
        g, lay = clique_gadget(f)
        v = decide_core_chi(g)
        assert isinstance(v, CoreHasChiVertices)
        assert len(v.vertices) == 9
        choice = extract_clique(lay, v.retraction)
        assert f.is_multicolored_clique(choice)
        assert brute_force_multicolored_clique(f) is not None

    def test_no_instance(self):
        f = new_partitioned(2, 4, [])
        g, _ = clique_gadget(f)
        v = decide_core_chi(g)
        assert isinstance(v, InstanceIsCore)
        assert brute_force_multicolored_clique(f) is None

    def test_single_edge_instance(self):
        f = new_partitioned(2, 4, [((0, 0), (1, 0))])
        g, lay = clique_gadget(f)
        v = decide_core_chi(g)
        assert isinstance(v, CoreHasChiVertices)
        assert extract_clique(lay, v.retraction) == (0, 0)
        assert brute_force_multicolored_clique(f) == (0, 0)

    def test_k3_planted_clique(self):
        # a triangle on (0,1), (1,2), (2,3), plus three edges in no triangle
        f = new_partitioned(3, 4, [
            ((0, 1), (1, 2)), ((0, 1), (2, 3)), ((1, 2), (2, 3)),
            ((0, 0), (1, 0)), ((1, 3), (2, 0)), ((0, 3), (2, 2)),
        ])
        g, lay = clique_gadget(f)
        assert g.n == 43
        v = decide_core_chi(g)
        assert isinstance(v, CoreHasChiVertices)
        assert v.chi == 4 * 3 + 1
        assert len(v.vertices) == v.chi
        choice = extract_clique(lay, v.retraction)
        assert f.is_multicolored_clique(choice)
        assert brute_force_multicolored_clique(f) is not None

    def test_k3_no_clique(self):
        f = new_partitioned(3, 4, [
            ((0, 0), (1, 0)), ((1, 0), (2, 0)), ((0, 0), (2, 1)),
            ((0, 2), (1, 3)), ((1, 3), (2, 3)),
        ])
        g, _ = clique_gadget(f)
        assert g.n == 43
        assert isinstance(decide_core_chi(g), InstanceIsCore)
        assert brute_force_multicolored_clique(f) is None

    def test_extract_rejects_identity(self):
        g, lay = clique_gadget(complete_between_parts(2, 4))
        with pytest.raises(GadgetError):
            extract_clique(lay, MonotoneMap(tuple(range(g.n))))

    def test_extract_rejects_moved_separator(self):
        g, lay = clique_gadget(complete_between_parts(2, 4))
        image = list(range(g.n))
        image[0] = 1
        with pytest.raises(GadgetError):
            extract_clique(lay, MonotoneMap(tuple(image)))

    def test_oracle_guard(self):
        with pytest.raises(GadgetError):
            brute_force_multicolored_clique(new_partitioned(2, 3200, []))
