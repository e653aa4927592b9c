import pytest

from ordcore import (
    FormatError,
    GadgetError,
    GraphError,
    HypergraphError,
    RetractionError,
    TwoSatError,
    cli,
    cores,
    mc,
    new_graph,
    parse_graph,
    parse_hypergraph,
    serialize_graph,
)
from ordcore.cli import main

P2 = "og 2 1\n0 1\n"
P3 = "og 3 2\n0 1\n1 2\n"
MC4 = "og 8 4\n0 5\n1 7\n2 4\n3 6\n"
WEDGE = "og 3 2\n0 2\n1 2\n"
NEITHER = "og 5 2\n0 1\n2 3\n"
ONE_CLAUSE = "x13 3 1\n0 1 2\n"
TRIPLED = "x13 3 3\n0 1 2\n0 1 2\n0 1 2\n"
UNSAT4 = "x13 4 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
PAIR_MCG = "mcg 2 4\n0 0 1 0\n"
BAD = "og 2 1\n0 5\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestRetract:
    def test_no(self, files, capsys):
        code, out, _ = run(capsys, "retract", files("p3.og", P3), "--keep", "0,2")
        assert code == 1
        assert out == "NONE\n"

    def test_yes(self, files, capsys):
        code, out, _ = run(capsys, "retract", files("m.og", MC4), "--keep", "0,5")
        assert code == 0
        assert out.startswith("map: f(0)=0 f(1)=0 f(2)=0 f(3)=0 f(4)=5")

    def test_emit_cnf(self, files, capsys, tmp_path):
        cnf = tmp_path / "enc.cnf"
        code, _, _ = run(
            capsys, "retract", files("m.og", MC4), "--keep", "0,5",
            "--emit-cnf", str(cnf),
        )
        assert code == 0
        text = cnf.read_text()
        assert text.startswith("p cnf ")
        assert text.rstrip().endswith(" 0") or text.rstrip().endswith("\n0")

    def test_emit_cnf_early_stop(self, files, capsys, tmp_path):
        cnf = tmp_path / "enc.cnf"
        code, out, _ = run(
            capsys, "retract", files("p3.og", P3), "--keep", "0,2",
            "--emit-cnf", str(cnf),
        )
        assert code == 1
        assert out == "NONE\n"
        text = cnf.read_text()
        assert text.splitlines()[0].startswith("c encoder stopped: edge")
        assert "p cnf 0 1" in text


class TestCore:
    def test_core_mc4(self, files, capsys, tmp_path):
        path = files("m.og", MC4)
        code, out, _ = run(capsys, "core", path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"# core on vertices 0,5 of {path}"
        graph_part = "\n".join(l for l in lines if not l.startswith("map: "))
        assert parse_graph(graph_part) == new_graph(2, [(0, 1)])
        assert lines[-1] == "map: f(0)=0 f(1)=0 f(2)=0 f(3)=0 f(4)=5 f(5)=5 f(6)=5 f(7)=5"

    def test_is_core_yes(self, files, capsys):
        code, out, _ = run(capsys, "is-core", files("p2.og", P2))
        assert code == 0
        assert out == "CORE\n"

    def test_is_core_no(self, files, capsys):
        code, out, _ = run(capsys, "is-core", files("m.og", MC4))
        assert code == 1
        assert out.splitlines()[0] == "NOT CORE"
        assert out.splitlines()[1].startswith("map: ")

    def test_core_k(self, files, capsys):
        code, out, _ = run(capsys, "core-k", files("m.og", MC4), "--k", "2")
        assert code == 0
        assert out.splitlines()[0] == "keep: 0 5"

    def test_core_k_none(self, files, capsys):
        code, out, _ = run(capsys, "core-k", files("p3.og", P3), "--k", "2")
        assert code == 1
        assert out == "NONE\n"

    def test_core_k_bad_k(self, files, capsys):
        code, _, err = run(capsys, "core-k", files("m.og", MC4), "--k", "0")
        assert code == 2
        assert "error:" in err

    def test_core_k_one_vertex_graph(self, files, capsys):
        code, out, err = run(capsys, "core-k", files("v.og", "og 1 0\n"), "--k", "1")
        assert code == 2
        assert out == ""
        assert err == "error: a 1-vertex graph has no proper retract: k counts 1..n-1 kept vertices\n"

    def test_core_chi_yes(self, files, capsys):
        code, out, _ = run(capsys, "core-chi", files("m.og", MC4))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "CORE-CHI chi=2"
        assert lines[1] == "keep: 0 5"

    def test_core_chi_is_core(self, files, capsys):
        code, out, _ = run(capsys, "core-chi", files("p3.og", P3))
        assert code == 1
        assert out == "IS-CORE chi=3\n"

    def test_core_chi_neither(self, files, capsys):
        code, out, _ = run(capsys, "core-chi", files("n.og", NEITHER))
        assert code == 1
        assert out == "NEITHER chi=3 core=4\n"


class TestSliceSub:
    def test_slice_yes(self, files, capsys):
        code, out, _ = run(
            capsys, "slice", files("w.og", WEDGE), "--g", "2", "--h", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "keep: 0 2"
        assert lines[1] == "edges: 0-2"
        assert lines[2] == "map: f(0)=0 f(1)=0 f(2)=2"

    def test_slice_no(self, files, capsys):
        code, out, _ = run(
            capsys, "slice", files("p3.og", P3), "--g", "2", "--h", "1"
        )
        assert code == 1
        assert out == "NONE\n"

    def test_slice_strict_hom_yes(self, files, capsys):
        code, out, _ = run(
            capsys, "slice", files("w.og", WEDGE), "--g", "2", "--h", "1",
            "--strict-hom",
        )
        assert code == 0
        assert out == "keep: 0 2\nedges: 0-2\nmap: f(0)=0 f(1)=0 f(2)=2\n"

    def test_slice_strict_hom_no(self, files, capsys):
        code, out, _ = run(
            capsys, "slice", files("p3.og", P3), "--g", "2", "--h", "1",
            "--strict-hom",
        )
        assert code == 1
        assert out == "NONE\n"

    def test_slice_bad_targets(self, files, capsys):
        code, _, err = run(
            capsys, "slice", files("w.og", WEDGE), "--g", "3", "--h", "1"
        )
        assert code == 2
        assert "error:" in err

    def test_slice_edgeless_graph(self, files, capsys):
        code, out, err = run(
            capsys, "slice", files("e.og", "og 3 0\n"), "--g", "1", "--h", "0"
        )
        assert code == 2
        assert out == ""
        assert err == "error: an edgeless graph has no proper slice: a slice keeps 0..m-1 edges\n"

    def test_slice_one_vertex_graph(self, files, capsys):
        code, out, err = run(
            capsys, "slice", files("v.og", "og 1 0\n"), "--g", "1", "--h", "0"
        )
        assert code == 2
        assert out == ""
        assert err == "error: a 1-vertex graph has no proper slice: a slice keeps 1..n-1 vertices\n"

    def test_sub_yes(self, files, capsys):
        code, out, _ = run(
            capsys, "sub", files("w.og", WEDGE), "--t", "1", "--u", "1"
        )
        assert code == 0
        assert out.splitlines()[0] == "keep: 0 2"

    def test_sub_no(self, files, capsys):
        code, out, _ = run(
            capsys, "sub", files("w.og", WEDGE), "--t", "2", "--u", "1"
        )
        assert code == 1
        assert out == "NONE\n"

    def test_sub_one_edge_graph(self, files, capsys):
        code, out, err = run(
            capsys, "sub", files("e.og", "og 3 1\n0 2\n"), "--t", "1", "--u", "1"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: a graph with at most one edge has no edge deficit:"
            " a deficit removes 1..m-1 edges\n"
        )

    def test_sub_one_vertex_graph(self, files, capsys):
        code, out, err = run(
            capsys, "sub", files("v.og", "og 1 0\n"), "--t", "1", "--u", "1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: a 1-vertex graph has no vertex deficit: a deficit removes 1..n-1 vertices\n"

    def test_sub_empty_list(self, files, capsys):
        code, _, err = run(
            capsys, "sub", files("w.og", WEDGE), "--t", "", "--u", "1"
        )
        assert code == 2
        assert "error:" in err


class TestGenerators:
    def test_gen_matching(self, capsys):
        code, out, _ = run(capsys, "gen-matching", "--i", "5")
        assert code == 0
        assert parse_graph(out) == mc(5).graph

    def test_gen_matching_too_small(self, capsys):
        code, _, err = run(capsys, "gen-matching", "--i", "3")
        assert code == 2
        assert "error:" in err

    def test_gen_hyper(self, files, capsys):
        code, out, _ = run(
            capsys, "gen-gadget", "x13-hyper", files("one.x13", ONE_CLAUSE)
        )
        assert code == 0
        hg = parse_hypergraph(out)
        assert hg.n == 12 and hg.m == 7

    def test_gen_hyper_layout(self, files, capsys, tmp_path):
        side = tmp_path / "lay.txt"
        code, _, _ = run(
            capsys, "gen-gadget", "x13-hyper", files("one.x13", ONE_CLAUSE),
            "--layout", str(side),
        )
        assert code == 0
        lines = side.read_text().splitlines()
        assert lines[0] == "layout x13-hyper"
        assert "var 0 first=0" in lines[3]

    def test_gen_slice(self, files, capsys):
        code, out, _ = run(
            capsys, "gen-gadget", "slice", files("t.x13", TRIPLED)
        )
        assert code == 0
        assert out.splitlines()[0] == "# slice targets: g=25 h=63"
        g = parse_graph(out)
        assert g.n == 28 and g.m == 81

    def test_gen_slice_layout(self, files, capsys, tmp_path):
        side = tmp_path / "lay.txt"
        code, out, _ = run(
            capsys, "gen-gadget", "slice", files("u.x13", UNSAT4),
            "--layout", str(side),
        )
        assert code == 0
        variable = " ".join(
            f"{3 * t}-{3 * t + 2} {3 * t + 1}-{3 * t + 3} {3 * t + 2}-{3 * t + 3}"
            for t in range(12)
        )
        clause = " ".join(
            f"{a + 9 * ci}-{b + 9 * ci}"
            for ci in range(4)
            for a, b in [
                (1, 4), (1, 5), (1, 7), (1, 8), (2, 4), (2, 5), (2, 7), (2, 8),
                (4, 7), (4, 8), (5, 7), (5, 8),
            ]
        )
        external = (
            "1-10 1-19 2-11 2-20 4-13 4-28 5-14 5-29 7-22 7-31 8-23 8-32 "
            "10-19 11-20 13-28 14-29 16-25 16-34 17-26 17-35 22-31 23-32 "
            "25-34 26-35"
        )
        assert side.read_text() == (
            f"layout slice\ngadgets 12\nvariable {variable}\n"
            f"clause {clause}\nexternal {external}\n"
        )
        edges = [
            tuple(map(int, e.split("-")))
            for e in f"{variable} {clause} {external}".split()
        ]
        assert out == "# slice targets: g=33 h=84\n" + serialize_graph(
            new_graph(37, edges)
        )

    def test_gen_clique(self, files, capsys, tmp_path):
        side = tmp_path / "lay.txt"
        code, out, _ = run(
            capsys, "gen-gadget", "clique", files("p.mcg", PAIR_MCG),
            "--layout", str(side),
        )
        assert code == 0
        assert parse_graph(out).n == 25
        assert side.read_text().splitlines()[0] == "layout clique"


class TestVerify:
    def test_hyper_yes(self, files, capsys):
        code, out, _ = run(
            capsys, "verify-gadget", "x13-hyper", files("one.x13", ONE_CLAUSE)
        )
        assert code == 0
        assert out == "AGREE: YES\n"

    def test_hyper_no(self, files, capsys):
        code, out, _ = run(
            capsys, "verify-gadget", "x13-hyper", files("u.x13", UNSAT4)
        )
        assert code == 0
        assert out == "AGREE: NO\n"

    def test_slice_yes(self, files, capsys):
        code, out, _ = run(
            capsys, "verify-gadget", "slice", files("t.x13", TRIPLED)
        )
        assert code == 0
        assert out == "AGREE: YES\n"

    def test_clique_yes(self, files, capsys):
        code, out, _ = run(
            capsys, "verify-gadget", "clique", files("p.mcg", PAIR_MCG)
        )
        assert code == 0
        assert out == "AGREE: YES\n"


class TestErrors:
    def test_parse_error_exit_2(self, files, capsys):
        code, _, err = run(capsys, "is-core", files("bad.og", BAD))
        assert code == 2
        assert "line 2" in err

    def test_header_count_mismatch_names_the_line(self, files, capsys):
        code, out, err = run(capsys, "core", files("short.og", "og 3 2\n0 1\n"))
        assert code == 2
        assert out == ""
        assert err == "error: line 1: header says 2 edges, found 1\n"

    def test_input_errors_are_the_package_error_classes(self):
        # every module is loaded in this process, so all six classes appear
        assert set(cli._input_errors()) == {
            FormatError, GraphError, RetractionError, GadgetError,
            HypergraphError, TwoSatError,
        }

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "is-core", "/nonexistent/x.og")
        assert code == 2
        assert "error:" in err

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bin.og"
        p.write_bytes(b"og 2 1\n0 \xff\n")
        code, _, err = run(capsys, "is-core", str(p))
        assert code == 2
        assert "not UTF-8" in err

    def test_internal_value_error_is_not_bad_input(self, files, capsys, monkeypatch):
        def broken(g, k):
            raise ValueError("internal failure")

        monkeypatch.setattr(cores, "decide_core_with_k_vertices", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main(["core-k", files("m.og", MC4), "--k", "2"])

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_round_trip_through_cli_output(self, files, capsys):
        g = mc(6).graph
        code, out, _ = run(capsys, "gen-matching", "--i", "6")
        assert code == 0
        assert out == serialize_graph(g)
