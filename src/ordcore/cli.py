"""Command-line surface.

Exit codes: 0 for YES answers (witness printed), 1 for NO answers, 2 for
usage or parse errors.  Witness maps are printed as a single line
`map: f(0)=.. f(1)=..` so golden tests can diff them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cores, formats, gadgets, matchings, retraction
from .graphs import GraphError, MonotoneMap, OrderedGraph
from .hypergraphs import HypergraphError
from .twosat import TwoSatError

# the package's own errors, all raised on bad input; anything else is a bug
_INPUT_ERRORS = (
    formats.FormatError,
    GraphError,
    retraction.RetractionError,
    gadgets.GadgetError,
    HypergraphError,
    TwoSatError,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise formats.FormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise formats.FormatError(f"cannot read {path}: not UTF-8 text") from exc


def _map_line(f: MonotoneMap) -> str:
    return "map: " + " ".join(f"f({i})={f(i)}" for i in range(len(f.image)))


def _parse_vertices(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in raw.split(",") if p != "")
    except ValueError:
        raise formats.FormatError(f"bad vertex list '{raw}'") from None


def _dimacs(enc: retraction.RetractionEncoding | retraction.EarlyUnsat) -> str:
    if isinstance(enc, retraction.EarlyUnsat):
        u, v = enc.edge
        return (
            f"c encoder stopped: edge ({u}, {v}) {enc.reason}\n"
            "p cnf 0 1\n0\n"
        )
    inst = enc.instance
    lines = [f"p cnf {inst.var_count} {len(inst.clauses)}"]
    for (va, ba), (vb, bb) in inst.clauses:
        la = va + 1 if ba else -(va + 1)
        lb = vb + 1 if bb else -(vb + 1)
        lines.append(f"{la} {lb} 0")
    return "\n".join(lines) + "\n"


def _cmd_retract(args: argparse.Namespace) -> int:
    g = formats.parse_graph(_read(args.graph))
    keep = _parse_vertices(args.keep)
    if args.emit_cnf:
        enc = retraction.encode(g, keep)
        Path(args.emit_cnf).write_text(_dimacs(enc))
    r = retraction.decide_retraction(g, keep)
    if r is None:
        print("NONE")
        return 1
    print(_map_line(r))
    return 0


def _cmd_core(args: argparse.Namespace) -> int:
    g = formats.parse_graph(_read(args.graph))
    res = cores.compute_core(g)
    print(f"# core on vertices {','.join(map(str, res.embedding))} of {args.graph}")
    sys.stdout.write(formats.serialize_graph(res.core))
    print(_map_line(res.retraction))
    return 0


def _cmd_is_core(args: argparse.Namespace) -> int:
    g = formats.parse_graph(_read(args.graph))
    w = cores.find_nonsurjective_endomorphism(g)
    if w is None:
        print("CORE")
        return 0
    print("NOT CORE")
    print(_map_line(w))
    return 1


def _cmd_core_k(args: argparse.Namespace) -> int:
    g = formats.parse_graph(_read(args.graph))
    res = cores.decide_core_with_k_vertices(g, args.k)
    if res is None:
        print("NONE")
        return 1
    x, r = res
    print(f"keep: {' '.join(map(str, x))}")
    print(_map_line(r))
    return 0


def _cmd_core_chi(args: argparse.Namespace) -> int:
    g = formats.parse_graph(_read(args.graph))
    verdict = cores.decide_core_chi(g)
    if isinstance(verdict, cores.CoreHasChiVertices):
        print(f"CORE-CHI chi={verdict.chi}")
        print(f"keep: {' '.join(map(str, verdict.vertices))}")
        print(_map_line(verdict.retraction))
        return 0
    if isinstance(verdict, cores.InstanceIsCore):
        print(f"IS-CORE chi={verdict.chi}")
    else:
        print(f"NEITHER chi={verdict.chi} core={verdict.core_size}")
    return 1


def _print_subgraph(
    res: tuple[tuple[int, ...], frozenset[tuple[int, int]], MonotoneMap] | None,
) -> int:
    if res is None:
        print("NONE")
        return 1
    x, edges, r = res
    print(f"keep: {' '.join(map(str, x))}")
    print(f"edges: {' '.join(f'{u}-{v}' for u, v in sorted(edges))}")
    print(_map_line(r))
    return 0


def _cmd_slice(args: argparse.Namespace) -> int:
    g = formats.parse_graph(_read(args.graph))
    res = cores.solve_slice(
        g, cores.SliceTargets(args.g, args.h), strict_hom=args.strict_hom
    )
    return _print_subgraph(res)


def _cmd_sub(args: argparse.Namespace) -> int:
    g = formats.parse_graph(_read(args.graph))
    dt = cores.DoubleTuple(_parse_vertices(args.t), _parse_vertices(args.u))
    return _print_subgraph(cores.solve_sub(g, dt))


def _cmd_gen_matching(args: argparse.Namespace) -> int:
    m = matchings.mc(args.i)
    sys.stdout.write(formats.serialize_graph(m.graph))
    return 0


def _layout_text(kind: str, lay) -> str:
    lines = [f"layout {kind}"]
    if kind == "x13-hyper":
        lines.append(f"var_count {lay.var_count}")
        lines.append(f"k {lay.k}")
        for x in range(lay.var_count):
            pads = ",".join(map(str, lay.padding(x))) or "-"
            lines.append(
                f"var {x} first={lay.first(x)} padding={pads} "
                f"second={lay.second(x)} third={lay.third(x)} fourth={lay.fourth(x)}"
            )
    elif kind == "slice":
        lines.append(f"gadgets {lay.gadget_count}")
        for name, fam in (
            ("variable", lay.variable_edges),
            ("clause", lay.clause_edges),
            ("external", lay.external_edges),
        ):
            body = " ".join(f"{u}-{v}" for u, v in sorted(fam))
            lines.append(f"{name} {body}")
    else:
        lines.append(f"k {lay.k}")
        lines.append(f"l {lay.l}")
        lines.append(f"p {' '.join(map(str, lay.p))}")
        for i in range(lay.k):
            lines.append(f"d {i} {' '.join(map(str, lay.d_blocks[i]))}")
            lines.append(f"c {i} {' '.join(map(str, lay.c_blocks[i]))}")
            lines.append(f"b {i} {' '.join(map(str, lay.b_blocks[i]))}")
        for name, fam in (
            ("path", lay.path_edges),
            ("complete", lay.complete_edges),
            ("original", lay.original_edges),
            ("collapsible", lay.collapsible_edges),
        ):
            body = " ".join(f"{u}-{v}" for u, v in sorted(fam))
            lines.append(f"{name} {body}")
    return "\n".join(lines) + "\n"


def _cmd_gen_gadget(args: argparse.Namespace) -> int:
    if args.kind == "x13-hyper":
        phi = formats.parse_x13(_read(args.instance))
        h, lay = gadgets.hypergraph_gadget(phi, k=args.k)
        sys.stdout.write(formats.serialize_hypergraph(h))
    elif args.kind == "slice":
        phi = formats.parse_x13(_read(args.instance))
        g, tgt, lay = gadgets.slice_gadget(phi)
        print(f"# slice targets: g={tgt.g} h={tgt.h}")
        sys.stdout.write(formats.serialize_graph(g))
    else:
        f = formats.parse_partitioned(_read(args.instance))
        g, lay = gadgets.clique_gadget(f)
        sys.stdout.write(formats.serialize_graph(g))
    if args.layout:
        Path(args.layout).write_text(_layout_text(args.kind, lay))
    return 0


def _cmd_verify_gadget(args: argparse.Namespace) -> int:
    if args.kind == "x13-hyper":
        phi = formats.parse_x13(_read(args.instance))
        expected = gadgets.brute_force_x13(phi)
        h, lay = gadgets.hypergraph_gadget(phi, k=args.k)
        from .hypergraphs import find_nonsurjective_hyper_endomorphism

        w = find_nonsurjective_hyper_endomorphism(h)
        got = None
        if w is not None:
            got = gadgets.extract_assignment(lay, w)
            if not phi.is_one_in_three(got):
                print("DISAGREE: extracted assignment fails the formula")
                return 1
    elif args.kind == "slice":
        phi = formats.parse_x13(_read(args.instance))
        expected = gadgets.brute_force_x13(phi)
        g, tgt, lay = gadgets.slice_gadget(phi)
        got = cores.solve_slice(g, tgt)
    else:
        f = formats.parse_partitioned(_read(args.instance))
        expected = gadgets.brute_force_multicolored_clique(f)
        g, lay = gadgets.clique_gadget(f)
        verdict = cores.decide_core_chi(g)
        got = None
        if isinstance(verdict, cores.CoreHasChiVertices):
            got = gadgets.extract_clique(lay, verdict.retraction)
            if not f.is_multicolored_clique(got):
                print("DISAGREE: extracted clique is not multicolored")
                return 1
    if (expected is None) != (got is None):
        print(
            f"DISAGREE: oracle says {'NO' if expected is None else 'YES'}, "
            f"gadget says {'NO' if got is None else 'YES'}"
        )
        return 1
    print(f"AGREE: {'NO' if expected is None else 'YES'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ordcore",
        description="Exact solvers and reduction generators for ordered graphs.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("retract", help="decide a retraction onto kept vertices")
    p.add_argument("graph")
    p.add_argument("--keep", required=True, help="comma-separated vertices")
    p.add_argument("--emit-cnf", metavar="PATH", help="dump the encoding in DIMACS")
    p.set_defaults(fn=_cmd_retract)

    p = sub.add_parser("core", help="compute the core")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_core)

    p = sub.add_parser("is-core", help="test whether the graph is a core")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_is_core)

    p = sub.add_parser("core-k", help="find a retract on at most k vertices")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_core_k)

    p = sub.add_parser(
        "core-chi", help="test whether the core size equals the interval chromatic number"
    )
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_core_chi)

    p = sub.add_parser("slice", help="find an image subgraph with g vertices, h edges")
    p.add_argument("graph")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--strict-hom", action="store_true")
    p.set_defaults(fn=_cmd_slice)

    p = sub.add_parser("sub", help="image subgraph over vertex/edge deficit lists")
    p.add_argument("graph")
    p.add_argument("--t", required=True, help="comma-separated vertex deficits")
    p.add_argument("--u", required=True, help="comma-separated edge deficits")
    p.set_defaults(fn=_cmd_sub)

    p = sub.add_parser("gen-matching", help="emit the i-edge collapsible matching")
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(fn=_cmd_gen_matching)

    for name, fn in (("gen-gadget", _cmd_gen_gadget), ("verify-gadget", _cmd_verify_gadget)):
        p = sub.add_parser(
            name,
            help=(
                "emit a reduction instance"
                if name == "gen-gadget"
                else "cross-check a reduction against brute force"
            ),
        )
        p.add_argument("kind", choices=("x13-hyper", "slice", "clique"))
        p.add_argument("instance")
        p.add_argument("--k", type=int, default=3, help="hypergraph uniformity")
        if name == "gen-gadget":
            p.add_argument("--layout", metavar="PATH", help="write block positions")
        p.set_defaults(fn=fn)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
