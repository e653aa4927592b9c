"""Plain-text formats for graphs, hypergraphs, formulas and partitioned
graphs.

Every format is line based.  Blank lines and lines starting with '#' are
skipped.  The first meaningful line is a header naming the format and the
sizes; the remaining lines carry one object each.

    og <n> <m>        then m lines  <u> <v>
    ohg <n> <m> <k>   then m lines of k vertex indices
    x13 <v> <c>       then c lines of 3 variable indices
    mcg <k> <l>       then lines  <part_u> <idx_u> <part_v> <idx_v>  to EOF
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .graphs import GraphError, OrderedGraph, new_graph

if TYPE_CHECKING:
    from .gadgets import PartitionedGraph, X13Formula
    from .hypergraphs import OrderedHypergraph


class FormatError(ValueError):
    pass


def _lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((no, line.split()))
    return out


def _ints(no: int, parts: list[str], count: int, what: str) -> list[int]:
    if len(parts) != count:
        raise FormatError(f"line {no}: expected {count} fields for {what}, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise FormatError(f"line {no}: non-integer field in {what}") from None


def _header(
    lines: list[tuple[int, list[str]]], tag: str, sizes: int, items: str | None = None
) -> tuple[list[int], list[tuple[int, list[str]]]]:
    """The header's sizes and the lines after it.  With `items`, the second
    size counts those lines, and a mismatch names the header's line."""
    if not lines:
        raise FormatError("empty input")
    no, parts = lines[0]
    if parts[0] != tag:
        raise FormatError(f"line {no}: expected '{tag}' header, got '{parts[0]}'")
    vals = _ints(no, parts[1:], sizes, f"{tag} header")
    body = lines[1:]
    if items is not None and len(body) != vals[1]:
        raise FormatError(f"line {no}: header says {vals[1]} {items}, found {len(body)}")
    return vals, body


def parse_graph(text: str) -> OrderedGraph:
    (n, _), body = _header(_lines(text), "og", 2, "edges")
    edges = []
    for no, parts in body:
        u, v = _ints(no, parts, 2, "edge")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {no}: endpoint outside 0..{n - 1}")
        if u == v:
            raise FormatError(f"line {no}: loop at {u}")
        edges.append((u, v))
    try:
        return new_graph(n, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def serialize_graph(g: OrderedGraph) -> str:
    lines = [f"og {g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> OrderedHypergraph:
    from .hypergraphs import HypergraphError, new_hypergraph

    (n, _, k), body = _header(_lines(text), "ohg", 3, "hyperedges")
    edges = []
    for no, parts in body:
        e = tuple(_ints(no, parts, k, "hyperedge"))
        if any(not 0 <= v < n for v in e):
            raise FormatError(f"line {no}: vertex outside 0..{n - 1}")
        if len(set(e)) != k:
            raise FormatError(f"line {no}: repeated vertex in hyperedge")
        edges.append(e)
    try:
        return new_hypergraph(n, k, edges)
    except HypergraphError as exc:
        raise FormatError(str(exc)) from exc


def serialize_hypergraph(h: OrderedHypergraph) -> str:
    lines = [f"ohg {h.n} {h.m} {h.k}"]
    lines += [" ".join(map(str, e)) for e in h.edge_list()]
    return "\n".join(lines) + "\n"


def parse_x13(text: str) -> X13Formula:
    from .gadgets import X13Formula

    (v, _), body = _header(_lines(text), "x13", 2, "clauses")
    clauses = []
    for no, parts in body:
        a, b, d = _ints(no, parts, 3, "clause")
        if any(not 0 <= x < v for x in (a, b, d)):
            raise FormatError(f"line {no}: variable outside 0..{v - 1}")
        if len({a, b, d}) != 3:
            raise FormatError(f"line {no}: clause variables must be distinct")
        clauses.append((a, b, d))
    try:
        return X13Formula(v, tuple(clauses))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def serialize_x13(phi: X13Formula) -> str:
    lines = [f"x13 {phi.var_count} {len(phi.clauses)}"]
    lines += [f"{a} {b} {c}" for a, b, c in phi.clauses]
    return "\n".join(lines) + "\n"


def parse_partitioned(text: str) -> PartitionedGraph:
    from .gadgets import new_partitioned

    (k, l), body = _header(_lines(text), "mcg", 2)
    edges = []
    for no, parts in body:
        pu, iu, pv, iv = _ints(no, parts, 4, "edge")
        for p, i in ((pu, iu), (pv, iv)):
            if not (0 <= p < k and 0 <= i < l):
                raise FormatError(f"line {no}: vertex ({p}, {i}) out of range")
        if pu == pv:
            raise FormatError(f"line {no}: edge inside part {pu}")
        edges.append(((pu, iu), (pv, iv)))
    try:
        return new_partitioned(k, l, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def serialize_partitioned(f: PartitionedGraph) -> str:
    lines = [f"mcg {f.k} {f.l}"]
    lines += [
        f"{pu} {iu} {pv} {iv}" for (pu, iu), (pv, iv) in sorted(f.edges)
    ]
    return "\n".join(lines) + "\n"
