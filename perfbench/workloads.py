"""Seeded instance mixes for the four benchmark workloads, with the
correctness gate for every timed call.

Every instance carries the verdict it must produce, known from its
construction or from an independent check made here, outside any timed
region.  `Instance.run` is the timed call; `Instance.check` validates its
output against the definitional checks and returns a failure reason, or
None when the output is correct.  The program under test only ever sees the
generated inputs, never the seed.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path
from typing import Any, Callable

from ordcore import cli, cores, formats, gadgets, graphs, hypergraphs, matchings, retraction

@dataclass
class Instance:
    kind: str
    size: int
    expected: bool  # True when the call must produce a witness / positive verdict
    run: Callable[[], Any]
    check: Callable[[Any], str | None]

    @property
    def signature(self) -> tuple[str, int, bool]:
        return self.kind, self.size, self.expected


# --------------------------------------------------------------------------
# definitional checks
# --------------------------------------------------------------------------


def retraction_error(g, x, f) -> str | None:
    """None when f is an ordered homomorphism g -> g[x] fixing x pointwise."""
    xs = set(x)
    if len(f) != g.n:
        return f"map length {len(f)} != {g.n}"
    if any(f(v) != v for v in xs):
        return "map does not fix X"
    if not set(f.image) <= xs:
        return "map leaves X"
    if not graphs.is_ordered_homomorphism(g, g, f):
        return "map is not an ordered homomorphism"
    return None


def _image_edges(g, f) -> set[tuple[int, int]]:
    return {(min(f(u), f(v)), max(f(u), f(v))) for u, v in g.edges}


def interleave(many: list, few: list) -> list:
    """`many` in order, with the items of `few` spread evenly between them.

    The host's speed drifts within a pass, so each kind of instance is
    timed all through the pass rather than in one stretch of it; otherwise
    the median, which rests on one kind, would sample fewer moments of the
    run than the throughput does."""
    out: list = []
    j = 0
    for i, item in enumerate(many, 1):
        out.append(item)
        while j < len(few) and i * (len(few) + 1) >= (j + 1) * len(many):
            out.append(few[j])
            j += 1
    return out + few[j:]


# --------------------------------------------------------------------------
# retract-sweep: subset enumeration over the 2-SAT retraction test
# --------------------------------------------------------------------------

SWEEP_DENSITIES = (0.3, 0.5, 0.7)
UNSAT_SLICE_FORMULA = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def random_graph(rng: random.Random, n: int, p: float):
    return graphs.new_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _core_k_instance(g) -> Instance:
    k = g.n - 1
    expected = not cores.is_core(g)

    def check(out) -> str | None:
        if out is None:
            return None if not expected else "no retract found on a non-core"
        if not expected:
            return "retract found on a core"
        x, r = out
        if len(x) > k:
            return f"witness keeps {len(x)} > {k} vertices"
        return retraction_error(g, x, r)

    return Instance("core-k", g.n, expected, lambda: cores.decide_core_with_k_vertices(g, k), check)


def _slice_instance(phi) -> Instance:
    g, tgt, _ = gadgets.slice_gadget(phi)
    expected = gadgets.brute_force_x13(phi) is not None

    def check(out) -> str | None:
        if out is None:
            return None if not expected else "no slice found for a satisfiable formula"
        if not expected:
            return "slice found for an unsatisfiable formula"
        x, h_edges, r = out
        if len(x) != tgt.g or len(h_edges) != tgt.h:
            return f"slice sizes {len(x)}, {len(h_edges)} != targets {tgt.g}, {tgt.h}"
        xs = set(x)
        if any(u not in xs or v not in xs or not g.has_edge(u, v) for u, v in h_edges):
            return "slice edges are not edges of g[X]"
        if not _image_edges(g, r) <= set(h_edges):
            return "slice misses an image edge"
        return retraction_error(g, x, r)

    return Instance("slice", g.n, expected, lambda: cores.solve_slice(g, tgt), check)


def retract_sweep(rng: random.Random, tiny: bool) -> list[Instance]:
    """Budget core search on random graphs at n=7..9, a fixed number of cores
    and non-cores per order, with slice gadgets spread among them: seeded
    satisfiable 3-clause ones and, halfway through, the fixed
    unsatisfiable 4-clause one."""
    orders, quota, slices = ((5, 6), 2, 1) if tiny else ((7, 8, 9), 40, 8)
    out: list[Instance] = []
    for n in orders:
        found: dict[bool, list] = {True: [], False: []}
        attempt = 0
        while len(found[True]) < quota or len(found[False]) < quota:
            g = random_graph(rng, n, SWEEP_DENSITIES[attempt % len(SWEEP_DENSITIES)])
            attempt += 1
            core = cores.is_core(g)
            if len(found[core]) < quota:
                found[core].append(g)
        for pair in zip(found[True], found[False]):
            out += [_core_k_instance(g) for g in pair]
    perms = list(permutations((0, 1, 2)))
    seen: set[tuple] = set()
    sliced: list[Instance] = []
    while len(seen) < slices:
        clauses = tuple(rng.choice(perms) for _ in range(3))
        if clauses not in seen:
            seen.add(clauses)
            sliced.append(_slice_instance(gadgets.X13Formula(3, clauses)))
    if not tiny:
        sliced.insert(slices // 2, _slice_instance(gadgets.X13Formula(4, UNSAT_SLICE_FORMULA)))
    return interleave(out, sliced)


# --------------------------------------------------------------------------
# gadget-verify: reduction round trips, as verify-gadget runs them
# --------------------------------------------------------------------------

# The formula and the empty clique instance are the two full-exhaustion
# proofs of benchmarks/bench_kernels.py; mc(6..8) below carry its
# image-bound sweeps.  Each must prove non-existence.
UNSAT_HYPER_FORMULA = ((0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4))


def _clique_instance(f) -> Instance:
    expected = gadgets.brute_force_multicolored_clique(f) is not None

    def run():
        oracle = gadgets.brute_force_multicolored_clique(f)
        g, lay = gadgets.clique_gadget(f)
        verdict = cores.decide_core_chi(g)
        choice = None
        if isinstance(verdict, cores.CoreHasChiVertices):
            choice = gadgets.extract_clique(lay, verdict.retraction)
            if not f.is_multicolored_clique(choice):
                choice = None
        return oracle, g, lay, verdict, choice

    def check(out) -> str | None:
        oracle, g, lay, verdict, choice = out
        if (oracle is not None) != expected:
            return "oracle verdict changed"
        if not expected:
            if not isinstance(verdict, cores.InstanceIsCore):
                return f"no clique but verdict {type(verdict).__name__}"
            return None  # the kernel proved that no non-identity endomorphism exists
        if not isinstance(verdict, cores.CoreHasChiVertices):
            return f"clique exists but verdict {type(verdict).__name__}"
        if verdict.chi != 4 * f.k + 1 or len(verdict.vertices) != verdict.chi:
            return "core size differs from chi"
        err = retraction_error(g, verdict.vertices, verdict.retraction)
        if err:
            return err
        if choice is None or not f.is_multicolored_clique(choice):
            return "extracted choice is not a multicolored clique"
        return None

    return Instance("clique", 2 * f.k + 1 + 2 * f.k * (f.l + f.k - 1), expected, run, check)


def _hyper_instance(phi, k: int) -> Instance:
    expected = gadgets.brute_force_x13(phi) is not None

    def run():
        oracle = gadgets.brute_force_x13(phi)
        h, lay = gadgets.hypergraph_gadget(phi, k=k)
        w = hypergraphs.find_nonsurjective_hyper_endomorphism(h)
        got = None
        if w is not None:
            got = gadgets.extract_assignment(lay, w)
            if not phi.is_one_in_three(got):
                got = None
        return oracle, h, w, got

    def check(out) -> str | None:
        oracle, h, w, got = out
        if (oracle is not None) != expected:
            return "oracle verdict changed"
        if (w is not None) != expected:
            return f"solver says {w is not None}, oracle says {expected}"
        if w is None:
            return None
        if w.is_identity() or not hypergraphs.is_ordered_hyperhom(h, h, w):
            return "witness is not a non-surjective endomorphism"
        if got is None or not phi.is_one_in_three(got):
            return "extracted assignment fails the formula"
        return None

    return Instance(f"x13-hyper-k{k}", (k + 1) * phi.var_count, expected, run, check)


def _collapsible_instance(i: int) -> Instance:
    def run():
        return matchings.is_edge_collapsible(matchings.mc(i).graph)

    return Instance(
        "collapsible", 2 * i, True, run,
        lambda out: None if out is True else f"mc({i}) reported not edge-collapsible",
    )


def random_satisfiable_formula(rng: random.Random, v: int, c: int):
    """A connected 1-in-3 formula with a satisfying assignment."""
    while True:
        phi = gadgets.X13Formula(v, tuple(tuple(rng.sample(range(v), 3)) for _ in range(c)))
        if phi.is_connected() and gadgets.brute_force_x13(phi) is not None:
            return phi


def gadget_verify(rng: random.Random, tiny: bool) -> list[Instance]:
    """Clique gadgets (k=2, l=4): the empty one, and single seeded edges
    from part-0 vertex a to a random part-1 vertex b.  a sets the search
    time: about 0.3 s at a=0 and a=2 whatever b is, 0.17-0.24 s at a=1
    depending on b, a few ms at a=3, and 0.45 s for the empty gadget.  The
    ten a=0 and a=2 gadgets lie between nine cheaper instances and two
    dearer ones, so the median latency falls inside their cluster for
    every seed, and no edge choice the seed makes moves an instance across
    it.  Then x13-hyper gadgets at
    k=3 and k=4 on seeded satisfiable formulas plus the fixed
    unsatisfiable one, and edge-collapsibility of mc(6..8), spread among
    the clique gadgets."""
    heads, shapes, ks, mcs = (
        (((1, 1),), ((4, 2),), (3,), (6,)) if tiny else
        (((0, 5), (2, 5), (3, 1)), ((7, 5), (8, 6)), (3, 4), (6, 7, 8))
    )
    clique = [_clique_instance(gadgets.new_partitioned(2, 4, ()))]
    for a, reps in heads:
        for _ in range(reps):
            edge = ((0, a), (1, rng.randrange(4)))
            clique.append(_clique_instance(gadgets.new_partitioned(2, 4, [edge])))
    rest: list[Instance] = []
    for k in ks:
        for v, c in shapes:
            rest.append(_hyper_instance(random_satisfiable_formula(rng, v, c), k))
        rest.append(_hyper_instance(gadgets.X13Formula(5, UNSAT_HYPER_FORMULA), k))
    rest += [_collapsible_instance(i) for i in mcs]
    return interleave(clique, rest)


# --------------------------------------------------------------------------
# retract-large: parsing plus the full encoder and 2-SAT path at scale
# --------------------------------------------------------------------------


def planted_retract(rng: random.Random, n: int, h: int, degree: float):
    """A graph on n vertices with h anchors X and a planted retraction onto
    g[X]: each non-anchor goes to a flanking anchor, monotonically, and every
    edge lands on an edge of g[X]."""
    anchors = sorted(rng.sample(range(n), h))
    r = list(range(n))
    for v in range(anchors[0]):
        r[v] = anchors[0]
    for v in range(anchors[-1] + 1, n):
        r[v] = anchors[-1]
    for a, b in zip(anchors, anchors[1:]):
        cut = rng.randint(a + 1, b)
        for v in range(a + 1, b):
            r[v] = a if v < cut else b
    preimage: dict[int, list[int]] = {a: [] for a in anchors}
    for v in range(n):
        preimage[r[v]].append(v)
    anchor_edges: set[tuple[int, int]] = set()
    while len(anchor_edges) < 2 * h:
        a, b = rng.sample(anchors, 2)
        anchor_edges.add((min(a, b), max(a, b)))
    nbrs: dict[int, list[int]] = {a: [] for a in anchors}
    for a, b in sorted(anchor_edges):
        nbrs[a].append(b)
        nbrs[b].append(a)
    edges = set(anchor_edges)
    while len(edges) < degree * n:
        u = rng.randrange(n)
        if nbrs[r[u]]:
            v = rng.choice(preimage[rng.choice(nbrs[r[u]])])
            edges.add((min(u, v), max(u, v)))
    return graphs.new_graph(n, edges), tuple(anchors)


def _large_instance(g, x) -> Instance:
    text = formats.serialize_graph(g)

    def run():
        parsed = formats.parse_graph(text)
        return parsed, retraction.decide_retraction(parsed, x)

    def check(out) -> str | None:
        parsed, f = out
        if parsed != g:
            return "parsed graph differs from the serialized one"
        if f is None:
            return "no retraction found on a planted instance"
        return retraction_error(g, x, f)

    return Instance("retract", g.n, True, run, check)


def retract_large(rng: random.Random, tiny: bool) -> list[Instance]:
    """Planted instances at every n from 1000 to 3000 in steps of 100, so
    the median and the tail each rest on a run of neighbouring sizes rather
    than on one seeded instance."""
    sizes = (100, 200) if tiny else range(1000, 3001, 100)
    return [_large_instance(*planted_retract(rng, n, n // 10, 2.5)) for n in sizes]


# --------------------------------------------------------------------------
# cli: one process per command, as a user runs them
# --------------------------------------------------------------------------


def _map_line(f) -> str:
    return "map: " + " ".join(f"f({i})={t}" for i, t in enumerate(f.image))


@dataclass
class CliCall:
    argv: list[str]
    code: int
    stdout: str


def _noncore_with_chi_core(rng: random.Random):
    """A non-core on 8 vertices whose core has chi vertices, so that
    core-chi answers CORE-CHI, and which has a proper slice."""
    while True:
        g = random_graph(rng, 8, 0.4)
        if g.m and not cores.is_core(g):
            res = cores.compute_core(g)
            chi, _ = graphs.interval_chromatic_number(g)
            h = len(_image_edges(g, res.retraction))
            if h < g.m and res.core.n == chi:
                return g, res, chi, h


def _graph_calls(name: str, g, res, chi: int, h: int) -> list[CliCall]:
    """The graph commands of the README on one non-core graph file."""
    emb, r = res.embedding, res.retraction
    rr = retraction.decide_retraction(g, emb)
    if retraction_error(g, emb, r) or rr is None or retraction_error(g, emb, rr):
        raise AssertionError("core witness of the CLI input fails its check")
    w = cores.find_nonsurjective_endomorphism(g)
    if w is None or w.is_identity() or not graphs.is_ordered_homomorphism(g, g, w):
        raise AssertionError("non-core witness of the CLI input fails its check")
    x, rk = cores.decide_core_with_k_vertices(g, g.n - 1)
    if retraction_error(g, x, rk):
        raise AssertionError("core-k witness of the CLI input fails its check")
    sx, sh, sr = cores.solve_slice(g, cores.SliceTargets(len(emb), h))
    if len(sx) != len(emb) or len(sh) != h or retraction_error(g, sx, sr):
        raise AssertionError("slice witness of the CLI input fails its check")
    return [
        CliCall(["retract", name, "--keep", ",".join(map(str, emb))], 0, _map_line(rr) + "\n"),
        CliCall(
            ["core", name], 0,
            f"# core on vertices {','.join(map(str, emb))} of {name}\n"
            + formats.serialize_graph(res.core) + _map_line(r) + "\n",
        ),
        CliCall(["is-core", name], 1, f"NOT CORE\n{_map_line(w)}\n"),
        CliCall(
            ["core-k", name, "--k", str(g.n - 1)], 0,
            f"keep: {' '.join(map(str, x))}\n{_map_line(rk)}\n",
        ),
        CliCall(
            ["core-chi", name], 0, f"CORE-CHI chi={chi}\nkeep: {' '.join(map(str, emb))}\n{_map_line(r)}\n"
        ),
        CliCall(
            ["slice", name, "--g", str(len(emb)), "--h", str(h)], 0,
            f"keep: {' '.join(map(str, sx))}\nedges: {' '.join(f'{u}-{v}' for u, v in sorted(sh))}\n"
            f"{_map_line(sr)}\n",
        ),
    ]


def cli_calls(rng: random.Random, workdir: Path) -> list[CliCall]:
    """The README example commands on small seeded files written to workdir.

    The six graph commands run on each of two non-cores, `is-core` once more
    on a core, and the generator and verify commands once each.  The graph
    commands cost about the same, so they hold the median; the three others
    cost about 20 ms more and stay above it.

    Expected output comes from the library, each witness validated against
    the definitional checks first, so a wrong answer cannot become the
    expectation.
    """
    noncores = [_noncore_with_chi_core(rng) for _ in range(2)]
    while True:
        c = random_graph(rng, 6, 0.6)
        if cores.is_core(c):
            break
    perms = list(permutations((0, 1, 2)))
    slice_phi = gadgets.X13Formula(3, tuple(rng.choice(perms) for _ in range(3)))
    hyper_phi = random_satisfiable_formula(rng, 6, 4)
    i = rng.randint(5, 8)
    files = {
        "g1.og": formats.serialize_graph(noncores[0][0]),
        "g2.og": formats.serialize_graph(noncores[1][0]),
        "c.og": formats.serialize_graph(c),
        "s.x13": formats.serialize_x13(slice_phi),
        "h.x13": formats.serialize_x13(hyper_phi),
    }
    for name, text in files.items():
        (workdir / name).write_text(text)

    calls = _graph_calls("g1.og", *noncores[0]) + _graph_calls("g2.og", *noncores[1])
    calls.append(CliCall(["is-core", "c.og"], 0, "CORE\n"))
    calls.append(CliCall(
        ["gen-matching", "--i", str(i)], 0, formats.serialize_graph(matchings.mc(i).graph)
    ))
    sg, tgt, _ = gadgets.slice_gadget(slice_phi)
    calls.append(CliCall(
        ["gen-gadget", "slice", "s.x13"], 0,
        f"# slice targets: g={tgt.g} h={tgt.h}\n" + formats.serialize_graph(sg),
    ))
    calls.append(CliCall(["verify-gadget", "x13-hyper", "h.x13"], 0, "AGREE: YES\n"))
    return calls


def run_process(argv: list[str], cwd: Path, env: dict[str, str]) -> tuple[int, str, int]:
    """Run argv to completion; (exit code, stdout with stderr merged, max RSS in KiB)."""
    p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        out = p.stdout.read()
    finally:
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.decode(errors="replace"), usage.ru_maxrss


def cli_process_instances(calls: list[CliCall], workdir: Path, env: dict[str, str]) -> list[Instance]:
    def make(call: CliCall) -> Instance:
        argv = [sys.executable, "-m", "ordcore.cli", *call.argv]

        def check(out) -> str | None:
            code, stdout, _ = out
            if code != call.code:
                return f"{call.argv[0]}: exit {code}, expected {call.code}"
            if stdout != call.stdout:
                return f"{call.argv[0]}: unexpected output"
            return None

        return Instance(f"cli:{call.argv[0]}", 0, call.code == 0, lambda: run_process(argv, workdir, env), check)

    return [make(c) for c in calls]


def cli_inprocess_instances(calls: list[CliCall], workdir: Path) -> list[Instance]:
    """The same commands through cli.main in this process, for the traced
    layer split of a CLI call past interpreter start and import."""

    def make(call: CliCall) -> Instance:
        def run():
            buf = io.StringIO()
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(call.argv))
            finally:
                os.chdir(cwd)
            return code, buf.getvalue()

        def check(out) -> str | None:
            code, stdout = out
            if code != call.code or stdout != call.stdout:
                return f"{call.argv[0]}: exit {code} or output differs in process"
            return None

        return Instance(f"cli-main:{call.argv[0]}", 0, call.code == 0, run, check)

    return [make(c) for c in calls]


GENERATORS = {
    "retract-sweep": retract_sweep,
    "gadget-verify": gadget_verify,
    "retract-large": retract_large,
}
