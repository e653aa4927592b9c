"""Time the search kernels on full-exhaustion proofs.

Every workload must prove that no map exists (the script fails otherwise),
so each run searches its whole pruned tree.  The graph cases time
`find_hom`, which has only the pure Python kernel; the hypergraph case
times `find_hyperhom` on the pure kernel and, when the extension is built,
on the compiled one.  Each case is repeated until it has consumed a small
time budget and the fastest repetition is kept.

Run from the repository root:

    python3 benchmarks/bench_kernels.py
"""

import time

from ordcore import X13Formula, clique_gadget, hypergraph_gadget, mc, new_partitioned
from ordcore._kernels import _pykernels
from ordcore.hypergraphs import _masks

try:
    from ordcore._kernels import _ckernels
except ImportError:
    _ckernels = None


def best_of(fn, budget=2.0, cap=25):
    reps = []
    deadline = time.perf_counter() + budget
    while len(reps) < cap and (not reps or time.perf_counter() < deadline):
        t0 = time.perf_counter()
        out = fn()
        reps.append(time.perf_counter() - t0)
        if out is not None:
            raise AssertionError("workload was supposed to prove non-existence")
    return min(reps), len(reps)


def graph_case(name, g, min_image=0):
    def pure():
        return _pykernels.find_hom(
            g.n, g.adj, g.n, g.adj, forbid_identity=True, min_image=min_image
        )

    return name, pure, None


def hyper_case(name, hg):
    edges = hg.edge_list()
    masks = _masks(edges)

    def pure():
        return _pykernels.find_hyperhom(
            hg.n, edges, hg.n, masks, forbid_identity=True, allowed=-1
        )

    def compiled():
        return _ckernels.find_hyperhom(hg.n, edges, hg.n, masks, None, True, None)

    return name, pure, compiled if _ckernels is not None else None


def main():
    cases = [
        graph_case("mc(6) image-bound sweep, n=12", mc(6).graph, min_image=3),
        graph_case("mc(7) image-bound sweep, n=14", mc(7).graph, min_image=3),
        graph_case("mc(8) image-bound sweep, n=16", mc(8).graph, min_image=3),
        graph_case(
            "clique gadget core proof, n=25",
            clique_gadget(new_partitioned(2, 4, frozenset()))[0],
            min_image=0,
        ),
        hyper_case(
            "hypergraph gadget core proof, n=25",
            hypergraph_gadget(
                X13Formula(5, ((0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4))), k=4
            )[0],
        ),
    ]
    if _ckernels is None:
        print("compiled kernels unavailable; timing the pure backend only")
    width = max(len(name) for name, _, _ in cases)
    header = f"{'workload':<{width}}  {'pure':>10}  {'compiled':>10}"
    print(header)
    print("-" * len(header))
    for name, pure, compiled in cases:
        tp, _ = best_of(pure)
        tc = f"{best_of(compiled)[0] * 1000:>8.1f}ms" if compiled is not None else f"{'-':>10}"
        print(f"{name:<{width}}  {tp * 1000:>8.1f}ms  {tc}")


if __name__ == "__main__":
    main()
