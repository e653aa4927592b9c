"""Time the search kernels on full-exhaustion proofs.

Every workload must prove that no map exists (the script fails otherwise),
so each run searches its whole pruned tree.  The graph cases time
`find_hom` and the hypergraph case times `find_hyperhom`.  Each case is
repeated until it has consumed a small time budget and the fastest
repetition is kept.

Run from the repository root:

    python3 benchmarks/bench_kernels.py
"""

import time

from ordcore import X13Formula, clique_gadget, hypergraph_gadget, mc, new_partitioned
from ordcore import _kernels
from ordcore.hypergraphs import _masks


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
    def search():
        return _kernels.find_hom(
            g.n, g.adj, g.n, g.adj, forbid_identity=True, min_image=min_image
        )

    return name, search


def hyper_case(name, hg):
    edges = hg.edge_list()
    masks = _masks(edges)

    def search():
        return _kernels.find_hyperhom(hg.n, edges, hg.n, masks, forbid_identity=True)

    return name, search


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
    width = max(len(name) for name, _ in cases)
    header = f"{'workload':<{width}}  {'time':>10}"
    print(header)
    print("-" * len(header))
    for name, search in cases:
        t, _ = best_of(search)
        print(f"{name:<{width}}  {t * 1000:>8.1f}ms")


if __name__ == "__main__":
    main()
