import os
import subprocess
import sys
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordcore import _kernels
from ordcore._kernels import _pykernels
from ordcore import (
    find_ordered_homomorphism,
    is_ordered_homomorphism,
    MonotoneMap,
    new_graph,
    path_graph,
)

import oracles

try:
    from ordcore._kernels import _ckernels as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(compiled is None, reason="compiled kernels not built")


def adj_masks(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


@st.composite
def mask_graph(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return n, adj_masks(n, edges)


@st.composite
def hom_case(draw):
    n_g, adj_g = draw(mask_graph())
    n_h, adj_h = draw(mask_graph())
    fixed = None
    if draw(st.booleans()):
        fixed = [
            draw(st.integers(0, n_h - 1)) if draw(st.booleans()) else -1
            for _ in range(n_g)
        ]
        # keep pins monotone so the case is not trivially unsatisfiable
        best = 0
        for i in range(n_g):
            if fixed[i] >= 0:
                if fixed[i] < best:
                    fixed[i] = best
                best = fixed[i]
    forbid = draw(st.booleans()) and n_g == n_h
    min_image = draw(st.integers(0, 4))
    descending = draw(st.booleans())
    return n_g, adj_g, n_h, adj_h, fixed, forbid, min_image, descending


@st.composite
def hyperhom_case(draw):
    n = draw(st.integers(3, 7))
    pool = list(combinations(range(n), 3))
    edges_g = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=6))
    edges_h = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=6))
    masks_h = [sum(1 << v for v in e) for e in edges_h]
    fixed = None
    if draw(st.booleans()):
        fixed = [i if draw(st.booleans()) else -1 for i in range(n)]
    forbid = draw(st.booleans())
    allowed = None
    if draw(st.booleans()):
        keep = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
        allowed = sum(1 << v for v in keep)
    return n, edges_g, masks_h, fixed, forbid, allowed


class TestFindHomOracle:
    def test_exhaustive_small(self):
        # every pair of graphs on at most 4 vertices, under every combination
        # of a pin, forbid_identity, an image bound and descending
        graphs = [
            (n, adj_masks(n, edges)) for n in range(1, 5) for edges in oracles.all_graphs(n)
        ]
        options = list(product((False, True), (False, True), (0, 3), (False, True)))
        for (n_g, adj_g), (n_h, adj_h) in product(graphs, graphs):
            for pin, forbid, min_image, descending in options:
                fixed = None
                if pin:
                    fixed = [-1] * n_g
                    fixed[n_g // 2] = n_h // 2
                args = (n_g, adj_g, n_h, adj_h, fixed, forbid, min_image, descending)
                assert _pykernels.find_hom(*args) == oracles.find_hom_masks(*args), args

    @settings(max_examples=200, deadline=None)
    @given(hom_case())
    def test_random(self, case):
        assert _pykernels.find_hom(*case) == oracles.find_hom_masks(*case)

    def test_large_sparse_identity(self):
        g = path_graph(2000)
        assert find_ordered_homomorphism(g, g) == MonotoneMap(tuple(range(2000)))


class TestBackendParity:
    @needs_compiled
    @settings(max_examples=400, deadline=None)
    @given(hyperhom_case())
    def test_find_hyperhom_identical(self, case):
        n, edges_g, masks_h, fixed, forbid, allowed = case
        pure = _pykernels.find_hyperhom(
            n, edges_g, n, masks_h, fixed, forbid,
            -1 if allowed is None else allowed,
        )
        fast = compiled.find_hyperhom(
            n, edges_g, n, masks_h, fixed, forbid, allowed
        )
        assert pure == fast


class TestDispatch:
    def test_backend_reports(self):
        assert _kernels.backend() in ("compiled", "pure")

    def test_large_graph_uses_pure_path(self):
        # 65 vertices exceeds any 64-bit mask budget; the dispatcher must
        # run the pure kernel and still return a correct map
        g = path_graph(65)
        res = _kernels.find_hom(g.n, g.adj, g.n, g.adj)
        assert res == list(range(65))
        direct = _pykernels.find_hom(g.n, g.adj, g.n, g.adj)
        assert res == direct

    def test_results_validate_as_homomorphisms(self):
        g = new_graph(6, [(0, 3), (1, 4), (2, 5), (0, 5)])
        res = _kernels.find_hom(g.n, g.adj, g.n, g.adj, forbid_identity=True)
        if res is not None:
            assert is_ordered_homomorphism(g, g, MonotoneMap(tuple(res)))
            assert tuple(res) != tuple(range(6))

    def test_pure_env_forces_pure(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "import ordcore._kernels as k; print(k.backend())"],
            capture_output=True, text=True,
            env={**os.environ, "ORDCORE_PURE": "1"},
        )
        assert out.stdout.strip() == "pure"

    @needs_compiled
    def test_default_env_prefers_compiled(self):
        # the parent environment keeps PYTHONPATH, so an uninstalled
        # checkout imports the same package as this process
        env = {k: v for k, v in os.environ.items() if k != "ORDCORE_PURE"}
        out = subprocess.run(
            [sys.executable, "-c",
             "import ordcore._kernels as k; print(k.backend())"],
            capture_output=True, text=True, env=env,
        )
        assert out.stdout.strip() == "compiled"
