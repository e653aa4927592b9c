"""Pure Python backtracking kernels over bitmask adjacency.

Adjacency masks are plain Python ints, so there is no size limit.  Both
kernels assign vertices in index order and try the candidates of a vertex in
ascending order (descending for `find_hom(descending=True)`), so the first
map they return is the lexicographically first one (last, descending).

`find_hom` is the only implementation of the graph search.  It does forward
checking over bitmask domains (Haralick and Elliott 1980): dom[j] holds the
targets vertex j may still take, that is its pin intersected with adj_h[f(u)]
for every assigned neighbour u < j, so placing a vertex narrows the domains
of its later neighbours instead of testing the back edges of each candidate.
On top of that, hi[j] is the largest value of j from which some
non-decreasing choice from dom[j], dom[j+1], .. exists.  A candidate t for
vertex i is rejected when a domain empties or when hi[i+1] < t, because then
no monotone map extends the partial one.  hi is updated incrementally: from
the last later neighbour of i leftwards, stopping at the first entry at or
left of the first later neighbour that does not change.  Every narrowing is
undone from a per-vertex copy of the touched slice on backtrack.

Both rules only drop partial maps without a completion and leave the
candidate order alone, so the search returns the same first map as plain
backtracking, only after fewer nodes.  `find_hyperhom` has a compiled twin
in `_ckernels`.
"""

from __future__ import annotations

from typing import Sequence


def _top(d: int, b: int) -> int:
    """The highest set bit of d that is at most b, or -1."""
    h = d.bit_length() - 1
    return h if h <= b else (d & ~(-1 << (b + 1))).bit_length() - 1


def _window(d: int, lo: int, up: int) -> int:
    """The bits of d in lo..up, shifted down by lo."""
    if up < lo:
        return 0
    m = d >> lo
    return m & ((2 << (up - lo)) - 1) if m >> (up - lo + 1) else m


def find_hom(
    n_g: int,
    adj_g: Sequence[int],
    n_h: int,
    adj_h: Sequence[int],
    fixed: Sequence[int] | None = None,
    forbid_identity: bool = False,
    min_image: int = 0,
    descending: bool = False,
) -> list[int] | None:
    """Lex-first monotone edge-preserving map [n_g] -> [n_h], or None.

    fixed[i] >= 0 pins vertex i to that target.  forbid_identity rejects the
    identity map (the only monotone surjection when n_g == n_h).  min_image
    requires at least that many distinct target values.  descending flips the
    candidate order, yielding the lexicographically largest map instead.
    """
    if fixed is None:
        fixed = (-1,) * n_g
    full = (1 << n_h) - 1
    dom = [full if fixed[j] < 0 else (1 << fixed[j]) & full for j in range(n_g)]
    later: list[list[int]] = []  # the neighbours j > i of each vertex i, ascending
    for i in range(n_g):
        nbrs = []
        m = adj_g[i] >> (i + 1)
        while m:
            lsb = m & -m
            nbrs.append(i + lsb.bit_length())
            m ^= lsb
        later.append(nbrs)
    hi = [0] * n_g + [n_h - 1]  # hi[n_g] bounds nothing
    for j in range(n_g - 1, -1, -1):
        hi[j] = _top(dom[j], hi[j + 1])

    f = [0] * n_g
    dist = [0] * n_g  # distinct values among f[0..i]
    idp = [False] * n_g  # f[0..i] is the identity
    rem = [0] * n_g  # untried candidates of vertex i, shifted down by f[i-1]
    saved: list[tuple[list[int], list[int]] | None] = [None] * n_g
    last = n_g - 1

    rem[0] = _window(dom[0], 0, hi[0])
    i = 0
    while i >= 0:
        kept = saved[i]
        if kept is not None:  # undo the narrowing done by the last placement
            end = later[i][-1] + 1
            dom[i + 1 : end], hi[i + 1 : end] = kept
            saved[i] = None
        m = rem[i]
        lo = f[i - 1] if i else 0
        placed = False
        while m:
            if descending:
                z = m.bit_length() - 1
                m ^= 1 << z
            else:
                lsb = m & -m
                z = lsb.bit_length() - 1
                m ^= lsb
            t = lo + z
            nd = 1 if i == 0 else dist[i - 1] + (t > f[i - 1])
            if nd + last - i < min_image:
                continue
            if forbid_identity and i == last and t == i and (i == 0 or idp[i - 1]):
                continue
            nbrs = later[i]
            if nbrs:
                end = nbrs[-1] + 1
                kept = (dom[i + 1 : end], hi[i + 1 : end])
                ah = adj_h[t]
                b = -1  # stays below t if a domain empties
                for j in nbrs:
                    d = dom[j] & ah
                    if not d:
                        break
                    dom[j] = d
                else:
                    # hi left of nbrs[0] moves only if hi[nbrs[0]] does
                    b = hi[end]
                    k = end - 1
                    while k > i:
                        b = _top(dom[k], b)
                        if b < t or (b == hi[k] and k <= nbrs[0]):
                            break
                        hi[k] = b
                        k -= 1
                if b < t:
                    dom[i + 1 : end], hi[i + 1 : end] = kept
                    continue
                saved[i] = kept
            f[i] = t
            dist[i] = nd
            idp[i] = (i == 0 or idp[i - 1]) and t == i
            placed = True
            break
        rem[i] = m
        if not placed:
            i -= 1
            continue
        if i == last:
            return list(f)
        i += 1
        rem[i] = _window(dom[i], f[i - 1], hi[i])
    return None


def find_hyperhom(
    n_g: int,
    edges_g: Sequence[Sequence[int]],
    n_h: int,
    edge_masks_h: Sequence[int],
    fixed: Sequence[int] | None = None,
    forbid_identity: bool = False,
    allowed: int = -1,
) -> list[int] | None:
    """Lex-first monotone map under which every hyperedge of G lands,
    injectively, on a hyperedge mask from edge_masks_h.  Returns None when no
    such map exists.

    allowed, when non-negative, is a bitmask restricting the permitted target
    vertices.  Monotonicity plus per-hyperedge injectivity is enforced as a
    strict increase along each hyperedge's sorted members; partial hyperedge
    images are pruned unless they extend to some target mask.
    """
    if fixed is None:
        fixed = (-1,) * n_g
    full = set(edge_masks_h)
    subs = set()
    for mask in full:
        # all submasks of mask, for prefix feasibility
        s = mask
        while True:
            subs.add(s)
            if s == 0:
                break
            s = (s - 1) & mask

    e_members = [tuple(sorted(e)) for e in edges_g]
    edges_of: list[list[int]] = [[] for _ in range(n_g)]
    pred_of: list[list[int]] = [[] for _ in range(n_g)]
    is_last = [[] for _ in range(n_g)]
    for eid, mem in enumerate(e_members):
        for r, v in enumerate(mem):
            edges_of[v].append(eid)
            if r > 0:
                pred_of[v].append(mem[r - 1])
            is_last[v].append(r == len(mem) - 1)

    pmask = [0] * len(e_members)
    f = [0] * n_g
    idp = [False] * n_g
    cand = [0] * n_g
    active = [False] * n_g
    last = n_g - 1

    cand[0] = fixed[0] if fixed[0] >= 0 else 0
    i = 0
    while i >= 0:
        if active[i]:
            bit = 1 << f[i]
            for eid in edges_of[i]:
                pmask[eid] ^= bit
            active[i] = False
        lo = f[i - 1] if i > 0 else 0
        t = cand[i]
        placed = False
        while lo <= t < n_h:
            nxt = lo - 1 if fixed[i] >= 0 else t + 1
            cand[i] = nxt
            ok = allowed < 0 or (allowed >> t) & 1
            if ok and forbid_identity and i == last and t == i:
                ok = not (i == 0 or idp[i - 1])
            if ok:
                for p in pred_of[i]:
                    if f[p] >= t:
                        ok = False
                        break
            if ok:
                bit = 1 << t
                for eid, fin in zip(edges_of[i], is_last[i]):
                    nm = pmask[eid] | bit
                    if nm not in (full if fin else subs):
                        ok = False
                        break
            if ok:
                f[i] = t
                idp[i] = (i == 0 or idp[i - 1]) and t == i
                bit = 1 << t
                for eid in edges_of[i]:
                    pmask[eid] |= bit
                active[i] = True
                placed = True
                break
            t = nxt
        if not placed:
            i -= 1
            continue
        if i == last:
            return list(f)
        i += 1
        cand[i] = fixed[i] if fixed[i] >= 0 else f[i - 1]
    return None
