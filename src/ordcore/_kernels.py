"""Backtracking search kernels over bitmask adjacency, in pure Python.

Masks are plain Python ints, so there is no size limit and no build step.
Both kernels assign vertices in index order and try the candidates of a
vertex in ascending order (descending for `find_hom(descending=True)`), so
the first map they return is the lexicographically first one (last,
descending).

Both do forward checking over bitmask domains (Haralick and Elliott 1980):
dom[j] holds the targets vertex j may still take, and placing a vertex
narrows the domains of the later vertices it constrains instead of testing
each candidate against the vertices placed before it.  In `find_hom`, dom[j]
is the pin of j intersected with adj_h[f(u)] for every assigned neighbour
u < j.  In `find_hyperhom` a hyperedge's members must land, in order, on the
strictly increasing bits of one target mask.  A table built once per call
maps each prefix P of a target mask (its lowest q bits) to one row: for each
rank s >= q, the OR of the s-th lowest bit over every target mask that
starts with P.  Placing a member at t looks up its hyperedge's image so far
plus t: a missing prefix rejects t, and otherwise the row narrows the
domain of each later member of the hyperedge.  The last member must
complete a target mask.

On top of the domains, hi[j] is the largest value of j from which some
non-decreasing choice from dom[j], dom[j+1], .. exists.  A candidate t for
vertex i is rejected when a domain empties or when hi[i+1] < t, because then
no monotone map extends the partial one.  hi is updated incrementally: from
the last narrowed vertex leftwards, stopping at the first entry at or left
of the first narrowed vertex that does not change.  Every narrowing is
undone from a per-vertex copy of the touched slice on backtrack.

These rules only drop partial maps without a completion and leave the
candidate order alone, so each search returns the same first map as plain
backtracking, only after fewer nodes.
"""

from __future__ import annotations

from typing import Sequence


def backend() -> str:
    """The kernel implementation in use; there is only the pure Python one."""
    return "pure"


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


def _lower_hi(dom: list[int], hi: list[int], i: int, t: int, first: int, end: int) -> int:
    """Update hi[end-1] down to hi[i+1] after vertex i took t and the domains
    of first..end-1 narrowed.  Returns a value below t when no monotone
    completion is left.  hi left of first moves only if hi[first] does."""
    b = hi[end]
    k = end - 1
    while k > i:
        b = _top(dom[k], b)
        if b < t or (b == hi[k] and k <= first):
            break
        hi[k] = b
        k -= 1
    return b


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
                    b = _lower_hi(dom, hi, i, t, nbrs[0], end)
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
    allowed: int | None = None,
) -> list[int] | None:
    """Lex-first monotone map [n_g] -> [n_h] under which every hyperedge of
    G lands, injectively, on a hyperedge mask from edge_masks_h, or None.

    fixed[i] >= 0 pins vertex i to that target.  allowed, a bitmask,
    restricts the targets of every vertex.  forbid_identity rejects the
    identity map.
    """
    targets = set(edge_masks_h)
    members = [sorted(e) for e in edges_g]
    width = max([len(e) for e in members] + [m.bit_count() for m in targets], default=0)
    table: dict[int, list[int]] = {}  # prefix -> OR of the bit of each later rank
    for mask in targets:
        bits = []
        while mask:
            lsb = mask & -mask
            bits.append(lsb)
            mask ^= lsb
        p = 0
        for q, b in enumerate(bits):
            row = table.setdefault(p, [0] * (width - q))
            for s in range(q, len(bits)):
                row[s - q] |= bits[s]
            p |= b

    base = (1 << n_h) - 1
    if allowed is not None:
        base &= allowed
    if fixed is None:
        fixed = (-1,) * n_g
    dom = [base if fixed[j] < 0 else (1 << fixed[j]) & base for j in range(n_g)]
    closes: list[list[int]] = [[] for _ in range(n_g)]  # hyperedges i completes
    opens: list[list[tuple[int, list[int]]]] = [[] for _ in range(n_g)]  # (hyperedge, members after i)
    root = table.get(0, [0] * width)
    for eid, mem in enumerate(members):
        for r, v in enumerate(mem):
            dom[v] &= root[r]
            if r == len(mem) - 1:
                closes[v].append(eid)
            else:
                opens[v].append((eid, mem[r + 1 :]))
    later = [sorted({j for _, tail in opens[i] for j in tail}) for i in range(n_g)]
    hi = [0] * n_g + [n_h - 1]  # hi[n_g] bounds nothing
    for j in range(n_g - 1, -1, -1):
        hi[j] = _top(dom[j], hi[j + 1])

    pmask = [0] * len(members)  # image of the placed members of each hyperedge
    f = [0] * n_g
    idp = [False] * n_g  # f[0..i] is the identity
    rem = [0] * n_g  # untried candidates of vertex i, shifted down by f[i-1]
    saved: list[tuple[list[int], list[int]] | None] = [None] * n_g
    last = n_g - 1

    rem[0] = _window(dom[0], 0, hi[0])
    i = 0
    while i >= 0:
        kept = saved[i]
        if kept is not None:  # undo the last placement of i
            end = later[i][-1] + 1
            dom[i + 1 : end], hi[i + 1 : end] = kept
            saved[i] = None
            bit = 1 << f[i]
            for eid, _ in opens[i]:
                pmask[eid] ^= bit
        m = rem[i]
        lo = f[i - 1] if i else 0
        placed = False
        while m:
            lsb = m & -m
            m ^= lsb
            t = lo + lsb.bit_length() - 1
            if forbid_identity and i == last and t == i and (i == 0 or idp[i - 1]):
                continue
            bit = 1 << t
            for eid in closes[i]:
                if pmask[eid] | bit not in targets:
                    break
            else:
                nbrs = later[i]
                if nbrs:
                    end = nbrs[-1] + 1
                    kept = (dom[i + 1 : end], hi[i + 1 : end])
                    b = -1  # stays below t if a prefix is missing or a domain empties
                    for eid, tail in opens[i]:
                        row = table.get(pmask[eid] | bit)
                        if row is None:
                            break
                        for j, col in zip(tail, row):
                            d = dom[j] & col
                            if not d:
                                break
                            dom[j] = d
                        else:
                            continue
                        break
                    else:
                        b = _lower_hi(dom, hi, i, t, nbrs[0], end)
                    if b < t:
                        dom[i + 1 : end], hi[i + 1 : end] = kept
                        continue
                    saved[i] = kept
                    for eid, _ in opens[i]:
                        pmask[eid] |= bit
                f[i] = t
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
