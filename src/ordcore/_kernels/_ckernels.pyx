# cython: boundscheck=False, wraparound=False, nonecheck=False, cdivision=True
# Compiled twin of _pykernels.find_hyperhom: the same algorithm over C arrays
# and 64-bit masks.  The dispatcher only routes instances with at most 64
# vertices here, so all per-depth state lives in fixed stack arrays.

from libc.stdlib cimport malloc, free
from libc.stdint cimport uint64_t

cdef bint _contains(const uint64_t* arr, Py_ssize_t n, uint64_t key) noexcept nogil:
    cdef Py_ssize_t lo = 0, hi = n - 1, mid
    while lo <= hi:
        mid = (lo + hi) >> 1
        if arr[mid] == key:
            return True
        if arr[mid] < key:
            lo = mid + 1
        else:
            hi = mid - 1
    return False


def find_hyperhom(int n_g, object edges_g, int n_h, object edge_masks_h,
                  object fixed=None, bint forbid_identity=False,
                  object allowed=None):
    cdef int f[64]
    cdef int cand[64]
    cdef int fx[64]
    cdef bint idp[64]
    cdef bint active[64]
    cdef Py_ssize_t n_e = len(edges_g)
    cdef Py_ssize_t n_full, n_subs, j, r, pos, tot
    cdef int i, t, lo, nxt, last, eid
    cdef bint ok, placed, restrict
    cdef uint64_t bit, nm, allow_mask, s, mask

    if n_g < 1 or n_g > 64 or n_h < 1 or n_h > 64:
        raise ValueError("compiled kernel handles 1..64 vertices")

    restrict = allowed is not None and allowed >= 0
    allow_mask = <uint64_t> allowed if restrict else 0

    for i in range(n_g):
        fx[i] = -1 if fixed is None else <int> fixed[i]
        active[i] = False

    # flattened per-vertex membership tables
    tot = 0
    for e in edges_g:
        tot += len(e)
    cdef int* voff = <int*> malloc((n_g + 1) * sizeof(int))
    cdef int* vedge = <int*> malloc(max(tot, 1) * sizeof(int))
    cdef int* vpred = <int*> malloc(max(tot, 1) * sizeof(int))
    cdef bint* vlast = <bint*> malloc(max(tot, 1) * sizeof(bint))
    cdef uint64_t* pmask = <uint64_t*> malloc(max(n_e, 1) * sizeof(uint64_t))
    cdef uint64_t* full_arr = NULL
    cdef uint64_t* subs_arr = NULL
    if voff == NULL or vedge == NULL or vpred == NULL or vlast == NULL or pmask == NULL:
        free(voff); free(vedge); free(vpred); free(vlast); free(pmask)
        raise MemoryError()
    try:
        counts = [0] * n_g
        members = []
        for e in edges_g:
            mem = sorted(e)
            members.append(mem)
            for v in mem:
                counts[v] += 1
        voff[0] = 0
        for i in range(n_g):
            voff[i + 1] = voff[i] + counts[i]
        fill = [0] * n_g
        for eid in range(n_e):
            mem = members[eid]
            pmask[eid] = 0
            for r in range(len(mem)):
                v = mem[r]
                pos = voff[v] + fill[v]
                fill[v] += 1
                vedge[pos] = eid
                vpred[pos] = mem[r - 1] if r > 0 else -1
                vlast[pos] = r == len(mem) - 1

        full_list = sorted(set(int(x) for x in edge_masks_h))
        subs_set = set()
        for x in full_list:
            s = <uint64_t> x
            mask = s
            while True:
                subs_set.add(s)
                if s == 0:
                    break
                s = (s - 1) & mask
        subs_list = sorted(subs_set)
        n_full = len(full_list)
        n_subs = len(subs_list)
        full_arr = <uint64_t*> malloc(max(n_full, 1) * sizeof(uint64_t))
        subs_arr = <uint64_t*> malloc(max(n_subs, 1) * sizeof(uint64_t))
        if full_arr == NULL or subs_arr == NULL:
            raise MemoryError()
        for j in range(n_full):
            full_arr[j] = <uint64_t> full_list[j]
        for j in range(n_subs):
            subs_arr[j] = <uint64_t> subs_list[j]

        last = n_g - 1
        cand[0] = fx[0] if fx[0] >= 0 else 0
        i = 0
        while i >= 0:
            if active[i]:
                bit = <uint64_t> 1 << f[i]
                for pos in range(voff[i], voff[i + 1]):
                    pmask[vedge[pos]] ^= bit
                active[i] = False
            lo = f[i - 1] if i > 0 else 0
            t = cand[i]
            placed = False
            while lo <= t < n_h:
                nxt = lo - 1 if fx[i] >= 0 else t + 1
                cand[i] = nxt
                ok = (not restrict) or (allow_mask >> t) & 1
                if ok and forbid_identity and i == last and t == i:
                    ok = not (i == 0 or idp[i - 1])
                if ok:
                    bit = <uint64_t> 1 << t
                    for pos in range(voff[i], voff[i + 1]):
                        if vpred[pos] >= 0 and f[vpred[pos]] >= t:
                            ok = False
                            break
                        nm = pmask[vedge[pos]] | bit
                        if vlast[pos]:
                            if not _contains(full_arr, n_full, nm):
                                ok = False
                                break
                        elif not _contains(subs_arr, n_subs, nm):
                            ok = False
                            break
                if ok:
                    f[i] = t
                    idp[i] = (i == 0 or idp[i - 1]) and t == i
                    bit = <uint64_t> 1 << t
                    for pos in range(voff[i], voff[i + 1]):
                        pmask[vedge[pos]] |= bit
                    active[i] = True
                    placed = True
                    break
                t = nxt
            if not placed:
                i -= 1
                continue
            if i == last:
                return [f[j] for j in range(n_g)]
            i += 1
            cand[i] = fx[i] if fx[i] >= 0 else f[i - 1]
        return None
    finally:
        free(voff)
        free(vedge)
        free(vpred)
        free(vlast)
        free(pmask)
        free(full_arr)
        free(subs_arr)
