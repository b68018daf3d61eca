"""Differential tests: whole-array kernels against the loops they replaced.

The oracles below are the earlier row-by-row implementations, kept here
only: the join/meet table built one row at a time, the closure step as a
numpy boolean matrix product, the singleton-column walk that tests one
itertools.product column per call, and the hand-written join-extension
loops that SupLattice.join_extend replaced (the powerset quantale's bit
loops, the search's two-loop full table, the low-bit per-mask table of
hom enumeration and direct images, and the action module's bit loops),
and the hand-written "join over t of a product" loops that
SupLattice.join_products replaced (the matrix product fold, the
completion's cell-by-cell dot products, the module's row-by-row inner
product, the s/t double loop of hom_from_relation, and the basis sums of
reconstruct and parseval_check), and the hand-written searches that
laws.lex_solutions replaced (the blockwise product walk and the pruned
backtracking walk over singleton columns, the recursive order-isomorphism
search, and the recursive walks over equivariant maps and module homs).
SupLattice.join_witness is compared with the whole cubic violation array,
and classify's table of rungs (quantale.BUILDS_ON) with the hand-written
cascade it replaced.  module_from_qset's whole-row closure, action table
and rows, and validate_prehilbert's degeneracy scan, are compared with the
bytes-keyed worklist and seen-dict scan they replaced, and its tables
built on generators with the dense construction they replaced (the
order from all coordinates, one action lookup per scalar, every inner
product from its definition), and the whole-array
hilbert_sections and local_sections with their per-section loops (the
fold behind local_sections_generated included).
Each kernel must give the same tables, the same order of results and the
same lex-first witnesses.
"""

import importlib
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlab import hilbert as hb
from qlab import groupoid, laws, lattice, objio, qmatrix
from qlab.catalog import catalog_entries, catalog_get, egger8, powerset_quantale, relq
from qlab.groupoid import _enumerate_homs, _equivariant_maps, module_from_action, sheafify
from qlab.lattice import (NotALattice, NotAPoset, SupLattice, _bound_table, chain_lattice,
                          powerset_lattice, relation_product)
from qlab.hilbert import (hilbert_sections, hom_from_relation, module_from_qset,
                          parseval_check, reconstruct, section_relation)
from qlab.laws import first_bad, lex_blocks, lex_solutions
from qlab.qmatrix import (QMatrix, QSet, _columns, completion, mat_mul, random_qset,
                          singletons)
from qlab.quantale import (NotAQuantale, Quantale, _gelfand_witnesses, classify,
                           lattice_order_isos, modular_law, partial_units, support,
                           validate_quantale)

from test_golden import QSET, QSET3

search_mod = importlib.import_module("qlab.search")    # qlab.search is also a function

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------- oracles

def bound_table_rows(leq: np.ndarray, upper: bool) -> np.ndarray:
    """Row by row: the candidate is the common bound with the largest up-set."""
    rel = leq if upper else leq.T
    n = rel.shape[0]
    sizes = rel.sum(axis=1)
    table = np.empty((n, n), dtype=np.intp)
    for i in range(n):
        bounds = rel[i] & rel  # bounds[j, k]: k bounds both i and j
        scores = np.where(bounds, sizes, -1)
        cand = np.argmax(scores, axis=1)
        bad = ~bounds[np.arange(n), cand] | (bounds & ~rel[cand]).any(axis=1)
        if bad.any():
            j = int(np.argmax(bad))
            raise NotALattice("join" if upper else "meet", (i, j))
        table[i] = cand
    return table


def transitivity_witness(leq: np.ndarray):
    gaps = (leq @ leq) & ~leq
    if not gaps.any():
        return None
    i, k = map(int, np.argwhere(gaps)[0])
    return (i, int(np.argmax(leq[i] & leq[:, k])), k)


def closure(step: np.ndarray) -> np.ndarray:
    leq = step
    while True:
        nxt = leq @ leq
        if (nxt == leq).all():
            return leq
        leq = nxt


def column_ok(Q, A, col) -> bool:
    s = np.asarray(col, dtype=np.intp)
    if not Q.leq[Q.mul[A, s[None, :]], s[:, None]].all():  # a_ab s_b <= s_a
        return False
    return bool(Q.leq[Q.mul[s[:, None], Q.inv[s][None, :]], A].all())  # s_a s_b* <= a_ab


def columns_one_at_a_time(Q, A):
    for col in itertools.product(range(Q.n), repeat=A.shape[0]):
        if column_ok(Q, A, col):
            yield col


def columns_product(Q, A, lookups=1 << 16):
    """The product walk: tabulate each pair's admissible values, test blocks of columns."""
    k, n = A.shape[0], Q.n
    leq, mul, inv = Q.leq, Q.mul, Q.inv
    a_idx, b_idx = (x.ravel() for x in np.indices((k, k)))
    entry = A[a_idx, b_idx]
    ar = np.arange(n, dtype=np.intp)
    # admits[p, u, v]: s_a = u and s_b = v satisfy both laws at pair p = (a, b)
    admits = (leq[mul[entry][:, None, :], ar[None, :, None]]
              & leq[mul[:, inv][None, :, :], entry[:, None, None]])
    values = [np.flatnonzero(admits[a * k + a].diagonal()) for a in range(k)]
    shape = tuple(len(v) for v in values)
    total = int(np.prod(shape, dtype=object))
    pairs = np.arange(k * k)
    step = max(1, lookups // (k * k))
    for start in range(0, total, step):
        digits = np.unravel_index(np.arange(start, min(start + step, total)), shape)
        cols = np.stack([values[a][d] for a, d in enumerate(digits)], axis=1)
        good = admits[pairs, cols[:, a_idx], cols[:, b_idx]].all(axis=1)
        for col in cols[good]:
            yield tuple(int(v) for v in col)


def columns_dfs(Q, A):
    """The pruned backtracking walk over column values."""
    k = A.shape[0]
    mul, inv, leq = Q.mul, Q.inv, Q.leq
    col = [0] * k

    def place(i: int):
        if i == k:
            yield tuple(col)
            return
        for v in range(Q.n):
            ok = True
            for j in range(i + 1):
                w = v if j == i else col[j]
                if (not leq[mul[A[j, i], v], w] or not leq[mul[A[i, j], w], v]
                        or not leq[mul[v, inv[w]], A[i, j]] or not leq[mul[w, inv[v]], A[j, i]]):
                    ok = False
                    break
            if ok:
                col[i] = v
                yield from place(i + 1)
        col[i] = 0

    yield from place(0)


def order_isos_recursive(src, dst):
    """The recursive order-isomorphism search, with its used-value test."""
    if src.n != dst.n:
        return []
    n = src.n
    down_src, up_src = src.leq.sum(axis=0), src.leq.sum(axis=1)
    down_dst, up_dst = dst.leq.sum(axis=0), dst.leq.sum(axis=1)
    cands = [np.flatnonzero((down_dst == down_src[i]) & (up_dst == up_src[i])) for i in range(n)]
    out = []
    perm = np.full(n, -1, dtype=np.intp)
    used = np.zeros(n, dtype=bool)

    def extend(i):
        if i == n:
            out.append(perm.copy())
            return
        for j in cands[i]:
            if used[j]:
                continue
            if all(src.leq[i, k] == dst.leq[j, perm[k]] and src.leq[k, i] == dst.leq[perm[k], j]
                   for k in range(i)):
                perm[i], used[j] = j, True
                extend(i + 1)
                perm[i], used[j] = -1, False

    extend(0)
    return out


def equivariant_maps_recursive(A1, A2):
    """The recursive walk: each (g, x, z = g.x) tested once x and z are placed."""
    n1 = A1.n_points
    cands = [np.flatnonzero(A2.p == A1.p[x]).tolist() for x in range(n1)]
    out, chosen = [], [-1] * n1
    checks = [[] for _ in range(n1)]
    for g, x in np.argwhere(A1.act >= 0).tolist():
        z = int(A1.act[g, x])
        checks[max(x, z)].append((g, x, z))

    def place(k):
        if k == n1:
            out.append(tuple(chosen))
            return
        for y in cands[k]:
            chosen[k] = y
            if all(A2.act[g, chosen[x]] == chosen[z] for g, x, z in checks[k]):
                place(k + 1)
        chosen[k] = -1

    place(0)
    return out


def enumerate_homs_recursive(A1, am1, am2, pinned):
    """The recursive hom walk from the module of action A1, on bitmask atoms, its
    candidates read from the local sections when pinned."""
    n1, na = A1.n_points, A1.groupoid.n_arrows
    atoms1 = [1 << x for x in range(n1)]
    X1, X2 = am1.module, am2.module
    if pinned:
        loc2 = hb.local_sections(am2).local
        sup1, sup2 = am1.sup, am2.sup
        cands = [[int(c) for c in loc2 if sup2[c] == sup1[atoms1[x]]] for x in range(n1)]
    else:
        cands = [list(range(X2.n))] * n1
    qatom = [1 << g for g in range(na)]
    pact1 = np.array([[X1.action[qatom[g], atoms1[x]] for x in range(n1)]
                      for g in range(na)], dtype=np.intp)
    atom_pos1 = {atoms1[x]: x for x in range(n1)}
    chosen, found = [-1] * n1, []

    def consistent(k):
        for g in range(na):
            img, tgt = X2.action[qatom[g], chosen[k]], pact1[g, k]
            if tgt == X1.carrier.bottom:
                if img != X2.carrier.bottom:
                    return False
            else:
                z = atom_pos1[int(tgt)]
                if z <= k and chosen[z] != img:
                    return False
            for x in range(k):
                if pact1[g, x] == atoms1[k] and X2.action[qatom[g], chosen[x]] != chosen[k]:
                    return False
        return True

    def place(k):
        if k == n1:
            found.append(X1.carrier.join_extend(np.asarray(chosen, dtype=np.intp), X2.carrier))
            return
        for y in cands[k]:
            chosen[k] = y
            if consistent(k):
                place(k + 1)
        chosen[k] = -1

    place(0)
    return found


def join_extend_by_definition(lat, values, target):
    """out[x] = the join in target of values[i] over J[i] <= x, one cell at a time."""
    J = lat.join_irreducibles
    out = np.empty((lat.n,) + values.shape[1:], dtype=values.dtype)
    for x in range(lat.n):
        for idx in np.ndindex(values.shape[1:]):
            out[(x,) + idx] = target.join(values[(i,) + idx]
                                          for i, j in enumerate(J) if lat.leq[j, x])
    return out


def join_extend_low_bit(values, target):
    """The per-mask table on a powerset: S joins S minus its lowest bit with that bit's value."""
    table = np.full((1 << len(values),) + values.shape[1:], target.bottom, dtype=values.dtype)
    for mask in range(1, len(table)):
        low = (mask & -mask).bit_length() - 1
        table[mask] = target.join_table[table[mask & (mask - 1)], values[low]]
    return table


def full_table_loops(lat, J, m):
    """The search's full table: rows[i] = J[i].b first, then mul[a] by joins of rows."""
    n, k = lat.n, len(J)
    jt = lat.join_table
    rows = np.full((k, n), lat.bottom, dtype=np.intp)
    for j in range(k):
        sel = lat.leq[J[j]]
        rows[:, sel] = jt[rows[:, sel], m[:, j, None]]
    mul = np.full((n, n), lat.bottom, dtype=np.intp)
    for i in range(k):
        sel = lat.leq[J[i]]
        mul[sel, :] = jt[mul[sel, :], rows[i][None, :]]
    return mul


def powerset_quantale_bits(atom_mul, atom_inv):
    """The powerset quantale's mul and inv tables, OR-ed in one atom bit at a time."""
    atom_mul = np.asarray(atom_mul, dtype=np.int64)
    k = atom_mul.shape[0]
    n = 1 << k
    masks = np.arange(n, dtype=np.int64)
    row = np.zeros((k, n), dtype=np.int64)
    for b in range(k):
        sel = (masks >> b & 1) == 1
        row[:, sel] |= atom_mul[:, b][:, None]
    mul = np.zeros((n, n), dtype=np.int64)
    inv = np.zeros(n, dtype=np.int64)
    for b in range(k):
        sel = (masks >> b & 1) == 1
        mul[sel, :] |= row[b][None, :]
        inv[sel] |= np.int64(1) << np.int64(atom_inv[b])
    return mul, inv


def action_module_bits(A):
    """Action, inner product and support tables of P(E), one point and arrow bit at a time."""
    G = A.groupoid
    ne, na = A.n_points, G.n_arrows
    nx = 1 << ne
    masks = np.arange(nx)
    lam = np.full((na, ne), -1, dtype=np.intp)
    for g in range(na):
        for y in np.flatnonzero(A.p == G.r[g]):
            lam[g, y] = A.act[G.inv[g], y]
    translate = np.zeros((na, nx), dtype=np.int64)
    for g in range(na):
        single = np.zeros(ne, dtype=np.int64)
        for y in range(ne):
            if lam[g, y] >= 0:
                single[y] = np.int64(1) << np.int64(lam[g, y])
        for y in range(ne):
            sel = (masks >> y & 1) == 1
            translate[g, sel] |= single[y]
    actX = np.zeros((1 << na, nx), dtype=np.int64)
    for g in range(na):
        sel = (np.arange(1 << na) >> g & 1) == 1
        actX[sel, :] |= translate[g][None, :]
    ip = np.zeros((nx, nx), dtype=np.int64)
    for g in range(na):
        hits = (masks[:, None] & translate[g][None, :]) != 0
        ip |= hits * (np.int64(1) << np.int64(g))
    pobj = np.zeros(nx, dtype=np.int64)
    for x in range(ne):
        sel = (masks >> x & 1) == 1
        pobj[sel] |= np.int64(1) << np.int64(G.units[A.p[x]])
    return actX, ip, pobj


def mat_mul_fold(Q, A, B):
    """The matrix product one inner index at a time: out = out OR A[:, t] B[t]."""
    out = np.full((A.shape[0], B.shape[1]), Q.bottom, dtype=np.intp)
    for t in range(A.shape[1]):
        out = Q.lattice.join_table[out, Q.mul[A[:, t][:, None], B[t][None, :]]]
    return out


def completion_hat_loops(Q, cols):
    """hat[i, j] = join_t s_i(t)* s_j(t), one Q.join per cell."""
    m = len(cols)
    hat = np.empty((m, m), dtype=np.intp)
    for i in range(m):
        for j in range(m):
            hat[i, j] = Q.join(Q.mul[Q.inv[cols[i]], cols[j]])
    return hat


def dot_products_by_row(Q, arr):
    """ip[i] = join_t arr[i, t] arr[:, t]*, row by row."""
    m, k = arr.shape
    ip = np.empty((m, m), dtype=np.intp)
    for i in range(m):
        acc = np.full(m, Q.bottom, dtype=np.intp)
        for t in range(k):
            acc = Q.lattice.join_table[acc, Q.mul[arr[i, t], Q.inv[arr[:, t]]]]
        ip[i] = acc
    return ip


def hom_from_relation_loops(mm, Y, H, secs_t):
    """phi(v) = join over s, then t, of (v_s h_ts*) . secs_t[t]."""
    Q = Y.quantale
    out = np.full(mm.module.n, Y.carrier.bottom, dtype=np.intp)
    for s in range(mm.qset.size):
        for t in range(len(secs_t)):
            scalar = Q.mul[mm.vectors[:, s], Q.inv[H[t, s]]]
            out = Y.carrier.join_table[out, Y.action[scalar, secs_t[t]]]
    return out


def reconstruct_loop(X, sigma):
    out = np.full(X.n, X.carrier.bottom, dtype=np.intp)
    for s in sigma:
        out = X.carrier.join_table[out, X.action[X.ip[:, s], s]]
    return out


def parseval_loop(X, sigma):
    acc = np.full((X.n, X.n), X.quantale.bottom, dtype=np.intp)
    for s in sigma:
        acc = X.quantale.lattice.join_table[acc, X.quantale.mul[X.ip[:, s][:, None],
                                                                X.ip[s][None, :]]]
    return acc


def module_from_qset_worklist(Q, A, cap=hb.CARRIER_CAP):
    """(vectors, action, rows) of Q^I A by the bytes-keyed worklist.

    One vector at a time: each (i, j <= i) join and each (scalar, vector)
    cell is one dict lookup.  Raises CarrierTooLarge as module_from_qset does.
    """
    A = np.asarray(A, dtype=np.intp)
    k = A.shape[0]
    jt, mul = Q.lattice.join_table, Q.mul
    vecs, index = [], {}

    def add(vec):
        key = vec.tobytes()
        if key not in index:
            index[key] = len(vecs)
            vecs.append(vec)

    add(np.ascontiguousarray(np.full(k, Q.bottom, dtype=np.intp)))
    for alpha in range(k):
        scaled = mul[:, A[alpha]]
        for q in range(Q.n):
            add(np.ascontiguousarray(scaled[q]))
    if len(vecs) > cap:
        raise hb.CarrierTooLarge(len(vecs), cap)
    i = 0
    while i < len(vecs):
        for j in range(i + 1):
            add(np.ascontiguousarray(jt[vecs[i], vecs[j]]))
            if len(vecs) > cap:
                raise hb.CarrierTooLarge(len(vecs), cap)
        i += 1

    arr = np.array(vecs, dtype=np.intp).reshape(len(vecs), k)
    act = np.empty((Q.n, len(arr)), dtype=np.intp)
    for a in range(Q.n):
        moved = mul[a][arr]
        for i in range(len(arr)):
            act[a, i] = index[np.ascontiguousarray(moved[i]).tobytes()]
    rows = np.array([index[np.ascontiguousarray(A[a]).tobytes()] for a in range(k)],
                    dtype=np.intp)
    return arr, act, rows


def degeneracy_by_seen_dict(ip):
    """(earlier, x) for the first row of ip equal to an earlier row, or None."""
    seen = {}
    for x in range(len(ip)):
        key = ip[x].tobytes()
        if key in seen:
            return (seen[key], x)
        seen[key] = x
    return None


def hilbert_sections_loop(X):
    ar = np.arange(X.n)
    return [s for s in range(X.n) if X.carrier.leq[X.action[X.ip[:, s], s], ar].all()]


def local_sections_loops(sm):
    """(sup(x AND s) s <= x for all x, sup(x) s = x for all x <= s), one s at a time."""
    X, supv = sm.module, sm.sup
    lat, act, ar = X.carrier, X.action, np.arange(X.n)
    in_local = [bool(lat.leq[act[supv[lat.meet_table[:, s]], s], ar].all()) for s in ar]
    pointwise = []
    for s in ar:
        below = np.flatnonzero(lat.leq[:, s])
        pointwise.append(bool((act[supv[below], s] == below).all()))
    return in_local, pointwise


def generated_witness_loop(lat, local, hil):
    """The first local section that is not the join of the Hilbert sections below it."""
    for s in local:
        if lat.join(t for t in hil if lat.leq[t, s]) != s:
            return (int(s),)
    return None


def classify_by_cascade(Q):
    """The ladder as classify computed it before BUILDS_ON: (flags, witnesses)."""
    witnesses = {k: w for k, w in _gelfand_witnesses(Q).items() if w is not None}
    gelfand, locally_gelfand, stably_gelfand = (
        k not in witnesses for k in ("gelfand", "locally_gelfand", "stably_gelfand"))
    unital = Q.unit is not None
    mod_w = modular_law(Q)
    modular = mod_w is None
    if not modular:
        witnesses["modular"] = mod_w
    quantal_frame, frame_w = Q.lattice.is_frame()
    if not quantal_frame:
        witnesses["quantal_frame"] = frame_w
    supported = stably_supported = stable_quantal_frame = inverse_quantal_frame = None
    if unital:
        srep = support(Q)
        supported = srep.supported
        if not supported:
            law = next(k for k in ("join_preserving", "bottom", "below_self_star", "restores")
                       if srep.laws[k] is not None)
            witnesses["supported"] = (law,) + srep.laws[law]
        stably_supported = supported and srep.stable
        if not stably_supported and supported:
            witnesses["stably_supported"] = ("stability",) + srep.laws["stability"]
        elif not supported:
            witnesses["stably_supported"] = witnesses["supported"]
        stable_quantal_frame = stably_supported and quantal_frame
        if not stable_quantal_frame:
            witnesses["stable_quantal_frame"] = witnesses.get("stably_supported",
                                                              witnesses.get("quantal_frame"))
        if stable_quantal_frame:
            pu = partial_units(Q)
            inverse_quantal_frame = pu.cover
            if not pu.cover:
                witnesses["inverse_quantal_frame"] = ("cover", pu.cover_join)
        else:
            inverse_quantal_frame = False
            witnesses["inverse_quantal_frame"] = witnesses["stable_quantal_frame"]
    else:
        witnesses["unital"] = ()
    flags = dict(unital=unital, gelfand=gelfand, locally_gelfand=locally_gelfand,
                 stably_gelfand=stably_gelfand, modular=modular, supported=supported,
                 stably_supported=stably_supported, quantal_frame=quantal_frame,
                 stable_quantal_frame=stable_quantal_frame,
                 inverse_quantal_frame=inverse_quantal_frame)
    return flags, witnesses


def outcome(build):
    try:
        return "ok", build().tolist()
    except NotALattice as exc:
        return exc.kind, exc.witness


# ------------------------------------------------------------- posets

@st.composite
def posets(draw, max_n=12):
    """A random partial order on n points, sometimes with a bottom and a top added."""
    n = draw(st.integers(1, max_n))
    density = draw(st.floats(0.0, 0.7))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    step = np.triu(rng.random((n, n)) < density, 1) | np.eye(n, dtype=bool)
    perm = rng.permutation(n)
    leq = closure(step[np.ix_(perm, perm)])
    if draw(st.booleans()):
        m = n + 2
        bounded = np.zeros((m, m), dtype=bool)
        bounded[:n, :n] = leq
        bounded[n, :] = True          # a new bottom
        bounded[:, n + 1] = True      # a new top
        leq = bounded
    return leq


@SETTINGS
@given(posets(), st.integers(1, 64), st.integers(0, 2 ** 32 - 1))
def test_bound_tables_match_the_row_scan(leq, words, seed):
    # on a lattice, a handed-over table is returned as given when it is the
    # row scan's table, and raises at its lex-first wrong cell otherwise
    rng = np.random.default_rng(seed)
    n = len(leq)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_BLOCK_WORDS", words)   # many small row blocks
        for upper in (True, False):
            fast = outcome(lambda: _bound_table(leq, upper))
            slow = outcome(lambda: bound_table_rows(leq, upper))
            assert fast == slow
            if slow[0] == "ok":
                table = np.where(rng.random((n, n)) < 0.05, rng.integers(0, n, (n, n)), slow[1])
                wrong = first_bad(table != slow[1])
                want = slow if wrong is None else ("join" if upper else "meet", wrong)
                assert outcome(lambda: _bound_table(leq, upper, table)) == want


@pytest.mark.parametrize("seed", range(4))
def test_bound_tables_match_on_posets_wider_than_a_word(seed):
    rng = np.random.default_rng(seed)
    n = 70 + 40 * seed
    step = np.triu(rng.random((n, n)) < 3.0 / n, 1) | np.eye(n, dtype=bool)
    leq = np.zeros((n + 2, n + 2), dtype=bool)
    leq[:n, :n] = closure(step)
    leq[n, :] = True
    leq[:, n + 1] = True
    for upper in (True, False):
        assert outcome(lambda: _bound_table(leq, upper)) == \
            outcome(lambda: bound_table_rows(leq, upper))


def test_bound_tables_of_a_512_element_powerset():
    leq = relq(3).leq
    for upper in (True, False):
        assert np.array_equal(_bound_table(leq, upper), bound_table_rows(leq, upper))


@SETTINGS
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 140),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_relation_product_is_the_boolean_matrix_product(m, k, n, density, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((m, k)) < density
    b = rng.random((k, n)) < density
    assert np.array_equal(relation_product(a, b), a @ b)


@SETTINGS
@given(st.integers(1, 9), st.floats(0.0, 0.6), st.integers(0, 2 ** 32 - 1))
def test_order_checks_and_closure_match_the_matrix_product(n, density, seed):
    rng = np.random.default_rng(seed)
    step = np.triu(rng.random((n, n)) < density, 1) | np.eye(n, dtype=bool)
    perm = rng.permutation(n)
    step = step[np.ix_(perm, perm)]
    covers = [tuple(map(int, c)) for c in np.argwhere(step & ~np.eye(n, dtype=bool))]
    try:
        lat = SupLattice.from_covers(n, covers)
    except NotALattice:
        lat = None
    if lat is not None:
        assert np.array_equal(lat.leq, closure(step))
        strict = lat.leq & ~np.eye(n, dtype=bool)
        assert lat.covers() == [tuple(map(int, c))
                                for c in np.argwhere(strict & ~(strict @ strict))]
    # the relation itself is reflexive and antisymmetric but need not be transitive
    expected = transitivity_witness(step)
    try:
        SupLattice(step)
        got = None
    except NotAPoset as exc:
        got = (exc.law, exc.witness)
    except NotALattice:
        got = None
    assert got == (None if expected is None else ("transitivity", expected))


# ---------------------------------------------------------- singletons

QUANTALES = {"relq2": relq(2), "egger8": egger8()}


@st.composite
def matrices(draw, qsets_only=False):
    """A random Q-set over relq2 or egger8, or a raw random matrix."""
    Q = QUANTALES[draw(st.sampled_from(sorted(QUANTALES)))]
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if qsets_only or draw(st.booleans()):
        return Q, random_qset(Q, k, rng, max_entry=draw(st.integers(1, Q.n))).A.data
    return Q, rng.integers(0, Q.n, size=(k, k))


@SETTINGS
@given(matrices(), st.sampled_from([1, 2, 7, laws._LEX_BLOCK]), st.integers(1, 5000))
def test_column_blocks_match_the_one_column_walk(qa, block, lookups):
    Q, A = qa
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "_LEX_BLOCK", block)
        fast = [tuple(col) for col in _columns(Q, A).tolist()]
    assert fast == list(columns_one_at_a_time(Q, A))
    assert fast == list(columns_product(Q, A, lookups)) == list(columns_dfs(Q, A))


@SETTINGS
@given(matrices(qsets_only=True))
def test_singleton_lists_match_the_one_column_walk(qa):
    Q, A = qa
    X = QSet(Q, A)
    fast = singletons(X)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qmatrix, "_columns",
                   lambda Q, A: np.array(list(columns_one_at_a_time(Q, A)),
                                         dtype=np.intp).reshape(-1, A.shape[0]))
        slow = singletons(X)
    assert fast == slow
    assert all(type(v) is int for s in fast for v in s.column)


# ------------------------------------------------------- join extension

def pentagon() -> SupLattice:
    return SupLattice.from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def m3() -> SupLattice:
    return SupLattice.from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def is_bitmask_powerset(lat) -> bool:
    """Whether the elements are the subsets of some atoms, indexed by bitmask."""
    masks = np.arange(lat.n)
    return lat.n & (lat.n - 1) == 0 and np.array_equal(lat.join_table,
                                                       masks[:, None] | masks[None, :])


@st.composite
def small_lattices(draw):
    """M3, the pentagon, a chain, a powerset, or a relabelled union-closed family of sets."""
    kind = draw(st.sampled_from(["m3", "pentagon", "chain", "powerset", "family"]))
    if kind == "m3":
        return m3()
    if kind == "pentagon":
        return pentagon()
    if kind == "chain":
        return chain_lattice(draw(st.integers(1, 5)))
    if kind == "powerset":
        return powerset_lattice([f"a{i}" for i in range(draw(st.integers(0, 4)))])
    family = {0} | set(draw(st.lists(st.integers(1, 15), max_size=8)))
    while True:                                  # close under unions
        bigger = family | {a | b for a in family for b in family}
        if bigger == family:
            break
        family = bigger
    sets = np.array(sorted(family))
    sets = sets[np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).permutation(len(sets))]
    return SupLattice((sets[:, None] & ~sets[None, :]) == 0)


@SETTINGS
@given(small_lattices(), small_lattices(), st.sampled_from([np.uint8, np.intp]),
       st.lists(st.integers(0, 3), max_size=2), st.integers(0, 2 ** 32 - 1))
def test_join_extend_matches_the_definition(lat, target, dtype, tail, seed):
    rng = np.random.default_rng(seed)
    shape = (len(lat.join_irreducibles), *tail)
    values = rng.integers(0, target.n, size=shape).astype(dtype)   # not join-preserving
    out = lat.join_extend(values, target)
    assert out.dtype == values.dtype and out.shape == (lat.n, *tail)
    assert np.array_equal(out, join_extend_by_definition(lat, values, target))
    if is_bitmask_powerset(lat):
        assert np.array_equal(out, join_extend_low_bit(values, target))


@SETTINGS
@given(small_lattices(), st.integers(0, 2 ** 32 - 1))
def test_full_table_matches_the_two_loops(lat, seed):
    J = lat.join_irreducibles
    m = np.random.default_rng(seed).integers(0, lat.n, size=(len(J), len(J)))
    assert np.array_equal(search_mod._full_table(lat, m), full_table_loops(lat, J, m))


@settings(SETTINGS, max_examples=20)
@given(small_lattices(), st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
def test_stacked_full_tables_and_units_match_one_table_at_a_time(lat, seed, count):
    # the search extends a stack of uint8 tables and finds their units at once
    J = lat.join_irreducibles
    rng = np.random.default_rng(seed)
    ms = rng.integers(0, lat.n, size=(count, len(J), len(J)))
    meet = lat.meet_table[np.ix_(J, J)]                     # unital: the top, on a frame
    ms = np.concatenate([ms, meet[None]]).astype(np.uint8)
    full = search_mod._full_table(lat, ms)
    assert full.dtype == np.uint8 and full.shape == (count + 1, lat.n, lat.n)
    units = search_mod._detect_unit(lat, full)
    for m, table, unit in zip(ms, full, units.tolist()):
        one = search_mod._full_table(lat, m.astype(np.intp))
        assert np.array_equal(table, full_table_loops(lat, J, m)) and np.array_equal(table, one)
        assert search_mod._detect_unit(lat, one[None]).tolist() == [unit]


@SETTINGS
@given(st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_powerset_quantale_matches_the_bit_loops(k, seed):
    rng = np.random.default_rng(seed)
    atom_mul = rng.integers(0, 1 << k, size=(k, k))           # any bitmasks at all
    atom_inv = rng.permutation(k)
    Q = powerset_quantale(atom_mul, atom_inv, 0, [f"a{i}" for i in range(k)])
    mul, inv = powerset_quantale_bits(atom_mul, atom_inv)
    assert np.array_equal(Q.mul, mul) and np.array_equal(Q.inv, inv)


def catalog_names(*kinds):
    return sorted(name for name, (kind, _) in catalog_entries().items() if kind in kinds)


@pytest.mark.parametrize("name", catalog_names("quantale", "groupoid"))
def test_catalog_quantales_match_the_replaced_loops(name):
    kind, obj = catalog_get(name)
    Q = obj.quantale if kind == "groupoid" else obj
    lat, J = Q.lattice, Q.lattice.join_irreducibles
    m = Q.mul[np.ix_(J, J)]
    assert np.array_equal(search_mod._full_table(lat, m), full_table_loops(lat, J, m))
    assert np.array_equal(Q.mul, full_table_loops(lat, J, m))
    assert is_bitmask_powerset(lat)              # true of every catalog lattice
    atom_inv = [int(Q.inv[j]).bit_length() - 1 for j in J]
    mul, inv = powerset_quantale_bits(m, atom_inv)
    assert np.array_equal(Q.mul, mul) and np.array_equal(Q.inv, inv)


@pytest.mark.parametrize("name", catalog_names("action"))
def test_catalog_action_modules_match_the_replaced_loops(name):
    A = catalog_get(name)[1]
    am = module_from_action(A)
    action, ip, sup = action_module_bits(A)
    assert np.array_equal(am.module.action, action)
    assert np.array_equal(am.module.ip, ip)
    assert np.array_equal(am.sup, sup)


# ------------------------------------------------------------ join law

def join_witness_cubic(lat, table, target, axis):
    """The whole violation array, read by first_bad in the index order of each axis."""
    js, jt = lat.join_table, target.join_table
    if axis == 1:       # bad[p, x, x']: table[p, x OR x'] != table[p, x] OR table[p, x']
        return first_bad(table[:, js] != jt[table[:, :, None], table[:, None, :]])
    # bad[x, x', ...]: table[x OR x', ...] != table[x, ...] OR table[x', ...]
    return first_bad(table[js] != jt[table[:, None], table[None, :]])


def join_preserving_map(src, dst, rng, terms):
    """x |-> the join of t_i over the i with x not below c_i.

    Each term preserves joins, since x OR y <= c iff x <= c and y <= c, and
    so does their join.
    """
    out = np.full(src.n, dst.bottom, dtype=np.intp)
    for c, t in zip(rng.integers(0, src.n, terms), rng.integers(0, dst.n, terms)):
        out = dst.join_table[out, np.where(src.leq[:, c], dst.bottom, t)]
    return out


@st.composite
def moore_lattices(draw):
    """The intersection-closed families of subsets of 4 points, relabelled at random."""
    family = {15}
    for m in draw(st.lists(st.integers(0, 15), max_size=6)):
        family |= {m & f for f in family} | {m}
    sets = np.array(sorted(family))
    sets = sets[np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).permutation(len(sets))]
    return SupLattice((sets[:, None] & ~sets[None, :]) == 0)


@SETTINGS
@given(moore_lattices(), moore_lattices(), st.booleans(), st.sampled_from(["1-D", 0, 1]),
       st.sampled_from(["random", "extended", "extended, one cell overwritten"]),
       st.integers(1, 3), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_join_witness_matches_the_cubic_oracle(src, dst, same, axis, kind, m, terms, seed):
    dst = src if same else dst
    rng = np.random.default_rng(seed)
    cols = 1 if axis == "1-D" else m
    if kind == "random":
        table = rng.integers(0, dst.n, size=(src.n, cols))
    else:
        maps = np.stack([join_preserving_map(src, dst, rng, terms) for _ in range(cols)], axis=1)
        table = src.join_extend(maps[src.join_irreducibles], dst)
        assert np.array_equal(table, maps)
        if kind != "extended":
            cell = tuple(int(rng.integers(0, s)) for s in table.shape)
            table[cell] = rng.integers(0, dst.n)
    table = table[:, 0] if axis == "1-D" else table.T if axis == 1 else table
    axis = 0 if axis == "1-D" else axis
    expected = join_witness_cubic(src, table, dst, axis)
    assert kind != "extended" or expected is None
    got = src.join_witness(table, dst, axis)
    with pytest.MonkeyPatch.context() as mp:            # every law goes to the row scan
        mp.setattr(lattice, "holds_on", lambda bad_row, generators: False)
        scanned = src.join_witness(table, dst, axis)
    assert got == scanned == expected
    assert got is None or all(type(v) is int for v in got)


# ------------------------------------------------------ join of products

@SETTINGS
@given(st.sampled_from(sorted(QUANTALES)), st.integers(0, 4), st.integers(0, 3),
       st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_join_products_is_the_matrix_product_fold(name, m, t, p, seed):
    Q = QUANTALES[name]
    rng = np.random.default_rng(seed)
    A, B = rng.integers(0, Q.n, size=(m, t)), rng.integers(0, Q.n, size=(t, p))
    got = Q.lattice.join_products(Q.mul, A, B)
    assert got.shape == (m, p) and np.array_equal(got, mat_mul_fold(Q, A, B))
    assert t or (got == Q.bottom).all()                  # the empty sum is the bottom
    assert np.array_equal(mat_mul(QMatrix(Q, A), QMatrix(Q, B)).data, got)
    for k in range(p):                  # 1-D vectors give one column of the product
        assert np.array_equal(Q.lattice.join_products(Q.mul, A, B[:, k]), got[:, k])


@SETTINGS
@given(matrices(qsets_only=True), st.integers(0, 2 ** 32 - 1))
def test_qset_products_match_the_replaced_loops(qa, seed):
    Q, A = qa
    X = QSet(Q, A)
    assert np.array_equal(mat_mul(X.A, X.A).data, mat_mul_fold(Q, A, A))
    comp = completion(X)
    cols = [np.asarray(s.column, dtype=np.intp) for s in comp.singleton_list]
    assert np.array_equal(comp.qset.A.data, completion_hat_loops(Q, cols))
    assert np.array_equal(comp.unitary.data, np.stack([Q.inv[c] for c in cols]))
    mm = module_from_qset(Q, X)
    assert np.array_equal(mm.module.ip, dot_products_by_row(Q, mm.vectors))
    assert_hom_from_relation_matches_the_double_loop(mm, seed)


def assert_hom_from_relation_matches_the_double_loop(mm, seed):
    """On H = R (A D A), a relation X -> M(Q^I A) for the section relation R and any D."""
    X, Q = mm.qset, mm.qset.Q
    D = QMatrix(Q, np.random.default_rng(seed).integers(0, Q.n, size=(X.size, X.size)))
    H = mat_mul(section_relation(mm), mat_mul(X.A, mat_mul(D, X.A)))
    phi = hom_from_relation(mm, mm.module, H)
    secs = hilbert_sections(mm.module)
    assert np.array_equal(phi.map, hom_from_relation_loops(mm, mm.module, H.data, secs))


R2 = QUANTALES["relq2"]
FIXED_QSETS = {   # random_qset mostly gives 4-element carriers; these are larger
    "unit_point": [[R2.unit]],
    "two_units": [[R2.unit, 0], [0, R2.unit]],
    "golden": [[9, 0, 8, 1], [0, 15, 5, 0], [8, 3, 9, 0], [1, 0, 0, 1]],
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(FIXED_QSETS))
def test_hom_from_relation_on_larger_carriers(name, seed):
    assert_hom_from_relation_matches_the_double_loop(
        module_from_qset(R2, QSet(R2, FIXED_QSETS[name])), seed)


@pytest.mark.parametrize("name", catalog_names("action"))
def test_catalog_basis_sums_match_the_replaced_loops(name):
    X = module_from_action(catalog_get(name)[1]).module
    secs = hilbert_sections(X)
    for sigma in (secs, secs[::2], secs[:0], np.arange(0, X.n, 3)):
        r = reconstruct(X, sigma)                                    # 1-D vectors
        ps = X.quantale.lattice.join_products(X.quantale.mul, X.ip[:, sigma], X.ip[sigma])
        assert np.array_equal(r, reconstruct_loop(X, sigma))
        assert np.array_equal(ps, parseval_loop(X, sigma))
        assert parseval_check(X, sigma) == first_bad(ps != X.ip)
        if not len(sigma):                                           # the empty sum
            assert (r == X.carrier.bottom).all() and (ps == X.quantale.bottom).all()


# ------------------------------------------------- classification ladder

def assert_ladder_matches_the_cascade(Q):
    rep = classify(Q)
    flags, witnesses = classify_by_cascade(Q)
    assert rep.flags() == flags
    assert rep.witnesses == witnesses
    assert set(witnesses) == {f for f, v in flags.items() if v is False}
    return flags


@pytest.mark.parametrize("name", catalog_names("quantale", "groupoid"))
def test_catalog_ladders_match_the_cascade(name):
    kind, obj = catalog_get(name)
    assert_ladder_matches_the_cascade(obj.quantale if kind == "groupoid" else obj)


LADDER_LATTICES = {"chain2": lambda: chain_lattice(2), "chain3": lambda: chain_lattice(3),
                   "chain4": lambda: chain_lattice(4),
                   "diamond": lambda: powerset_lattice(["u", "v"]),
                   "pentagon": pentagon, "m3": m3}


@pytest.mark.parametrize("name", sorted(LADDER_LATTICES))
def test_search_model_ladders_match_the_cascade(name):
    lat = LADDER_LATTICES[name]()
    models = search_mod.search(search_mod.SearchSpec(lat)).models
    assert {Q.unit is None for Q in models} == {True, False}
    flags = [assert_ladder_matches_the_cascade(Q) for Q in models]
    if not lat.is_frame()[0]:   # quantal_frame alone fails a stably supported model
        assert any(f["stably_supported"] for f in flags)


# ------------------------------------------------------ lex-order search

@st.composite
def lex_problems(draw):
    """Random domains of up to 5 values each (empty ones included) and pair tables."""
    K = draw(st.integers(0, 4))
    values = [np.array(sorted(draw(st.sets(st.integers(0, 5), max_size=5))), dtype=np.intp)
              for _ in range(K)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.floats(0.2, 1.0))
    allowed = {(j, k): rng.random((6, 6)) < density for k in range(K) for j in range(k + 1)}
    return values, allowed


def pair_filter(allowed, calls: list):
    """The consistent() of a lex problem; it appends (len(P), len(c)) to calls."""
    def consistent(k, P, c):
        calls.append((len(P), len(c)))
        ok = allowed[k, k][c, c][None, :].repeat(len(P), axis=0)
        for j in range(k):
            ok &= allowed[j, k][P[:, j, None], c[None, :]]
        return ok

    return consistent


@SETTINGS
@given(lex_problems(), st.sampled_from([1, 2, 7, laws._LEX_BLOCK]))
def test_lex_solutions_match_the_product_filter(problem, block):
    values, allowed = problem
    calls = []
    consistent = pair_filter(allowed, calls)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "_LEX_BLOCK", block)
        got = lex_solutions(values, consistent)
    brute = [s for s in itertools.product(*(v.tolist() for v in values))
             if all(allowed[j, k][s[j], s[k]] for k in range(len(s)) for j in range(k + 1))]
    assert got.dtype == np.intp and got.shape == (len(brute), len(values))
    assert got.tolist() == [list(s) for s in brute]
    # each call tests one block: about `block` (prefix, candidate) pairs
    assert all(F * n <= max(block, n) for F, n in calls)


@SETTINGS
@given(lex_problems(), st.sampled_from([1, 2, 7, laws._LEX_BLOCK]))
def test_lex_blocks_stream_the_solutions_and_stop_early(problem, block):
    values, allowed = problem
    streamed, whole_calls, first_calls = [], [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "_LEX_BLOCK", block)
        blocks = list(lex_blocks(values, pair_filter(allowed, streamed)))
        whole = lex_solutions(values, pair_filter(allowed, whole_calls))
        next(lex_blocks(values, pair_filter(allowed, first_calls)), None)
    assert np.concatenate(blocks or [whole]).tolist() == whole.tolist()
    assert all(len(b) and b.dtype == np.intp for b in blocks)
    assert streamed == whole_calls
    # the first block is yielded before the walk goes on; a second block
    # needs at least one more call
    assert first_calls == streamed[:len(first_calls)]
    assert len(first_calls) < len(streamed) or len(blocks) < 2


def test_lex_blocks_of_a_wide_walk_stop_after_the_first_block():
    calls = []

    def anything(k, P, c):
        calls.append(k)
        return np.ones((len(P), len(c)), dtype=bool)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "_LEX_BLOCK", 4)
        first = next(lex_blocks([np.arange(2)] * 3, anything))
    assert first.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]]
    assert calls == [0, 1, 2]            # one prefix block per position, then it stops


def test_lex_solutions_of_no_positions_and_of_an_empty_domain():
    def anything(k, P, c):
        return np.ones((len(P), len(c)), dtype=bool)

    assert lex_solutions([], anything).shape == (1, 0)
    empty = lex_solutions([np.arange(3), np.array([], dtype=np.intp), np.arange(2)], anything)
    assert empty.shape == (0, 3) and empty.dtype == np.intp


# The recursive search takes 11 s on the 64-element lattice of z2_plus_pair2,
# and the 512-element powersets have 9! automorphisms each, so those stay out.
def catalog_lattice(name):
    kind, obj = catalog_get(name)
    return (obj.quantale if kind == "groupoid" else obj).lattice


CATALOG_LATTICES = {name: lat for name in catalog_names("quantale", "groupoid")
                    if (lat := catalog_lattice(name)).n <= 16}


def assert_same_isos(src, dst):
    fast, slow = lattice_order_isos(src, dst), order_isos_recursive(src, dst)
    assert len(fast) == len(slow)
    assert all(np.array_equal(f, s) for f, s in zip(fast, slow))


@pytest.mark.parametrize("name", sorted(CATALOG_LATTICES))
def test_order_isos_of_catalog_lattices_match_the_recursive_search(name):
    for other in CATALOG_LATTICES.values():
        assert_same_isos(CATALOG_LATTICES[name], other)


@SETTINGS
@given(small_lattices(), small_lattices(), st.sampled_from([1, 2, 7, laws._LEX_BLOCK]))
def test_order_isos_of_small_lattices_match_the_recursive_search(src, dst, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "_LEX_BLOCK", block)
        assert_same_isos(src, src)
        assert_same_isos(src, dst)


ACTION_PAIRS = [(a, b) for a in catalog_names("action") for b in catalog_names("action")
                if a.rsplit("_", 1)[0] == b.rsplit("_", 1)[0]]


@pytest.mark.parametrize("pair", ACTION_PAIRS, ids="->".join)
def test_catalog_homs_match_the_recursive_walks(pair):
    A1, A2 = (catalog_get(name)[1] for name in pair)
    assert _equivariant_maps(A1, A2) == equivariant_maps_recursive(A1, A2)
    am1, am2 = module_from_action(A1), module_from_action(A2)
    loc2 = hb.local_sections(am2).local
    runs = [(loc2, True)]
    if am2.module.n ** A1.n_points <= groupoid.ALL_HOM_CAP:
        runs.append((None, False))
    for images, pinned in runs:
        fast = _enumerate_homs(am1, am2, images)
        slow = enumerate_homs_recursive(A1, am1, am2, pinned)
        assert len(fast) == len(slow)
        assert all(np.array_equal(f, s) for f, s in zip(fast, slow))


# ------------------------------------------------------- module carriers

def section_qset(name):
    return sheafify(module_from_action(catalog_get(name)[1]).module).qset


CARRIER_QSETS = {
    "golden": lambda: objio.build_object("qset", QSET["payload"]),
    "golden3": lambda: objio.build_object("qset", QSET3["payload"]),
    **{f"fixed:{name}": (lambda rows=rows: QSet(R2, rows)) for name, rows in FIXED_QSETS.items()},
    **{f"random:{seed}": (lambda seed=seed: random_qset(R2, 1 + seed % 4,
                                                        np.random.default_rng(seed)))
       for seed in range(8)},
    "empty": lambda: QSet(R2, np.zeros((0, 0), dtype=np.intp)),
    "sections:pair2_regular": lambda: section_qset("pair2_regular"),
    "sections:z2_plus_pair2_regular": lambda: section_qset("z2_plus_pair2_regular"),
}


def with_repeated_row(X, seed):
    """X with one inner-product row copied onto a later one: a degenerate table."""
    rng = np.random.default_rng(seed)
    src, dst = sorted(rng.choice(X.n, size=2, replace=False))
    ip = X.ip.copy()
    ip[dst] = ip[src]
    return hb.PreHilbertModule(X.quantale, X.carrier, X.action, ip)


@pytest.mark.parametrize("name", sorted(set(CARRIER_QSETS) - {"golden3"}))
def test_module_carriers_match_the_bytes_keyed_worklist(name):
    X = CARRIER_QSETS[name]()
    Q = X.Q
    mm = module_from_qset(Q, X)
    vectors, action, rows = module_from_qset_worklist(Q, X.A.data)
    assert np.array_equal(mm.vectors, vectors)                # the same order
    assert np.array_equal(mm.module.action, action)
    assert np.array_equal(mm.rows, rows)
    assert np.array_equal(mm.module.ip, dot_products_by_row(Q, vectors))
    assert np.array_equal(mm.vector_index(vectors), np.arange(len(vectors)))
    assert hb.validate_prehilbert(mm.module).degeneracy_witness is None
    for seed in range(3 if mm.module.n > 1 else 0):
        Y = with_repeated_row(mm.module, seed)
        witness = hb.validate_prehilbert(Y).degeneracy_witness
        assert witness == degeneracy_by_seen_dict(Y.ip) is not None


def module_from_qset_dense(Q, X, cap=hb.CARRIER_CAP):
    """module_from_qset as it was before its tables were built on generators.

    The order compares all coordinates, the action is looked up for every
    scalar and the inner product is computed from its definition in every
    cell; then the same theorem checks run.
    """
    qmatrix.NotAQSet.check("qset", qmatrix.is_qset(X)[1])
    A = X.A.data
    jt, mul, inv = Q.lattice.join_table, Q.mul, Q.inv
    index = hb._RowIndex(np.full((1, X.size), Q.bottom))
    for alpha in range(X.size):
        index = index.extended(mul[:, A[alpha]])[0]
    if len(index.table) > cap:
        raise hb.CarrierTooLarge(len(index.table), cap)
    i = 0
    while i < len(arr := index.table):
        index = index.extended(jt[arr[i], arr[:i + 1]])[0]
        if len(index.table) > cap:
            raise hb.CarrierTooLarge(cap + 1, cap)
        i += 1
    carrier = SupLattice(Q.leq[arr[:, None], arr[None]].all(axis=2), hb._vector_labels(Q, arr))
    act = np.stack([index.find(mul[a][arr]) for a in range(Q.n)])
    rows = index.find(A)
    laws.TheoremViolation.check("carrier_closed_under_action", first_bad(act < 0))
    laws.TheoremViolation.check("rows_in_carrier", first_bad(rows < 0))
    ip = Q.lattice.join_products(mul, arr, inv[arr].T)
    mod = hb.PreHilbertModule(Q, carrier, act, ip)
    hb.check_prehilbert(mod)
    laws.TheoremViolation.check("row_projection", first_bad(ip[:, rows] != arr))
    laws.TheoremViolation.check("row_entries", first_bad(ip[np.ix_(rows, rows)] != A))
    laws.TheoremViolation.check("rows_are_a_basis", hb.is_hilbert_basis(mod, rows)[1])
    return hb.MatrixModule(mod, X, arr, rows)


def module_outcome(build):
    """The module's tables, or the failure's type, law and witness."""
    try:
        mm = build()
    except (laws.Violation, laws.TheoremViolation) as exc:
        return type(exc).__name__, exc.law, exc.witness
    N = mm.module
    return ("ok", mm.vectors.tolist(), mm.rows.tolist(), N.carrier.leq.tolist(),
            N.carrier.labels, N.action.tolist(), N.ip.tolist())


def assert_tables_match_the_dense_construction(Q, X):
    fast = module_outcome(lambda: module_from_qset(Q, X))
    assert fast == module_outcome(lambda: module_from_qset_dense(Q, X))
    return fast


@pytest.mark.parametrize("name", sorted(set(CARRIER_QSETS) - {"golden3"})
                         + [f"sections:{a}" for a in catalog_names("action")])
def test_module_tables_match_the_dense_construction(name):
    X = CARRIER_QSETS[name]() if name in CARRIER_QSETS else section_qset(name.split(":")[1])
    assert assert_tables_match_the_dense_construction(X.Q, X)[0] == "ok"


def small_quantale(name):
    kind, obj = catalog_get(name)
    return obj if kind == "quantale" else obj.quantale


GELFAND = [name for name in catalog_names("quantale", "groupoid")
           if small_quantale(name).n <= 64
           and classify(small_quantale(name)).flag("stably_gelfand")]


@SETTINGS
@given(st.sampled_from(GELFAND), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_random_qset_tables_match_the_dense_construction(name, size, seed):
    Q = small_quantale(name)
    X = random_qset(Q, size, np.random.default_rng(seed))
    assert assert_tables_match_the_dense_construction(Q, X)[0] == "ok"


@SETTINGS
@given(st.integers(1, 3), st.data())
def test_bilinear_products_that_are_not_associative_fail_as_before(k, data):
    """A join-extended atom table is bilinear but need not be associative, so
    the carrier may not be closed under the action: the witness is the one the
    lookup of every scalar finds."""
    n = 1 << k
    atom_mul = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=k * k,
                                           max_size=k * k))).reshape(k, k)
    Q = powerset_quantale(atom_mul, data.draw(st.permutations(range(k))), 0,
                          [str(i) for i in range(k)])
    size = data.draw(st.integers(1, 2))
    A = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=size * size,
                                    max_size=size * size))).reshape(size, size)
    idempotent = [a for a in range(n) if Q.inv[a] == a and Q.mul[a, a] == a]
    if size == 1 and idempotent:
        A[0, 0] = data.draw(st.sampled_from(idempotent))
    assert_tables_match_the_dense_construction(Q, QSet(Q, A))


@pytest.mark.parametrize("atom_mul, atom_inv, matrix, witness", [
    ([[4, 6, 2], [3, 6, 0], [2, 0, 3]], [0, 2, 1], [[7]], (4, 3)),
    ([[2, 0], [2, 1]], [0, 1], [[3]], (2, 1)),
    ([[2, 3], [1, 1]], [1, 0], [[0, 0], [0, 3]], (1, 2)),
])
def test_a_carrier_not_closed_under_the_action_reports_the_scalar_scan(
        atom_mul, atom_inv, matrix, witness):
    """Found by drawing atom tables: the product is bilinear but not associative,
    and the lex-first missing a . v is the one every scalar's lookup finds."""
    k = len(atom_mul)
    Q = powerset_quantale(np.array(atom_mul), atom_inv, 0, [str(i) for i in range(k)])
    X = QSet(Q, matrix)
    fast = module_outcome(lambda: module_from_qset(Q, X))
    assert fast == module_outcome(lambda: module_from_qset_dense(Q, X))
    assert fast == ("TheoremViolation", "carrier_closed_under_action", witness)


def test_module_from_qset_needs_a_bilinear_product_and_a_join_preserving_involution():
    R = relq(2)
    X = QSet(R, [[R.unit]])
    seen = set()
    for cell in itertools.product(range(R.n), repeat=2):
        for table in ("mul", "inv"):
            if table == "inv" and cell[1]:
                continue
            mul, inv = R.mul.copy(), R.inv.copy()
            if table == "mul":
                mul[cell] = R.top if mul[cell] != R.top else R.bottom
            else:
                inv[cell[0]] = R.top if inv[cell[0]] != R.top else R.bottom
            Q = Quantale(R.lattice, mul, inv, R.unit)
            if not qmatrix.is_qset(QSet(Q, X.A.data))[0]:
                continue
            premises = {k: w for k, w in validate_quantale(Q).laws.items()
                        if k in (*Q.linearity, "involution_join", "involution_bottom")}
            bad = next(((k, w) for k, w in premises.items() if w is not None), None)
            if bad is None:
                continue
            with pytest.raises(NotAQuantale) as ei:
                module_from_qset(Q, QSet(Q, X.A.data))
            assert (ei.value.law, ei.value.witness) == bad
            seen.add(bad[0])
    # a changed cell breaks both join distributions, and the left one is reported
    assert {"join_distribution_left", "involution_join"} <= seen


def carrier_outcome(build):
    try:
        return len(build())
    except hb.CarrierTooLarge as exc:
        return "too large", exc.size, exc.cap


@pytest.mark.parametrize("name", ["golden", "golden3", "fixed:two_units"])
def test_carrier_caps_stop_where_the_worklist_stops(name, monkeypatch):
    # golden3's closure passes the default cap, so its carrier is compared here only
    X = CARRIER_QSETS[name]()
    Q, A = X.Q, X.A.data
    scaled = len(np.unique(np.vstack([np.full((1, X.size), Q.bottom),
                                      *(Q.mul[:, A[a]] for a in range(X.size))]), axis=0))
    for cap in (scaled - 1, scaled, scaled + 5, hb.CARRIER_CAP):
        monkeypatch.setattr(hb, "CARRIER_CAP", cap)
        fast = carrier_outcome(lambda: module_from_qset(Q, X).vectors)
        assert fast == carrier_outcome(lambda: module_from_qset_worklist(Q, A, cap)[0])
        if cap == scaled - 1:                                 # stops after the scaled rows
            assert fast == ("too large", scaled, cap)
        if cap == scaled:                                     # stops in the closure
            assert fast == ("too large", cap + 1, cap)


@pytest.mark.parametrize("name", catalog_names("action"))
def test_sections_match_the_per_section_loops(name):
    am = module_from_action(catalog_get(name)[1])
    X = am.module
    assert hilbert_sections(X).tolist() == hilbert_sections_loop(X)
    rng = np.random.default_rng(len(name))
    for _ in range(4):                       # any inner product table will do here
        ip = X.ip.copy()
        ip[tuple(rng.integers(0, X.n, size=2))] = rng.integers(0, X.quantale.n)
        Y = hb.PreHilbertModule(X.quantale, X.carrier, X.action, ip)
        assert hilbert_sections(Y).tolist() == hilbert_sections_loop(Y)
    in_local, pointwise = local_sections_loops(am)
    assert in_local == pointwise
    rep = hb.local_sections(am)
    assert rep.local.tolist() == np.flatnonzero(in_local).tolist()
    assert rep.equal and generated_witness_loop(X.carrier, rep.local, rep.hilbert) is None
    # trade the least nonzero section for a second bottom: the same count,
    # all local, so the generation check runs and must name the loop's witness
    fake = rep.hilbert.copy()
    fake[1] = X.carrier.bottom
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hb, "hilbert_sections", lambda _: fake)
        with pytest.raises(laws.TheoremViolation) as ei:
            hb.local_sections(am)
    assert ei.value.law == "local_sections_generated"
    assert ei.value.witness == generated_witness_loop(X.carrier, rep.local, fake)
