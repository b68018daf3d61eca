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
reconstruct and parseval_check).
Each kernel must give the same tables, the same order of results and the
same lex-first witnesses.
"""

import importlib
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlab import lattice, qmatrix
from qlab.catalog import catalog_entries, catalog_get, egger8, powerset_quantale, relq
from qlab.groupoid import module_from_action
from qlab.lattice import (NotALattice, NotAPoset, SupLattice, _bound_table,
                          build_lattice, chain_lattice, powerset_lattice,
                          relation_product)
from qlab.hilbert import (hilbert_sections, hom_from_relation, module_from_qset,
                          parseval_check, reconstruct, section_relation)
from qlab.laws import first_bad
from qlab.qmatrix import (QMatrix, QSet, _columns_product, completion, mat_mul,
                          random_qset, singletons)

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
@given(posets(), st.integers(1, 64))
def test_bound_tables_match_the_row_scan(leq, words):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_BLOCK_WORDS", words)   # many small row blocks
        for upper in (True, False):
            fast = outcome(lambda: _bound_table(leq, upper))
            slow = outcome(lambda: bound_table_rows(leq, upper))
            assert fast == slow


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
        lat = build_lattice(n, covers)
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
@given(matrices(), st.integers(1, 5000))
def test_column_blocks_match_the_one_column_walk(qa, lookups):
    Q, A = qa
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qmatrix, "_BLOCK_LOOKUPS", lookups)   # many small blocks
        fast = list(_columns_product(Q, A))
    assert fast == list(columns_one_at_a_time(Q, A))
    assert all(type(v) is int for col in fast for v in col)


@SETTINGS
@given(matrices(qsets_only=True))
def test_singleton_lists_match_the_one_column_walk(qa):
    Q, A = qa
    X = QSet(Q, A)
    fast = singletons(X)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qmatrix, "_columns_product", columns_one_at_a_time)
        slow = singletons(X)
    assert fast == slow


# ------------------------------------------------------- join extension

def pentagon() -> SupLattice:
    return build_lattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def m3() -> SupLattice:
    return build_lattice(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


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
    am = module_from_action(catalog_get(name)[1], verify=False)
    action, ip, sup = action_module_bits(am.action)
    assert np.array_equal(am.module.action, action)
    assert np.array_equal(am.module.ip, ip)
    assert np.array_equal(am.supported.sup, sup)


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
    X = module_from_action(catalog_get(name)[1], verify=False).module
    secs = hilbert_sections(X)
    for sigma in (secs, secs[::2], secs[:0], np.arange(0, X.n, 3)):
        r = reconstruct(X, sigma)                                    # 1-D vectors
        ps = X.quantale.lattice.join_products(X.quantale.mul, X.ip[:, sigma], X.ip[sigma])
        assert np.array_equal(r, reconstruct_loop(X, sigma))
        assert np.array_equal(ps, parseval_loop(X, sigma))
        assert parseval_check(X, sigma) == first_bad(ps != X.ip)
        if not len(sigma):                                           # the empty sum
            assert (r == X.carrier.bottom).all() and (ps == X.quantale.bottom).all()
