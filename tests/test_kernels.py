"""Differential tests: whole-array kernels against the loops they replaced.

The oracles below are the earlier row-by-row implementations, kept here
only: the join/meet table built one row at a time, the closure step as a
numpy boolean matrix product, and the singleton-column walk that tests
one itertools.product column per call.  Each kernel must give the same
tables, the same order of results and the same lex-first witnesses.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlab import lattice, qmatrix
from qlab.catalog import egger8, relq
from qlab.lattice import (NotALattice, NotAPoset, SupLattice, _bound_table,
                          build_lattice, relation_product)
from qlab.qmatrix import QSet, _columns_product, random_qset, singletons

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
