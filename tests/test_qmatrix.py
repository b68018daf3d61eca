import numpy as np
import pytest

from qlab import qmatrix
from qlab.catalog import catalog_get, egger8, frame_quantale, group_quantale, cyclic_table, relq
from qlab.hilbert import NotARelation, functor_M_object, hom_from_relation, module_from_qset
from qlab.lattice import chain_lattice, powerset_lattice
from qlab.laws import TheoremViolation
from qlab.qmatrix import (NotStablyGelfand, QMatrix, QSet, QuantaleMismatch, ShapeMismatch,
                          _columns, completion, frame_map_conditions, is_gelfand_map,
                          is_map, is_qset, is_relation, is_strict, is_strict_map,
                          mat_adjoint, mat_join, mat_leq, mat_mul, quantal_set_conditions,
                          random_qset, singletons)
from qlab.quantale import Quantale, projections
from test_kernels import columns_dfs, columns_product

R2 = relq(2)


def unit_point():
    return QSet(R2, [[R2.unit]])


def test_matrix_algebra_basics():
    A = QMatrix(R2, [[1, 2], [4, 8]])
    B = QMatrix(R2, [[9, 0], [0, 9]])
    assert mat_mul(A, B) == A == mat_mul(B, A)  # 9 is the identity relation
    assert mat_adjoint(mat_adjoint(A)) == A
    assert mat_leq(A, mat_join(A, B))
    # adjoint is contravariant: (AB)* = B* A*
    C = QMatrix(R2, [[3, 6], [12, 15]])
    assert mat_adjoint(mat_mul(A, C)) == mat_mul(mat_adjoint(C), mat_adjoint(A))


def test_matrix_mul_is_associative_on_random_data():
    rng = np.random.default_rng(7)
    for _ in range(25):
        A = QMatrix(R2, rng.integers(0, 16, (2, 3)))
        B = QMatrix(R2, rng.integers(0, 16, (3, 2)))
        C = QMatrix(R2, rng.integers(0, 16, (2, 2)))
        assert mat_mul(mat_mul(A, B), C) == mat_mul(A, mat_mul(B, C))


def test_shape_and_quantale_mismatch():
    A = QMatrix(R2, [[0, 0]])
    with pytest.raises(ShapeMismatch):
        mat_mul(A, A)
    with pytest.raises(ShapeMismatch):
        mat_join(A, QMatrix(R2, [[0], [0]]))
    other = relq(2)  # equal tables, different object
    with pytest.raises(QuantaleMismatch):
        mat_mul(A, QMatrix(other, [[0], [0]]))
    with pytest.raises(ValueError):
        QMatrix(R2, [[16]])
    with pytest.raises(ShapeMismatch):
        QSet(R2, [[0, 0]])
    with pytest.raises(ValueError):
        QSet(R2, [[0]], labels=["a", "b"])


def test_is_qset_witnesses():
    ok, w = is_qset(unit_point())
    assert ok and w is None
    # not self-adjoint
    X = QSet(R2, [[9, 2], [8, 9]])
    assert is_qset(X) == (False, ("self_adjoint", 0, 1))
    # symmetric but not idempotent: the flip entries compose to the diagonal
    X = QSet(R2, [[1, 8], [8, 1]])
    assert is_qset(X) == (False, ("idempotent", 0, 0))
    assert is_strict(X) == (False, ("strict", 0, 1))


def test_strictness_and_the_condition_cross_check():
    rng = np.random.default_rng(42)
    for i in range(60):
        X = random_qset(R2, 1 + i % 3, rng)
        assert is_qset(X)[0]
        ok, w = is_strict(X)
        assert ok, w
        assert quantal_set_conditions(X) == (True, None)
    # a non-strict non-qset matrix trips the extent axioms
    bad = QSet(R2, [[0, 9], [9, 0]])
    ok, w = quantal_set_conditions(bad)
    assert not ok


def test_column_walks_agree():
    rng = np.random.default_rng(3)
    for i in range(10):
        X = random_qset(R2, 1 + i % 2, rng)
        cols = [tuple(c) for c in _columns(R2, X.A.data).tolist()]
        assert cols == list(columns_product(R2, X.A.data)) == list(columns_dfs(R2, X.A.data))


def test_singletons_need_a_stably_gelfand_quantale():
    Q = Quantale(chain_lattice(2), [[0, 0], [0, 0]], [0, 1])   # 1.1*.1 = 0 < 1
    with pytest.raises(NotStablyGelfand) as err:
        singletons(QSet(Q, [[0]]))
    assert err.value.witness == (1,)


def test_singletons_of_the_unit_point():
    sings = singletons(unit_point())
    # columns (s,) with s s* <= e: relations where every target has at most
    # one source, nine of them over two points
    assert len(sings) == 9
    cols = sorted(s.column[0] for s in sings)
    assert cols == [0, 1, 2, 3, 4, 6, 8, 9, 12]
    # their adjoints are exactly the single-valued relations
    assert sorted(int(R2.inv[c]) for c in cols) == [0, 1, 2, 4, 5, 6, 8, 9, 10]
    for s in sings:
        assert s.canonical_q in s.qs


def test_completion_of_the_unit_point():
    comp = completion(unit_point())
    assert not comp.is_complete
    assert comp.qset.size == 9
    assert is_qset(comp.qset) == (True, None)
    # completing the completion adds nothing
    again = completion(comp.qset)
    assert again.is_complete
    assert again.qset.size == 9
    # the unitary certificate: rows are the adjoint singleton columns
    assert comp.unitary.shape == (9, 1)
    sings = np.array([s.column[0] for s in comp.singleton_list])
    assert np.array_equal(comp.unitary.data[:, 0], R2.inv[sings])


def test_completion_over_group_and_frame_quantales():
    rng = np.random.default_rng(11)
    for Q in (group_quantale(cyclic_table(2), ["e", "g"]),
              frame_quantale(powerset_lattice(["u", "v"])),
              egger8()):
        for size in (1, 2):
            X = random_qset(Q, size, rng, max_entry=Q.n - 1)
            comp = completion(X)
            assert is_qset(comp.qset) == (True, None)
            assert len(comp.column_map) == X.size
            again = completion(comp.qset)
            assert again.is_complete


def test_random_qset_respects_max_entry():
    rng = np.random.default_rng(5)
    X = random_qset(R2, 3, rng, max_entry=1)
    assert is_qset(X)[0]


def test_relations_and_maps():
    X = unit_point()
    comp = completion(X)
    Xhat = comp.qset
    # the identity matrix of a qset is a relation and a map to itself
    A = X.A
    assert is_relation(A, X, X) == (True, None)
    assert is_map(A, X, X) == (True, None)
    assert is_strict_map(A, X, X) == (True, None)
    assert is_gelfand_map(A, X, X) == (True, None)
    # the inclusion into the completion: column a of Ahat against the source
    inc = QMatrix(R2, Xhat.A.data[:, [comp.column_map[0]]])
    assert is_relation(inc, X, Xhat) == (True, None)
    assert is_map(inc, X, Xhat) == (True, None)
    # relations must match shapes
    with pytest.raises(ShapeMismatch):
        is_relation(QMatrix(R2, [[0, 0]]), X, X)


def test_map_axioms_in_frame_language():
    Q = frame_quantale(powerset_lattice(["u", "v"]))
    X = QSet(Q, [[3]])
    ok, w = frame_map_conditions(X.A, X, X)
    assert ok, w
    # a relation that is not total fails the frame-side test too
    empty = QMatrix(Q, [[0]])
    ok, w = frame_map_conditions(empty, X, X)
    assert not ok and w[0] == "total"
    ok, w = is_map(empty, X, X)
    assert not ok and w == ("total", 0, 0)


@pytest.mark.parametrize("shape", [(1, 2), (3, 1)])
def test_frame_map_conditions_check_the_endpoints_as_is_map_does(shape):
    Q = frame_quantale(powerset_lattice(["u", "v"]))
    point, pair = QSet(Q, [[3]]), QSet(Q, [[3, 2], [2, 2]])
    F = QMatrix(Q, np.full(shape, 2))         # point -> pair needs shape (2, 1)
    for check in (frame_map_conditions, is_map):
        with pytest.raises(ShapeMismatch):
            check(F, point, pair)


def test_frame_map_conditions_reject_mixed_quantales():
    pow2 = lambda: frame_quantale(powerset_lattice(["u", "v"]))
    Q, other = pow2(), pow2()                 # equal tables, different objects
    point = QSet(Q, [[3]])
    for check in (frame_map_conditions, is_map):
        with pytest.raises(QuantaleMismatch):
            check(QMatrix(other, [[3]]), point, point)
        with pytest.raises(QuantaleMismatch):
            check(QMatrix(Q, [[3]]), point, QSet(other, [[3]]))


# ------------------------------------------------- the laws against loop oracles

def first(cells):
    return next(iter(cells), None)


def first_law(laws):
    """(law, *cell) of the first law, in list order, whose loop finds a cell; or None."""
    return first((law,) + w for law, cells in laws if (w := first(cells)) is not None)


def product(Q, X, Y):
    """(XY)_ik = the join over t of x_it y_tk, by the definition."""
    return [[Q.lattice.join(Q.mul[X[i][t], Y[t][k]] for t in range(len(Y)))
             for k in range(len(Y[0]))] for i in range(len(X))]


def adjoint(Q, X):
    return [[Q.inv[X[i][j]] for i in range(len(X))] for j in range(len(X[0]))]


def qset_laws(Q, A):
    K, AA = range(len(A)), product(Q, A, A)
    return [("self_adjoint", ((a, b) for a in K for b in K if A[a][b] != Q.inv[A[b][a]])),
            ("idempotent", ((a, b) for a in K for b in K if AA[a][b] != A[a][b]))]


def strict_laws(Q, A):
    K = range(len(A))
    return [("strict", ((a, b) for a in K for b in K if Q.mul[A[a][a], A[a][b]] != A[a][b]))]


def extent_laws(Q, A):
    """quantal_set_conditions as loops, with right_extent, which it no longer lists."""
    mul, leq, inv, K = Q.mul, Q.leq, Q.inv, range(len(A))
    return [
        ("symmetry", ((a, b) for a in K for b in K if inv[A[a][b]] != A[b][a])),
        ("left_extent", ((a, b) for a in K for b in K if not leq[A[a][b], mul[A[a][a], A[a][b]]])),
        ("right_extent", ((a, b) for a in K for b in K
                          if not leq[A[a][b], mul[A[a][b], A[b][b]]])),
        ("transitivity", ((a, b, c) for a in K for b in K for c in K
                          if not leq[mul[A[a][b], A[b][c]], A[a][c]]))]


def relation_laws(Q, F, A, B):
    I, J = range(len(A)), range(len(B))
    BF, FA = product(Q, B, F), product(Q, F, A)
    return [("left_absorption", ((b, a) for b in J for a in I if BF[b][a] != F[b][a])),
            ("right_absorption", ((b, a) for b in J for a in I if FA[b][a] != F[b][a]))]


def map_laws(Q, F, A, B):
    I, J, Fs = range(len(A)), range(len(B)), adjoint(Q, F)
    FFs, FsF = product(Q, F, Fs), product(Q, Fs, F)
    return relation_laws(Q, F, A, B) + [
        ("single_valued", ((b, c) for b in J for c in J if not Q.leq[FFs[b][c], B[b][c]])),
        ("total", ((a, c) for a in I for c in I if not Q.leq[A[a][c], FsF[a][c]]))]


def strict_map_laws(Q, F, A, B):
    mul, I, J = Q.mul, range(len(A)), range(len(B))
    return map_laws(Q, F, A, B) + [
        ("source_strict", ((b, a) for b in J for a in I if mul[F[b][a], A[a][a]] != F[b][a])),
        ("target_strict", ((b, a) for b in J for a in I if mul[B[b][b], F[b][a]] != F[b][a]))]


def gelfand_map_laws(Q, F, A, B):
    mul, inv, I, J = Q.mul, Q.inv, range(len(A)), range(len(B))
    return map_laws(Q, F, A, B) + [
        ("gelfand", ((b, a) for b in J for a in I
                     if not Q.leq[F[b][a], mul[mul[F[b][a], inv[F[b][a]]], F[b][a]]]))]


def frame_map_laws(Q, f, A, B):
    mt, leq, I, J = Q.lattice.meet_table, Q.leq, range(len(A)), range(len(B))
    return [
        ("entry_below_extents", ((b, a) for b in J for a in I
                                 if not leq[f[b][a], mt[A[a][a], B[b][b]]])),
        ("substitution", ((b, a, b2, a2) for b in J for a in I for b2 in J for a2 in I
                          if not leq[mt[mt[f[b][a], A[a][a2]], B[b][b2]], f[b2][a2]])),
        ("single_valued", ((b, a, b2) for b in J for a in I for b2 in J
                           if not leq[mt[f[b][a], f[b2][a]], B[b][b2]])),
        ("total", ((a,) for a in I if not leq[A[a][a], Q.join(f[b][a] for b in J)]))]


# a fixed 2-point Q-set per quantale; their one-cell changes reach every law that can fail
QSETS = {"relq2": [[9, 1], [1, 1]], "zmod2": [[3, 0], [0, 1]], "zmod3": [[7, 0], [0, 0]],
         "pow2": [[3, 2], [2, 2]], "chain2": [[1, 0], [0, 1]]}

# Every catalog quantale is Gelfand (a <= aa*a), and there a map's laws force
# target_strict and gelfand: f_ba <= f_ba f_ba* f_ba <= B_bb f_ba <= (BF)_ba = f_ba.
# The chain 0 < a < 1 with aa = 0 is not Gelfand; the map [[2]] -> Y fails both,
# and the identity of Y fails source_strict at (1, 0) and target_strict at (0, 1).
TRUNC3 = Quantale(chain_lattice(3), [[0, 0, 0], [0, 0, 1], [0, 1, 2]], [0, 1, 2], unit=2)
NOT_GELFAND = (TRUNC3, [[1], [2]], [[2]], [[0, 1], [1, 2]])
NOT_STRICT = (TRUNC3, [[0, 1], [1, 2]], [[0, 1], [1, 2]], [[0, 1], [1, 2]])


def base_maps(Q, A):
    """(F, src, dst): the identity of A, the swap onto A relabelled, and A's first column."""
    A = np.array(A)
    swapped = A[::-1]
    return [(A, A, A), (swapped, A, swapped[:, ::-1]), (A[:, :1], A[:1, :1], A)]


def one_cell_changes(Q, *tables):
    """The tables as they are, then with one cell of one table set to each other element."""
    tables = [np.array(t, dtype=np.intp) for t in tables]
    yield tables
    for i, t in enumerate(tables):
        for cell in np.ndindex(t.shape):
            for v in range(Q.n):
                if v != t[cell]:
                    changed = [u.copy() for u in tables]
                    changed[i][cell] = v
                    yield changed


def reported_laws(cases):
    """{predicate name: laws reported}, asserting each verdict equals its loop oracle's."""
    reported = {}
    for pred, oracle, Q, tables, args in cases:
        want = first_law(oracle(Q, *(t.tolist() for t in tables)))
        assert pred(*args) == (want is None, want), (pred.__name__, tables)
        reported.setdefault(pred.__name__, set()).update([want[0]] if want else [])
    return reported


def qset_cases():
    for name, A in QSETS.items():
        Q = catalog_get(name)[1]
        for (B,) in one_cell_changes(Q, A):
            for pred, oracle in ((is_qset, qset_laws), (is_strict, strict_laws),
                                 (quantal_set_conditions, extent_laws)):
                yield pred, oracle, Q, [B], (QSet(Q, B),)


def map_cases():
    bases = [(catalog_get(name)[1], *maps) for name, A in QSETS.items()
             for maps in base_maps(catalog_get(name)[1], A)] + [NOT_GELFAND, NOT_STRICT]
    for Q, *base in bases:
        preds = [(is_relation, relation_laws), (is_map, map_laws),
                 (is_strict_map, strict_map_laws), (is_gelfand_map, gelfand_map_laws)]
        if Q.name in ("pow2", "chain2"):
            preds.append((frame_map_conditions, frame_map_laws))
        for F, A, B in one_cell_changes(Q, *base):
            for pred, oracle in preds:
                yield pred, oracle, Q, [F, A, B], (QMatrix(Q, F), QSet(Q, A), QSet(Q, B))


def test_qset_laws_match_the_loop_oracle_on_one_cell_changes():
    # right_extent at (a, b) is left_extent at (b, a) once symmetry holds,
    # so it is never the first law to fail
    assert reported_laws(qset_cases()) == {
        "is_qset": {"self_adjoint", "idempotent"}, "is_strict": {"strict"},
        "quantal_set_conditions": {"symmetry", "left_extent", "transitivity"}}


def test_relation_and_map_laws_match_the_loop_oracle_on_one_cell_changes():
    relation = {"left_absorption", "right_absorption"}
    maps = relation | {"single_valued", "total"}
    assert reported_laws(map_cases()) == {
        "is_relation": relation, "is_map": maps,
        "is_strict_map": maps | {"source_strict", "target_strict"},
        "is_gelfand_map": maps | {"gelfand"},
        "frame_map_conditions": {"entry_below_extents", "substitution", "single_valued", "total"}}


def test_hom_from_relation_names_the_law_and_cell():
    mm = module_from_qset(R2, unit_point())
    MY, _ = functor_M_object(mm.module)
    H = QMatrix(R2, np.zeros((MY.size, 1), dtype=np.intp))
    H.data[3, 0] = R2.top
    w = is_relation(H, mm.qset, MY)[1]
    with pytest.raises(NotARelation) as ei:
        hom_from_relation(mm, mm.module, H)
    assert (ei.value.law, ei.value.witness) == ("relation", w)
    assert str(ei.value) == f"H is not a relation into M(Y): {w[0]} fails at {w[1:]}"
    assert w[0] == "left_absorption"


@pytest.mark.parametrize("Q", [R2, egger8(), catalog_get("zmod3")[1], catalog_get("pow2")[1]],
                         ids=lambda Q: Q.name)
def test_singleton_witnesses_match_the_projection_loop(Q):
    rng = np.random.default_rng(17)
    for size in (1, 2):
        X = random_qset(Q, size, rng, max_entry=Q.n - 1)
        for s in singletons(X):
            col = np.array(s.column)
            ss = Q.join(Q.mul[Q.inv[col], col])
            assert s.qs == tuple(q for q in projections(Q)
                                 if (Q.mul[col, q] == col).all() and Q.leq[q, ss])
            assert s.canonical_q == ss


def test_singletons_recheck_that_s_star_s_witnesses_each_column(monkeypatch):
    # with no projection to offer, the canonical witness S*S is missing at the first column
    monkeypatch.setattr(qmatrix, "projections", lambda Q: [])
    with pytest.raises(TheoremViolation) as ei:
        singletons(unit_point())
    assert (ei.value.law, ei.value.witness) == ("canonical_witness", (0,))
