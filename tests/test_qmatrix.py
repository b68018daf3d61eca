import numpy as np
import pytest

from qlab.catalog import egger8, frame_quantale, group_quantale, cyclic_table, relq
from qlab.lattice import chain_lattice, powerset_lattice
from qlab.qmatrix import (NotStablyGelfand, QMatrix, QSet, QuantaleMismatch, ShapeMismatch,
                          _columns, completion, frame_map_conditions, is_gelfand_map,
                          is_map, is_qset, is_relation, is_strict, is_strict_map,
                          mat_adjoint, mat_join, mat_leq, mat_mul, quantal_set_conditions,
                          random_qset, singletons)
from qlab.quantale import Quantale
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
    ok, w = is_qset(X)
    assert not ok and w[0] == "self_adjoint"
    # symmetric but not idempotent: the flip entries compose to the diagonal
    X = QSet(R2, [[1, 8], [8, 1]])
    ok, w = is_qset(X)
    assert not ok and w[0] == "idempotent"


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
    assert not ok and w == "total"
