"""Q-valued matrices, Q-sets, relations and maps, singletons, completion.

A Q-valued matrix is a dense array of element indices of a fixed quantale.
Q-sets are the self-adjoint idempotent square matrices; their morphisms are
the functional relations between them.  Everything here is desk scale: index
sets of a handful of elements.  Each predicate on them is an ordered list of
whole-array laws and answers (True, None) or (False, (law, *cell)), the
lex-first cell of the first law in list order that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .laws import TheoremViolation, Violation, first_bad, first_bad_named, lex_solutions
from .lattice import SupLattice
from .quantale import Quantale, _gelfand_witnesses, projections


class ShapeMismatch(ValueError):
    pass


class QuantaleMismatch(ValueError):
    pass


class NotStablyGelfand(Violation):
    """Singletons need a stably Gelfand quantale: aa*a <= a must force aa*a = a."""

    message = "not stably Gelfand: aa*a <= a but aa*a != a at a = {witness[0]}"


class NotAQSet(Violation):
    """The matrix must be self-adjoint and idempotent; witness = is_qset's."""

    message = "not a Q-set: {witness[0]} fails at ({witness[1]}, {witness[2]})"


class QMatrix:
    """Matrix with entries in a fixed quantale, shape (rows, cols)."""

    def __init__(self, Q: Quantale, data):
        self.Q = Q
        self.data = np.atleast_2d(np.asarray(data, dtype=np.intp))
        if self.data.min(initial=0) < 0 or self.data.max(initial=0) >= Q.n:
            raise ValueError("matrix entries out of range")

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and self.Q is other.Q
                and self.shape == other.shape and (self.data == other.data).all())

    def __repr__(self) -> str:
        rows = [" ".join(self.Q.label(v) for v in row) for row in self.data]
        return "QMatrix[\n  " + "\n  ".join(rows) + "\n]"


def _check_pair(A: QMatrix, B: QMatrix, inner: bool) -> None:
    if A.Q is not B.Q:
        raise QuantaleMismatch("matrices live over different quantales")
    if inner and A.shape[1] != B.shape[0]:
        raise ShapeMismatch(f"cannot multiply {A.shape} by {B.shape}")
    if not inner and A.shape != B.shape:
        raise ShapeMismatch(f"shapes differ: {A.shape} vs {B.shape}")


def mat_mul(A: QMatrix, B: QMatrix) -> QMatrix:
    _check_pair(A, B, inner=True)
    return QMatrix(A.Q, A.Q.lattice.join_products(A.Q.mul, A.data, B.data))


def mat_adjoint(A: QMatrix) -> QMatrix:
    return QMatrix(A.Q, A.Q.inv[A.data].T)


def mat_leq(A: QMatrix, B: QMatrix) -> bool:
    _check_pair(A, B, inner=False)
    return bool(A.Q.leq[A.data, B.data].all())


def mat_join(A: QMatrix, B: QMatrix) -> QMatrix:
    _check_pair(A, B, inner=False)
    return QMatrix(A.Q, A.Q.lattice.join_table[A.data, B.data])


class QSet:
    """A set of indices with a Q-valued partial equivalence matrix."""

    def __init__(self, Q: Quantale, matrix, labels: Sequence[str] | None = None):
        self.Q = Q
        self.A = QMatrix(Q, matrix)
        k = self.A.shape[0]
        if self.A.shape != (k, k):
            raise ShapeMismatch("a Q-set needs a square matrix")
        self.labels = [str(x) for x in labels] if labels is not None else [str(i) for i in range(k)]
        if len(self.labels) != k:
            raise ValueError("label count does not match index set")

    @property
    def size(self) -> int:
        return self.A.shape[0]

    def __repr__(self) -> str:
        return f"QSet(size={self.size})"


def _join_rows(lat: SupLattice, vals: np.ndarray) -> np.ndarray:
    """The join of each row of vals; x OR bottom = x, so join_products folds them."""
    return lat.join_products(lat.join_table, vals, np.full(vals.shape[1], lat.bottom))


def _verdict(**laws):
    """(True, None), or (False, (law, *cell)); each keyword is a law's violation array, in order."""
    w = first_bad_named(**laws)
    return w is None, w


def is_qset(X: QSet):
    """Laws self_adjoint, then idempotent; the witness is (law, a, b)."""
    return _verdict(self_adjoint=X.A.data != mat_adjoint(X.A).data,
                    idempotent=mat_mul(X.A, X.A).data != X.A.data)


def is_strict(X: QSet):
    """Strictness: the diagonal entry absorbs its row, a_aa a_ab = a_ab; ("strict", a, b)."""
    A = X.A.data
    return _verdict(strict=X.Q.mul[np.diagonal(A)[:, None], A] != A)


def quantal_set_conditions(X: QSet):
    """The extent/equality axioms; equivalent to is_qset + is_strict.

    Kept as an independent formulation for cross-checking: transitivity plus
    the extent absorption laws, after dropping redundancies, say exactly that
    the matrix is a strict Q-set once self-adjointness holds.  The right
    extent law a_ab <= a_ab a_bb is left_extent at (b, a) under symmetry, so
    it could never fail first and is not listed.
    """
    A, Q = X.A.data, X.Q
    mul, leq, d = Q.mul, Q.leq, np.diagonal(A)
    return _verdict(symmetry=Q.inv[A] != A.T,
                    left_extent=~leq[A, mul[d[:, None], A]],
                    transitivity=~leq[mul[A[:, :, None], A[None]], A[:, None, :]])   # [a, b, c]


def _check_endpoints(R: QMatrix, src: QSet, dst: QSet) -> None:
    if R.Q is not src.Q or src.Q is not dst.Q:
        raise QuantaleMismatch("relation endpoints live over different quantales")
    if R.shape != (dst.size, src.size):
        raise ShapeMismatch(f"relation must have shape {(dst.size, src.size)}")


def _relation_laws(R: QMatrix, src: QSet, dst: QSet) -> dict:
    """R : src -> dst is a matrix of shape (|dst|, |src|) with BR = R = RA."""
    _check_endpoints(R, src, dst)
    return {"left_absorption": mat_mul(dst.A, R).data != R.data,
            "right_absorption": mat_mul(R, src.A).data != R.data}


def _map_laws(F: QMatrix, src: QSet, dst: QSet) -> dict:
    """The relation laws, then single_valued (FF* <= B) and total (A <= F*F)."""
    leq, Fs = F.Q.leq, mat_adjoint(F)
    return _relation_laws(F, src, dst) | {
        "single_valued": ~leq[mat_mul(F, Fs).data, dst.A.data],
        "total": ~leq[src.A.data, mat_mul(Fs, F).data]}


def is_relation(R: QMatrix, src: QSet, dst: QSet):
    """Laws left_absorption (BR = R), then right_absorption (RA = R)."""
    return _verdict(**_relation_laws(R, src, dst))


def is_map(F: QMatrix, src: QSet, dst: QSet):
    return _verdict(**_map_laws(F, src, dst))


def is_strict_map(F: QMatrix, src: QSet, dst: QSet):
    """A map whose entries absorb the diagonals of both ends."""
    mul, f = F.Q.mul, F.data
    return _verdict(**_map_laws(F, src, dst),
                    source_strict=mul[f, np.diagonal(src.A.data)[None, :]] != f,
                    target_strict=mul[np.diagonal(dst.A.data)[:, None], f] != f)


def is_gelfand_map(F: QMatrix, src: QSet, dst: QSet):
    """A map with f <= f f* f in every entry."""
    Q, f = F.Q, F.data
    return _verdict(**_map_laws(F, src, dst), gelfand=~Q.leq[f, Q.mul[Q.mul[f, Q.inv[f]], f]])


def frame_map_conditions(F: QMatrix, src: QSet, dst: QSet):
    """Map axioms in frame language; over a frame they characterize maps.

    Laws entry_below_extents (b, a), substitution (b, a, b2, a2),
    single_valued (b, a, b2) and total (a,).  The endpoints are checked
    as is_map checks them.
    """
    _check_endpoints(F, src, dst)
    lat, f = F.Q.lattice, F.data
    mt, leq = lat.meet_table, lat.leq
    A, B = src.A.data, dst.A.data
    da, db = np.diagonal(A), np.diagonal(B)
    return _verdict(
        entry_below_extents=~leq[f, mt[db[:, None], da[None, :]]],
        substitution=~leq[mt[mt[f[:, :, None, None], A[None, :, None, :]], B[:, None, :, None]], f],
        single_valued=~leq[mt[f[:, :, None], f.T[None]], B[:, None, :]],
        total=~leq[da, _join_rows(lat, f.T)])


@dataclass
class Singleton:
    """A singleton column with every projection witnessing it."""

    column: tuple
    qs: tuple
    canonical_q: int


def _columns(Q: Quantale, A: np.ndarray) -> np.ndarray:
    """Every column s with a_ab s_b <= s_a and s_a s_b* <= a_ab, in lex order.

    Both inequalities are conjunctions over index pairs (a, b) of a
    condition on (s_a, s_b) alone.  The diagonal pairs restrict each s_a to
    its own value list; an off-diagonal pair is tested, both ways round, at
    position max(a, b), once both values are placed.
    """
    leq, mul, inv = Q.leq, Q.mul, Q.inv
    ar = np.arange(Q.n, dtype=np.intp)
    values = [ar[leq[mul[A[a, a], ar], ar] & leq[mul[ar, inv], A[a, a]]]
              for a in range(A.shape[0])]

    def consistent(b: int, P: np.ndarray, c: np.ndarray) -> np.ndarray:
        ok = np.ones((len(P), len(c)), dtype=bool)
        for a in range(b):
            u, v = P[:, a, None], c[None, :]        # s_a, s_b
            ok &= (leq[mul[A[a, b], v], u] & leq[mul[u, inv[v]], A[a, b]]
                   & leq[mul[A[b, a], u], v] & leq[mul[v, inv[u]], A[b, a]])
        return ok

    return lex_solutions(values, consistent)


def singletons(X: QSet) -> list[Singleton]:
    """All singleton columns of a Q-set, each with its projection witnesses.

    The quantale must be stably Gelfand (NotStablyGelfand otherwise).  Then
    the column conditions reduce to the two inequalities of _columns.  A
    projection q witnesses the column S when Sq = S and q <= S*S, and q =
    S*S always does: a theorem, re-checked here, that gives canonical_q.
    """
    Q, A = X.Q, X.A.data
    NotStablyGelfand.check("stably_gelfand", _gelfand_witnesses(Q)["stably_gelfand"])
    S = _columns(Q, A)                              # one column per row
    P = np.array(projections(Q), dtype=np.intp)
    ss = _join_rows(Q.lattice, Q.mul[Q.inv[S], S])  # S*S of each column
    ok = (Q.mul[S[:, :, None], P] == S[:, :, None]).all(axis=1) & Q.leq[P, ss[:, None]]
    TheoremViolation.check("canonical_witness", first_bad(~(ok & (P == ss[:, None])).any(axis=1)))
    return [Singleton(tuple(s), tuple(P[w].tolist()), q)
            for s, w, q in zip(S.tolist(), ok, ss.tolist())]


@dataclass
class Completion:
    """Completion of a Q-set: all singletons with the dot-product matrix."""

    qset: QSet
    singleton_list: list[Singleton]
    column_map: list[int]  # source index -> position of its column among the singletons
    is_complete: bool
    unitary: QMatrix  # rows are the adjoints of the singleton columns


def completion(X: QSet) -> Completion:
    NotAQSet.check("qset", is_qset(X)[1])
    Q, A = X.Q, X.A.data
    k = X.size
    sings = singletons(X)
    index = {s.column: i for i, s in enumerate(sings)}
    column_map = []
    for a in range(k):
        col = tuple(int(v) for v in A[:, a])
        TheoremViolation.check("column_is_singleton", None if col in index else (a,))
        column_map.append(index[col])
    complete = len(column_map) == len(set(column_map)) == len(sings)

    m = len(sings)
    cols = np.array([s.column for s in sings], dtype=np.intp).reshape(m, k)
    hat = Q.lattice.join_products(Q.mul, Q.inv[cols], cols.T)
    hat_qset = QSet(Q, hat, labels=[f"s{i}" for i in range(m)])
    TheoremViolation.check("completion_is_qset", is_qset(hat_qset)[1])
    return Completion(hat_qset, sings, column_map, complete, QMatrix(Q, Q.inv[cols]))


def random_qset(Q: Quantale, size: int, rng: np.random.Generator,
                max_entry: int | None = None) -> QSet:
    """Random Q-set over a stably Gelfand quantale.

    Draws a random matrix, symmetrizes it, and closes it under A v AA until
    the matrix is a fixpoint; over a stably Gelfand quantale the fixpoint is
    exactly idempotent, which is checked.
    """
    hi = Q.n if max_entry is None else min(Q.n, max_entry)
    data = rng.integers(0, hi, size=(size, size))
    M = QMatrix(Q, data)
    M = mat_join(M, mat_adjoint(M))
    while True:
        nxt = mat_join(M, mat_mul(M, M))
        if nxt == M:
            break
        M = nxt
    X = QSet(Q, M.data)
    TheoremViolation.check("fixpoint_is_qset", is_qset(X)[1])
    return X
