"""Q-valued matrices, Q-sets, relations and maps, singletons, completion.

A Q-valued matrix is a dense array of element indices of a fixed quantale.
Q-sets are the self-adjoint idempotent square matrices; their morphisms are
the functional relations between them.  Everything here is desk scale: index
sets of a handful of elements, exhaustive loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .laws import TheoremViolation, Violation, first_bad, lex_solutions
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


def is_qset(X: QSet):
    """(ok, witness); witness = (law, alpha, beta) for the lex-first failure."""
    A = X.A.data
    w = first_bad(A != mat_adjoint(X.A).data)
    if w is not None:
        return False, ("self_adjoint",) + w
    w = first_bad(mat_mul(X.A, X.A).data != A)
    if w is not None:
        return False, ("idempotent",) + w
    return True, None


def is_strict(X: QSet):
    """Strictness: the diagonal entry absorbs its row, a_aa a_ab = a_ab."""
    A, mul = X.A.data, X.Q.mul
    k = X.size
    diag = A[np.arange(k), np.arange(k)]
    w = first_bad(mul[diag[:, None], A] != A)
    return w is None, w


def quantal_set_conditions(X: QSet):
    """The extent/equality axioms; equivalent to is_qset + is_strict.

    Kept as an independent formulation for cross-checking: transitivity plus
    the extent absorption laws, after dropping redundancies, say exactly that
    the matrix is a strict Q-set once self-adjointness holds.
    """
    A, Q = X.A.data, X.Q
    mul, leq, inv = Q.mul, Q.leq, Q.inv
    k = X.size
    for a in range(k):
        for b in range(k):
            if inv[A[a, b]] != A[b, a]:
                return False, ("symmetry", a, b)
            if not leq[A[a, b], mul[A[a, a], A[a, b]]]:
                return False, ("left_extent", a, b)
            if not leq[A[a, b], mul[A[a, b], A[b, b]]]:
                return False, ("right_extent", a, b)
            for c in range(k):
                if not leq[mul[A[a, b], A[b, c]], A[a, c]]:
                    return False, ("transitivity", a, b, c)
    return True, None


def is_relation(R: QMatrix, src: QSet, dst: QSet):
    """R : src -> dst is a matrix of shape (|dst|, |src|) with BR = R = RA."""
    if R.Q is not src.Q or src.Q is not dst.Q:
        raise QuantaleMismatch("relation endpoints live over different quantales")
    if R.shape != (dst.size, src.size):
        raise ShapeMismatch(f"relation must have shape {(dst.size, src.size)}")
    if mat_mul(dst.A, R) != R:
        return False, "left_absorption"
    if mat_mul(R, src.A) != R:
        return False, "right_absorption"
    return True, None


def is_map(F: QMatrix, src: QSet, dst: QSet):
    ok, why = is_relation(F, src, dst)
    if not ok:
        return False, why
    if not mat_leq(mat_mul(F, mat_adjoint(F)), dst.A):
        return False, "single_valued"
    if not mat_leq(src.A, mat_mul(mat_adjoint(F), F)):
        return False, "total"
    return True, None


def is_strict_map(F: QMatrix, src: QSet, dst: QSet):
    ok, why = is_map(F, src, dst)
    if not ok:
        return False, why
    mul = F.Q.mul
    A, B, f = src.A.data, dst.A.data, F.data
    ka, kb = src.size, dst.size
    da = A[np.arange(ka), np.arange(ka)]
    db = B[np.arange(kb), np.arange(kb)]
    if (mul[f, da[None, :]] != f).any():
        return False, "source_strict"
    if (mul[db[:, None], f] != f).any():
        return False, "target_strict"
    return True, None


def is_gelfand_map(F: QMatrix, src: QSet, dst: QSet):
    ok, why = is_map(F, src, dst)
    if not ok:
        return False, why
    Q = F.Q
    f = F.data
    fff = Q.mul[Q.mul[f, Q.inv[f]], f]
    if not Q.leq[f, fff].all():
        return False, "gelfand"
    return True, None


def frame_map_conditions(F: QMatrix, src: QSet, dst: QSet):
    """Map axioms in frame language; over a frame they characterize maps."""
    Q = F.Q
    mt, leq = Q.lattice.meet_table, Q.leq
    A, B, f = src.A.data, dst.A.data, F.data
    I, J = range(src.size), range(dst.size)
    for b in J:
        for a in I:
            if not leq[f[b, a], mt[A[a, a], B[b, b]]]:
                return False, ("entry_below_extents", b, a)
            for b2 in J:
                for a2 in I:
                    if not leq[mt[mt[f[b, a], A[a, a2]], B[b, b2]], f[b2, a2]]:
                        return False, ("substitution", b, a, b2, a2)
            for b2 in J:
                if not leq[mt[f[b, a], f[b2, a]], B[b, b2]]:
                    return False, ("single_valued", b, a, b2)
    for a in I:
        if not leq[A[a, a], Q.join([f[b, a] for b in J])]:
            return False, ("total", a)
    return True, None


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


def _attach_witnesses(Q: Quantale, A: np.ndarray, col: tuple) -> Singleton | None:
    s = np.asarray(col, dtype=np.intp)
    ss = Q.join(Q.mul[Q.inv[s], s])
    qs = []
    for q in projections(Q):
        if (Q.mul[s, q] == s).all() and Q.leq[q, ss]:
            qs.append(q)
    if not qs:
        return None
    canonical = int(ss) if int(ss) in qs else qs[0]
    return Singleton(col, tuple(qs), canonical)


def singletons(X: QSet) -> list[Singleton]:
    """All singleton columns of a Q-set, each with its projection witnesses.

    The quantale must be stably Gelfand (NotStablyGelfand otherwise).  Then
    the column conditions reduce to the two inequalities of _columns, and
    q = S*S always witnesses the column.
    """
    Q, A = X.Q, X.A.data
    NotStablyGelfand.check("stably_gelfand", _gelfand_witnesses(Q)["stably_gelfand"])
    out = []
    for col in _columns(Q, A).tolist():
        item = _attach_witnesses(Q, A, tuple(col))
        TheoremViolation.check("singleton_has_projection",
                               None if item is not None else tuple(col))
        out.append(item)
    return out


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
