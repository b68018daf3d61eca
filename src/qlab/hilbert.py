"""Hilbert-style modules over involutive quantales.

Carriers are explicit finite sup-lattices and every structure map (action,
inner product, homomorphism) is a dense integer table, so all axioms are
decided exactly, the cubic ones on join-irreducible generators (qlab.laws).
The central construction is module_from_qset, which materializes the module
of "row combinations" of a Q-valued matrix together with its row basis;
everything else (adjoints, the matrix functor M, supports, local sections)
is built on top of it.  Its carrier is an array of vectors in closure order (zero,
scaled rows, joins of vector i with 0..i); _RowIndex tells rows apart by searchsorted,
and the closure's joins give the carrier's order.  Its action and inner product
are computed on join-irreducible scalars and vectors and join-extended.
stacked_homs decides which tables of a stack are module homs and direct
images; its premises and the adjoint identity are re-checked theorems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .laws import TheoremViolation, Violation, first_bad, first_violation, holds_on
from .lattice import SupLattice
from .qmatrix import (NotAQSet, QMatrix, QSet, completion, is_qset, is_relation, mat_adjoint,
                      mat_mul)
from .quantale import NotAQuantale, Quantale, ValidationReport, support


class CarrierTooLarge(RuntimeError):
    """Raised when the module carrier closure exceeds CARRIER_CAP vectors."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"carrier closure exceeded cap ({size} > {cap})")
        self.size = size
        self.cap = cap


CARRIER_CAP = 1 << 13   # cap on the carrier closure of module_from_qset


class AdjointIdentityFails(Violation):
    """The computed adjoint does not satisfy <phi(x),y> = <x,adj(y)>."""

    message = "adjoint identity fails at {witness}"


class NotEnoughSections(Violation):
    """The Hilbert sections of the module do not reconstruct some element."""

    message = "element {witness} is not a join of its section parts"


class NotARelation(Violation):
    """The matrix is not a relation between the two Q-sets; witness = is_relation's."""

    message = "H is not a relation into M(Y): {witness[0]} fails at ({witness[1]}, {witness[2]})"


class SupportAxiomFails(Violation):
    """sup(x) = <x,x> AND e breaks an axiom of a support."""

    message = "support axiom {law} fails at {witness}"


class NotAPreHilbert(Violation):
    """A law of a pre-Hilbert module fails on an input module.

    The message lists the witness bare, as `check` has always reported a
    module's first failed law.
    """

    def __str__(self) -> str:
        return f"{self.law} fails at {', '.join(map(str, self.witness))}"


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One void scalar per row of a contiguous 2-D intp array; equal keys are equal rows."""
    if not rows.shape[1]:                     # every empty row is the same row
        return np.zeros(len(rows), dtype="V1")
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


class _RowIndex:
    """Where each row of a 2-D intp table first occurs: rows are keyed by a void
    view of their bytes, sorted once (stably, so equal rows keep their first
    position) and found by one searchsorted."""

    def __init__(self, table):
        self.table = np.ascontiguousarray(table, dtype=np.intp)
        self.order = np.argsort(_row_keys(self.table), kind="stable")
        self.sorted = self.table[self.order]
        self.keys = _row_keys(self.sorted)

    def find(self, rows) -> np.ndarray:
        """The first position of each row of rows in the table, -1 where it is absent."""
        rows = np.ascontiguousarray(rows, dtype=np.intp)
        pos = np.minimum(np.searchsorted(self.keys, _row_keys(rows)), len(self.keys) - 1)
        return np.where((self.sorted[pos] == rows).all(axis=1), self.order[pos], -1)

    def extended(self, rows) -> tuple["_RowIndex", np.ndarray]:
        """The index of the table with the rows it lacks appended where they
        first occur, and the position of every row of rows in that table."""
        pos = self.find(rows)
        new = pos < 0
        if not new.any():
            return self, pos
        fresh = rows[new]
        first = _RowIndex(fresh).find(fresh)       # each fresh row's first occurrence
        keep = first == np.arange(len(fresh))
        pos[new] = len(self.table) + (np.cumsum(keep) - 1)[first]
        return _RowIndex(np.concatenate([self.table, fresh[keep]])), pos


class PreHilbertModule:
    """A left Q-module on a sup-lattice, action[a, x] = a.x, with a Q-valued
    inner product table ip[x, y]."""

    def __init__(self, quantale: Quantale, carrier: SupLattice, action, ip):
        action = np.ascontiguousarray(np.asarray(action, dtype=np.intp))
        ip = np.ascontiguousarray(np.asarray(ip, dtype=np.intp))
        n = carrier.n
        if action.shape != (quantale.n, n):
            raise ValueError("action table must be n_Q x n_X")
        if action.min() < 0 or action.max() >= n:
            raise ValueError("action entries out of range")
        if ip.shape != (n, n):
            raise ValueError("inner product table must be n_X x n_X")
        if ip.min() < 0 or ip.max() >= quantale.n:
            raise ValueError("inner product entries out of range")
        self.quantale = quantale
        self.carrier = carrier
        self.action = action
        self.ip = ip
        self.n = n

    @cached_property
    def left_linearity(self) -> dict:
        """Witnesses that <-, y> preserves binary joins and the bottom, None = holds.

        ip_join_left is SupLattice.join_witness.  Computed once per module:
        the two laws are premises of the reduced ip_scalar_left check and of
        the reduced adjoint identity.
        """
        lat, ip, Q = self.carrier, self.ip, self.quantale
        return {
            "ip_join_left": lat.join_witness(ip, Q.lattice),
            "ip_bottom_left": first_bad(ip[lat.bottom] != Q.bottom),
        }

    @cached_property
    def prehilbert_report(self) -> "PreHilbertReport":
        """validate_prehilbert(self), computed once per module; every validation reads it."""
        return validate_prehilbert(self)

    def __repr__(self) -> str:
        return f"PreHilbertModule(|Q|={self.quantale.n}, |X|={self.n})"


def module_over_self(Q: Quantale) -> PreHilbertModule:
    """Q as a module over itself with <a, b> = a b*."""
    return PreHilbertModule(Q, Q.lattice, Q.mul, Q.mul[:, Q.inv])


def validate_module(M: PreHilbertModule) -> ValidationReport:
    """Check the left-module laws (binary joins + bottom) exactly.

    Join preservation in each argument is SupLattice.join_witness.  Once
    those laws, their bottom laws and the bilinearity of the product hold,
    (ab)x = a(bx) is trilinear and is checked on join-irreducible a, b and x.
    """
    Q, X, act = M.quantale, M.carrier, M.action
    JQ = np.asarray(Q.lattice.join_irreducibles, dtype=np.intp)
    JX = X.join_irreducibles
    linearity = {
        "action_join_scalar": Q.lattice.join_witness(act, X),
        "action_bottom_scalar": first_bad(act[Q.bottom] != X.bottom),
        "action_join_element": X.join_witness(act, X, axis=1),
        "action_bottom_element": first_bad(act[:, X.bottom] != X.bottom),
    }
    linear = Q.bilinear and all(w is None for w in linearity.values())
    mJJ = Q.mul[np.ix_(JQ, JQ)]
    product = linear and holds_on(lambda x: act[mJJ, x] != act[np.ix_(JQ, act[JQ, x])], JX)

    laws = {"action_product": first_violation(lambda a: act[Q.mul[a]] != act[a][act],
                                              range(Q.n), product)}
    laws.update(linearity)

    if Q.unit is not None:
        laws["action_unit"] = first_bad(act[Q.unit] != np.arange(X.n, dtype=np.intp))
    return ValidationReport(laws)


@dataclass
class PreHilbertReport(ValidationReport):
    """Axiom table for a pre-Hilbert module; non-degeneracy kept separate.

    `ok` covers the pre-Hilbert axioms only: a degenerate inner product is
    still a valid pre-Hilbert module, just not a Hilbert one.
    """

    non_degenerate: bool
    degeneracy_witness: tuple | None


def validate_prehilbert(X: PreHilbertModule) -> PreHilbertReport:
    """Check the module laws and the inner-product laws exactly.

    <x OR x', y> = <x,y> OR <x',y> is PreHilbertModule.left_linearity.  Once
    the module and product laws and the left join and bottom laws of the
    inner product hold, <ax, y> = a<x,y> preserves finite joins in a and x
    and is checked on join-irreducible a and x.  The right-hand law
    <x, ay> = <x,y>a* then follows from it, symmetry and the involution
    being an anti-homomorphism: <x, ay> = (a<y,x>)* = <x,y>a*.  Any law
    that fails its reduced check is scanned exhaustively for its witness.
    """
    Q, lat, act, ip = X.quantale, X.carrier, X.action, X.ip
    mul, inv = Q.mul, Q.inv
    JQ = np.asarray(Q.lattice.join_irreducibles, dtype=np.intp)
    laws = validate_module(X).laws
    module_linear = Q.bilinear and all(
        laws[k] is None for k in ("action_join_scalar", "action_bottom_scalar",
                                  "action_join_element", "action_bottom_element"))

    left_linear = all(w is None for w in X.left_linearity.values())
    scalar_left = (module_linear and left_linear and holds_on(
        lambda x: ip[act[JQ, x]] != mul[np.ix_(JQ, ip[x])], lat.join_irreducibles))
    laws["ip_scalar_left"] = first_violation(lambda a: ip[act[a]] != mul[a][ip],
                                             range(Q.n), scalar_left)
    laws.update(X.left_linearity)
    laws["ip_symmetry"] = first_bad(ip != inv[ip].T)

    scalar_right = (laws["ip_scalar_left"] is None and laws["ip_symmetry"] is None
                    and bool((inv[mul] == mul[np.ix_(inv, inv)].T).all()))
    laws["ip_scalar_right"] = first_violation(lambda a: ip[:, act[a]] != mul[ip, inv[a]],
                                              range(Q.n), scalar_right)

    first = _RowIndex(ip).find(ip)            # x's row first occurs at first[x]
    w = first_bad(first != np.arange(X.n))
    degen = None if w is None else (int(first[w[0]]), w[0])
    return PreHilbertReport(laws, degen is None, degen)


def hilbert_sections(X: PreHilbertModule) -> np.ndarray:
    """All s with <x,s>s <= x for every x, in carrier order."""
    ar = np.arange(X.n, dtype=np.intp)
    return np.flatnonzero(X.carrier.leq[X.action[X.ip, ar], ar[:, None]].all(axis=0))


def reconstruct(X: PreHilbertModule, sigma) -> np.ndarray:
    """r[x] = join over s in sigma of <x,s>s."""
    sigma = np.asarray(sigma, dtype=np.intp)
    return X.carrier.join_products(X.action, X.ip[:, sigma], sigma)


def is_hilbert_basis(X: PreHilbertModule, sigma) -> tuple[bool, int | None]:
    w = first_bad(reconstruct(X, sigma) != np.arange(X.n, dtype=np.intp))
    return (True, None) if w is None else (False, w[0])


def has_enough_sections(X: PreHilbertModule):
    """(ok, sections, witness): do the Hilbert sections form a basis?"""
    secs = hilbert_sections(X)
    ok, witness = is_hilbert_basis(X, secs)
    return ok, secs, witness


def parseval_check(X: PreHilbertModule, sigma):
    """First (x, y) where <x,y> != join_s <x,s><s,y>, or None."""
    Q, ip, sigma = X.quantale, X.ip, np.asarray(sigma, dtype=np.intp)
    return first_bad(Q.lattice.join_products(Q.mul, ip[:, sigma], ip[sigma]) != ip)


@dataclass(eq=False)
class ModuleHom:
    source: PreHilbertModule
    target: PreHilbertModule
    map: np.ndarray

    def __post_init__(self):
        self.map = np.ascontiguousarray(np.asarray(self.map, dtype=np.intp))
        if self.map.shape != (self.source.n,):
            raise ValueError("hom table must have one entry per source element")
        if self.map.min() < 0 or self.map.max() >= self.target.n:
            raise ValueError("hom entries out of range")

    def same_table(self, other: "ModuleHom") -> bool:
        return np.array_equal(self.map, other.map)


def identity_hom(X: PreHilbertModule) -> ModuleHom:
    return ModuleHom(X, X, np.arange(X.n, dtype=np.intp))


def hom_compose(psi: ModuleHom, phi: ModuleHom) -> ModuleHom:
    """psi after phi."""
    return ModuleHom(phi.source, psi.target, psi.map[phi.map])


def is_module_hom(phi: ModuleHom):
    """(ok, witness) for join/bottom/action preservation.

    Join preservation is SupLattice.join_witness.
    """
    Xs, Xt, f = phi.source, phi.target, phi.map
    w = Xs.carrier.join_witness(f, Xt.carrier)
    if w is not None:
        return False, ("join",) + w
    if f[Xs.carrier.bottom] != Xt.carrier.bottom:
        return False, ("bottom",)
    nq = Xs.quantale.n
    lhs = f[Xs.action]
    rhs = Xt.action[np.arange(nq, dtype=np.intp)[:, None], f[None, :]]
    w = first_bad(lhs != rhs)
    if w is not None:
        return False, ("action",) + w
    return True, None


def adjoint(phi: ModuleHom, sigma=None) -> ModuleHom:
    """The unique adj with <phi(x),y> = <x,adj(y)>, via a basis of the source.

    adj(y) = join over basis elements t of <y, phi(t)> t.  For fixed y both
    sides of the identity preserve finite joins in x once phi preserves
    joins (decided on join-irreducibles) and the bottom, and both modules
    satisfy ip_join_left and ip_bottom_left (PreHilbertModule.left_linearity,
    memoized).  Then the identity is checked on join-irreducible x only;
    otherwise, or when that check fails, every x is scanned for the
    lex-first witness (x, y) of AdjointIdentityFails.  NotEnoughSections
    when sigma is not a Hilbert basis of the source.
    """
    Xs, Xt = phi.source, phi.target
    sigma = hilbert_sections(Xs) if sigma is None else np.asarray(sigma, dtype=np.intp)
    NotEnoughSections.check("hilbert_basis", is_hilbert_basis(Xs, sigma)[1])
    f = phi.map
    out = Xs.carrier.join_products(Xs.action, Xt.ip[:, f[sigma]], sigma)

    def bad(x):                   # [y]: <phi(x), y> != <x, adj(y)>
        return Xt.ip[f[x]] != Xs.ip[x, out]

    premises = [*Xs.left_linearity.values(), *Xt.left_linearity.values()]
    proved = (all(w is None for w in premises)
              and f[Xs.carrier.bottom] == Xt.carrier.bottom
              and Xs.carrier.join_witness(f, Xt.carrier) is None
              and holds_on(bad, Xs.carrier.join_irreducibles))
    AdjointIdentityFails.check("adjoint_identity", first_violation(bad, range(Xs.n), proved))
    return ModuleHom(Xt, Xs, out)


def is_direct_image(phi: ModuleHom, dag: ModuleHom | None = None) -> bool:
    """Galois pair test: phi . dag <= id and id <= dag . phi."""
    if dag is None:
        dag = adjoint(phi)
    Xs, Xt = phi.source, phi.target
    ar_t = np.arange(Xt.n, dtype=np.intp)
    ar_s = np.arange(Xs.n, dtype=np.intp)
    return bool(Xt.carrier.leq[phi.map[dag.map], ar_t].all()
                and Xs.carrier.leq[ar_s, dag.map[phi.map]].all())


_STACK_CELLS = 1 << 20    # cells of stacked_homs' largest temporary per chunk of tables


def stacked_homs(Xs: PreHilbertModule, Xt: PreHilbertModule, tables, sigma):
    """(hom, direct): which tables Xs -> Xt are module homs, and direct images.

    hom is is_module_hom and direct is_direct_image, row by row, for sigma a
    Hilbert basis of Xs (the caller checks it).  The premises, a
    distributive source carrier and both modules passing
    validate_prehilbert, are theorem checks.  Then a table preserves binary
    joins iff it equals its extension (SupLattice.extension); f(ax) = af(x)
    is bilinear and is checked on join-irreducible a and x; every hom has
    the adjoint adj(y) = join over t in sigma of <y, f(t)> t, computed on
    join-irreducible y and join-extended, and its identity (a theorem,
    witness (row, x, y)) is checked on join-irreducible x, as adjoint does;
    f adj <= id <= adj f holds iff it holds on join-irreducibles.  Tables
    are taken in chunks of at most _STACK_CELLS cells per temporary.
    """
    S, T = Xs.carrier, Xt.carrier
    TheoremViolation.check("distributive_source", None if S.distributive else S.is_frame()[1])
    for X in (Xs, Xt):
        TheoremViolation.check("prehilbert_laws", X.prehilbert_report.failures() or None)
    tables = np.asarray(tables, dtype=np.intp)
    hom, direct = np.zeros(len(tables), dtype=bool), np.zeros(len(tables), dtype=bool)
    sigma = np.asarray(sigma, dtype=np.intp)
    JQ = np.asarray(Xs.quantale.lattice.join_irreducibles, dtype=np.intp)
    JS = np.asarray(S.join_irreducibles, dtype=np.intp)
    JT = np.asarray(T.join_irreducibles, dtype=np.intp)
    gen_act = Xs.action[np.ix_(JQ, JS)]                 # [a, x] = a.x on generators
    step = max(1, _STACK_CELLS // max(Xs.n, len(JS) * Xt.n, len(JQ) * len(JS),
                                      len(JT) * len(sigma)))
    for r in range(0, len(tables), step):
        f = tables[r:r + step]
        c = np.arange(len(f))[:, None]
        ok = ((S.extension(f, T, axis=1) == f).all(axis=1)
              & (f[:, S.bottom] == T.bottom)
              & (f[:, gen_act] == Xt.action[JQ[:, None], f[:, None, JS]]).all(axis=(1, 2)))
        hom[r:r + step] = ok
        coeffs = Xt.ip[JT[None, :, None], f[:, None, sigma]]          # [., y, t] = <y, f(t)>
        dag = S.join_products(Xs.action, coeffs.reshape(len(f) * len(JT), len(sigma)), sigma)
        dag = T.join_extend(dag.reshape(len(f), len(JT)).T, S).T
        w = first_bad(ok[:, None, None]                               # [., x, y]
                      & (Xt.ip[f[:, JS]] != Xs.ip[JS[None, :, None], dag[:, None, :]]))
        TheoremViolation.check("adjoint_identity",
                               None if w is None else (r + w[0], int(JS[w[1]]), w[2]))
        direct[r:r + step] = (ok & T.leq[f[c, dag[:, JT]], JT].all(axis=1)
                              & S.leq[JS, dag[c, f[:, JS]]].all(axis=1))
    return hom, direct


@dataclass(eq=False)
class MatrixModule:
    """Q^I A: the row-combination module of a Q-set matrix, with row basis."""

    module: PreHilbertModule
    qset: QSet
    vectors: np.ndarray          # (m, |I|) carrier elements as coordinate vectors
    rows: np.ndarray             # (|I|,) carrier index of each matrix row

    def vector_index(self, vecs):
        """The carrier index of a (|I|,) vector, or the indices of an (N, |I|) stack."""
        found = _RowIndex(self.vectors).find(np.atleast_2d(vecs))
        if np.min(found, initial=0) < 0:
            raise KeyError("vector is not in the carrier")
        return int(found[0]) if np.ndim(vecs) == 1 else found


def _vector_labels(Q: Quantale, vectors: np.ndarray) -> list[str]:
    if vectors.shape[1] <= 4:
        return ["(" + ",".join(Q.label(int(c)) for c in vec) + ")" for vec in vectors]
    return [f"v{i}" for i in range(len(vectors))]


def module_from_qset(Q: Quantale, X: QSet) -> MatrixModule:
    """Materialize Q^I A = {vA} as a pre-Hilbert module with its row basis.

    The carrier closes the scaled rows under binary joins, in this order:
    the zero vector; the new q . row_a, q ascending, one row a at a time
    (CarrierTooLarge(size, CARRIER_CAP) past CARRIER_CAP, read per call);
    then for i = 0, 1, ... the new joins of vector i with vectors 0..i,
    each where it first occurs (CarrierTooLarge(CARRIER_CAP + 1,
    CARRIER_CAP)).  Where each of those joins lands is the carrier's join
    table, so x <= y iff x OR y = y; SupLattice checks that it is the lub
    table rather than search it again.  The tables are
    built on generators, which needs the product to be bilinear and the
    involution to preserve finite joins (NotAQuantale otherwise): a . v is
    looked up for join-irreducible a only, and join-extended over Q; the
    inner product <v, w> = join_a v_a w_a* is computed for join-irreducible
    w only, and join-extended over the carrier.  A vector a . v missing
    from the carrier is looked up for every a, for the lex-first witness
    of carrier_closed_under_action.  The pre-Hilbert laws, <v, row_b> =
    v_b, <row_a, row_b> = a_ab and the rows being a Hilbert basis are
    re-checked.
    """
    NotAQSet.check("qset", is_qset(X)[1])
    lat, mul, inv = Q.lattice, Q.mul, Q.inv
    premises = {**Q.linearity, "involution_join": lat.join_witness(inv, lat),
                "involution_bottom": None if inv[Q.bottom] == Q.bottom else (Q.bottom,)}
    ValidationReport(premises).require(NotAQuantale)
    A = X.A.data

    index = _RowIndex(np.full((1, X.size), Q.bottom))
    for alpha in range(X.size):
        index = index.extended(mul[:, A[alpha]])[0]
    if len(index.table) > CARRIER_CAP:
        raise CarrierTooLarge(len(index.table), CARRIER_CAP)
    joins = []                                  # joins[i][k] = carrier index of v_i OR v_k
    while len(joins) < len(arr := index.table):
        i = len(joins)
        index, pos = index.extended(lat.join_table[arr[i], arr[:i + 1]])
        joins.append(pos)
        if len(index.table) > CARRIER_CAP:
            raise CarrierTooLarge(CARRIER_CAP + 1, CARRIER_CAP)
    m = len(arr)
    jt = np.empty((m, m), dtype=np.intp)
    for i, pos in enumerate(joins):
        jt[i, :i + 1] = jt[:i + 1, i] = pos
    carrier = SupLattice(jt == np.arange(m), _vector_labels(Q, arr), join_table=jt)

    JQ, JX = lat.join_irreducibles, carrier.join_irreducibles
    act = np.array([index.find(mul[a][arr]) for a in JQ], dtype=np.intp).reshape(len(JQ), m)
    if (act < 0).any():
        act = np.stack([index.find(mul[a][arr]) for a in range(Q.n)])
        TheoremViolation.check("carrier_closed_under_action", first_bad(act < 0))
    act = lat.join_extend(act, carrier)
    rows = index.find(A)
    TheoremViolation.check("rows_in_carrier", first_bad(rows < 0))

    ip = carrier.join_extend(lat.join_products(mul, arr, inv[arr[JX]].T).T, Q.lattice).T
    mod = PreHilbertModule(Q, carrier, act, ip)

    check_prehilbert(mod)
    TheoremViolation.check("row_projection", first_bad(ip[:, rows] != arr))  # <v, row_b> = v_b
    TheoremViolation.check("row_entries", first_bad(ip[np.ix_(rows, rows)] != A))  # = a_ab
    TheoremViolation.check("rows_are_a_basis", is_hilbert_basis(mod, rows)[1])
    return MatrixModule(mod, X, arr, rows)


def check_prehilbert(X: PreHilbertModule) -> None:
    """Re-check that a constructed module is a non-degenerate pre-Hilbert module."""
    TheoremViolation.check("prehilbert_laws", X.prehilbert_report.failures() or None)
    TheoremViolation.check("non_degenerate", X.prehilbert_report.degeneracy_witness)


def qset_from_basis(X: PreHilbertModule, sigma) -> QSet:
    """The Q-set (sigma, <s, t>) induced by a Hilbert basis of a pre-Hilbert module."""
    sigma = np.asarray(sigma, dtype=np.intp)
    NotEnoughSections.check("hilbert_basis", is_hilbert_basis(X, sigma)[1])
    X.prehilbert_report.require(NotAPreHilbert)      # the premise of basis_qset
    labels = [X.carrier.labels[int(s)] for s in sigma]
    qs = QSet(X.quantale, X.ip[np.ix_(sigma, sigma)], labels)
    TheoremViolation.check("basis_qset", is_qset(qs)[1])
    return qs


@dataclass
class RepresentationReport:
    """Canonical factorization X -> Q^Sigma A_Sigma and its verdict."""

    matrix_module: MatrixModule
    map: np.ndarray
    checks: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def representation_report(X: PreHilbertModule, sigma) -> RepresentationReport:
    """Check X ~ Q^Sigma A_Sigma via x |-> (<x,s>)_s for a verified basis."""
    sigma = np.asarray(sigma, dtype=np.intp)
    mm = module_from_qset(X.quantale, qset_from_basis(X, sigma))
    psi = mm.vector_index(X.ip[:, sigma])
    return RepresentationReport(mm, psi, canonical_map_checks(X, mm.module, psi))


def canonical_map_checks(X: PreHilbertModule, N: PreHilbertModule, psi: np.ndarray) -> dict:
    """Whether the table psi: X -> N is a unitary isomorphism, claim by claim.

    The four verdicts: psi is a bijection, preserves binary joins, commutes
    with the action, and preserves the inner product.
    """
    nq = np.arange(X.quantale.n, dtype=np.intp)
    return {
        "bijective": X.n == N.n and len(set(psi.tolist())) == X.n,
        "join": X.carrier.join_witness(psi, N.carrier) is None,
        "action": bool((psi[X.action] == N.action[nq[:, None], psi[None, :]]).all()),
        "unitary": bool((N.ip[np.ix_(psi, psi)] == X.ip).all()),
    }


def section_relation(mm: MatrixModule) -> QMatrix:
    """Rows-of-sections matrix R with R R* = A_X and R* R = A."""
    N = mm.module
    Q = N.quantale
    secs = hilbert_sections(N)
    R = QMatrix(Q, mm.vectors[secs])
    Rstar = mat_adjoint(R)
    TheoremViolation.check("sections_times_adjoint",
                           first_bad(mat_mul(R, Rstar).data != N.ip[np.ix_(secs, secs)]))
    TheoremViolation.check("adjoint_times_sections",
                           first_bad(mat_mul(Rstar, R).data != mm.qset.A.data))
    return R


def functor_M_object(X: PreHilbertModule) -> tuple[QSet, np.ndarray]:
    """M(X) = (Sigma_X, <s,t>) for a module with enough sections."""
    secs = hilbert_sections(X)
    return qset_from_basis(X, secs), secs      # NotEnoughSections unless secs is a basis


def functor_M(phi: ModuleHom) -> QMatrix:
    """Matrix of a hom: rows over Sigma_target, columns over Sigma_source."""
    MX, secs_s = functor_M_object(phi.source)
    MY, secs_t = functor_M_object(phi.target)
    data = phi.target.ip[np.ix_(secs_t, phi.map[secs_s])]
    out = QMatrix(phi.target.quantale, data)
    TheoremViolation.check("hom_matrix_is_relation", is_relation(out, MX, MY)[1])
    return out


def hom_from_relation(mm: MatrixModule, Y: PreHilbertModule, H: QMatrix) -> ModuleHom:
    """The unique hom Q^I A -> Y whose matrix composed with the row
    relation of Q^I A reproduces H.

    phi(v) = join over s in I, t in Sigma_Y of v_s h_ts* t.
    """
    Q = Y.quantale
    MY, secs_t = functor_M_object(Y)
    NotARelation.check("relation", is_relation(H, mm.qset, MY)[1])
    # coefficients in (s, t) order: v_s h_ts* on section secs_t[t]
    coeffs = Q.mul[mm.vectors[:, :, None], Q.inv[H.data.T][None, :, :]]
    out = Y.carrier.join_products(Y.action, coeffs.reshape(mm.module.n, -1),
                                  np.tile(secs_t, mm.qset.size))
    phi = ModuleHom(mm.module, Y, out)
    TheoremViolation.check("relation_gives_a_hom", is_module_hom(phi)[1])
    TheoremViolation.check("hom_matrix_round_trip",
                           first_bad(mat_mul(functor_M(phi), section_relation(mm)).data != H.data))
    return phi


@dataclass
class SupportedModule:
    """A verified supported module: sup(x) = <x,x> AND e, always stable."""

    module: PreHilbertModule
    sup: np.ndarray
    conditions: dict

    @property
    def stable(self) -> bool:
        return self.conditions["equivariance"]


def module_support(X: PreHilbertModule) -> SupportedModule:
    """Verify sup(x) = <x,x> AND e as a (stable) support on X.

    Raises SupportAxiomFails when an axiom breaks (possible for modules
    without enough sections), then NotAPreHilbert when X fails a
    pre-Hilbert law; the downstream identities (agreement of the four
    stability conditions, the uniqueness formulas through <x,1>, the
    pointwise characterization of sup(x), and the a.1_X collapse chain)
    are theorems about pre-Hilbert modules, so a failure there raises
    TheoremViolation.
    """
    Q = X.quantale
    srep = support(Q)
    if not (srep.supported and srep.stable):
        raise ValueError("module_support requires a stably supported quantale")
    lat, act, ip = X.carrier, X.action, X.ip
    e = Q.unit
    mt = Q.lattice.meet_table
    ar = np.arange(X.n, dtype=np.intp)
    diag = ip[ar, ar]
    supv = mt[diag, e]

    SupportAxiomFails.check("below_inner", first_bad(~Q.leq[supv, diag]))
    SupportAxiomFails.check("monotone",
                            first_bad(X.carrier.leq & ~Q.leq[supv[:, None], supv[None, :]]))
    SupportAxiomFails.check("restores", first_bad(~lat.leq[ar, act[supv, ar]]))
    X.prehilbert_report.require(NotAPreHilbert)      # the premise of the theorems below

    b_elems = np.flatnonzero(Q.leq[:, e])
    aq = np.arange(Q.n, dtype=np.intp)
    cond = {
        # sup(a x) = sup(a sup(x))
        "through_sup": bool((supv[act] == srep.sup[Q.mul[aq[:, None], supv[None, :]]]).all()),
        # sup(a x) <= sup(a)
        "bounded": bool(Q.leq[supv[act], srep.sup[:, None]].all()),
        # sup(a 1_X) <= sup(a)
        "top_bounded": bool(Q.leq[supv[act[:, lat.top]], srep.sup].all()),
        # sup(b x) = b AND sup(x) for b <= e
        "equivariance": bool((supv[act[b_elems]] == mt[np.ix_(b_elems, supv)]).all()),
    }
    # the four conditions are equivalent, and hold over a stably supported quantale
    TheoremViolation.check("stability_conditions", None if all(cond.values()) else cond)

    top_ip = ip[:, lat.top]
    TheoremViolation.check("sup_via_top", first_bad(supv != mt[top_ip, e]))
    # sup(x) a = <x,1> AND a
    TheoremViolation.check("sup_times", first_bad(Q.mul[supv] != mt[top_ip]))
    TheoremViolation.check("sup_of_diagonal", first_bad(supv != srep.sup[diag]))
    TheoremViolation.check("sup_of_top_inner", first_bad(supv != srep.sup[top_ip]))
    # sup(<x,y>) <= sup(x)
    TheoremViolation.check("sup_of_inner_bounded",
                           first_bad(~Q.leq[srep.sup[ip], supv[:, None]]))
    # pointwise uniqueness: b <= <x,x> and x <= b x force b = sup(x), for b <= e
    w = first_bad(Q.leq[b_elems[:, None], diag] & lat.leq[ar, act[b_elems]]
                  & (supv != b_elems[:, None]))
    TheoremViolation.check("pointwise_sup", None if w is None else (int(b_elems[w[0]]), w[1]))

    t1 = act[:, lat.top]
    aa = Q.mul[aq, Q.inv]
    TheoremViolation.check("top_action_via_sup", first_bad(t1 != act[srep.sup, lat.top]))
    TheoremViolation.check("top_action_via_self_star", first_bad(t1 != act[aa, lat.top]))
    TheoremViolation.check("top_action_via_regular",
                           first_bad(t1 != act[Q.mul[aa, aq], lat.top]))

    return SupportedModule(X, supv, cond)


@dataclass
class LocalSectionReport:
    local: np.ndarray        # Sigma^l, ascending carrier order
    hilbert: np.ndarray      # Sigma_X
    equal: bool


def local_sections(sm: SupportedModule) -> LocalSectionReport:
    """Sigma^l = {s : sup(x AND s) s <= x for all x}, checked two ways.

    Re-checks the equivalence with the pointwise definition (sup(x)s = x
    for x <= s), downward closure, and Sigma_X subset Sigma^l; when the two
    coincide, each local section must be the join of the Hilbert sections
    below it.
    """
    X, supv = sm.module, sm.sup
    lat, act = X.carrier, X.action
    ar = np.arange(X.n, dtype=np.intp)
    # over [x, s]: sup(x AND s) s <= x; and sup(x) s = x wherever x <= s
    in_local = lat.leq[act[supv[lat.meet_table], ar], ar[:, None]].all(axis=0)
    pointwise = ~(lat.leq & (act[supv] != ar[:, None])).any(axis=0)
    TheoremViolation.check("local_sections_pointwise", first_bad(in_local != pointwise))
    # [s, t]: t <= s leaves the local sections
    TheoremViolation.check("local_sections_downward_closed",
                           first_bad(in_local[:, None] & lat.leq.T & ~in_local))

    hil = hilbert_sections(X)
    TheoremViolation.check("hilbert_sections_are_local", first_bad(np.isin(ar, hil) & ~in_local))

    local_arr = np.flatnonzero(in_local)
    equal = len(hil) == len(local_arr)
    if equal:
        joined = np.full(X.n, lat.bottom)          # [s]: the join of the Hilbert sections below s
        for t in hil:
            joined = np.where(lat.leq[t], lat.join_table[joined, t], joined)
        TheoremViolation.check("local_sections_generated", first_bad(in_local & (joined != ar)))
    return LocalSectionReport(local_arr, hil, equal)


@dataclass
class BridgeReport:
    """Singletons of (I,A) matched with Hilbert sections of Q^I A."""

    qset: QSet
    matrix_module: MatrixModule
    singleton_columns: list
    section_indices: np.ndarray
    pairing: list        # (singleton position, carrier index of its adjoint row)


def singleton_section_bridge(X: QSet) -> BridgeReport:
    """Two independent enumerations that must agree: S <-> S*.

    Every singleton column S of (I,A) must appear, adjointed, as a Hilbert
    section of Q^I A, bijectively, and the completion matrix must equal the
    inner products of the matched sections.
    """
    Q = X.Q
    comp = completion(X)
    sings = comp.singleton_list
    mm = module_from_qset(Q, X)
    secs = hilbert_sections(mm.module)

    idxs = mm.vector_index(comp.unitary.data).tolist()     # the adjoint singleton columns
    w = first_bad(~np.isin(idxs, secs))
    TheoremViolation.check("adjoint_singleton_is_section",
                           None if w is None else (w[0], idxs[w[0]]))
    TheoremViolation.check("pairing_bijective", None if sorted(idxs) == secs.tolist()
                           else (len(set(idxs)), len(idxs), len(secs)))
    TheoremViolation.check("completion_is_section_gram",
                           first_bad(comp.qset.A.data != mm.module.ip[np.ix_(idxs, idxs)]))

    zero = mm.vector_index(np.full(X.size, Q.bottom, dtype=np.intp))
    TheoremViolation.check("zero_is_bottom",
                           None if zero == mm.module.carrier.bottom else (zero,))
    return BridgeReport(X, mm, [s.column for s in sings], secs, list(enumerate(idxs)))
