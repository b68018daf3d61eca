"""Finite etale groupoids: quantales, action modules, sheafification.

O(G) is built by powerset_quantale: products and involutes of single
arrows extend to all subsets by joins, so join preservation holds by
construction.  The named groupoids and actions are in catalog.

A finite discrete groupoid is stored as label lists plus dense tables
(domain, range, composition with -1 for undefined, inverse, units).
Composition is diagrammatic: m(g, h) is defined when r(g) = d(h) and runs
d(g) -> r(h).  Actions are geometric (act(g, x) defined when d(g) = p(x),
landing in the fiber over r(g)); the induced left module on the powerset of
the point set acts through the pullback maps lam_g = act(i(g), -), which is
what makes (UV).S = U.(V.S) come out in the right order.

The inner product on an action module is the arrow transporter
    <S, T> = {g : some y in T with p(y) = r(g) has lam_g(y) in S},
a candidate that module_from_action verifies against the pre-Hilbert axioms
and, within sheafify, against the section matrix m_st, rather than assuming.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import hilbert as hb
from .lattice import powerset_lattice
from .laws import (TheoremViolation, Violation, first_bad, first_bad_named, first_violation,
                   lex_solutions)
from .qmatrix import QSet, is_qset
from .quantale import NotUnital, Quantale, classify, partial_units, support

ALL_HOM_CAP = 4096   # verify_equivalence enumerates every module hom up to this many tables


class NotAGroupoid(Violation):
    """The tables break a groupoid law."""

    message = "groupoid law {law} fails at {witness}"


class InvalidAction(Violation):
    """The tables break an action law."""

    message = "action law {law} fails at {witness}"


class NotEtale(Violation):
    """The base-locale restriction lacks enough sections."""

    message = "element {witness} is not a join of local section parts"


class FiniteGroupoid:
    """Objects, arrows and the five structure tables of a finite groupoid.

    Each law is one array check, in the order of _validate, and a failure
    names the lex-first witness of the first law that fails.
    """

    def __init__(self, objects, arrows, d, r, compose, inv, units,
                 name: str | None = None):
        self.objects = [str(o) for o in objects]
        self.arrows = [str(a) for a in arrows]
        self.d, self.r, self.compose, self.inv, self.units = (
            np.asarray(t, dtype=np.intp) for t in (d, r, compose, inv, units))
        self.name = name
        self._validate()

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def _validate(self) -> None:
        no, na = self.n_objects, self.n_arrows
        d, r, m, inv, u = self.d, self.r, self.compose, self.inv, self.units
        NotAGroupoid.check("shape", first_bad_named(
            d=d.shape != (na,), r=r.shape != (na,), compose=m.shape != (na, na),
            inv=inv.shape != (na,), units=u.shape != (no,)))
        # a negative composite is undefined; composability says where
        NotAGroupoid.check("range", first_bad_named(
            d=(d < 0) | (d >= no), r=(r < 0) | (r >= no), compose=m >= na,
            inv=(inv < 0) | (inv >= na), units=(u < 0) | (u >= na)))
        ar, objs = np.arange(na), np.arange(no)
        composable = r[:, None] == d[None, :]
        mi = np.maximum(m, 0)          # m where defined; the rest is masked below
        NotAGroupoid.check("unit_endpoints", first_bad((d[u] != objs) | (r[u] != objs)))
        NotAGroupoid.check("composability", first_bad(composable != (m >= 0)))
        NotAGroupoid.check("composite_endpoints", first_bad(
            composable & ((d[mi] != d[:, None]) | (r[mi] != r[None, :]))))
        NotAGroupoid.check("unit_law", first_bad((m[u[d], ar] != ar) | (m[ar, u[r]] != ar)))
        NotAGroupoid.check("inverse_endpoints", first_bad(
            (d[inv] != r) | (r[inv] != d) | (inv[inv] != ar)))
        NotAGroupoid.check("inverse_law", first_bad((m[ar, inv] != u[d]) | (m[inv, ar] != u[r])))
        # (gh)k = g(hk), row g at [h, k]; a cubic law is scanned by rows, so temporaries stay na^2
        NotAGroupoid.check("associativity", first_violation(
            lambda g: composable[g][:, None] & composable & (mi[mi[g]] != mi[g][mi]), ar))

    @cached_property
    def quantale(self) -> Quantale:
        """O(G) on the powerset of arrows; classified inverse quantal frame."""
        Q = groupoid_quantale(self, f"O({self.name})" if self.name else None)
        flags = classify(Q)
        TheoremViolation.check("groupoid_quantale_stably_gelfand",
                               flags.witnesses.get("stably_gelfand"))
        TheoremViolation.check("groupoid_quantale_inverse_quantal_frame",
                               None if flags.flag("inverse_quantal_frame") else flags.flags())
        return Q

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"FiniteGroupoid(objects={self.n_objects}, arrows={self.n_arrows}{tag})"


def powerset_quantale(atom_mul: np.ndarray, atom_inv: Sequence[int], unit_mask: int,
                      atom_labels: Sequence[str], name: str | None = None,
                      labels: Sequence[str] | None = None) -> Quantale:
    """Quantale on the powerset of k atoms.

    atom_mul[g, h] is the bitmask of the product of atoms g and h (0 when the
    product is empty), atom_inv is a permutation of atoms, and elements of the
    quantale are subset bitmasks, which double as lattice indices.
    """
    atom_mul = np.asarray(atom_mul, dtype=np.intp)
    lat = powerset_lattice(list(atom_labels))
    if labels is not None:
        lat.labels = [str(x) for x in labels]
    # the atoms are the join-irreducibles; row[V, g] = g . V, then mul[U, V] = U . V
    row = lat.join_extend(atom_mul.T, lat)
    mul = lat.join_extend(row.T, lat)
    inv = lat.join_extend(1 << np.asarray(atom_inv, dtype=np.intp), lat)
    return Quantale(lat, mul, inv, unit=int(unit_mask), name=name)


def groupoid_quantale(G: FiniteGroupoid, name: str | None = None) -> Quantale:
    """O(G) on the powerset of arrows, unchecked: {g}{h} = {gh}, {g}* = {g^-1}, e = the units."""
    atom_mul = np.where(G.compose >= 0, np.int64(1) << np.maximum(G.compose, 0), 0)
    return powerset_quantale(atom_mul, G.inv, int((1 << G.units).sum()), G.arrows, name=name)


def bisections(G: FiniteGroupoid) -> list[int]:
    """The arrow sets on which both d and r are injective: the partial units of O(G)."""
    return partial_units(G.quantale).elements


class GroupoidAction:
    """A right-to-left geometric action: act[g, x] defined when d(g) = p(x).

    Laws are checked as FiniteGroupoid's are: one array check each, in order.
    """

    def __init__(self, groupoid: FiniteGroupoid, points, p, act,
                 name: str | None = None):
        self.groupoid = groupoid
        self.points = [str(x) for x in points]
        self.p = np.asarray(p, dtype=np.intp)
        self.act = np.asarray(act, dtype=np.intp)
        self.name = name
        self._validate()

    @property
    def n_points(self) -> int:
        return len(self.points)

    def _validate(self) -> None:
        G, ne, p, act = self.groupoid, self.n_points, self.p, self.act
        na, pts = G.n_arrows, np.arange(ne)
        InvalidAction.check("anchor", ("p",) if p.shape != (ne,)
                            else first_bad((p < 0) | (p >= G.n_objects)))
        InvalidAction.check("shape", None if act.shape == (na, ne) else ("act",))
        expected = G.d[:, None] == p[None, :]
        InvalidAction.check("definedness", first_bad((act >= 0) != expected))
        InvalidAction.check("range", first_bad(act >= ne))
        ai = np.maximum(act, 0)        # act where defined; the rest is masked below
        InvalidAction.check("anchor_image", first_bad(expected & (p[ai] != G.r[:, None])))
        # hits[g, y]: how many x have gx = y; one for each y over r(g), none elsewhere
        hits = np.bincount((ne * np.arange(na)[:, None] + ai)[expected],
                           minlength=na * ne).reshape(na, ne)
        InvalidAction.check("fiber_bijection", first_bad(hits != (p[None, :] == G.r[:, None])))
        InvalidAction.check("unit", first_bad(act[G.units[p], pts] != pts))
        # h(gx) = (gh)x, row g at [h, x]
        mi = np.maximum(G.compose, 0)
        InvalidAction.check("compatibility", first_violation(
            lambda g: (G.compose[g] >= 0)[:, None] & expected[g] & (ai[:, ai[g]] != ai[mi[g]]),
            range(na)))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"GroupoidAction(points={self.n_points}{tag})"


def module_from_action(A: GroupoidAction) -> hb.SupportedModule:
    """The etale Q-locale P(E) of an action, with its verified support.

    {g}.{y} = {lam_g(y)} (the bottom off the fiber) and <{x}, {y}> = the
    join of the {g} with lam_g(y) = x are set on the join-irreducibles, the
    points {x} of the carrier and the arrows {g} of O(G), and join-extended.
    """
    G = A.groupoid
    Q = G.quantale
    carrier = powerset_lattice(A.points)
    JQ = np.asarray(Q.lattice.join_irreducibles, dtype=np.intp)
    JX = np.asarray(carrier.join_irreducibles, dtype=np.intp)

    # pullback point maps lam_g = act(i(g), -): fiber r(g) -> fiber d(g), and
    # act(i(g), y) is defined exactly when p(y) = d(i(g)) = r(g)
    lam = A.act[G.inv]
    single = np.where(lam >= 0, JX[np.maximum(lam, 0)], carrier.bottom)
    actX = Q.lattice.join_extend(carrier.join_extend(single.T, carrier).T, carrier)

    ip_atoms = np.full((A.n_points, A.n_points), Q.bottom, dtype=np.intp)
    for g, q in enumerate(JQ):
        ip_atoms = np.where(single[g] == JX[:, None], Q.lattice.join_table[ip_atoms, q], ip_atoms)
    ip = carrier.join_extend(carrier.join_extend(ip_atoms, Q.lattice).T, Q.lattice).T
    module = hb.PreHilbertModule(Q, carrier, actX, ip)

    # B-valued cross-check: <S,T> AND e must be u(p(S AND T))
    pobj = carrier.join_extend(JQ[G.units[A.p]], Q.lattice)
    TheoremViolation.check("local_inner_product", first_bad(
        Q.lattice.meet_table[ip, Q.unit] != pobj[carrier.meet_table]))

    hb.check_prehilbert(module)
    sm = hb.module_support(module)
    TheoremViolation.check("support_is_anchor", first_bad(sm.sup != pobj))   # sup(S) = u(p(S))
    return sm


@dataclass
class SheafifyReport:
    """The section Q-set of an etale Q-locale and its canonical isomorphism.

    All checks hold whenever the quantale is an inverse quantal frame (the
    setting of the theorem); over other quantales an etale Q-locale may
    fail them, and the report says which claim broke instead of raising.
    When the transporter matrix is not even a Q-set, matrix_module and
    canon are None and only the qset check is reported.
    """

    qset: QSet
    sections: np.ndarray          # carrier indices of the local sections, ascending
    sup: np.ndarray               # B-valued support over the whole carrier
    matrix_module: hb.MatrixModule | None
    canon: np.ndarray | None      # X -> Q^I M on carrier indices
    checks: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def local_section_indices(X: hb.PreHilbertModule):
    """(sections, sup, base): the base-locale restriction and its Hilbert data.

    base is X with the inner product <x,y> AND e; the local sections of X
    are its Hilbert sections and sup(x) is its diagonal.
    """
    Q = X.quantale
    if Q.unit is None:
        raise NotUnital("local sections need a unital quantale")
    base = hb.PreHilbertModule(Q, X.carrier, X.action, Q.lattice.meet_table[X.ip, Q.unit])
    return hb.hilbert_sections(base), np.diagonal(base.ip).copy(), base


def sheafify(X: hb.PreHilbertModule) -> SheafifyReport:
    """Build the Q-set of local sections and verify X ~ Q^I M.

    The matrix follows the transporter recipe: m_st joins every partial
    unit a with sup(a*) <= sup(t) and a.t <= s.  Raises NotEtale when the
    base restriction of X lacks enough sections.
    """
    Q = X.quantale
    lat, act = X.carrier, X.action
    e = Q.unit
    jt, mt = Q.lattice.join_table, Q.lattice.meet_table
    secs, sup, base = local_section_indices(X)
    NotEtale.check("etale", hb.is_hilbert_basis(base, secs)[1])

    srep = support(Q)
    punits = partial_units(Q).elements
    k = len(secs)
    M = np.full((k, k), Q.bottom, dtype=np.intp)
    for a in punits:
        ok_t = Q.leq[srep.sup[Q.inv[a]], sup[secs]]            # sup(a*) <= sup(t)
        moved = act[a][secs]                                   # a . t
        ok_st = lat.leq[np.ix_(moved, secs)].T & ok_t[None, :]
        M = np.where(ok_st, jt[M, a], M)

    qs = QSet(Q, M, [lat.labels[int(s)] for s in secs])
    ok_qset, _ = is_qset(qs)
    checks = {
        "qset": ok_qset,
        "transporter": bool(np.array_equal(X.ip[np.ix_(secs, secs)], M)),
        "local_ip": bool(np.array_equal(mt[M, e],
                                        sup[lat.meet_table[np.ix_(secs, secs)]])),
    }
    if not ok_qset:
        return SheafifyReport(qs, secs, sup, None, None, checks)

    mm = hb.module_from_qset(Q, qs)
    N = mm.module
    canon = N.carrier.join_products(N.action, base.ip[:, secs], mm.rows)

    checks.update(hb.canonical_map_checks(X, N, canon))
    return SheafifyReport(qs, secs, sup, mm, canon, checks)


def check_section_lemmas(X: hb.PreHilbertModule) -> dict:
    """Partial units act on local sections; local sections cover the top.

    Returns the two verdicts; both are theorems for etale Q-locales, so
    callers normally assert the values.
    """
    Q = X.quantale
    secs = local_section_indices(X)[0]
    sec_set = set(int(s) for s in secs)
    punits = partial_units(Q).elements
    closed = all(int(X.action[a, s]) in sec_set for a in punits for s in secs)
    cover = X.carrier.join(secs) == X.carrier.top
    return {"partial_units_act": closed, "sections_cover": cover}


@dataclass
class PairReport:
    source: int
    target: int
    equivariant: list            # point maps as tuples
    sheaf_homs: list             # carrier tables as tuples
    bijection: list              # index into sheaf_homs for each equivariant map
    all_homs: int | None         # module homs without preservation constraints

    @property
    def counts_match(self) -> bool:
        return len(self.equivariant) == len(self.sheaf_homs)


@dataclass
class EquivalenceReport:
    groupoid: FiniteGroupoid
    pairs: list

    @property
    def ok(self) -> bool:
        return all(p.counts_match for p in self.pairs)


def _commuting_maps(values, target: np.ndarray, triples, empty=None) -> np.ndarray:
    """lex_solutions of s with target[g, s[x]] == s[z] for each (g, x, z).

    z = -1 asks for target[g, s[x]] == empty instead.  Each triple is filed
    under position max(x, z), where its last value is placed.
    """
    checks: list[list] = [[] for _ in values]
    for g, x, z in triples:
        checks[max(x, z)].append((g, x, z))

    def consistent(k: int, P: np.ndarray, c: np.ndarray) -> np.ndarray:
        def at(x: int) -> np.ndarray:
            return c[None, :] if x == k else P[:, x, None]

        ok = np.ones((len(P), len(c)), dtype=bool)
        for g, x, z in checks[k]:
            ok &= target[g, at(x)] == (empty if z < 0 else at(z))
        return ok

    return lex_solutions(values, consistent)


def _equivariant_maps(A1: GroupoidAction, A2: GroupoidAction) -> list[tuple]:
    """All f: E1 -> E2 over the objects commuting with every arrow."""
    values = [np.flatnonzero(A2.p == A1.p[x]) for x in range(A1.n_points)]
    triples = [(g, x, int(A1.act[g, x])) for g, x in np.argwhere(A1.act >= 0).tolist()]
    return [tuple(f) for f in _commuting_maps(values, A2.act, triples).tolist()]


def _enumerate_homs(sm1: hb.SupportedModule, sm2: hb.SupportedModule,
                    images: np.ndarray | None) -> np.ndarray:
    """Join-preserving candidates via atom images, verified afterwards.

    Atom x, the join-irreducible {x} of the source carrier, may go to any
    element of `images` (None: any carrier element) with the support of
    {x}.  The quantale atoms {g} prune: an arrow g carries atom x to either
    bottom or another atom, and the image assignment must commute.
    Survivors are re-checked by hilbert.stacked_homs, so the pruning only
    has to be sound, not complete.  Returns the candidate
    tables as the rows of one array, in lex order of the atom images.
    """
    X1, X2 = sm1.module, sm2.module
    atoms1 = X1.carrier.join_irreducibles
    if images is None:
        values = [np.arange(X2.n)] * len(atoms1)
    else:
        values = [images[sm2.sup[images] == sm1.sup[a]] for a in atoms1]
    qatoms = X1.quantale.lattice.join_irreducibles
    # {g}.{x} in X1 is the bottom (z = -1) or the atom {z}
    pos = {int(X1.carrier.bottom): -1} | {a: x for x, a in enumerate(atoms1)}
    triples = [(g, x, pos[int(X1.action[q, a])])
               for g, q in enumerate(qatoms) for x, a in enumerate(atoms1)]
    sols = _commuting_maps(values, X2.action[qatoms], triples, X2.carrier.bottom)
    return np.ascontiguousarray(X1.carrier.join_extend(sols.T, X2.carrier).T)


def _hom_verdicts(sm1: hb.SupportedModule, sm2: hb.SupportedModule, tables: np.ndarray,
                  basis, loc1: np.ndarray, loc2: np.ndarray):
    """(hom, sheaf, direct) of a stack of candidate tables, one boolean per row.

    hb.stacked_homs decides hom and direct (the homs that are direct
    images) for every row, or raises TheoremViolation; a sheaf hom is a hom
    that preserves supports and local sections.
    """
    hom, direct = hb.stacked_homs(sm1.module, sm2.module, tables, basis)
    local = np.zeros(sm2.module.n, dtype=bool)
    local[loc2] = True
    sheaf = (hom & (sm2.sup[tables] == sm1.sup).all(axis=1)
             & local[tables[:, loc1]].all(axis=1))
    return hom, sheaf, direct


def verify_equivalence(G: FiniteGroupoid, actions) -> EquivalenceReport:
    """Count equivariant maps and sheaf morphisms for every action pair.

    The two counts come from independent enumerations (raw action tables on
    one side, module machinery on the other); the explicit bijection is the
    direct image f |-> f_!.  When the full space of tables holds at most
    ALL_HOM_CAP (read per call), all module homs are enumerated and the two
    sheaf-hom characterizations (support+section preserving vs the Galois
    pair phi.phi+ <= id <= phi+.phi) are checked to coincide on it.  Each
    source's pre-Hilbert laws (a theorem) and Hilbert basis (else
    NotEnoughSections) are checked once, and each pair's candidate tables
    are decided as one stack (_hom_verdicts).
    """
    mods = [module_from_action(a) for a in actions]
    locs = [hb.local_sections(sm).local for sm in mods]
    pairs = []
    for i, sm1 in enumerate(mods):
        X1 = sm1.module
        TheoremViolation.check("prehilbert_laws", X1.prehilbert_report.failures() or None)
        basis = hb.hilbert_sections(X1)
        hb.NotEnoughSections.check("hilbert_basis", hb.is_hilbert_basis(X1, basis)[1])
        for j, sm2 in enumerate(mods):
            X2 = sm2.module
            equiv = _equivariant_maps(actions[i], actions[j])
            cands = _enumerate_homs(sm1, sm2, locs[j])
            _, sheaf, direct = _hom_verdicts(sm1, sm2, cands, basis, locs[i], locs[j])
            sheaf_rows = np.flatnonzero(sheaf)
            keyed = {cands[s].tobytes(): pos for pos, s in enumerate(sheaf_rows)}

            # every sheaf hom is a direct image hom
            w = first_bad(~direct[sheaf_rows])
            TheoremViolation.check("sheaf_hom_is_direct_image", None if w is None else (i, j) + w)

            images = np.array(equiv, dtype=np.intp).reshape(len(equiv), actions[i].n_points)
            pushed = X1.carrier.join_extend(np.take(X2.carrier.join_irreducibles, images).T,
                                            X2.carrier).T
            bij = []
            for f, table in zip(equiv, pushed):          # f_! for every equivariant f
                key = table.tobytes()
                TheoremViolation.check("direct_image_is_sheaf_hom",
                                       None if key in keyed else (i, j, f))
                bij.append(keyed[key])
            TheoremViolation.check("direct_image_injective",
                                   None if len(set(bij)) == len(bij) else (i, j))

            total = None
            if X2.n ** actions[i].n_points <= ALL_HOM_CAP:
                every = _enumerate_homs(sm1, sm2, None)
                hom, sheaf, direct = _hom_verdicts(sm1, sm2, every, basis, locs[i], locs[j])
                total = int(hom.sum())
                subset = {every[s].tobytes() for s in np.flatnonzero(sheaf)}
                galois = {every[s].tobytes() for s in np.flatnonzero(direct)}
                TheoremViolation.check("sheaf_hom_characterizations_agree",
                                       None if subset == set(keyed) == galois else (i, j))
            pairs.append(PairReport(i, j, equiv, [tuple(t) for t in cands[sheaf_rows].tolist()],
                                    bij, total))
    return EquivalenceReport(G, pairs)


def group_groupoid(table, labels, name: str | None = None) -> FiniteGroupoid:
    """A finite group as a one-object groupoid.

    The unit is the first two-sided identity of the table and the inverse
    of g the first h with gh = unit; where there is none, argmax falls back
    to element 0, and the groupoid laws report the lex-first failure.
    """
    t = np.asarray(table, dtype=np.intp)
    ar = np.arange(len(t))
    ident = int(np.argmax((t == ar).all(axis=1) & (t == ar[:, None]).all(axis=0)))
    zeros = np.zeros(len(t), dtype=np.intp)
    return FiniteGroupoid(["*"], labels, zeros, zeros, t, np.argmax(t == ident, axis=1),
                          [ident], name=name)


def pair_groupoid(n: int) -> FiniteGroupoid:
    """Arrows (i -> j) on n objects, composition (i,j);(j,l) = (i,l)."""
    d, r = np.divmod(np.arange(n * n), n)            # arrow n*i + j runs i -> j
    compose = np.where(r[:, None] == d[None, :], n * d[:, None] + r[None, :], -1)
    return FiniteGroupoid([str(i) for i in range(n)], [f"{i}{j}" for i, j in zip(d, r)],
                          d, r, compose, n * r + d, (n + 1) * np.arange(n), name=f"pair{n}")


def disjoint_union(G1: FiniteGroupoid, G2: FiniteGroupoid,
                   name: str | None = None) -> FiniteGroupoid:
    objects = G1.objects + G2.objects
    arrows = G1.arrows + G2.arrows
    if len(set(objects)) != len(objects) or len(set(arrows)) != len(arrows):
        raise ValueError("component labels must be disjoint")
    no1, na1 = G1.n_objects, G1.n_arrows
    d = np.concatenate([G1.d, G2.d + no1])
    r = np.concatenate([G1.r, G2.r + no1])
    inv = np.concatenate([G1.inv, G2.inv + na1])
    units = np.concatenate([G1.units, G2.units + na1])
    compose = np.full((len(arrows), len(arrows)), -1, dtype=np.intp)
    compose[:na1, :na1] = G1.compose
    block = G2.compose.copy()
    block[block >= 0] += na1
    compose[na1:, na1:] = block
    return FiniteGroupoid(objects, arrows, d, r, compose, inv, units, name=name)


def regular_action(G: FiniteGroupoid) -> GroupoidAction:
    """G acting on its own arrows by composition, anchored at the range map: gx = m(x, g)."""
    return GroupoidAction(G, G.arrows, G.r, G.compose.T,
                          name=f"{G.name}_regular" if G.name else None)


def objects_action(G: FiniteGroupoid) -> GroupoidAction:
    """G acting on its objects: an arrow sends its domain to its range."""
    act = np.where(np.arange(G.n_objects) == G.d[:, None], G.r[:, None], -1)
    return GroupoidAction(G, G.objects, np.arange(G.n_objects), act,
                          name=f"{G.name}_objects" if G.name else None)
