"""Finite involutive quantales: validation, classification, supports.

A quantale here is a finite sup-lattice with an associative multiplication
that preserves joins in each argument, an involution, and optionally a unit.
All law checks are exact.  The cubic ones (associativity, join distribution,
modularity, frame law) are decided on join-irreducible generators by the
reductions in qlab.laws, each after its premises have been checked; only a
law that fails there is scanned exhaustively, one row at a time, to find
the lex-first witness the exhaustive scan alone would report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .laws import TheoremViolation, Violation, first_bad, first_violation, holds_on, lex_solutions
from .lattice import SupLattice


class NotUnital(Violation):
    """A construction needs a unit; law is the sentence that says which."""

    message = "{law}"


class BNotLocale(Violation):
    """The downset of the unit is not a locale."""

    message = "downset of the unit is not a locale: {law} fails at {witness}"


class NotAQuantale(Violation):
    """A quantale law fails on an input quantale."""

    message = "not a quantale: {law} fails at {witness}"


class Quantale:
    """Multiplication and involution tables over a SupLattice."""

    def __init__(self, lattice: SupLattice, mul, inv, unit: int | None = None,
                 name: str | None = None):
        n = lattice.n
        self.lattice = lattice
        self.mul = np.ascontiguousarray(np.asarray(mul, dtype=np.intp))
        self.inv = np.ascontiguousarray(np.asarray(inv, dtype=np.intp))
        if self.mul.shape != (n, n):
            raise ValueError("mul table must be n x n")
        if self.inv.shape != (n,):
            raise ValueError("inv table must have length n")
        if self.mul.min() < 0 or self.mul.max() >= n or self.inv.min() < 0 or self.inv.max() >= n:
            raise ValueError("table entries out of range")
        if unit is not None and not 0 <= unit < n:
            raise ValueError("unit out of range")
        self.unit = unit
        self.name = name

    @property
    def n(self) -> int:
        return self.lattice.n

    @property
    def leq(self) -> np.ndarray:
        return self.lattice.leq

    def label(self, a: int) -> str:
        return self.lattice.labels[a]

    @property
    def bottom(self) -> int:
        return self.lattice.bottom

    @property
    def top(self) -> int:
        return self.lattice.top

    def join(self, items) -> int:
        return self.lattice.join(items)

    def meet(self, items) -> int:
        return self.lattice.meet(items)

    @cached_property
    def linearity(self) -> dict:
        """Witnesses of the four laws that make the product bilinear, None = holds.

        Join distribution in each argument is SupLattice.join_witness.
        Computed once per quantale: the laws are premises of the reduced
        associativity, modularity and module checks.
        """
        lat, mul, bot = self.lattice, self.mul, self.bottom
        return {
            "join_distribution_left": lat.join_witness(mul, lat),
            "join_distribution_right": lat.join_witness(mul, lat, axis=1),
            "bottom_left": first_bad(mul[bot] != bot),
            "bottom_right": first_bad(mul[:, bot] != bot),
        }

    @property
    def bilinear(self) -> bool:
        """The product preserves all finite joins in each argument."""
        return all(w is None for w in self.linearity.values())

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Quantale(n={self.n}{tag})"


@dataclass
class ValidationReport:
    """Outcome of validate_quantale: first witness per law, None = law holds."""

    laws: dict

    @property
    def ok(self) -> bool:
        return all(w is None for w in self.laws.values())

    def failures(self) -> dict:
        return {law: w for law, w in self.laws.items() if w is not None}

    def require(self, error) -> None:
        """Raise error(law, witness) at the first failed law, if any."""
        for law, w in self.failures().items():
            raise error(law, w)


def validate_quantale(Q: Quantale) -> ValidationReport:
    """Check every quantale law exactly, recording lex-first witnesses.

    Join preservation over arbitrary families reduces to binary joins plus
    the bottom element, which is what gets checked.  Once the product is
    bilinear, associativity is trilinear and is checked on triples of
    join-irreducibles.
    """
    lat, mul, inv = Q.lattice, Q.mul, Q.inv
    ar = np.arange(lat.n, dtype=np.intp)
    bot = lat.bottom
    J = np.asarray(lat.join_irreducibles, dtype=np.intp)
    laws: dict = {}

    mJJ = mul[np.ix_(J, J)]
    assoc = Q.bilinear and holds_on(lambda c: mul[mJJ, c] != mul[np.ix_(J, mul[J, c])], J)
    laws["associativity"] = first_violation(lambda a: mul[mul[a]] != mul[a][mul],
                                            range(lat.n), assoc)
    laws.update(Q.linearity)
    laws["involution_involutive"] = first_bad(inv[inv] != ar)
    laws["involution_antihom"] = first_bad(inv[mul] != mul[np.ix_(inv, inv)].T)
    laws["involution_join"] = lat.join_witness(inv, lat)
    laws["involution_bottom"] = None if inv[bot] == bot else (bot,)

    if Q.unit is not None:
        laws["unit_left"] = first_bad(mul[Q.unit] != ar)
        laws["unit_right"] = first_bad(mul[:, Q.unit] != ar)

    return ValidationReport(laws)


def projections(Q: Quantale) -> list[int]:
    """Idempotent self-adjoint elements."""
    ar = np.arange(Q.n, dtype=np.intp)
    mask = (Q.inv == ar) & (Q.mul[ar, ar] == ar)
    return [int(p) for p in np.flatnonzero(mask)]


SUPPORT_AXIOMS = ("join_preserving", "bottom", "below_self_star", "restores")


@dataclass
class SupportReport:
    """Candidate support a |-> a1 AND e and the status of each axiom."""

    sup: np.ndarray
    laws: dict
    cross_checks: dict = field(default_factory=dict)

    @property
    def supported(self) -> bool:
        return all(self.laws[k] is None for k in SUPPORT_AXIOMS)

    @property
    def stable(self) -> bool:
        return self.laws["stability"] is None


def support(Q: Quantale) -> SupportReport:
    """Evaluate the canonical support candidate a1 AND e on a unital quantale.

    When the axioms hold, the derived identities (a1 = sup(a)1, the
    alternative formula aa* AND e under stability, B-equivariance, and the
    locale structure of B) are cross-checked as well; they are theorems, so
    a failure there indicates an inconsistent quantale or a bug.
    """
    if Q.unit is None:
        raise NotUnital("support requires a unital quantale")
    lat, mul, inv, e = Q.lattice, Q.mul, Q.inv, Q.unit
    mt = lat.meet_table
    ar = np.arange(lat.n, dtype=np.intp)
    top, bot = lat.top, lat.bottom

    a1 = mul[:, top]
    sup = mt[a1, e]
    laws: dict = {}
    laws["join_preserving"] = lat.join_witness(sup, lat)
    laws["bottom"] = None if sup[bot] == bot else (bot,)
    laws["below_self_star"] = first_bad(~Q.leq[sup, mul[ar, inv]])
    laws["restores"] = first_bad(~Q.leq[ar, mul[sup, ar]])
    laws["stability"] = first_bad(~Q.leq[sup[a1], sup])

    report = SupportReport(sup, laws)
    if not report.supported:
        return report

    cc: dict = {}
    cc["sup_times_top"] = first_bad(mul[sup, top] != a1)
    b_elems = np.flatnonzero(Q.leq[:, e])
    bad = mt[np.ix_(b_elems, b_elems)] != mul[np.ix_(b_elems, b_elems)]
    cc["b_meet_is_product"] = first_bad(bad)
    cc["b_self_adjoint"] = first_bad(inv[b_elems] != b_elems)
    cc["b_fixed_by_sup"] = first_bad(sup[b_elems] != b_elems)
    if report.stable:
        cc["stability_composed"] = first_bad(sup[mul] != sup[mul[:, sup]])
        cc["self_star_formula"] = first_bad(sup != mt[mul[ar, inv], e])
        cc["b_product_formula"] = first_violation(
            lambda b: mul[b] != mt[mul[b, top], ar], b_elems)
        cc["b_meet_unit_swap"] = first_violation(
            lambda b: mt[mul[b], e] != mt[b, ar], b_elems)
        cc["b_equivariance"] = first_violation(lambda b: sup[mul[b]] != mul[b, sup], b_elems)
    report.cross_checks = cc
    return report


@dataclass
class PartialUnitReport:
    elements: list[int]
    cover_join: int
    cover: bool


def partial_units(Q: Quantale) -> PartialUnitReport:
    """Elements s with ss* OR s*s below the unit; reports the cover condition."""
    if Q.unit is None:
        raise NotUnital("partial units require a unital quantale")
    ar = np.arange(Q.n, dtype=np.intp)
    both = Q.lattice.join_table[Q.mul[ar, Q.inv], Q.mul[Q.inv, ar]]
    mask = Q.leq[both, Q.unit]
    elems = [int(s) for s in np.flatnonzero(mask)]
    cj = Q.join(elems)
    return PartialUnitReport(elems, cj, cj == Q.top)


@dataclass
class BaseLocale:
    lattice: SupLattice
    elements: list[int]  # indices in Q, position = index in the sublattice


def base_locale(Q: Quantale) -> BaseLocale:
    """The downset of the unit as a locale; raises BNotLocale when it is not one."""
    if Q.unit is None:
        raise NotUnital("base locale requires a unital quantale")
    elems = Q.lattice.downset(Q.unit)
    sub = np.array(elems, dtype=np.intp)
    lat = SupLattice(Q.leq[np.ix_(sub, sub)], [Q.label(b) for b in elems])
    laws = {"frame_distributivity": lat.is_frame()[1],
            "meet_is_product": first_bad(Q.lattice.meet_table[np.ix_(sub, sub)]
                                         != Q.mul[np.ix_(sub, sub)]),
            "self_adjoint": first_bad(Q.inv[sub] != sub)}
    for law, w in laws.items():     # witnesses in positions of sub, reported in Q
        BNotLocale.check(law, None if w is None else tuple(elems[i] for i in w))
    return BaseLocale(lat, elems)


_FLAG_NAMES = ("unital", "gelfand", "locally_gelfand", "stably_gelfand", "modular",
               "supported", "stably_supported", "quantal_frame", "stable_quantal_frame",
               "inverse_quantal_frame")
_UNIT_RUNGS = ("supported", "stably_supported", "stable_quantal_frame", "inverse_quantal_frame")

# The rungs each flag builds on, in order: a flag fails with the witness of
# the first of them that fails, or else with its own.  Every rung comes after
# the rungs it builds on in _FLAG_NAMES.
BUILDS_ON = {
    "stably_supported": ("supported",),
    "stable_quantal_frame": ("stably_supported", "quantal_frame"),
    "inverse_quantal_frame": ("stable_quantal_frame",),
}


# The implications between flags that classify re-checks: when every flag
# of the premise holds, the conclusion holds.  A unit rung is None without
# a unit, so it never completes a premise.
LADDER = (
    (("stably_gelfand",), "locally_gelfand", "stably_gelfand_implies_locally_gelfand"),
    (("unital", "locally_gelfand"), "gelfand", "locally_gelfand_implies_gelfand"),
    (("inverse_quantal_frame",), "stable_quantal_frame",
     "inverse_quantal_frame_implies_stable_quantal_frame"),
    (("stable_quantal_frame",), "stably_supported",
     "stable_quantal_frame_implies_stably_supported"),
    (("stably_supported",), "supported", "stably_supported_implies_supported"),
    (("unital", "modular"), "stably_supported", "modular_implies_stably_supported"),
    (("inverse_quantal_frame",), "modular", "inverse_quantal_frame_implies_modular"),
)


@dataclass
class PropertyReport:
    """Classification flags, derived from witnesses.

    A flag is False exactly when witnesses holds its lex-first violating
    tuple (element indices, possibly tagged with the failing axiom name).
    The four rungs that need a unit are None (not applicable) without one.
    """

    witnesses: dict

    FLAG_NAMES = _FLAG_NAMES

    def flag(self, name: str):
        if name not in _FLAG_NAMES:
            raise KeyError(f"unknown flag {name!r}")
        if name in _UNIT_RUNGS and "unital" in self.witnesses:
            return None
        return name not in self.witnesses

    def flags(self) -> dict:
        return {name: self.flag(name) for name in _FLAG_NAMES}


def _gelfand_witnesses(Q: Quantale) -> dict:
    """Lex-first witnesses of the three Gelfand conditions, None = holds."""
    mul, inv, leq = Q.mul, Q.inv, Q.leq
    ar = np.arange(Q.n, dtype=np.intp)
    reg = mul[mul[ar, inv], ar]  # a a* a
    irregular = reg != ar
    projs = np.asarray(projections(Q), dtype=np.intp)
    local = leq[:, projs] & leq[mul[:, projs], ar[:, None]]     # [a, p]: a <= p and ap <= a
    lw = first_bad(local & irregular[:, None])
    return {
        "gelfand": first_bad(leq[mul[:, Q.top], ar] & irregular),
        "locally_gelfand": None if lw is None else (lw[0], int(projs[lw[1]])),
        "stably_gelfand": first_bad(leq[reg, ar] & irregular),
    }


def modular_law(Q: Quantale):
    """First lex witness (a, b, c) with ab AND c not below a(b AND a*c), or None.

    On a frame with a bilinear product both sides preserve finite joins in
    b and in c (distributivity splits the meets), so for each a the law is
    checked on join-irreducible b and c only.
    """
    mul, inv, mt, leq = Q.mul, Q.inv, Q.lattice.meet_table, Q.leq
    J = np.asarray(Q.lattice.join_irreducibles, dtype=np.intp)
    ar = np.arange(Q.n, dtype=np.intp)[:, None]
    mulJ = mul[:, J]

    def bad_c(c):           # [a, b] over b in J: ab AND c vs a(b AND a*c)
        return ~leq[mt[mulJ, c], mul[ar, mt[J[None, :], mul[inv, c][:, None]]]]

    proved = Q.lattice.is_frame()[0] and Q.bilinear and holds_on(bad_c, J)
    return first_violation(lambda a: ~leq[mt[mul[a]], mul[a][mt[:, mul[inv[a]]]]],
                           range(Q.n), proved)


def classify(Q: Quantale) -> PropertyReport:
    """Full property ladder with witnesses; re-checks the known implications.

    Each rung's own condition is checked first; then each flag takes the
    witness that BUILDS_ON gives it.
    """
    own = _gelfand_witnesses(Q)
    own["modular"] = modular_law(Q)
    own["quantal_frame"] = Q.lattice.is_frame()[1]
    if Q.unit is None:
        own["unital"] = ()
    else:
        srep = support(Q)
        law = next((k for k in SUPPORT_AXIOMS if srep.laws[k] is not None), None)
        pu = partial_units(Q)
        own["supported"] = None if law is None else (law,) + srep.laws[law]
        own["stably_supported"] = None if srep.stable else ("stability",) + srep.laws["stability"]
        own["stable_quantal_frame"] = None      # nothing beyond the rungs it builds on
        own["inverse_quantal_frame"] = None if pu.cover else ("cover", pu.cover_join)
        if srep.supported:
            bad_cc = {k: v for k, v in srep.cross_checks.items() if v is not None}
            TheoremViolation.check("support_cross_checks", bad_cc or None)

    witnesses: dict = {}
    for name in _FLAG_NAMES:
        if name in own:
            w = next((witnesses[b] for b in BUILDS_ON.get(name, ()) if b in witnesses),
                     own[name])
            if w is not None:
                witnesses[name] = w
    report = PropertyReport(witnesses)
    _check_ladder(report)
    return report


def _check_ladder(r: PropertyReport) -> None:
    f = r.flags()
    for pre, post, name in LADDER:
        TheoremViolation.check(name, f if all(f[p] for p in pre) and not f[post] else None)


def lattice_order_isos(src: SupLattice, dst: SupLattice) -> list[np.ndarray]:
    """All order isomorphisms src -> dst as permutation arrays, in lex order.

    A map that preserves and reflects the order is injective (p[m] = p[k]
    gives m <= k <= m), so no separate injectivity test is needed.
    """
    if src.n != dst.n:
        return []
    down_src, up_src = src.leq.sum(axis=0), src.leq.sum(axis=1)
    down_dst, up_dst = dst.leq.sum(axis=0), dst.leq.sum(axis=1)
    values = [np.flatnonzero((down_dst == down_src[i]) & (up_dst == up_src[i]))
              for i in range(src.n)]

    def consistent(k: int, P: np.ndarray, c: np.ndarray) -> np.ndarray:
        # against every placed m < k, both ways round
        return ((dst.leq[c[None, :, None], P[:, None, :]] == src.leq[k, :k])
                & (dst.leq[P[:, None, :], c[None, :, None]] == src.leq[:k, k])).all(axis=2)

    return list(lex_solutions(values, consistent))


def are_isomorphic(Q1: Quantale, Q2: Quantale) -> bool:
    """Isomorphism of unital involutive quantales over order-isomorphic lattices."""
    for p in lattice_order_isos(Q1.lattice, Q2.lattice):
        if (p[Q1.mul] == Q2.mul[np.ix_(p, p)]).all() and (p[Q1.inv] == Q2.inv[p]).all():
            if (Q1.unit is None) != (Q2.unit is None):
                continue
            if Q1.unit is not None and p[Q1.unit] != Q2.unit:
                continue
            return True
    return False
