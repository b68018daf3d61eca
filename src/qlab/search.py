"""Exhaustive search for involutive quantale structures on a small lattice.

A join-preserving multiplication is determined by its values on pairs of
join-irreducibles, so the search branches only on those cells.  The
involution links each cell (p, q) to (q*, p*), and a join-irreducible unit
pins its row and column, which together cut the raw cell count roughly in
half before any value is tried.

The free cells are placed by laws.lex_blocks, the enumerator behind every
backtracking walk of qlab, one position per cell, in lexicographic order
of their values.  A cell takes all n values, except a self-linked cell
(p, p*), its own involution partner, which takes only the self-adjoint
ones: (J[p]J[p*])* = J[p]J[p*], so no other value can be a quantale's.
Its consistent() writes a block of surviving value prefixes, each
extended by every value of the next free cell, into partial tables (a
cell's involution partner gets inv[v] before the cell gets v).  It first
tests monotonicity, m[t, s] <= m[i, j] whenever
J[t] <= J[i] and J[s] <= J[j], on each pair of cells whose later one was
just placed: every join-preserving product is monotone, and a table that
is not can join-extend to the same full table as one that is, so without
the test one quantale would be reached from several leaves.  It then tests
each irreducible associativity triple that has just become decidable: both
of its products are placed, and so is every cell their join-extensions
read.  Which cells those are depends on the products, so a triple becomes
decidable at a level that depends on the row; each row tests each triple
once, at that level (propagation, as in Mace4).  The triples of one level
are tested a group at a time, each group on every surviving row in one
array step.  A partial table that fails a pair or a triple is dropped with
all the leaves below it.

The budget bounds the work of the walks, not the size of the space they
could visit: it counts tested tables, one per (prefix, value) pair that
consistent() examines, over every walk of the search.  Before it tests a
block, consistent() raises BudgetExceeded if the block would take the
count past the budget, so a search never tests more tables than its
budget.

Each leaf (complete assignment) is numbered by its free values in mixed
radix n, a Python int when n**K does not fit in int64.  The statistics
count leaves as a walk that takes one leaf at a time would, a leaf that
has a value its self-linked cell does not take, or is not monotone or
not associative, counting as pruned: a surviving leaf
advances `candidates` to its number and adds the pruned leaves before it
to `pruned_assoc` in bulk, so the counters, the order of the models and
the limit stop are exactly those of that walk.  The surviving leaves
are extended to full tables by joins, and one whole-array kernel
(_leaf_verdicts) decides, for the leaves of one block that lex_blocks
yields, at most _LEAF_CHUNK at a time, whether each is a quantale and
which of the ten classifier flags it has.  Only leaves matching the
requested flags go on.

Under dedup_iso the search emits one model per isomorphism class.  Every
isomorphism of two leaves is an order automorphism pi of the lattice
that fixes the required unit, and pi maps the structures with involution
tau onto those with involution pi tau pi^-1.  Within one walk the
symmetries are the group H of the automorphisms that commute with the
involution and fix the unit; they permute the leaves, and an orbit shares
its verdicts.  So one rule finds the copies: a wanted leaf is deduped when
its involution is conjugate to one walked before it, or when some pi in H
maps it to a lexicographically smaller leaf (the lex-leader rule; the
lex-least leaf of an orbit is its first in walk order).  Under a limit
every leaf, copies included, is visited and counted, so that the stop and
its counters are the one-leaf walk's.  With no limit the search walks
only what dedup could emit, and counts as the one-leaf walk does.  A
conjugate involution is not walked: its counters are the earlier one's,
every leaf it would accept deduped.  consistent() drops a value prefix
that some pi in H maps to a lex-smaller prefix, so only the lex-least
leaf of each orbit reaches the kernel, weighted by the orbit's size
|H| / |stabilizer|.  A rejected leaf counts its weight, an accepted one
is emitted once and counts the rest of its orbit as deduped, and the
leaves no kernel leaf stands for are the pruned ones.

The searcher never trusts its own pruning or its kernel: every kernel leaf
that matches the requested flags is re-validated from scratch by
validate_quantale and re-classified by classify, independent code paths,
and any disagreement with the kernel is a failed theorem check.  So an
unsound prune can only lose models, never emit a bad one.  The symmetry
group and each conjugation are re-checked as well.  The kernel
decides the cubic laws on join-irreducibles, under the premises that
validate_quantale and modular_law check: the join laws with one
irreducible argument (no premise), associativity on irreducible triples
(the join and bottom laws), and the modular rung on irreducible b and c
(a frame and a valid table; on any other lattice, every cell).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import laws
from .lattice import SupLattice
from .laws import TheoremViolation, first_bad, lex_blocks
from .quantale import (BUILDS_ON, LADDER, Quantale, _FLAG_NAMES, _UNIT_RUNGS, classify,
                       lattice_order_isos, validate_quantale)

# Most associative leaves per _leaf_verdicts call.  Its largest
# temporaries hold n**2 * k cells per leaf (k join-irreducibles), and n**3
# for the modular rung on a lattice that is not a frame.
_LEAF_CHUNK = 1 << 8


class BudgetExceeded(RuntimeError):
    """Raised before a block of tables would take the tested count past the budget.

    Carries the count, the statistics so far and the models found so far.
    """

    def __init__(self, tested: int, stats: "SearchStats", models: list):
        super().__init__(f"search budget exhausted after {tested} tested tables")
        self.tested = tested
        self.stats = stats
        self.models = models


@dataclass
class SearchStats:
    free_cells: int = 0
    involutions: int = 0
    candidates: int = 0          # complete irreducible tables accounted for, as one
                                 # leaf at a time; a pruned prefix adds its leaves
                                 # in bulk
    emitted: int = 0
    pruned_assoc: int = 0        # leaves with a self-linked cell not self-adjoint, or
                                 # not monotone or not associative
    rejected_quantale: int = 0
    rejected_require: int = 0
    deduped: int = 0
    truncated: bool = False      # stopped early by `limit`
    exhausted: bool = True       # the whole tree was visited


@dataclass
class SearchSpec:
    """What to search for; `require` maps classifier flag names to bool."""

    lattice: SupLattice
    fix_involution: np.ndarray | None = None
    fix_unit: int | None = None
    require: dict = field(default_factory=dict)
    limit: int | None = None
    budget: int | None = None
    dedup_iso: bool = False
    cap: int = 6

    def __post_init__(self):
        if self.lattice.n > self.cap:
            raise ValueError(f"lattice has {self.lattice.n} elements, cap is {self.cap}")
        for name in self.require:
            if name not in _FLAG_NAMES:
                raise ValueError(f"unknown classifier flag {name!r}")
        if self.fix_involution is not None:
            self.fix_involution = np.asarray(self.fix_involution, dtype=np.intp)
        if self.fix_unit is not None and not 0 <= self.fix_unit < self.lattice.n:
            raise ValueError("fix_unit out of range")
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"limit must be at least 1: {self.limit}")


@dataclass
class SearchResult:
    models: list
    stats: SearchStats


def _involution_candidates(lat: SupLattice, fixed, autos) -> list[np.ndarray]:
    """The self-inverse ones of the order automorphisms autos, or just the fixed one."""
    ar = np.arange(lat.n, dtype=np.intp)
    if fixed is not None:
        perm = np.asarray(fixed, dtype=np.intp)
        if not (np.array_equal(perm[perm], ar)
                and (lat.leq == lat.leq[np.ix_(perm, perm)]).all()):
            raise ValueError("fix_involution is not a self-inverse order automorphism")
        return [perm]
    return [p for p in autos if np.array_equal(p[p], ar)]   # in lex order


def _symmetries(lat: SupLattice, autos: list, inv: np.ndarray, unit) -> list[np.ndarray]:
    """The order automorphisms in autos that commute with inv and fix unit (None: any).

    Each maps the structures with involution inv and unit `unit` onto such
    structures isomorphically, preserving validity and every flag.  The
    premises are re-checked on the result: each member preserves and
    reflects the order, commutes with inv and fixes the unit, and the
    members are closed under composition, so they form a group.  A failure
    is a failed theorem check.
    """
    group = [p for p in autos
             if np.array_equal(p[inv], inv[p]) and (unit is None or p[unit] == unit)]
    members = {p.tobytes() for p in group}
    for p in group:
        ok = ((lat.leq[np.ix_(p, p)] == lat.leq).all() and np.array_equal(p[inv], inv[p])
              and (unit is None or p[unit] == unit)
              and all(p[q].tobytes() in members for q in group))
        TheoremViolation.check("symmetry_group", None if ok else tuple(p.tolist()))
    return group


def _full_table(lat: SupLattice, m: np.ndarray) -> np.ndarray:
    """Join-extension of irreducible-pair tables m[..., i, j] = J[i].J[j] to the whole lattice.

    Leading axes index a stack of tables; the result keeps m's dtype.
    """
    right = lat.join_extend(np.moveaxis(m, (-1, -2), (0, 1)), lat)     # [y, i, ...] = J[i].y
    full = lat.join_extend(right.swapaxes(0, 1), lat)                    # [x, y, ...] = x.y
    return np.moveaxis(full, (0, 1), (-2, -1))


def _detect_unit(lat: SupLattice, muls: np.ndarray) -> np.ndarray:
    """The two-sided unit of each table of a stack muls[t], -1 for none."""
    ar = np.arange(lat.n)
    is_unit = (muls == ar).all(axis=-1) & (muls.swapaxes(-1, -2) == ar).all(axis=-1)
    return np.where(is_unit.any(axis=-1), is_unit.argmax(axis=-1), -1)


def _fixed_verdicts(lat: SupLattice, inv: np.ndarray) -> tuple[bool, bool]:
    """(the involution laws hold, the lattice is a frame): the facts no product changes."""
    ar = np.arange(lat.n)
    jt = lat.join_table
    involution = bool((inv[inv] == ar).all() and (inv[jt] == jt[np.ix_(inv, inv)]).all()
                      and inv[lat.bottom] == lat.bottom)
    return involution, lat.is_frame()[0]


def _leaf_verdicts(lat: SupLattice, muls: np.ndarray, inv: np.ndarray,
                   units: np.ndarray, fixed: tuple[bool, bool]) -> tuple[np.ndarray, dict]:
    """Validity and the ten classifier flags of a stack of full tables.

    muls[t] is a multiplication table with unit units[t] (-1 for none), and
    fixed is _fixed_verdicts(lat, inv).  Returns (valid, flags) with
    flags[name][t] true when the flag holds.  Every law of validate_quantale
    is decided on every table, the rungs of classify only on the valid
    tables and the unit rungs only on the valid unital ones: every flag of
    an invalid table, and a unit rung without a unit, is false.  No witness
    is computed.  The cubic laws are decided on join-irreducibles by the
    reductions of qlab.laws, under the premises that validate_quantale and
    modular_law check:

    * the join laws with one irreducible argument, M[x OR j, b] =
      M[x, b] OR M[j, b] and on the right: exact;
    * associativity on irreducible triples: exact on a table that passes
      the join and bottom laws, and a table that fails them is invalid;
    * on a frame, the modular rung on irreducible b and c, for every a:
      both of its sides preserve joins in b and in c once the product is
      bilinear, as on every valid table.  On any other lattice the rung is
      decided on every cell.

    The other laws and rungs are quadratic and are decided on every cell
    from their definitions, and each flag then builds on its rungs through
    BUILDS_ON.  On every valid table the implications of LADDER and the
    support cross-checks are re-checked; a failure raises TheoremViolation
    with the table's index in the stack.
    """
    M, A, n = muls, len(muls), lat.n
    leq, jt, mt = lat.leq, lat.join_table.astype(M.dtype), lat.meet_table.astype(M.dtype)
    ar = np.arange(n)
    J = np.asarray(lat.join_irreducibles, dtype=np.intp)
    bot, top = lat.bottom, lat.top
    involution, frame = fixed

    def each(ok):                       # [t, ...] -> the law holds on every cell of t
        return ok.all(axis=tuple(range(1, ok.ndim)))

    def stack(size):                    # the stack index, broadcast along 0 to 3 cell axes
        t = np.arange(size)
        return t, t[:, None], t[:, None, None], t[:, None, None, None]

    has = units >= 0
    e = np.where(has, units, 0)
    t1, _, _, t4 = stack(A)
    u_rows, u_cols = M[t1, e], M[t1, :, e]
    JM, MJ = M[:, J], M[:, :, J]                         # J[j] b and a J[j]
    JMJ = JM[:, :, J]                                    # J[i] J[j]
    bilinear = (each(M[:, jt[:, J]] == jt[M[:, :, None], JM[:, None]])
                & each(M[:, :, jt[:, J]] == jt[M[..., None], MJ[:, :, None]])
                & (M[:, bot] == bot).all(axis=1) & (M[:, :, bot] == bot).all(axis=1))
    valid = (involution & bilinear
             & each(M[t4, JMJ[..., None], J] == M[t4, J[:, None, None], JMJ[:, None]])
             & each(inv[M] == M[:, inv[None, :], inv[:, None]])
             & (~has | ((u_rows == ar).all(axis=1) & (u_cols == ar).all(axis=1))))

    # the rungs without a unit, on the valid tables
    v = np.flatnonzero(valid)
    M, e, has = muls[v], e[v], has[v]
    _, t2, t3, t4 = stack(len(v))
    aa = M[t2, ar, inv]                                  # a a*
    reg = M[t2, aa, ar]                                  # a a* a
    regular = reg == ar
    proj = (inv == ar) & (M[:, ar, ar] == ar)
    local = proj[:, None, :] & leq & leq[M, ar[:, None]]     # [t, a, p]: a <= p, ap <= a
    gens = J if frame else ar                            # the b and c of the modular rung
    inner = mt[gens[:, None], M[:, inv][:, :, None, gens]]   # [t, a, b, c] = b AND a*c
    a1 = M[:, :, top]
    plain = {"unital": has,
             "gelfand": each(~leq[a1, ar] | regular),
             "locally_gelfand": each(~local | regular[..., None]),
             "stably_gelfand": each(~leq[reg, ar] | regular),
             "modular": each(leq[mt[M[:, :, gens, None], gens],
                                 M[t4, ar[:, None, None], inner]]),
             "quantal_frame": np.full(len(v), frame)}

    # the unit rungs, on the valid unital tables
    u = np.flatnonzero(has)
    M, e, aa, a1, vu = M[u], e[u], aa[u], a1[u], v[u]
    _, t2, t3, _ = stack(len(u))
    sup = mt[a1, e[:, None]]
    supported = (each(sup[:, jt] == jt[sup[..., None], sup[:, None]])
                 & (sup[:, bot] == bot) & each(leq[sup, aa])
                 & each(leq[ar, M[t2, sup, ar]]))
    stable = each(leq[np.take_along_axis(sup, a1, axis=1), sup])
    partial = leq[jt[aa, M[t2, inv, ar]], e[:, None]]        # ss* OR s*s <= e
    bounds = ~(partial[:, :, None] & ~leq).any(axis=1)       # upper bounds of the partial units
    unit = {"supported": supported,
            "stably_supported": stable,
            "stable_quantal_frame": np.ones(len(u), bool),
            "inverse_quantal_frame": bounds.sum(axis=1) == 1}   # their join is the top

    flags = {name: np.zeros(A, bool) for name in _FLAG_NAMES}
    for rows, own in ((v, plain), (vu, unit)):
        for name, ok in own.items():
            flags[name][rows] = ok
    for name in _FLAG_NAMES:
        for rung in BUILDS_ON.get(name, ()):
            flags[name] = flags[name] & flags[rung]

    for pre, post, name in LADDER:
        bad = valid & ~flags[post]
        for p in pre:
            bad = bad & flags[p]
        TheoremViolation.check(name, first_bad(bad))
    # the cross-checks of quantale.support on supported tables: sup_times_top
    # and the b_* identities below the unit, then under stability the
    # composed, self-star, product, meet-unit and equivariance identities
    below_e = leq[ar, e[:, None]]                        # [t, b]: b <= e
    b_rows = below_e[..., None]
    sup_m = sup[t3, M]                                   # sup(ab)
    m_sup = M[t3, ar[:, None], sup[:, None, :]]          # a sup(b)
    cross = (each(M[t2, sup, top] == a1)
             & each(~(b_rows & below_e[:, None]) | (mt == M))
             & each(~below_e | ((inv == ar) & (sup == ar)))
             & (~stable
                | (each(sup_m == sup[t3, m_sup])
                   & each(sup == mt[aa, e[:, None]])
                   & each(~b_rows | ((M == mt[a1[..., None], ar])
                                     & (mt[M, e[:, None, None]] == mt)
                                     & (sup_m == m_sup))))))
    bad = np.zeros(A, bool)
    bad[vu] = supported & ~cross
    TheoremViolation.check("support_cross_checks", first_bad(bad))
    return valid, flags


def _triple_levels(lat: SupLattice, J: list[int], level: np.ndarray) -> list[tuple]:
    """The irreducible associativity triples, by the level at which a row decides them.

    level[i, j] is the free cell that places cell (i, j) of the irreducible
    table, -1 for a pinned cell.  Triple (i, j, l) reads J[i]J[j] = a,
    J[j]J[l] = b, the cells (t, l) with J[t] <= a and the cells (i, t) with
    J[t] <= b; so a row with these values of a and b decides it at the
    largest level of those cells and of (i, j) and (j, l).  Entry c + 1
    (c = -1 for the pinned cells) holds, for the T triples that some row
    decides at level c: their flat cells (i, j) and (j, l), each (T,); the
    flat (T * n * n) table, true at (s * n + a) * n + b when a row with
    values a and b decides the s-th of them at level c; and their flat cells
    (t, l) and (i, t) over every t, each (T, k).
    """
    k = len(J)
    ks = np.arange(k)
    below = lat.leq[J][:, None, :]                       # below[t, _, a]: J[t] <= a
    left = np.where(below, level[:, :, None], -1).max(axis=0, initial=-1)     # [l, a]
    right = np.where(below, level.T[:, :, None], -1).max(axis=0, initial=-1)  # [i, b]
    i, j, l = (g.ravel() for g in np.meshgrid(ks, ks, ks, indexing="ij"))     # in lex order
    when = np.maximum(np.maximum(level[i, j], level[j, l])[:, None, None],
                      np.maximum(left[l][:, :, None], right[i][:, None, :]))
    out = []
    for c in range(-1, int(level.max(initial=-1)) + 1):
        now = when == c
        t = np.flatnonzero(now.any(axis=(1, 2)))
        out.append((i[t] * k + j[t], j[t] * k + l[t], now[t].ravel(),
                    ks * k + l[t, None], i[t, None] * k + ks))
    return out


def search(spec: SearchSpec) -> SearchResult:
    """Enumerate every quantale structure matching the spec, in a fixed order.

    Raises BudgetExceeded before the walks would test more tables than
    `budget` allows; the exception carries the tested count, the statistics
    and the models found so far.
    """
    lat = spec.lattice
    n = lat.n
    J = lat.join_irreducibles
    k = len(J)
    pos = {q: i for i, q in enumerate(J)}
    stats = SearchStats()
    models: list[Quantale] = []
    autos = (lattice_order_isos(lat, lat)
             if spec.dedup_iso or spec.fix_involution is None else None)
    # symmetry reduction (see the module docstring); a limit stop visits every leaf
    reduced = spec.dedup_iso and spec.limit is None
    tested = 0                               # tables consistent() examined, for the budget

    # leaf tables hold elements in the smallest unsigned dtype (uint8 for n <= 256)
    dtype = np.min_scalar_type(n - 1)
    jt_t = lat.join_table.astype(dtype)
    below = lat.leq[J].T                     # below[a, t]: J[t] <= a
    bottom = dtype.type(lat.bottom)

    involutions = _involution_candidates(lat, spec.fix_involution, autos)
    stats.involutions = len(involutions)

    class _Stop(Exception):
        pass

    def accept(mul: np.ndarray, inv: np.ndarray, unit: int, verdicts: dict,
               weight: int, copy: bool) -> None:
        """Re-check one leaf whose kernel verdicts match `require`, and emit it unless a copy.

        The leaf stands for an orbit of `weight` isomorphic leaves.  A copy,
        isomorphic to a leaf before it, counts them all as deduped; any
        other leaf is emitted and counts the rest of its orbit as deduped.
        """
        Q = Quantale(lat, mul, inv, None if unit < 0 else unit)
        valid = validate_quantale(Q).ok
        rechecked = {"valid": valid, **(classify(Q).flags() if valid else {})}
        TheoremViolation.check("leaf_verdicts", {k: v for k, v in rechecked.items()
                                                 if verdicts[k] is not v} or None)
        stats.deduped += weight if copy else weight - 1
        if copy:
            return
        models.append(Q)
        stats.emitted += 1
        if spec.limit is not None and stats.emitted >= spec.limit:
            stats.truncated = True
            stats.exhausted = False
            raise _Stop

    def run_involution(inv: np.ndarray, conjugated: bool) -> None:
        """Walk the leaves of one involution; conjugated: it is conjugate to one walked before."""
        # the involution permutes the irreducibles; map cell (p,q) -> (q*,p*)
        inv_j = {i: pos[int(inv[J[i]])] for i in range(k)}
        m = np.full((k, k), -1, dtype=np.intp)

        if spec.fix_unit is not None and spec.fix_unit in pos:
            e = spec.fix_unit
            if inv[e] != e:
                return                       # a unit is always self-adjoint
            ei = pos[e]
            for i in range(k):
                m[ei, i] = J[i]
                m[i, ei] = J[i]

        cells = [(i, j) for i in range(k) for j in range(k) if m[i, j] < 0]
        free = []
        linked = set()
        for c in cells:
            if c in linked:
                continue
            free.append(c)
            partner = (inv_j[c[1]], inv_j[c[0]])
            if partner != c:
                linked.add(partner)
        stats.free_cells = max(stats.free_cells, len(free))

        # Flat cells of a k*k table: each free cell and its involution
        # partner.  The partner gets inv[v] before the cell gets v, so a
        # self-linked cell keeps v, and it takes only self-adjoint values.
        K = len(free)
        free_cols, partner_cols = np.array([(i * k + j, inv_j[j] * k + inv_j[i])
                                            for i, j in free], dtype=np.intp).reshape(K, 2).T
        values = [np.flatnonzero(inv == np.arange(n)) if f == p else np.arange(n)
                  for f, p in zip(free_cols, partner_cols)]
        level = np.full(k * k, -1, dtype=np.intp)
        level[partner_cols] = level[free_cols] = np.arange(K)
        triples = _triple_levels(lat, J, level.reshape(k, k))
        # monotone[c + 1]: the flat cell pairs (lo, hi) with m[lo] <= m[hi]
        # required (J[t] <= J[i] and J[s] <= J[j] for lo = (t, s), hi = (i, j))
        # whose later cell is placed at level c
        JJ = lat.leq[np.ix_(J, J)]
        lo, hi = np.nonzero((JJ[:, None, :, None] & JJ[None, :, None, :]).reshape(k * k, k * k)
                            & ~np.eye(k * k, dtype=bool))
        at = np.maximum(level[lo], level[hi])
        monotone = [(lo[at == c], hi[at == c]) for c in range(-1, K)]
        inv_t = inv.astype(dtype)
        fixed = _fixed_verdicts(lat, inv)

        # Leaves are numbered by their free values in mixed radix n, in walk
        # order; this involution's leaves follow the `first` before it.
        first, total = stats.candidates, n ** K
        radix = np.array([n ** (K - 1 - c) for c in range(K)],   # leaves below a value of cell c
                         dtype=np.int64 if total < 2 ** 63 else object)
        pruned = stats.pruned_assoc
        counted = 0                                       # leaves the kernel's leaves stand for

        # The symmetries of this walk act on the free values: pi maps free
        # cell src[t], or its partner, onto free cell t, so position t of pi.x
        # is val[t, x[src[t]]], with val[t] = pi, or pi o inv for the partner.
        # Position t of pi.x is known once positions 0..reach[t] are placed.
        group = _symmetries(lat, autos, inv, spec.fix_unit) if spec.dedup_iso else [np.arange(n)]
        slot = {c: (s, False) for s, c in enumerate(free)}
        for s, (i, j) in enumerate(free):
            slot.setdefault((inv_j[j], inv_j[i]), (s, True))
        maps = []
        for p in group:
            if np.array_equal(p, np.arange(n)):
                continue
            back = np.argsort([pos[int(p[q])] for q in J]).tolist()   # pi^-1 on positions of J
            sources = [slot[back[i], back[j]] for i, j in free]
            src = np.array([s for s, _ in sources], dtype=np.intp)
            val = np.array([p[inv] if partner else p for _, partner in sources],
                           dtype=np.intp).reshape(K, n)
            maps.append((src, val, np.maximum.accumulate(src)))

        def leaders(ext: np.ndarray, c: int) -> np.ndarray:
            """Which prefixes (R, c + 1) no symmetry maps to a lex-smaller prefix.

            Each image is compared with the prefix on the positions before
            its first unknown one; a smaller image there makes every leaf
            below the prefix larger than its image, so none is its orbit's
            lex-least leaf.  At the last level every position is known.
            """
            keep = np.ones(len(ext), dtype=bool)
            rows = np.arange(len(ext))
            for src, val, reach in maps:
                L = int(np.searchsorted(reach[:c + 1], c, side="right"))
                if L:
                    img, own = val[np.arange(L), ext[:, src[:L]]], ext[:, :L]
                    t = (img != own).argmax(axis=1)          # the first difference, or 0
                    keep &= img[rows, t] >= own[rows, t]
            return keep

        def weights(S: np.ndarray) -> np.ndarray:
            """The orbit size |H| / |stabilizer| of each leaf of S (S, K)."""
            stab = np.ones(len(S), dtype=np.int64)
            for src, val, _ in maps:
                stab += (val[np.arange(K), S[:, src]] == S).all(axis=1)
            return len(group) // stab

        def decide(S: np.ndarray) -> None:
            """Decide a chunk of associative leaves S (R, K), in order, as a leaf walk would.

            A wanted leaf is a copy when its involution is conjugated or a
            symmetry of the walk maps it to a lex-smaller leaf.
            """
            nonlocal counted
            muls = np.ascontiguousarray(_full_table(lat, tables(S).reshape(len(S), k, k)))
            units = (np.full(len(S), spec.fix_unit) if spec.fix_unit is not None
                     else _detect_unit(lat, muls))
            valid, flags = _leaf_verdicts(lat, muls, inv, units, fixed)
            wanted = valid.copy()
            for name, want in spec.require.items():
                wanted &= (flags[name] == want) & ((units >= 0) | (name not in _UNIT_RUNGS))
            copy = np.full(len(S), conjugated)
            copy[wanted] |= ~leaders(S[wanted], K - 1)
            weight = weights(S) if reduced else np.ones(len(S), dtype=np.int64)
            for t, (b, w) in enumerate(zip((S @ radix).tolist(), weight.tolist())):
                if spec.limit is not None:       # a limit stop reads the counters here
                    stats.candidates = first + b + 1
                    stats.pruned_assoc = pruned + b - counted
                counted += w
                if not valid[t]:
                    stats.rejected_quantale += w
                elif not wanted[t]:
                    stats.rejected_require += w
                else:
                    verdicts = {"valid": True, **{
                        name: None if units[t] < 0 and name in _UNIT_RUNGS
                        else bool(flags[name][t]) for name in _FLAG_NAMES}}
                    accept(muls[t], inv, int(units[t]), verdicts, w, bool(copy[t]))

        def passing(rows: np.ndarray, c: int) -> np.ndarray:
            """Indices of the rows that pass the monotone pairs and the triples of level c.

            The pairs are tested first, in one array step.  The triples that
            a row decides at level c are tested a group at a time, each group
            in one array step on the rows that passed the groups before it.
            Both products are computed on every (row, triple) pair of a group,
            and count only where the row decides the triple.  The first group
            holds max(1, triples // rows) triples and each later one twice as
            many, up to about laws._LEX_BLOCK pairs: a level on few rows takes
            one or two steps, and on many rows, which mostly fail their first
            triples, few pairs are computed for rows that are already dropped.
            """
            ij, jl, now, l_cells, i_cells = triples[c + 1]
            lo, hi = monotone[c + 1]
            alive = np.flatnonzero(lat.leq[rows[:, lo], rows[:, hi]].all(axis=1))
            rows = rows[alive]
            start, size = 0, max(1, len(ij) // max(1, len(rows)))
            while start < len(ij) and len(alive):
                stop = min(len(ij), start + max(1, min(size, laws._LEX_BLOCK // len(alive))))
                g = slice(start, stop)
                a, b = rows[:, ij[g]], rows[:, jl[g]]                      # [r, t]
                decides = now[(np.arange(start, stop) * n + a) * n + b]
                lhs = np.where(below[a], rows[:, l_cells[g]], bottom)      # [r, t, u]
                rhs = np.where(below[b], rows[:, i_cells[g]], bottom)
                for u in range(1, k):
                    lhs[..., 0] = jt_t[lhs[..., 0], lhs[..., u]]
                    rhs[..., 0] = jt_t[rhs[..., 0], rhs[..., u]]
                keep = ~(decides & (lhs[..., 0] != rhs[..., 0])).any(axis=1)
                rows, alive = rows[keep], alive[keep]
                start, size = stop, 2 * size
            return alive

        # The walk: lex_blocks over the free values.  consistent() keeps the
        # extensions that no symmetry maps to a smaller prefix and that pass
        # the pairs and triples they first decide.
        root = np.where(m < 0, 0, m).astype(dtype).reshape(1, k * k)

        def tables(S: np.ndarray) -> np.ndarray:
            """The partial tables of value prefixes S (R, c)."""
            rows = np.repeat(root, len(S), axis=0)
            rows[:, partner_cols[:S.shape[1]]] = inv_t[S]
            rows[:, free_cols[:S.shape[1]]] = S
            return rows

        def consistent(c: int, P: np.ndarray, v: np.ndarray) -> np.ndarray:
            nonlocal tested
            if spec.budget is not None and tested + len(P) * len(v) > spec.budget:
                stats.exhausted = False
                raise BudgetExceeded(tested, stats, models)
            tested += len(P) * len(v)
            ext = np.column_stack([np.repeat(P, len(v), axis=0), np.tile(v, len(P))])
            live = np.flatnonzero(leaders(ext, c)) if reduced else np.arange(len(ext))
            ok = np.zeros(len(ext), dtype=bool)
            ok[live[passing(tables(ext[live]), c)]] = True
            return ok.reshape(len(P), len(v))

        if len(passing(root, -1)):
            for S in lex_blocks(values, consistent):
                for c in range(0, len(S), _LEAF_CHUNK):
                    decide(S[c:c + _LEAF_CHUNK])
        stats.pruned_assoc = pruned + total - counted
        stats.candidates = first + total

    # The involutions walked so far, with what each added to the counters.
    # An involution conjugate to one of them by an automorphism that fixes
    # the unit adds the same, all its accepted leaves deduped: with no limit
    # it is not walked, and under a limit it is walked as a copy.
    counters = ("candidates", "pruned_assoc", "rejected_quantale", "rejected_require",
                "emitted", "deduped")
    walked: list = []
    unit_autos = (_symmetries(lat, autos, np.arange(n), spec.fix_unit)
                  if spec.dedup_iso and len(involutions) > 1 else [])

    def conjugate(inv: np.ndarray):
        """What a walked tau added to the counters, for some pi with pi tau = inv pi, or None."""
        for tau, added in walked:
            for p in unit_autos:
                if np.array_equal(p[tau], inv[p]):
                    back = np.argsort(p)
                    TheoremViolation.check("conjugate_involution", None if np.array_equal(
                        p[tau[back]], inv) else (tuple(tau.tolist()), tuple(p.tolist())))
                    return added
        return None

    try:
        for inv in involutions:
            added = conjugate(inv)
            if added is not None and reduced:
                for name in counters[:4]:
                    setattr(stats, name, getattr(stats, name) + added[name])
                stats.deduped += added["emitted"] + added["deduped"]
                continue
            before = [getattr(stats, name) for name in counters]
            run_involution(inv, added is not None)
            walked.append((inv, {name: getattr(stats, name) - was
                                 for name, was in zip(counters, before)}))
    except _Stop:
        pass
    return SearchResult(models, stats)
