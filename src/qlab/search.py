"""Exhaustive search for involutive quantale structures on a small lattice.

A join-preserving multiplication is determined by its values on pairs of
join-irreducibles, so the search branches only on those cells.  The
involution links each cell (p, q) to (q*, p*), and a join-irreducible unit
pins its row and column, which together cut the raw cell count roughly in
half before any value is tried.  The complete assignments (the leaves) are
visited in lexicographic order of the free cells, in blocks: the last few
free cells run over all their values inside one numpy block, and the block
is tested for associativity on irreducible triples all at once.  Every leaf
is still reached and tested, and the statistics, the order of the models
and the budget and limit stops are exactly those of a walk that takes one
leaf at a time.  The associative leaves of a block are extended to full
tables by joins, and one whole-array kernel (_leaf_verdicts) decides, for
all of them at once, whether each is a quantale and which of the ten
classifier flags it has.  Only leaves matching the requested flags go on.

The searcher never trusts its own pruning or its kernel: every leaf that
matches the requested flags is re-validated from scratch by
validate_quantale and re-classified by classify, independent code paths,
and any disagreement with the kernel is a failed theorem check.  So an
unsound prune can only lose models, never emit a bad one, and the kernel
decides every law from its definition, on every cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .lattice import SupLattice
from .laws import TheoremViolation, first_bad
from .quantale import (BUILDS_ON, LADDER, Quantale, _FLAG_NAMES, _UNIT_RUNGS, classify,
                       lattice_order_isos, validate_quantale)

# Leaves per block: the last d free cells vary inside a block, n**d <= _BLOCK.
_BLOCK = 1 << 14
# Associative leaves per _leaf_verdicts call, which holds n**3 cells per leaf.
_LEAF_CHUNK = 1 << 8


class BudgetExceeded(RuntimeError):
    """Raised when the candidate count passes the budget; carries partials."""

    def __init__(self, stats: "SearchStats", models: list):
        super().__init__(f"search budget exhausted after {stats.candidates} candidates")
        self.stats = stats
        self.models = models


@dataclass
class SearchStats:
    free_cells: int = 0
    involutions: int = 0
    candidates: int = 0          # complete irreducible tables reached; tested in
                                 # blocks, counted as one leaf at a time
    emitted: int = 0
    pruned_assoc: int = 0
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


def _involution_candidates(lat: SupLattice, fixed) -> list[np.ndarray]:
    """Self-inverse order automorphisms, or just the fixed one."""
    if fixed is not None:
        perm = np.asarray(fixed, dtype=np.intp)
        ar = np.arange(lat.n, dtype=np.intp)
        if not (np.array_equal(perm[perm], ar)
                and (lat.leq == lat.leq[np.ix_(perm, perm)]).all()):
            raise ValueError("fix_involution is not a self-inverse order automorphism")
        return [perm]
    autos = lattice_order_isos(lat, lat)
    ar = np.arange(lat.n, dtype=np.intp)
    cands = [p for p in autos if np.array_equal(p[p], ar)]
    cands.sort(key=lambda p: tuple(p.tolist()))
    return cands


def _full_table(lat: SupLattice, m: np.ndarray) -> np.ndarray:
    """Join-extension of irreducible-pair tables m[..., i, j] = J[i].J[j] to the whole lattice.

    Leading axes index a stack of tables; the result keeps m's dtype.
    """
    right = lat.join_extend(np.moveaxis(m, (-1, -2), (0, 1)), lat)     # [y, i, ...] = J[i].y
    full = lat.join_extend(right.swapaxes(0, 1), lat)                    # [x, y, ...] = x.y
    return np.moveaxis(full, (0, 1), (-2, -1))


def _detect_unit(lat: SupLattice, mul: np.ndarray):
    """The two-sided unit of a table, or None; of a stack of tables, their units, -1 for none."""
    ar = np.arange(lat.n)
    is_unit = (mul == ar).all(axis=-1) & (mul.swapaxes(-1, -2) == ar).all(axis=-1)
    units = np.where(is_unit.any(axis=-1), is_unit.argmax(axis=-1), -1)
    if mul.ndim == 2:
        return None if units < 0 else int(units)
    return units


def _fixed_verdicts(lat: SupLattice, inv: np.ndarray) -> tuple[bool, bool]:
    """(the involution laws hold, the lattice is a frame): the facts no product changes."""
    ar = np.arange(lat.n)
    jt, mt = lat.join_table, lat.meet_table
    involution = bool((inv[inv] == ar).all() and (inv[jt] == jt[np.ix_(inv, inv)]).all()
                      and inv[lat.bottom] == lat.bottom)
    frame = bool((mt[ar[:, None, None], jt] == jt[mt[:, :, None], mt[:, None, :]]).all())
    return involution, frame


def _leaf_verdicts(lat: SupLattice, muls: np.ndarray, inv: np.ndarray,
                   units: np.ndarray, fixed: tuple[bool, bool]) -> tuple[np.ndarray, dict]:
    """Validity and the ten classifier flags of a stack of full tables.

    muls[t] is a multiplication table with unit units[t] (-1 for none), and
    fixed is _fixed_verdicts(lat, inv).  Returns (valid, flags) with
    flags[name][t] true when the flag holds; a unit rung is false without
    a unit.  Every law of validate_quantale and every rung of classify is
    decided on every cell from its definition, with no generator
    reductions and no witnesses, and each flag then builds on its rungs
    through BUILDS_ON.  On every valid table the implications of LADDER
    and the support cross-checks are re-checked; a failure raises
    TheoremViolation with the table's index in the stack.
    """
    M, A, n = muls, len(muls), lat.n
    leq, jt, mt = lat.leq, lat.join_table.astype(M.dtype), lat.meet_table.astype(M.dtype)
    ar = np.arange(n)
    t1 = np.arange(A)
    t2 = t1[:, None]
    t3 = t2[..., None]
    t4 = t3[..., None]
    bot, top = lat.bottom, lat.top
    involution, frame = fixed

    def each(ok):                       # [t, ...] -> the law holds on every cell of t
        return ok.reshape(A, -1).all(axis=1)

    has = units >= 0
    e = np.where(has, units, 0)
    u_rows, u_cols = M[t1, e], M[t1, :, e]
    valid = (involution
             & each(M[t4, M[..., None], ar] == M[t4, ar[:, None, None], M[:, None]])
             & each(M[:, jt] == jt[M[:, :, None], M[:, None]])
             & each(M[:, :, jt] == jt[M[..., None], M[:, :, None]])
             & (M[:, bot] == bot).all(axis=1) & (M[:, :, bot] == bot).all(axis=1)
             & each(inv[M] == M[:, inv[None, :], inv[:, None]])
             & (~has | ((u_rows == ar).all(axis=1) & (u_cols == ar).all(axis=1))))

    aa = M[t2, ar, inv]                                  # a a*
    reg = M[t2, aa, ar]                                  # a a* a
    regular = reg == ar
    proj = (inv == ar) & (M[:, ar, ar] == ar)
    local = proj[:, None, :] & leq & leq[M, ar[:, None]]     # [t, a, p]: a <= p, ap <= a
    inner = mt[ar[:, None], M[:, inv][:, :, None, :]]        # [t, a, b, c] = b AND a*c
    a1 = M[:, :, top]
    sup = mt[a1, e[:, None]]
    supported = (each(sup[:, jt] == jt[sup[..., None], sup[:, None]])
                 & (sup[:, bot] == bot) & each(leq[sup, aa])
                 & each(leq[ar, M[t2, sup, ar]]))
    stable = each(leq[np.take_along_axis(sup, a1, axis=1), sup])
    partial = leq[jt[aa, M[t2, inv, ar]], e[:, None]]        # ss* OR s*s <= e
    bounds = ~(partial[:, :, None] & ~leq).any(axis=1)       # upper bounds of the partial units
    own = {
        "unital": has,
        "gelfand": each(~leq[a1, ar] | regular),
        "locally_gelfand": each(~local | regular[..., None]),
        "stably_gelfand": each(~leq[reg, ar] | regular),
        "modular": each(leq[mt[M[..., None], ar], M[t4, ar[:, None, None], inner]]),
        "supported": has & supported,
        "stably_supported": has & stable,
        "quantal_frame": np.full(A, frame),
        "stable_quantal_frame": has,
        "inverse_quantal_frame": has & (bounds.sum(axis=1) == 1),   # their join is the top
    }
    flags: dict = {}
    for name in _FLAG_NAMES:
        flags[name] = own[name]
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
    TheoremViolation.check("support_cross_checks", first_bad(valid & has & supported & ~cross))
    return valid, flags


def _canonical_key(Q: Quantale, autos: list[np.ndarray]) -> bytes:
    best = None
    for p in autos:
        inv_p = np.empty_like(p)
        inv_p[p] = np.arange(Q.n, dtype=np.intp)
        key = (p[Q.mul[np.ix_(inv_p, inv_p)]].tobytes()
               + p[Q.inv[inv_p]].tobytes()
               + bytes([0 if Q.unit is None else 1 + int(p[Q.unit])]))
        if best is None or key < best:
            best = key
    return best


def _associative_rows(lat: SupLattice, J: list[int], jt: np.ndarray,
                      block: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the irreducible tables in `block` that are associative.

    block[b, i, j] = J[i].J[j].  The join-extension of each table gives
    R[a, b, l] = a.J[l] and L[a, b, i] = J[i].a: the join, through the join
    table `jt`, of the products with the irreducibles below a.  A table is
    associative iff (J[i]J[j]).J[l] = J[i].(J[j]J[l]) for every irreducible
    triple, as for the full table; each triple is tested only on the tables
    that passed the ones before it.
    """
    B, k = block.shape[:2]
    rows = np.ascontiguousarray(block.transpose(1, 0, 2))   # rows[t, b, l] = J[t].J[l]
    cols = np.ascontiguousarray(block.transpose(2, 0, 1))   # cols[t, b, i] = J[i].J[t]
    R = np.empty((lat.n, B, k), dtype=block.dtype)
    L = np.empty((lat.n, B, k), dtype=block.dtype)
    for a in range(lat.n):
        below = np.flatnonzero(lat.leq[J, a])
        if not below.size:
            R[a] = L[a] = lat.bottom
            continue
        r, c = rows[below[0]], cols[below[0]]
        for t in below[1:]:
            r, c = jt[r, rows[t]], jt[c, cols[t]]
        R[a], L[a] = r, c
    alive = np.arange(B)
    for i, j, l in itertools.product(range(k), repeat=3):
        left = R[block[alive, i, j], alive, l]
        right = L[block[alive, j, l], alive, i]
        alive = alive[left == right]
        if not alive.size:
            break
    return alive


def search(spec: SearchSpec) -> SearchResult:
    """Enumerate every quantale structure matching the spec, in a fixed order.

    Raises BudgetExceeded when more complete candidate tables would have to
    be examined than `budget` allows; the exception carries the statistics
    and the models found so far.
    """
    lat = spec.lattice
    n = lat.n
    J = lat.join_irreducibles
    k = len(J)
    pos = {q: i for i, q in enumerate(J)}
    stats = SearchStats()
    models: list[Quantale] = []
    keys: set[bytes] = set()
    autos = lattice_order_isos(lat, lat) if spec.dedup_iso else None

    # leaf tables hold elements in the smallest unsigned dtype (uint8 for n <= 256)
    dtype = np.min_scalar_type(n - 1)
    jt_t = lat.join_table.astype(dtype)

    involutions = _involution_candidates(lat, spec.fix_involution)
    stats.involutions = len(involutions)

    class _Stop(Exception):
        pass

    def accept(mul: np.ndarray, inv: np.ndarray, unit: int, verdicts: dict) -> None:
        """Re-check, dedup and emit one leaf whose kernel verdicts match `require`."""
        Q = Quantale(lat, mul, inv, None if unit < 0 else unit)
        valid = validate_quantale(Q).ok
        rechecked = {"valid": valid, **(classify(Q).flags() if valid else {})}
        TheoremViolation.check("leaf_verdicts", {k: v for k, v in rechecked.items()
                                                 if verdicts[k] is not v} or None)
        if autos is not None:
            key = _canonical_key(Q, autos)
            if key in keys:
                stats.deduped += 1
                return
            keys.add(key)
        models.append(Q)
        stats.emitted += 1
        if spec.limit is not None and stats.emitted >= spec.limit:
            stats.truncated = True
            stats.exhausted = False
            raise _Stop

    def visit(block: np.ndarray, inv: np.ndarray, fixed: tuple) -> None:
        """Decide the associative leaves of one block, in order, as a leaf walk would."""
        first, seen = stats.candidates, 0
        rows = _associative_rows(lat, J, jt_t, block)
        for c in range(0, len(rows), _LEAF_CHUNK):
            chunk = rows[c:c + _LEAF_CHUNK]
            muls = np.ascontiguousarray(_full_table(lat, block[chunk]))
            units = (np.full(len(chunk), spec.fix_unit) if spec.fix_unit is not None
                     else _detect_unit(lat, muls))
            valid, flags = _leaf_verdicts(lat, muls, inv, units, fixed)
            wanted = valid.copy()
            for name, want in spec.require.items():
                wanted &= (flags[name] == want) & ((units >= 0) | (name not in _UNIT_RUNGS))
            for t, b in enumerate(chunk.tolist()):
                stats.candidates = first + b + 1
                stats.pruned_assoc += b - seen
                seen = b + 1
                if not valid[t]:
                    stats.rejected_quantale += 1
                elif not wanted[t]:
                    stats.rejected_require += 1
                else:
                    verdicts = {"valid": True, **{
                        name: None if units[t] < 0 and name in _UNIT_RUNGS
                        else bool(flags[name][t]) for name in _FLAG_NAMES}}
                    accept(muls[t], inv, int(units[t]), verdicts)
        stats.candidates = first + len(block)
        stats.pruned_assoc += len(block) - seen

    def run_involution(inv: np.ndarray) -> None:
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
        # self-linked cell keeps v.
        flat = [(i * k + j, inv_j[j] * k + inv_j[i]) for i, j in free]
        tail = 0
        while tail < len(free) and n ** (tail + 1) <= _BLOCK:
            tail += 1
        head = len(free) - tail

        # The block template: the last `tail` free cells over all n**tail
        # values in lexicographic order; pinned cells from m.
        inv_t = inv.astype(dtype)
        fixed = _fixed_verdicts(lat, inv)
        grid = np.array(list(itertools.product(range(n), repeat=tail)), dtype=dtype)
        template = np.repeat(np.where(m < 0, 0, m).astype(dtype).reshape(1, k * k),
                             len(grid), axis=0)
        for c, (cell, partner) in enumerate(flat[head:]):
            template[:, partner] = inv_t[grid[:, c]]
            template[:, cell] = grid[:, c]

        # Prefixes of the other free cells, in lexicographic order; the
        # counters advance to their one-leaf-at-a-time values at every stop.
        for prefix in itertools.product(range(n), repeat=head):
            block = template
            if spec.budget is not None and stats.candidates + len(block) > spec.budget:
                block = block[:spec.budget - stats.candidates]
            block = block.copy()
            for (cell, partner), v in zip(flat, prefix):
                block[:, partner] = inv_t[v]
                block[:, cell] = v
            visit(block.reshape(len(block), k, k), inv, fixed)
            if len(block) < len(template):
                stats.candidates += 1
                stats.exhausted = False
                raise BudgetExceeded(stats, models)

    try:
        for inv in involutions:
            run_involution(inv)
    except _Stop:
        pass
    return SearchResult(models, stats)
