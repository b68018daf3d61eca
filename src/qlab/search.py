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
leaf at a time.  Every associative leaf is extended to a full table by
joins, re-validated from scratch by the quantale module, and classified;
only models matching the requested flags are emitted.

The searcher never trusts its own pruning: validate_quantale and classify
are independent code paths, so an unsound prune can only lose models, never
emit a bad one, and the leaf-level checks are exhaustive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .lattice import SupLattice
from .quantale import (Quantale, _FLAG_NAMES, classify, lattice_order_isos,
                       validate_quantale)

# Leaves per block: the last d free cells vary inside a block, n**d <= _BLOCK.
_BLOCK = 1 << 14


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
    """Join-extension of an irreducible-pair table m[i, j] = J[i].J[j] to the whole lattice."""
    return lat.join_extend(lat.join_extend(m.T, lat).T, lat)


def _detect_unit(lat: SupLattice, mul: np.ndarray) -> int | None:
    ar = np.arange(lat.n, dtype=np.intp)
    for e in range(lat.n):
        if (mul[e] == ar).all() and (mul[:, e] == ar).all():
            return e
    return None


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

    def accept(m: np.ndarray, inv: np.ndarray) -> None:
        """Validate, classify, filter and dedup one associative leaf."""
        mul = _full_table(lat, m)
        unit = spec.fix_unit if spec.fix_unit is not None else _detect_unit(lat, mul)
        Q = Quantale(lat, mul, inv, unit)
        if not validate_quantale(Q).ok:
            stats.rejected_quantale += 1
            return
        flags = classify(Q)
        for name, want in spec.require.items():
            if flags.flag(name) is not want:
                stats.rejected_require += 1
                return
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
            block = block.reshape(len(block), k, k)
            first, seen = stats.candidates, 0
            for b in _associative_rows(lat, J, jt_t, block).tolist():
                stats.candidates = first + b + 1
                stats.pruned_assoc += b - seen
                seen = b + 1
                accept(block[b].astype(np.intp), inv)
            stats.candidates = first + len(block)
            stats.pruned_assoc += len(block) - seen
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
