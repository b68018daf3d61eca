"""Finite sup-lattices with precomputed join/meet tables.

Elements are dense integer indices 0..n-1.  The order is stored as an n x n
boolean matrix leq (leq[i, j] iff i <= j) and binary joins/meets are
precomputed into n x n index tables so that downstream exhaustive loops are
plain numpy gathers.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

from .laws import Violation, first_bad, first_violation, holds_on


class NotAPoset(Violation):
    """Raised when the input order relation is not a partial order."""

    message = "not a poset: {law} fails at {witness}"


class NotALattice(Violation):
    """Raised when some pair of elements has no least upper / greatest lower bound."""

    message = "not a lattice: no {law} for pair {witness}"

    @property
    def kind(self) -> str:
        """The missing bound: join, meet or bound."""
        return self.law


_BLOCK_WORDS = 1 << 16   # uint64 words of pair up-sets held at once


def _pack(rows: np.ndarray) -> np.ndarray:
    """Boolean rows as little-endian uint64 words: column c is bit c % 64 of word c // 64."""
    padded = np.zeros((rows.shape[0], -(-rows.shape[1] // 64) * 64), dtype=bool)
    padded[:, :rows.shape[1]] = rows
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def relation_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean relational product: out[i, k] iff a[i, j] and b[j, k] for some j.

    Exact bit arithmetic on packed rows: for each j, the packed row b[j] is
    OR-ed into every row i with a[i, j], so the work is one word operation
    per true cell of a and word of b, and temporaries are single rows.
    """
    packed = _pack(b)
    out = np.zeros((a.shape[0], packed.shape[1]), dtype="<u8")
    for j, rows in enumerate(np.ascontiguousarray(a.T)):
        out[rows] |= packed[j]
    return np.unpackbits(out.view(np.uint8), axis=1, count=b.shape[1],
                         bitorder="little").astype(bool)


def _bound_table(leq: np.ndarray, upper: bool, table: np.ndarray | None = None) -> np.ndarray:
    """Table of least upper (or greatest lower) bounds for all pairs.

    t[i, j] is the lub of i and j iff U(i) AND U(j) = U(t[i, j]), U(c)
    being the up-set of c.  A handed-over `table` is checked cell by cell
    against this test and returned as given.  Otherwise each candidate is
    found first: the lub, when it exists, is the common upper bound with the
    largest up-set, so the elements are ranked by descending up-set size
    (ties by index), the up-sets are packed into uint64 words in rank order,
    and the candidate is the first set bit of U(i) AND U(j).  Every cell
    then takes the same test, which also fails a pair with no common bound;
    a failure raises NotALattice with the lex-first pair, as a row-by-row
    scan would.  Rows are processed in blocks of at most _BLOCK_WORDS words.
    """
    rel = leq if upper else leq.T
    n = rel.shape[0]
    order = np.argsort(-rel.sum(axis=1), kind="stable")
    packed = _pack(rel[:, order])
    out = np.empty((n, n), dtype=np.intp) if table is None else table
    step = max(1, _BLOCK_WORDS // (n * packed.shape[1]))
    for r in range(0, n, step):
        common = packed[r:r + step, None, :] & packed[None, :, :]
        if table is None:
            word = np.argmax(common != 0, axis=2)
            w = np.take_along_axis(common, word[..., None], axis=2)[..., 0]
            low = (w & (~w + np.uint64(1))).astype(np.float64)  # lowest set bit, exactly 2**b
            rank = 64 * word + np.frexp(low)[1] - 1             # frexp(2**b) = (0.5, b + 1)
            out[r:r + step] = order[np.clip(rank, 0, n - 1)]
        cell = first_bad((common != packed[out[r:r + step]]).any(axis=2))
        if cell is not None:
            raise NotALattice("join" if upper else "meet", (r + cell[0], cell[1]))
    return out


class SupLattice:
    """A finite lattice; all joins and meets exist, including empty ones.

    Bound tables handed over together are stored as given; otherwise the
    order is validated and _bound_table computes or checks each table.  A
    meet table that is not handed over is computed on first read: once all
    binary joins exist, all meets exist iff there is a least element, so
    only a poset without one computes its meets at construction, to raise
    NotALattice at the lex-first pair with no meet.
    """

    def __init__(self, leq: np.ndarray, labels: Sequence[str] | None = None,
                 join_table: np.ndarray | None = None, meet_table: np.ndarray | None = None):
        leq = np.asarray(leq, dtype=bool)
        n = leq.shape[0]
        if n == 0 or leq.shape != (n, n):
            raise ValueError("leq must be a nonempty square boolean matrix")
        self.n = n
        self.leq = leq
        self.labels = [str(x) for x in labels] if labels is not None else [str(i) for i in range(n)]
        if len(self.labels) != n:
            raise ValueError("label count does not match n")
        self.bottom = int(np.argmax(leq.sum(axis=1)))
        self.top = int(np.argmax(leq.sum(axis=0)))
        if join_table is None or meet_table is None:
            self._validate_order()
            join_table = _bound_table(leq, True, join_table)
            if meet_table is not None or not leq[self.bottom].all():
                meet_table = _bound_table(leq, False, meet_table)
        self.join_table = join_table
        if meet_table is not None:
            self.meet_table = meet_table
        if not leq[self.bottom].all() or not leq[:, self.top].all():
            # cannot happen once all binary bounds exist, kept as a guard
            raise NotALattice("bound", (self.bottom, self.top))

    @cached_property
    def meet_table(self) -> np.ndarray:
        """Greatest lower bounds of all pairs; see the class docstring for when."""
        return _bound_table(self.leq, False)

    def _validate_order(self) -> None:
        leq = self.leq
        NotAPoset.check("reflexivity", first_bad(~np.diagonal(leq)))
        NotAPoset.check("antisymmetry", first_bad(leq & leq.T & ~np.eye(self.n, dtype=bool)))
        gap = first_bad(relation_product(leq, leq) & ~leq)
        if gap is not None:
            i, k = gap
            raise NotAPoset("transitivity", (i, int(np.argmax(leq[i] & leq[:, k])), k))

    @classmethod
    def from_covers(cls, n: int, covers: Iterable[Sequence[int]],
                    labels: Sequence[str] | None = None) -> "SupLattice":
        """Build and fully validate a lattice from its cover relation."""
        if n < 1:
            raise ValueError("a lattice needs at least one element")
        step = np.eye(n, dtype=bool)
        for i, j in covers:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"cover ({i}, {j}) out of range")
            step[i, j] = True
        # reflexive-transitive closure by repeated squaring
        leq = step
        while True:
            nxt = relation_product(leq, leq)
            if (nxt == leq).all():
                break
            leq = nxt
        return cls(leq, labels)

    def join(self, items: Iterable[int]) -> int:
        """Join of any finite family; the empty join is the bottom."""
        return int(reduce(lambda a, b: self.join_table[a, b], items, self.bottom))

    def meet(self, items: Iterable[int]) -> int:
        """Meet of any finite family; the empty meet is the top."""
        return int(reduce(lambda a, b: self.meet_table[a, b], items, self.top))

    def is_frame(self) -> tuple[bool, tuple[int, int, int] | None]:
        """Binary distributivity a AND (b OR c) = (a AND b) OR (a AND c).

        For a finite lattice this is equivalent to the full frame law.
        Returns (ok, witness); the witness is the lex-first failing triple.
        The verdict is `distributive` (Birkhoff's test); only a lattice
        that fails it is scanned for the witness, as join_witness of the
        meet table along axis 1 (the law says each a AND - preserves binary
        joins).  The result is computed once per lattice.
        """
        return self._frame_law

    @cached_property
    def _frame_law(self) -> tuple[bool, tuple[int, int, int] | None]:
        if self.distributive:
            return True, None
        w = self.join_witness(self.meet_table, self, axis=1)
        return w is None, w

    @cached_property
    def distributive(self) -> bool:
        """Birkhoff's test: every join-irreducible j is join-prime.

        j is join-prime when j <= x OR y implies j <= x or j <= y; a finite
        lattice is distributive iff all its join-irreducibles are, since then
        x |-> {j <= x} embeds it into a powerset.  |J| n^2 boolean cells.
        """
        leq, js = self.leq, self.join_table
        return not any((leq[j][js] & ~(leq[j][:, None] | leq[j][None, :])).any()
                       for j in self.join_irreducibles)

    @cached_property
    def join_irreducibles(self) -> list[int]:
        """Elements that are not the join of the elements strictly below them.

        Equivalently, x has a largest element y strictly below it; that y is
        the one strictly below x whose downset is one element smaller.
        """
        down = self.leq.sum(axis=0)
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        below = strict & (down[:, None] == down[None, :] - 1)
        return [int(x) for x in np.flatnonzero(below.any(axis=0))]

    def join_witness(self, table, target: "SupLattice", axis: int = 0):
        """Lex-first witness that `table` does not preserve binary joins, or None.

        The joins are those of this lattice along `axis`, and the values lie
        in `target`.  Axis 0 is the law table[x OR x', ...] = table[x, ...]
        OR table[x', ...], witnessed by (x, x', ...); table may be 1-D.
        Axis 1 is the law table[p, x OR x'] = table[p, x] OR table[p, x'] of
        a 2-D table, witnessed by (p, x, x').  This is the one place where
        the law is decided on generators (qlab.laws).  On a distributive
        lattice the law holds iff table equals its extension (below), since
        join-irreducibles are join-prime there; on any other lattice it is
        decided on join-irreducible x'.  The row scan runs only to find the
        witness.
        """
        table = np.asarray(table)
        js, jt, J = self.join_table, target.join_table, self.join_irreducibles
        if self.distributive:
            proved = bool((self.extension(table, target, axis) == table).all())
        elif axis == 1:
            proved = holds_on(lambda j: table[:, js[:, j]] != jt[table, table[:, j, None]], J)
        else:
            proved = holds_on(lambda j: table[js[:, j]] != jt[table, table[j:j + 1]], J)
        if axis == 1:
            return first_violation(lambda p: table[p][js] != jt[np.ix_(table[p], table[p])],
                                   range(len(table)), proved)
        return first_violation(lambda x: table[js[x]] != jt[table[x:x + 1], table],
                               range(self.n), proved)

    def extension(self, table, target: "SupLattice", axis: int = 0) -> np.ndarray:
        """table[bottom] OR the join-extension of table on the join-irreducibles.

        Along `axis` of table, whose values lie in `target`: out[x] is the
        join of table[bottom] and table[j] over every join-irreducible j <=
        x.  A table that preserves binary joins equals it; on a distributive
        lattice the converse holds too, since {j <= x OR y} = {j <= x} U
        {j <= y} when every join-irreducible is join-prime.  Other axes are
        carried along, so a stack of tables is checked in one step.
        """
        t = np.asarray(table).swapaxes(0, axis)
        ext = self.join_extend(t[self.join_irreducibles], target)
        return target.join_table[t[self.bottom], ext].swapaxes(0, axis)

    def join_extend(self, values, target: "SupLattice") -> np.ndarray:
        """The join-extension of values on the join-irreducibles into `target`.

        values[i] is an element of `target`, the image of
        join_irreducibles[i]; trailing axes are carried along.  out[x] is the
        join in `target` of values[i] over every join_irreducibles[i] <= x,
        so out[bottom] is target.bottom.  When values come from a
        join-preserving map this is that map, since every element is the
        join of the irreducibles below it.  The output has the dtype of
        `values`; a two-argument table is join_extend applied twice.

        On a distributive lattice the elements are filled one rank at a
        time (_rank_steps), each from two lower covers, which is one pass
        over the elements; on any other lattice each join-irreducible is
        joined into its up-set.
        """
        values = np.asarray(values)
        if len(values) != len(self.join_irreducibles):
            raise ValueError("one value per join-irreducible is needed")
        jt = target.join_table
        if not self.distributive:
            out = np.full((self.n,) + values.shape[1:], target.bottom, dtype=values.dtype)
            for j, v in zip(self.join_irreducibles, values):
                up = self.leq[j]
                out[up] = jt[out[up], v]
            return out
        work = np.empty((self.n + len(values),) + values.shape[1:], dtype=values.dtype)
        work[self.n:] = values
        work[self.bottom] = target.bottom
        for xs, a, b in self._rank_steps:
            work[xs] = jt[work[a], work[b]]
        return work[:self.n]

    @cached_property
    def _rank_steps(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(xs, a, b) per rank of a distributive lattice, rank 1 first.

        The rank of x is the number of join-irreducibles below it, and x's
        lower covers are the y < x one rank down.  A join-irreducible x has
        one, a, and b = n + its position among the irreducibles (its value
        in join_extend's work array); any other x is the join of two of
        them, a and b, and each irreducible below x lies below a or b,
        being join-prime.  So out[x] = out[a] OR out[b] in both cases.
        """
        leq, J = self.leq, self.join_irreducibles
        rank = leq[J].sum(axis=0)
        lower = leq & (rank[:, None] == rank[None, :] - 1)         # [y, x]: y covers under x
        a = np.argmax(lower, axis=0)
        b = np.argmax(lower & (np.arange(self.n)[:, None] != a), axis=0)
        b[J] = self.n + np.arange(len(J))
        return [(xs, a[xs], b[xs]) for r in range(1, int(rank.max(initial=0)) + 1)
                if len(xs := np.flatnonzero(rank == r))]

    def join_products(self, act, coeffs, vectors) -> np.ndarray:
        """out[i, ...] = the join over t of act[coeffs[i, t], vectors[t, ...]].

        act is a quantale's mul or a module's action table, with values in
        this lattice; vectors may be 1-D or 2-D.  This is the product of
        Q-valued matrices, (AB)_ik = join_t a_it b_tk, and the Hilbert-basis
        sum x = join_s <x,s>s.  The join folds in order of t from the
        bottom, so an empty sum is the bottom.
        """
        coeffs, vectors = np.asarray(coeffs), np.asarray(vectors)
        out = np.full(coeffs.shape[:1] + vectors.shape[1:], self.bottom, dtype=np.intp)
        lift = (slice(None),) + (None,) * (vectors.ndim - 1)
        for c, v in zip(coeffs.T, vectors, strict=True):
            out = self.join_table[out, act[c[lift], v]]
        return out

    def covers(self) -> list[tuple[int, int]]:
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        cov = strict & ~relation_product(strict, strict)
        return [(int(i), int(j)) for i, j in np.argwhere(cov)]

    def downset(self, a: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.leq[:, a])]

    def label(self, i: int) -> str:
        return self.labels[i]

    def __eq__(self, other) -> bool:
        return (isinstance(other, SupLattice) and self.n == other.n
                and (self.leq == other.leq).all())

    def __repr__(self) -> str:
        return f"SupLattice(n={self.n})"


def powerset_lattice(atoms: Sequence[str]) -> SupLattice:
    """Boolean lattice of all subsets of the given atoms, indexed by bitmask."""
    k = len(atoms)
    n = 1 << k
    masks = np.arange(n, dtype=np.intp)
    leq = (masks[:, None] & ~masks[None, :]) == 0
    labels = ["{" + ",".join(atoms[b] for b in range(k) if m >> b & 1) + "}" for m in masks]
    return SupLattice(leq, labels, masks[:, None] | masks, masks[:, None] & masks)


def chain_lattice(n: int, labels: Sequence[str] | None = None) -> SupLattice:
    """Total order 0 < 1 < ... < n-1."""
    return SupLattice.from_covers(n, [(i, i + 1) for i in range(n - 1)], labels)
