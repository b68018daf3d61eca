"""The law-check primitive shared by lattices, quantales and modules.

Every law is a family of table identities whose lex-first violation is the
witness a report carries.  A law that is cubic in the table size is scanned
one row at a time (first_violation), so temporaries stay n x n.

The scan is needed only to find a witness.  Whether the law holds is
usually decided faster on join-irreducible generators (holds_on), by one of
two exact reductions that the callers state next to each use:

* A map f between finite lattices preserves binary joins iff
  f(x OR j) = f(x) OR f(j) for every x and every join-irreducible j.  (By
  induction on a join-irreducible decomposition of the second argument;
  for x <= y the identities give f(y) = f(x) OR ..., so f is monotone,
  which covers the empty decomposition.)
* If both sides of an equation (or inequality) between two maps preserve
  finite joins, the empty one included, in each argument separately, it
  holds everywhere iff it holds on join-irreducible arguments, because
  every element is the join of the irreducibles below it.  So a
  multilinear law needs checking only on generators once its premises,
  the join and bottom laws that make it multilinear, have been checked.

On a distributive lattice the first reduction takes one comparison: f
preserves binary joins iff f(x) = f(bottom) OR the join of f(j) over the
join-irreducibles j <= x, for every x, since each join-irreducible is
join-prime there (Birkhoff).  The first reduction runs in one place,
SupLattice.join_witness, which every binary-join law calls.  A caller passes proved=True to
first_violation only when the premises and the reduced check both passed;
any other outcome runs the exhaustive scan, so every witness is the one
the exhaustive scan alone would report.

lex_solutions is the one enumerator behind singleton columns, lattice
order isomorphisms, equivariant maps, module homs and the quantale search:
it lists every tuple that a per-position test allows, in lexicographic
order, and lex_blocks streams the same tuples block by block.

A witness becomes an error in one place.  Violation.check raises when a law
of the input fails: that is a verdict, exit 1 in the CLI, and every law
error of qlab (NotAPoset, NotAQSet, NotEtale, ...) is a Violation.
TheoremViolation.check raises when a theorem that qlab re-checks on its
input fails: that is a bug, never a verdict (exit 3), and unlike an assert
it still runs under python -O.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

BadRow = Callable[[int], np.ndarray]


def first_bad(bad: np.ndarray):
    """Index tuple of the first true cell of `bad` in row-major order, or None."""
    if not bad.any():
        return None
    return tuple(int(v) for v in np.argwhere(bad)[0])


def first_bad_named(**bad):
    """(name,) + first_bad of the first named array, in argument order, with a true cell.

    A scalar (a failed shape test, say) gives the witness (name,).
    """
    return next(((name,) + first_bad(np.asarray(b)) for name, b in bad.items()
                 if np.any(b)), None)


class _Failure:
    """A named law or theorem with the witness of its failure."""

    message = "{law} fails at {witness}"    # a str.format template over law and witness

    def __init__(self, law: str, witness=()):
        self.law = law
        self.witness = witness
        super().__init__(self.message.format(law=law, witness=witness))

    @classmethod
    def check(cls, law: str, witness) -> None:
        """Raise cls(law, witness) unless witness is None."""
        if witness is not None:
            raise cls(law, witness)


class Violation(_Failure, ValueError):
    """A law of the input fails: the checked property is false."""


class TheoremViolation(_Failure, AssertionError):
    """A theorem that qlab re-checks fails on its input: a bug, never a verdict.

    It is not a Violation, so no `except Violation` reports it as one.
    """

    message = "theorem check {law} fails at {witness}"


def first_violation(bad_row: BadRow, rows: Iterable[int], proved: bool = False):
    """Lex-first witness (r, i, ...) of a row-by-row scan, or None.

    bad_row(r) is the boolean violation array of row r; rows are visited in
    order and the first true cell of the first bad row wins.  With proved
    set the law is already known to hold and nothing is scanned.
    """
    if proved:
        return None
    for r in rows:
        cell = first_bad(bad_row(r))
        if cell is not None:
            return (int(r),) + cell
    return None


def holds_on(bad_row: BadRow, generators: Iterable[int]) -> bool:
    """True when bad_row(j) has no true cell for any generator j."""
    return not any(bad_row(j).any() for j in generators)


_LEX_BLOCK = 1 << 16   # pairs per consistent() call, and per triple group of the search

Consistent = Callable[[int, np.ndarray, np.ndarray], np.ndarray]


def lex_blocks(values: Sequence[np.ndarray], consistent: Consistent) -> Iterator[np.ndarray]:
    """The solutions of lex_solutions as a stream of (S, K) intp blocks, in lex order.

    The walk is depth-first over blocks of about _LEX_BLOCK pairs, and
    np.nonzero reads a block row-major, which keeps the lex order; pending
    blocks are at most one block's extensions per level.  Each block is
    yielded as soon as its last position is tested, so a caller that stops
    early skips the rest of the walk.
    """
    values = [np.asarray(v, dtype=np.intp) for v in values]
    K = len(values)
    stack = [np.empty((1, 0), dtype=np.intp)]   # the empty prefix
    while stack:
        P = stack.pop()
        k = P.shape[1]
        if k == K:
            yield P
            continue
        rows, cols = np.nonzero(consistent(k, P, values[k]))
        ext = np.column_stack([P[rows], values[k][cols]])
        step = max(1, _LEX_BLOCK // max(1, len(values[k + 1])) if k + 1 < K else len(ext))
        stack.extend(ext[i:i + step] for i in reversed(range(0, len(ext), step)))


def lex_solutions(values: Sequence[np.ndarray], consistent: Consistent) -> np.ndarray:
    """Every tuple s with each s[k] in values[k] that consistent allows, in lex order.

    Returns an (S, K) intp array.  values[k] is the ascending array of
    candidates of position k.  consistent(k, P, c) gets surviving prefixes P
    (F, k) in lex order and the candidates c of position k, and returns the
    (F, len(c)) boolean array of allowed extensions; it tests the constraints
    that position k completes.  The blocks of lex_blocks, concatenated.
    """
    out = list(lex_blocks(values, consistent))
    return np.concatenate(out) if out else np.empty((0, len(values)), dtype=np.intp)
