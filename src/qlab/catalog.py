"""Named quantale instances and the constructors behind them.

Powerset-style quantales are generated from atom-level data: products and
involutes of single atoms extend to all subsets by joins, which makes join
preservation hold by construction and keeps the table build linear in the
number of atoms.  Relations and groups are groupoids, so relq(n) and
group_quantale are O(G) of the pair groupoid and of the group, built by
groupoid.groupoid_quantale.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .lattice import SupLattice, build_lattice, powerset_lattice
from .quantale import Quantale


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


def relq(n: int) -> Quantale:
    """Quantale of all binary relations on an n-element set: O(pair_n).

    Atoms are ordered pairs (i, j) at bit n*i + j; composition is
    diagrammatic ((i,j);(j,k) = (i,k)), involution is the converse and the
    unit is the diagonal.
    """
    from .groupoid import groupoid_quantale, pair_groupoid

    return groupoid_quantale(pair_groupoid(n), name=f"relq{n}")


def egger8() -> Quantale:
    """8-element boolean algebra with atoms a, b, c; stably supported, not modular.

    Coatoms are labeled x = a v b, y = a v c, z = b v c. The unit is the
    atom a; the involution is trivial.
    """
    atom_mul = np.array([[1, 2, 4],
                         [2, 7, 7],
                         [4, 7, 7]], dtype=np.int64)
    labels = ["0", "a", "b", "x", "c", "y", "z", "1"]
    return powerset_quantale(atom_mul, [0, 1, 2], 1, ["a", "b", "c"],
                             name="egger8", labels=labels)


def quantale_r4() -> Quantale:
    """Four-element quantale R on the diamond 0 < e, a < 1 with aa = 1.

    Modular (hence stably supported) quantal frame whose partial units fail
    to cover the top: the only Hilbert sections of R over itself are 0 and e.
    """
    lat = build_lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)], ["0", "e", "a", "1"])
    mul = [[0, 0, 0, 0],
           [0, 1, 2, 3],
           [0, 2, 3, 3],
           [0, 3, 3, 3]]
    return Quantale(lat, mul, [0, 1, 2, 3], unit=1, name="r4")


def frame_quantale(lat: SupLattice, name: str | None = None) -> Quantale:
    """Any frame as an involutive quantale: product = meet, trivial involution."""
    ok, w = lat.is_frame()
    if not ok:
        raise ValueError(f"not a frame, distributivity fails at {w}")
    return Quantale(lat, lat.meet_table, np.arange(lat.n), unit=lat.top, name=name)


def group_identity_and_inverses(table) -> tuple[int, np.ndarray]:
    """The identity of a finite group's multiplication table and each element's inverse."""
    t = np.asarray(table, dtype=np.intp)
    ar = np.arange(t.shape[0])
    ident = next(g for g in ar if (t[g] == ar).all() and (t[:, g] == ar).all())
    return int(ident), np.array([next(h for h in ar if t[g, h] == ident) for g in ar],
                                dtype=np.intp)


def group_quantale(table: Sequence[Sequence[int]], labels: Sequence[str] | None = None,
                   name: str | None = None) -> Quantale:
    """Powerset quantale of a finite group given by its multiplication table: O(G)."""
    from .groupoid import group_groupoid, groupoid_quantale

    labels = list(labels) if labels is not None else [f"g{i}" for i in range(len(table))]
    return groupoid_quantale(group_groupoid(table, labels), name=name)


def cyclic_table(n: int) -> np.ndarray:
    return (np.arange(n)[:, None] + np.arange(n)[None, :]) % n


def _chain2_frame() -> Quantale:
    return frame_quantale(build_lattice(2, [(0, 1)], ["0", "1"]), name="chain2")


def _pow2_frame() -> Quantale:
    return frame_quantale(powerset_lattice(["u", "v"]), name="pow2")


_QUANTALES: dict[str, Callable[[], Quantale]] = {
    "relq2": lambda: relq(2),
    "relq3": lambda: relq(3),
    "egger8": egger8,
    "r4": quantale_r4,
    "zmod2": lambda: group_quantale(cyclic_table(2), ["e", "g"], name="zmod2"),
    "zmod3": lambda: group_quantale(cyclic_table(3), ["e", "g", "h"], name="zmod3"),
    "chain2": _chain2_frame,
    "pow2": _pow2_frame,
}


def catalog_entries() -> dict[str, tuple[str, Callable[[], object]]]:
    """Name -> (kind, constructor) for everything addressable as catalog:NAME."""
    from . import groupoid as _g

    entries: dict[str, tuple[str, Callable[[], object]]] = {
        name: ("quantale", fn) for name, fn in _QUANTALES.items()
    }
    entries.update(_g.catalog_groupoid_entries())
    return entries


def catalog_get(name: str):
    entries = catalog_entries()
    if name not in entries:
        raise KeyError(f"unknown catalog entry {name!r}")
    kind, fn = entries[name]
    return kind, fn()
