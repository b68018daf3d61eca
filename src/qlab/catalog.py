"""Every object addressable as catalog:NAME, and the constructors behind them.

_QUANTALES and _GROUPOIDS map names to constructors; a groupoid NAME also
gives its actions NAME_regular and NAME_objects.  A quantale is built on
every catalog_get, a groupoid or action once, so an action's .groupoid is
the catalog's groupoid.  Relations and groups are groupoids: relq(n) and
group_quantale are O(G) of the pair groupoid and of the group, built by
groupoid.groupoid_quantale.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .groupoid import (FiniteGroupoid, GroupoidAction, disjoint_union, group_groupoid,
                       groupoid_quantale, objects_action, pair_groupoid, powerset_quantale,
                       regular_action)
from .lattice import SupLattice, powerset_lattice
from .quantale import Quantale


def relq(n: int) -> Quantale:
    """Quantale of all binary relations on an n-element set: O(pair_n).

    Atoms are ordered pairs (i, j) at bit n*i + j; composition is
    diagrammatic ((i,j);(j,k) = (i,k)), involution is the converse and the
    unit is the diagonal.
    """
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
    lat = SupLattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)], ["0", "e", "a", "1"])
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


def group_quantale(table: Sequence[Sequence[int]], labels: Sequence[str] | None = None,
                   name: str | None = None) -> Quantale:
    """Powerset quantale of a finite group given by its multiplication table: O(G)."""
    labels = list(labels) if labels is not None else [f"g{i}" for i in range(len(table))]
    return groupoid_quantale(group_groupoid(table, labels), name=name)


def cyclic_table(n: int) -> np.ndarray:
    return (np.arange(n)[:, None] + np.arange(n)[None, :]) % n


_QUANTALES: dict[str, Callable[[], Quantale]] = {
    "relq2": lambda: relq(2),
    "relq3": lambda: relq(3),
    "egger8": egger8,
    "r4": quantale_r4,
    "zmod2": lambda: group_quantale(cyclic_table(2), ["e", "g"], name="zmod2"),
    "zmod3": lambda: group_quantale(cyclic_table(3), ["e", "g", "h"], name="zmod3"),
    "chain2": lambda: frame_quantale(SupLattice.from_covers(2, [(0, 1)], ["0", "1"]),
                                     name="chain2"),
    "pow2": lambda: frame_quantale(powerset_lattice(["u", "v"]), name="pow2"),
}


_GROUPOIDS: dict[str, Callable[[], FiniteGroupoid]] = {
    "z2": lambda: group_groupoid(cyclic_table(2), ["e", "g"], "z2"),
    "z3": lambda: group_groupoid(cyclic_table(3), ["e", "g", "gg"], "z3"),
    "pair2": lambda: pair_groupoid(2),
    "pair3": lambda: pair_groupoid(3),
    "z2_plus_pair2": lambda: disjoint_union(_GROUPOIDS["z2"](), pair_groupoid(2),
                                            name="z2_plus_pair2"),
}
GROUPOID_NAMES = tuple(_GROUPOIDS)
_ACTIONS = {"regular": regular_action, "objects": objects_action}   # entry suffix -> action


@lru_cache(maxsize=None)
def _groupoid(name: str) -> FiniteGroupoid:
    return _GROUPOIDS[name]()


@lru_cache(maxsize=None)
def _action(name: str, suffix: str) -> GroupoidAction:
    return _ACTIONS[suffix](_groupoid(name))


def catalog_entries() -> dict[str, tuple[str, Callable[[], object]]]:
    """Name -> (kind, constructor) for everything addressable as catalog:NAME."""
    entries = {name: ("quantale", fn) for name, fn in _QUANTALES.items()}
    for name in _GROUPOIDS:
        entries[name] = ("groupoid", partial(_groupoid, name))
        for suffix in _ACTIONS:
            entries[f"{name}_{suffix}"] = ("action", partial(_action, name, suffix))
    return entries


def catalog_get(name: str):
    entries = catalog_entries()
    if name not in entries:
        raise KeyError(f"unknown catalog entry {name!r}")
    kind, fn = entries[name]
    return kind, fn()
