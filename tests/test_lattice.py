from unittest import mock

import numpy as np
import pytest

from qlab import hilbert
from qlab.catalog import relq
from qlab.lattice import NotALattice, NotAPoset, SupLattice, chain_lattice, powerset_lattice
from qlab.qmatrix import QSet


def diamond():
    return SupLattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)], ["0", "e", "a", "1"])


def test_chain_tables():
    lat = chain_lattice(4)
    assert lat.bottom == 0 and lat.top == 3
    for i in range(4):
        for j in range(4):
            assert lat.join_table[i, j] == max(i, j)
            assert lat.meet_table[i, j] == min(i, j)
    assert lat.join_irreducibles == [1, 2, 3]
    assert lat.covers() == [(0, 1), (1, 2), (2, 3)]
    ok, w = lat.is_frame()
    assert ok and w is None


def test_powerset_bitmask_conventions():
    lat = powerset_lattice(["u", "v"])
    assert lat.n == 4
    assert lat.bottom == 0 and lat.top == 3
    masks = np.arange(4)
    assert np.array_equal(lat.join_table, masks[:, None] | masks[None, :])
    assert np.array_equal(lat.meet_table, masks[:, None] & masks[None, :])
    assert lat.labels == ["{}", "{u}", "{v}", "{u,v}"]
    # leq is subset inclusion of bitmasks
    for a in range(4):
        for b in range(4):
            assert lat.leq[a, b] == ((a & ~b) == 0)
    assert lat.join_irreducibles == [1, 2]


def test_diamond_is_the_two_atom_boolean_lattice():
    lat = diamond()
    assert lat.join_table[1, 2] == 3
    assert lat.meet_table[1, 2] == 0
    assert lat.join_irreducibles == [1, 2]
    assert lat.is_frame() == (True, None)
    pow2 = powerset_lattice(["u", "v"])
    assert np.array_equal(lat.leq, pow2.leq)


def test_covers_round_trip():
    for lat in (chain_lattice(5), diamond(), powerset_lattice(["a", "b", "c"])):
        again = SupLattice.from_covers(lat.n, lat.covers(), lat.labels)
        assert again == lat
        assert again.labels == lat.labels


def test_join_meet_of_families():
    lat = powerset_lattice(["a", "b", "c"])
    assert lat.join([]) == lat.bottom
    assert lat.meet([]) == lat.top
    assert lat.join([1, 2, 4]) == 7
    assert lat.meet([3, 5]) == 1
    assert lat.downset(5) == [0, 1, 4, 5]
    assert lat.label(7) == "{a,b,c}"


def test_m3_is_a_lattice_but_not_a_frame():
    # three incomparable atoms below a common top
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    lat = SupLattice.from_covers(5, covers)
    ok, w = lat.is_frame()
    assert not ok
    a, b, c = w
    jt, mt = lat.join_table, lat.meet_table
    assert mt[a, jt[b, c]] != jt[mt[a, b], mt[a, c]]


def test_pentagon_not_a_frame():
    # 0 < x < y < 1 and 0 < z < 1 with z incomparable to x, y
    lat = SupLattice.from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    ok, _ = lat.is_frame()
    assert not ok


def test_reflexivity_failure():
    leq = np.eye(3, dtype=bool)
    leq[1, 1] = False
    with pytest.raises(NotAPoset) as ei:
        SupLattice(leq)
    assert ei.value.law == "reflexivity"
    assert ei.value.witness == (1,)


def test_antisymmetry_failure():
    leq = np.eye(2, dtype=bool)
    leq[0, 1] = leq[1, 0] = True
    with pytest.raises(NotAPoset) as ei:
        SupLattice(leq)
    assert ei.value.law == "antisymmetry"


def test_antisymmetry_failure_from_cover_cycle():
    with pytest.raises(NotAPoset) as ei:
        SupLattice.from_covers(3, [(0, 1), (1, 2), (2, 0)])
    assert ei.value.law == "antisymmetry"
    assert ei.value.witness == (0, 1)


def test_transitivity_failure():
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 2] = True  # 0 <= 1 <= 2 but not 0 <= 2
    with pytest.raises(NotAPoset) as ei:
        SupLattice(leq)
    assert ei.value.law == "transitivity"
    assert ei.value.witness == (0, 1, 2)


def test_bowtie_has_no_joins():
    # two minimal elements under two maximal ones: the pair (0, 1) has two
    # incomparable upper bounds and no least one
    with pytest.raises(NotALattice) as ei:
        SupLattice.from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert ei.value.kind == "join"
    assert ei.value.witness == (0, 1)


def test_constructor_input_errors():
    with pytest.raises(ValueError):
        SupLattice.from_covers(0, [])
    with pytest.raises(ValueError):
        SupLattice.from_covers(2, [(0, 5)])
    with pytest.raises(ValueError):
        SupLattice(np.zeros((0, 0), dtype=bool))
    with pytest.raises(ValueError):
        SupLattice(np.eye(2, dtype=bool), labels=["only-one"])


def test_equality_ignores_labels():
    a = chain_lattice(3, ["x", "y", "z"])
    b = chain_lattice(3)
    assert a == b
    assert a != chain_lattice(4)


# ------------------------------------------------------------- handed-over tables

@pytest.mark.parametrize("k", range(7))
def test_powerset_tables_equal_the_computed_ones(k):
    lat = powerset_lattice([f"a{i}" for i in range(k)])
    computed = SupLattice(lat.leq)
    assert np.array_equal(lat.join_table, computed.join_table)
    assert np.array_equal(lat.meet_table, computed.meet_table)
    assert (lat.bottom, lat.top) == (computed.bottom, computed.top)


def with_wrong_cells(table, cells):
    """A copy of a bound table with each cell (i, j), and (j, i), moved to another value."""
    bad = table.copy()
    for i, j in cells:
        bad[i, j] = bad[j, i] = (table[i, j] + 1) % len(table)
    return bad


@pytest.mark.parametrize("cells, first", [
    ([(3, 5)], (3, 5)),
    ([(6, 6)], (6, 6)),
    ([(4, 7), (1, 2)], (1, 2)),      # the lex-first of two wrong pairs
    ([(0, 0), (2, 5)], (0, 0)),
])
def test_a_wrong_handed_over_table_fails_at_its_lex_first_pair(cells, first):
    lat = powerset_lattice(["a", "b", "c"])
    for kind, tables in (("join", {"join_table": with_wrong_cells(lat.join_table, cells)}),
                         ("meet", {"meet_table": with_wrong_cells(lat.meet_table, cells)})):
        with pytest.raises(NotALattice) as ei:
            SupLattice(lat.leq, **tables)
        assert (ei.value.kind, ei.value.witness) == (kind, first)
    # a right table is stored as given
    handed = lat.join_table.copy()
    assert SupLattice(lat.leq, join_table=handed).join_table is handed


def test_a_wrong_carrier_join_table_fails_at_its_lex_first_pair():
    # module_from_qset hands SupLattice the join table its closure found;
    # one wrong pair of cells in it is caught there
    X = QSet(relq(2), [[9, 0, 8, 1], [0, 15, 5, 0], [8, 3, 9, 0], [1, 0, 0, 1]])
    carrier = hilbert.module_from_qset(relq(2), X).module.carrier
    i, j = 2, carrier.n - 3
    real = hilbert.SupLattice

    def spoiled(leq, labels, join_table):
        return real(leq, labels, join_table=with_wrong_cells(join_table, [(i, j)]))

    with mock.patch.object(hilbert, "SupLattice", spoiled), \
            pytest.raises(NotALattice) as ei:
        hilbert.module_from_qset(relq(2), X)
    assert (ei.value.kind, ei.value.witness) == ("join", (i, j))


def test_a_poset_without_a_least_element_has_no_meet():
    leq = np.eye(3, dtype=bool)
    leq[:, 2] = True                   # two incomparable elements under a top
    with pytest.raises(NotALattice) as ei:
        SupLattice(leq)
    assert (ei.value.kind, ei.value.witness) == ("meet", (0, 1))
    assert str(ei.value) == "not a lattice: no meet for pair (0, 1)"


def test_the_meet_table_is_computed_on_first_read():
    lat = SupLattice(powerset_lattice(["a", "b", "c"]).leq)
    assert "meet_table" not in vars(lat)
    masks = np.arange(8)
    assert np.array_equal(lat.meet_table, masks[:, None] & masks[None, :])
    # a handed-over meet table is checked and stored at construction
    handed = masks[:, None] & masks[None, :]
    assert SupLattice(lat.leq, meet_table=handed).meet_table is handed
