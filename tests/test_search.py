import numpy as np
import pytest

from qlab.catalog import egger8, quantale_r4
from qlab.lattice import SupLattice, chain_lattice, powerset_lattice
from qlab.quantale import are_isomorphic, classify, validate_quantale
from qlab.search import BudgetExceeded, SearchSpec, search

DIAMOND = SupLattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)],
                        labels=["0", "e", "a", "1"])


def test_two_element_chain_has_two_quantale_structures():
    res = search(SearchSpec(chain_lattice(2)))
    assert res.stats.candidates == 2
    assert len(res.models) == 2
    muls = sorted(int(Q.mul[1, 1]) for Q in res.models)
    assert muls == [0, 1]  # the zero multiplication and the frame
    assert res.stats.exhausted and not res.stats.truncated


def test_diamond_unconstrained_enumeration():
    spec = SearchSpec(DIAMOND, fix_involution=np.arange(4), fix_unit=1)
    res = search(spec)
    # one free cell (a.a), so one candidate per lattice element
    assert res.stats.free_cells == 1
    assert res.stats.candidates == 4
    assert len(res.models) == 4
    assert sorted(int(Q.mul[2, 2]) for Q in res.models) == [0, 1, 2, 3]
    for Q in res.models:
        assert validate_quantale(Q).ok


def test_diamond_requirement_pins_down_r4():
    spec = SearchSpec(DIAMOND, fix_involution=np.arange(4), fix_unit=1,
                      require={"stably_supported": True,
                               "inverse_quantal_frame": False})
    res = search(spec)
    assert res.stats.candidates == 4
    assert res.stats.emitted == 1
    assert are_isomorphic(res.models[0], quantale_r4())


def test_limit_truncates():
    res = search(SearchSpec(DIAMOND, fix_involution=np.arange(4),
                            fix_unit=1, limit=1))
    assert len(res.models) == 1
    assert res.stats.truncated
    assert not res.stats.exhausted


def test_budget_counts_tested_tables():
    # one block: the empty prefix extended by the 4 values of the free cell
    spec = SearchSpec(DIAMOND, fix_involution=np.arange(4), fix_unit=1, budget=3)
    with pytest.raises(BudgetExceeded) as ei:
        search(spec)
    assert ei.value.tested == 0 and ei.value.models == []
    assert not ei.value.stats.exhausted
    res = search(SearchSpec(DIAMOND, fix_involution=np.arange(4), fix_unit=1, budget=4))
    assert res.stats.exhausted and len(res.models) == 4


def test_search_is_deterministic():
    spec = SearchSpec(powerset_lattice(["u", "v"]), dedup_iso=True)
    a = search(spec)
    b = search(SearchSpec(powerset_lattice(["u", "v"]), dedup_iso=True))
    key = lambda res: [(Q.mul.tobytes(), Q.inv.tobytes(), Q.unit)
                       for Q in res.models]
    assert key(a) == key(b)
    assert a.stats == b.stats


def test_boolean8_rediscovers_the_eggerston_quantale():
    lat = powerset_lattice(["a", "b", "c"])
    spec = SearchSpec(lat, fix_involution=np.arange(8), cap=8,
                      require={"stably_supported": True, "modular": False},
                      dedup_iso=True)
    res = search(spec)
    assert res.stats.candidates == 262144
    assert res.stats.pruned_assoc == 258077
    assert res.stats.emitted == 9
    assert any(are_isomorphic(Q, egger8()) for Q in res.models)
    for Q in res.models:
        flags = classify(Q)
        assert flags.flag("stably_supported") and not flags.flag("modular")


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(powerset_lattice(["a", "b", "c"]))  # default cap is 6
    with pytest.raises(ValueError):
        SearchSpec(DIAMOND, require={"shiny": True})
    with pytest.raises(ValueError):
        SearchSpec(DIAMOND, fix_unit=7)
    with pytest.raises(ValueError):
        search(SearchSpec(DIAMOND, fix_involution=[0, 1, 3, 2]))  # not monotone
    with pytest.raises(ValueError):
        search(SearchSpec(DIAMOND, fix_involution=[1, 0, 2, 3]))
    # the atom swap, by contrast, is a legitimate involution
    res = search(SearchSpec(DIAMOND, fix_involution=[0, 2, 1, 3], fix_unit=1))
    assert res.stats.involutions == 1


def test_unital_requirement_filters_unitless_tables():
    res = search(SearchSpec(chain_lattice(2), require={"unital": True}))
    assert len(res.models) == 1
    assert res.models[0].unit == 1
    assert res.stats.rejected_require == 1  # the zero multiplication


def test_every_emitted_model_reclassifies_identically():
    spec = SearchSpec(DIAMOND, fix_unit=1,
                      require={"stably_supported": True})
    res = search(spec)
    assert res.models
    for Q in res.models:
        rebuilt = type(Q)(Q.lattice, Q.mul, Q.inv, Q.unit)
        assert validate_quantale(rebuilt).ok
        assert classify(rebuilt).flag("stably_supported")
