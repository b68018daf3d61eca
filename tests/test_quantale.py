import itertools

import numpy as np
import pytest

from qlab.catalog import (catalog_entries, cyclic_table, egger8, frame_quantale,
                          group_quantale, quantale_r4, relq)
from qlab.lattice import SupLattice, chain_lattice, powerset_lattice
from qlab.quantale import (BNotLocale, NotUnital, PropertyReport, Quantale,
                           base_locale, classify, lattice_order_isos,
                           modular_law, partial_units, projections, support,
                           validate_quantale)

CATALOG_QUANTALES = ("relq2", "egger8", "r4", "zmod2", "zmod3", "chain2", "pow2")


def chain4p():
    """Unital quantale on the chain 0 < p < e < 1 whose p squares to 0."""
    lat = chain_lattice(4, ["0", "p", "e", "1"])
    mul = [[0, 0, 0, 0],
           [0, 0, 1, 1],
           [0, 1, 2, 3],
           [0, 1, 3, 3]]
    return Quantale(lat, mul, [0, 1, 2, 3], unit=2, name="chain4p")


def get(name):
    from qlab.catalog import catalog_get
    kind, obj = catalog_get(name)
    assert kind == "quantale"
    return obj


def test_catalog_quantales_all_valid():
    for name in CATALOG_QUANTALES:
        rep = validate_quantale(get(name))
        assert rep.ok, (name, rep.failures())


def test_validation_witnesses_per_law():
    Q = relq(2)
    lat = Q.lattice

    bad = Q.mul.copy()
    bad[1, 2] = Q.top  # 00;01 should be 01
    rep = validate_quantale(Quantale(lat, bad, Q.inv, Q.unit))
    assert not rep.ok
    assert any(rep.laws[k] is not None for k in
               ("associativity", "join_distribution_left", "join_distribution_right"))

    # trivial involution on a noncommutative quantale breaks the antihomomorphism law
    rep = validate_quantale(Quantale(lat, Q.mul, np.arange(Q.n), Q.unit))
    assert rep.laws["involution_antihom"] is not None
    assert rep.laws["involution_involutive"] is None

    # an involution that is not self-inverse
    inv = Q.inv.copy()
    inv[1], inv[2] = 2, 4
    rep = validate_quantale(Quantale(lat, Q.mul, inv, Q.unit))
    assert rep.laws["involution_involutive"] is not None

    # wrong unit
    rep = validate_quantale(Quantale(lat, Q.mul, Q.inv, unit=Q.top))
    assert rep.laws["unit_left"] is not None and rep.laws["unit_right"] is not None
    assert not rep.ok and "unit_left" in rep.failures()

    # constant-to-top multiplication kills the bottom laws
    rep = validate_quantale(Quantale(lat, np.full((Q.n, Q.n), Q.top), Q.inv))
    assert rep.laws["bottom_left"] is not None


def test_constructor_rejects_malformed_tables():
    lat = chain_lattice(3)
    with pytest.raises(ValueError):
        Quantale(lat, np.zeros((2, 3), dtype=int), [0, 1, 2])
    with pytest.raises(ValueError):
        Quantale(lat, np.zeros((3, 3), dtype=int), [0, 1])
    with pytest.raises(ValueError):
        Quantale(lat, np.full((3, 3), 7), [0, 1, 2])
    with pytest.raises(ValueError):
        Quantale(lat, np.zeros((3, 3), dtype=int), [0, 1, 2], unit=3)


def test_projections_of_relq2():
    assert projections(relq(2)) == [0, 1, 8, 9, 15]
    # frames: every element is a projection
    Qf = frame_quantale(powerset_lattice(["u", "v"]))
    assert projections(Qf) == [0, 1, 2, 3]


def test_support_oracle_on_relq2():
    Q = relq(2)
    srep = support(Q)
    assert srep.supported and srep.stable
    assert all(w is None for w in srep.laws.values())
    assert all(w is None for w in srep.cross_checks.values())
    # sup(U) must be the diagonal restricted to the domain of U
    n = 2
    expected = np.zeros(Q.n, dtype=np.intp)
    for i in range(n):
        for j in range(n):
            bit = 1 << (n * i + j)
            sel = (np.arange(Q.n) & bit) != 0
            expected[sel] |= 1 << (n * i + i)
    assert np.array_equal(srep.sup, expected)


def test_support_requires_unit():
    lat = chain_lattice(2)
    Q = Quantale(lat, np.zeros((2, 2), dtype=int), [0, 1])
    with pytest.raises(NotUnital):
        support(Q)
    with pytest.raises(NotUnital):
        partial_units(Q)
    with pytest.raises(NotUnital):
        base_locale(Q)
    rep = classify(Q)
    assert rep.flag("unital") is False and rep.flag("supported") is None
    assert rep.witnesses["unital"] == ()


def test_partial_units_of_relq2_are_the_seven_partial_bijections():
    pu = partial_units(relq(2))
    assert pu.elements == [0, 1, 2, 4, 6, 8, 9]
    assert pu.cover_join == 15 and pu.cover


def test_base_locale_of_relq2():
    bl = base_locale(relq(2))
    assert bl.elements == [0, 1, 8, 9]
    assert bl.lattice.n == 4
    assert bl.lattice.is_frame() == (True, None)


def test_chain4p_has_no_support_at_all():
    Q = chain4p()
    assert validate_quantale(Q).ok
    rep = classify(Q)
    assert rep.flag("supported") is False
    assert rep.witnesses["supported"] == ("below_self_star", 1)
    with pytest.raises(BNotLocale) as ei:
        base_locale(Q)
    assert ei.value.law == "meet_is_product"
    assert ei.value.witness == (1, 1)

    # not an artifact of the canonical candidate: no map into the downset of
    # the unit satisfies the axioms, checked by brute force
    lat = Q.lattice
    for vals in itertools.product([0, 1, 2], repeat=4):
        s = np.array(vals)
        if s[0] != 0:
            continue
        if not all(s[lat.join_table[a, b]] == lat.join_table[s[a], s[b]]
                   for a in range(4) for b in range(4)):
            continue
        below = all(Q.leq[s[a], Q.mul[a, Q.inv[a]]] for a in range(4))
        restores = all(Q.leq[a, Q.mul[s[a], a]] for a in range(4))
        assert not (below and restores), vals


def test_classification_of_the_catalog():
    expected = {
        "relq2": dict(stably_gelfand=True, modular=True, stably_supported=True,
                      quantal_frame=True, inverse_quantal_frame=True),
        "egger8": dict(stably_gelfand=True, modular=False, stably_supported=True,
                       quantal_frame=True, inverse_quantal_frame=False),
        "r4": dict(stably_gelfand=True, modular=True, stably_supported=True,
                   quantal_frame=True, inverse_quantal_frame=False),
        "zmod2": dict(stably_gelfand=True, modular=True, stably_supported=True,
                      quantal_frame=True, inverse_quantal_frame=True),
        "zmod3": dict(stably_gelfand=True, modular=True, stably_supported=True,
                      quantal_frame=True, inverse_quantal_frame=True),
        "chain2": dict(stably_gelfand=True, modular=True, stably_supported=True,
                       quantal_frame=True, inverse_quantal_frame=True),
        "pow2": dict(stably_gelfand=True, modular=True, stably_supported=True,
                     quantal_frame=True, inverse_quantal_frame=True),
    }
    for name, want in expected.items():
        rep = classify(get(name))
        for flag, value in want.items():
            assert rep.flag(flag) is value, (name, flag)
        for flag, value in rep.flags().items():
            assert (flag in rep.witnesses) == (value is False), (name, flag)


def test_egger8_modular_witness_evaluates():
    Q = egger8()
    w = modular_law(Q)
    assert w == (2, 4, 1)
    a, b, c = w
    assert [Q.label(v) for v in w] == ["b", "c", "a"]
    lhs = Q.meet([Q.mul[a, b], c])
    rhs = Q.mul[a, Q.meet([b, Q.mul[Q.inv[a], c]])]
    assert lhs == c and rhs == Q.bottom
    assert not Q.leq[lhs, rhs]
    rep = classify(Q)
    assert rep.witnesses["modular"] == w


def test_r4_cover_witness():
    rep = classify(quantale_r4())
    assert rep.flag("stable_quantal_frame") is True
    assert rep.flag("inverse_quantal_frame") is False
    assert rep.witnesses["inverse_quantal_frame"] == ("cover", 1)


def test_flag_accessors():
    rep = classify(relq(2))
    assert set(rep.flags()) == set(PropertyReport.FLAG_NAMES)
    with pytest.raises(KeyError):
        rep.flag("nonsense")


def test_modular_law_holds_on_frames_and_groups():
    assert modular_law(frame_quantale(powerset_lattice(["a", "b"]))) is None
    assert modular_law(group_quantale(cyclic_table(3))) is None


def test_frame_quantale_rejects_non_frames():
    m3 = SupLattice.from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    with pytest.raises(ValueError):
        frame_quantale(m3)


def test_lattice_order_isos_counts():
    chain = chain_lattice(4)
    assert len(lattice_order_isos(chain, chain)) == 1
    pow2 = powerset_lattice(["u", "v"])
    assert len(lattice_order_isos(pow2, pow2)) == 2
    bool8 = powerset_lattice(["a", "b", "c"])
    assert len(lattice_order_isos(bool8, bool8)) == 6
    assert lattice_order_isos(chain, pow2) == []
    for p in lattice_order_isos(bool8, bool8):
        assert (bool8.leq == bool8.leq[np.ix_(p, p)]).all()


def test_are_isomorphic():
    from qlab.quantale import are_isomorphic

    assert are_isomorphic(relq(2), relq(2))
    # conjugate egger8 by the bit swap a <-> b; the tables change (the unit
    # moves to the b position) but the structure does not
    Q = egger8()
    p = np.array([(m & ~3) | ((m & 1) << 1) | ((m >> 1) & 1) for m in range(8)])
    twin = Quantale(Q.lattice, p[Q.mul[np.ix_(p, p)]], p[Q.inv[p]], unit=int(p[Q.unit]))
    assert validate_quantale(twin).ok
    assert twin.unit != Q.unit
    assert not np.array_equal(twin.mul, Q.mul)
    assert are_isomorphic(Q, twin)
    # same size, different theory
    assert not are_isomorphic(egger8(), group_quantale(cyclic_table(3)))
    assert not are_isomorphic(quantale_r4(), frame_quantale(powerset_lattice(["u", "v"])))


def test_ladder_implications_hold_across_catalog_and_fixtures():
    quantales = [get(n) for n in CATALOG_QUANTALES] + [chain4p()]
    for Q in quantales:
        f = classify(Q).flags()  # classify itself asserts the implication chain
        if f["inverse_quantal_frame"]:
            assert f["modular"] and f["stable_quantal_frame"]
        if f["unital"] and f["modular"]:
            assert f["stably_supported"]
        if f["stably_supported"]:
            assert f["supported"]


def test_catalog_entries_expose_quantales_and_groupoid_objects():
    entries = catalog_entries()
    for name in CATALOG_QUANTALES:
        assert entries[name][0] == "quantale"
    assert entries["pair2"][0] == "groupoid"
    assert entries["pair2_regular"][0] == "action"
