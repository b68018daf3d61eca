import numpy as np
import pytest

from qlab import groupoid as gp
from qlab import hilbert as hb
from qlab.catalog import (GROUPOID_NAMES, catalog_get, cyclic_table, egger8, group_quantale,
                          quantale_r4, relq)
from qlab.quantale import partial_units, support


def z2():
    return gp.group_groupoid(cyclic_table(2), ["e", "g"], name="z2")


def test_pair_groupoid_quantale_is_the_relational_quantale():
    for n in (2, 3):
        Q = gp.quantale_of(gp.pair_groupoid(n))
        R = relq(n)
        assert np.array_equal(Q.mul, R.mul)
        assert np.array_equal(Q.inv, R.inv)
        assert np.array_equal(Q.lattice.leq, R.lattice.leq)
        assert Q.unit == R.unit


def test_group_groupoid_quantale_is_the_group_quantale():
    for quantale, groupoid in (("zmod2", "z2"), ("zmod3", "z3")):
        Gq = catalog_get(quantale)[1]
        Qz = gp.quantale_of(catalog_get(groupoid)[1])
        assert np.array_equal(Qz.lattice.leq, Gq.lattice.leq)
        assert np.array_equal(Qz.mul, Gq.mul)
        assert np.array_equal(Qz.inv, Gq.inv)
        assert Qz.unit == Gq.unit


def test_disjoint_union_shapes():
    G = gp.disjoint_union(z2(), gp.pair_groupoid(2), name="u")
    assert G.n_objects == 3
    assert G.n_arrows == 6
    gp.quantale_of(G)


def test_groupoid_law_witnesses():
    bad = gp.pair_groupoid(2)
    with pytest.raises(gp.NotAGroupoid) as ei:
        gp.FiniteGroupoid(bad.objects, bad.arrows, bad.d, bad.r, bad.compose,
                          [0, 1, 2, 3], bad.units)
    assert ei.value.law in ("inverse_law", "inverse_endpoints")
    with pytest.raises(gp.NotAGroupoid):
        gp.FiniteGroupoid(["x"], ["u"], [0], [0], [[-1]], [0], [0])


def test_action_law_witnesses():
    a = gp.regular_action(gp.pair_groupoid(2))
    act = a.act.copy()
    g, x = (int(v) for v in np.argwhere(act >= 0)[0])
    act[g, x] = -1
    with pytest.raises(gp.InvalidAction):
        gp.GroupoidAction(a.groupoid, a.points, a.p, act)
    with pytest.raises(gp.InvalidAction):
        gp.GroupoidAction(a.groupoid, a.points, [0] * len(a.p), a.act)


def test_bisections_are_the_partial_units():
    for G in (z2(), gp.pair_groupoid(2)):
        Q = gp.quantale_of(G)
        assert gp.bisections(G) == partial_units(Q).elements


def groupoid_support(G: gp.FiniteGroupoid) -> np.ndarray:
    """sup(U) = u(d(U)) on subset bitmasks, one arrow bit at a time."""
    n = 1 << G.n_arrows
    sup = np.zeros(n, dtype=np.intp)
    for g in range(G.n_arrows):
        sel = (np.arange(n) >> g & 1) == 1
        sup[sel] |= 1 << int(G.units[G.d[g]])
    return sup


@pytest.mark.parametrize("name", GROUPOID_NAMES)
def test_support_is_the_unit_of_the_domain(name):
    G = catalog_get(name)[1]
    assert np.array_equal(support(G.quantale).sup, groupoid_support(G))


def test_z2_regular_module_sections_and_sheafify():
    reg = gp.regular_action(z2())
    am = gp.module_from_action(reg)
    secs, _, _ = gp.local_section_indices(am.module)
    assert secs.tolist() == [0, 1, 2]  # empty, {e}, {g}
    rep = gp.sheafify(am.module)
    assert rep.ok, rep.checks
    assert rep.qset.A.data[1, 2] == 2  # m_{{e},{g}} = {g}
    assert gp.check_section_lemmas(am.module) == {"partial_units_act": True,
                                                  "sections_cover": True}


def test_pair2_objects_module_every_subset_is_a_section():
    obj2 = gp.objects_action(gp.pair_groupoid(2))
    am = gp.module_from_action(obj2)
    secs, _, _ = gp.local_section_indices(am.module)
    assert secs.tolist() == [0, 1, 2, 3]
    assert hb.hilbert_sections(am.module).tolist() == [0, 1, 2, 3]
    assert gp.sheafify(am.module).ok


def test_catalog_actions_sheafify_with_lemmas():
    for name in ("z2_objects", "pair2_regular", "z3_regular", "z3_objects",
                 "z2_plus_pair2_regular", "z2_plus_pair2_objects"):
        kind, act = catalog_get(name)
        assert kind == "action"
        m = gp.module_from_action(act)
        rep = gp.sheafify(m.module)
        assert rep.ok, (name, rep.checks)
        assert all(gp.check_section_lemmas(m.module).values()), name


def test_sheafify_reports_partial_failure_on_r4():
    # R4 is not an inverse quantal frame, so the comparison map cannot close
    rep = gp.sheafify(hb.module_over_self(quantale_r4()))
    assert not rep.ok
    assert rep.checks == {"qset": True, "transporter": False, "local_ip": True,
                          "bijective": False, "join": True, "action": False,
                          "unitary": False}
    assert rep.sections.tolist() == [0, 1, 2]


def test_sheafify_of_a_group_quantale_over_itself():
    rep = gp.sheafify(hb.module_over_self(
        group_quantale(cyclic_table(2), ["e", "g"])))
    assert rep.ok
    assert rep.sections.tolist() == [0, 1, 2]


def test_sheafify_rejects_non_etale_base():
    with pytest.raises(gp.NotEtale) as ei:
        gp.sheafify(hb.module_over_self(egger8()))
    assert ei.value.witness == 2


def test_z2_equivalence_counts():
    G = z2()
    ev = gp.verify_equivalence(G, [gp.regular_action(G), gp.objects_action(G)])
    assert ev.ok
    counts = [(len(p.equivariant), len(p.sheaf_homs), p.all_homs)
              for p in ev.pairs]
    assert [c[0] for c in counts] == [2, 1, 0, 1]
    assert [c[0] for c in counts] == [c[1] for c in counts]
    assert all(c[2] is not None for c in counts)
    assert [c[2] for c in counts] == [4, 2, 2, 2]


def test_pair2_equivalence_counts():
    G = gp.pair_groupoid(2)
    ev = gp.verify_equivalence(G, [gp.regular_action(G), gp.objects_action(G)])
    assert ev.ok
    assert [len(p.equivariant) for p in ev.pairs] == [4, 1, 2, 1]
    for p in ev.pairs:
        assert p.counts_match
        assert sorted(p.bijection) == list(range(len(p.sheaf_homs)))


def test_catalog_groupoid_names_resolve():
    for name in GROUPOID_NAMES:
        kind, G = catalog_get(name)
        assert kind == "groupoid"
        assert G.n_arrows >= G.n_objects


def test_catalog_actions_act_through_the_catalog_groupoid():
    # groupoids and their actions are built once; quantales on every call
    for name in GROUPOID_NAMES:
        for suffix in ("regular", "objects"):
            assert catalog_get(f"{name}_{suffix}")[1].groupoid is catalog_get(name)[1]
    assert catalog_get("relq2")[1] is not catalog_get("relq2")[1]
