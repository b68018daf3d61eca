import itertools

import numpy as np
import pytest

from qlab import groupoid as gp
from qlab import hilbert as hb
from qlab.catalog import (GROUPOID_NAMES, catalog_get, cyclic_table, egger8, group_quantale,
                          quantale_r4, relq)
from qlab.quantale import support


def z2():
    return gp.group_groupoid(cyclic_table(2), ["e", "g"], name="z2")


def test_pair_groupoid_quantale_is_the_relational_quantale():
    for n in (2, 3):
        Q = gp.pair_groupoid(n).quantale
        R = relq(n)
        assert np.array_equal(Q.mul, R.mul)
        assert np.array_equal(Q.inv, R.inv)
        assert np.array_equal(Q.lattice.leq, R.lattice.leq)
        assert Q.unit == R.unit


def test_group_groupoid_quantale_is_the_group_quantale():
    for quantale, groupoid in (("zmod2", "z2"), ("zmod3", "z3")):
        Gq = catalog_get(quantale)[1]
        Qz = catalog_get(groupoid)[1].quantale
        assert np.array_equal(Qz.lattice.leq, Gq.lattice.leq)
        assert np.array_equal(Qz.mul, Gq.mul)
        assert np.array_equal(Qz.inv, Gq.inv)
        assert Qz.unit == Gq.unit


def test_disjoint_union_shapes():
    G = gp.disjoint_union(z2(), gp.pair_groupoid(2), name="u")
    assert G.n_objects == 3
    assert G.n_arrows == 6
    G.quantale


def test_groupoid_law_witnesses():
    bad = gp.pair_groupoid(2)
    with pytest.raises(gp.NotAGroupoid) as ei:
        gp.FiniteGroupoid(bad.objects, bad.arrows, bad.d, bad.r, bad.compose,
                          [0, 1, 2, 3], bad.units)
    assert (ei.value.law, ei.value.witness) == ("inverse_endpoints", (1,))
    with pytest.raises(gp.NotAGroupoid) as ei:
        gp.FiniteGroupoid(["x"], ["u"], [0], [0], [[-1]], [0], [0])
    assert (ei.value.law, ei.value.witness) == ("composability", (0, 0))
    with pytest.raises(gp.NotAGroupoid) as ei:       # a range witness names its table
        gp.FiniteGroupoid(bad.objects, bad.arrows, bad.d, bad.r, bad.compose,
                          [0, 2, 4, 3], bad.units)
    assert (ei.value.law, ei.value.witness) == ("range", ("inv", 2))


def test_action_law_witnesses():
    a = gp.regular_action(gp.pair_groupoid(2))
    act = a.act.copy()
    g, x = (int(v) for v in np.argwhere(act >= 0)[0])
    act[g, x] = -1
    with pytest.raises(gp.InvalidAction) as ei:
        gp.GroupoidAction(a.groupoid, a.points, a.p, act)
    assert (ei.value.law, ei.value.witness) == ("definedness", (g, x))
    with pytest.raises(gp.InvalidAction) as ei:
        gp.GroupoidAction(a.groupoid, a.points, [0] * len(a.p), a.act)
    assert (ei.value.law, ei.value.witness) == ("definedness", (0, 1))


def test_an_act_entry_past_the_points_is_a_range_failure():
    a = gp.regular_action(gp.pair_groupoid(2))
    act = a.act.copy()
    g, x = (int(v) for v in np.argwhere(act >= 0)[0])
    act[g, x] = 99
    with pytest.raises(gp.InvalidAction) as ei:
        gp.GroupoidAction(a.groupoid, a.points, a.p, act)
    assert (ei.value.law, ei.value.witness) == ("range", (g, x))


@pytest.mark.parametrize("table, law", [
    ([[0, 0], [0, 0]], "unit_law"),             # no identity
    ([[0, 1], [1, 1]], "inverse_endpoints"),    # 1 has no inverse
])
def test_a_table_that_is_no_group_breaks_a_groupoid_law(table, law):
    for build in (lambda: gp.group_groupoid(table, ["a", "b"]), lambda: group_quantale(table)):
        with pytest.raises(gp.NotAGroupoid) as ei:
            build()
        assert (ei.value.law, ei.value.witness) == (law, (1,))


def first(cells):
    return next(iter(cells), None)


def groupoid_oracle(no, na, d, r, m, inv, u):
    """(law, witness) of the first groupoid law that fails, each law a nested loop; or None."""
    A, O = range(na), range(no)
    shapes = (("d", d, (na,)), ("r", r, (na,)), ("compose", m, (na, na)),
              ("inv", inv, (na,)), ("units", u, (no,)))
    laws = [
        ("shape", lambda: first((name,) for name, t, shape in shapes if np.shape(t) != shape)),
        ("range", lambda: first(
            [("d", g) for g in A if not 0 <= d[g] < no]
            + [("r", g) for g in A if not 0 <= r[g] < no]
            + [("compose", g, h) for g in A for h in A if m[g][h] >= na]
            + [("inv", g) for g in A if not 0 <= inv[g] < na]
            + [("units", o) for o in O if not 0 <= u[o] < na])),
        ("unit_endpoints", lambda: first((o,) for o in O if d[u[o]] != o or r[u[o]] != o)),
        ("composability", lambda: first((g, h) for g in A for h in A
                                         if (r[g] == d[h]) != (m[g][h] >= 0))),
        ("composite_endpoints", lambda: first(
            (g, h) for g in A for h in A
            if r[g] == d[h] and (d[m[g][h]] != d[g] or r[m[g][h]] != r[h]))),
        ("unit_law", lambda: first((g,) for g in A if m[u[d[g]]][g] != g or m[g][u[r[g]]] != g)),
        ("inverse_endpoints", lambda: first(
            (g,) for g in A if d[inv[g]] != r[g] or r[inv[g]] != d[g] or inv[inv[g]] != g)),
        ("inverse_law", lambda: first(
            (g,) for g in A if m[g][inv[g]] != u[d[g]] or m[inv[g]][g] != u[r[g]])),
        ("associativity", lambda: first(
            (g, h, k) for g in A for h in A for k in A
            if r[g] == d[h] and r[h] == d[k] and m[m[g][h]][k] != m[g][m[h][k]])),
    ]
    return first((law, w) for law, cells in laws if (w := cells()) is not None)


def action_oracle(G, ne, p, act):
    """(law, witness) of the first action law that fails, each law a nested loop; or None."""
    A, X = range(G.n_arrows), range(ne)
    d, r, m, u = G.d.tolist(), G.r.tolist(), G.compose.tolist(), G.units.tolist()
    laws = [
        ("anchor", lambda: ("p",) if np.shape(p) != (ne,)
         else first((x,) for x in X if not 0 <= p[x] < G.n_objects)),
        ("shape", lambda: None if np.shape(act) == (G.n_arrows, ne) else ("act",)),
        ("definedness", lambda: first((g, x) for g in A for x in X
                                      if (act[g][x] >= 0) != (d[g] == p[x]))),
        ("range", lambda: first((g, x) for g in A for x in X if act[g][x] >= ne)),
        ("anchor_image", lambda: first((g, x) for g in A for x in X
                                       if d[g] == p[x] and p[act[g][x]] != r[g])),
        ("fiber_bijection", lambda: first(
            (g, y) for g in A for y in X
            if sum(act[g][x] == y for x in X) != (p[y] == r[g]))),
        ("unit", lambda: first((x,) for x in X if act[u[p[x]]][x] != x)),
        ("compatibility", lambda: first(
            (g, h, x) for g in A for h in A for x in X
            if r[g] == d[h] and d[g] == p[x] and act[h][act[g][x]] != act[m[g][h]][x])),
    ]
    return first((law, w) for law, cells in laws if (w := cells()) is not None)


def one_cell_changes(tables: dict, bounds: dict):
    """Every table dict with one cell set to a value in -2..bound of its table."""
    for name, t in tables.items():
        for cell in np.ndindex(t.shape):
            for value in range(-2, bounds[name] + 1):
                changed = dict(tables, **{name: t.copy()})
                changed[name][cell] = value
                yield changed


def verdict(cls, build):
    try:
        build()
    except cls as exc:
        return exc.law, exc.witness
    return None


ORACLE_GROUPOIDS = ("pair2", "pair3", "z3", "z2_plus_pair2")


@pytest.mark.parametrize("name", ORACLE_GROUPOIDS)
def test_groupoid_laws_match_the_loop_oracle_on_every_one_cell_change(name):
    G = catalog_get(name)[1]
    no, na = G.n_objects, G.n_arrows
    tables = {"d": G.d, "r": G.r, "compose": G.compose, "inv": G.inv, "units": G.units}
    rejected = 0
    for t in one_cell_changes(tables, {"d": no, "r": no, "compose": na, "inv": na, "units": na}):
        want = groupoid_oracle(no, na, *(t[k].tolist() for k in tables))
        got = verdict(gp.NotAGroupoid, lambda: gp.FiniteGroupoid(G.objects, G.arrows, **t))
        assert got == want, t
        rejected += want is not None
    assert rejected > 0


@pytest.mark.parametrize("name", [f"{g}_{s}" for g in ORACLE_GROUPOIDS
                                  for s in ("regular", "objects")])
def test_action_laws_match_the_loop_oracle_on_every_one_cell_change(name):
    a = catalog_get(name)[1]
    G, ne = a.groupoid, a.n_points
    rejected = 0
    for t in one_cell_changes({"p": a.p, "act": a.act}, {"p": G.n_objects, "act": ne}):
        want = action_oracle(G, ne, t["p"].tolist(), t["act"].tolist())
        got = verdict(gp.InvalidAction, lambda: gp.GroupoidAction(G, a.points, **t))
        assert got == want, t
        rejected += want is not None
    assert rejected > 0


def test_the_laws_past_one_cell_changes_match_the_loop_oracle():
    # rows that permute the arrows pass every law up to unit_law, so the last laws are reached
    perms = [list(q) for q in itertools.permutations(range(3))]
    seen = set()
    for rows in itertools.product(perms, repeat=3):
        for inv in itertools.product(range(3), repeat=3):
            want = groupoid_oracle(1, 3, [0] * 3, [0] * 3, rows, list(inv), [0])
            got = verdict(gp.NotAGroupoid, lambda: gp.FiniteGroupoid(
                ["*"], "abc", [0] * 3, [0] * 3, rows, inv, [0]))
            assert got == want, (rows, inv)
            seen.add(want and want[0])
        want = action_oracle(catalog_get("z3")[1], 3, [0] * 3, rows)
        got = verdict(gp.InvalidAction, lambda: gp.GroupoidAction(
            catalog_get("z3")[1], "xyz", [0] * 3, rows))
        assert got == want, rows
        seen.add(want and want[0])
    assert {"unit_law", "inverse_law", "associativity", "unit", "compatibility"} <= seen


def bisections_oracle(G: gp.FiniteGroupoid) -> list[int]:
    """Subset bitmasks on which both d and r are injective, one mask at a time."""
    out = []
    for mask in range(1 << G.n_arrows):
        members = [g for g in range(G.n_arrows) if mask >> g & 1]
        if len({int(G.d[g]) for g in members}) == len(members) \
                and len({int(G.r[g]) for g in members}) == len(members):
            out.append(mask)
    return out


@pytest.mark.parametrize("name", GROUPOID_NAMES)
def test_bisections_are_the_partial_units(name):
    G = catalog_get(name)[1]
    assert gp.bisections(G) == bisections_oracle(G)


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
