"""One test per acceptance criterion; `pytest -v` gives a line for each.

Every bound checked here is exact: table equalities, element indices,
model counts.  The only tolerances are wall-clock budgets, asserted with
time.monotonic around the relevant block.
"""

import time

import numpy as np

from qlab.catalog import (GROUPOID_NAMES, catalog_get, cyclic_table, egger8, group_quantale,
                          quantale_r4, relq)
from qlab.groupoid import (check_section_lemmas, module_from_action, sheafify,
                           verify_equivalence)
from qlab.hilbert import (ModuleHom, adjoint, hilbert_sections, hom_compose,
                          hom_from_relation, identity_hom, is_hilbert_basis,
                          is_module_hom, module_from_qset, module_over_self,
                          module_support, parseval_check, qset_from_basis,
                          reconstruct, representation_report, section_relation,
                          singleton_section_bridge)
from qlab.qmatrix import (QMatrix, is_qset, is_strict, mat_mul,
                          quantal_set_conditions, random_qset)
from qlab.quantale import classify, partial_units, validate_quantale
from qlab.search import SearchSpec, search


def _pass(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_01_egger8_separates_support_from_modularity():
    t0 = time.monotonic()
    Q = egger8()
    rep = classify(Q)
    assert rep.flag("stably_supported") is True
    assert rep.flag("modular") is False
    w = rep.witnesses["modular"]
    assert w == (2, 4, 1)
    assert [Q.label(x) for x in w] == ["b", "c", "a"]
    b, c, a = w
    # bc AND a = a, yet b(c AND b*a) = 0
    lhs = Q.meet([int(Q.mul[b, c]), a])
    rhs = int(Q.mul[b, Q.meet([c, int(Q.mul[int(Q.inv[b]), a])])])
    assert lhs == a
    assert rhs == Q.bottom
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _pass(1, f"witness b,c,a in {elapsed:.3f}s")


def test_criterion_02_r4_has_only_the_two_trivial_sections():
    t0 = time.monotonic()
    Q = quantale_r4()
    secs = hilbert_sections(module_over_self(Q))
    assert secs.tolist() == [0, 1]
    assert [Q.label(s) for s in secs] == ["0", "e"]
    pu = partial_units(Q)
    assert pu.elements == [0, 1]
    assert pu.cover_join == Q.unit
    assert not pu.cover
    rep = classify(Q)
    assert rep.flag("stably_supported") is True
    assert rep.flag("inverse_quantal_frame") is False
    assert rep.witnesses["inverse_quantal_frame"] == ("cover", 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _pass(2, f"sections 0,e and no cover in {elapsed:.3f}s")


def test_criterion_03_relational_quantales_pass_the_whole_ladder():
    t0 = time.monotonic()
    for name in ("relq2", "relq3"):
        _, Q = catalog_get(name)
        rep = classify(Q)
        for flag in ("stably_gelfand", "modular", "stably_supported",
                     "quantal_frame", "inverse_quantal_frame"):
            assert rep.flag(flag) is True, (name, flag)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _pass(3, f"relq2 and relq3 fully classified in {elapsed:.2f}s")


def test_criterion_04_generated_qsets_are_strict():
    Q = relq(2)
    rng = np.random.default_rng(42)
    count = 0
    for i in range(100):
        X = random_qset(Q, 1 + i % 4, rng)
        ok, wit = is_qset(X)
        assert ok, wit
        strict, wit = is_strict(X)
        assert strict, wit
        assert quantal_set_conditions(X) == (True, None)
        count += 1
    assert count >= 100
    _pass(4, f"{count} sampled q-sets, all strict")


def test_criterion_05_representation_round_trips():
    Q = relq(2)
    rng = np.random.default_rng(7)
    trips = 0
    for i in range(50):
        X = random_qset(Q, 1 + i % 2, rng)
        mm = module_from_qset(Q, X)
        R = section_relation(mm)             # asserts R R* = A-hat, R* R = A
        Rstar = QMatrix(Q, Q.inv[R.data].T)
        secs = hilbert_sections(mm.module)
        hat = qset_from_basis(mm.module, secs)
        assert mat_mul(R, Rstar) == QMatrix(Q, hat.A.data)
        assert mat_mul(Rstar, R) == mm.qset.A

        # the unitary isomorphism with the singleton completion, explicitly
        br = singleton_section_bridge(X)
        comp_idx = [idx for _, idx in br.pairing]
        sec_list = [int(s) for s in br.section_indices]
        perm = [sec_list.index(i) for i in comp_idx]
        assert sorted(perm) == list(range(len(sec_list)))
        assert np.array_equal(hat.A.data[np.ix_(perm, perm)],
                              mm.module.ip[np.ix_(comp_idx, comp_idx)])

        rep = representation_report(mm.module, secs)
        assert rep.ok, rep.checks
        trips += 1
    assert trips >= 50
    _pass(5, f"{trips} round trips certified")


def _constructed_homs():
    """Identity homs, translations, relation-induced homs, and sheaf homs."""
    homs = []
    for name in ("relq2", "r4", "egger8", "zmod2"):
        _, Q = catalog_get(name)
        homs.append(identity_hom(module_over_self(Q)))
    Z = group_quantale(cyclic_table(3), ["e", "g", "h"])
    XZ = module_over_self(Z)
    for g in (1, 2, 4):                      # the three group elements
        homs.append(ModuleHom(XZ, XZ, Z.mul[:, g]))
    homs.append(hom_compose(homs[-1], homs[-2]))
    R2 = relq(2)
    mm = module_from_qset(R2, random_qset(R2, 1, np.random.default_rng(3)))
    homs.append(hom_from_relation(mm, mm.module, section_relation(mm)))
    _, G = catalog_get("z2")
    acts = [catalog_get("z2_regular")[1], catalog_get("z2_objects")[1]]
    mods = [module_from_action(a) for a in acts]
    ev = verify_equivalence(G, acts)
    for p in ev.pairs:
        for table in p.sheaf_homs:
            homs.append(ModuleHom(mods[p.source].module,
                                  mods[p.target].module, table))
    return homs


def test_criterion_06_adjoints_satisfy_the_inner_product_identity():
    homs = _constructed_homs()
    assert len(homs) >= 12
    for phi in homs:
        assert is_module_hom(phi) == (True, None)
        dag = adjoint(phi)
        for x in range(phi.source.n):
            for y in range(phi.target.n):
                assert (phi.source.ip[x, dag.map[y]]
                        == phi.target.ip[phi.map[x], y])
        assert adjoint(dag).same_table(phi)
    _pass(6, f"{len(homs)} homs, identity and involution exact")


def test_criterion_07_parseval_tracks_reconstruction():
    bases = 0
    for name in ("relq2", "relq3", "r4", "egger8", "zmod2", "zmod3"):
        _, Q = catalog_get(name)
        X = module_over_self(Q)
        secs = [int(s) for s in hilbert_sections(X)]
        assert is_hilbert_basis(X, secs) == (True, None)
        assert parseval_check(X, secs) is None
        bases += 1
    for name in ("z2_regular", "z2_objects", "pair2_regular", "pair2_objects"):
        _, A = catalog_get(name)
        X = module_from_action(A).module
        secs = [int(s) for s in hilbert_sections(X)]
        assert is_hilbert_basis(X, secs) == (True, None)
        assert parseval_check(X, secs) is None
        bases += 1

    # converse: shrink a basis until reconstruction first fails; parseval
    # must fail at that moment, and at the same carrier element
    X = module_over_self(relq(2))
    sigma = [int(s) for s in hilbert_sections(X)]
    broke = False
    while sigma:
        sigma.pop()
        ok, wit = is_hilbert_basis(X, sigma)
        pv = parseval_check(X, sigma)
        assert ok == (pv is None)
        if not ok:
            assert pv[0] == wit
            assert reconstruct(X, sigma)[wit] != wit
            broke = True
            break
    assert broke

    # the targeted shrink: drop every section meeting point 0
    full = hilbert_sections(X)
    shrunk = [int(s) for s in full if not (s & 0b0101)]
    assert shrunk == [0, 2, 8, 10]
    ok, wit = is_hilbert_basis(X, shrunk)
    pv = parseval_check(X, shrunk)
    assert not ok and wit == 1
    assert pv == (1, 1) and pv[0] == wit
    _pass(7, f"{bases} bases exact, shrink breaks both at element {wit}")


def test_criterion_08_stability_conditions_agree():
    modules = []
    for name in ("relq2", "relq3", "egger8"):
        _, Q = catalog_get(name)
        modules.append(module_over_self(Q))
    rng = np.random.default_rng(11)
    for name in ("relq2", "egger8"):
        _, Q = catalog_get(name)
        for i in range(5):
            X = random_qset(Q, 1 + i % 2, rng)
            modules.append(module_from_qset(Q, X).module)
    for X in modules:
        sm = module_support(X)
        values = set(sm.conditions.values())
        assert len(values) == 1, sm.conditions
        assert values == {True}
        assert sm.stable
    _pass(8, f"{len(modules)} supported modules, all four conditions equal")


def test_criterion_09_groupoid_sheaf_pipeline():
    t0 = time.monotonic()
    checked = 0
    for gname in GROUPOID_NAMES:
        for aname in (f"{gname}_regular", f"{gname}_objects"):
            _, A = catalog_get(aname)
            am = module_from_action(A)
            rep = sheafify(am.module)
            assert rep.ok, (aname, rep.checks)
            lemmas = check_section_lemmas(am.module)
            assert lemmas == {"partial_units_act": True,
                              "sections_cover": True}, (aname, lemmas)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _pass(9, f"{checked} action modules sheafified in {elapsed:.1f}s")


def test_criterion_10_hom_counts_coincide():
    expected = {"z2": [2, 1, 0, 1], "z3": [3, 1, 0, 1], "pair2": [4, 1, 2, 1],
                "pair3": [27, 1, 3, 1], "z2_plus_pair2": [8, 1, 0, 1]}
    for gname in GROUPOID_NAMES:
        _, G = catalog_get(gname)
        acts = [catalog_get(f"{gname}_regular")[1],
                catalog_get(f"{gname}_objects")[1]]
        ev = verify_equivalence(G, acts)
        assert ev.ok
        counts = [len(p.equivariant) for p in ev.pairs]
        assert counts == expected[gname], (gname, counts)
        for p in ev.pairs:
            assert len(p.sheaf_homs) == len(p.equivariant)
            assert sorted(p.bijection) == list(range(len(p.sheaf_homs)))
    _pass(10, "equivariant = sheaf counts with explicit bijections")


def test_criterion_11_search_rediscovers_r4_and_egger8():
    t0 = time.monotonic()
    diamond = quantale_r4().lattice
    res = search(SearchSpec(diamond, fix_involution=np.arange(4), fix_unit=1,
                            require={"stably_supported": True,
                                     "inverse_quantal_frame": False},
                            budget=10 ** 8))
    assert res.stats.candidates <= 10 ** 8
    assert len(res.models) == 1
    from qlab.quantale import are_isomorphic
    assert are_isomorphic(res.models[0], quantale_r4())

    bool8 = egger8().lattice
    res8 = search(SearchSpec(bool8, cap=8, dedup_iso=True,
                             require={"stably_supported": True,
                                      "modular": False},
                             budget=10 ** 8))
    assert res8.stats.candidates <= 10 ** 8
    assert res8.stats.involutions == 4
    assert res8.models
    assert any(are_isomorphic(Q, egger8()) for Q in res8.models)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _pass(11, f"both targets found in {elapsed:.1f}s, "
              f"{res8.stats.candidates} candidates on the cube")


def test_criterion_12_independent_verification():
    # searcher output re-checked by the validator and classifier, which
    # share no code with the pruner
    diamond = quantale_r4().lattice
    res = search(SearchSpec(diamond, fix_involution=np.arange(4), fix_unit=1,
                            require={"stably_supported": True,
                                     "inverse_quantal_frame": False}))
    bool8 = egger8().lattice
    res8 = search(SearchSpec(bool8, cap=8, dedup_iso=True,
                             fix_involution=np.arange(8),
                             require={"stably_supported": True,
                                      "modular": False}))
    for Q, want in ([(m, "inverse_quantal_frame") for m in res.models]
                    + [(m, "modular") for m in res8.models]):
        rebuilt = type(Q)(Q.lattice, Q.mul.copy(), Q.inv.copy(), Q.unit)
        assert validate_quantale(rebuilt).ok
        rep = classify(rebuilt)
        assert rep.flag("stably_supported") is True
        assert rep.flag(want) is False

    # singleton enumerator against the section enumerator, via the adjoint
    Q = relq(2)
    rng = np.random.default_rng(29)
    bridged = 0
    for i in range(10):
        X = random_qset(Q, 1 + i % 2, rng)
        br = singleton_section_bridge(X)
        assert len(br.pairing) == len(br.section_indices)
        assert len(br.pairing) == len(br.singleton_columns)
        bridged += 1
    _, E8 = catalog_get("egger8")
    for i in range(4):
        X = random_qset(E8, 1 + i % 2, rng)
        br = singleton_section_bridge(X)
        assert len(br.pairing) == len(br.section_indices)
        bridged += 1
    _pass(12, f"{len(res.models) + len(res8.models)} models re-verified, "
              f"{bridged} enumerator bridges")
