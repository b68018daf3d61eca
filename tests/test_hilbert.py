import numpy as np
import pytest

from qlab import hilbert as hb
from qlab.catalog import (catalog_entries, catalog_get, cyclic_table, egger8,
                          frame_quantale, group_quantale, quantale_r4, relq)
from qlab.groupoid import module_from_action, verify_equivalence
from qlab.laws import Violation
from qlab.lattice import chain_lattice, powerset_lattice
from qlab.hilbert import (AdjointIdentityFails, CarrierTooLarge, ModuleHom,
                          NotEnoughSections, PreHilbertModule,
                          SupportAxiomFails, adjoint, functor_M,
                          functor_M_object, has_enough_sections,
                          hilbert_sections, hom_compose, hom_from_relation,
                          identity_hom, is_direct_image,
                          is_hilbert_basis, is_module_hom, local_sections,
                          module_from_qset, module_over_self, module_support,
                          parseval_check, qset_from_basis, reconstruct,
                          representation_report, section_relation,
                          singleton_section_bridge, validate_module,
                          validate_prehilbert)
from qlab.qmatrix import QSet, mat_mul, random_qset
from qlab.quantale import Quantale

R2 = relq(2)
R4 = quantale_r4()


def unit_point():
    return QSet(R2, [[R2.unit]])


def chain4p():
    lat = chain_lattice(4, ["0", "p", "e", "1"])
    mul = [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3], [0, 1, 3, 3]]
    return Quantale(lat, mul, [0, 1, 2, 3], unit=2, name="chain4p")


def r4_chain_submodule():
    """The chain 0 < a < 1 inside R4 over itself: no section reconstructs a."""
    sub = np.array([0, 2, 3])
    carrier = chain_lattice(3, ["0", "a", "1"])
    pos = {0: 0, 2: 1, 3: 2}
    act = np.array([[pos[int(R4.mul[q, x])] for x in sub] for q in range(4)])
    ip = np.array([[int(R4.mul[x, R4.inv[y]]) for y in sub] for x in sub])
    return PreHilbertModule(R4, carrier, act, ip)


def test_module_over_self_is_a_prehilbert_module():
    for Q in (R2, R4, egger8(), group_quantale(cyclic_table(2), ["e", "g"]),
              frame_quantale(powerset_lattice(["u", "v"]))):
        X = module_over_self(Q)
        rep = validate_prehilbert(X)
        assert rep.ok, (Q.name, rep.failures())
        assert rep.non_degenerate


def test_module_law_witnesses():
    X = module_over_self(R4)
    act = X.action.copy()
    act[R4.unit] = act[R4.unit][[0, 2, 1, 3]]
    rep = validate_module(PreHilbertModule(R4, X.carrier, act, X.ip))
    assert rep.laws["action_unit"] is not None
    act = X.action.copy()
    act[3, 1] = 2  # top.e should be top
    rep = validate_module(PreHilbertModule(R4, X.carrier, act, X.ip))
    assert not rep.ok
    assert rep.laws["action_product"] is not None


def test_prehilbert_witnesses_and_degeneracy():
    X = module_over_self(R4)
    ip = X.ip.copy()
    ip[2, 1] = 3
    rep = validate_prehilbert(PreHilbertModule(X.quantale, X.carrier, X.action, ip))
    assert not rep.ok

    # the all-bottom inner product satisfies the axioms but is degenerate
    zero = np.zeros_like(X.ip)
    rep = validate_prehilbert(PreHilbertModule(X.quantale, X.carrier, X.action, zero))
    assert rep.ok
    assert not rep.non_degenerate
    assert rep.degeneracy_witness == (0, 1)


def test_sections_of_relq2_over_itself_are_the_single_valued_relations():
    X = module_over_self(R2)
    secs = hilbert_sections(X)
    assert secs.tolist() == [0, 1, 2, 4, 5, 6, 8, 9, 10]
    ok, secs2, wit = has_enough_sections(X)
    assert ok and wit is None
    assert parseval_check(X, secs2) is None


def test_sections_of_r4_and_egger8_over_themselves():
    X = module_over_self(R4)
    assert hilbert_sections(X).tolist() == [0, 1]
    assert is_hilbert_basis(X, [0, 1]) == (True, None)
    Y = module_over_self(egger8())
    assert hilbert_sections(Y).tolist() == [0, 1]
    assert is_hilbert_basis(Y, [1]) == (True, None)  # the unit alone suffices


def test_shrinking_a_basis_breaks_parseval_at_the_same_element():
    X = module_over_self(R2)
    secs = hilbert_sections(X)
    # drop every section containing an arrow into point 0
    shrunk = [int(s) for s in secs if not (s & 0b0101)]
    assert shrunk == [0, 2, 8, 10]
    ok, wit = is_hilbert_basis(X, shrunk)
    assert not ok and wit == 1
    assert reconstruct(X, shrunk)[wit] != wit
    pv = parseval_check(X, shrunk)
    assert pv == (1, 1)
    assert pv[0] == wit


def test_module_from_qset_identities():
    mm = module_from_qset(R2, unit_point())
    # one generator with a full extent: the module is the quantale itself
    assert mm.module.n == R2.n
    assert mm.vectors.shape == (16, 1)
    assert mm.rows.tolist() == [mm.vector_index([R2.unit])]
    # <v, row> picks out the coordinate
    assert np.array_equal(mm.module.ip[:, mm.rows[0]], mm.vectors[:, 0])
    with pytest.raises(KeyError):
        mm.vector_index([99])


def test_module_from_qset_carrier_cap():
    with pytest.raises(CarrierTooLarge):
        module_from_qset(R2, unit_point(), cap=4)


def test_qset_from_basis_and_not_enough_sections():
    X = module_over_self(R4)
    qs = qset_from_basis(X, [0, 1])
    assert qs.size == 2
    assert qs.A.data[1, 1] == R4.unit
    with pytest.raises(NotEnoughSections) as ei:
        qset_from_basis(X, [0])
    assert ei.value.witness == 1


def hom_join(phi: ModuleHom, psi: ModuleHom) -> ModuleHom:
    """The pointwise join of two homs with the same source and target."""
    return ModuleHom(phi.source, phi.target,
                     phi.target.carrier.join_table[phi.map, psi.map])


def test_hom_algebra():
    X = module_over_self(R4)
    ident = identity_hom(X)
    assert is_module_hom(ident) == (True, None)
    assert hom_compose(ident, ident).same_table(ident)
    assert hom_join(ident, ident).same_table(ident)
    with pytest.raises(ValueError):
        ModuleHom(X, X, [0, 1])
    with pytest.raises(ValueError):
        ModuleHom(X, X, [0, 1, 2, 9])


def test_is_module_hom_witness():
    X = module_over_self(R4)
    f = np.array([0, 2, 1, 3])  # swap e and a: joins survive, the action breaks
    ok, w = is_module_hom(ModuleHom(X, X, f))
    assert not ok
    assert w == ("action", 2, 1)


def test_adjoint_of_right_translation():
    Z = group_quantale(cyclic_table(2), ["e", "g"])
    X = module_over_self(Z)
    phi = ModuleHom(X, X, Z.mul[:, 2])  # x -> x.g
    assert is_module_hom(phi) == (True, None)
    dag = adjoint(phi)
    assert np.array_equal(dag.map, Z.mul[:, int(Z.inv[2])])
    ddag = adjoint(dag)
    assert ddag.same_table(phi)
    # the inner-product identity, spelled out
    for x in range(X.n):
        for y in range(X.n):
            assert X.ip[phi.map[x], y] == X.ip[x, dag.map[y]]


def test_adjoint_identity_and_direct_image_on_identity():
    X = module_over_self(R2)
    ident = identity_hom(X)
    dag = adjoint(ident)
    assert dag.same_table(ident)
    assert is_direct_image(ident)
    assert adjoint(adjoint(ident)).same_table(ident)


def test_adjoint_rejects_non_homs_and_empty_bases():
    X = module_over_self(R4)
    with pytest.raises(AdjointIdentityFails):
        adjoint(ModuleHom(X, X, [3, 3, 3, 3]))
    with pytest.raises(NotEnoughSections):
        adjoint(identity_hom(X), sigma=[])


@pytest.mark.parametrize("name", ["z2", "z3", "pair2"])
def test_verify_equivalence_checks_each_basis_once_and_no_table_alone(monkeypatch, name):
    """The stack decides every table: verify_equivalence checks each source's
    Hilbert sections once and never calls the per-table functions."""
    G = catalog_get(name)[1]
    actions = [catalog_get(f"{name}_{kind}")[1] for kind in ("regular", "objects")]
    calls = []
    real = hb.is_hilbert_basis
    monkeypatch.setattr(hb, "is_hilbert_basis", lambda *a: calls.append(a[0]) or real(*a))
    for fn in ("is_module_hom", "adjoint", "is_direct_image"):
        monkeypatch.setattr(hb, fn, lambda *a, fn=fn: pytest.fail(f"{fn} was called"))
    rep = verify_equivalence(G, actions)
    assert rep.ok and len(rep.pairs) == 4
    assert len(calls) == len(actions) and calls[0] is not calls[1]


def test_representation_round_trip_over_relq2():
    X = module_over_self(R2)
    rep = representation_report(X, hilbert_sections(X))
    assert rep.ok, rep.checks
    assert rep.checks == {"bijective": True, "join": True,
                          "action": True, "unitary": True}


def test_section_relation_certificate():
    mm = module_from_qset(R2, unit_point())
    R = section_relation(mm)
    assert R.shape == (9, 1)
    # R* R = A is asserted inside; check the other identity shape here
    hat = qset_from_basis(mm.module, hilbert_sections(mm.module))
    assert mat_mul(R, type(R)(R2, R2.inv[R.data].T)) == type(R)(R2, hat.A.data)


def test_functor_m_and_hom_from_relation_round_trip():
    mm = module_from_qset(R2, unit_point())
    MX, secs = functor_M_object(mm.module)
    assert MX.size == 9
    ident = identity_hom(mm.module)
    assert np.array_equal(functor_M(ident).data, MX.A.data)
    # feeding the section relation back in recovers the identity
    phi = hom_from_relation(mm, mm.module, section_relation(mm))
    assert phi.same_table(ident)


def test_functor_m_needs_enough_sections():
    X = r4_chain_submodule()
    rep = validate_prehilbert(X)
    assert rep.ok
    assert not rep.non_degenerate  # a and 1 have identical inner products
    assert hilbert_sections(X).tolist() == [0]
    with pytest.raises(NotEnoughSections) as ei:
        functor_M_object(X)
    assert ei.value.witness == 1


def test_module_support_conditions_agree():
    for Q in (R2, R4, egger8()):
        sm = module_support(module_over_self(Q))
        assert set(sm.conditions.values()) == {True}
        assert sm.stable
        # sup lands in the base locale and restores the element
        e = Q.unit
        for x in range(sm.module.n):
            assert Q.leq[sm.sup[x], e]
            assert sm.module.carrier.leq[x, sm.module.action[sm.sup[x], x]]


def test_module_support_failure_witness():
    X = module_over_self(R4)
    ip = X.ip.copy()
    ip[1, 1] = 0  # pretend <e, e> vanishes
    with pytest.raises(SupportAxiomFails) as ei:
        module_support(PreHilbertModule(X.quantale, X.carrier, X.action, ip))
    assert ei.value.law == "restores"
    assert ei.value.witness == (1,)


PREMISED = {   # library calls whose theorem re-checks assume a pre-Hilbert module
    "module_support": module_support,
    "qset_from_basis": lambda X: qset_from_basis(X, hilbert_sections(X)),
    "local_sections": lambda X: local_sections(module_support(X)),
    "functor_M_object": functor_M_object,
}


@pytest.mark.parametrize("name", [name for name, (kind, _) in catalog_entries().items()
                                  if kind == "action" and name != "pair3_regular"])
def test_theorem_rechecks_never_blame_a_corrupted_input_module(name):
    # one ip cell overwritten: before module_support and qset_from_basis
    # checked their premise, some of these calls raised TheoremViolation
    # (stability_conditions, sup_of_diagonal, sup_via_top, basis_qset, ...)
    X0 = module_from_action(catalog_get(name)[1]).module
    rng = np.random.default_rng(len(name))
    for _ in range(40):
        x, y = rng.integers(0, X0.n, size=2)
        ip = X0.ip.copy()
        ip[x, y] = rng.integers(0, X0.quantale.n)
        X = PreHilbertModule(X0.quantale, X0.carrier, X0.action, ip)
        invalid = bool(validate_prehilbert(X).failures())
        for call in PREMISED.values():
            try:
                call(PreHilbertModule(X0.quantale, X0.carrier, X0.action, ip))
            except Violation:
                continue
            assert not invalid       # nothing is built on a module that is not pre-Hilbert


def test_module_support_requires_stably_supported_quantale():
    with pytest.raises(ValueError):
        module_support(module_over_self(chain4p()))


def test_local_sections_separate_from_hilbert_sections_on_r4():
    sm = module_support(module_over_self(R4))
    ls = local_sections(sm)
    assert ls.local.tolist() == [0, 1, 2]
    assert ls.hilbert.tolist() == [0, 1]
    assert not ls.equal


def test_local_sections_coincide_over_relq2():
    sm = module_support(module_over_self(R2))
    ls = local_sections(sm)
    assert ls.equal
    assert ls.local.tolist() == ls.hilbert.tolist()


def test_singleton_section_bridge():
    br = singleton_section_bridge(unit_point())
    assert len(br.pairing) == 9
    assert len(br.section_indices) == 9
    rng = np.random.default_rng(17)
    for i in range(8):
        X = random_qset(R2, 1 + i % 3, rng)
        br = singleton_section_bridge(X)
        assert len(br.pairing) == len(br.section_indices)


def test_representation_on_random_qsets():
    rng = np.random.default_rng(23)
    for i in range(6):
        X = random_qset(R2, 1 + i % 2, rng)
        mm = module_from_qset(R2, X)
        rep = representation_report(mm.module, hilbert_sections(mm.module))
        assert rep.ok, rep.checks
