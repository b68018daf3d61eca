"""Differential tests: generator-reduced law checks against exhaustive scans.

The oracle side runs the same checks with every reduced check answering
"not proved" (holds_on replaced by a function returning False, and every
lattice reported not distributive, so join laws are not decided by
join-extension either), so each law is decided by its exhaustive row scan
alone.  Inputs are catalog structures,
modules and homs with one table cell overwritten, so most of them break
some law, and both sides must report the same laws dict, witnesses
included.  Every input is copied afresh for each side (the catalog caches
its groupoids), so no cached premise crosses over.
"""

import ast
import contextlib
import itertools
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlab import groupoid, hilbert, lattice, laws, objio, qmatrix, quantale
from qlab.catalog import relq
from qlab.groupoid import _enumerate_homs, module_from_action
from qlab.hilbert import (AdjointIdentityFails, ModuleHom, NotEnoughSections,
                          PreHilbertModule, adjoint, identity_hom, is_module_hom,
                          module_from_qset, module_over_self, validate_module,
                          validate_prehilbert)
from qlab.lattice import SupLattice
from qlab.qmatrix import random_qset
from qlab.quantale import Quantale, modular_law, support, validate_quantale

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

QUANTALES = ["relq2", "egger8", "r4", "zmod2", "zmod3", "chain2", "pow2",
             "z2", "z3", "pair2", "z2_plus_pair2"]


@contextlib.contextmanager
def exhaustive():
    """Run the law checks with every reduced check failing to prove."""
    mp = pytest.MonkeyPatch()
    for mod in (lattice, quantale, hilbert):
        mp.setattr(mod, "holds_on", lambda bad_row, generators: False)
    mp.setattr(SupLattice, "distributive", property(lambda self: False))
    try:
        yield
    finally:
        mp.undo()


def both(build, check):
    fast = check(build())
    with exhaustive():
        slow = check(build())
    return fast, slow


def fresh_lattice(lat: SupLattice) -> SupLattice:
    return SupLattice(lat.leq.copy(), lat.labels)


def fresh_quantale(Q: Quantale, mul=None, inv=None) -> Quantale:
    mul = Q.mul if mul is None else mul
    inv = Q.inv if inv is None else inv
    return Quantale(fresh_lattice(Q.lattice), mul.copy(), inv.copy(), Q.unit, Q.name)


def fresh_module(X: PreHilbertModule, action=None, ip=None) -> PreHilbertModule:
    Q = fresh_quantale(X.quantale)
    carrier = Q.lattice if X.carrier is X.quantale.lattice else fresh_lattice(X.carrier)
    action = X.action if action is None else action
    ip = X.ip if ip is None else ip
    return PreHilbertModule(Q, carrier, action.copy(), ip.copy())


def catalog_quantale(name: str) -> Quantale:
    kind, obj = objio.resolve(f"catalog:{name}")
    return fresh_quantale(obj if kind == "quantale" else obj.quantale)


def action_module(name: str) -> PreHilbertModule:
    return fresh_module(module_from_action(objio.resolve(f"catalog:{name}")[1]).module)


def qset_module(seed: int) -> PreHilbertModule:
    Q = relq(2)
    X = module_from_qset(Q, random_qset(Q, 2, np.random.default_rng(seed))).module
    return fresh_module(X)


def overwrite(table: np.ndarray, cell: tuple, value: int) -> np.ndarray:
    out = table.copy()
    out[cell] = value
    return out


def draw_cell(data, shape, bound):
    cell = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
    return cell, data.draw(st.integers(0, bound - 1))


def quantale_laws(Q: Quantale):
    return (validate_quantale(Q).laws, modular_law(Q), Q.lattice.is_frame(),
            None if Q.unit is None else support(Q).laws)


def prehilbert_laws(X: PreHilbertModule):
    rep = validate_prehilbert(X)
    return validate_module(X).laws, rep.laws, rep.degeneracy_witness


# ------------------------------------------------------------- quantales

@SETTINGS
@given(st.sampled_from(QUANTALES), st.sampled_from(["mul", "inv", None]), st.data())
def test_quantale_laws_match_the_exhaustive_scan(name, table, data):
    n = catalog_quantale(name).n
    shape = {"mul": (n, n), "inv": (n,), None: ()}[table]
    cell, value = draw_cell(data, shape, n)

    def build():
        Q = catalog_quantale(name)
        if table is None:
            return Q
        return fresh_quantale(Q, **{table: overwrite(getattr(Q, table), cell, value)})

    fast, slow = both(build, quantale_laws)
    assert fast == slow


def pentagon() -> SupLattice:
    return SupLattice.from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def m3() -> SupLattice:
    return SupLattice.from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


@pytest.mark.parametrize("make", [pentagon, m3])
def test_modular_law_scans_exhaustively_off_frames(make, monkeypatch):
    proved = []
    scan = quantale.first_violation

    def spy(bad_row, rows, proved_flag=False):
        proved.append(proved_flag)
        return scan(bad_row, rows, proved_flag)

    def zero():
        lat = make()
        return Quantale(lat, np.zeros((5, 5), dtype=np.intp), np.arange(5))

    fast, slow = both(zero, quantale_laws)
    assert fast == slow
    Q = zero()
    assert Q.lattice.is_frame()[0] is False and Q.bilinear
    monkeypatch.setattr(quantale, "first_violation", spy)
    assert modular_law(Q) is None
    assert proved == [False]


def counting_scans(monkeypatch, *modules) -> list:
    """Record every row that first_violation evaluates in the given modules."""
    rows: list = []
    for mod in modules:
        def spy(bad_row, rs, proved=False, scan=mod.first_violation):
            def counted(r):
                rows.append(r)
                return bad_row(r)
            return scan(counted, rs, proved)
        monkeypatch.setattr(mod, "first_violation", spy)
    return rows


def test_valid_quantales_skip_the_scans(monkeypatch):
    """No law of a valid quantale on a frame scans a single row."""
    rows = counting_scans(monkeypatch, lattice, quantale)
    for name in ("pair2", "relq2", "z2_plus_pair2", "zmod3"):
        Q = catalog_quantale(name)
        assert validate_quantale(Q).ok and modular_law(Q) is None
        assert Q.lattice.is_frame() == (True, None)
    assert rows == []


@pytest.mark.parametrize("make", [pentagon, m3])
def test_join_laws_off_distributive_lattices_skip_the_frame_witness(make, monkeypatch):
    """join_witness decides distributivity by Birkhoff's test, never by is_frame's scan."""
    lat = make()
    rows = counting_scans(monkeypatch, lattice)
    assert lat.join_witness(np.arange(lat.n), lat) is None
    assert lat.join_witness(lat.join_table, lat, axis=1) is None
    assert "_frame_law" not in vars(lat) and rows == []
    assert lat.is_frame()[0] is False and rows != []


# -------------------------------------------------------------- lattices

def moore_lattice(masks: list[int]) -> SupLattice:
    """The subsets closed under intersection, with the full set, by inclusion."""
    family = {15}
    for m in masks:
        family |= {m & f for f in family} | {m}
    elems = np.array(sorted(family))
    return SupLattice((elems[:, None] & ~elems[None, :]) == 0)


@SETTINGS
@given(st.lists(st.integers(0, 15), max_size=6))
def test_frame_law_matches_the_exhaustive_scan(masks):
    fast, slow = both(lambda: moore_lattice(masks), lambda lat: lat.is_frame())
    assert fast == slow
    lat = moore_lattice(masks)
    assert lat.distributive == (slow[1] is None)           # Birkhoff's test against the scan
    by_definition = [x for x in range(lat.n)
                     if lat.join([y for y in range(lat.n) if lat.leq[y, x] and y != x]) != x]
    assert lat.join_irreducibles == by_definition


def join_tables(lat: SupLattice, data, width: int):
    """A (n, width) table: join-extended irreducible values, maybe shifted
    off the bottom by a constant, maybe with one cell overwritten."""
    values = np.array(data.draw(st.lists(st.lists(st.integers(0, lat.n - 1), min_size=width,
                                                  max_size=width),
                                         min_size=len(lat.join_irreducibles),
                                         max_size=len(lat.join_irreducibles))),
                      dtype=np.intp).reshape(len(lat.join_irreducibles), width)
    table = lat.join_extend(values, lat)
    if data.draw(st.booleans()):
        table = lat.join_table[data.draw(st.integers(0, lat.n - 1)), table]
    kind = data.draw(st.sampled_from(["extension", "corrupt", "random"]))
    if kind == "corrupt":
        table[data.draw(st.integers(0, lat.n - 1)), data.draw(st.integers(0, width - 1))] = \
            data.draw(st.integers(0, lat.n - 1))
    elif kind == "random":
        table = np.array(data.draw(st.lists(st.integers(0, lat.n - 1), min_size=lat.n * width,
                                            max_size=lat.n * width)),
                         dtype=np.intp).reshape(lat.n, width)
    return table


@SETTINGS
@given(st.lists(st.integers(0, 15), max_size=6), st.sampled_from(["1-D", "axis 0", "axis 1"]),
       st.data())
def test_join_witness_matches_the_exhaustive_scan(masks, shape, data):
    """On distributive lattices and others, the law is decided by join-extension
    or on generators, and the witness is the scan's."""
    lat = moore_lattice(masks)
    table = join_tables(lat, data, 1 if shape == "1-D" else data.draw(st.integers(1, 4)))
    table = {"1-D": table[:, 0], "axis 0": table, "axis 1": table.T}[shape]
    axis = 1 if shape == "axis 1" else 0

    fast, slow = both(lambda: moore_lattice(masks),
                      lambda lat: lat.join_witness(table.copy(), lat, axis))
    assert fast == slow
    preserved = (lat.extension(table, lat, axis) == table).all()
    if lat.distributive:
        assert (fast is None) == preserved


# --------------------------------------------------------------- modules

MODULES = {
    "self:relq2": lambda: module_over_self(catalog_quantale("relq2")),
    "self:egger8": lambda: module_over_self(catalog_quantale("egger8")),
    "self:r4": lambda: module_over_self(catalog_quantale("r4")),
    "self:z3": lambda: module_over_self(catalog_quantale("z3")),
    "z2_regular": lambda: action_module("z2_regular"),
    "z3_regular": lambda: action_module("z3_regular"),
    "pair2_objects": lambda: action_module("pair2_objects"),
    "qset:0": lambda: qset_module(0),
    "qset:1": lambda: qset_module(1),
}


@SETTINGS
@given(st.sampled_from(sorted(MODULES)), st.sampled_from(["action", "ip", None]), st.data())
def test_module_laws_match_the_exhaustive_scan(name, table, data):
    X0 = MODULES[name]()
    shape, bound = {"action": (X0.action.shape, X0.n), "ip": (X0.ip.shape, X0.quantale.n),
                    None: ((), 1)}[table]
    cell, value = draw_cell(data, shape, bound)

    def build():
        X = MODULES[name]()
        if table is None:
            return X
        return fresh_module(X, **{table: overwrite(getattr(X, table), cell, value)})

    fast, slow = both(build, prehilbert_laws)
    assert fast == slow


@SETTINGS
@given(st.sampled_from(sorted(MODULES)), st.booleans(), st.data())
def test_module_homs_match_the_exhaustive_scan(name, scaled, data):
    X0 = MODULES[name]()
    a = data.draw(st.integers(0, X0.quantale.n - 1))
    cell, value = draw_cell(data, (X0.n,), X0.n)
    corrupt = data.draw(st.booleans())

    def build():
        X = MODULES[name]()
        f = X.action[a] if scaled else np.arange(X.n)
        return ModuleHom(X, X, overwrite(f, cell, value) if corrupt else f)

    fast, slow = both(build, is_module_hom)
    assert fast == slow


def adjoint_outcome(phi: ModuleHom):
    try:
        return "ok", adjoint(phi).map.tolist()
    except AdjointIdentityFails as exc:
        return "fails", exc.witness
    except NotEnoughSections as exc:
        return "no basis", exc.witness


def join_extensions(src, dst):
    """Every join-preserving map between the powerset carriers of two action modules."""
    X1, X2 = src.module, dst.module
    atoms = X1.carrier.join_irreducibles
    assert atoms == [1 << x for x in range(len(atoms))]     # the loop below reads bitmasks
    for images in itertools.product(range(X2.n), repeat=len(atoms)):
        table = np.full(X1.n, X2.carrier.bottom, dtype=np.intp)
        for mask in range(1, X1.n):
            low = (mask & -mask).bit_length() - 1
            table[mask] = X2.carrier.join_table[table[mask & (mask - 1)], images[low]]
        yield table


ACTION_PAIRS = [("z2_regular", "z2_regular"), ("z2_objects", "z2_regular"),
                ("pair2_objects", "pair2_regular"), ("z3_objects", "z3_regular"),
                ("z3_regular", "z3_regular")]


@SETTINGS
@given(st.sampled_from(ACTION_PAIRS), st.data())
def test_adjoints_of_enumerated_homs_match_the_exhaustive_scan(pair, data):
    src, dst = (module_from_action(objio.resolve(f"catalog:{name}")[1]) for name in pair)
    tables = _enumerate_homs(src, dst, None)
    f = tables[data.draw(st.integers(0, len(tables) - 1))]
    cell, value = draw_cell(data, f.shape, dst.module.n)
    table = overwrite(f, cell, value) if data.draw(st.booleans()) else f

    def build():
        X1 = fresh_module(src.module)
        return ModuleHom(X1, X1 if pair[0] == pair[1] else fresh_module(dst.module), table)

    fast, slow = both(build, adjoint_outcome)
    assert fast == slow


@SETTINGS
@given(st.sampled_from(sorted(MODULES)), st.data())
def test_adjoints_of_scalings_match_the_exhaustive_scan(name, data):
    X0 = MODULES[name]()
    a = data.draw(st.integers(0, X0.quantale.n - 1))
    cell, value = draw_cell(data, (X0.n,), X0.n)
    corrupt = data.draw(st.booleans())

    def build():
        X = MODULES[name]()
        return ModuleHom(X, X, overwrite(X.action[a], cell, value) if corrupt else X.action[a])

    fast, slow = both(build, adjoint_outcome)
    assert fast == slow


@pytest.mark.parametrize("pair", ACTION_PAIRS, ids="->".join)
def test_adjoints_of_every_join_preserving_map_match_the_exhaustive_scan(pair):
    """Most of these maps are not equivariant, so the identity fails on
    some join-irreducible while every premise of the reduction holds."""
    src, dst = (module_from_action(objio.resolve(f"catalog:{name}")[1]) for name in pair)
    same = pair[0] == pair[1]
    fast_src, slow_src = fresh_module(src.module), fresh_module(src.module)
    fast_dst = fast_src if same else fresh_module(dst.module)
    slow_dst = slow_src if same else fresh_module(dst.module)
    outcomes = set()
    for table in join_extensions(src, dst):
        fast = adjoint_outcome(ModuleHom(fast_src, fast_dst, table))
        with exhaustive():
            slow = adjoint_outcome(ModuleHom(slow_src, slow_dst, table))
        assert fast == slow
        outcomes.add(fast[0])
    assert "ok" in outcomes


@SETTINGS
@given(st.sampled_from(sorted(MODULES)), st.booleans(), st.data())
def test_adjoints_over_a_corrupted_inner_product_match_the_exhaustive_scan(
        name, source_side, data):
    """The carrier map x |-> ax from a module to a copy of it with one
    inner-product cell overwritten, or back."""
    X0 = MODULES[name]()
    cell, value = draw_cell(data, X0.ip.shape, X0.quantale.n)
    a = data.draw(st.integers(0, X0.quantale.n - 1))

    def build():
        X = MODULES[name]()
        Y = fresh_module(X, ip=overwrite(X.ip, cell, value))
        return ModuleHom(Y, X, X.action[a]) if source_side else ModuleHom(X, Y, X.action[a])

    fast, slow = both(build, adjoint_outcome)
    assert fast == slow


def test_adjoints_of_homs_skip_the_scan(monkeypatch):
    proved = []
    scan = hilbert.first_violation

    def spy(bad_row, rows, proved_flag=False):
        proved.append(proved_flag)
        return scan(bad_row, rows, proved_flag)

    X = module_over_self(catalog_quantale("relq2"))
    monkeypatch.setattr(hilbert, "first_violation", spy)
    assert adjoint(identity_hom(X)).same_table(identity_hom(X))
    assert proved == [True]


def test_right_scalar_law_needs_symmetry():
    """<x, y> = x1 is left-linear but not symmetric, so <x, ay> = <x,y>a*
    cannot be derived from the left-hand law and must be scanned."""
    def build():
        Q = catalog_quantale("relq2")
        ip = np.repeat(Q.mul[:, Q.top, None], Q.n, axis=1)
        return PreHilbertModule(Q, Q.lattice, Q.mul, ip)

    fast, slow = both(build, prehilbert_laws)
    assert fast == slow
    laws = fast[1]
    assert laws["ip_scalar_left"] is None and laws["ip_join_left"] is None
    assert laws["ip_symmetry"] is not None and laws["ip_scalar_right"] is not None


# ------------------------------------------------------------- failures

# class, sample law and witness, and the message the class had before it
# became a Violation
VIOLATIONS = [
    (lattice.NotAPoset, "antisymmetry", (0, 1), "not a poset: antisymmetry fails at (0, 1)"),
    (lattice.NotALattice, "join", (0, 1), "not a lattice: no join for pair (0, 1)"),
    (quantale.NotUnital, "support requires a unital quantale", (),
     "support requires a unital quantale"),
    (quantale.BNotLocale, "meet_is_product", (1, 2),
     "downset of the unit is not a locale: meet_is_product fails at (1, 2)"),
    (qmatrix.NotStablyGelfand, "stably_gelfand", (1,),
     "not stably Gelfand: aa*a <= a but aa*a != a at a = 1"),
    (qmatrix.NotAQSet, "qset", ("self_adjoint", 0, 2),
     "not a Q-set: self_adjoint fails at (0, 2)"),
    (hilbert.AdjointIdentityFails, "adjoint_identity", (2, 3), "adjoint identity fails at (2, 3)"),
    (hilbert.NotEnoughSections, "hilbert_basis", 1,
     "element 1 is not a join of its section parts"),
    (hilbert.NotARelation, "relation", ("left_absorption", 0, 1),
     "H is not a relation into M(Y): left_absorption fails at (0, 1)"),
    (hilbert.SupportAxiomFails, "restores", (1,), "support axiom restores fails at (1,)"),
    (groupoid.NotAGroupoid, "unit_endpoints", (1,), "groupoid law unit_endpoints fails at (1,)"),
    (groupoid.InvalidAction, "definedness", (0, 0), "action law definedness fails at (0, 0)"),
    (groupoid.NotEtale, "etale", 2, "element 2 is not a join of local section parts"),
]


@pytest.mark.parametrize("cls,law,witness,message", VIOLATIONS,
                         ids=[v[0].__name__ for v in VIOLATIONS])
def test_law_errors_keep_their_messages(cls, law, witness, message):
    exc = cls(law, witness)
    assert str(exc) == message
    assert (exc.law, exc.witness) == (law, witness)
    assert isinstance(exc, laws.Violation) and isinstance(exc, ValueError)
    assert not isinstance(exc, laws.TheoremViolation)
    with pytest.raises(cls) as ei:
        cls.check(law, witness)
    assert str(ei.value) == message


def test_not_a_lattice_names_the_missing_bound_as_its_kind():
    assert lattice.NotALattice("meet", (2, 3)).kind == "meet"


@pytest.mark.parametrize("cls", [laws.Violation, laws.TheoremViolation])
@pytest.mark.parametrize("witness", [None, (), 0, (0,), "", "self_adjoint", {}])
def test_check_raises_iff_the_witness_is_not_none(cls, witness):
    if witness is None:
        assert cls.check("law", witness) is None
        return
    with pytest.raises(cls) as ei:
        cls.check("law", witness)
    assert (ei.value.law, ei.value.witness) == ("law", witness)


def test_a_theorem_violation_is_never_a_verdict():
    exc = laws.TheoremViolation("row_entries", (0, 1))
    assert str(exc) == "theorem check row_entries fails at (0, 1)"
    assert isinstance(exc, AssertionError)
    assert not isinstance(exc, (laws.Violation, ValueError))


def test_no_theorem_check_is_an_assert():
    """python -O strips assert statements; theorem checks use TheoremViolation."""
    src = os.path.dirname(laws.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            raised = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(raised, ast.Call):
                raised = raised.func
            if isinstance(node, ast.Assert) or (isinstance(raised, ast.Name)
                                                and raised.id == "AssertionError"):
                found.append(f"{name}:{node.lineno}")
    assert found == []
