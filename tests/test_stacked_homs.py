"""Differential tests: the stacked hom verdicts against the per-table functions.

verify_equivalence decides each action pair's candidate tables as one stack
(hilbert.stacked_homs), and nothing else decides them.  The oracles are the
per-table functions is_module_hom, adjoint and is_direct_image, and
verify_equivalence_per_table, the loop that called them once per table.
The stack must give their verdict for every table, adjoint must succeed on
every hom, and a run in which a candidate table is corrupted must end with
the same report, or the same exception, law and witness.  The stack's two
theorem checks are tested directly: its premises (a distributive source
carrier, both modules passing validate_prehilbert) and the adjoint identity
of every hom raise TheoremViolation instead of leaving a table undecided.
A stack taken in chunks of 1, 2 or 7 tables (_STACK_CELLS patched) must
decide as one chunk does, and name the same witness row.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlab import groupoid as gp
from qlab import hilbert as hb
from qlab import laws
from qlab.catalog import catalog_get
from qlab.lattice import SupLattice
from qlab.quantale import Quantale

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def z3_free(orbits: int, seed: int) -> gp.GroupoidAction:
    """`orbits` free orbits of z3 in a seeded point order; arrow k sends
    (o, h) to (o, h + k mod 3)."""
    pts = [(o, h) for o in range(orbits) for h in range(3)]
    random.Random(seed).shuffle(pts)
    where = {pt: x for x, pt in enumerate(pts)}
    act = [[where[(o, (h + k) % 3)] for (o, h) in pts] for k in range(3)]
    return gp.GroupoidAction(catalog_get("z3")[1], [f"o{o}h{h}" for o, h in pts],
                             [0] * len(pts), act, name=f"z3_free{orbits}")


def catalog_actions(groupoid: str) -> list:
    return [catalog_get(f"{groupoid}_{kind}")[1] for kind in ("regular", "objects")]


SMALL = ["z2", "z3", "pair2", "z2_plus_pair2"]
ACTION_SETS = {
    **{name: (lambda name=name: (catalog_get(name)[1], catalog_actions(name)))
       for name in SMALL + ["pair3"]},
    "z3_free": lambda: (catalog_get("z3")[1], [z3_free(3, 7), z3_free(1, 7)]),
}


def atoms(sm) -> np.ndarray:
    """The single points {x} of an action module: its carrier's join-irreducibles."""
    return np.asarray(sm.module.carrier.join_irreducibles, dtype=np.intp)


def is_sheaf_hom(am1, am2, table, loc1, loc2: set) -> bool:
    """The per-table sheaf-hom test the stack replaced: a module hom that
    preserves supports and local sections."""
    if not hb.is_module_hom(hb.ModuleHom(am1.module, am2.module, table))[0]:
        return False
    if not np.array_equal(am2.sup[table], am1.sup):
        return False
    return all(int(table[s]) in loc2 for s in loc1)


def verify_equivalence_per_table(G, actions, all_hom_cap: int = 4096) -> gp.EquivalenceReport:
    """verify_equivalence as it was before the stack: one call per table."""
    mods = [gp.module_from_action(a) for a in actions]
    locs = [hb.local_sections(am).local for am in mods]
    pairs = []
    for i, am1 in enumerate(mods):
        basis = hb.hilbert_sections(am1.module)
        for j, am2 in enumerate(mods):
            loc1, loc2 = locs[i], set(locs[j].tolist())
            equiv = gp._equivariant_maps(actions[i], actions[j])
            sheaf_tables = [t for t in gp._enumerate_homs(am1, am2, locs[j])
                            if is_sheaf_hom(am1, am2, t, loc1, loc2)]
            keyed = {t.tobytes(): pos for pos, t in enumerate(sheaf_tables)}
            for pos, t in enumerate(sheaf_tables):
                phi = hb.ModuleHom(am1.module, am2.module, t)
                laws.TheoremViolation.check(
                    "sheaf_hom_is_direct_image",
                    None if hb.is_direct_image(phi, hb.adjoint(phi, basis)) else (i, j, pos))
            bij = []
            for f in equiv:
                key = am1.module.carrier.join_extend(atoms(am2)[list(f)],
                                                     am2.module.carrier).tobytes()
                laws.TheoremViolation.check("direct_image_is_sheaf_hom",
                                            None if key in keyed else (i, j, f))
                bij.append(keyed[key])
            laws.TheoremViolation.check("direct_image_injective",
                                        None if len(set(bij)) == len(bij) else (i, j))
            total = None
            if am2.module.n ** actions[i].n_points <= all_hom_cap:
                all_tables = [t for t in gp._enumerate_homs(am1, am2, None)
                              if hb.is_module_hom(hb.ModuleHom(am1.module, am2.module, t))[0]]
                total = len(all_tables)
                subset = {t.tobytes() for t in all_tables
                          if is_sheaf_hom(am1, am2, t, loc1, loc2)}
                galois = set()
                for t in all_tables:
                    phi = hb.ModuleHom(am1.module, am2.module, t)
                    if hb.is_direct_image(phi, hb.adjoint(phi, basis)):
                        galois.add(t.tobytes())
                laws.TheoremViolation.check("sheaf_hom_characterizations_agree",
                                            None if subset == set(keyed) == galois else (i, j))
            pairs.append(gp.PairReport(i, j, equiv, [tuple(map(int, t)) for t in sheaf_tables],
                                       bij, total))
    return gp.EquivalenceReport(G, pairs)


def outcome(run):
    """A report's pairs, or the failure's type, law and witness."""
    try:
        rep = run()
    except (laws.Violation, laws.TheoremViolation) as exc:
        return type(exc).__name__, exc.law, exc.witness
    return [(p.source, p.target, p.equivariant, p.sheaf_homs, p.bijection, p.all_homs)
            for p in rep.pairs]


def per_table(X1, X2, table, basis):
    """(is_module_hom, is_direct_image) of one table; adjoint must succeed on a hom."""
    phi = hb.ModuleHom(X1, X2, table)
    if not hb.is_module_hom(phi)[0]:
        return False, False
    return True, hb.is_direct_image(phi, hb.adjoint(phi, basis))


@pytest.mark.parametrize("name", sorted(ACTION_SETS))
def test_stacked_verdicts_match_the_per_table_functions(name):
    """Every candidate of every pair, and every join-preserving table where the
    space is small (the all-homs space of the 3-point action included)."""
    G, actions = ACTION_SETS[name]()
    mods = [gp.module_from_action(a) for a in actions]
    seen = set()
    for am1 in mods:
        basis = hb.hilbert_sections(am1.module)
        for am2 in mods:
            runs = [hb.local_sections(am2).local]
            if am2.module.n ** len(atoms(am1)) <= 4096:
                runs.append(None)
            for images in runs:
                tables = gp._enumerate_homs(am1, am2, images)
                hom, direct = hb.stacked_homs(am1.module, am2.module, tables, basis)
                for s, table in enumerate(tables):
                    slow = per_table(am1.module, am2.module, table, basis)
                    assert (hom[s], direct[s]) == slow
                    seen.add(slow)
    assert (True, True) in seen
    if name in ("z3_free", "z3"):             # homs that are not direct images
        assert (True, False) in seen


@pytest.mark.parametrize("name", sorted(ACTION_SETS))
def test_reports_match_the_per_table_loop(name):
    G, actions = ACTION_SETS[name]()
    fast = outcome(lambda: gp.verify_equivalence(G, actions))
    assert fast == outcome(lambda: verify_equivalence_per_table(G, actions))
    assert isinstance(fast, list) and all(len(p[2]) == len(p[3]) for p in fast)


def corrupt_candidates(mp, call: int, mutate):
    """Make the call-th _enumerate_homs call (from 0) return mutate(tables)."""
    real = gp._enumerate_homs
    calls = []

    def spy(am1, am2, images):
        tables = np.array(real(am1, am2, images))
        calls.append(None)
        if len(calls) - 1 == call and len(tables):
            tables = mutate(tables, am1, am2)
        return tables

    mp.setattr(gp, "_enumerate_homs", spy)


def both_outcomes(name, patch):
    """(stacked, per-table) outcomes of one run with the same corruption."""
    G, actions = ACTION_SETS[name]()
    result = []
    for run in (gp.verify_equivalence, verify_equivalence_per_table):
        with pytest.MonkeyPatch.context() as mp:
            patch(mp)
            result.append(outcome(lambda: run(G, actions)))
    return result


KINDS = ["cell", "shift", "swap", "bottom"]


@SETTINGS
@given(st.sampled_from(SMALL), st.sampled_from(KINDS), st.integers(0, 7),
       st.lists(st.integers(0, 2 ** 16), min_size=8, max_size=8))
def test_a_corrupted_candidate_fails_as_before(name, kind, call, draws):
    """cell: one cell overwritten (the join law breaks); shift: every value
    joined with a constant (binary joins kept, the bottom lost); swap: the
    table of other atom images (join-preserving, often not equivariant, with
    other supports or sections); bottom: the bottom sent elsewhere.  The
    same corruption is applied in both runs."""
    def mutate(tables, am1, am2):
        tables = tables.copy()
        r = draws[0] % len(tables)
        X1, X2 = am1.module.carrier, am2.module.carrier
        if kind == "cell":
            tables[r, draws[1] % X1.n] = draws[2] % X2.n
        elif kind == "shift":
            tables[r] = X2.join_table[draws[1] % X2.n, tables[r]]
        elif kind == "swap":
            images = np.array([d % X2.n for d in draws[1:1 + len(atoms(am1))]], dtype=np.intp)
            tables[r] = X1.join_extend(images, X2)
        else:
            tables[r, X1.bottom] = draws[1] % X2.n
        return tables

    fast, slow = both_outcomes(name, lambda mp: corrupt_candidates(mp, call, mutate))
    assert fast == slow


def corrupt_module(actions, which: int, edit):
    """A patch that makes module_from_action give actions[which] the inner
    product edit(ip), after the module was checked."""
    real = gp.module_from_action

    def patched(A):
        am = real(A)
        if A is not actions[which]:
            return am
        X = am.module
        ip = edit(X.ip.copy(), X)
        return dataclasses.replace(am, module=hb.PreHilbertModule(X.quantale, X.carrier,
                                                                  X.action, ip))

    return lambda mp: mp.setattr(gp, "module_from_action", patched)


@SETTINGS
@given(st.sampled_from(SMALL), st.data())
def test_a_corrupted_target_inner_product_fails_as_before(name, data):
    """One cell of one action module's inner product overwritten, after the
    module was checked.  If the module still passes validate_prehilbert, the
    run ends as the per-table run ends; otherwise it ends in the premise."""
    G, actions = ACTION_SETS[name]()
    which = data.draw(st.integers(0, len(actions) - 1))
    n = gp.module_from_action(actions[which]).module.n
    cell = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
    value = data.draw(st.integers(0, G.quantale.n - 1))

    def edit(ip, X):
        ip[cell] = value
        return ip

    fast, slow = both_outcomes(name, corrupt_module(actions, which, edit))
    X = gp.module_from_action(actions[which]).module
    edited = hb.PreHilbertModule(X.quantale, X.carrier, X.action, edit(X.ip.copy(), X))
    if hb.validate_prehilbert(edited).ok:
        assert fast == slow
    else:
        assert fast[:2] == ("TheoremViolation", "prehilbert_laws")


@pytest.mark.parametrize("which", [0, 1])
def test_a_module_corrupted_after_its_check_fails_the_premise(which):
    """z3's regular or object module with the top on the diagonal of its inner
    product: it breaks the pre-Hilbert laws, so the run stops at the premise
    of its Hilbert sections or of the stack instead of deciding tables."""
    G, actions = ACTION_SETS["z3"]()

    def edit(ip, X):
        return np.where(np.eye(X.n, dtype=bool), X.quantale.top, ip)

    with pytest.MonkeyPatch.context() as mp:
        corrupt_module(actions, which, edit)(mp)
        with pytest.raises(laws.TheoremViolation) as exc:
            gp.verify_equivalence(G, actions)
    assert exc.value.law == "prehilbert_laws"
    assert "ip_scalar_left" in exc.value.witness


def test_each_stacked_check_rejects_its_corruption():
    """One corruption per check of the stack, each failing only that check, and
    each ending as the per-table run ends."""
    G, actions = ACTION_SETS["z3"]()
    am = gp.module_from_action(actions[0])
    X = am.module
    basis = hb.hilbert_sections(X)
    good = gp._enumerate_homs(am, am, hb.local_sections(am).local)[0]
    jt = X.carrier.join_table
    cases = {
        "join": lambda t: np.where(np.arange(X.n) == 3, X.carrier.top, t),
        "bottom": lambda t: jt[1, t],
        "action": lambda t: X.carrier.join_extend(np.array([1, 1, 1]), X.carrier),
    }
    for check, mutate in cases.items():
        table = mutate(good)
        hom, direct = hb.stacked_homs(X, X, table[None], basis)
        assert not hom[0] and not direct[0], check
        assert not hb.is_module_hom(hb.ModuleHom(X, X, table))[0], check

        def patch(mp, mutate=mutate):
            corrupt_candidates(mp, 0, lambda tables, am1, am2: np.vstack(
                [mutate(tables[0])[None], tables[1:]]))

        fast, slow = both_outcomes("z3", patch)
        assert fast == slow and fast[0] == "TheoremViolation", check
        assert fast[1] == "direct_image_is_sheaf_hom", check


def test_the_premises_and_the_adjoint_identity_are_theorem_checks():
    """A target whose inner product breaks a law, a source carrier that is not
    distributive, and a sigma that is not a Hilbert basis (so the adjoint
    identity fails on a hom) each raise TheoremViolation; no table is left
    undecided."""
    G, actions = ACTION_SETS["z3"]()
    am = gp.module_from_action(actions[0])
    X = am.module
    basis = hb.hilbert_sections(X)
    good = gp._enumerate_homs(am, am, hb.local_sections(am).local)[0]
    bad = hb.PreHilbertModule(X.quantale, X.carrier, X.action,
                              np.where(np.eye(X.n, dtype=bool), X.quantale.top, X.ip))
    assert not bad.prehilbert_report.ok
    with pytest.raises(laws.TheoremViolation) as exc:
        hb.stacked_homs(X, bad, good[None], basis)
    assert exc.value.law == "prehilbert_laws"
    assert exc.value.witness == bad.prehilbert_report.failures()

    m3 = SupLattice.from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    zero = hb.module_over_self(Quantale(m3, np.zeros((5, 5), dtype=np.intp), np.arange(5)))
    assert zero.prehilbert_report.ok and not m3.distributive
    with pytest.raises(laws.TheoremViolation) as exc:
        hb.stacked_homs(zero, zero, np.arange(5)[None], np.arange(5))
    assert (exc.value.law, exc.value.witness) == ("distributive_source", m3.is_frame()[1])

    ident = np.arange(X.n)
    with pytest.raises(laws.TheoremViolation) as exc:   # dag = bottom: <x, dag(y)> = 0
        hb.stacked_homs(X, X, np.stack([good, ident]), basis[:0])
    row, x, y = exc.value.witness
    assert exc.value.law == "adjoint_identity" and row == 0
    assert X.ip[good[x], y] != X.ip[x, X.carrier.bottom]


def cells_per_table(Xs, Xt, sigma) -> int:
    """The cells per table of stacked_homs' largest temporary, which sizes its chunks."""
    jq, js, jt = (len(L.join_irreducibles)
                  for L in (Xs.quantale.lattice, Xs.carrier, Xt.carrier))
    return max(Xs.n, js * Xt.n, jq * js, jt * len(sigma))


def chunked(mp, size: int) -> list:
    """Make every stacked_homs call take `size` tables per chunk; the returned
    list gets one entry per chunk decided (one adjoint_identity check each)."""
    real, chunks = hb.stacked_homs, []

    class Counted(laws.TheoremViolation):
        @classmethod
        def check(cls, law, witness):
            if law == "adjoint_identity":
                chunks.append(law)
            super().check(law, witness)

    def stacked(Xs, Xt, tables, sigma):
        mp.setattr(hb, "_STACK_CELLS", size * cells_per_table(Xs, Xt, sigma))
        return real(Xs, Xt, tables, sigma)

    mp.setattr(hb, "TheoremViolation", Counted)
    mp.setattr(hb, "stacked_homs", stacked)
    return chunks


@pytest.mark.parametrize("size", [1, 2, 7])
def test_stacks_in_chunks_decide_as_one_chunk(size):
    """z3's candidate and all-homs stacks (up to 8 tables, one chunk at the
    real _STACK_CELLS) taken `size` tables at a time."""
    G, actions = ACTION_SETS["z3"]()
    mods = [gp.module_from_action(a) for a in actions]
    stacks = []
    for am1 in mods:
        basis = hb.hilbert_sections(am1.module)
        for am2 in mods:
            for images in (hb.local_sections(am2).local, None):
                if images is not None or am2.module.n ** len(atoms(am1)) <= 4096:
                    tables = np.asarray(gp._enumerate_homs(am1, am2, images))
                    stacks.append((am1.module, am2.module, tables, basis))
    whole = [hb.stacked_homs(*stack) for stack in stacks]
    report = outcome(lambda: gp.verify_equivalence(G, actions))
    assert max(len(stack[2]) for stack in stacks) == 8
    with pytest.MonkeyPatch.context() as mp:
        chunks = chunked(mp, size)
        for stack, (hom, direct) in zip(stacks, whole):
            before = len(chunks)
            got = hb.stacked_homs(*stack)
            assert len(chunks) - before == -(-len(stack[2]) // size)
            assert np.array_equal(got[0], hom) and np.array_equal(got[1], direct)
        assert outcome(lambda: gp.verify_equivalence(G, actions)) == report


@pytest.mark.parametrize("size", [1, 2, 7])
def test_the_adjoint_identity_witness_names_its_row_of_the_whole_stack(size):
    """Nine tables that are not homs, then a hom whose adjoint identity fails
    (sigma is empty): the witness row is 9 whichever chunk holds it."""
    G, actions = ACTION_SETS["z3"]()
    am = gp.module_from_action(actions[0])
    X = am.module
    good = gp._enumerate_homs(am, am, hb.local_sections(am).local)[0]
    tables = np.stack([X.carrier.join_table[1, good]] * 9 + [good])   # the bottom moved
    sigma = np.arange(0)
    with pytest.raises(laws.TheoremViolation) as one:
        hb.stacked_homs(X, X, tables, sigma)
    with pytest.MonkeyPatch.context() as mp:
        chunked(mp, size)
        with pytest.raises(laws.TheoremViolation) as exc:
            hb.stacked_homs(X, X, tables, sigma)
    assert exc.value.law == one.value.law == "adjoint_identity"
    assert exc.value.witness == one.value.witness and one.value.witness[0] == 9
