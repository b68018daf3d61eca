"""Differential tests: the propagating search against the one-leaf-at-a-time walk.

The oracle below is the earlier recursive search, kept here only: `place`
assigns one free cell at a time, and every leaf runs `assoc_ok`, the
Python triple loop over irreducibles.  The search, which tests each triple
as soon as a partial table decides it, must give the same models in the
same order, hand on the same associative leaves and keep an equal
SearchStats, also when it stops on `limit`, and for every block size of
laws.lex_blocks (_LEX_BLOCK), which the search walks and which also bounds
the groups of triples it tests in one array step.  Both walks take a leaf
that is not monotone, or whose self-linked cell (p, p*) holds a value that
is not self-adjoint, as pruned.  The budget counts the tables the search
tests, which the one-leaf walk does not share: a budgeted search is
compared with the same search without a budget.

The leaf kernel, which validates and classifies a stack of associative
leaves at once, is compared leaf by leaf with validate_quantale and
classify, at one leaf per kernel call and at the default chunk.  It decides
the cubic laws on join-irreducibles; the kernel it replaced, which decides
every law on every cell from its definition, is kept here as
leaf_verdicts_by_definition, and both must give equal arrays on every
chunk of a search and on random stacks of tables that are not
join-extensions, where the premises of the reductions fail.

Under dedup_iso the search marks a leaf as a copy by its symmetry orbit
and the conjugacy class of its involution; with no limit it skips
involutions conjugate to one it walked and hands the kernel one leaf per
orbit.  The walks here dedup by an independent rule instead, the canonical
key of each model: the least relabelling of its tables by an order
automorphism.  The search is compared with the one-leaf walk where that
walk visits at most ONE_LEAF_MAX leaves, and beyond that with full_walk,
which dedups by canonical keys the block search of every leaf that the
tests above compare with the one-leaf walk.
"""

import dataclasses
import functools
import importlib
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qlab import cli, laws, objio
from qlab.lattice import NotALattice, NotAPoset, SupLattice, chain_lattice, powerset_lattice
from qlab.laws import TheoremViolation, first_bad
from qlab.quantale import (BUILDS_ON, LADDER, _FLAG_NAMES, Quantale, classify,
                           lattice_order_isos, validate_quantale)
from qlab.search import (BudgetExceeded, SearchResult, SearchSpec, SearchStats,
                         _detect_unit, _fixed_verdicts, _full_table, _involution_candidates)

search_mod = importlib.import_module("qlab.search")    # qlab.search is also a function

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


# ---------------------------------------------------------------- oracle

def free_cells(lat: SupLattice, inv: np.ndarray, fix_unit) -> tuple | None:
    """(pinned table m, free cells, inv_j) of the one-leaf walk of involution inv.

    None when the walk visits nothing: a fixed irreducible unit that inv moves.
    """
    J = lat.join_irreducibles
    k = len(J)
    pos = {q: i for i, q in enumerate(J)}
    # the involution permutes the irreducibles; map cell (p,q) -> (q*,p*)
    inv_j = {i: pos[int(inv[J[i]])] for i in range(k)}
    m = np.full((k, k), -1, dtype=np.intp)

    if fix_unit is not None and fix_unit in pos:
        e = fix_unit
        if inv[e] != e:
            return None
        ei = pos[e]
        for i in range(k):
            m[ei, i] = J[i]
            m[i, ei] = J[i]

    cells = [(i, j) for i in range(k) for j in range(k) if m[i, j] < 0]
    free = []
    linked = set()
    for c in cells:
        if c in linked:
            continue
        free.append(c)
        partner = (inv_j[c[1]], inv_j[c[0]])
        if partner != c:
            linked.add(partner)
    return m, free, inv_j


def _canonical_key(Q: Quantale, autos: list[np.ndarray]) -> bytes:
    """The least image of Q's tables and unit under the order automorphisms autos.

    Two quantales on one lattice are isomorphic exactly when their keys
    are equal.
    """
    best = None
    for p in autos:
        inv_p = np.empty_like(p)
        inv_p[p] = np.arange(Q.n, dtype=np.intp)
        key = (p[Q.mul[np.ix_(inv_p, inv_p)]].tobytes()
               + p[Q.inv[inv_p]].tobytes()
               + bytes([0 if Q.unit is None else 1 + int(p[Q.unit])]))
        if best is None or key < best:
            best = key
    return best


ONE_LEAF_MAX = 1 << 14          # about a tenth of a second of the one-leaf walk


def leaves(spec_args: dict) -> int:
    """The leaves the one-leaf walk of a spec visits."""
    spec = SearchSpec(**spec_args)
    lat = spec.lattice
    walks = [free_cells(lat, inv, spec.fix_unit) for inv in
             _involution_candidates(lat, spec.fix_involution, lattice_order_isos(lat, lat))]
    return sum(lat.n ** len(walk[1]) for walk in walks if walk is not None)


def search_one_leaf_at_a_time(spec: SearchSpec, visit=None) -> SearchResult:
    """The recursive search: one free cell per level, `assoc_ok` per leaf.

    `visit`, when given, sees the irreducible table of every leaf that is
    not pruned.
    """
    lat = spec.lattice
    n = lat.n
    J = lat.join_irreducibles
    k = len(J)
    jt = lat.join_table
    stats = SearchStats()
    models: list[Quantale] = []
    keys: set[bytes] = set()
    autos = lattice_order_isos(lat, lat)

    # irr_below[a] = indices into J of the irreducibles below element a
    irr_below = [[i for i, q in enumerate(J) if lat.leq[q, a]] for a in range(n)]

    involutions = _involution_candidates(lat, spec.fix_involution, autos)
    stats.involutions = len(involutions)

    class _Stop(Exception):
        pass

    def run_involution(inv: np.ndarray) -> None:
        walk = free_cells(lat, inv, spec.fix_unit)
        if walk is None:
            return
        m, free, inv_j = walk
        stats.free_cells = max(stats.free_cells, len(free))

        def self_adjoint() -> bool:
            # a self-linked cell (i, j), J[j]* = J[i], holds (J[i]J[j])* = J[i]J[j]
            return all(inv[m[i, j]] == m[i, j] for i, j in free
                       if (inv_j[j], inv_j[i]) == (i, j))

        def monotone() -> bool:
            # m[t, s] <= m[i, j] whenever J[t] <= J[i] and J[s] <= J[j]
            return all(lat.leq[m[t, s], m[i, j]]
                       for i in range(k) for j in range(k) for t in range(k) for s in range(k)
                       if lat.leq[J[t], J[i]] and lat.leq[J[s], J[j]])

        def assoc_ok() -> bool:
            # (pq)r = p(qr) through the join-extension, irreducibles only
            for i in range(k):
                for j in range(k):
                    for l in range(k):
                        left = lat.bottom
                        for t in irr_below[m[i, j]]:
                            left = jt[left, m[t, l]]
                        right = lat.bottom
                        for t in irr_below[m[j, l]]:
                            right = jt[right, m[i, t]]
                        if left != right:
                            return False
            return True

        def leaf() -> None:
            stats.candidates += 1
            if not (self_adjoint() and monotone() and assoc_ok()):
                stats.pruned_assoc += 1
                return
            if visit is not None:
                visit(m)
            mul = _full_table(lat, m)
            unit = (spec.fix_unit if spec.fix_unit is not None
                    else int(_detect_unit(lat, mul[None])[0]))
            Q = Quantale(lat, mul, inv, None if unit < 0 else unit)
            if not validate_quantale(Q).ok:
                stats.rejected_quantale += 1
                return
            flags = classify(Q)
            for name, want in spec.require.items():
                if flags.flag(name) is not want:
                    stats.rejected_require += 1
                    return
            if spec.dedup_iso:
                key = _canonical_key(Q, autos)
                if key in keys:
                    stats.deduped += 1
                    return
                keys.add(key)
            models.append(Q)
            stats.emitted += 1
            if spec.limit is not None and stats.emitted >= spec.limit:
                stats.truncated = True
                stats.exhausted = False
                raise _Stop

        def place(c: int) -> None:
            if c == len(free):
                leaf()
                return
            i, j = free[c]
            partner = (inv_j[j], inv_j[i])
            for v in range(n):
                m[i, j] = v
                if partner != (i, j):
                    m[partner] = int(inv[v])
                place(c + 1)
            m[i, j] = -1
            if partner != (i, j):
                m[partner] = -1

        place(0)

    try:
        for inv in involutions:
            run_involution(inv)
    except _Stop:
        pass
    return SearchResult(models, stats)


# ---------------------------------------------------------------- helpers

def model_keys(models: list) -> list:
    return [(Q.mul.tobytes(), Q.inv.tobytes(), Q.unit) for Q in models]


def outcome(run, spec: SearchSpec):
    """(raised budget?, model bytes in order, stats) of one search."""
    try:
        res = run(spec)
    except BudgetExceeded as exc:
        return True, model_keys(exc.models), exc.stats
    return False, model_keys(res.models), res.stats


def assert_same(spec_args: dict, block: int, chunk: int = search_mod._LEAF_CHUNK) -> tuple:
    with mock.patch.object(laws, "_LEX_BLOCK", block), \
            mock.patch.object(search_mod, "_LEAF_CHUNK", chunk):
        fast = outcome(search_mod.search, SearchSpec(**spec_args))
    slow = outcome(search_one_leaf_at_a_time, SearchSpec(**spec_args))
    assert fast == slow
    return fast


def pentagon() -> SupLattice:
    return SupLattice.from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def m3() -> SupLattice:
    return SupLattice.from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


DIAMOND = powerset_lattice(["a", "b"])
CUBE = powerset_lattice(["a", "b", "c"])
NAMED = {"chain1": chain_lattice(1), "chain2": chain_lattice(2),
         "chain3": chain_lattice(3), "chain4": chain_lattice(4), "diamond": DIAMOND,
         "pentagon": pentagon(), "m3": m3(), "cube": CUBE}
BLOCKS = (1, 7, 1 << 14, laws._LEX_BLOCK)   # 1 << 14 cuts a cube involution in two blocks
CHUNKS = (1, search_mod._LEAF_CHUNK)


@st.composite
def lattices(draw):
    """A named small lattice, or a random one on at most 6 elements."""
    if draw(st.booleans()):
        return NAMED[draw(st.sampled_from(sorted(NAMED)))]
    inner = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    step = np.triu(rng.random((inner, inner)) < draw(st.floats(0.0, 0.8)), 1)
    leq = np.eye(inner + 2, dtype=bool)
    leq[:inner, :inner] |= step
    for _ in range(inner):                       # transitive closure
        leq[:inner, :inner] |= (leq[:inner, :inner].astype(int)
                                @ leq[:inner, :inner].astype(int)) > 0
    leq[inner, :] = True                          # a bottom
    leq[:, inner + 1] = True                      # a top
    try:
        return SupLattice(leq)
    except (NotALattice, NotAPoset):
        assume(False)


@st.composite
def specs(draw):
    lat = draw(lattices())
    args = {"lattice": lat, "cap": 8, "dedup_iso": draw(st.booleans())}
    if draw(st.booleans()):
        invs = _involution_candidates(lat, None, lattice_order_isos(lat, lat))
        args["fix_involution"] = invs[draw(st.integers(0, len(invs) - 1))]
    if draw(st.booleans()):
        args["fix_unit"] = draw(st.integers(0, lat.n - 1))
    flags = draw(st.lists(st.sampled_from(sorted(_FLAG_NAMES)), max_size=2, unique=True))
    args["require"] = {name: draw(st.booleans()) for name in flags}
    args["limit"] = draw(st.none() | st.integers(1, 4))
    assume(leaves(args) <= ONE_LEAF_MAX)
    return args


# ---------------------------------------------------------------- tests

@SETTINGS
@given(specs(), st.sampled_from(BLOCKS), st.sampled_from(CHUNKS))
def test_block_search_matches_the_one_leaf_walk(spec_args, block, chunk):
    assert_same(spec_args, block, chunk)


EXHAUSTIVE = {
    "chain1": {"lattice": NAMED["chain1"]},
    "chain2": {"lattice": NAMED["chain2"]},
    "chain3-dedup": {"lattice": NAMED["chain3"], "dedup_iso": True},
    "chain4": {"lattice": NAMED["chain4"]},
    "chain4-unital": {"lattice": NAMED["chain4"], "require": {"unital": True}},
    "diamond-unit": {"lattice": DIAMOND, "fix_unit": 1},
    "diamond-dedup-supported": {"lattice": DIAMOND, "dedup_iso": True,
                                "require": {"stably_supported": True}},
    "pentagon-unit": {"lattice": NAMED["pentagon"], "fix_unit": 1},
    "m3-unit-dedup": {"lattice": NAMED["m3"], "fix_unit": 2, "dedup_iso": True},
    "cube-unit-nonmodular": {"lattice": CUBE, "cap": 8, "fix_unit": 1,
                             "require": {"modular": False}},
}


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", sorted(EXHAUSTIVE))
def test_exhaustive_searches_match_the_one_leaf_walk(name, block):
    spec_args = EXHAUSTIVE[name]
    raised, models, stats = assert_same(spec_args, block)
    assert not raised and stats.exhausted


@pytest.mark.parametrize("dedup", (False, True), ids=("all", "dedup"))
@pytest.mark.parametrize("name", sorted(NAMED))
def test_each_table_is_emitted_once(name, dedup):
    # A leaf that is not monotone on the irreducibles can join-extend to the
    # full table of a monotone one; the walk prunes it, so no table repeats.
    res = search_mod.search(SearchSpec(NAMED[name], cap=8, dedup_iso=dedup))
    assert res.stats.emitted == len(set(model_keys(res.models)))


@pytest.mark.parametrize("block", (1, 7, 64, 256))
@pytest.mark.parametrize("limit", (1, 2, 3, 5, 8))
def test_limit_stops_inside_a_block_match_the_one_leaf_walk(block, limit):
    raised, models, stats = assert_same({"lattice": DIAMOND, "limit": limit}, block)
    assert not raised and stats.truncated and len(models) == limit


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("spec_args", [
    {"lattice": DIAMOND},                                   # a.b and b.a self-linked
    {"lattice": NAMED["m3"], "fix_unit": 1},
    {"lattice": CUBE, "cap": 8, "fix_unit": 1},
], ids=("diamond", "m3", "cube"))
def test_blocks_hold_the_leaf_tables_in_walk_order(spec_args, block):
    walked, extended = [], []
    search_one_leaf_at_a_time(SearchSpec(**spec_args),
                              visit=lambda m: walked.append(m.tobytes()))
    real = search_mod._full_table

    def spy(lat, ms):
        extended.extend(m.astype(np.intp).tobytes() for m in ms)
        return real(lat, ms)

    with mock.patch.object(laws, "_LEX_BLOCK", block), \
            mock.patch.object(search_mod, "_full_table", spy):
        search_mod.search(SearchSpec(**spec_args))
    assert walked and extended == walked


# ---------------------------------------------------------------- symmetry reduction

def full_walk(spec: SearchSpec) -> SearchResult:
    """A dedup search by canonical keys over the block search of every leaf.

    The search without dedup_iso emits every wanted leaf; the first of each
    canonical key is a model and the others are deduped.  Under a limit it
    runs with the limit, doubled until the limit-th key is among its
    models; the dedup search stops at that key's leaf, so the search
    without dedup_iso whose limit stops there gives every counter but
    `emitted` and `deduped`.
    """
    plain = dataclasses.replace(spec, dedup_iso=False)
    autos = lattice_order_isos(spec.lattice, spec.lattice)
    while True:
        every = search_mod.search(plain)
        keys: set[bytes] = set()
        firsts = []                             # the wanted leaf of each first key
        for t, Q in enumerate(every.models):
            key = _canonical_key(Q, autos)
            if key not in keys:
                keys.add(key)
                firsts.append(t)
        if not every.stats.truncated or len(firsts) >= spec.limit:
            break
        plain = dataclasses.replace(plain, limit=2 * plain.limit)
    stats, wanted = every.stats, len(every.models)
    if spec.limit is not None and len(firsts) >= spec.limit:
        firsts = firsts[:spec.limit]
        wanted = firsts[-1] + 1
        stats = search_mod.search(dataclasses.replace(plain, limit=wanted)).stats
    stats.emitted, stats.deduped = len(firsts), wanted - len(firsts)
    return SearchResult([every.models[t] for t in firsts], stats)


def against_the_walk_of_every_leaf(spec_args: dict) -> tuple:
    """The reduced search's outcome, required equal to the one-leaf or the full walk."""
    reduced = outcome(search_mod.search, SearchSpec(**spec_args))
    oracle = (search_one_leaf_at_a_time if reduced[2].candidates <= ONE_LEAF_MAX
              else full_walk)
    assert reduced == outcome(oracle, SearchSpec(**spec_args))
    return reduced


SYMMETRIC = {   # every lattice with at most 5 elements, and three with 6 or 8
    **{name: NAMED[name] for name in ("chain1", "chain2", "chain3", "chain4", "diamond",
                                      "pentagon", "m3")},
    "chain5": chain_lattice(5),
    "chain_diamond": SupLattice.from_covers(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]),
    "diamond_chain": SupLattice.from_covers(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
    "cube": CUBE,
    "m4": SupLattice.from_covers(6, [(0, a) for a in range(1, 5)] + [(a, 5) for a in range(1, 5)]),
    "grid23": SupLattice.from_covers(6, [(0, 1), (1, 2), (0, 3), (1, 4), (3, 4), (2, 5), (4, 5)]),
}
REQUIRES = {"any": {}, "supported_nonmodular": {"stably_supported": True, "modular": False},
            "gelfand": {"gelfand": True}}


def symmetry_cases() -> list:
    """(lattice name, unit, require name): no unit, the top and the first atom as unit.

    Chain 5 without a unit runs `supported_nonmodular` only: its other two
    searches re-check about 16,000 accepted leaves each, five seconds, and
    its only symmetry is the identity.
    """
    cases = []
    for name, lat in SYMMETRIC.items():
        atoms = [a for a in range(lat.n) if lat.leq[:, a].sum() == 2]   # only 0 below
        for unit in (None, lat.top, *atoms[:1]):
            for req in REQUIRES:
                if name != "chain5" or unit is not None or req == "supported_nonmodular":
                    cases.append((name, unit, req))
    return cases


SYMMETRY_CASES = symmetry_cases()


@pytest.mark.parametrize("name, unit, req", SYMMETRY_CASES,
                         ids=[f"{n}-{u}-{r}" for n, u, r in SYMMETRY_CASES])
def test_symmetry_reduced_search_matches_the_walk_of_every_leaf(name, unit, req):
    against_the_walk_of_every_leaf({"lattice": SYMMETRIC[name], "cap": 8, "dedup_iso": True,
                                    "fix_unit": unit, "require": REQUIRES[req]})


@pytest.mark.parametrize("name", ("m3", "cube", "m4"))
def test_stops_of_a_dedup_search_match_the_walk_of_every_leaf(name):
    # A limit stop walks every leaf of the involution it stops in.  A limit
    # never reached walks every leaf of every involution, the conjugate ones
    # as copies, and ends as the search without a limit does, which the
    # test above compares with the walk of every leaf.
    spec_args = {"lattice": SYMMETRIC[name], "cap": 8, "dedup_iso": True}
    for limit in (1, 12):
        raised, models, stats = against_the_walk_of_every_leaf({**spec_args, "limit": limit})
        assert stats.truncated and len(models) == limit
    never = outcome(search_mod.search, SearchSpec(**spec_args, limit=10 ** 9))
    assert never == outcome(search_mod.search, SearchSpec(**spec_args))
    assert not never[2].truncated and never[2].exhausted


def test_a_symmetry_group_that_fails_its_premises_is_a_failed_theorem_check():
    lat = SYMMETRIC["m3"]
    ar, swap, cycle = np.arange(5), np.array([0, 2, 1, 3, 4]), np.array([0, 2, 3, 1, 4])
    autos = lattice_order_isos(lat, lat)
    assert len(autos) == 6
    assert len(search_mod._symmetries(lat, autos, swap, None)) == 2       # id and the swap
    assert len(search_mod._symmetries(lat, autos, ar, 1)) == 2            # fixing atom 1
    not_monotone = np.array([1, 0, 2, 3, 4])                              # swaps 0 and an atom
    for bad in ([ar, not_monotone], [ar, cycle]):                        # the cycle's square is missing
        with pytest.raises(TheoremViolation) as ei:
            search_mod._symmetries(lat, bad, ar, None)
        assert ei.value.law == "symmetry_group" and ei.value.witness == tuple(bad[1].tolist())
    # the search re-checks the group of every walk
    with mock.patch.object(search_mod, "lattice_order_isos", lambda src, dst: [ar, cycle]), \
            pytest.raises(TheoremViolation):
        search_mod.search(SearchSpec(lat, dedup_iso=True))


# ---------------------------------------------------------------- budget

def blocks_tested(spec_args: dict) -> tuple:
    """(outcome of the search without a budget, the tables of each block it tested)."""
    sizes = []
    real = search_mod.lex_blocks

    def counting(values, consistent):
        def spy(c, P, v):
            sizes.append(len(P) * len(v))
            return consistent(c, P, v)
        return real(values, spy)

    with mock.patch.object(search_mod, "lex_blocks", counting):
        whole = outcome(search_mod.search, SearchSpec(**spec_args))
    return whole, sizes


# (spec, patched block size).  The diamond's second involution, the atom
# swap, is walked after the first one's 64 leaves, and its cells a.b and
# b.a are self-linked; at block 100 the cube's last level tests 12
# prefixes per block.
BUDGETED = [
    ({"lattice": DIAMOND}, 7),
    ({"lattice": DIAMOND}, 64),
    ({"lattice": DIAMOND, "fix_involution": np.array([0, 2, 1, 3])}, laws._LEX_BLOCK),
    ({"lattice": CUBE, "cap": 8, "fix_involution": np.arange(8)}, 100),
    ({"lattice": CUBE, "cap": 8, "fix_unit": 1}, laws._LEX_BLOCK),
    ({"lattice": SYMMETRIC["m3"], "dedup_iso": True}, laws._LEX_BLOCK),
    ({"lattice": CUBE, "cap": 8, "dedup_iso": True,
      "require": {"stably_supported": True, "modular": False}}, laws._LEX_BLOCK),
    ({"lattice": SYMMETRIC["m4"], "dedup_iso": True}, laws._LEX_BLOCK),
]


@pytest.mark.parametrize("spec_args, block", BUDGETED,
                         ids=("diamond-7", "diamond-64", "diamond-swap", "cube-100",
                              "cube-unit", "m3-dedup", "cube-dedup", "m4-dedup"))
def test_budget_counts_the_tables_the_walk_tests(spec_args, block):
    # A search stops before the first block that would take its tested
    # count past the budget; with budget T, the count of the whole search,
    # nothing changes.  The budgets are T, T - 1 and both sides of the
    # edges after blocks 1, 2, 4, ..., 32, where a stop is cheap.
    with mock.patch.object(laws, "_LEX_BLOCK", block):
        whole, sizes = blocks_tested(spec_args)
        edges = np.cumsum([0] + sizes)          # tables tested before each block, then T
        T = int(edges[-1])
        picks = [int(edges[2 ** i]) for i in range(min(6, len(edges).bit_length() - 1))] + [T]
        assert not whole[0] and T > 0
        for budget in sorted({b for e in picks for b in (e - 1, e) if b >= 0}):
            try:
                res = search_mod.search(SearchSpec(**spec_args, budget=budget))
            except BudgetExceeded as exc:
                assert budget < T and not exc.stats.exhausted
                assert exc.tested == edges[edges <= budget].max()
                models = model_keys(exc.models)
                assert models == whole[1][:len(models)]
            else:
                assert budget >= T
                assert (False, model_keys(res.models), res.stats) == whole


def test_budget_on_a_search_wider_than_int64():
    # 28 free cells over 8 values: 8**28 = 2**84 leaves.  The first level
    # tests 8 tables and the second at least 8 more.
    spec = SearchSpec(chain_lattice(8), cap=8, budget=10)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as ei:
            search_mod.search(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ei.value.stats.free_cells == 28
    assert ei.value.tested == 8 and not ei.value.stats.exhausted
    assert str(ei.value) == "search budget exhausted after 8 tested tables"
    assert peak < 16 * 2 ** 20          # the budget keeps a few prefixes per level


# ---------------------------------------------------------------- leaf kernel

def leaf_verdicts_by_definition(lat: SupLattice, muls: np.ndarray, inv: np.ndarray,
                                units: np.ndarray, fixed: tuple[bool, bool]) -> tuple:
    """The earlier search._leaf_verdicts, which decides every law on every cell.

    muls[t] is a multiplication table with unit units[t] (-1 for none), and
    fixed is _fixed_verdicts(lat, inv).  Returns (valid, flags) with
    flags[name][t] true when the flag holds.  Every law of validate_quantale
    is decided on every table, the rungs of classify only on the valid
    tables and the unit rungs only on the valid unital ones: every flag of
    an invalid table, and a unit rung without a unit, is false.  Each law
    and rung is decided on every cell from its definition, with no
    generator reductions and no witnesses, and each flag then builds on its
    rungs through BUILDS_ON.  On every valid table the implications of
    LADDER and the support cross-checks are re-checked; a failure raises
    TheoremViolation with the table's index in the stack.
    """
    M, A, n = muls, len(muls), lat.n
    leq, jt, mt = lat.leq, lat.join_table.astype(M.dtype), lat.meet_table.astype(M.dtype)
    ar = np.arange(n)
    bot, top = lat.bottom, lat.top
    involution, frame = fixed

    def each(ok):                       # [t, ...] -> the law holds on every cell of t
        return ok.all(axis=tuple(range(1, ok.ndim)))

    def stack(size):                    # the stack index, broadcast along 0 to 3 cell axes
        t = np.arange(size)
        return t, t[:, None], t[:, None, None], t[:, None, None, None]

    has = units >= 0
    e = np.where(has, units, 0)
    t1, _, _, t4 = stack(A)
    u_rows, u_cols = M[t1, e], M[t1, :, e]
    valid = (involution
             & each(M[t4, M[..., None], ar] == M[t4, ar[:, None, None], M[:, None]])
             & each(M[:, jt] == jt[M[:, :, None], M[:, None]])
             & each(M[:, :, jt] == jt[M[..., None], M[:, :, None]])
             & (M[:, bot] == bot).all(axis=1) & (M[:, :, bot] == bot).all(axis=1)
             & each(inv[M] == M[:, inv[None, :], inv[:, None]])
             & (~has | ((u_rows == ar).all(axis=1) & (u_cols == ar).all(axis=1))))

    # the rungs without a unit, on the valid tables
    v = np.flatnonzero(valid)
    M, e, has = muls[v], e[v], has[v]
    _, t2, t3, t4 = stack(len(v))
    aa = M[t2, ar, inv]                                  # a a*
    reg = M[t2, aa, ar]                                  # a a* a
    regular = reg == ar
    proj = (inv == ar) & (M[:, ar, ar] == ar)
    local = proj[:, None, :] & leq & leq[M, ar[:, None]]     # [t, a, p]: a <= p, ap <= a
    inner = mt[ar[:, None], M[:, inv][:, :, None, :]]        # [t, a, b, c] = b AND a*c
    a1 = M[:, :, top]
    plain = {"unital": has,
             "gelfand": each(~leq[a1, ar] | regular),
             "locally_gelfand": each(~local | regular[..., None]),
             "stably_gelfand": each(~leq[reg, ar] | regular),
             "modular": each(leq[mt[M[..., None], ar], M[t4, ar[:, None, None], inner]]),
             "quantal_frame": np.full(len(v), frame)}

    # the unit rungs, on the valid unital tables
    u = np.flatnonzero(has)
    M, e, aa, a1, vu = M[u], e[u], aa[u], a1[u], v[u]
    _, t2, t3, _ = stack(len(u))
    sup = mt[a1, e[:, None]]
    supported = (each(sup[:, jt] == jt[sup[..., None], sup[:, None]])
                 & (sup[:, bot] == bot) & each(leq[sup, aa])
                 & each(leq[ar, M[t2, sup, ar]]))
    stable = each(leq[np.take_along_axis(sup, a1, axis=1), sup])
    partial = leq[jt[aa, M[t2, inv, ar]], e[:, None]]        # ss* OR s*s <= e
    bounds = ~(partial[:, :, None] & ~leq).any(axis=1)       # upper bounds of the partial units
    unit = {"supported": supported,
            "stably_supported": stable,
            "stable_quantal_frame": np.ones(len(u), bool),
            "inverse_quantal_frame": bounds.sum(axis=1) == 1}   # their join is the top

    flags = {name: np.zeros(A, bool) for name in _FLAG_NAMES}
    for rows, own in ((v, plain), (vu, unit)):
        for name, ok in own.items():
            flags[name][rows] = ok
    for name in _FLAG_NAMES:
        for rung in BUILDS_ON.get(name, ()):
            flags[name] = flags[name] & flags[rung]

    for pre, post, name in LADDER:
        bad = valid & ~flags[post]
        for p in pre:
            bad = bad & flags[p]
        TheoremViolation.check(name, first_bad(bad))
    # the cross-checks of quantale.support on supported tables: sup_times_top
    # and the b_* identities below the unit, then under stability the
    # composed, self-star, product, meet-unit and equivariance identities
    below_e = leq[ar, e[:, None]]                        # [t, b]: b <= e
    b_rows = below_e[..., None]
    sup_m = sup[t3, M]                                   # sup(ab)
    m_sup = M[t3, ar[:, None], sup[:, None, :]]          # a sup(b)
    cross = (each(M[t2, sup, top] == a1)
             & each(~(b_rows & below_e[:, None]) | (mt == M))
             & each(~below_e | ((inv == ar) & (sup == ar)))
             & (~stable
                | (each(sup_m == sup[t3, m_sup])
                   & each(sup == mt[aa, e[:, None]])
                   & each(~b_rows | ((M == mt[a1[..., None], ar])
                                     & (mt[M, e[:, None, None]] == mt)
                                     & (sup_m == m_sup))))))
    bad = np.zeros(A, bool)
    bad[vu] = supported & ~cross
    TheoremViolation.check("support_cross_checks", first_bad(bad))
    return valid, flags


def assert_same_verdicts(got: tuple, want: tuple) -> None:
    (valid, flags), (want_valid, want_flags) = got, want
    assert np.array_equal(valid, want_valid)
    assert flags.keys() == want_flags.keys()
    for name in want_flags:
        assert np.array_equal(flags[name], want_flags[name]), name


# (order, mul, inv, unit) -> (validate_quantale ok, classify flags or None),
# shared by the runs below, which meet the same leaves at every chunk size
_VERDICTS: dict = {}


def from_scratch(Q: Quantale) -> tuple:
    key = (Q.leq.tobytes(), Q.mul.tobytes(), Q.inv.tobytes(), Q.unit)
    if key not in _VERDICTS:
        ok = validate_quantale(Q).ok
        _VERDICTS[key] = (ok, classify(Q).flags() if ok else None)
    return _VERDICTS[key]


def kernel_against_scratch(spec_args: dict, chunk: int) -> tuple:
    """Run a search whose kernel verdicts are each compared with the definitional
    kernel, chunk by chunk, and with validate_quantale and classify, leaf by
    leaf; returns (leaves compared, stats)."""
    real = search_mod._leaf_verdicts
    compared = 0

    def spy(lat, muls, inv, units, fixed):
        nonlocal compared
        valid, flags = real(lat, muls, inv, units, fixed)
        assert_same_verdicts((valid, flags),
                             leaf_verdicts_by_definition(lat, muls, inv, units, fixed))
        for t, unit in enumerate(units.tolist()):
            Q = Quantale(lat, muls[t], inv, None if unit < 0 else unit)
            ok, want = from_scratch(Q)
            assert bool(valid[t]) is ok
            if ok:
                got = {name: bool(flags[name][t]) for name in _FLAG_NAMES}
                assert got == {name: bool(v) for name, v in want.items()}
        compared += len(muls)
        return valid, flags

    with mock.patch.object(search_mod, "_LEAF_CHUNK", chunk), \
            mock.patch.object(search_mod, "_leaf_verdicts", spy):
        stats = search_mod.search(SearchSpec(**spec_args)).stats
    # every monotone associative leaf went through the kernel; under
    # dedup_iso, one leaf per orbit
    if not spec_args.get("dedup_iso"):
        assert compared == stats.candidates - stats.pruned_assoc
    return compared, stats


CUBE_SEARCH = {"lattice": CUBE, "cap": 8, "dedup_iso": True,       # as the benchmark's
               "require": {"stably_supported": True, "modular": False}}
# Without dedup_iso every associative leaf of the cube search reaches the
# kernel; with it, one leaf per orbit of the symmetries of each walk.
CUBE_EVERY_LEAF = {**CUBE_SEARCH, "dedup_iso": False}
R4_SEARCH = {"lattice": DIAMOND, "fix_involution": np.arange(4), "fix_unit": 1,
             "require": {"stably_supported": True, "inverse_quantal_frame": False}}
# (name, spec, chunk).  The egger8 searches are the identity-involution part
# of the cube searches, with the same blocks.  They run at the default chunk
# only: at chunk 1 the searches of every leaf make 5,318 and 4,067 kernel
# calls, several seconds each, and chunk 1 is covered by the r4 search and
# the hypothesis test.
KERNEL_SEARCHES = [
    ("cube", CUBE_EVERY_LEAF, search_mod._LEAF_CHUNK),
    ("egger8", {**CUBE_EVERY_LEAF, "fix_involution": np.arange(8)}, search_mod._LEAF_CHUNK),
    ("cube_dedup", CUBE_SEARCH, search_mod._LEAF_CHUNK),
    ("egger8_dedup", {**CUBE_SEARCH, "fix_involution": np.arange(8)}, search_mod._LEAF_CHUNK),
    ("r4", R4_SEARCH, 1),
    ("r4", R4_SEARCH, search_mod._LEAF_CHUNK),
]


@pytest.mark.parametrize("name, spec_args, chunk", KERNEL_SEARCHES,
                         ids=[f"{name}-{chunk}" for name, _, chunk in KERNEL_SEARCHES])
def test_leaf_verdicts_match_validate_and_classify(name, spec_args, chunk):
    compared, stats = kernel_against_scratch(spec_args, chunk)
    assert (compared, stats.rejected_quantale, stats.emitted) == {
        "cube": (5318, 0, 54), "egger8": (4067, 0, 45),
        "cube_dedup": (1028, 0, 12), "egger8_dedup": (751, 0, 9),
        "r4": (4, 0, 1)}[name]


def kernel_calls(spec_args: dict) -> list:
    """(involution bytes, leaves) of each kernel call of a search."""
    real = search_mod._leaf_verdicts
    calls = []

    def spy(lat, muls, inv, units, fixed):
        calls.append((inv.tobytes(), len(muls)))
        return real(lat, muls, inv, units, fixed)

    with mock.patch.object(search_mod, "_leaf_verdicts", spy):
        search_mod.search(SearchSpec(**spec_args))
    # only the last chunk of an involution is short
    for here, after in zip(calls, calls[1:] + [(None, 0)]):
        assert here[1] == search_mod._LEAF_CHUNK or here[0] != after[0]
    return calls


def test_the_kernel_gets_full_chunks_of_each_involution():
    calls = kernel_calls(CUBE_EVERY_LEAF)
    # 4,067 + 3 * 417 associative leaves
    assert len(calls) == 22 and sum(size for _, size in calls) == 5318


def test_the_kernel_gets_one_leaf_per_orbit_under_dedup():
    # Two of the cube's four involutions are conjugate to a third and are
    # not walked; the identity's walk keeps 751 of its 4,067 associative
    # leaves and the other walk 277 of its 417.
    calls = kernel_calls(CUBE_SEARCH)
    per_involution: dict = {}
    for inv, size in calls:
        per_involution[inv] = per_involution.get(inv, 0) + size
    assert len(calls) == 5 and list(per_involution.values()) == [751, 277]


@settings(SETTINGS, max_examples=25)
@given(lattices(), st.data(), st.sampled_from(CHUNKS))
def test_leaf_verdicts_match_on_leaves_without_a_unit(lat, data, chunk):
    # no fixed unit, so most leaves have none and the unit rungs are n/a;
    # or a fixed element that is usually not a unit, so its leaves are invalid
    args = {"lattice": lat, "cap": 8}
    if data.draw(st.booleans()):
        args["fix_unit"] = data.draw(st.integers(0, lat.n - 1))
    assume(leaves(args) <= ONE_LEAF_MAX)
    kernel_against_scratch(args, chunk)


STACK_LATTICES = ("chain3", "chain4", "diamond", "cube",     # frames
                  "pentagon", "m3")                          # not frames


@functools.cache
def quantales_on(name: str) -> tuple:
    """Up to 12 quantales with a unit and 12 without one on a named lattice."""
    models = []
    for unital in (True, False):
        spec = SearchSpec(NAMED[name], cap=8, require={"unital": unital}, limit=12)
        models += search_mod.search(spec).models
    return tuple(models)


@SETTINGS
@given(st.sampled_from(STACK_LATTICES), st.data())
def test_leaf_verdicts_match_the_definition_on_tables_that_are_not_join_extensions(name, data):
    # A stack over one involution: a quantale, copies of it with a few cells
    # changed (on a frame these usually fail a join law, and a change off
    # the irreducible products keeps associativity on irreducible triples),
    # and random tables, some with a unit planted.  The units are detected,
    # or the quantale's unit (or some element) is fixed for the whole stack.
    lat, n = NAMED[name], NAMED[name].n
    base = data.draw(st.sampled_from(quantales_on(name)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    unit = base.unit if base.unit is not None else int(rng.integers(n))
    muls = np.empty((data.draw(st.integers(1, 16)), n, n), dtype=np.uint8)
    for t, kind in enumerate(rng.integers(0, 4, len(muls))):
        if kind < 2:
            muls[t] = base.mul
            for x, y in rng.integers(0, n, (kind * int(rng.integers(1, 4)), 2)):
                muls[t, x, y] = rng.integers(n)
        else:
            muls[t] = rng.integers(0, n, (n, n))
            if kind == 3:
                muls[t, unit], muls[t, :, unit] = np.arange(n), np.arange(n)
    units = (_detect_unit(lat, muls) if data.draw(st.booleans())
             else np.full(len(muls), unit if data.draw(st.booleans()) else -1))
    fixed = _fixed_verdicts(lat, base.inv)
    valid, flags = search_mod._leaf_verdicts(lat, muls, base.inv, units, fixed)
    assert_same_verdicts((valid, flags),
                         leaf_verdicts_by_definition(lat, muls, base.inv, units, fixed))
    for t, u in enumerate(units.tolist()):
        ok, want = from_scratch(Quantale(lat, muls[t], base.inv, None if u < 0 else u))
        assert bool(valid[t]) is ok
        if ok:
            assert {name: bool(flags[name][t]) for name in _FLAG_NAMES} == {
                name: bool(v) for name, v in want.items()}


def test_a_kernel_verdict_that_disagrees_with_classify_is_a_failed_theorem_check(
        tmp_path, capsys):
    # flip `gelfand`, which the search does not require, on every valid leaf
    real = search_mod._leaf_verdicts

    def flipped(lat, muls, inv, units, fixed):
        valid, flags = real(lat, muls, inv, units, fixed)
        flags["gelfand"] = flags["gelfand"] ^ valid
        return valid, flags

    lat = tmp_path / "diamond.json"
    lat.write_text(objio.dump_object(DIAMOND))
    argv = ["search", "--lattice", str(lat), "--trivial-involution", "--fix-unit", "1",
            "--require", "stably_supported,!inverse_quantal_frame",
            "--out", str(tmp_path / "models")]
    assert cli.main(argv) == 0 and os.listdir(tmp_path / "models")
    capsys.readouterr()
    with mock.patch.object(search_mod, "_leaf_verdicts", flipped):
        with pytest.raises(TheoremViolation) as ei:
            search_mod.search(SearchSpec(**R4_SEARCH))
        assert ei.value.law == "leaf_verdicts" and ei.value.witness == {"gelfand": True}
        for flags in ([], ["--json"]):
            out_dir = tmp_path / f"flipped{len(flags)}"
            code = cli.main(argv[:-1] + [str(out_dir)] + flags)
            out, err = capsys.readouterr()
            assert (code, out) == (3, "") and not out_dir.exists()
            assert err == ("error: theorem check leaf_verdicts fails at "
                           "{'gelfand': True}\n")
