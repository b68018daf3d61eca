"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracer import summarise  # noqa: E402


def qlab_json(args: list) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, "-m", "qlab.cli", *args, "--json"],
                          capture_output=True, cwd=run.ROOT, env=run.child_env())
    return proc.returncode, json.loads(proc.stdout)


# ---------------------------------------------------------------- generator

def test_generator_is_deterministic_per_seed(tmp_path):
    a, facts_a = gen.write_inputs(5, str(tmp_path / "a"))
    b, facts_b = gen.write_inputs(5, str(tmp_path / "b"))
    c, _ = gen.write_inputs(6, str(tmp_path / "c"))
    assert a == b and facts_a == facts_b
    for name in a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert a["relq3_relabelled.json"] != c["relq3_relabelled.json"]
    assert a["cube.json"] != c["cube.json"]


def test_relabelled_relq3_is_isomorphic_to_the_plain_one():
    docs, _ = gen.build_inputs(3)
    rel = gen.relq_tables(3)
    plain = {"leq": checks._closure(512, gen.powerset_covers(9)), "mul": rel["mul"],
             "inv": rel["inv"], "unit": rel["unit"]}
    moved = checks.tables_of(docs["relq3_relabelled.json"]["payload"])
    # the identity map fails, but the seed's permutation is an isomorphism
    assert not np.array_equal(plain["mul"], moved["mul"])
    perm = np.array(gen.permutation(gen.random.Random(3), 512))
    assert np.array_equal(moved["mul"][np.ix_(perm, perm)], perm[plain["mul"]])
    assert np.array_equal(moved["leq"][np.ix_(perm, perm)], plain["leq"])


def test_generated_qsets_are_qsets():
    docs, _ = gen.build_inputs(9)
    for name, n in (("qset_relq2.json", 2), ("qset_relq3.json", 3)):
        A = np.array(docs[name]["payload"]["matrix"])
        assert gen.RelationMatrices(n).is_qset(A)


def test_search_and_sheaf_counts_do_not_depend_on_the_seed(tmp_path):
    seen = []
    for seed in (1, 2):
        d = os.path.relpath(tmp_path / str(seed), run.ROOT)
        _, facts = gen.write_inputs(seed, os.path.join(run.ROOT, d))
        counts = []
        for cmd in (run.command_group("search", d, facts)
                    + run.command_group("sheaf", d, facts)[1:]):
            code, rep = qlab_json(cmd.args)
            assert cmd.check(code, rep, {}) == [], cmd.name
            counts.append(rep.get("stats") or rep.get("pairs"))
        seen.append(counts)
    assert seen[0] == seen[1]


# -------------------------------------------------------------- known answers

def ladder_report(**flags):
    base = {f: True for f in checks.LADDER_FLAGS}
    base.update(flags)
    return {"command": "classify", "n": 512, "flags": base, "witnesses": {}}


def test_checker_rejects_a_flipped_flag():
    assert checks.whole_ladder(0, ladder_report(), {}) == []
    assert checks.whole_ladder(0, ladder_report(modular=False), {})
    assert checks.whole_ladder(1, ladder_report(), {})


def test_checker_rejects_a_wrong_witness():
    rep = {"flags": {"stably_supported": True, "modular": False},
           "witnesses": {"modular": ["b", "c", "a"]}}
    assert checks.egger8_verdict(1, rep, {}) == []
    doctored = copy.deepcopy(rep)
    doctored["witnesses"]["modular"] = ["c", "b", "a"]
    assert checks.egger8_verdict(1, doctored, {})


def test_checker_rejects_a_wrong_pair_count():
    pairs = [{"source": s, "target": t, "equivariant": n, "sheaf_homs": n, "match": True}
             for (s, t), n in checks.Z3_PAIR_COUNTS.items()]
    rep = {"pairs": pairs, "ok": True}
    assert checks.z3_counts(0, rep, {}) == []
    doctored = copy.deepcopy(rep)
    doctored["pairs"][0]["equivariant"] = doctored["pairs"][0]["sheaf_homs"] = 728
    assert checks.z3_counts(0, doctored, {})


def test_checker_ties_sections_to_the_completion():
    check = checks.sections_bridge("complete x")
    seen = {"complete x": {"singletons": 3, "complete": False}}
    assert check(0, {"sections": [1, 2, 3], "enough": True}, seen) == []
    assert check(0, {"sections": [1, 2], "enough": True}, seen)
    assert check(0, {"sections": [1, 2, 3], "enough": False}, seen)


def quantale_payload(t: dict, perm) -> dict:
    covers = [[i, j] for i in range(len(perm)) for j in range(len(perm))
              if i != j and t["leq"][i, j]]
    return gen.relabel_quantale(gen.relabel_lattice(covers, [str(i) for i in perm], perm),
                                t["mul"], t["inv"], t["unit"], perm, None)


def test_isomorphism_checker():
    e8 = gen.egger8_tables()
    moved = checks.tables_of(quantale_payload(e8, [3, 0, 7, 5, 1, 2, 6, 4]))
    assert checks.isomorphic(e8, moved)
    broken = copy.deepcopy(moved)
    broken["mul"][broken["unit"], :] = broken["mul"][:, broken["unit"]][::-1]
    assert not checks.isomorphic(e8, broken)
    assert not checks.isomorphic(e8, gen.r4_tables())


def test_checker_rejects_a_doctored_cube_search():
    e8 = quantale_payload(gen.egger8_tables(), list(range(8)))
    other = copy.deepcopy(e8)
    other["unit"] = 2
    rep = {"stats": {"involutions": 4, "candidates": 4 * 8 ** 6, "emitted": 12},
           "models": [e8] + [other] * 11}
    assert checks.cube_search(0, rep, {}) == []
    doctored = copy.deepcopy(rep)
    doctored["stats"]["candidates"] -= 1
    assert checks.cube_search(0, doctored, {})
    doctored = copy.deepcopy(rep)
    doctored["models"][0] = other
    assert checks.cube_search(0, doctored, {})


# ------------------------------------------------------------------ figures

def test_round_figures_sum_per_command_medians():
    def row(cmd, metric, wall, rss=50.0, traced=False):
        return {"command": cmd, "metric": metric, "traced": traced, "wall_s": wall,
                "rss_mb": rss, "cpu_s": wall}
    rows = [row("a", "x_s", 1.0), row("b", "y_s", 10.0, rss=80.0), row("c", "x_s", 2.0),
            row("a", "x_s", 3.0), row("b", "y_s", 99.0, traced=True), row("a", "x_s", 2.0)]
    m = run.end_to_end(rows, [0.5, 0.7, 0.6])
    # a: median of 1, 3, 2; b and c ran once; the traced run of b is left out
    assert m["wall_s"] == (2.0 + 10.0 + 2.0, 5)
    assert m["x_s"] == (4.0, 4) and m["y_s"] == (10.0, 1)
    assert m["setup_s"] == (0.6, 3)
    assert m["peak_rss_mb"] == (80.0, 5)


# ------------------------------------------------------------------- tracer

def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["main", 0, 100_000_000_000, -1, None],            # 100 s
        ["a", 10_000_000_000, 40_000_000_000, 0, None],    # 30 s
        ["b", 15_000_000_000, 25_000_000_000, 1, {"found": 2}],
        ["a", 50_000_000_000, 90_000_000_000, 0, None],    # 40 s
        ["a", 60_000_000_000, 70_000_000_000, 3, None],    # recursive, 10 s
        ["b", 75_000_000_000, 80_000_000_000, 3, {"found": 3}],
    ]
    s = summarise(spans)
    assert s["main"] == {"calls": 1, "s": 100.0, "self_s": 30.0}
    assert s["a"]["calls"] == 3
    assert s["a"]["s"] == pytest.approx(70.0)          # outermost spans only
    assert s["a"]["self_s"] == pytest.approx(20.0 + 25.0 + 10.0)
    assert s["b"] == {"calls": 2, "s": 15.0, "self_s": 15.0, "found": 5}
    total_self = sum(row["self_s"] for row in s.values())
    assert total_self == pytest.approx(100.0)


def test_tracer_wraps_from_imported_bindings(tmp_path):
    docs, facts = gen.build_inputs(1)
    lat = tmp_path / "diamond.json"
    lat.write_text(gen.dumps(docs["diamond.json"]))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "tracer.py"), str(spans), "--",
         "search", "--lattice", str(lat), "--trivial-involution",
         "--fix-unit", str(facts["diamond_unit"]), "--json"],
        capture_output=True, cwd=run.ROOT, env=run.child_env())
    assert proc.returncode == 0
    rows = summarise(json.loads(spans.read_text())["spans"])
    # search.py calls these through its own `from .quantale import ...` names
    assert rows["quantale.classify"]["calls"] > 0
    assert rows["quantale.validate_quantale"]["calls"] > 0
    assert rows["search.search"]["calls"] == 1
    assert rows["cli.main"]["calls"] == 1
