import argparse
import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qlab
from qlab import cli, groupoid, hilbert, objio
from qlab.catalog import catalog_entries, catalog_get, egger8, quantale_r4, relq
from qlab.cli import build_parser, main
from qlab.hilbert import module_over_self
from qlab.lattice import chain_lattice
from qlab.laws import TheoremViolation
from qlab.qmatrix import QSet
from qlab.quantale import Quantale


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(objio.dump_object(obj))
    return str(p)


def test_classify_exit_codes(capsys):
    code, out, _ = run(capsys, "classify", "catalog:relq2")
    assert code == 0
    assert "inverse_quantal_frame: true" in out
    code, out, _ = run(capsys, "classify", "catalog:egger8")
    assert code == 1
    assert "modular: false" in out
    assert "witness" in out


def test_classify_json_is_canonical(capsys):
    code, out, _ = run(capsys, "classify", "--json", "catalog:egger8")
    assert code == 1
    doc = json.loads(out)
    assert doc["flags"]["stably_supported"] is True
    assert doc["flags"]["modular"] is False
    assert doc["witnesses"]["modular"] == ["b", "c", "a"]
    assert out == objio.canonical_dumps(doc)


def test_classify_accepts_groupoids(capsys):
    code, out, _ = run(capsys, "classify", "catalog:pair2")
    assert code == 0


def test_check_valid_and_invalid(tmp_path, capsys):
    good = write(tmp_path, "good.json", relq(2))
    code, out, _ = run(capsys, "check", good, "catalog:egger8")
    assert code == 0
    assert "quantale ok" in out

    X = QSet(relq(2), [[0, 9], [9, 0]])  # symmetric but not idempotent
    bad = write(tmp_path, "bad.json", X)
    code, out, _ = run(capsys, "check", bad)
    assert code == 1
    assert "invalid" in out and "idempotent" in out


def test_check_reports_strictness(tmp_path, capsys):
    pt = write(tmp_path, "pt.json", QSet(relq(2), [[relq(2).unit]]))
    code, out, _ = run(capsys, "check", pt)
    assert code == 0
    assert "strict: true" in out


def test_check_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "malformed JSON" in err


def test_complete_roundtrip(tmp_path, capsys):
    pt = write(tmp_path, "pt.json", QSet(relq(2), [[relq(2).unit]]))
    out_path = str(tmp_path / "completed.json")
    code, out, _ = run(capsys, "complete", pt, "--out", out_path)
    assert code == 1  # a one-point q-set over relq2 is not complete
    assert "singletons: 9" in out
    code, out, _ = run(capsys, "complete", out_path)
    assert code == 0
    assert "complete: true" in out


def test_sections_of_a_module_file(tmp_path, capsys):
    mod = write(tmp_path, "m.json", module_over_self(relq(2)))
    code, out, _ = run(capsys, "sections", mod)
    assert code == 0
    assert "hilbert sections: 9" in out
    code, out, _ = run(capsys, "sections", "--json", mod)
    doc = json.loads(out)
    assert doc["sections"] == [0, 1, 2, 4, 5, 6, 8, 9, 10]
    assert doc["enough"] is True


def test_sections_accepts_actions_and_qsets(tmp_path, capsys):
    code, out, _ = run(capsys, "sections", "catalog:z2_regular")
    assert code == 0
    pt = write(tmp_path, "pt.json", QSet(relq(2), [[relq(2).unit]]))
    code, out, _ = run(capsys, "sections", pt)
    assert code == 0
    assert "hilbert sections: 9" in out


def test_basis_check_with_explicit_sigma(capsys):
    code, out, _ = run(capsys, "basis-check", "catalog:z2_regular")
    assert code == 0
    assert "basis: true" in out and "parseval: ok" in out
    code, out, _ = run(capsys, "basis-check", "catalog:z2_regular",
                       "--sigma", "0")
    assert code == 1
    assert "basis: false" in out and "parseval: fails" in out
    code, _, err = run(capsys, "basis-check", "catalog:z2_regular",
                       "--sigma", "0,zzz")
    assert code == 2
    code, _, err = run(capsys, "basis-check", "catalog:z2_regular",
                       "--sigma", "99")
    assert code == 2


def test_sheafify_action_and_failing_module(tmp_path, capsys):
    out_path = str(tmp_path / "secs.json")
    code, out, _ = run(capsys, "sheafify", "catalog:z2_regular",
                       "--out", out_path)
    assert code == 0
    assert "isomorphic: true" in out
    code, out, _ = run(capsys, "check", out_path)
    assert code == 0

    r4mod = write(tmp_path, "r4.json", module_over_self(quantale_r4()))
    code, out, _ = run(capsys, "sheafify", r4mod)
    assert code == 1
    assert "bijective=false" in out and "isomorphic: false" in out


def test_sheafify_not_etale(tmp_path, capsys):
    mod = write(tmp_path, "e8.json", module_over_self(egger8()))
    code, out, _ = run(capsys, "sheafify", mod)
    assert code == 1
    assert "not etale" in out


def test_verify_equivalence(capsys):
    code, out, _ = run(capsys, "verify-equivalence", "catalog:z2",
                       "catalog:z2_regular", "catalog:z2_objects")
    assert code == 0
    assert "equivariant 2, sheaf homs 2: match" in out
    assert "equivalent counts on all pairs: true" in out


def test_verify_equivalence_rejects_foreign_actions(capsys):
    code, _, err = run(capsys, "verify-equivalence", "catalog:z3",
                       "catalog:z2_regular")
    assert code == 2
    assert "different groupoid" in err


def test_search_writes_models(tmp_path, capsys):
    lat = write(tmp_path, "diamond.json", quantale_r4().lattice)
    out_dir = str(tmp_path / "models")
    code, out, _ = run(capsys, "search", "--lattice", lat,
                       "--trivial-involution", "--fix-unit", "1",
                       "--require", "stably_supported,!inverse_quantal_frame",
                       "--out", out_dir)
    assert code == 0
    assert "emitted: 1" in out
    code, out, _ = run(capsys, "check", str(tmp_path / "models" / "model-000.json"))
    assert code == 0
    code, out, _ = run(capsys, "classify", str(tmp_path / "models" / "model-000.json"))
    assert "inverse_quantal_frame: false" in out


def test_search_on_a_one_element_lattice(tmp_path, capsys):
    lat = write(tmp_path, "point.json", chain_lattice(1))
    code, out, _ = run(capsys, "search", "--lattice", lat)
    assert code == 0
    assert "candidates: 1, emitted: 1" in out


def test_search_impossible_requirement(tmp_path, capsys):
    lat = write(tmp_path, "d.json", quantale_r4().lattice)
    code, out, _ = run(capsys, "search", "--lattice", lat,
                       "--trivial-involution", "--fix-unit", "1",
                       "--require", "modular,!stably_supported")
    assert code == 1
    assert "emitted: 0" in out


def test_search_budget_exhaustion(tmp_path, capsys):
    lat = write(tmp_path, "d.json", quantale_r4().lattice)
    code, _, err = run(capsys, "search", "--lattice", lat,
                       "--trivial-involution", "--fix-unit", "1",
                       "--budget", "2")
    assert code == 2
    assert err == "budget exceeded after 0 tested tables (0 models found so far)\n"


@pytest.mark.parametrize("option, value", [
    ("--budget", "inf"), ("--budget", "1e400"), ("--budget", "-5"), ("--budget", "nan"),
    ("--cap", "inf"), ("--cap", "1e400"), ("--cap", "-5"),
])
def test_search_rejects_bad_budget_and_cap(tmp_path, capsys, option, value):
    lat = write(tmp_path, "d.json", quantale_r4().lattice)
    code, out, err = run(capsys, "search", "--lattice", lat, "--trivial-involution",
                         "--fix-unit", "1", f"{option}={value}")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {option} ")


@pytest.mark.parametrize("argv, flag", [
    (["complete", "QSET"], "--cap"),
    (["sections", "catalog:z2_regular"], "--cap"),
    (["basis-check", "catalog:z2_regular"], "--cap"),
    (["sheafify", "catalog:z2_regular"], "--cap"),
    (["verify-equivalence", "catalog:z2", "catalog:z2_regular"], "--all-hom-cap")])
def test_only_the_search_takes_a_cap_option(tmp_path, capsys, argv, flag):
    # the carrier closure and the all-homs enumeration are limited by
    # hilbert.CARRIER_CAP and groupoid.ALL_HOM_CAP alone
    pt = write(tmp_path, "pt.json", QSet(relq(2), [[relq(2).unit]]))
    with pytest.raises(SystemExit) as exc:
        main([pt if a == "QSET" else a for a in argv] + [flag, "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


MALFORMED = {   # name -> (object to dump, in-place edit of its payload)
    "compose-entry-of-length-2": ("z2", lambda p: p["compose"][0].pop()),
    "units-as-a-list": ("z2", lambda p: p.update(units=list(p["units"].values()))),
    "objects-as-a-number": ("z2", lambda p: p.update(objects=5)),
    "act-entry-of-length-2": ("z2_regular", lambda p: p["act"][0].pop()),
    "p-as-a-list": ("z2_regular", lambda p: p.update(p=list(p["p"].values()))),
    # a total map (units, p) names every key, a partial one (compose, act) no key twice
    "p-without-a-point": ("z2_regular", lambda p: p["p"].pop(next(iter(p["p"])))),
    "units-without-an-object": ("pair2", lambda p: p["units"].pop(next(iter(p["units"])))),
    "compose-pair-listed-twice": ("z2", lambda p: p["compose"].append(list(p["compose"][0]))),
    "act-pair-listed-twice": ("z2_regular", lambda p: p["act"].append(list(p["act"][0]))),
    "covers-as-a-number": ("lattice", lambda p: p.update(covers=5)),
    "cover-out-of-range": ("lattice", lambda p: p["covers"].append([0, 5])),
    # an order table of 9e18 bytes: no address space holds it, so its
    # allocation fails at once
    "n-past-memory": ("lattice", lambda p: p.update(n=3 * 10 ** 9)),
    "unit-as-a-string": ("r4", lambda p: p.update(unit="x")),
    "unit-as-a-list": ("r4", lambda p: p.update(unit=[1])),
    "index-as-a-number": ("qset", lambda p: p.update(index=5)),
    # range and shape checks of the constructors, reported like every other
    "mul-of-the-wrong-shape": ("r4", lambda p: p["mul"].pop()),
    "inv-out-of-range": ("r4", lambda p: p["inv"].__setitem__(0, 9)),
    "unit-out-of-range": ("r4", lambda p: p.update(unit=9)),
    "inline-mul-of-the-wrong-shape": ("module", lambda p: p["quantale"]["mul"].pop()),
    "qset-entry-out-of-range": ("qset", lambda p: p["matrix"][0].__setitem__(0, 99)),
    "action-of-the-wrong-shape": ("module", lambda p: p["action"].pop()),
    "ip-out-of-range": ("module", lambda p: p["ip"][0].__setitem__(0, 99)),
    # a table entry past intp, and a file that is not UTF-8: a label whose
    # lone surrogate is written as the byte 0xff
    "mul-cell-past-intp": ("r4", lambda p: p["mul"][0].__setitem__(0, 10 ** 30)),
    "not-utf-8": ("lattice", lambda p: p["labels"].__setitem__(0, "\udcff")),
    # numbers that are not integers, which int() and numpy would truncate
    "unit-a-float": ("r4", lambda p: p.update(unit=1.5)),
    "unit-a-bool": ("r4", lambda p: p.update(unit=True)),
    "n-a-float": ("lattice", lambda p: p.update(n=4.0)),
    "mul-cell-a-float": ("r4", lambda p: p["mul"][1].__setitem__(1, 1.5)),
    "inv-of-bools": ("r4", lambda p: p.update(inv=[False, True, True, True])),
    # the file is 100,000 [ instead, which json nests one call deep each
    "nested-too-deeply": ("lattice", lambda p: None),
    # each label list names a label once; a key named twice in the file text
    # (written below) is not overwritten by its last value
    "lattice-label-twice": ("lattice", lambda p: p["labels"].__setitem__(1, p["labels"][0])),
    "qset-index-label-twice": ("qset", lambda p: p.update(index=["a", "a"],
                                                          matrix=[[9, 2], [8, 9]])),
    "p-key-named-twice": ("z3_regular", lambda p: None),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_payloads_exit_2(tmp_path, capsys, name):
    base, edit = MALFORMED[name]
    obj = {"lattice": quantale_r4().lattice,
           "qset": QSet(relq(2), [[relq(2).unit]]),
           "module": module_over_self(quantale_r4())}.get(base) \
        or objio.resolve(f"catalog:{base}")[1]
    doc = json.loads(objio.dump_object(obj))
    edit(doc["payload"])
    text = json.dumps(doc, ensure_ascii=False)
    if name == "p-key-named-twice":     # before the real entry, which a last-wins reader keeps
        text = text.replace('"p": {', '"p": {"e": "nowhere", ', 1)
    p = tmp_path / "bad.json"
    p.write_bytes(b"[" * 100_000 if name == "nested-too-deeply" else
                  text.encode("utf-8", "surrogateescape"))
    code, out, err = run(capsys, "check", str(p))
    assert (code, out) == (2, "")
    start = {"not-utf-8": f"error: {p}: not UTF-8 text at byte ",
             "nested-too-deeply": f"error: {p}: JSON nested too deeply",
             "lattice-label-twice": "error: malformed lattice payload: duplicate element label '0'",
             "qset-index-label-twice": "error: malformed qset payload: duplicate index label 'a'",
             "p-key-named-twice": f"error: {p}: malformed JSON: key 'e' is named twice in one "
                                  "object"}.get(name, f"error: malformed {doc['kind']} payload: ")
    assert err.startswith(start) and err.count("\n") == 1


GROUPOIDS_AND_ACTIONS = sorted(name for name, (kind, _) in catalog_entries().items()
                               if kind in ("groupoid", "action"))


@pytest.mark.parametrize("name", GROUPOIDS_AND_ACTIONS)
def test_a_key_left_out_of_units_or_p_exits_2(tmp_path, capsys, name):
    # every key of every total map of the catalog's groupoid and action files, in turn
    doc = json.loads(objio.dump_object(catalog_get(name)[1]))
    payload = doc["payload"]
    maps = ([(payload["p"], "point"), (payload["groupoid"]["units"], "object")] if "p" in payload
            else [(payload["units"], "object")])
    path = tmp_path / "bad.json"
    for total, noun in maps:
        for key in list(total):
            value = total.pop(key)
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "check", str(path))
            assert (code, out) == (2, ""), (key, err)
            assert err.startswith("error: malformed ") and err.endswith(
                f" leaves out {noun} {key!r}\n") and err.count("\n") == 1
            total[key] = value


LATTICE_LAW_FAILURES = {   # covers of an order on 3 elements -> the failed law
    "not-a-poset": ([[0, 1], [1, 0]], "not a poset: antisymmetry fails at (0, 1)"),
    "no-join": ([[0, 1], [0, 2]], "not a lattice: no join for pair (1, 2)"),
}


@pytest.mark.parametrize("kind", ("lattice", "quantale"))
@pytest.mark.parametrize("name", sorted(LATTICE_LAW_FAILURES))
def test_a_lattice_that_fails_its_laws_is_invalid_input(tmp_path, capsys, name, kind):
    # a law failure exits 1, also in a lattice nested in another object
    covers, law = LATTICE_LAW_FAILURES[name]
    lattice = {"n": 3, "covers": covers}
    payload = {"lattice": lattice, "mul": [[0] * 3] * 3, "inv": [0, 1, 2]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": kind, "payload": lattice if kind == "lattice" else payload}))
    assert run(capsys, "check", str(p)) == (1, f"{p}: invalid: {law}\n", "")


@pytest.mark.parametrize("argv", [
    ["catalog", "r4"], ["complete", "PT"], ["sheafify", "catalog:z2_regular"],
    ["search", "--lattice", "catalog:r4", "--trivial-involution", "--limit", "1"]])
def test_an_unwritable_out_path_exits_2_with_one_line(tmp_path, capsys, argv):
    blocker = tmp_path / "file"                   # a file where a directory should be
    blocker.write_text("")
    pt = write(tmp_path, "pt.json", QSet(relq(2), [[relq(2).unit]]))
    argv = [pt if a == "PT" else a for a in argv]
    for flags in ([], ["--json"]):
        code, out, err = run(capsys, *argv, *flags, "--out", str(blocker / "out"))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {blocker / 'out'}") and err.count("\n") == 1


def test_catalog_out_with_json_prints_the_object(tmp_path, capsys):
    out_path = tmp_path / "r4.json"
    code, printed, _ = run(capsys, "catalog", "r4", "--json")
    assert code == 0
    code, out, err = run(capsys, "catalog", "r4", "--out", str(out_path), "--json")
    assert (code, out, err) == (0, printed, "")
    assert out_path.read_text() == printed
    code, out, _ = run(capsys, "catalog", "r4", "--out", str(out_path))
    assert (code, out) == (0, f"wrote quantale r4 to {out_path}\n")


@pytest.mark.parametrize("where", ["inline", "path"])
@pytest.mark.parametrize("kind,command", [
    ("qset", "check"), ("qset", "complete"), ("qset", "sections"),
    ("module", "check"), ("module", "sections"), ("module", "sheafify")])
def test_a_quantale_that_breaks_a_law_is_invalid_input(tmp_path, capsys, kind, command, where):
    # relq2 with one product cell overwritten, inline in the payload or in a
    # file the payload names: before such quantales were validated, complete
    # and sections over the Q-set exited 3 (a failed theorem check), or
    # reported a join law, and check called the Q-set ok
    obj = QSet(relq(2), [[relq(2).unit]]) if kind == "qset" else module_over_self(relq(2))
    doc = json.loads(objio.dump_object(obj))
    quantale = doc["payload"]["quantale"]
    quantale["mul"][3][5] = quantale["mul"][5][3]
    if where == "path":
        doc["payload"]["quantale"] = str(tmp_path / "quantale.json")
        (tmp_path / "quantale.json").write_text(json.dumps(quantale))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    line = "invalid: not a quantale: associativity fails at (1, 3, 5)\n"
    for flags in ([], ["--json"]):
        code, out, err = run(capsys, command, *flags, str(path))
        if command == "check" and flags:
            assert json.loads(out)["results"] == [{
                "ref": str(path), "kind": None, "ok": False,
                "detail": "not a quantale: associativity fails at (1, 3, 5)"}]
        else:
            assert out == (f"{path}: " if command == "check" else "") + line
        assert (code, err) == (1, "")


@pytest.mark.parametrize("kind,command", [
    ("qset", "check"), ("qset", "complete"), ("qset", "sections"),
    ("module", "check"), ("module", "sections"), ("module", "sheafify")])
def test_a_quantale_named_by_path_reads_as_the_inline_one(tmp_path, capsys, kind, command):
    # the same lawful relq2, inline and in a file the payload names: every
    # command answers byte for byte the same
    obj = QSet(relq(2), [[relq(2).unit]]) if kind == "qset" else module_over_self(relq(2))
    doc = json.loads(objio.dump_object(obj))
    path = tmp_path / "obj.json"
    answers = []
    for where in ("inline", "path"):
        if where == "path":
            (tmp_path / "quantale.json").write_text(json.dumps(doc["payload"]["quantale"]))
            doc["payload"]["quantale"] = str(tmp_path / "quantale.json")
        path.write_text(json.dumps(doc))
        answers.append([run(capsys, command, *flags, str(path)) for flags in ([], ["--json"])])
    assert answers[0] == answers[1]
    # the one-point Q-set over relq2 is not complete: 9 singletons
    assert [code for code, _, _ in answers[0]] == [1 if command == "complete" else 0] * 2
    assert all(err == "" for _, _, err in answers[0])


@pytest.mark.parametrize("table, value, law, witness", [
    ("ip", 15, "ip_scalar_left", (1, 3, 5)), ("action", 0, "action_product", (1, 7, 5))])
def test_a_module_file_that_breaks_a_law_is_invalid_input(tmp_path, capsys, table, value,
                                                          law, witness):
    # relq2 over itself with one cell overwritten: before module files were
    # validated when read, `sections` answered true on both, `basis-check`
    # on the second, and `sheafify` gave a verdict on both
    doc = json.loads(objio.dump_object(module_over_self(relq(2))))
    doc["payload"][table][3][5] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(hilbert.NotAPreHilbert) as ei:
        objio.resolve(str(path))
    assert (ei.value.law, ei.value.witness) == (law, witness)
    line = f"invalid: {law} fails at {', '.join(map(str, witness))}\n"
    assert run(capsys, "check", str(path)) == (1, f"{path}: {line}", "")
    for command in ("sections", "basis-check", "sheafify"):
        assert run(capsys, command, str(path)) == (1, line, "")


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_search_rejects_a_limit_below_one(tmp_path, capsys, limit):
    lat = write(tmp_path, "d.json", quantale_r4().lattice)
    code, out, err = run(capsys, "search", "--lattice", lat, "--trivial-involution",
                         "--fix-unit", "1", "--limit", limit)
    assert (code, out) == (2, "")
    assert err == f"error: limit must be at least 1: {limit}\n"


def test_every_option_is_named_in_the_readme():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in commands.choices.values() for a in p._actions
               for opt in a.option_strings if opt.startswith("--") and opt != "--help"}
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    assert "--lattice" in options
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", readme))
    assert sorted(options - named) == []


def test_search_rejects_unknown_flag(tmp_path, capsys):
    lat = write(tmp_path, "d.json", quantale_r4().lattice)
    code, _, err = run(capsys, "search", "--lattice", lat, "--require", "shiny")
    assert code == 2
    assert "unknown classifier flag" in err


def test_catalog_list_and_dump(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "egger8" in out and "pair3_regular" in out
    out_path = str(tmp_path / "e8.json")
    code, out, _ = run(capsys, "catalog", "egger8", "--out", out_path)
    assert code == 0
    code, out, _ = run(capsys, "check", out_path)
    assert code == 0
    code, _, err = run(capsys, "catalog", "not_a_thing")
    assert code == 2
    assert "known:" in err


def test_json_reports_are_canonical_everywhere(tmp_path, capsys):
    mod = write(tmp_path, "m.json", module_over_self(quantale_r4()))
    for argv in (["check", "catalog:relq2"],
                 ["sections", mod],
                 ["basis-check", "catalog:z2_regular"],
                 ["sheafify", mod],
                 ["verify-equivalence", "catalog:z2", "catalog:z2_regular"]):
        code, out, _ = run(capsys, *argv, "--json")
        doc = json.loads(out)
        assert out == objio.canonical_dumps(doc), argv


# one mul cell overwritten: before classify validated its input, the first
# two crashed with an AssertionError ("classification ladder broken",
# "support cross-checks failed") and the third printed a full ladder
CORRUPTED = [(relq, 1, 3, 4), (relq, 0, 0, 15), (egger8, 1, 2, 0)]


def corrupted(tmp_path, make, a, b, value) -> str:
    Q = make(2) if make is relq else make()
    mul = Q.mul.copy()
    mul[a, b] = value
    return write(tmp_path, "bad.json", Quantale(Q.lattice, mul, Q.inv, Q.unit, Q.name))


@pytest.mark.parametrize("make,a,b,value", CORRUPTED)
def test_classify_reports_a_non_quantale_like_check(tmp_path, capsys, make, a, b, value):
    path = corrupted(tmp_path, make, a, b, value)
    code, out, err = run(capsys, "classify", path)
    assert (code, err) == (1, "")
    assert out.startswith(f"{path}: invalid: ") and " fails at " in out
    assert run(capsys, "check", path) == (code, out, err)

    code, out, _ = run(capsys, "classify", "--json", path)
    doc = json.loads(out)
    check = json.loads(run(capsys, "check", "--json", path)[1])["results"][0]
    assert code == 1 and doc["valid"] is False
    assert check["detail"] == f"{doc['law']} fails at {', '.join(doc['witness'])}"


def plain_and_optimized(*argv):
    """(exit code, stdout, stderr) of the CLI run without and with python -O."""
    src = os.path.dirname(os.path.dirname(qlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = [subprocess.run([sys.executable, *flags, "-m", "qlab.cli", *argv],
                           capture_output=True, text=True, env=env)
            for flags in ([], ["-O"])]
    return [(p.returncode, p.stdout, p.stderr) for p in runs]


@pytest.mark.parametrize("command", ["classify", "check"])
@pytest.mark.parametrize("make,a,b,value", [CORRUPTED[0], CORRUPTED[2]])
def test_invalid_quantale_reports_survive_python_O(tmp_path, command, make, a, b, value):
    plain, optimized = plain_and_optimized(command, corrupted(tmp_path, make, a, b, value))
    assert plain == optimized
    assert plain[0] == 1 and "invalid: " in plain[1] and plain[2] == ""


@pytest.mark.parametrize("argv", [
    ("sheafify", "--json", "catalog:z2_plus_pair2_regular"),
    ("verify-equivalence", "--json", "catalog:z2_plus_pair2",
     "catalog:z2_plus_pair2_regular", "catalog:z2_plus_pair2_objects"),
])
def test_sheaf_reports_survive_python_O(argv):
    plain, optimized = plain_and_optimized(*argv)
    assert plain == optimized
    assert plain[0] == 0 and json.loads(plain[1])["ok"] is True and plain[2] == ""


def test_complete_rejects_a_quantale_that_is_not_stably_gelfand(tmp_path, capsys):
    # the zero product on the 2-chain: 1.1*.1 = 0 <= 1, so the column laws
    # of singletons no longer decide singletons; before the premise was
    # checked this died with an AssertionError traceback
    Q = Quantale(chain_lattice(2), [[0, 0], [0, 0]], [0, 1])
    path = write(tmp_path, "zero.json", QSet(Q, [[0]]))
    assert run(capsys, "check", path)[0] == 0
    code, out, err = run(capsys, "complete", path)
    assert (code, err) == (1, "")
    assert out.startswith("invalid: not stably Gelfand") and out.rstrip().endswith("a = 1")


@pytest.mark.parametrize("command", ["complete", "sections", "basis-check"])
def test_a_matrix_that_is_not_a_q_set_is_rejected(tmp_path, command):
    # [[2]] over relq2 is not self-adjoint; before the check these commands
    # died with an AssertionError, and under -O `sections` answered true
    path = write(tmp_path, "bad.json", QSet(relq(2), [[2]]))
    plain, optimized = plain_and_optimized(command, path)
    assert plain == optimized
    assert plain == (1, "invalid: not a Q-set: self_adjoint fails at (0, 0)\n", "")


def test_sheafify_over_a_quantale_without_unit_is_rejected(tmp_path, capsys):
    _, Q = objio.resolve("catalog:chain2")
    path = write(tmp_path, "m.json",
                 module_over_self(Quantale(Q.lattice, Q.mul, Q.inv, None, Q.name)))
    assert run(capsys, "sheafify", path) == (
        1, "invalid: local sections need a unital quantale\n", "")


def test_all_module_homs_are_counted_up_to_the_all_hom_cap(monkeypatch, capsys):
    # z2_regular's module has 4 elements on 2 points: 16 tables
    argv = ("verify-equivalence", "catalog:z2", "catalog:z2_regular")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "sheaf homs 2: match (module homs: 4)\n" in out
    monkeypatch.setattr(groupoid, "ALL_HOM_CAP", 15)
    assert run(capsys, *argv) == (0, out.replace(" (module homs: 4)", ""), "")


def test_the_carrier_cap_stops_a_qset_module_with_exit_2(tmp_path, monkeypatch, capsys):
    # the unit point over relq2 closes to a carrier of 16 vectors
    pt = write(tmp_path, "pt.json", QSet(relq(2), [[relq(2).unit]]))
    assert run(capsys, "sections", pt)[0] == 0
    monkeypatch.setattr(hilbert, "CARRIER_CAP", 4)
    for command in ("sections", "basis-check"):
        code, out, err = run(capsys, command, pt)
        assert (code, out) == (2, "")
        assert err.startswith("error: carrier closure exceeded cap (") and err.endswith(" > 4)\n")


@pytest.mark.parametrize("name, size", [("z2_regular", 4), ("z2_objects", 2)])
def test_sheafify_stops_past_the_carrier_cap(monkeypatch, capsys, name, size):
    # sheafify closes the carrier of the module's sections; a carrier of
    # exactly CARRIER_CAP vectors passes, one more stops with exit 2
    monkeypatch.setattr(hilbert, "CARRIER_CAP", size)
    assert run(capsys, "sheafify", f"catalog:{name}")[0] == 0
    monkeypatch.setattr(hilbert, "CARRIER_CAP", size - 1)
    assert run(capsys, "sheafify", f"catalog:{name}") == (
        2, "", f"error: carrier closure exceeded cap ({size} > {size - 1})\n")


@pytest.mark.parametrize("func", [hilbert.module_from_qset, groupoid.sheafify,
                                  groupoid.verify_equivalence, cli._as_module],
                         ids=lambda f: f.__name__)
def test_the_module_builders_take_no_cap_argument(func):
    # their limits are the constants hilbert.CARRIER_CAP and groupoid.ALL_HOM_CAP
    assert not [p for p in inspect.signature(func).parameters if "cap" in p]


def fail_prehilbert_recheck(monkeypatch):
    """Make the re-check that a constructed module is pre-Hilbert report a failure."""
    validate = hilbert.validate_prehilbert

    def broken(X):
        report = validate(X)
        report.laws["ip_symmetry"] = (0, 1)
        return report

    monkeypatch.setattr(hilbert, "validate_prehilbert", broken)


def test_a_failed_theorem_check_exits_3_with_one_line(monkeypatch, capsys):
    # module_from_action re-checks that the module of an action is pre-Hilbert
    fail_prehilbert_recheck(monkeypatch)
    for flags in ([], ["--json"]):
        code, out, err = run(capsys, "sheafify", *flags, "catalog:z2_regular")
        assert (code, out) == (3, "")
        assert err == ("error: theorem check prehilbert_laws fails at "
                       "{'ip_symmetry': (0, 1)}\n")
    code, out, _ = run(capsys, "check", "catalog:z2_regular")
    assert code != 1 and "invalid" not in out


def test_check_never_reports_a_failed_theorem_check_as_invalid(monkeypatch, capsys):
    def resolve(ref, expect=None):
        TheoremViolation.check("forced", (0,))

    monkeypatch.setattr(objio, "resolve", resolve)
    assert run(capsys, "check", "catalog:relq2") == (
        3, "", "error: theorem check forced fails at (0,)\n")


def test_theorem_checks_run_under_python_O():
    src = os.path.dirname(os.path.dirname(qlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = ("import sys, pytest, tests.test_cli as t\n"
              "from qlab.cli import build_parser, main\n"
              "t.fail_prehilbert_recheck(pytest.MonkeyPatch())\n"
              "sys.exit(main(['sheafify', 'catalog:z2_regular']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=env, cwd=os.path.dirname(os.path.dirname(__file__)))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: theorem check prehilbert_laws fails at ")


# ------------------------------------------------------ exit-code contract

CONTRACT_PAYLOADS = {   # kind -> (document, commands that read that kind)
    "quantale": (relq(2), [["classify"], ["search", "--lattice"]]),
    "qset": (QSet(relq(2), [[9, 0, 8, 1], [0, 15, 5, 0], [8, 3, 9, 0], [1, 0, 0, 1]]),
             [["complete"], ["sections"], ["basis-check"]]),
    "module": (module_over_self(relq(2)), [["sections"], ["basis-check"], ["sheafify"]]),
    "action": (catalog_get("z2_plus_pair2_regular")[1],
               [["sections"], ["basis-check"], ["sheafify"],
                ["verify-equivalence", "catalog:z2_plus_pair2"]]),
}


def leaves(doc, path=()):
    """(path, value) of every int and str cell of a JSON document."""
    if isinstance(doc, dict):
        return [c for k, v in doc.items() for c in leaves(v, path + (k,))]
    if isinstance(doc, list):
        return [c for i, v in enumerate(doc) for c in leaves(v, path + (i,))]
    return [(path, doc)] if isinstance(doc, (int, str)) else []


def run_quietly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(CONTRACT_PAYLOADS)), st.data())
def test_one_changed_cell_keeps_the_exit_code_contract(kind, data):
    """Exit 1 with one `invalid:` line wherever check calls the input invalid; never 3."""
    obj, commands = CONTRACT_PAYLOADS[kind]
    doc = json.loads(objio.dump_object(obj))
    cells = leaves(doc["payload"])
    (*parent, last), old = data.draw(st.sampled_from(cells))
    owner = doc["payload"]
    for key in parent:
        owner = owner[key]
    if isinstance(old, str):      # another label of the same payload
        owner[last] = data.draw(st.sampled_from(sorted({v for _, v in cells
                                                        if isinstance(v, str)})))
    else:
        owner[last] = data.draw(st.integers(-1, 17))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cell.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, out, err = run_quietly("check", path)
        assert code in (0, 1, 2), err
        invalid = code == 1
        assert invalid == (f"{path}: invalid: " in out)
        for argv in commands:
            code, out, err = run_quietly(*argv, path)
            assert code in (0, 1, 2), (argv, err)
            if invalid:
                assert (code, out.count("\n"), err) == (1, 1, ""), (argv, out, err)
                assert "invalid: " in out
