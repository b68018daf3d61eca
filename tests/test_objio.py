import json

import numpy as np
import pytest

from qlab import objio
from qlab.catalog import catalog_get, relq
from qlab.groupoid import NotAGroupoid, module_from_action, pair_groupoid, regular_action
from qlab.hilbert import module_over_self
from qlab.lattice import chain_lattice
from qlab.qmatrix import QSet


def sample_objects():
    G = pair_groupoid(2)
    A = regular_action(G)
    return [chain_lattice(3),
            relq(2),
            QSet(relq(2), [[relq(2).unit]]),
            module_over_self(relq(2)),
            G,
            A]


def test_round_trips_are_byte_stable():
    for obj in sample_objects():
        text = objio.dump_object(obj)
        kind, payload = objio.parse_document(json.loads(text))
        rebuilt = objio.build_object(kind, payload)
        assert objio.dump_object(rebuilt) == text, kind


def test_rebuilt_objects_match_the_originals():
    Q = relq(2)
    kind, payload = objio.parse_document(json.loads(objio.dump_object(Q)))
    Q2 = objio.build_object(kind, payload)
    assert np.array_equal(Q2.mul, Q.mul)
    assert np.array_equal(Q2.inv, Q.inv)
    assert Q2.unit == Q.unit

    X = module_over_self(Q)
    kind, payload = objio.parse_document(json.loads(objio.dump_object(X)))
    X2 = objio.build_object(kind, payload)
    assert np.array_equal(X2.action, X.action)
    assert np.array_equal(X2.ip, X.ip)

    A = regular_action(pair_groupoid(2))
    kind, payload = objio.parse_document(json.loads(objio.dump_object(A)))
    A2 = objio.build_object(kind, payload)
    assert np.array_equal(A2.act, A.act)
    assert np.array_equal(A2.p, A.p)


def test_bare_payload_kind_inference():
    for obj in sample_objects():
        kind, payload = objio.to_payload(obj)
        inferred, _ = objio.parse_document(payload)
        assert inferred == kind


def test_catalog_references_resolve_inside_payloads():
    X = QSet(relq(2), [[relq(2).unit]], ["pt"])
    kind, payload = objio.to_payload(X)
    payload["quantale"] = "catalog:relq2"
    X2 = objio.build_object("qset", payload)
    assert X2.A.data.tolist() == X.A.data.tolist()
    payload["quantale"] = "catalog:nothere"
    with pytest.raises(objio.InputError, match="known:"):
        objio.build_object("qset", payload)
    payload["quantale"] = "catalog:z2"  # a groupoid, not a quantale
    with pytest.raises(objio.InputError, match="expected quantale"):
        objio.build_object("qset", payload)


def test_a_catalog_quantale_is_not_validated_again(tmp_path, monkeypatch):
    # catalog entries are lawful by construction; a quantale named by file
    # path or given inline is validated like any other input
    calls = []
    validate = objio.validate_quantale
    monkeypatch.setattr(objio, "validate_quantale", lambda Q: calls.append(Q) or validate(Q))
    kind, payload = objio.to_payload(QSet(relq(2), [[relq(2).unit]], ["pt"]))
    inline = payload["quantale"]
    (tmp_path / "q.json").write_text(json.dumps(inline))
    for ref, validated in (("catalog:relq2", 0), (str(tmp_path / "q.json"), 1), (inline, 1)):
        calls.clear()
        objio.build_object("qset", dict(payload, quantale=ref))
        assert len(calls) == validated, ref


def test_parse_document_errors():
    with pytest.raises(objio.InputError):
        objio.parse_document([1, 2])
    with pytest.raises(objio.InputError, match="unknown kind"):
        objio.parse_document({"kind": "widget", "payload": {}})
    with pytest.raises(objio.InputError, match="payload must be an object"):
        objio.parse_document({"kind": "lattice", "payload": 3})
    with pytest.raises(objio.InputError, match="cannot infer"):
        objio.parse_document({"stuff": 1})


def test_builder_errors():
    with pytest.raises(objio.InputError, match="missing 'covers'"):
        objio.build_object("lattice", {"n": 2})
    with pytest.raises(objio.InputError,
                       match="malformed quantale payload: mul table must be n x n"):
        objio.build_object("quantale", {
            "lattice": {"n": 2, "covers": [[0, 1]]},
            "mul": [[0, 0]], "inv": [0, 1]})
    with pytest.raises(objio.InputError, match="out of range"):
        objio.build_object("quantale", {
            "lattice": {"n": 2, "covers": [[0, 1]]},
            "mul": [[0, 0], [0, 9]], "inv": [0, 1]})
    with pytest.raises(objio.InputError, match="unknown kind"):
        objio.build_object("widget", {})
    with pytest.raises(objio.InputError, match="duplicate object label 'x'"):
        objio.build_object("groupoid", {
            "objects": ["x", "x"], "arrows": [{"id": "u", "d": "x", "r": "x"}],
            "compose": [["u", "u", "u"]], "inv": ["u"], "units": {"x": "u"}})
    with pytest.raises(objio.InputError, match="unknown arrow label 'v'"):
        objio.build_object("groupoid", {
            "objects": ["x"], "arrows": [{"id": "u", "d": "x", "r": "x"}],
            "compose": [["u", "u", "v"]], "inv": ["u"], "units": {"x": "u"}})
    with pytest.raises(NotAGroupoid, match="unit_endpoints"):   # passed through unchanged
        objio.build_object("groupoid", {
            "objects": ["x", "y"], "arrows": [{"id": "u", "d": "x", "r": "x"}],
            "compose": [["u", "u", "u"]], "inv": ["u"], "units": {"x": "u", "y": "u"}})


def test_load_path_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "kind": oops\n}\n')
    with pytest.raises(objio.InputError, match="line 2 column 11"):
        objio.load_path(str(p))
    with pytest.raises(objio.InputError, match="cannot read"):
        objio.load_path(str(tmp_path / "absent.json"))


def test_resolve_file_and_catalog(tmp_path):
    p = tmp_path / "q.json"
    p.write_text(objio.dump_object(relq(2)))
    kind, Q = objio.resolve(str(p))
    assert kind == "quantale" and Q.n == 16
    kind, Q = objio.resolve("catalog:egger8", expect="quantale")
    assert Q.n == 8
    with pytest.raises(objio.InputError, match="expected groupoid"):
        objio.resolve(str(p), expect="groupoid")


@pytest.mark.parametrize("ref, expect, message", [
    ("catalog:z2_regular", "quantale", "catalog:z2_regular is an action, expected quantale"),
    ("catalog:z2", ("action", "module"), "catalog:z2 is a groupoid, expected action or module")])
def test_a_kind_mismatch_names_the_kind_with_its_article(ref, expect, message):
    with pytest.raises(objio.InputError) as ei:
        objio.resolve(ref, expect=expect)
    assert str(ei.value) == message


def test_catalog_and_file_agree_for_actions(tmp_path):
    kind, A = catalog_get("pair2_regular")
    text = objio.dump_object(A)
    p = tmp_path / "a.json"
    p.write_text(text)
    kind2, A2 = objio.resolve(str(p), expect="action")
    m1 = module_from_action(A)
    m2 = module_from_action(A2)
    assert np.array_equal(m1.module.ip, m2.module.ip)
