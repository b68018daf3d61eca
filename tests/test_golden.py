"""Golden outputs: the SHA-256 of the `--json` stdout of fixed CLI commands.

The digests were taken from the row-by-row implementations that the
whole-array kernels (lattice bound tables, singleton columns, adjoints)
replaced, the search digests from the one-leaf-at-a-time search that
the block search replaced, and the pair3, egger8 and z2_plus_pair2
digests from the hand-written join-extension loops that
SupLattice.join_extend replaced, and the basis-check digests from the
basis-sum loops that SupLattice.join_products replaced, and the qset3
completion from the pruned backtracking walk over singleton columns that
laws.lex_solutions replaced, and the non-unital classify digest from the
hand-written cascade that classify's table of rungs replaced, and the
search over every involution of egger8's lattice from the block search
that the propagation walk replaced, and the searches on the pentagon and
M3, which are not frames, from the leaf kernel that decided every law on
every cell, and the dedup search over every involution of M4 from the
search that walked every involution and every leaf before the symmetry
reduction, so a kernel that changes one byte of a report fails here.
Those three searches, on egger8's lattice, M3 and M4, were re-pinned when
self-linked cells came to take only self-adjoint values: their models are
the same, and only their pruned and rejected counters moved.
Every command reads only catalog entries, two fixed Q-set files, one
fixed quantale file and three fixed lattice files, named by relative paths
so that the echoed ref is the same on every run.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import cli, objio
from qlab.cli import main

# a Q-set over relq2 whose completion has 16 singletons
QSET = {"kind": "qset", "payload": {
    "quantale": "catalog:relq2", "index": ["x0", "x1", "x2", "x3"],
    "matrix": [[9, 0, 8, 1], [0, 15, 5, 0], [8, 3, 9, 0], [1, 0, 0, 1]]}}
# a Q-set over relq3 whose completion has 216 singletons; 512^3 candidate columns
QSET3 = {"kind": "qset", "payload": {
    "quantale": "catalog:relq3", "index": ["x0", "x1", "x2"],
    "matrix": [[16, 8, 0], [2, 433, 0], [0, 0, 273]]}}
# the zero product on the diamond: no unit, so the four unit rungs are n/a
ZERO4 = {"kind": "quantale", "payload": {
    "lattice": {"n": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]], "labels": ["0", "e", "a", "1"]},
    "mul": [[0] * 4] * 4, "inv": [0, 1, 2, 3], "unit": None}}
# two lattices that are not frames, so the search decides the modular rung
# on every cell rather than on join-irreducibles
PENTAGON = {"kind": "lattice", "payload": {
    "n": 5, "covers": [[0, 1], [0, 3], [1, 2], [2, 4], [3, 4]], "labels": list("01234")}}
M3 = {"kind": "lattice", "payload": {
    "n": 5, "covers": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]], "labels": list("01234")}}
# M4, whose 24 automorphisms permute the four atoms
M4 = {"kind": "lattice", "payload": {
    "n": 6, "covers": [[0, a] for a in range(1, 5)] + [[a, 5] for a in range(1, 5)],
    "labels": list("012345")}}

GOLDEN = {   # test id -> (argv, exit code, SHA-256 of stdout)
    "classify": (("classify", "catalog:relq3"),
                 0, "bbda36558abe32ad25cf22db776ff8d3790512f35c75da03f07004da3f5552b4"),
    "classify-pair3": (("classify", "catalog:pair3"),
                       0, "8ca1c80233e191ace3c9982207ec3d4cb3786853aadc909c1487861bfb989723"),
    "classify-egger8": (("classify", "catalog:egger8"),
                        1, "078848bb9ba62c00eef406c93347154690f668fde93a8bc0535f0cc9cc9799ad"),
    "classify-nonunital": (("classify", "zero4.json"),
                           1, "078cf08cb58776e5bd285463a80abf25578fd7800fa22ad65eb2c148a1d776df"),
    "complete": (("complete", "qset.json"),
                 1, "436f5fc1187fbe9ecb553c04cc99d107ca738f350d8d3d5007aa03f618f0bffd"),
    "complete-qset3": (("complete", "qset3.json"),
                       1, "f61b852c61af7491dac0659afdc05e7e9882b8b3222b5e0df2384c60b06f3f2c"),
    "sections": (("sections", "qset.json"),
                 0, "655c598e1ffab163b63f5bcecf63bcb353b539246d25d2ece9e9868838dd3c00"),
    "sheafify": (("sheafify", "catalog:pair3_regular"),
                 0, "4ebbfe287a8bd2f51fcd0a6bc63d0ab721fc8dcba579c2dfe23b32050438fabe"),
    "sheafify-z2_plus_pair2": (
        ("sheafify", "catalog:z2_plus_pair2_regular"),
        0, "9d228f8212de431bb6044fdf332ba49a431ba4b2985cbd6ee6964be467b3d4b0"),
    "verify-equivalence": (
        ("verify-equivalence", "catalog:z3", "catalog:z3_regular", "catalog:z3_objects"),
        0, "6748a0b44a7eb612d9615f2bd65a873447e433d6e71dba690b5b754d6a4f4ae6"),
    # small enough that every module hom is enumerated as well
    "verify-equivalence-z2_plus_pair2": (
        ("verify-equivalence", "catalog:z2_plus_pair2", "catalog:z2_plus_pair2_regular",
         "catalog:z2_plus_pair2_objects"),
        0, "57e14f14345ec46eb9f8afd31f56568b9149813820dc414ee147f1c42ff1096c"),
    "basis-check": (("basis-check", "catalog:pair3_regular"),
                    0, "e4bbea549623de6e56bfbe506f3dfc5a210aec8af074155ec19e0ef9d3c22945"),
    # both the basis and the Parseval identity fail
    "basis-check-sigma": (("basis-check", "catalog:pair2_regular", "--sigma", "3,5"),
                          1, "f60dca29e7475dd5a94a8ec4eec222663ef22ed70804b7ecac80ac1676e467a0"),
    "search-r4": (
        ("search", "--lattice", "catalog:r4", "--trivial-involution", "--fix-unit", "1",
         "--require", "stably_supported,!inverse_quantal_frame"),
        0, "189d3acf8122e204322cd4c3ff4a2ae9583560fc9ca651c41c0a6480481b5623"),
    "search-egger8": (   # 262,144 leaves
        ("search", "--lattice", "catalog:egger8", "--cap", "8", "--trivial-involution",
         "--dedup", "--require", "stably_supported,!modular"),
        0, "44ea77d22117896e10b8ef6f6dbae72d0ab9e88f5365fa096c1c20ffef72cf8d"),
    # the benchmark's search shape: 4 involutions, self-linked cells, 1,048,576 leaves
    "search-egger8-involutions": (
        ("search", "--lattice", "catalog:egger8", "--cap", "8", "--dedup",
         "--require", "stably_supported,!modular"),
        0, "dca5e633c59a1cf0fefc02dce511da46139c08f55e8edd937c6bf35f8b396296"),
    "search-pentagon-modular": (
        ("search", "--lattice", "pentagon.json", "--dedup", "--require", "modular"),
        0, "188ec1b43afd384d2b1cf8048991b4ae22f44cc160f5e99d6485353e72dec05e"),
    "search-m3-involutions": (   # 4 involutions
        ("search", "--lattice", "m3.json", "--dedup", "--require", "!modular"),
        0, "2c898bcb8159d7830bd8fb0fad66e4461828d31b10e7dfd5541ae610c8e1a53c"),
    "search-m4-dedup": (   # 10 involutions, 604,661,760 leaves, 30,666 tested tables
        ("search", "--lattice", "m4.json", "--dedup"),
        0, "57c44f46422c6c45d6b15b6c42cb10727ac3fbf045f98cc8903e7a5903306ffc"),
}


def write_inputs(tmp_path, monkeypatch):
    (tmp_path / "qset.json").write_text(json.dumps(QSET))
    (tmp_path / "qset3.json").write_text(json.dumps(QSET3))
    (tmp_path / "zero4.json").write_text(json.dumps(ZERO4))
    (tmp_path / "pentagon.json").write_text(json.dumps(PENTAGON))
    (tmp_path / "m3.json").write_text(json.dumps(M3))
    (tmp_path / "m4.json").write_text(json.dumps(M4))
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_report_matches_its_golden_digest(name, tmp_path, monkeypatch, capsys):
    argv, code, digest = GOLDEN[name]
    write_inputs(tmp_path, monkeypatch)
    got = main([argv[0], "--json", *argv[1:]])
    assert (got, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()) == (code, digest)


# The encoder objio replaced: its text is the canonical format.
ORACLE = json.JSONEncoder(sort_keys=True, indent=2, separators=(",", ": "))


def by_oracle(obj) -> str:
    return ORACLE.encode(obj) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_reports_are_encoded_as_the_json_encoder_does(name, tmp_path, monkeypatch,
                                                            capsys):
    """The report object itself, tuples and all, goes through both encoders."""
    argv = GOLDEN[name][0]
    write_inputs(tmp_path, monkeypatch)
    docs = []

    def spy(doc, fh):
        docs.append(doc)
        objio.write_canonical(doc, fh)

    monkeypatch.setattr(cli, "write_canonical", spy)
    main([argv[0], "--json", *argv[1:]])
    assert len(docs) == 1
    assert capsys.readouterr().out == by_oracle(docs[0]) == objio.canonical_dumps(docs[0])


SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
           | st.floats(allow_nan=True, allow_infinity=True) | st.text())
DOCS = st.recursive(SCALARS, lambda inner: (st.lists(inner) | st.tuples(inner, inner)
                                            | st.lists(st.integers(-9, 10 ** 20))
                                            | st.dictionaries(st.text(), inner)),
                    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_canonical_text_is_the_json_encoders(doc):
    assert objio.canonical_dumps(doc) == by_oracle(doc)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.one_of(st.none(), st.booleans(), st.integers(), st.floats()),
                       st.integers(), max_size=1))
def test_scalar_keys_are_spelled_as_the_json_encoder_does(doc):
    assert objio.canonical_dumps(doc) == by_oracle(doc)


@pytest.mark.parametrize("bad", [{"x": object()}, [1, {2, 3}], {(1, 2): 3}])
def test_what_the_json_encoder_rejects_is_rejected(bad):
    with pytest.raises(TypeError):
        ORACLE.encode(bad)
    with pytest.raises(TypeError):
        objio.canonical_dumps(bad)


def test_chunked_writer_matches_canonical_dumps(monkeypatch):
    """Writes come in pieces of about _FLUSH_CHARS characters, never the whole text."""
    monkeypatch.setattr(objio, "_FLUSH_CHARS", 1000)
    report = {"rows": [[i, str(i), {"x": [i, None, True]}] for i in range(400)],
              "table": [list(range(i, i + 50)) for i in range(40)]}
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    objio.write_canonical(report, Sink())
    text = objio.canonical_dumps(report)
    assert "".join(writes) == text == by_oracle(report)
    assert len(writes) > len(text) // 2000
    assert max(map(len, writes)) < 2000          # no write holds much more than _FLUSH_CHARS
