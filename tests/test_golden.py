"""Golden outputs: the SHA-256 of the `--json` stdout of fixed CLI commands.

The digests were taken from the row-by-row implementations that the
whole-array kernels (lattice bound tables, singleton columns, adjoints)
replaced, and the search digests from the one-leaf-at-a-time search that
the block search replaced, so a kernel that changes one byte of a report
fails here.
Every command reads only catalog entries and one fixed Q-set file, named
by a relative path so that the echoed ref is the same on every run.
"""

import hashlib
import json

import pytest

from qlab import objio
from qlab.cli import main

# a Q-set over relq2 whose completion has 16 singletons
QSET = {"kind": "qset", "payload": {
    "quantale": "catalog:relq2", "index": ["x0", "x1", "x2", "x3"],
    "matrix": [[9, 0, 8, 1], [0, 15, 5, 0], [8, 3, 9, 0], [1, 0, 0, 1]]}}

GOLDEN = {   # argv -> (exit code, SHA-256 of stdout)
    ("classify", "catalog:relq3"):
        (0, "bbda36558abe32ad25cf22db776ff8d3790512f35c75da03f07004da3f5552b4"),
    ("complete", "qset.json"):
        (1, "436f5fc1187fbe9ecb553c04cc99d107ca738f350d8d3d5007aa03f618f0bffd"),
    ("sections", "qset.json"):
        (0, "655c598e1ffab163b63f5bcecf63bcb353b539246d25d2ece9e9868838dd3c00"),
    ("sheafify", "catalog:pair3_regular"):
        (0, "4ebbfe287a8bd2f51fcd0a6bc63d0ab721fc8dcba579c2dfe23b32050438fabe"),
    ("verify-equivalence", "catalog:z3", "catalog:z3_regular", "catalog:z3_objects"):
        (0, "6748a0b44a7eb612d9615f2bd65a873447e433d6e71dba690b5b754d6a4f4ae6"),
    ("search", "--lattice", "catalog:r4", "--trivial-involution", "--fix-unit", "1",
     "--require", "stably_supported,!inverse_quantal_frame"):
        (0, "189d3acf8122e204322cd4c3ff4a2ae9583560fc9ca651c41c0a6480481b5623"),
    # 262,144 leaves
    ("search", "--lattice", "catalog:egger8", "--cap", "8", "--trivial-involution",
     "--dedup", "--require", "stably_supported,!modular"):
        (0, "44ea77d22117896e10b8ef6f6dbae72d0ab9e88f5365fa096c1c20ffef72cf8d"),
}


def golden_id(argv) -> str:
    if argv[0] == "search":                   # search-r4, search-egger8
        return "search-" + argv[argv.index("--lattice") + 1].removeprefix("catalog:")
    return argv[0]


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=golden_id)
def test_json_report_matches_its_golden_digest(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "qset.json").write_text(json.dumps(QSET))
    monkeypatch.chdir(tmp_path)
    code = main([argv[0], "--json", *argv[1:]])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[argv]


def test_chunked_writer_matches_canonical_dumps(monkeypatch):
    monkeypatch.setattr(objio, "_FLUSH_CHUNKS", 100)
    report = {"rows": [[i, str(i), {"x": [i, None, True]}] for i in range(400)]}
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    objio.write_canonical(report, Sink())
    assert len(writes) > 2                       # several flushes, then the tail
    assert "".join(writes) == objio.canonical_dumps(report)
    assert objio.canonical_dumps(report) == json.dumps(
        report, sort_keys=True, separators=(",", ": "), indent=2) + "\n"
