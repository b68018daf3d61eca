"""Golden outputs: the SHA-256 of the `--json` stdout of fixed CLI commands.

The digests were taken from the row-by-row implementations that the
whole-array kernels (lattice bound tables, singleton columns, adjoints)
replaced, so a kernel that changes one byte of a report fails here.
Every command reads only catalog entries and one fixed Q-set file, named
by a relative path so that the echoed ref is the same on every run.
"""

import hashlib
import json

import pytest

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
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=lambda argv: argv[0])
def test_json_report_matches_its_golden_digest(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "qset.json").write_text(json.dumps(QSET))
    monkeypatch.chdir(tmp_path)
    code = main([argv[0], "--json", *argv[1:]])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[argv]
