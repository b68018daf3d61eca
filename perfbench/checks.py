"""Known answers for the benchmark's commands, all invariant under relabelling.

Each check takes the command's exit code, its parsed `--json` report and the
reports of earlier commands in the same run, and returns a list of
problems; an empty list means the verdict is right.  Isomorphism is decided
here by a small backtracking search, not by qlab.
"""

from __future__ import annotations

import numpy as np

from gen import egger8_tables, r4_tables

LADDER_FLAGS = ("unital", "gelfand", "locally_gelfand", "stably_gelfand", "modular",
                "supported", "stably_supported", "quantal_frame",
                "stable_quantal_frame", "inverse_quantal_frame")

# (source, target) -> equivariant maps between z3 on 3 free orbits (A0) and
# on 1 free orbit (A1): an orbit goes to any orbit with any rotation.
Z3_PAIR_COUNTS = {(0, 0): (3 * 3) ** 3, (0, 1): 3 ** 3, (1, 0): 3 * 3, (1, 1): 3}


def _expect(problems: list, ok: bool, text: str) -> None:
    if not ok:
        problems.append(text)


def whole_ladder(code: int, rep: dict, _seen: dict) -> list:
    """relq3, plain or relabelled: all ten flags hold (criterion 3)."""
    p: list = []
    _expect(p, code == 0, f"exit {code}, expected 0")
    flags = rep.get("flags", {})
    _expect(p, sorted(flags) == sorted(LADDER_FLAGS), f"flags {sorted(flags)}")
    _expect(p, all(v is True for v in flags.values()), f"flags {flags}")
    _expect(p, rep.get("n") == 512, f"n = {rep.get('n')}")
    return p


def quantale_ok(code: int, rep: dict, _seen: dict) -> list:
    p: list = []
    _expect(p, code == 0, f"exit {code}, expected 0")
    results = rep.get("results", [])
    _expect(p, len(results) == 1 and results[0].get("kind") == "quantale"
            and results[0].get("ok") is True, f"results {results}")
    return p


def _flag_witness(code: int, rep: dict, holds: str, fails: str, witness: list) -> list:
    p: list = []
    _expect(p, code == 1, f"exit {code}, expected 1")
    flags = rep.get("flags", {})
    _expect(p, flags.get(holds) is True, f"{holds} = {flags.get(holds)}")
    _expect(p, flags.get(fails) is False, f"{fails} = {flags.get(fails)}")
    got = rep.get("witnesses", {}).get(fails)
    _expect(p, got == witness, f"{fails} witness {got}, expected {witness}")
    return p


def egger8_verdict(code: int, rep: dict, _seen: dict) -> list:
    """Stably supported, not modular, witness b, c, a (criterion 1)."""
    return _flag_witness(code, rep, "stably_supported", "modular", ["b", "c", "a"])


def r4_verdict(code: int, rep: dict, _seen: dict) -> list:
    """Stable quantal frame, not inverse, witness cover, e (criterion 2)."""
    return _flag_witness(code, rep, "stable_quantal_frame", "inverse_quantal_frame",
                         ["cover", "e"])


def completion_consistent(code: int, rep: dict, _seen: dict) -> list:
    p: list = []
    _expect(p, code == (0 if rep.get("complete") else 1), f"exit {code} vs {rep.get('complete')}")
    _expect(p, isinstance(rep.get("singletons"), int) and rep["singletons"] > 0,
            f"singletons {rep.get('singletons')}")
    return p


def sections_bridge(complete_id: str):
    """Singletons of the completion = Hilbert sections, which form a basis
    (the criterion 12 bridge)."""
    def check(code: int, rep: dict, seen: dict) -> list:
        p: list = []
        _expect(p, code == 0, f"exit {code}, expected 0")
        _expect(p, rep.get("enough") is True, f"enough = {rep.get('enough')}")
        singles = seen.get(complete_id, {}).get("singletons")
        count = len(rep.get("sections", []))
        _expect(p, count == singles, f"{count} sections vs {singles} singletons")
        return p
    return check


def sheafify_ok(code: int, rep: dict, _seen: dict) -> list:
    """pair3_regular: etale, every canonical-map check true (criterion 9)."""
    p: list = []
    _expect(p, code == 0, f"exit {code}, expected 0")
    checks = rep.get("checks", {})
    _expect(p, rep.get("etale") is True and rep.get("ok") is True and checks
            and all(v is True for v in checks.values()), f"checks {checks}")
    return p


def z3_counts(code: int, rep: dict, _seen: dict) -> list:
    p: list = []
    _expect(p, code == 0, f"exit {code}, expected 0")
    got = {(q["source"], q["target"]): (q["equivariant"], q["sheaf_homs"], q["match"])
           for q in rep.get("pairs", [])}
    want = {k: (v, v, True) for k, v in Z3_PAIR_COUNTS.items()}
    _expect(p, got == want, f"pairs {got}, expected {want}")
    _expect(p, rep.get("ok") is True, f"ok = {rep.get('ok')}")
    return p


# ------------------------------------------------------------- isomorphism

def _closure(n: int, covers) -> np.ndarray:
    leq = np.eye(n, dtype=bool)
    for i, j in covers:
        leq[i, j] = True
    while True:
        nxt = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
        if np.array_equal(nxt, leq):
            return leq
        leq = nxt


def tables_of(payload: dict) -> dict:
    lat = payload["lattice"]
    return {"leq": _closure(lat["n"], lat["covers"]), "mul": np.asarray(payload["mul"]),
            "inv": np.asarray(payload["inv"]), "unit": payload["unit"]}


def isomorphic(a: dict, b: dict) -> bool:
    """Is there a bijection preserving order, product, involution and unit?"""
    n = len(a["inv"])
    if len(b["inv"]) != n or (a["unit"] is None) != (b["unit"] is None):
        return False
    phi = [-1] * n
    used = [False] * n
    if a["unit"] is not None:
        phi[a["unit"]], used[b["unit"]] = b["unit"], True
    order = [x for x in range(n) if phi[x] < 0]

    def fits(x: int) -> bool:
        y = phi[x]
        for z in range(n):
            w = phi[z]
            if w < 0:
                continue
            if a["leq"][x, z] != b["leq"][y, w] or a["leq"][z, x] != b["leq"][w, y]:
                return False
            for s, t in ((x, z), (z, x)):
                prod = phi[a["mul"][s, t]]
                if prod >= 0 and prod != b["mul"][phi[s], phi[t]]:
                    return False
            inv = phi[a["inv"][z]]
            if inv >= 0 and inv != b["inv"][w]:
                return False
        return True

    def place(i: int) -> bool:
        if i == len(order):
            return all(fits(x) for x in range(n))
        x = order[i]
        for y in range(n):
            if not used[y]:
                phi[x], used[y] = y, True
                if fits(x) and place(i + 1):
                    return True
                phi[x], used[y] = -1, False
        return False

    return place(0)


def cube_search(code: int, rep: dict, _seen: dict) -> list:
    """4 involutions, 4 * 8^6 leaves, 12 models, one of them egger8 (criterion 11)."""
    p: list = []
    _expect(p, code == 0, f"exit {code}, expected 0")
    st = rep.get("stats", {})
    _expect(p, st.get("involutions") == 4, f"involutions {st.get('involutions')}")
    _expect(p, st.get("candidates") == 4 * 8 ** 6, f"leaves {st.get('candidates')}")
    _expect(p, st.get("emitted") == 12 == len(rep.get("models", [])),
            f"emitted {st.get('emitted')}")
    ref = egger8_tables()
    hits = sum(isomorphic(ref, tables_of(m)) for m in rep.get("models", []))
    _expect(p, hits == 1, f"{hits} models isomorphic to egger8")
    return p


def diamond_search(code: int, rep: dict, _seen: dict) -> list:
    """Exactly one model, isomorphic to r4."""
    p: list = []
    _expect(p, code == 0, f"exit {code}, expected 0")
    models = rep.get("models", [])
    _expect(p, len(models) == 1 and rep.get("stats", {}).get("emitted") == 1,
            f"{len(models)} models")
    _expect(p, len(models) == 1 and isomorphic(r4_tables(), tables_of(models[0])),
            "model is not isomorphic to r4")
    return p
