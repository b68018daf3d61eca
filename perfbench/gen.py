"""Seeded inputs for the qlab benchmark, built without calling qlab.

Every table here is computed by the benchmark's own code, so a change to
qlab cannot change the inputs it is measured on.  The same seed gives the
same files byte for byte; `write_inputs` returns their SHA-256 digests.

Relabelling permutes element indices (covers, tables, labels and the unit
move together), which keeps every verdict and count the same while changing
the order in which qlab's loops and the search tree visit elements.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import numpy as np


def dumps(doc) -> str:
    """The object-file format qlab reads: sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


# ------------------------------------------------------------ known objects

def powerset_covers(k: int) -> list[list[int]]:
    return [[m, m | 1 << b] for m in range(1 << k) for b in range(k) if not m >> b & 1]


def powerset_labels(atoms: list[str]) -> list[str]:
    return ["{" + ",".join(a for b, a in enumerate(atoms) if m >> b & 1) + "}"
            for m in range(1 << len(atoms))]


def relq_tables(n: int) -> dict:
    """Binary relations on n points: bit n*i + j is the pair (i, j).

    Composition is diagrammatic, (i, j);(j, l) = (i, l); the involution is
    the converse and the unit the diagonal.
    """
    k = n * n
    masks = np.arange(1 << k, dtype=np.int64)
    row = (1 << n) - 1
    mul = np.zeros((1 << k, 1 << k), dtype=np.int64)
    inv = np.zeros(1 << k, dtype=np.int64)
    for b in range(k):
        i, j = divmod(b, n)
        has = (masks >> b & 1) == 1
        mul[has, :] |= (((masks >> (n * j)) & row) << (n * i))[None, :]
        inv[has] |= 1 << (n * j + i)
    return {"mul": mul, "inv": inv, "unit": sum(1 << (n * i + i) for i in range(n)),
            "atoms": [f"{i}{j}" for i in range(n) for j in range(n)]}


def egger8_tables() -> dict:
    """The 8-element boolean quantale that is stably supported, not modular."""
    atom_mul = [[1, 2, 4], [2, 7, 7], [4, 7, 7]]
    mul = np.zeros((8, 8), dtype=np.int64)
    for x in range(8):
        for y in range(8):
            for g in range(3):
                for h in range(3):
                    if x >> g & 1 and y >> h & 1:
                        mul[x, y] |= atom_mul[g][h]
    return {"leq": _powerset_leq(3), "mul": mul, "inv": np.arange(8), "unit": 1}


def r4_tables() -> dict:
    """The diamond 0 < e, a < 1 with aa = 1: not an inverse quantal frame."""
    leq = np.eye(4, dtype=bool)
    leq[0, :] = True
    leq[:, 3] = True
    mul = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 3], [0, 3, 3, 3]])
    return {"leq": leq, "mul": mul, "inv": np.arange(4), "unit": 1}


def _powerset_leq(k: int) -> np.ndarray:
    m = np.arange(1 << k)
    return (m[:, None] & ~m[None, :]) == 0


DIAMOND_COVERS = [[0, 1], [0, 2], [1, 3], [2, 3]]
DIAMOND_LABELS = ["0", "e", "a", "1"]


# --------------------------------------------------------------- relabelling

def permutation(rng: random.Random, n: int) -> list[int]:
    """perm[old] = new index."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel_lattice(covers, labels, perm) -> dict:
    new_labels = [None] * len(perm)
    for old, new in enumerate(perm):
        new_labels[new] = labels[old]
    return {"n": len(perm), "covers": sorted([perm[i], perm[j]] for i, j in covers),
            "labels": new_labels}


def relabel_quantale(lattice: dict, mul, inv, unit, perm, name) -> dict:
    p = np.asarray(perm)
    new_mul = np.empty_like(np.asarray(mul))
    new_mul[np.ix_(p, p)] = p[np.asarray(mul)]
    new_inv = np.empty_like(np.asarray(inv))
    new_inv[p] = p[np.asarray(inv)]
    return {"lattice": lattice, "mul": new_mul.tolist(), "inv": new_inv.tolist(),
            "unit": int(p[unit]), "name": name}


# ------------------------------------------------------------------- Q-sets

class RelationMatrices:
    """Matrices with entries in the relation quantale on n points."""

    def __init__(self, n: int):
        t = relq_tables(n)
        self.mul, self.inv = t["mul"], t["inv"]

    def adjoint(self, A: np.ndarray) -> np.ndarray:
        return self.inv[A].T

    def product(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        k = A.shape[0]
        out = np.zeros_like(A)
        for b in range(k):
            out |= self.mul[A[:, b][:, None], B[b, :][None, :]]
        return out

    def is_qset(self, A: np.ndarray) -> bool:
        return (np.array_equal(A, self.adjoint(A))
                and np.array_equal(self.product(A, A), A))


# Base Q-sets: their completions have 16 and 27 singletons and their
# matrix modules 64 elements each, so `complete` walks all 16^4 and 512^2
# candidate columns while `sections` stays far below its carrier cap.
RELQ2_QSET = [[9, 0, 8, 1], [0, 15, 5, 0], [8, 3, 9, 0], [1, 0, 0, 1]]
RELQ3_QSET = [[16, 8], [2, 433]]


def conjugated_qset(rng: random.Random, n: int, base) -> np.ndarray:
    """`base` moved by a seeded permutation of the n points and of its index set.

    Renaming points is an automorphism of the relation quantale, so the
    result is isomorphic to `base`: every count stays the same.
    """
    sigma = permutation(rng, n)
    bit = np.zeros(n * n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            bit[n * i + j] = 1 << (n * sigma[i] + sigma[j])
    B = np.asarray(base, dtype=np.int64)
    moved = np.zeros_like(B)
    for b in range(n * n):
        moved |= np.where(B >> b & 1 == 1, bit[b], 0)
    tau = np.asarray(permutation(rng, B.shape[0]))
    A = np.empty_like(moved)
    A[np.ix_(tau, tau)] = moved
    if not RelationMatrices(n).is_qset(A):
        raise AssertionError("conjugated matrix is not a Q-set")
    return A


def qset_doc(quantale_ref: str, A: np.ndarray) -> dict:
    index = [f"x{i}" for i in range(A.shape[0])]
    return {"kind": "qset", "payload": {"quantale": quantale_ref, "index": index,
                                        "matrix": A.tolist()}}


# ------------------------------------------------------------------ actions

def z3_free_action(rng: random.Random, orbits: int) -> dict:
    """`orbits` free orbits of the cyclic group z3 (catalog:z3), seeded point order.

    Arrow k acts on point (o, h) as (o, h + k mod 3).
    """
    arrows = ["e", "g", "gg"]
    pts = [(o, h) for o in range(orbits) for h in range(3)]
    rng.shuffle(pts)
    name = {pt: f"o{pt[0]}h{pt[1]}" for pt in pts}
    act = [[arrows[k], name[(o, h)], name[(o, (h + k) % 3)]]
           for k in range(3) for (o, h) in pts]
    return {"kind": "action", "payload": {
        "groupoid": "catalog:z3", "points": [name[pt] for pt in pts],
        "p": {name[pt]: "*" for pt in pts}, "act": act,
        "name": f"z3_free{orbits}"}}


# -------------------------------------------------------------------- files

def build_inputs(seed: int) -> tuple[dict, dict]:
    """(file name -> document, facts the checks need) for one seed."""
    rng = random.Random(seed)
    docs: dict = {}
    facts: dict = {}

    rel = relq_tables(3)
    perm = permutation(rng, 512)
    lat = relabel_lattice(powerset_covers(9), powerset_labels(rel["atoms"]), perm)
    docs["relq3_relabelled.json"] = {"kind": "quantale", "payload": relabel_quantale(
        lat, rel["mul"], rel["inv"], rel["unit"], perm, "relq3")}

    docs["cube.json"] = {"kind": "lattice", "payload": relabel_lattice(
        powerset_covers(3), powerset_labels(["a", "b", "c"]), permutation(rng, 8))}

    diamond = permutation(rng, 4)
    docs["diamond.json"] = {"kind": "lattice", "payload": relabel_lattice(
        DIAMOND_COVERS, DIAMOND_LABELS, diamond)}
    facts["diamond_unit"] = diamond[DIAMOND_LABELS.index("e")]

    docs["z3_free3.json"] = z3_free_action(rng, 3)
    docs["z3_free1.json"] = z3_free_action(rng, 1)

    docs["qset_relq2.json"] = qset_doc("catalog:relq2", conjugated_qset(rng, 2, RELQ2_QSET))
    docs["qset_relq3.json"] = qset_doc("catalog:relq3", conjugated_qset(rng, 3, RELQ3_QSET))
    return docs, facts


def write_inputs(seed: int, directory: str) -> tuple[dict, dict]:
    """Write the seed's files; return (file name -> SHA-256, facts)."""
    os.makedirs(directory, exist_ok=True)
    docs, facts = build_inputs(seed)
    digests = {}
    for name, doc in docs.items():
        text = dumps(doc).encode()
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(text)
        digests[name] = hashlib.sha256(text).hexdigest()
    return digests, facts
