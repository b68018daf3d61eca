"""JSON object files for lattices, quantales, Q-sets, modules, groupoids, actions.

Files carry either a bare payload or a {"kind": ..., "payload": ...} envelope;
the kind of a bare payload is inferred from its discriminating key.  Output is
always enveloped and canonically formatted (sorted keys, two-space indent,
trailing newline), so emitting and re-loading an object is byte-stable.

References to quantales and groupoids inside other payloads are either an
inline payload or a "catalog:NAME" string resolved against the built-in
examples.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

from .catalog import catalog_entries, catalog_get
from .groupoid import FiniteGroupoid, GroupoidAction
from .hilbert import NotAPreHilbert, PreHilbertModule
from .lattice import SupLattice
from .qmatrix import QSet
from .quantale import NotAQuantale, Quantale, validate_quantale

class InputError(ValueError):
    """Malformed file, schema mismatch, or unresolvable reference."""


_FLUSH_CHARS = 1 << 20     # write_canonical writes once this much text is pending


_scalar = json.JSONEncoder().encode        # a scalar is spelled the same at any indent
_SCALARS = (str, int, float, type(None))   # bool is an int


def _key(key) -> str:
    """A dict key as JSON text: a str as it is, any other scalar spelled as JSON."""
    if not isinstance(key, _SCALARS):
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {type(key).__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else _scalar(key))


def _pieces(obj, level: int = 0):
    """The canonical text of obj, piece by piece.

    Sorted keys, two-space indent and the separators "," and ": ", as
    json.JSONEncoder(sort_keys=True, indent=2, separators=(",", ": "))
    writes them; tuples are lists.  A list of plain ints is one piece,
    written with one str.join.
    """
    if isinstance(obj, _SCALARS):
        yield _scalar(obj)
        return
    inner = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    if isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
        elif set(map(type, obj)) == {int}:
            yield "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + close + "]"
        else:
            sep = "[" + inner
            for item in obj:
                yield sep
                yield from _pieces(item, level + 1)
                sep = "," + inner
            yield close + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            yield sep + _key(key) + ": "
            yield from _pieces(value, level + 1)
            sep = "," + inner
        yield close + "}"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_dumps(obj) -> str:
    return "".join(_pieces(obj)) + "\n"


def write_canonical(obj, fh) -> None:
    """Write canonical_dumps(obj) to fh, about _FLUSH_CHARS characters per write.

    The whole text of a large report is never held at once.
    """
    pending: list[str] = []
    size = 0
    for piece in _pieces(obj):
        pending.append(piece)
        size += len(piece)
        if size >= _FLUSH_CHARS:
            fh.write("".join(pending))
            pending.clear()
            size = 0
    pending.append("\n")
    fh.write("".join(pending))


def _need(payload: dict, key: str, kind: str):
    if key not in payload:
        raise InputError(f"{kind} payload is missing {key!r}")
    return payload[key]


def _integer(value, kind: str, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"malformed {kind} payload: {key} is not an integer: {value!r}")
    return value


def _table(raw, kind: str, key: str) -> np.ndarray:
    """raw as an intp array; a table that is not empty must hold only integers."""
    try:
        table = np.asarray(raw)
        if table.size and table.dtype.kind != "i":   # float, bool, or past int64
            raise TypeError(f"its entries are {table.dtype}")
        return table.astype(np.intp, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed {kind} payload: {key} is not an integer table: "
                         f"{exc}") from None


# ---------------------------------------------------------------- builders

def lattice_from_payload(p: dict) -> SupLattice:
    n = _integer(_need(p, "n", "lattice"), "lattice", "n")
    labels = p.get("labels")
    if labels is not None:
        labels = list(_Labels(labels, "lattice", "element"))
    return SupLattice.from_covers(n, _need(p, "covers", "lattice"), labels)


def quantale_from_payload(p: dict) -> Quantale:
    lat = lattice_from_payload(_need(p, "lattice", "quantale"))
    mul = _table(_need(p, "mul", "quantale"), "quantale", "mul")
    inv = _table(_need(p, "inv", "quantale"), "quantale", "inv")
    unit = p.get("unit")
    return Quantale(lat, mul, inv, None if unit is None else _integer(unit, "quantale", "unit"),
                    name=p.get("name"))


def _ref(ref, kind: str, context: str):
    """A catalog quantale or groupoid, or an inline payload; an inline quantale
    must pass validate_quantale (a groupoid checks its laws when built)."""
    if isinstance(ref, str):
        return resolve(ref, expect=kind)[1]
    if not isinstance(ref, dict):
        raise InputError(f"{context}.{kind} must be a payload or a catalog: reference")
    obj = _KINDS[kind][2](ref)
    if kind == "quantale":
        validate_quantale(obj).require(NotAQuantale)
    return obj


def qset_from_payload(p: dict) -> QSet:
    Q = _ref(_need(p, "quantale", "qset"), "quantale", "qset")
    index = list(_Labels(_need(p, "index", "qset"), "qset", "index"))
    matrix = _table(_need(p, "matrix", "qset"), "qset", "matrix")
    if matrix.shape != (len(index), len(index)):
        raise InputError("qset matrix shape does not match the index set")
    return QSet(Q, matrix, index)


def module_from_payload(p: dict) -> PreHilbertModule:
    """A module file's module, which must pass validate_prehilbert."""
    Q = _ref(_need(p, "quantale", "module"), "quantale", "module")
    carrier = lattice_from_payload(_need(p, "carrier", "module"))
    action = _table(_need(p, "action", "module"), "module", "action")
    ip = _table(_need(p, "ip", "module"), "module", "ip")
    X = PreHilbertModule(Q, carrier, action, ip)
    X.prehilbert_report.require(NotAPreHilbert)
    return X


class _Labels(dict):
    """Label -> position in a label list; a repeated or unknown label is malformed."""

    def __init__(self, labels, kind: str, noun: str):
        self.kind, self.noun = kind, noun
        for i, label in enumerate(map(str, labels)):
            if self.setdefault(label, i) != i:
                raise InputError(f"malformed {kind} payload: duplicate {noun} label {label!r}")

    def __missing__(self, label):
        raise InputError(f"malformed {self.kind} payload: unknown {self.noun} label {label!r}")


def _label_map(p: dict, key: str, *domains: _Labels, total: bool = False) -> np.ndarray:
    """The labelled map p[key] as a table of positions, -1 where undefined: a
    total map is an object {k: value} that names every key, a partial map a
    list of rows [k1, ..., km, value] that names no key twice, and the labels
    are those of domains[0], ..., domains[m].
    """
    fail = f"malformed {domains[0].kind} payload: {key}"
    entries = _need(p, key, domains[0].kind)
    table = np.full([len(d) for d in domains[:-1]], -1, dtype=np.intp)
    for row in entries.items() if total else entries:
        if len(row) != len(domains):
            raise InputError(f"{fail} entry {row!r} is not {len(domains)} labels")
        *at, value = (d[str(x)] for d, x in zip(domains, row))
        if table[tuple(at)] >= 0:
            raise InputError(f"{fail} names {list(row)[:-1]} twice")
        table[tuple(at)] = value
    if total and (table < 0).any():
        missing = list(domains[0])[int(np.argmax(table < 0))]
        raise InputError(f"{fail} leaves out {domains[0].noun} {missing!r}")
    return table


def groupoid_from_payload(p: dict) -> FiniteGroupoid:
    try:
        ends = [(a["id"], a["d"], a["r"]) for a in _need(p, "arrows", "groupoid")]
    except (TypeError, KeyError):
        raise InputError("groupoid.arrows must be objects with id, d, r") from None
    objects = _Labels(_need(p, "objects", "groupoid"), "groupoid", "object")
    arrows = _Labels([g for g, _, _ in ends], "groupoid", "arrow")
    d = [objects[str(x)] for _, x, _ in ends]
    r = [objects[str(y)] for _, _, y in ends]
    compose = _label_map(p, "compose", arrows, arrows, arrows)
    inv = [arrows[str(g)] for g in _need(p, "inv", "groupoid")]
    units = _label_map(p, "units", objects, arrows, total=True)
    return FiniteGroupoid(list(objects), list(arrows), d, r, compose, inv, units,
                          name=p.get("name"))


def action_from_payload(p: dict) -> GroupoidAction:
    G = _ref(_need(p, "groupoid", "action"), "groupoid", "action")
    objects, arrows = _Labels(G.objects, "action", "object"), _Labels(G.arrows, "action", "arrow")
    points = _Labels(_need(p, "points", "action"), "action", "point")
    anchor = _label_map(p, "p", points, objects, total=True)
    act = _label_map(p, "act", arrows, points, points)
    return GroupoidAction(G, list(points), anchor, act, name=p.get("name"))


# -------------------------------------------------------------- serializers

def lattice_to_payload(lat: SupLattice) -> dict:
    return {"n": int(lat.n),
            "covers": [[int(i), int(j)] for i, j in lat.covers()],
            "labels": [str(x) for x in lat.labels]}


def quantale_to_payload(Q: Quantale) -> dict:
    return {"lattice": lattice_to_payload(Q.lattice),
            "mul": Q.mul.tolist(),
            "inv": Q.inv.tolist(),
            "unit": None if Q.unit is None else int(Q.unit),
            "name": Q.name}


def qset_to_payload(X: QSet) -> dict:
    return {"quantale": quantale_to_payload(X.Q),
            "index": [str(x) for x in X.labels],
            "matrix": X.A.data.tolist()}


def module_to_payload(X: PreHilbertModule) -> dict:
    return {"quantale": quantale_to_payload(X.quantale),
            "carrier": lattice_to_payload(X.carrier),
            "action": X.action.tolist(),
            "ip": X.ip.tolist()}


def groupoid_to_payload(G: FiniteGroupoid) -> dict:
    compose = [[G.arrows[g], G.arrows[h], G.arrows[int(G.compose[g, h])]]
               for g in range(G.n_arrows) for h in range(G.n_arrows)
               if G.compose[g, h] >= 0]
    return {"objects": list(G.objects),
            "arrows": [{"id": G.arrows[g], "d": G.objects[int(G.d[g])],
                        "r": G.objects[int(G.r[g])]} for g in range(G.n_arrows)],
            "compose": compose,
            "inv": [G.arrows[int(i)] for i in G.inv],
            "units": {G.objects[o]: G.arrows[int(G.units[o])]
                      for o in range(G.n_objects)},
            "name": G.name}


def action_to_payload(A: GroupoidAction) -> dict:
    G = A.groupoid
    act = [[G.arrows[g], A.points[x], A.points[int(A.act[g, x])]]
           for g in range(G.n_arrows) for x in range(A.n_points)
           if A.act[g, x] >= 0]
    return {"groupoid": groupoid_to_payload(G),
            "points": list(A.points),
            "p": {A.points[x]: G.objects[int(A.p[x])] for x in range(A.n_points)},
            "act": act,
            "name": A.name}


# kind -> (class, the key that marks a bare payload of the kind, builder,
# serializer); bare-payload inference tries the keys in this order
_KINDS = {
    "lattice": (SupLattice, "covers", lattice_from_payload, lattice_to_payload),
    "quantale": (Quantale, "mul", quantale_from_payload, quantale_to_payload),
    "qset": (QSet, "matrix", qset_from_payload, qset_to_payload),
    "module": (PreHilbertModule, "ip", module_from_payload, module_to_payload),
    "groupoid": (FiniteGroupoid, "arrows", groupoid_from_payload, groupoid_to_payload),
    "action": (GroupoidAction, "act", action_from_payload, action_to_payload),
}


def to_payload(obj) -> tuple[str, dict]:
    for kind, (cls, _, _, serialize) in _KINDS.items():
        if isinstance(obj, cls):
            return kind, serialize(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_object(obj) -> str:
    kind, payload = to_payload(obj)
    return canonical_dumps({"kind": kind, "payload": payload})


# ----------------------------------------------------------------- loading

def parse_document(doc) -> tuple[str, dict]:
    """Envelope or bare payload -> (kind, payload), without building."""
    if not isinstance(doc, dict):
        raise InputError("top-level JSON value must be an object")
    if set(doc) == {"kind", "payload"}:
        kind = doc["kind"]
        if not isinstance(kind, str) or kind not in _KINDS:
            raise InputError(f"unknown kind {kind!r}")
        if not isinstance(doc["payload"], dict):
            raise InputError("payload must be an object")
        return kind, doc["payload"]
    for kind, (_, key, _, _) in _KINDS.items():
        if key in doc:
            return kind, doc
    raise InputError("cannot infer object kind from payload keys")


def build_object(kind: str, payload: dict):
    """Build one object; a payload of the wrong shape is an InputError.

    qlab's own errors (a failed axiom, a bad reference) pass unchanged; any
    other error a builder meets, such as unpacking a short entry, calling
    .items() on a list or sizing a table past memory, means the payload
    does not follow its schema.
    """
    if kind not in _KINDS:
        raise InputError(f"unknown kind {kind!r}")
    try:
        return _KINDS[kind][2](payload)
    except (AttributeError, IndexError, KeyError, MemoryError, TypeError, ValueError) as exc:
        if type(exc).__module__.startswith("qlab."):
            raise
        raise InputError(f"malformed {kind} payload: {exc}") from None


def _object(pairs: list) -> dict:
    """A JSON object as a dict; a key named twice is malformed, not overwritten."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"key {key!r} is named twice in one object")
        out[key] = value
    return out


def load_path(path: str) -> tuple[str, object]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_object)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except InputError as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from None
    kind, payload = parse_document(doc)
    return kind, build_object(kind, payload)


def resolve(ref: str, expect=None) -> tuple[str, object]:
    """A 'catalog:NAME' URI or a file path -> (kind, built object)."""
    if ref.startswith("catalog:"):
        name = ref[len("catalog:"):]
        try:
            kind, obj = catalog_get(name)
        except KeyError:
            known = ", ".join(sorted(catalog_entries()))
            raise InputError(f"unknown catalog entry {name!r} (known: {known})") from None
    else:
        kind, obj = load_path(ref)
    if expect is not None:
        allowed = {expect} if isinstance(expect, str) else set(expect)
        if kind not in allowed:
            raise InputError(f"{ref} is a {kind}, expected {' or '.join(sorted(allowed))}")
    return kind, obj
