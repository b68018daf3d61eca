"""qlab: validate, classify, and transform finite quantale-theoretic objects.

Inputs are JSON object files or catalog: URIs.  Exit codes: 0 when the
command's property holds (or the requested objects were produced), 1 when a
checked property is false (the report carries a witness, or a
laws.Violation names the failed law), 2 for unreadable or malformed input
and exhausted budgets, 3 when a theorem that qlab re-checks fails
(laws.TheoremViolation: a bug, never a verdict).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import objio
from .catalog import catalog_entries
from .groupoid import FiniteGroupoid, NotEtale, module_from_action, sheafify, verify_equivalence
from .hilbert import (CARRIER_CAP, CarrierTooLarge, PreHilbertModule, has_enough_sections,
                      hilbert_sections, is_hilbert_basis, module_from_qset,
                      parseval_check)
from .laws import TheoremViolation, Violation
from .objio import InputError, canonical_dumps, write_canonical
from .qmatrix import completion, is_qset, is_strict
from .quantale import NotAQuantale, classify, validate_quantale
from .search import BudgetExceeded, SearchSpec, search


def _count(name: str, raw) -> int:
    """A budget or cap: a finite nonnegative number, truncated to an integer."""
    try:
        value = float(raw)
    except ValueError:
        raise InputError(f"{name} is not a number: {raw!r}") from None
    if not math.isfinite(value) or value < 0:
        raise InputError(f"{name} must be a finite nonnegative number: {raw!r}")
    return int(value)


def _cap(args) -> int:
    """The carrier-closure cap: --cap, else hilbert.CARRIER_CAP."""
    return _count("--cap", args.cap) if args.cap is not None else CARRIER_CAP


def _out(args, lines: list[str], doc: dict) -> None:
    if args.json:
        write_canonical(doc, sys.stdout)
    else:
        for line in lines:
            print(line)


def _write(path: str, text: str, makedirs: bool = False) -> None:
    """Write an --out file, making its directory first if asked; a path that
    cannot be written is an InputError (exit 2)."""
    try:
        if makedirs:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _labels(obj, items) -> list:
    """Witness tuples mix element indices and law names; label the indices."""
    out = []
    for x in items:
        if isinstance(x, (int, np.integer)):
            out.append(obj.label(int(x)) if hasattr(obj, "label") else int(x))
        elif isinstance(x, tuple):
            out.append(_labels(obj, x))
        else:
            out.append(str(x))
    return out


def _failure(obj, rep) -> tuple[str, list, str]:
    """The first failing law of a report, its labelled witness, and a detail line."""
    law, wit = next(iter(rep.failures().items()))
    labels = _labels(obj, wit)
    return law, labels, f"{law} fails at {', '.join(map(str, labels))}"


def _as_module(ref: str, cap: int) -> PreHilbertModule:
    kind, obj = objio.resolve(ref, expect=("module", "action", "qset"))
    if kind == "module":
        return obj
    if kind == "action":
        return module_from_action(obj).module
    return module_from_qset(obj.Q, obj, cap=cap).module


# ---------------------------------------------------------------- commands

def cmd_check(args) -> int:
    results = []
    for ref in args.ref:
        try:
            kind, obj = objio.resolve(ref)
        except Violation as exc:
            results.append({"ref": ref, "kind": None, "ok": False, "detail": str(exc)})
            continue
        ok, detail = True, ""
        if kind == "quantale":
            rep = validate_quantale(obj)
            ok = rep.ok
            if not ok:
                detail = _failure(obj, rep)[2]
        elif kind == "qset":
            ok, wit = is_qset(obj)
            if not ok:
                law, a, b = wit
                detail = f"{law} fails at ({obj.labels[a]}, {obj.labels[b]})"
            else:
                strict, _ = is_strict(obj)
                detail = f"strict: {str(strict).lower()}"
        results.append({"ref": ref, "kind": kind, "ok": ok, "detail": detail})
    lines = [f"{r['ref']}: " + (f"{r['kind']} ok" + (f" ({r['detail']})" if r["detail"] else "")
             if r["ok"] else f"invalid: {r['detail']}") for r in results]
    _out(args, lines, {"command": "check", "results": results})
    return 0 if all(r["ok"] for r in results) else 1


def cmd_classify(args) -> int:
    kind, obj = objio.resolve(args.ref, expect=("quantale", "groupoid"))
    Q = obj if kind == "quantale" else obj.quantale
    valid = validate_quantale(Q)
    if not valid.ok:
        law, wit, detail = _failure(Q, valid)
        _out(args, [f"{args.ref}: invalid: {detail}"],
             {"command": "classify", "ref": args.ref, "n": Q.n, "name": Q.name,
              "valid": False, "law": law, "witness": wit})
        return 1
    rep = classify(Q)
    flags = rep.flags()
    witnesses = {fname: _labels(Q, wit) for fname, wit in rep.witnesses.items()}
    lines = [f"quantale {Q.name or args.ref}: {Q.n} elements"]
    for fname, val in flags.items():
        line = f"  {fname}: {'n/a' if val is None else str(val).lower()}"
        if fname in witnesses:
            line += f"  witness: {', '.join(map(str, witnesses[fname]))}"
        lines.append(line)
    _out(args, lines, {"command": "classify", "ref": args.ref, "n": Q.n,
                       "name": Q.name, "flags": flags, "witnesses": witnesses})
    return 0 if all(v is True for v in flags.values()) else 1


def cmd_complete(args) -> int:
    kind, X = objio.resolve(args.ref, expect="qset")
    comp = completion(X)
    lines = [f"qset of size {X.size} over {X.Q.name or 'quantale'}",
             f"singletons: {len(comp.singleton_list)}",
             f"complete: {str(comp.is_complete).lower()}"]
    if args.out:
        _write(args.out, objio.dump_object(comp.qset))
        lines.append(f"wrote completion to {args.out}")
    _out(args, lines, {"command": "complete", "ref": args.ref, "size": X.size,
                       "singletons": len(comp.singleton_list),
                       "complete": comp.is_complete,
                       "completion": objio.qset_to_payload(comp.qset)})
    return 0 if comp.is_complete else 1


def cmd_sections(args) -> int:
    X = _as_module(args.ref, _cap(args))
    ok, secs, wit = has_enough_sections(X)
    lines = [f"module with {X.n} elements over {X.quantale.name or 'quantale'}",
             f"hilbert sections: {len(secs)}"]
    if len(secs) <= 40:
        lines += [f"  {X.carrier.labels[int(s)]}" for s in secs]
    lines.append(f"enough sections (basis): {str(ok).lower()}")
    if not ok:
        lines.append(f"  not reconstructed: {X.carrier.labels[int(wit)]}")
    _out(args, lines, {"command": "sections", "ref": args.ref, "n": X.n,
                       "sections": [int(s) for s in secs],
                       "section_labels": [X.carrier.labels[int(s)] for s in secs],
                       "enough": ok,
                       "witness": None if ok else int(wit)})
    return 0 if ok else 1


def cmd_basis_check(args) -> int:
    X = _as_module(args.ref, _cap(args))
    if args.sigma:
        try:
            sigma = [int(s) for s in args.sigma.split(",")]
        except ValueError:
            raise InputError(f"--sigma must be comma-separated indices: {args.sigma!r}")
        if any(not 0 <= s < X.n for s in sigma):
            raise InputError("--sigma index out of range")
    else:
        sigma = [int(s) for s in hilbert_sections(X)]
    ok, wit = is_hilbert_basis(X, sigma)
    pv = parseval_check(X, sigma)
    lines = [f"sigma: {', '.join(X.carrier.labels[s] for s in sigma)}",
             f"basis: {str(ok).lower()}"
             + ("" if ok else f"  fails at {X.carrier.labels[int(wit)]}"),
             "parseval: " + ("ok" if pv is None else
                             f"fails at ({X.carrier.labels[pv[0]]}, {X.carrier.labels[pv[1]]})")]
    _out(args, lines, {"command": "basis-check", "ref": args.ref,
                       "sigma": sigma, "basis": ok,
                       "witness": None if ok else int(wit),
                       "parseval": pv is None,
                       "parseval_witness": None if pv is None else [int(pv[0]), int(pv[1])]})
    return 0 if ok and pv is None else 1


def cmd_sheafify(args) -> int:
    cap = _cap(args)
    kind, obj = objio.resolve(args.ref, expect=("module", "action"))
    X = module_from_action(obj).module if kind == "action" else obj
    try:
        rep = sheafify(X, cap=cap)
    except NotEtale as exc:
        _out(args, [f"not etale: {exc}"],
             {"command": "sheafify", "ref": args.ref, "etale": False,
              "witness": exc.witness})
        return 1
    lines = [f"module with {X.n} elements, {len(rep.sections)} local sections",
             "sections: " + ", ".join(X.carrier.labels[int(s)] for s in rep.sections[:20])
             + (" ..." if len(rep.sections) > 20 else ""),
             "canonical map checks: "
             + ", ".join(f"{k}={str(v).lower()}" for k, v in rep.checks.items()),
             f"isomorphic: {str(rep.ok).lower()}"]
    if args.out:
        _write(args.out, objio.dump_object(rep.qset))
        lines.append(f"wrote section q-set to {args.out}")
    _out(args, lines, {"command": "sheafify", "ref": args.ref, "etale": True,
                       "n": X.n, "sections": [int(s) for s in rep.sections],
                       "checks": rep.checks, "ok": rep.ok,
                       "qset": objio.qset_to_payload(rep.qset)})
    return 0 if rep.ok else 1


def _same_groupoid(G1: FiniteGroupoid, G2: FiniteGroupoid) -> bool:
    return (G1.objects == G2.objects and G1.arrows == G2.arrows
            and np.array_equal(G1.d, G2.d) and np.array_equal(G1.r, G2.r)
            and np.array_equal(G1.compose, G2.compose)
            and np.array_equal(G1.inv, G2.inv)
            and np.array_equal(G1.units, G2.units))


def cmd_verify_equivalence(args) -> int:
    kind, G = objio.resolve(args.groupoid, expect="groupoid")
    actions = []
    for ref in args.action:
        kind, A = objio.resolve(ref, expect="action")
        if not _same_groupoid(A.groupoid, G):
            raise InputError(f"{ref} is an action of a different groupoid")
        actions.append(A)
    rep = verify_equivalence(G, actions, all_hom_cap=_count("--all-hom-cap", args.all_hom_cap))
    lines = [f"groupoid {G.name or args.groupoid}: {len(actions)} actions"]
    pairs = []
    for p in rep.pairs:
        verdict = "match" if p.counts_match else "MISMATCH"
        extra = "" if p.all_homs is None else f" (module homs: {p.all_homs})"
        lines.append(f"  A{p.source} -> A{p.target}: equivariant {len(p.equivariant)}, "
                     f"sheaf homs {len(p.sheaf_homs)}: {verdict}{extra}")
        pairs.append({"source": p.source, "target": p.target,
                      "equivariant": len(p.equivariant),
                      "sheaf_homs": len(p.sheaf_homs),
                      "all_module_homs": p.all_homs,
                      "match": p.counts_match})
    lines.append(f"equivalent counts on all pairs: {str(rep.ok).lower()}")
    _out(args, lines, {"command": "verify-equivalence", "groupoid": args.groupoid,
                       "actions": list(args.action), "pairs": pairs, "ok": rep.ok})
    return 0 if rep.ok else 1


def _parse_require(raw: str | None) -> dict:
    out: dict = {}
    if not raw:
        return out
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if item.startswith("!"):
            out[item[1:]] = False
        else:
            out[item] = True
    return out


def cmd_search(args) -> int:
    kind, obj = objio.resolve(args.lattice, expect=("lattice", "quantale", "groupoid"))
    if kind == "lattice":
        lat = obj
    elif kind == "quantale":          # only the lattice is searched, but of a quantale
        validate_quantale(obj).require(NotAQuantale)
        lat = obj.lattice
    else:
        lat = obj.quantale.lattice
    try:
        spec = SearchSpec(lat,
                          fix_involution=np.arange(lat.n) if args.trivial_involution else None,
                          fix_unit=args.fix_unit,
                          require=_parse_require(args.require),
                          limit=args.limit, budget=_count("--budget", args.budget),
                          dedup_iso=args.dedup, cap=_count("--cap", args.cap))
    except ValueError as exc:
        raise InputError(str(exc)) from None

    try:
        res = search(spec)
    except BudgetExceeded as exc:
        print(f"budget exceeded after {exc.tested} tested tables "
              f"({exc.stats.emitted} models found so far)", file=sys.stderr)
        return 2

    st = res.stats
    lines = [f"lattice with {lat.n} elements, {st.free_cells} free cells, "
             f"{st.involutions} involution(s)",
             f"candidates: {st.candidates}, emitted: {st.emitted} "
             f"(assoc-pruned {st.pruned_assoc}, invalid {st.rejected_quantale}, "
             f"filtered {st.rejected_require}, deduped {st.deduped})"]
    payloads = []
    for i, Q in enumerate(res.models):
        payloads.append(objio.quantale_to_payload(Q))
        unit = "none" if Q.unit is None else Q.label(Q.unit)
        rows = ["[" + " ".join(Q.label(int(v)) for v in row) + "]" for row in Q.mul]
        lines.append(f"model {i}: unit {unit}, mul " + " ".join(rows))
        if args.out:
            path = os.path.join(args.out, f"model-{i:03d}.json")
            _write(path, canonical_dumps({"kind": "quantale", "payload": payloads[-1]}),
                   makedirs=True)
            lines.append(f"  wrote {path}")
    _out(args, lines, {"command": "search", "lattice": args.lattice,
                       "stats": vars(st).copy(), "models": payloads})
    return 0 if st.emitted > 0 else 1


def cmd_catalog(args) -> int:
    entries = catalog_entries()
    if not args.name:
        lines = [f"{name}  {entries[name][0]}" for name in sorted(entries)]
        _out(args, lines, {"command": "catalog",
                           "entries": {n: entries[n][0] for n in sorted(entries)}})
        return 0
    kind, obj = objio.resolve(f"catalog:{args.name}")
    text = objio.dump_object(obj)
    if args.out:
        _write(args.out, text)
    if args.out and not args.json:
        print(f"wrote {kind} {args.name} to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="Finite involutive quantales, Q-sets, Hilbert Q-modules, "
                    "and etale groupoid sheaves: checks and constructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="machine-readable canonical JSON report")
        p.set_defaults(func=fn)
        return p

    p = add("check", cmd_check, "validate object files against their axioms")
    p.add_argument("ref", nargs="+", help="object files or catalog: URIs")

    p = add("classify", cmd_classify, "classification ladder of a quantale")
    p.add_argument("ref", help="quantale or groupoid (file or catalog: URI)")

    p = add("complete", cmd_complete, "singleton completion of a Q-set")
    p.add_argument("ref", help="qset file")
    p.add_argument("--out", help="write the completed qset to this file")

    p = add("sections", cmd_sections, "Hilbert sections of a module")
    p.add_argument("ref", help="module, action, or qset")
    p.add_argument("--cap", help="carrier-closure cap (default 2^13)")

    p = add("basis-check", cmd_basis_check, "does a section family reconstruct the module?")
    p.add_argument("ref", help="module, action, or qset")
    p.add_argument("--sigma", help="comma-separated carrier indices (default: all sections)")
    p.add_argument("--cap", help="carrier-closure cap (default 2^13)")

    p = add("sheafify", cmd_sheafify, "section Q-set of an etale Q-locale")
    p.add_argument("ref", help="action or module")
    p.add_argument("--cap", help="carrier-closure cap (default 2^13)")
    p.add_argument("--out", help="write the section q-set to this file")

    p = add("verify-equivalence", cmd_verify_equivalence,
            "equivariant maps vs sheaf morphisms, pairwise")
    p.add_argument("groupoid", help="groupoid file or catalog: URI")
    p.add_argument("action", nargs="+", help="actions of that groupoid")
    p.add_argument("--all-hom-cap", default=4096,
                   help="enumerate all module homs when the space is at most this size")

    p = add("search", cmd_search, "exhaustive quantale-structure search on a lattice")
    p.add_argument("--lattice", required=True,
                   help="lattice file, or a quantale/groupoid whose lattice to use")
    p.add_argument("--require", help="comma-separated flags, e.g. stably_supported,!modular")
    p.add_argument("--fix-unit", type=int, help="lattice index of the required unit")
    p.add_argument("--trivial-involution", action="store_true",
                   help="fix the involution to the identity")
    p.add_argument("--limit", type=int, help="stop after this many models")
    p.add_argument("--budget", default=10 ** 8,
                   help="budget of partial tables the search may test (default 1e8)")
    p.add_argument("--cap", default=6, help="largest admissible lattice (default 6)")
    p.add_argument("--dedup", action="store_true",
                   help="emit one model per isomorphism class: a model whose involution "
                        "is conjugate to one already searched, or that is not the "
                        "lex-least of its symmetry orbit, is a copy; without --limit "
                        "copies are not visited, and every count is that of the full "
                        "search")
    p.add_argument("--out", help="directory for model-NNN.json files")

    p = add("catalog", cmd_catalog, "list built-in objects or print one as JSON")
    p.add_argument("name", nargs="?", help="entry name; omit to list all")
    p.add_argument("--out", help="write the object to this file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, CarrierTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Violation as exc:
        print(f"invalid: {exc}")
        return 1
    except TheoremViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
