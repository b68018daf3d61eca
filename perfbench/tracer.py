"""Outside-in tracer: times qlab's public functions without editing qlab.

Run a CLI command under it as

    python3 perfbench/tracer.py SPANS.json -- classify catalog:relq3

with qlab on PYTHONPATH.  It imports qlab.cli (timing the import), wraps
every binding of the functions in TARGETS in every loaded qlab module, runs
the command, and writes the spans it kept in memory to SPANS.json when the
command ends.  A name imported with `from .x import f` is its own binding,
so `search.classify` and `cli.validate_prehilbert` are wrapped as well as
`quantale.classify` and `hilbert.validate_prehilbert`; all of them record
under the defining module's name.

The span arithmetic (`summarise`) is plain Python, so the benchmark and its
tests import it without qlab.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path, span name, fields the benchmark reports as
# "<span name>.<field>"); see `summarise` for the fields.
TARGETS = [
    ("lattice", "SupLattice.__init__", "lattice.SupLattice", ("self_s", "calls")),
    ("lattice", "SupLattice.is_frame", "lattice.is_frame", ("self_s", "calls")),
    ("quantale", "validate_quantale", "quantale.validate_quantale", ("self_s", "calls")),
    ("quantale", "classify", "quantale.classify", ("s", "self_s", "calls")),
    ("quantale", "modular_law", "quantale.modular_law", ("self_s",)),
    ("quantale", "support", "quantale.support", ("self_s",)),
    ("quantale", "lattice_order_isos", "quantale.lattice_order_isos", ("self_s",)),
    ("qmatrix", "singletons", "qmatrix.singletons", ("self_s", "calls", "found")),
    ("qmatrix", "completion", "qmatrix.completion", ("self_s",)),
    ("qmatrix", "is_qset", "qmatrix.is_qset", ("self_s", "calls")),
    ("hilbert", "validate_prehilbert", "hilbert.validate_prehilbert", ("self_s", "calls")),
    ("hilbert", "validate_module", "hilbert.validate_module", ("self_s",)),
    ("hilbert", "module_from_qset", "hilbert.module_from_qset", ("self_s", "calls", "carrier")),
    ("hilbert", "module_support", "hilbert.module_support", ("self_s",)),
    ("hilbert", "hilbert_sections", "hilbert.hilbert_sections", ("self_s",)),
    ("hilbert", "local_sections", "hilbert.local_sections", ("self_s",)),
    ("hilbert", "is_module_hom", "hilbert.is_module_hom", ("self_s", "calls")),
    ("hilbert", "adjoint", "hilbert.adjoint", ("self_s", "calls")),
    ("groupoid", "FiniteGroupoid.quantale", "groupoid.FiniteGroupoid.quantale", ("s",)),
    ("groupoid", "module_from_action", "groupoid.module_from_action", ("self_s", "calls")),
    ("groupoid", "sheafify", "groupoid.sheafify", ("self_s",)),
    ("groupoid", "verify_equivalence", "groupoid.verify_equivalence", ("self_s", "homs")),
    ("search", "search", "search.search", ("self_s",)),
    ("objio", "resolve", "objio.resolve", ("s", "calls")),
    ("objio", "canonical_dumps", "objio.canonical_dumps", ("s",)),
    ("cli", "main", "cli.main", ("self_s",)),
]

# Sizes read off return values: span name -> (tag, function of the result).
TAGS = {
    "qmatrix.singletons": ("found", len),
    "hilbert.module_from_qset": ("carrier", lambda mm: mm.module.n),
    "groupoid.verify_equivalence": (
        "homs", lambda rep: sum(len(p.sheaf_homs) for p in rep.pairs)),
}


class Tracer:
    """Nested spans kept in memory: [name, start_ns, end_ns, parent, tags]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        tag = TAGS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag is not None:
                span[4] = {tag[0]: tag[1](result)}
            return result

        return traced


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every binding of each target in the given qlab modules.

    `modules` maps short names ("quantale") to module objects.
    """
    originals: dict = {}                     # id(original) -> wrapper
    for mod_name, path, span_name, _ in TARGETS:
        owner = modules[mod_name]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        if hasattr(raw, "func") and hasattr(raw, "attrname"):      # cached_property
            wrapped = functools.cached_property(tracer.wrap(span_name, raw.func))
            wrapped.__set_name__(owner, attr)
            setattr(owner, attr, wrapped)
            continue
        wrapper = tracer.wrap(span_name, raw)
        setattr(owner, attr, wrapper)
        if not cls_path:
            originals[id(raw)] = wrapper
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def summarise(spans: list) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed tags.

    Self time is a span's duration minus the durations of its direct
    children; with one thread the children are disjoint and lie inside the
    parent.  Inclusive time counts only outermost spans of a name, so a
    recursive call is not counted twice.
    """
    out: dict = {}
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, start, end, parent, tags) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start - child_ns[i]) / 1e9
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += (end - start) / 1e9
        for key, value in (tags or {}).items():
            row[key] = row.get(key, 0) + value
    return out


def main(argv: list[str]) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <qlab arguments>")
    t0 = time.perf_counter()
    from qlab import cli
    import_s = time.perf_counter() - t0
    modules = {name: sys.modules[f"qlab.{name}"]
               for name in ("lattice", "quantale", "qmatrix", "hilbert", "groupoid",
                            "search", "objio", "cli")}
    tracer = Tracer()
    install(tracer, modules)
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
