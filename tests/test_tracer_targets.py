"""The benchmark tracer's TARGETS must name functions that qlab still defines.

perfbench/tracer.py wraps each target by reading it from its owner's
__dict__, so a renamed or moved function breaks only traced benchmark runs.
The tracer is loaded from its file, as the benchmark does, without qlab on
its import path.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _, _ in load_targets()])
def test_every_tracer_target_resolves_on_qlab(module, path):
    owner = importlib.import_module(f"qlab.{module}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr]
    assert callable(raw) or callable(getattr(raw, "func", None))
