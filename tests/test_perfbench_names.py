"""The benchmark's tracer wraps sfk functions by name; every name must resolve.

perfbench/tracer.py looks each (module, function) pair up with getattr when
a traced run starts, so a deleted or renamed function would only show up as
an AttributeError in `perfbench/run.py --trace 1`.  The tracer is read here
as source, not imported or edited.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_constant(name):
    for node in ast.parse(TRACER.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if isinstance(node, ast.Assign) and name in targets:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no {name}")


def test_tracer_names_resolve():
    pairs = [pair for pairs in tracer_constant("LAYERS").values() for pair in pairs]
    pairs += [("sfk.ffn", span.split(".")[1]) for span in tracer_constant("FFN_SPANS")]
    pairs.append(("sfk", "expert_balance"))
    assert len(pairs) > 20
    missing = [f"{mod}.{fn}" for mod, fn in pairs
               if not callable(getattr(importlib.import_module(mod), fn, None))]
    assert missing == []
