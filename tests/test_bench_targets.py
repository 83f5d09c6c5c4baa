"""The benchmark traces ve2d functions by name (TARGETS in bench/run.py);
a rename must fail here, not only in a benchmark run."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def traced_targets():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {RUN_PY}")


def test_every_traced_target_is_defined():
    targets = traced_targets()
    assert targets
    missing = [f"{mod}.{name}" for mod, name in targets
               if not callable(getattr(importlib.import_module(f"ve2d.{mod}"),
                                       name, None))]
    assert not missing, missing
