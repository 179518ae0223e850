"""The names that ``perfbench/run.py --trace 1`` wraps must exist in toughkit.

The benchmark script is read with ``ast``, not imported, so this check
needs none of its dependencies and cannot change it.
"""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def traced_targets():
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN} assigns no TRACED tuple")


def test_every_traced_name_resolves():
    targets = traced_targets()
    assert len(targets) > 20
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _span, _is_gen in targets
        if not callable(getattr(importlib.import_module(f"toughkit.{mod}"), attr, None))
    ]
    assert missing == []
