"""The benchmark reaches into composer by name; every name it uses must exist.

``perfbench/tracer.py`` wraps the functions listed in ``LAYER_FUNCTIONS``,
and ``perfbench/run.py`` observes the results of ``ASSEMBLERS``.  Both are
read here as source with :mod:`ast`, so neither file is run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal(path, name):
    """Value of the module-level literal assignment ``name = ...`` in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def _resolve(module, attribute_path):
    obj = importlib.import_module(f"composer.{module}")
    for part in attribute_path.split("."):
        obj = getattr(obj, part)
    return obj


LAYER_FUNCTIONS = _literal(PERFBENCH / "tracer.py", "LAYER_FUNCTIONS")
ASSEMBLERS = _literal(PERFBENCH / "run.py", "ASSEMBLERS")


@pytest.mark.parametrize("span", sorted(LAYER_FUNCTIONS))
def test_traced_layer_function_exists(span):
    module, attribute_path = LAYER_FUNCTIONS[span]
    assert callable(_resolve(module, attribute_path))


@pytest.mark.parametrize("name", ASSEMBLERS)
def test_observed_assembler_exists(name):
    module, _, attribute_path = name.partition(".")
    assert callable(_resolve(module, attribute_path))
