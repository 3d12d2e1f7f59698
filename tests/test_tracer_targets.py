"""The names ``perfbench/tracing.py`` patches exist, and they are the only imports kept unused.

A traced benchmark run swaps each ``(module, name)`` of its
``_FUNCTION_TARGETS`` for a wrapper, so ``verify`` and ``perturbation``
keep some names imported that they never call.  A name dropped from
such an import would break only the traced run; these tests catch it
here, and catch an unused import that no tracer target explains.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def targets():
    """``_FUNCTION_TARGETS`` as (module, name) pairs, run from the source so that nothing is written beside it."""
    module = types.ModuleType("perfbench_tracing")
    sys.modules[module.__name__] = module  # dataclasses looks its module up while the class is made
    try:
        exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return [(mod, name) for mod, name, _ in module._FUNCTION_TARGETS]


def unused_imports(module_name: str) -> set[str]:
    """The names a module imports at its top level and never reads."""
    tree = ast.parse(Path(importlib.import_module(module_name).__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_tracer_target_exists(targets):
    for mod, name in targets:
        module = importlib.import_module("domkit" + ("." + mod if mod else ""))
        assert hasattr(module, name), (mod, name)


@pytest.mark.parametrize("mod", ["verify", "perturbation"])
def test_only_tracer_targets_are_imported_unused(targets, mod):
    unused = unused_imports(f"domkit.{mod}")
    assert unused <= {name for owner, name in targets if owner == mod}, unused
