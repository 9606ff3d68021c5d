import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import partition_well

MODULES = [partition_well] + [importlib.import_module(f"partition_well.{info.name}")
                              for info in pkgutil.iter_modules(partition_well.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_export_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_no_module_imports_private_names():
    # each module keeps its underscore names (dunders aside) to itself: a
    # name another module needs is public, or the code that needs it lives
    # beside it
    offences = []
    for path in sorted(Path(partition_well.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("partition_well")):
                offences += [f"{path.name}: {alias.name}" for alias in node.names
                             if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert offences == []
