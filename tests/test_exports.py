import importlib
import pkgutil

import pytest

import partition_well

MODULES = [partition_well] + [importlib.import_module(f"partition_well.{info.name}")
                              for info in pkgutil.iter_modules(partition_well.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_export_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
