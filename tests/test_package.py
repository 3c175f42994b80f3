import importlib
import pkgutil

import pytest

import twopointwave

# every module but __main__, which runs the command line on import
MODULES = [m.name for m in pkgutil.iter_modules(twopointwave.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"twopointwave.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
