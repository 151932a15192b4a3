import importlib

import pytest


@pytest.mark.parametrize("module", ["smellstab", "smellstab.stats", "smellstab.mining"])
def test_every_exported_name_exists(module):
    # a stale __all__ entry breaks `from <module> import *`
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
