import os
import subprocess
import sys
from pathlib import Path

import pytest

import smellstab


@pytest.mark.parametrize("module", ["smellstab.mining.gitio", "smellstab.stats.kernels", "smellstab.lexer"])
def test_a_module_import_loads_only_what_it_uses(module):
    """The package __init__ files re-export nothing, so a module loads its package chain and itself."""
    src = str(Path(smellstab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"import sys, {module}\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'smellstab'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    parts = module.split(".")
    assert out.split() == [".".join(parts[:i]) for i in range(1, len(parts) + 1)]
