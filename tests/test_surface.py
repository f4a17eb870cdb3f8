"""The package root exports nothing: every name is imported from its module.

Each check runs in a fresh interpreter under -X dev -W error, so a module
that leans on another being imported first, or warns on import, fails.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import behavrules

PACKAGE = Path(behavrules.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.name.startswith("_"))


def _python(code):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)


def test_the_package_root_loads_no_module():
    done = _python("import sys, behavrules; "
                   "print(sorted(m for m in sys.modules if m.startswith('behavrules.')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    done = _python("import behavrules.%s" % module)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
