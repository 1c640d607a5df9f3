"""Every experiment script in scripts/ still imports.

The scripts run long experiments, so this file does not run them; it loads
each one as a module, which runs its imports but not ``main``.  A name a
script imports that the package renamed or deleted fails here.  The
acceptance suite runs the studies the scripts define.
"""

from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts")
                 .glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_imports_and_defines_main(path, load_script):
    assert callable(getattr(load_script(path.stem), "main", None))
