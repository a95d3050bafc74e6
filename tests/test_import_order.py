"""Every module of the package imports on its own, first, in a fresh
interpreter.  ``semantics`` reaches back into ``analysis`` for the SCC and
exit passes it caches; that reference must stay a first-use import, never a
load-time cycle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(
    "starpar" if path.stem == "__init__" else f"starpar.{path.stem}"
    for path in (SRC / "starpar").glob("*.py")
)

# After the import, take both cached passes on a one-state loop.
PROBE = """
import {module}
from starpar.semantics import Action, Automaton, Transition

a = Automaton((None,), 0, (Transition(0, Action("a"), 0),), frozenset({{0}}))
assert a._scc.count == 1 and not a._scc.trivial[0]
assert a._exits == (((0,),), (frozenset(),))
"""


def test_every_module_is_listed():
    assert {"starpar", "starpar.analysis", "starpar.semantics", "starpar.cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
