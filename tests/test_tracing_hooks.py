"""The benchmark's traced run (``perfbench/run.py --trace 1``) replaces the
library functions listed in ``perfbench.tracing.WRAPPED`` by name.  A rename
or a moved import in ``starpar`` would break that run.  This suite also
collects the benchmark's smoke test (``testpaths`` in ``pyproject.toml``),
whose traced cases would then fail inside a benchmark subprocess; checking
the names here fails at once and names each one that no longer resolves."""

import importlib

from perfbench.tracing import WRAPPED


def test_wrapped_names_resolve():
    missing = [
        f"starpar.{module_name}.{attr}"
        for module_name, attr, _, _ in WRAPPED
        if not callable(getattr(importlib.import_module(f"starpar.{module_name}"), attr, None))
    ]
    assert missing == []
