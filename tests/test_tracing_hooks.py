"""The benchmark's traced run (``perfbench/run.py --trace 1``) replaces the
library functions listed in ``perfbench.tracing.WRAPPED`` by name.  A rename
or a moved import in ``starpar`` would break that run, and the benchmark's
own smoke test is not part of this suite, so the names are checked here."""

import importlib

from perfbench.tracing import WRAPPED


def test_wrapped_names_resolve():
    missing = [
        f"starpar.{module_name}.{attr}"
        for module_name, attr, _, _ in WRAPPED
        if not callable(getattr(importlib.import_module(f"starpar.{module_name}"), attr, None))
    ]
    assert missing == []
