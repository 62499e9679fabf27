"""Every name perfbench/spans.py traces must exist in zdkit.

The benchmark's traced run patches these names and fails on one that is
gone; this test catches a renamed or deleted name in the tier-1 run.  It
loads spans.py from its file and only reads its tables.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _spans()
    missing = []
    for mod, name in spans.FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"zdkit.{mod}"), name, None)):
            missing.append(f"{mod}.{name}")
    for mod, cls, meth in spans.METHODS:
        owner = getattr(importlib.import_module(f"zdkit.{mod}"), cls, None)
        if owner is None or meth not in vars(owner):
            missing.append(f"{mod}.{cls}.{meth}")
    assert spans.FUNCTIONS and spans.METHODS and not missing, missing
