"""The names a traced benchmark pass wraps (perfbench/spans.py) exist in
the modules it looks them up in, so a deletion or rename that would break
a ``--trace 1`` run fails here too."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_after_importing_the_cli():
    spans = _spans()
    import holocirc.cli  # noqa: F401  (the traced pass imports only this)

    for modname, attr in spans.SPANNED:
        assert callable(getattr(sys.modules[f"holocirc.{modname}"], attr)), (modname, attr)
    for modname, clsname, attr in spans.COUNTED:
        owner = sys.modules[f"holocirc.{modname}"]
        if clsname is not None:
            owner = getattr(owner, clsname)
        assert callable(getattr(owner, attr)), (modname, clsname, attr)
    # each claim's runner is swapped by dataclasses.replace
    registry = sys.modules["holocirc.claims"].REGISTRY
    assert registry
    for claim in registry.values():
        assert dataclasses.is_dataclass(claim) and not isinstance(claim, type), claim
