"""The benchmark's span targets name functions and methods that exist."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def span_targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans.TARGETS


TARGETS = span_targets()


# the benchmark judges a traced run whose target is missing as incorrect, so a
# deletion of a wrapped name must fail here first
@pytest.mark.parametrize("module,attribute", [t[:2] for t in TARGETS],
                         ids=[t[2] for t in TARGETS])
def test_span_target_resolves(module, attribute):
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
