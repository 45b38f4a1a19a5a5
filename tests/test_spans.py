"""The benchmark's span targets name functions and methods that exist, and
``saturate`` builds every window its traced run checks."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from homalgebra import cli, congruence

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


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


# the benchmark's traced run requires the windows that ``saturate`` returns to
# be the reference's, so a window built around ``saturate`` must fail here first
@pytest.mark.parametrize("inv", [inv for inv in REFERENCE["suites"] if inv["windows"]],
                         ids=lambda inv: inv["kind"])
def test_saturate_sees_the_reference_windows(inv, monkeypatch):
    original, seen = congruence.saturate, []

    def recorded(*args, **kwargs):
        basis = original(*args, **kwargs)
        seen.append({"basis_size": basis.basis_size, "rows_count": basis.rows_count})
        return basis

    # every namespace that bound it, as the benchmark's span recorder wraps it
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "homalgebra" or name.startswith("homalgebra.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, recorded)
    assert cli.main([*inv["argv"], "--json"]) == inv["exit_code"]
    assert seen == inv["windows"]
