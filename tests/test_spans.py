"""The benchmark's span targets name functions and methods that exist,
``saturate`` builds every window its traced run checks, and the carriers its
traced ``soundness`` run wraps give the same results wrapped."""

import importlib
import json
import random
import sys
from pathlib import Path

import pytest

from homalgebra import cli, congruence
from homalgebra.algebras import poly_algebra, q_poly_algebra

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def perfbench_spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans


SPANS = perfbench_spans()
TARGETS = SPANS.TARGETS


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


# the benchmark's traced ``soundness`` run wraps these two carriers' element
# operations with ``dataclasses.replace``, so each must stay a plain
# descriptor whose wrapped operations give the unwrapped results
@pytest.mark.parametrize("build", [lambda: poly_algebra(["u", "v"]),
                                   lambda: q_poly_algebra(2)],
                         ids=["classical", "twisted"])
def test_traced_soundness_carriers_keep_their_results(build):
    recorder = SPANS.Recorder()
    plain = build()
    traced = recorder.wrap_descriptor(plain)
    rng = random.Random(4)
    for _ in range(8):
        x, y = plain.rand(rng), plain.rand(rng)
        c = rng.randint(-3, 3)
        assert traced.mul(x, y) == plain.mul(x, y)
        assert traced.alpha(x) == plain.alpha(x)
        assert traced.add(x, y) == plain.add(x, y)
        assert traced.scale(c, x) == plain.scale(c, x)
        assert traced.eq(x, y) == plain.eq(x, y) and traced.eq(x, x)
    recorded = {recorder.names[i] for i in recorder.name_id}
    assert recorded == {"algebras.mul", "algebras.alpha", "algebras.add_scale", "algebras.eq"}
