"""The package loads its modules on first use: each check runs in a fresh
interpreter, where nothing has been imported yet."""

import importlib
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = {"algebras", "bialgebras", "congruence", "grammar", "homlie", "morphisms",
           "poly", "reports", "terms"}

# the names ``from homalgebra import *`` gave when the package imported every
# module eagerly (the exported names and the modules), and ``__version__``
NAMES = MODULES | {"__version__"} | {
    "AssignmentError", "Bound", "CheckReport", "EnvelopeBialgebra", "EqualityResult",
    "FreeComoduleAlgebra", "FreeHomBialgebra", "HomAlgebraDescriptor", "HomLieAlgebra",
    "LawItem", "LawReport", "Leaf", "LinComb", "MorphismAssignment", "NamingError", "Node",
    "OutOfWindowError", "Poly", "PolyComoduleAlgebra", "PolyEndo", "PolyHomBialgebra",
    "PreconditionError", "RelationBasis", "ResourceCapError", "SaturationConfig",
    "TermSyntaxError", "UnitFlavor", "UnitMismatchError", "Verdict", "affine_line_twisted", "arity", "bracket_relations", "bracket_sides", "check_comodule",
    "check_comodule_homalgebra", "check_comultiplicative", "check_delta_is_morphism",
    "check_envelope_bialgebra", "check_hom_associative", "check_hom_coassoc",
    "check_hom_lie", "check_multiplicative", "check_unital", "classical_affine_comodule",
    "classical_m2_bialgebra", "dimension_report", "direct_sum",
    "dump_json", "enumerate_terms", "envelope", "evaluate", "format_lincomb", "format_term",
    "free_algebra", "grading", "hom_affine_plane", "hom_lie_algebra",
    "lambda_scaling_pair", "load_hom_lie", "m_bialgebra", "make_leaf", "matrix_algebra",
    "monomials_up_to", "morphism_from_matrix", "parse_lincomb",
    "parse_poly", "poly_algebra", "q_poly_algebra", "random_poly",
    "rename", "rename_embed", "render_text", "report_document", "representability_check",
    "saturate", "twist_comodule", "twist_hom_lie", "weight", "yau_twist_algebra",
    "yau_twist_bialgebra"}

# prints, as JSON, the package modules whose code has run: a module that is
# registered but not loaded is still of the lazy loader's module type
EXECUTED = """
import json, sys, types
print(json.dumps(sorted(n.split(".")[1] for n, m in sys.modules.items()
                        if n.startswith("homalgebra.") and type(m) is types.ModuleType)))
"""


def fresh(code: str) -> str:
    """The stdout of ``code`` run by a new interpreter with ``src`` on its path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), check=True)
    return out.stdout


def test_importing_the_command_line_runs_no_other_module():
    assert json.loads(fresh("import homalgebra.cli" + EXECUTED)) == ["cli"]
    registered = ("import sys, homalgebra\n"
                  "print(sorted(n for n in sys.modules if n.startswith('homalgebra.')))")
    assert fresh(registered).strip() == repr(sorted(f"homalgebra.{m}" for m in MODULES))


def executed_by(argv: list, exit_code: int = 0) -> tuple[set, bool]:
    """The package modules a command runs in a fresh interpreter, and whether
    it imported ``dataclasses``."""
    code = ("import contextlib, io, sys, homalgebra.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert homalgebra.cli.main({argv!r}) == {exit_code}\n"
            "print('dataclasses' in sys.modules)\n")
    dataclasses, modules = fresh(code + EXECUTED).split("\n", 1)
    return set(json.loads(modules)), dataclasses == "True"


def test_reduce_runs_only_the_modules_it_needs():
    # the term grammar reads its literals through ``terms``, and the window's
    # records are plain classes, so neither ``poly`` nor ``dataclasses`` loads
    modules, dataclasses = executed_by(["reduce", "((x * y) * (A 1 z))"])
    assert modules == {"cli", "congruence", "grammar", "reports", "terms"}
    assert not dataclasses


def test_check_algebra_runs_only_the_modules_it_needs(tmp_path):
    f = tmp_path / "twisted.alg"
    f.write_text("kind poly\nvars t\ntwist t = 2*t\n")
    # a twisted carrier's unit is only weak, so unitality fails: exit code 1
    modules, _ = executed_by(["check", "algebra", str(f), "--samples", "5"], 1)
    assert modules == {"cli", "algebras", "poly", "reports", "terms"}


# the carriers decided by the oracle never build a polynomial, and those
# decided exactly never saturate a window or parse a term
@pytest.mark.parametrize("argv,absent", [
    (["verify", "m-coassoc"], {"poly", "homlie"}),
    (["verify", "affine-comodule"], {"poly", "homlie"}),
    (["verify", "envelope", "--max-arity", "2"], {"poly"}),
    (["verify", "m2-representability", "--pairs", "2"], {"congruence", "grammar", "homlie"}),
    (["verify", "m2-representability", "--carrier", "q-poly", "--pairs", "2"],
     {"congruence", "grammar", "homlie"}),
    (["verify", "twist"], {"congruence", "grammar", "homlie"}),
], ids=["m-coassoc", "affine-comodule", "envelope", "m2-representability",
        "m2-representability-q-poly", "twist"])
def test_a_verify_command_skips_the_modules_its_carriers_do_not_use(argv, absent):
    modules, _ = executed_by(argv)
    assert {"cli", "bialgebras", "reports", "terms"} <= modules
    assert not modules & absent


def test_a_free_bialgebra_file_is_read_without_poly(tmp_path):
    # descriptor files are read in ``terms``, and a delta image is a term; at
    # arity 2 the window is too small to prove coassociativity: exit code 1
    f = tmp_path / "free.bialg"
    f.write_text("kind free-bialgebra\ngens a\ndelta a = (a' * a'')\n")
    modules, _ = executed_by(["verify", "m-coassoc", "--file", str(f), "--max-arity", "2"], 1)
    assert "poly" not in modules and {"terms", "grammar", "bialgebras"} <= modules


def test_exported_names_are_the_eager_packages_and_the_version():
    code = ("import json, homalgebra\nns = {}\nexec('from homalgebra import *', ns)\n"
            "print(json.dumps([sorted(set(ns) - {'__builtins__'}), dir(homalgebra)]))")
    star, listed = json.loads(fresh(code))
    assert set(star) == NAMES
    assert set(listed) == NAMES


@pytest.mark.parametrize("name,home", [("saturate", "congruence"), ("Poly", "poly"),
                                       ("LawReport", "reports")])
def test_an_exported_name_is_its_modules_object(name, home):
    import homalgebra
    module = importlib.import_module(f"homalgebra.{home}")
    assert getattr(homalgebra, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="no attribute 'law_report'"):
        homalgebra.law_report


def test_span_targets_resolve_after_importing_the_command_line_alone():
    # the benchmark's launcher imports homalgebra.cli, then wraps its targets
    code = (f"import sys\nsys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            "import homalgebra.cli\nfrom spans import Recorder\nprint(Recorder().install())")
    assert fresh(code).strip() == "[]"


def test_a_failed_command_runs_only_the_modules_it_needs(tmp_path):
    # main classes an input error by the one base class in ``terms``, so a
    # missing file loads no parser, algebra or window
    argv = ["check", "algebra", str(tmp_path / "no.alg")]
    code = ("import contextlib, io, homalgebra.cli\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            f"    assert homalgebra.cli.main({argv!r}) == 2\n"
            "assert err.getvalue().startswith('error: [Errno 2] No such file'), err.getvalue()\n")
    assert json.loads(fresh(code + EXECUTED)) == ["cli", "terms"]


def used_names(path: Path) -> set:
    """The identifiers a Python file uses, but not those a ``def`` or
    ``class`` defines, and its string literals that are a bare identifier
    (the benchmark names its span targets so)."""
    used, previous = set(), None
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                used.add(tok.string)
            elif tok.type == tokenize.STRING:
                bare = re.fullmatch(r"""(['"])(\w+)\1""", tok.string)
                if bare:
                    used.add(bare[2])
            previous = tok.string
    return used


def test_every_exported_name_is_used_outside_the_tests():
    # API that only tests/ call belongs in tests/: the package uses each
    # export beyond its definition, or a demo or the benchmark does
    import homalgebra
    files = [p for p in (ROOT / "src" / "homalgebra").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    used = set().union(*map(used_names, files))
    exported = {name for names in homalgebra._EXPORTS.values() for name in names}
    assert sorted(exported - used) == []
