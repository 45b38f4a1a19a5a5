"""End-to-end command-line runs, exit codes, JSON schema conformance."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest

from homalgebra import cli

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schema" / "report.schema.json").read_text())


def run_cli(*args, text=True, timeout=None):
    """``python -m homalgebra.cli ARGS`` from the repository root, with
    ``src`` on the child's ``PYTHONPATH``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "homalgebra.cli", *args],
                          capture_output=True, text=text, cwd=ROOT, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path))


def validate(doc):
    jsonschema.validate(doc, SCHEMA)
    assert doc["schema_version"] == "1"


def test_reduce_prints_residue():
    out = run_cli("reduce", "((x * y) * (A 1 z))", "--non-unital")
    assert out.returncode == 0
    assert "residue: (x@1 * (y * z))" in out.stdout


def test_reduce_json_schema():
    out = run_cli("reduce", "((x * y) * (A 1 z))", "--non-unital", "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    validate(doc)
    assert doc["parameters"]["residue"] == "(x@1 * (y * z))"


def test_parse_error_has_position_and_exit_2():
    out = run_cli("reduce", "((x * y)")
    assert out.returncode == 2
    assert "line 1" in out.stderr and "column" in out.stderr


def test_verify_m_coassoc_non_unital():
    out = run_cli("verify", "m-coassoc", "--max-arity", "3", "--max-exp", "1",
                  "--non-unital", "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    validate(doc)
    assert doc["passed"] is True
    laws = {r["law"] for r in doc["reports"]}
    assert "hom_coassociativity" in laws


def test_verify_affine_comodule():
    out = run_cli("verify", "affine-comodule", "--non-unital", "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    validate(doc)
    assert doc["passed"] is True


def test_verify_m2_representability_both_carriers():
    out = run_cli("verify", "m2-representability", "--carrier", "classical",
                  "--pairs", "5", "--json")
    assert out.returncode == 0
    validate(json.loads(out.stdout))
    out = run_cli("verify", "m2-representability", "--carrier", "q-poly",
                  "--q", "2", "--pairs", "5", "--json")
    assert out.returncode == 0
    validate(json.loads(out.stdout))


def test_verify_twist_lambda_3():
    out = run_cli("verify", "twist", "--lambda", "3", "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    validate(doc)
    assert doc["passed"] is True


def test_verify_twist_lambda_zero_rejected():
    out = run_cli("verify", "twist", "--lambda", "0")
    assert out.returncode == 2
    assert "invertible" in out.stderr


def test_verify_envelope_default_and_file(tmp_path):
    out = run_cli("verify", "envelope", "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    validate(doc)
    assert "residual_dimensions" in doc["parameters"]
    f = tmp_path / "abelian.homlie"
    f.write_text("names e1 e2\nalpha e1 = 2*e1\nalpha e2 = e2\n")
    out = run_cli("verify", "envelope", str(f), "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["passed"] is True


def test_check_algebra_descriptor_files(tmp_path):
    good = tmp_path / "twisted.alg"
    good.write_text("kind poly\nvars t\ntwist t = 2*t\n")
    out = run_cli("check", "algebra", str(good), "--samples", "20")
    # the twisted carrier fails strict unitality, so the command reports failure
    assert out.returncode == 1
    assert "first failing law: unitality" in out.stderr
    classical = tmp_path / "plane.alg"
    classical.write_text("kind poly\nvars x y\n")
    out = run_cli("check", "algebra", str(classical), "--samples", "20", "--json")
    assert out.returncode == 0
    validate(json.loads(out.stdout))
    matrix = tmp_path / "matrix.alg"
    matrix.write_text("kind matrix\nvars t\ntwist t = 2*t\n")
    out = run_cli("check", "algebra", str(matrix), "--samples", "10", "--json")
    doc = json.loads(out.stdout)
    validate(doc)
    laws = {r["law"]: r["passed"] for r in doc["reports"]}
    assert laws["hom_associativity"] and laws["multiplicativity"]


def test_free_bialgebra_descriptor_file(tmp_path):
    f = tmp_path / "matrix.bialg"
    f.write_text(
        "kind free-bialgebra\n"
        "gens a b c d\n"
        "delta a = (a' * a'') + (b' * c'')\n"
        "delta b = (a' * b'') + (b' * d'')\n"
        "delta c = (c' * a'') + (d' * c'')\n"
        "delta d = (c' * b'') + (d' * d'')\n")
    out = run_cli("verify", "m-coassoc", "--file", str(f), "--non-unital", "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["passed"] is True


def test_resource_cap_error_is_clean():
    out = run_cli("reduce", "a", "--gens",
                  "a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p,q,r", "--max-arity", "4")
    assert out.returncode == 2
    assert "cap" in out.stderr


# each would be read back by the term grammar as another name, or none
@pytest.mark.parametrize("gens,shown", [
    ("x,y@1", "'y@1'"), ("x, y", "' y'"), ("x,(y", "'(y'"), ("x,", "''"), (",", "''")])
def test_bad_generator_name_exits_2_without_traceback(gens, shown):
    out = run_cli("reduce", "(x * x)", "--gens", gens)
    assert out.returncode == 2
    assert out.stderr == f"error: generator name {shown} must match [A-Za-z_][A-Za-z0-9_]*'*\n"


# refused before any window is saturated: a name the term uses but --gens
# leaves out, and a name given twice, in a descriptor file's wording
@pytest.mark.parametrize("term,gens,message", [
    ("(a * b)", "a", "the term names 'b', not listed in --gens a"),
    ("(a * a)", "a,a", "--gens: name 'a' given twice")])
def test_reduce_refuses_gens_that_do_not_fit_the_term(term, gens, message):
    out = run_cli("reduce", term, "--gens", gens)
    assert out.returncode == 2
    assert out.stderr == f"error: {message}\n"


BIALG = "kind free-bialgebra\ngens a b\n"
ALG = "kind poly\nvars t\n"


# every refusal of a descriptor file names the line it refuses
@pytest.mark.parametrize("command,text,line", [
    (("verify", "m-coassoc", "--file"),
     BIALG + "delta a = (a' * zz'')\ndelta b = (b' * b'')\n", 3),
    (("verify", "m-coassoc", "--file"), BIALG + "delta a = (a' * a'')\ndelta b = b\n", 4),
    (("verify", "m-coassoc", "--file"), BIALG + "gens a\ndelta a = (a' * a'')\n", 3),
    (("verify", "m-coassoc", "--file"),
     BIALG + "delta a = (a' * a'')\ndelta b = b'\ndelta a = a'\n", 5),
    (("verify", "m-coassoc", "--file"), BIALG + "delta a = (a' * a''\n", 3),
    (("verify", "m-coassoc", "--file"), "kind free-bialgebra\ngens a b@1\n", 2),
    (("check", "algebra"), ALG + "vars s\n", 3),
    (("check", "algebra"), ALG + "twist t = 2*t\ntwist t = t\n", 4),
    (("check", "algebra"), ALG + "twist s = 2*s\n", 3),
    (("check", "algebra"), ALG + "twist t = u\n", 3),
    (("check", "algebra"), "kind poly\nvars t@1 s\n", 2),
    (("verify", "twist", "--file"), "kind twist\nlambda 3\nphi_H b = 3*b\n", 3),
    (("verify", "twist", "--file"), "kind twist\nphi_H q = 2*q\n", 2),
    (("verify", "twist", "--file"), "kind twist\nphi_H a = a\nphi_H a = 2*a\n", 3),
    (("verify", "envelope"), "names e1 e2@1\n", 1),
    # a repeated word of a gens, vars or names line
    (("verify", "m-coassoc", "--file"), "kind free-bialgebra\ngens a a\n", 2),
    (("check", "algebra"), "kind poly\nvars t t\n", 2),
    (("verify", "envelope"), "dim 2\nnames e1 e1\n", 2),
    # a bracket of a name with itself is nonzero
    (("verify", "envelope"), "names e1 e2\nbracket e1 e1 = e2\n", 2),
    # a dim that int reads but that is not written in digits
    (("verify", "envelope"), "dim 1_0\nnames e1 e2\n", 1),
    (("verify", "envelope"), "dim +2\nnames e1 e2\n", 1),
    # a dim that does not count the names
    (("verify", "envelope"), "dim 3\nnames e1 e2\n", 1),
])
def test_malformed_descriptor_exits_2_naming_its_line(tmp_path, command, text, line):
    f = tmp_path / "descriptor"
    f.write_text(text)
    out = run_cli(*command, str(f))
    assert out.returncode == 2
    assert f"line {line}" in out.stderr
    assert "Traceback" not in out.stderr


# the laws put each generator g in the legs g', g'' and g''': a generator
# that is another's leg would merge two legs, so its gens line is refused
@pytest.mark.parametrize("gens,delta,message", [
    ("a a'", "delta a = (a' * a'')\ndelta a' = (a'' * a''')\n",
     "leg \"a''\" of \"a'\" is also a leg of 'a'"),
    ("b a a''", "", "leg \"a'''\" of \"a''\" is also a leg of 'a'"),
])
def test_colliding_legs_refused_at_gens_line(tmp_path, gens, delta, message):
    f = tmp_path / "legs.bialg"
    f.write_text(f"kind free-bialgebra\ngens {gens}\n{delta}")
    out = run_cli("verify", "m-coassoc", "--file", str(f), "--max-arity", "2")
    assert out.returncode == 2
    assert out.stderr == f"error: line 2: {message}\n"


def test_colliding_legs_refused_at_names_line(tmp_path):
    # the envelope laws tag e into e'' and e' into e'' too
    f = tmp_path / "legs.homlie"
    f.write_text("dim 2\nnames e e'\nalpha e = e\n")
    out = run_cli("verify", "envelope", str(f))
    assert out.returncode == 2
    assert out.stderr == "error: line 2: leg \"e''\" of \"e'\" is also a leg of 'e'\n"


def test_hom_lie_failure_text(tmp_path):
    f = tmp_path / "jacobi.homlie"
    f.write_text("names a b c\nbracket a b = c\nbracket b c = a + 2*b\nbracket a c = 1/2*b\n")
    out = run_cli("verify", "envelope", str(f))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == ("precondition failed: not a multiplicative Hom-Lie algebra: "
                          "hom-Jacobi fails at (a, b, c): 2*c; "
                          "hom-Jacobi fails at (a, c, b): -2*c; "
                          "hom-Jacobi fails at (b, a, c): -2*c\n")


# a twist that breaks the comultiplication is refused on the first generator
# it moves; one that breaks the coaction, with a witness per carrier generator
@pytest.mark.parametrize("phis,message", [
    ("phi_H b = 3*b\n",
     "comultiplication not preserved at a: delta(phi) = a'*a'' + b'*c'' "
     "but (phi x phi)(delta) = a'*a'' + 3*b'*c''"),
    ("phi_H b = 3*b\nphi_H c = 1/3*c\n",
     "coaction compatibility fails on generator x: rho(phi_A(x)) = a*x + b*y "
     "but (phi_H x phi_A)(rho(x)) = a*x + 3*b*y; generator y: "
     "rho(phi_A(y)) = c*x + d*y but (phi_H x phi_A)(rho(y)) = 1/3*c*x + d*y"),
])
def test_twist_refusal_text(tmp_path, phis, message):
    f = tmp_path / "bad.twist"
    f.write_text("kind twist\n" + phis)
    out = run_cli("verify", "twist", "--file", str(f))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"precondition failed: {message}\n"


def test_byte_identical_reports_across_runs():
    args = ("verify", "envelope", "--json", "--seed", "7")
    one = run_cli(*args)
    two = run_cli(*args)
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


def test_timings_flag_is_opt_in():
    out = run_cli("verify", "envelope", "--json", "--timings")
    doc = json.loads(out.stdout)
    assert "elapsed_seconds" in doc
    out = run_cli("verify", "envelope", "--json")
    assert "elapsed_seconds" not in json.loads(out.stdout)


def test_deeply_nested_term_exits_2_without_traceback():
    comb = "x"
    for _ in range(500):
        comb = f"(x * {comb})"
    out = run_cli("reduce", comb)
    assert out.returncode == 2
    assert "nested deeper than" in out.stderr and "line 1, column" in out.stderr
    assert "Traceback" not in out.stderr


def test_deeply_nested_descriptor_polynomial_exits_2_without_traceback(tmp_path):
    expr = "2*t"
    for _ in range(2000):
        expr = f"({expr})"
    f = tmp_path / "deep.alg"
    f.write_text(f"kind poly\nvars t\ntwist t = {expr}\n")
    out = run_cli("check", "algebra", str(f))
    assert out.returncode == 2
    assert "nested deeper than" in out.stderr
    assert "Traceback" not in out.stderr



@pytest.mark.parametrize("argv", [
    ("verify", "twist", "--lambda", "1/0"),
    ("verify", "m2-representability", "--carrier", "q-poly", "--q", "1/0"),
    ("reduce", "1/0 * x"),
])
def test_zero_denominator_exits_2_without_traceback(argv):
    out = run_cli(*argv)
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr


# a zero denominator is refused by the number reader, naming the literal, and
# a descriptor's refusal names its line: a delta image's line too, where an
# oversized coefficient named none either
@pytest.mark.parametrize("command,text,shown", [
    (("check", "algebra"), ALG + "twist t = 1/0*t\n", "number 1/0: zero denominator (line 3)"),
    (("verify", "twist", "--file"), "kind twist\nphi_H a = 2/00*a\n",
     "number 2/00: zero denominator (line 2)"),
    (("verify", "twist", "--file"), "kind twist\nlambda 3/0\n",
     "line 2: lambda 3/0: zero denominator"),
    (("verify", "twist", "--file"), "kind twist\nlambda +3/0\n",
     "line 2: lambda +3/0: zero denominator"),
    (("verify", "envelope"), "names e1 e2\nalpha e1 = 1/0*e1\n",
     "number 1/0: zero denominator (line 2)"),
    (("verify", "m-coassoc", "--file"), BIALG + "delta a = 1/0 * (a' * a'')\n",
     "coefficient 1/0: zero denominator (line 3)"),
    (("verify", "m-coassoc", "--file"), BIALG + f"delta a = {'9' * 1001} * (a' * a'')\n",
     "exponent 2000 (line 3)"),
], ids=["twist", "phi_H", "lambda", "lambda-signed", "alpha", "delta", "delta-oversized"])
def test_number_refused_in_a_descriptor_names_its_line(tmp_path, command, text, shown):
    f = tmp_path / "descriptor"
    f.write_text(text)
    out = run_cli(*command, str(f))
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and out.stderr.rstrip("\n").endswith(shown)
    assert out.stderr.count("\n") == 1


# a decimal exponent is checked before Fraction builds 10 ** exponent, and a
# numerator or denominator above terms.MAX_POLY_SIZE bits is refused
@pytest.mark.parametrize("argv,name", [
    (("verify", "twist", "--lambda", "1e100000"), "--lambda"),
    (("verify", "twist", "--lambda", "1e5000"), "--lambda"),
    (("verify", "twist", "--lambda", "1/" + "7" * 400), "--lambda"),
    (("verify", "m2-representability", "--carrier", "q-poly", "--q", "1e5000"), "--q"),
    (("verify", "m2-representability", "--carrier", "q-poly", "--q", "1e100000"), "--q"),
    (("verify", "twist", "--file", "huge.twist"), "line 2: lambda"),
])
def test_oversized_rational_parameter_exits_2_without_traceback(tmp_path, argv, name):
    f = tmp_path / "huge.twist"
    f.write_text("kind twist\nlambda 1e100000\n")
    argv = [str(f) if a == f.name else a for a in argv]
    out = run_cli(*argv, timeout=2)
    assert out.returncode == 2
    assert out.stderr.startswith(f"error: {name} ")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("lam,shown", [("5/2", "5/2"), ("0.5", "1/2"), ("1/3", "1/3")])
def test_rational_lambda_forms_are_accepted(lam, shown):
    out = run_cli("verify", "twist", "--lambda", lam, "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["parameters"]["lambda"] == shown


@pytest.mark.parametrize("power", ["t^100000000", "((1+t)^50)^50"])
def test_oversized_descriptor_power_exits_2_without_traceback(tmp_path, power):
    f = tmp_path / "huge.alg"
    f.write_text(f"kind poly\nvars t\ntwist t = {power}\n")
    out = run_cli("check", "algebra", str(f), timeout=2)
    assert out.returncode == 2
    assert "size bound" in out.stderr or "above the bound" in out.stderr
    assert "Traceback" not in out.stderr


HUGE = "9" * 5000  # above Python's 4,300-digit limit on int conversion


# a number literal in a term or a descriptor polynomial is read by the bounded
# terms.parse_rational, which refuses it before any int conversion
@pytest.mark.parametrize("argv,name", [
    (("reduce", f"{HUGE} * x"), "coefficient"),
    (("check", "algebra", "huge.alg"), "number"),
])
def test_oversized_number_literal_exits_2_without_traceback(tmp_path, argv, name):
    f = tmp_path / "huge.alg"
    f.write_text(f"kind poly\nvars t\ntwist t = {HUGE}*t\n")
    argv = [str(f) if a == f.name else a for a in argv]
    out = run_cli(*argv, timeout=2)
    assert out.returncode == 2
    assert out.stderr.startswith(f"error: {name} 99999")
    assert "above the size bound" in out.stderr
    assert "Traceback" not in out.stderr


def test_dim_that_does_not_count_the_names_is_refused_naming_both_lines(tmp_path):
    f = tmp_path / "dim.lie"
    f.write_text("names e1 e2\ndim 3\n")
    out = run_cli("verify", "envelope", str(f))
    assert out.returncode == 2
    assert out.stderr == "error: line 2: dim 3 does not match the 2 names of line 1\n"


# a count is digits 0-9, as a Hom-Lie dim is: a sign, an underscore or
# another script's digit is refused by argparse, which names the option; the
# window bounds and the seed are counts too
@pytest.mark.parametrize("argv", [
    ("verify", "m2-representability", "--pairs", "-2"),
    ("verify", "m2-representability", "--pairs", "1_0"),
    ("check", "algebra", "perfbench/data/twisted_matrix.alg", "--samples", "-3"),
    ("check", "algebra", "perfbench/data/twisted_matrix.alg", "--samples", "+3"),
    ("reduce", "x", "--max-arity", "1_0"),
    ("reduce", "x", "--max-exp", "+0"),
    ("reduce", "x", "--seed", "-1"),
    ("verify", "m-coassoc", "--max-exp", "\u0661"),
    ("verify", "envelope", "--max-arity", "-2"),
    ("verify", "twist", "--seed", "7.0"),
])
def test_negative_or_non_digit_count_exits_2_naming_its_option(argv):
    out = run_cli(*argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert f"error: argument {argv[-2]}: invalid natural value: '{argv[-1]}'" in out.stderr
    assert "Traceback" not in out.stderr


# numbers are written in the digits 0-9: another script's digit is an
# unexpected character, never a number
@pytest.mark.parametrize("argv,shown", [
    (("reduce", "x@\u0663"), "parse error: unexpected character '\u0663' (line 1, column 3)"),
    (("reduce", "(A \u0663 x)"), "parse error: unexpected character '\u0663' (line 1, column 4)"),
    (("reduce", "\u0662 * x"), "parse error: unexpected character '\u0662' (line 1, column 1)"),
    (("check", "algebra", "digits.alg"),
     "error: bad polynomial syntax: unexpected character '\u0662' at column 11 of"
     " '\u0662*t' (line 3)"),
    (("verify", "twist", "--lambda", "\u0663"),
     "error: --lambda: Invalid literal for Fraction: '\u0663'"),
])
def test_other_scripts_digits_are_refused(tmp_path, argv, shown):
    f = tmp_path / "digits.alg"
    f.write_text("kind poly\nvars t\ntwist t = \u0662*t\n", encoding="utf-8")
    argv = [str(f) if a == f.name else a for a in argv]
    out = run_cli(*argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == shown + "\n"


# a descriptor image is read in its place on its line: an error's column
# counts from the line's start, past the directive, the name and any spaces
@pytest.mark.parametrize("command,text,shown", [
    (("check", "algebra"), ALG + "\ntwist t = \u0662*t\n",
     "error: bad polynomial syntax: unexpected character '\u0662' at column 11 of"
     " '\u0662*t' (line 4)"),
    (("verify", "twist", "--file"), "kind twist\nphi_H  b =  \u0662*b  # twice b\n",
     "error: bad polynomial syntax: unexpected character '\u0662' at column 13 of"
     " '\u0662*b' (line 2)"),
    (("verify", "envelope"), "names e1 e2\nalpha e1 = e1\nalpha e2 =   \u0663*e2\n",
     "error: bad polynomial syntax: unexpected character '\u0663' at column 14 of"
     " '\u0663*e2' (line 3)"),
    (("verify", "envelope"), "names e1 e2\nbracket e1 e2 = \u0662*e2\n",
     "error: bad polynomial syntax: unexpected character '\u0662' at column 17 of"
     " '\u0662*e2' (line 2)"),
    (("verify", "m-coassoc", "--file"), BIALG + "delta a = (a' * a'')\ndelta  b = (b' * \u0662)\n",
     "parse error: unexpected character '\u0662' (line 4, column 18)"),
], ids=["twist", "phi_H", "alpha", "bracket", "delta"])
def test_descriptor_image_errors_count_columns_from_the_line_start(tmp_path, command, text,
                                                                  shown):
    f = tmp_path / "descriptor"
    f.write_text(text, encoding="utf-8")
    out = run_cli(*command, str(f))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == shown + "\n"


# a keyed line without its "=" names the directive's form, for brackets as for alpha
@pytest.mark.parametrize("text,shown", [
    ("names e1 e2\nalpha e1\n", "error: line 2: expected alpha NAME = IMAGE"),
    ("names e1 e2\nbracket e1 e2\n", "error: line 2: expected bracket NAME NAME = IMAGE"),
], ids=["alpha", "bracket"])
def test_hom_lie_lines_without_equals_are_refused(tmp_path, text, shown):
    f = tmp_path / "descriptor.homlie"
    f.write_text(text, encoding="utf-8")
    out = run_cli("verify", "envelope", str(f))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == shown + "\n"


# the command that reads each kind of descriptor file, at small windows and
# sample counts
COMMANDS = {
    "alg": lambda f: ["check", "algebra", f, "--samples", "5"],
    "twist": lambda f: ["verify", "twist", "--file", f],
    "bialg": lambda f: ["verify", "m-coassoc", "--file", f, "--max-arity", "2"],
    "homlie": lambda f: ["verify", "envelope", f, "--max-arity", "2"],
}


def run_descriptor(kind: str, data: bytes) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the kind's command, run in process on a
    file of ``data``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"descriptor.{kind}"
        path.write_bytes(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(COMMANDS[kind](str(path)))
    return code, out.getvalue(), err.getvalue()


# One table of refusals over the four formats: the exit code and the whole
# stderr.  The error of a line's form reads "line N: ...", that of its image
# "... (line N)", and only a file that lacks a line is refused as a whole.
REFUSALS = [
    # .alg
    ("alg", "kind-wrong", "kind lie\nvars t\n", 2,
     "error: line 1: expected kind poly or matrix\n"),
    ("alg", "kind-empty", "kind\nvars t\n", 2,
     "error: line 1: expected kind poly or matrix\n"),
    ("alg", "kind-missing", "vars t\ntwist t = 2*t\n", 2,
     "error: descriptor kind must be poly or matrix\n"),
    ("alg", "kind-twice", "kind poly\nkind matrix\nvars t\n", 2,
     "error: line 2: second kind line\n"),
    ("alg", "vars-missing", "kind poly\n", 2,
     "error: descriptor needs a vars line\n"),
    ("alg", "vars-twice", "kind poly\nvars t\nvars s\n", 2,
     "error: line 3: second vars line\n"),
    ("alg", "vars-empty", "kind poly\nvars\ntwist t = 2*t\n", 2,
     "error: line 2: expected at least one name\n"),
    ("alg", "vars-repeated", "kind poly\nvars t t\n", 2,
     "error: line 2: name 't' given twice\n"),
    ("alg", "vars-bad-name", "kind poly\nvars t@1\n", 2,
     "error: line 2: name 't@1' must match [A-Za-z_][A-Za-z0-9_]*'*\n"),
    ("alg", "twist-before-vars", "kind poly\ntwist t = 2*t\nvars t\n", 2,
     "error: line 2: vars must come before twist\n"),
    ("alg", "twist-unknown", "kind poly\nvars t\ntwist s = 2*s\n", 2,
     "error: line 3: twist of unknown name 's'\n"),
    ("alg", "twist-no-key", "kind poly\nvars t\ntwist = 2*t\n", 2,
     "error: line 3: expected twist NAME = IMAGE\n"),
    ("alg", "twist-twice", "kind poly\nvars t\ntwist t = 2*t\ntwist t = t\n", 2,
     "error: line 4: second twist of t\n"),
    ("alg", "twist-no-equals", "kind poly\nvars t\ntwist t 2*t\n", 2,
     "error: line 3: expected twist NAME = IMAGE\n"),
    ("alg", "twist-unknown-variable", "kind poly\nvars t\ntwist t = u\n", 2,
     "error: unknown variable 'u' (line 3)\n"),
    ("alg", "twist-bad-syntax", "kind poly\nvars t\ntwist t = 2*\n", 2,
     "error: bad polynomial syntax near '' (line 3)\n"),
    ("alg", "twist-zero-denominator", "kind poly\nvars t\ntwist t = 1/0*t\n", 2,
     "error: number 1/0: zero denominator (line 3)\n"),
    ("alg", "twist-budget", "kind poly\nvars t\n\ntwist t = 1 + t^20\n", 2,
     "error: twist t = 1 + t^20: its composites in the checks are out of bounds: polynomial "
     "above the size bound 1000 (degree, terms or coefficient bits) (line 4)\n"),
    ("alg", "twist-budget-matrix", "kind matrix\nvars s t\ntwist s = s\ntwist t = t^3\n", 2,
     "error: twist t = t^3: its composites in the checks are out of bounds: polynomial above "
     "the size bound 31 (degree, terms or coefficient bits) (line 4)\n"),
    ("alg", "unknown-directive", "kind poly\nvars t\nfoo t\n", 2,
     "error: line 3: unknown directive 'foo'\n"),
    ("alg", "undecodable", b'kind poly\nvars t\xff\n', 2,
     "error: line 2: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte\n"),
    # .twist
    ("twist", "kind-wrong", "kind bialgebra\nlambda 3\n", 2,
     "error: line 1: expected kind twist\n"),
    ("twist", "kind-twice", "kind twist\nkind twist\n", 2,
     "error: line 2: second kind line\n"),
    ("twist", "lambda-twice", "kind twist\nlambda 3\nlambda 2\n", 2,
     "error: line 3: second lambda line\n"),
    ("twist", "lambda-then-phi", "kind twist\nlambda 3\nphi_H b = 3*b\n", 2,
     "error: line 3: lambda and phi lines exclude each other\n"),
    ("twist", "phi-then-lambda", "kind twist\nphi_A y = 3*y\nlambda 3\n", 2,
     "error: line 3: lambda and phi lines exclude each other\n"),
    ("twist", "lambda-bad", "kind twist\nlambda abc\n", 2,
     "error: line 2: lambda: Invalid literal for Fraction: 'abc'\n"),
    ("twist", "lambda-empty", "kind twist\nlambda\n", 2,
     "error: line 2: lambda: Invalid literal for Fraction: ''\n"),
    ("twist", "lambda-zero-denominator", "kind twist\nlambda 1/0\n", 2,
     "error: line 2: lambda 1/0: zero denominator\n"),
    ("twist", "phi-unknown", "kind twist\nphi_H q = 2*q\n", 2,
     "error: line 2: phi_H of unknown name 'q'\n"),
    ("twist", "phi-twice", "kind twist\nphi_H a = a\nphi_H a = 2*a\n", 2,
     "error: line 3: second phi_H of a\n"),
    ("twist", "phi-no-equals", "kind twist\nphi_A x 2*x\n", 2,
     "error: line 2: expected phi_A NAME = IMAGE\n"),
    ("twist", "phi-unknown-variable", "kind twist\nphi_A x = 2*a\n", 2,
     "error: unknown variable 'a' (line 2)\n"),
    ("twist", "phi-bad-syntax", "kind twist\nphi_H a = (a\n", 2,
     "error: missing ')' (line 2)\n"),
    ("twist", "unknown-directive", "kind twist\nmu 3\n", 2,
     "error: line 2: unknown directive 'mu'\n"),
    ("twist", "undecodable", b'kind twist\nlambda 3 # \xe9\n', 2,
     "error: line 2: 'utf-8' codec can't decode byte 0xe9 in position 11: unexpected end of "
     "data\n"),
    # .bialg
    ("bialg", "kind-wrong", "kind bialgebra\ngens a\ndelta a = (a' * a'')\n", 2,
     "error: line 1: expected kind free-bialgebra\n"),
    ("bialg", "kind-twice", "kind free-bialgebra\nkind free-bialgebra\ngens a\n", 2,
     "error: line 2: second kind line\n"),
    ("bialg", "empty", "", 2,
     "error: descriptor needs gens and a delta image per generator\n"),
    ("bialg", "gens-twice", "kind free-bialgebra\ngens a\ngens a\n", 2,
     "error: line 3: second gens line\n"),
    ("bialg", "gens-empty", "kind free-bialgebra\ngens # none\ndelta a = (a' * a'')\n", 2,
     "error: line 2: expected at least one name\n"),
    ("bialg", "gens-repeated", "kind free-bialgebra\ngens a a\n", 2,
     "error: line 2: name 'a' given twice\n"),
    ("bialg", "gens-bad-name", "kind free-bialgebra\ngens a@1\n", 2,
     "error: line 2: name 'a@1' must match [A-Za-z_][A-Za-z0-9_]*'*\n"),
    ("bialg", "gens-leg-collision", "kind free-bialgebra\ngens a a'\n", 2,
     'error: line 2: leg "a\'\'" of "a\'" is also a leg of \'a\'\n'),
    ("bialg", "gens-leg-collision-third", "kind free-bialgebra\ngens b a a''\n", 2,
     'error: line 2: leg "a\'\'\'" of "a\'\'" is also a leg of \'a\'\n'),
    ("bialg", "delta-before-gens", "kind free-bialgebra\ndelta a = (a' * a'')\ngens a\n", 2,
     "error: line 2: gens must come before delta\n"),
    ("bialg", "delta-missing", "kind free-bialgebra\ngens a b\ndelta a = (a' * a'')\n", 2,
     "error: descriptor needs gens and a delta image per generator\n"),
    ("bialg", "delta-unknown", "kind free-bialgebra\ngens a\ndelta c = (a' * a'')\n", 2,
     "error: line 3: delta of unknown name 'c'\n"),
    ("bialg", "delta-twice",
     "kind free-bialgebra\ngens a\ndelta a = (a' * a'')\ndelta a = a'\n", 2,
     "error: line 4: second delta of a\n"),
    ("bialg", "delta-no-equals", "kind free-bialgebra\ngens a\ndelta a (a' * a'')\n", 2,
     "error: line 3: expected delta NAME = IMAGE\n"),
    ("bialg", "delta-not-a-leg", "kind free-bialgebra\ngens a\ndelta a = (a' * zz'')\n", 2,
     'error: delta a names "zz\'\'", not a leg g\' or g\'\' of a generator g (line 3)\n'),
    ("bialg", "delta-bare-generator", "kind free-bialgebra\ngens a\ndelta a = a\n", 2,
     "error: delta a names 'a', not a leg g' or g'' of a generator g (line 3)\n"),
    ("bialg", "delta-bad-syntax", "kind free-bialgebra\ngens a\ndelta a = (a' * a''\n", 2,
     "parse error: expected ), got 'end of input' (line 3, column 20)\n"),
    ("bialg", "delta-zero-denominator",
     "kind free-bialgebra\ngens a\ndelta a = 1/0 * (a' * a'')\n", 2,
     "error: coefficient 1/0: zero denominator (line 3)\n"),
    ("bialg", "unknown-directive", "kind free-bialgebra\ngens a\ncodelta a = a'\n", 2,
     "error: line 3: unknown directive 'codelta'\n"),
    ("bialg", "undecodable", b"kind free-bialgebra\ngens a\ndelta a = (a' * a'')\xc3\n", 2,
     "error: line 3: 'utf-8' codec can't decode byte 0xc3 in position 20: unexpected end of "
     "data\n"),
    # .homlie
    ("homlie", "names-missing", "dim 2\n", 2,
     "error: missing 'names' line\n"),
    ("homlie", "names-twice", "names e1 e2\nnames e1\n", 2,
     "error: line 2: second names line\n"),
    ("homlie", "names-empty", "dim 0\nnames\n", 2,
     "error: line 2: expected at least one name\n"),
    ("homlie", "names-repeated", "names e1 e1\n", 2,
     "error: line 1: name 'e1' given twice\n"),
    ("homlie", "names-leg-collision", "names e e'\n", 2,
     'error: line 1: leg "e\'\'" of "e\'" is also a leg of \'e\'\n'),
    ("homlie", "dim-twice", "dim 2\ndim 2\nnames e1 e2\n", 2,
     "error: line 2: second dim line\n"),
    ("homlie", "dim-not-digits", "dim x\nnames e1\n", 2,
     "error: line 1: dim must be written in the digits 0-9\n"),
    ("homlie", "dim-above-names", "dim 3\nnames e1 e2\n", 2,
     "error: line 1: dim 3 does not match the 2 names of line 2\n"),
    ("homlie", "dim-after-names", "names e1 e2\ndim 3\n", 2,
     "error: line 2: dim 3 does not match the 2 names of line 1\n"),
    ("homlie", "alpha-before-names", "alpha e1 = e1\nnames e1 e2\n", 2,
     "error: line 1: names must come before alpha\n"),
    ("homlie", "bracket-before-names", "bracket e1 e2 = e2\nnames e1 e2\n", 2,
     "error: line 1: names must come before bracket\n"),
    ("homlie", "bracket-twice", "names e1 e2\nbracket e1 e2 = e2\nbracket e1 e2 = e1\n", 2,
     "error: line 3: second bracket of e1 and e2\n"),
    ("homlie", "bracket-reversed", "names e1 e2\nbracket e1 e2 = e2\nbracket e2 e1 = e1\n", 2,
     "error: line 3: second bracket of e2 and e1\n"),
    ("homlie", "bracket-unknown", "names e1 e2\nbracket e1 e3 = e2\n", 2,
     "error: line 2: bracket of unknown name 'e3'\n"),
    ("homlie", "bracket-one-name", "names e1 e2\nbracket e1 = e2\n", 2,
     "error: line 2: expected bracket NAME NAME = IMAGE\n"),
    ("homlie", "bracket-three-names", "names e1 e2\nbracket e1 e2 e1 = e2\n", 2,
     "error: line 2: expected bracket NAME NAME = IMAGE\n"),
    ("homlie", "bracket-no-equals", "names e1 e2\nbracket e1 e2\n", 2,
     "error: line 2: expected bracket NAME NAME = IMAGE\n"),
    ("homlie", "bracket-self", "names e1 e2\nbracket e1 e1 = e2\n", 2,
     "error: bracket of e1 with itself must vanish (line 2)\n"),
    ("homlie", "alpha-unknown", "names e1 e2\nalpha e3 = e1\n", 2,
     "error: line 2: alpha of unknown name 'e3'\n"),
    ("homlie", "alpha-twice", "names e1 e2\nalpha e1 = e1\nalpha e1 = e2\n", 2,
     "error: line 3: second alpha of e1\n"),
    ("homlie", "alpha-no-equals", "names e1 e2\nalpha e1\n", 2,
     "error: line 2: expected alpha NAME = IMAGE\n"),
    ("homlie", "alpha-unknown-variable", "names e1 e2\nalpha e1 = x\n", 2,
     "error: unknown variable 'x' (line 2)\n"),
    ("homlie", "alpha-constant", "names e1 e2\nalpha e1 = 1 + e1\n", 2,
     "error: constant term not allowed in '1 + e1' (line 2)\n"),
    ("homlie", "alpha-not-linear", "names e1 e2\nalpha e1 = e1*e2\n", 2,
     "error: expression must be linear in basis names: 'e1*e2' (line 2)\n"),
    ("homlie", "alpha-bad-syntax", "names e1 e2\nalpha e1 = (e1\n", 2,
     "error: missing ')' (line 2)\n"),
    ("homlie", "unknown-directive", "names e1 e2\ntwist e1 = e1\n", 2,
     "error: line 2: unknown directive 'twist'\n"),
    ("homlie", "undecodable", b'names e1 e2\n\nalpha e1 = \x80e1\n', 2,
     "error: line 3: 'utf-8' codec can't decode byte 0x80 in position 11: invalid start byte\n"),
]


@pytest.mark.parametrize("kind,name,data,code,stderr", REFUSALS,
                         ids=[f"{kind}-{name}" for kind, name, *_ in REFUSALS])
def test_refusal_table(kind, name, data, code, stderr):
    data = data if isinstance(data, bytes) else data.encode()
    assert run_descriptor(kind, data) == (code, "", stderr)


# a line ends at \n, \r\n or \r in every format: a form feed, a vertical tab,
# 0x1c-0x1e, NEL and the Unicode line separators are spaces inside a line
@pytest.mark.parametrize("kind,text,stderr", [
    ("alg", "kind poly\f\r\nvars t\x1c\rtwist t = u\n",
     "error: unknown variable 'u' (line 3)\n"),
    ("twist", "kind twist\x85\r\n\u2028\nphi_A x = 2*a\r",
     "error: unknown variable 'a' (line 3)\n"),
    ("bialg", "kind free-bialgebra\ngens a\f\ndelta a = (a' * zz'')\n",
     "error: delta a names \"zz''\", not a leg g' or g'' of a generator g (line 3)\n"),
    ("homlie", "names e1 e2\f\nalpha e1 = x\u2029\v\n",
     "error: unknown variable 'x' (line 2)\n"),
], ids=["alg", "twist", "bialg", "homlie"])
def test_lines_end_at_newlines_only(kind, text, stderr):
    assert run_descriptor(kind, text.encode()) == (2, "", stderr)


# a descriptor saved with a UTF-8 byte order mark reads as the file without
# it, in every format: a good file and one refused at a later line
@pytest.mark.parametrize("kind,text", [
    ("alg", "kind poly\nvars t\ntwist t = 2*t\n"),
    ("alg", "kind poly\nvars t\ntwist t = u\n"),
    ("twist", "kind twist\nlambda 5/2\n"),
    ("twist", "kind twist\nphi_A x = 2*a\n"),
    ("bialg", "kind free-bialgebra\ngens a\ndelta a = (a' * a'')\n"),
    ("bialg", "kind free-bialgebra\ngens a\ndelta a = (a' * zz'')\n"),
    ("homlie", "names x y z\nbracket x y = z\nalpha x = x + y\n"),
    ("homlie", "names e1 e2\nalpha e1 = x\n"),
], ids=["alg", "alg-refused", "twist", "twist-refused", "bialg", "bialg-refused",
        "homlie", "homlie-refused"])
def test_a_byte_order_mark_is_dropped(kind, text):
    plain = run_descriptor(kind, text.encode())
    assert run_descriptor(kind, b"\xef\xbb\xbf" + text.encode()) == plain
    assert "line 1" not in plain[2]


# a descriptor is UTF-8 whatever the locale: under the C locale with UTF-8
# mode off a command reads a file with a non-ASCII comment as it does here
@pytest.mark.parametrize("kind", ["alg", "twist", "bialg", "homlie"])
def test_descriptors_are_read_as_utf8_under_any_locale(tmp_path, kind):
    text = {"alg": "kind poly  # a twisted carrier \u2014 t scales\nvars t\ntwist t = 2*t\n",
            "twist": GOLDEN_FILES["lambda.twist"], "bialg": MATRIX_BIALGEBRA,
            "homlie": GOLDEN_FILES["heis.homlie"]}[kind]
    data = ("# \u00e9t\u00e9 \u2014 a comment\n" + text).encode()
    f = tmp_path / f"descriptor.{kind}"
    f.write_bytes(data)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")
    out = subprocess.run([sys.executable, "-m", "homalgebra.cli", *COMMANDS[kind](str(f))],
                         capture_output=True, text=True, cwd=ROOT, env=env)
    assert (out.returncode, out.stdout, out.stderr) == run_descriptor(kind, data)
    # a twisted carrier's unit is only weak: unitality fails, the rest holds
    if kind == "alg":
        assert (out.returncode, out.stderr) == (1, "first failing law: unitality\n")


def test_output_closed_early_exits_without_traceback():
    # the reader is gone before the report is written, as with ``| head -c1``
    # once head has exited
    read, write = os.pipe()
    os.close(read)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    try:
        out = subprocess.run([sys.executable, "-m", "homalgebra.cli", "verify", "m-coassoc",
                              "--max-arity", "2", "--non-unital", "--json"],
                             stdout=write, stderr=subprocess.PIPE, text=True, cwd=ROOT,
                             env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write)
    assert out.stderr == ""
    assert out.returncode == 1


def test_oversized_dim_exits_2_naming_its_line(tmp_path):
    f = tmp_path / "huge.lie"
    f.write_text(f"dim {HUGE}\nnames e1 e2\n")
    out = run_cli("verify", "envelope", str(f), timeout=2)
    assert out.returncode == 2
    assert out.stderr.startswith("error: line 1: dim 99999")
    assert "above the size bound of 1000 digits" in out.stderr
    assert "Traceback" not in out.stderr


# a leaf exponent, a twist weight and a power are read by terms.parse_natural,
# which refuses a token by its length before any int conversion
@pytest.mark.parametrize("argv,shown", [
    (("reduce", f"x@{HUGE}"), "parse error: exponent 99999"),
    (("reduce", f"(A {HUGE} x)"), "parse error: twist weight 99999"),
    (("check", "algebra", "huge.alg"), "error: power 99999"),
])
def test_oversized_natural_number_exits_2_without_traceback(tmp_path, argv, shown):
    f = tmp_path / "huge.alg"
    f.write_text(f"kind poly\nvars t\ntwist t = t^{HUGE}\n")
    argv = [str(f) if a == f.name else a for a in argv]
    out = run_cli(*argv, timeout=2)
    assert out.returncode == 2
    assert out.stderr.startswith(shown)
    assert "above the size bound of 1000 digits" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("term,code,shown", [
    ("1/2 * x + -3 * (x * y)", 0, "residue: 1/2 * x + -3 * (x * y)"),
    ("0.5 * x", 2, "unexpected character '.' (line 1, column 2)"),
])
def test_number_literal_forms_are_read_as_before(term, code, shown):
    out = run_cli("reduce", term)
    assert out.returncode == code
    assert shown in out.stdout + out.stderr


# the window's size is checked before its shapes (Catalan(n - 1) of arity n)
# are built, so a large arity is refused at once
@pytest.mark.parametrize("max_arity", ["25", "1000000"])
def test_deep_window_exits_2_at_the_term_cap(max_arity):
    out = run_cli("reduce", "x", "--max-arity", max_arity, timeout=2)
    assert out.returncode == 2
    assert out.stderr.startswith("error: windowed basis exceeds the term cap of 200000")
    assert "Traceback" not in out.stderr


def run_check_algebra_twist(tmp_path, twist, timeout, kind="poly"):
    f = tmp_path / "twist.alg"
    f.write_text(f"kind {kind}\nvars t\ntwist t = {twist}\n")
    return run_cli("check", "algebra", str(f), timeout=timeout)


# each is inside MAX_POLY_SIZE, but the checks compose it with itself over
# products of samples: phi(phi(x y) phi(z)) has degree 6 * deg(phi)**2.  The
# last two have moderate degree, terms and coefficients one by one, but mixed
# denominators: t2's composites are over the work budget, and t3's
# coefficients over a common denominator are over the bit bound
TWIST_T2 = "1/3 + 2/5*t + 7/11*t^2 + 13/17*t^3 + 5/7*t^4 + 3/13*t^5 + 11/19*t^6"
TWIST_T3 = ("255/253 + 251/241*t + 239/233*t^2 + 229/227*t^3 + 223/211*t^4 + 199/197*t^5"
            " + 193/191*t^6 + 181/179*t^7 + 173/167*t^8 + 163/157*t^9 + 151/149*t^10")


@pytest.mark.parametrize("twist", ["1 + t^20", "t^1000", "1 + t^40", "t^31 + t",
                                   TWIST_T2, TWIST_T3])
def test_twist_with_oversized_composites_exits_2_without_traceback(tmp_path, twist):
    out = run_check_algebra_twist(tmp_path, twist, timeout=2)
    assert out.returncode == 2
    assert out.stderr.startswith("error: twist t = ")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("twist", ["2*t", "1 + t^10"])
def test_twist_with_moderate_composites_is_checked(tmp_path, twist):
    out = run_check_algebra_twist(tmp_path, twist, timeout=60)
    # the twisted unit is only weak, so unitality fails and the exit code is 1
    assert out.returncode == 1
    assert out.stderr == "first failing law: unitality\n"


# the matrix carrier's composites get a budget of MAX_POLY_SIZE // 32: every
# twist of degree 3 or more is refused there, while degree 2 stays checkable
@pytest.mark.parametrize("twist", ["1 + t^10", "1 + t^5", "t^3", "1/3 + 7/11*t + 13/17*t^2"])
def test_matrix_twist_with_oversized_composites_exits_2(tmp_path, twist):
    out = run_check_algebra_twist(tmp_path, twist, timeout=2, kind="matrix")
    assert out.returncode == 2
    assert out.stderr.startswith("error: twist t = ")
    assert "above the size bound 31" in out.stderr or "above the bound 31" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("twist", ["2*t", "1 + t + t^2"])
def test_matrix_twist_with_moderate_composites_is_checked(tmp_path, twist):
    out = run_check_algebra_twist(tmp_path, twist, timeout=60, kind="matrix")
    assert out.returncode == 1
    assert out.stderr == "first failing law: unitality\n"

# ---------------------------------------------------------------------------
# golden report bytes for paths that the benchmark reference does not pin
# ---------------------------------------------------------------------------

MATRIX_BIALGEBRA = (
    "kind free-bialgebra\n"
    "gens a b c d\n"
    "delta a = (a' * a'') + (b' * c'')\n"
    "delta b = (a' * b'') + (b' * d'')\n"
    "delta c = (c' * a'') + (d' * c'')\n"
    "delta d = (c' * b'') + (d' * d'')\n")

GOLDEN_FILES = {
    "matrix.bialg": MATRIX_BIALGEBRA,
    "lambda.twist": "kind twist\nlambda 5/2  # scaling parameter\n",
    "phi.twist": ("# scale b up and c, y down by 2\n"
                  "kind twist\n"
                  "phi_H a = a\nphi_H b = 2*b\nphi_H c = 1/2*c\nphi_H d = d\n"
                  "\n"
                  "phi_A x = x\nphi_A y = 1/2*y  # the plane follows c\n"),
    # only the plane is twisted; the bialgebra stays classical
    "carrier.twist": "kind twist\nphi_A x = 2*x\nphi_A y = 2*y\n",
    # identity twists: both structures stay classical
    "ident.twist": "kind twist\nphi_H a = a\n",
    "mixed.twist": ("kind twist\nphi_H b = 2*b\nphi_H c = 1/2*c\n"
                    "phi_A x = 3*x\nphi_A y = 3/2*y\n"),
    "abelian.homlie": "names e1 e2\nalpha e1 = 2*e1\nalpha e2 = e2\n",
    "sl2tw.homlie": ("names h e f\nbracket h e = 4*e\nbracket h f = -f\nbracket e f = h\n"
                     "alpha e = 2*e\nalpha f = 1/2*f\n"),
    "heis.homlie": "names x y z\nbracket x y = z\nalpha x = x + y\n",
    # twisted carriers, whose products go through the twist's image table
    "cubic.alg": "kind poly\nvars t\ntwist t = 1/3 + 2/5*t + 7/11*t^2 + 13/17*t^3\n",
    "shear.alg": "kind poly\nvars s t\ntwist t = 2*t\ntwist s = s + t\n",
}

# sha256 of the ``--json`` stdout bytes, and the exit code
GOLDEN = [
    (("verify", "m-coassoc", "--max-arity", "2"), 1,
     "8f940fa42aedf98a2d45a9b078f87867453b4681390e1ecb2a21c56fdb42935d"),
    (("verify", "m-coassoc", "--max-arity", "2", "--non-unital"), 1,
     "9d05f17603687793ec03f8ac71b0c1a433c904ca6b5b1454bbaef359810ec764"),
    (("verify", "affine-comodule", "--max-arity", "2", "--non-unital"), 1,
     "d92e877a0ec9ee673b094c7a423315622d3f094c3d869d4df6ff7db0752a0e89"),
    (("verify", "m-coassoc", "--file", "matrix.bialg", "--non-unital"), 0,
     "ac5e419ba27b82b30f144a342222e56daf3a8e4fb10888b37453914955afbed2"),
    (("verify", "twist", "--file", "lambda.twist"), 0,
     "e2a87e8561974fd33694a5cc89c904fe7e13504f6609bcd05eb181fc832d0222"),
    (("verify", "twist", "--file", "phi.twist"), 0,
     "dad975baaaee27a34f52fd4d063879a196b4f3c206c5cc504edc6087306e0cc7"),
    (("verify", "twist", "--file", "carrier.twist"), 0,
     "27531e64e871028a402632fd88379a4c797781a1dc65a3010cdde7547240f5de"),
    (("verify", "twist", "--file", "ident.twist"), 0,
     "c86890d5ace055b3863f114cfd12ead3394b23cf712437bd166ff5a21b903e03"),
    (("verify", "twist", "--file", "mixed.twist"), 0,
     "13532378ad8663ec7eb37c7b6e0cfe5ef666530ccee54dfa41c6670b4e4f12d2"),
    (("verify", "envelope", "abelian.homlie"), 0,
     "78b25eb731be6ca61fb18888fd5fcb70112bdd13c1f21bbfa07d703b789ffe35"),
    (("verify", "envelope", "sl2tw.homlie"), 0,
     "9c627180f7186cc69aa6e453a1fbe1506895f30fe25fdb25dff03eaed396abfc"),
    (("verify", "envelope", "sl2tw.homlie", "--non-unital"), 0,
     "fdde0a7c877fc037372773c5df42d9419352d82dd249c0da361981ee0a395f01"),
    (("verify", "envelope", "heis.homlie"), 0,
     "f64019a0d1d776b4aa120edbbb82f60060f7f13f6e9dc6b63a04eae134fbee91"),
    (("verify", "envelope", "heis.homlie", "--non-unital"), 0,
     "9f2e0ce0365d0a84d7a01aebfb1cce9e096f80ac182bbfbf1587f9557ed9153e"),
    (("check", "algebra", "cubic.alg"), 1,
     "ee445987975e805abffa9557151dcad7e3892584acee3b01006e9ff2519ba796"),
    (("check", "algebra", "shear.alg"), 1,
     "27b946e2dd5cf7c7353a8b02a190960dae1ee295c72ed63833d4585936be69b1"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_report_digest(tmp_path, argv, code, digest):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in GOLDEN_FILES else a for a in argv]
    out = run_cli(*argv, "--json", text=False)
    assert out.returncode == code, out.stderr
    assert hashlib.sha256(out.stdout).hexdigest() == digest


# the benchmark's reference invocations, at the default windows the golden
# cases leave out: exit code and JSON bytes, read from the file only
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())["suites"]


@pytest.mark.parametrize("inv", REFERENCE, ids=[inv["kind"] for inv in REFERENCE])
def test_benchmark_reference_invocation(inv):
    out = run_cli(*inv["argv"], "--json", text=False)
    assert out.returncode == inv["exit_code"], out.stderr
    assert hashlib.sha256(out.stdout).hexdigest() == inv["sha256"]
