"""Batch command-line interface: build objects, run verifications, emit reports.

Subcommands::

    reduce TERM                     normalize and reduce against a saturated basis
    verify m-coassoc                twisted coassociativity of the matrix comultiplication
    verify affine-comodule          the comodule law for the plane coaction
    verify m2-representability      pullback along the comultiplication = matrix product
    verify twist                    scaling twists of the classical bialgebra/comodule
    verify envelope [FILE]          the envelope comultiplication suite
    check algebra FILE              axiom checks on a carrier descriptor file

The congruence defaults to the literal unital relation set; ``--non-unital``
switches to associator instances without unit arguments.  Reports echo every
parameter; JSON output is deterministic unless ``--timings`` is requested.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from . import algebras, bialgebras, congruence, grammar, homlie, poly, reports, terms


def natural(text: str) -> int:
    # on a ValueError argparse exits 2, naming the option and the text
    if text.isascii() and text.isdigit():
        return terms.parse_natural(text, "count")
    raise ValueError(text)


def _bound_args(p):
    p.add_argument("--max-arity", type=natural, default=3)
    p.add_argument("--max-exp", type=natural, default=1)
    p.add_argument("--non-unital", action="store_true",
                   help="drop unit arguments from the relation instances")


def _output_args(p):
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock time in the report (breaks byte-determinism)")
    p.add_argument("--seed", type=natural, default=0)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="homalgebra", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="normalize a term and reduce it")
    p.add_argument("expr", help="a linear combination in the term grammar")
    p.add_argument("--gens", help="comma-separated generator names (default: inferred)")
    _bound_args(p)
    _output_args(p)

    v = sub.add_parser("verify", help="run a verification suite")
    vs = v.add_subparsers(dest="suite", required=True)

    p = vs.add_parser("m-coassoc")
    p.add_argument("--file", help="free-bialgebra descriptor file (default: built-in)")
    _bound_args(p)
    _output_args(p)

    p = vs.add_parser("affine-comodule")
    _bound_args(p)
    _output_args(p)

    p = vs.add_parser("m2-representability")
    p.add_argument("--carrier", choices=["classical", "q-poly"], default="classical")
    p.add_argument("--q", default="2", help="twist scale for the q-poly carrier")
    p.add_argument("--pairs", type=natural, default=50)
    _output_args(p)

    p = vs.add_parser("twist")
    p.add_argument("--lambda", dest="lam", default="3", help="scaling parameter")
    p.add_argument("--file", help="twist descriptor file (overrides --lambda)")
    _output_args(p)

    p = vs.add_parser("envelope")
    p.add_argument("file", nargs="?", help="Hom-Lie descriptor file (default: built-in fixture)")
    p.add_argument("--max-arity", type=natural, default=3)
    p.add_argument("--non-unital", action="store_true")
    _output_args(p)

    c = sub.add_parser("check", help="axiom checks")
    cs = c.add_subparsers(dest="what", required=True)
    p = cs.add_parser("algebra")
    p.add_argument("file", help="carrier descriptor file")
    p.add_argument("--samples", type=natural, default=100)
    _output_args(p)

    return top


def _config(args) -> congruence.SaturationConfig:
    return congruence.SaturationConfig(unit_instances=not args.non_unital)


def _params(args, **extra) -> dict:
    out = dict(extra)
    for key in ("max_arity", "max_exp", "seed"):
        if hasattr(args, key):
            out[key] = getattr(args, key)
    if hasattr(args, "non_unital"):
        out["unit_instances"] = not args.non_unital
    return out


# ---------------------------------------------------------------------------
# subcommand bodies (each returns a list of reports)
# ---------------------------------------------------------------------------

def run_reduce(args):
    v = grammar.parse_lincomb(args.expr)
    gens = args.gens.split(",") if args.gens else sorted(v.generators())
    if not gens:
        raise ValueError("no generators: pass --gens for constant inputs")
    for k, g in enumerate(gens):
        if not terms.NAME.fullmatch(g):
            raise ValueError(f"generator name {g!r} must match {terms.NAME.pattern}")
        if g in gens[:k]:
            raise ValueError(f"--gens: name {g!r} given twice")
    outside = v.generators() - set(gens)
    if outside:
        raise ValueError(f"the term names {min(outside)!r}, not listed in --gens {args.gens}")
    bound = congruence.Bound(args.max_arity, args.max_exp)
    basis = congruence.saturate(gens, bound, _config(args))
    residue = basis.reduce(v)
    # reducing is a query, not a check: a nonzero residue is a normal outcome
    fmt = grammar.format_lincomb
    report = reports.law_report("reduce", basis.describe(), fmt, [
        ("residue class representative", v, residue, lambda _, r: ("PASS", fmt(r)))])
    return [report], {"normalized": fmt(v), "residue": fmt(residue),
                      "reduces_to_zero": residue.is_zero()}


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _kind(*words):  # the reader of a kind line that says one of words
    def read(rest):
        if rest not in words:
            raise ValueError(f"expected kind {' or '.join(words)}")
        return rest
    return read


def _poly_image(name, image, at, names):
    return poly.parse_poly(image, names, at[1])


def _delta_image(name, image, at, gens):
    # the image is parsed in its place in the file, so a syntax error
    # names the file's line and column
    line, offset = at
    v = grammar.parse_lincomb("\n" * (line - 1) + " " * offset + image)
    outside = v.generators() - {g + t for g in gens for t in ("'", "''")}
    if outside:
        raise ValueError(f"delta {name} names {min(outside)!r},"
                         " not a leg g' or g'' of a generator g")
    return v


def _load_free_bialgebra(path: str) -> bialgebras.FreeHomBialgebra:
    got, _ = terms.read_descriptor(_read(path), {
        "kind": _kind("free-bialgebra"),
        "gens": lambda rest: terms.read_names(rest, legs=True),
        "delta": (1, "gens", _delta_image),
    })
    gens, images = got.get("gens"), got["delta"]
    if not gens or set(images) != set(gens):
        raise ValueError("descriptor needs gens and a delta image per generator")
    # the report's generator order, and so its bytes, follow the sorted names
    return bialgebras.FreeHomBialgebra(tuple(sorted(gens)), images)


def run_m_coassoc(args):
    B = _load_free_bialgebra(args.file) if args.file else bialgebras.m_bialgebra()
    bound = congruence.Bound(args.max_arity, args.max_exp)
    config = _config(args)
    laws = [
        bialgebras.check_hom_coassoc(B, bound=bound, config=config),
        bialgebras.check_comultiplicative(B),
        bialgebras.check_delta_is_morphism(B, bound=bound, config=config, seed=args.seed),
    ]
    return laws, {}


def run_affine_comodule(args):
    C = bialgebras.hom_affine_plane()
    bound = congruence.Bound(args.max_arity, args.max_exp)
    config = _config(args)
    laws = [
        bialgebras.check_comodule(C, bound=bound, config=config),
        bialgebras.check_comodule_homalgebra(C, bound=bound, config=config, seed=args.seed),
    ]
    return laws, {}


def run_m2_representability(args):
    rng = random.Random(args.seed)
    laws = []
    if args.carrier == "classical":
        X, Y = (tuple(tuple(poly.Poly.var(f"{m}{i}{j}") for j in (1, 2)) for i in (1, 2))
                for m in "xy")
        A = algebras.poly_algebra([str(e) for M in (X, Y) for row in M for e in row])
        rep = bialgebras.representability_check(A, X, Y)
        rep.law = "matrix_representability (generic symbols)"
        laws.append(rep)
    else:
        A = algebras.q_poly_algebra(terms.parse_rational(args.q, "--q"))
    M = algebras.matrix_algebra(A)
    for k in range(args.pairs):
        X, Y = M.rand(rng), M.rand(rng)
        rep = bialgebras.representability_check(A, X, Y)
        rep.law = f"matrix_representability (random pair {k})"
        laws.append(rep)
    return laws, {"carrier": A.name, "pairs": args.pairs}


def _load_twist_file(path: str):
    # the variables of the classical bialgebra and of the plane it coacts on
    got, lines = terms.read_descriptor(_read(path), {
        "kind": _kind("twist"),
        "lambda": lambda rest: terms.parse_rational(rest, "lambda"),
        "phi_H": (1, tuple(g for row in bialgebras.MATRIX_LAYOUT for g in row), _poly_image),
        "phi_A": (1, bialgebras.PLANE_GENS, _poly_image),
    })
    if "lambda" not in got:
        return poly.PolyEndo(got["phi_H"]), poly.PolyEndo(got["phi_A"])
    if got["phi_H"] or got["phi_A"]:
        # named at the first line by which both have been given
        phi = min([*lines["phi_H"].values(), *lines["phi_A"].values()])
        raise ValueError(f"line {max(lines['lambda'], phi)}: lambda and phi lines exclude"
                         " each other")
    return bialgebras.lambda_scaling_pair(got["lambda"])


def run_twist(args):
    lam = None if args.file else terms.parse_rational(args.lam, "--lambda")
    phi_H, phi_A = (_load_twist_file(args.file) if args.file
                    else bialgebras.lambda_scaling_pair(lam))
    Ct = bialgebras.twist_comodule(bialgebras.classical_m2_bialgebra(),
                                   bialgebras.classical_affine_comodule(), phi_H, phi_A)
    Ht = Ct.H
    laws = [
        bialgebras.check_hom_coassoc(Ht),
        bialgebras.check_comultiplicative(Ht),
        bialgebras.check_delta_is_morphism(Ht),
        bialgebras.check_comodule(Ct),
        bialgebras.check_comodule_homalgebra(Ct),
    ]
    return laws, {"lambda": str(lam) if lam is not None else "file"}


def run_envelope(args):
    if args.file:
        L = homlie.load_hom_lie(_read(args.file))
    else:
        L = homlie.affine_line_twisted()
    laws = [homlie.check_hom_lie(L)]
    basis = homlie.envelope(L, max_arity=min(args.max_arity, 2),
                            unit_instances=not args.non_unital)
    laws.append(reports.law_report("bracket_relations", basis.describe(),
                                   grammar.format_lincomb,
                                   ((label, u, rhs, basis.decide)
                                    for label, u, rhs in homlie.bracket_sides(L))))
    laws.extend(homlie.check_envelope_bialgebra(L, max_arity=args.max_arity,
                                                unit_instances=not args.non_unital))
    dims = homlie.dimension_report(basis)
    extra = {"hom_lie": list(L.names),
             "residual_dimensions": {str(k): v for k, v in dims.items()}}
    return laws, extra


def _load_algebra_file(path: str):
    got, lines = terms.read_descriptor(_read(path), {
        "kind": _kind("poly", "matrix"),
        "vars": terms.read_names,
        "twist": (1, "vars", _poly_image),
    })
    if "kind" not in got:
        raise ValueError("descriptor kind must be poly or matrix")
    names = got.get("vars")
    if not names:
        raise ValueError("descriptor needs a vars line")
    phi = poly.PolyEndo(got["twist"])
    # a 2x2 matrix product is eight entry products of entry sums, so the
    # same twist costs the matrix checks many times the poly checks' work
    size = terms.MAX_POLY_SIZE
    poly.require_bounded_twist(phi, size if got["kind"] == "poly" else size // 32,
                               lines["twist"])
    A = algebras.yau_twist_algebra(names, phi)
    if got["kind"] == "matrix":
        A = algebras.matrix_algebra(A)
    return A


def run_check_algebra(args):
    A = _load_algebra_file(args.file)
    laws = [
        algebras.check_hom_associative(A, args.samples, args.seed),
        algebras.check_multiplicative(A, args.samples, args.seed),
        algebras.check_unital(A, args.samples, args.seed),
    ]
    return laws, {"carrier": A.name}


# ---------------------------------------------------------------------------

# job name (command and subcommand, as the report records it) -> body
JOBS = {
    "reduce": run_reduce,
    "verify m-coassoc": run_m_coassoc,
    "verify affine-comodule": run_affine_comodule,
    "verify m2-representability": run_m2_representability,
    "verify twist": run_twist,
    "verify envelope": run_envelope,
    "check algebra": run_check_algebra,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    job = " ".join(filter(None, (args.command, getattr(args, "suite", None),
                                 getattr(args, "what", None))))
    t0 = time.time()
    try:
        laws, extra = JOBS[job](args)
    except terms.InputError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    doc = reports.report_document(job, _params(args, **extra), laws,
                                  elapsed=(time.time() - t0) if args.timings else None)
    try:
        print(reports.dump_json(doc) if args.json else reports.render_text(doc))
        # flushed here, so a reader that stopped early is met inside this block
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull,
        # and exit 1 as Python does on a broken pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if doc["passed"]:
        return 0
    for rep in doc["reports"]:
        if not rep["passed"]:
            print(f"first failing law: {rep['law']}", file=sys.stderr)
            break
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
