"""Regenerate ``reference.json`` from the program at the current commit.

    python3 perfbench/make_reference.py

Runs every ``suites`` invocation plainly and through the launcher, checks the
outcome against what the paper predicts (every law holds; the twisted matrix
carrier has only a weak unit, so ``check algebra`` fails unitality and exits 1;
the unit instances collapse ``x*alpha(y) - x*y`` to zero, the non-unital
relations do not), and records exit code, verdicts, JSON sha256 and the
windows each invocation saturates.  The window table is checked, not
rewritten: its counts are the paper-facing reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from common import REFERENCE_PATH, build_window, load_reference, require_source
from suites import cli_cmd, launcher_cmd, spawn, verdicts

ASSOCIATOR = "((x * y) * z@1) + -1 * (x@1 * (y * z))"
TWIST_COLLAPSE = "(x * y@1) + -1 * (x * y)"
REDUCE_WINDOW = ["--max-arity", "4", "--max-exp", "2"]

# kind -> (argv, reduces_to_zero for reduce invocations)
INVOCATIONS = {
    "m-coassoc.unital": (["verify", "m-coassoc"], None),
    "m-coassoc.non-unital": (["verify", "m-coassoc", "--non-unital"], None),
    "affine-comodule.unital": (["verify", "affine-comodule"], None),
    "affine-comodule.non-unital": (["verify", "affine-comodule", "--non-unital"], None),
    "m2-representability.classical": (["verify", "m2-representability"], None),
    "m2-representability.q-poly":
        (["verify", "m2-representability", "--carrier", "q-poly"], None),
    "twist": (["verify", "twist"], None),
    "envelope.unital": (["verify", "envelope"], None),
    "envelope.non-unital": (["verify", "envelope", "--non-unital"], None),
    "check-algebra": (["check", "algebra", "perfbench/data/twisted_matrix.alg"], None),
    "reduce.associator.unital": (["reduce", ASSOCIATOR, *REDUCE_WINDOW], True),
    "reduce.associator.non-unital":
        (["reduce", ASSOCIATOR, *REDUCE_WINDOW, "--non-unital"], True),
    "reduce.twist-collapse.unital": (["reduce", TWIST_COLLAPSE, *REDUCE_WINDOW], True),
    "reduce.twist-collapse.non-unital":
        (["reduce", TWIST_COLLAPSE, *REDUCE_WINDOW, "--non-unital"], False),
}


def record(kind: str, argv: list[str], zero) -> dict:
    inv = {"kind": kind, "argv": argv}
    proc, _ = spawn(cli_cmd(inv))
    doc = json.loads(proc.stdout)
    laws = verdicts(doc)
    failing = [law for law, passed in laws if not passed]
    expected_fail = ["unitality"] if kind == "check-algebra" else []
    if failing != expected_fail or proc.returncode != (1 if expected_fail else 0):
        raise SystemExit(f"{kind}: failing laws {failing}, exit {proc.returncode}")
    if doc["parameters"].get("reduces_to_zero") != zero:
        raise SystemExit(f"{kind}: reduces_to_zero is not {zero}")
    with tempfile.TemporaryDirectory(dir=os.path.dirname(REFERENCE_PATH)) as tmp:
        spans_out = os.path.join(tmp, "spans")
        traced, _ = spawn(launcher_cmd(inv, spans_out))
        with open(spans_out, "rb") as fh:
            windows = json.loads(fh.readline())["windows"]
    if traced.stdout != proc.stdout or traced.returncode != proc.returncode:
        raise SystemExit(f"{kind}: the traced run printed a different report")
    inv.update(exit_code=proc.returncode, verdicts=laws,
               sha256=hashlib.sha256(proc.stdout).hexdigest(), windows=windows)
    if zero is not None:
        inv["reduces_to_zero"] = zero
    return inv


def main() -> int:
    require_source()
    reference = load_reference()
    for name, want in reference["windows"].items():
        basis = build_window(name)
        got = {"basis_size": basis.basis_size, "rows_count": basis.rows_count}
        if got != want:
            raise SystemExit(f"window {name}: {got} != {want}")
    reference["suites"] = [record(kind, argv, zero)
                           for kind, (argv, zero) in INVOCATIONS.items()]
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}: {len(reference['suites'])} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
