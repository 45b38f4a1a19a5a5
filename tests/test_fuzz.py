"""A fuzz gate for the descriptor files: files built from each kind's
directives, and byte mutations of the shipped examples, run through
``cli.main`` in process.  Every run exits 0, 1 or 2 and raises nothing, and an
exit of 2 prints one message line.  An input error names a line of the file,
unless it refuses the whole file for a line it lacks."""

import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_cli import COMMANDS, GOLDEN_FILES, run_descriptor

ROOT = Path(__file__).resolve().parent.parent


def readme_examples() -> list[tuple[str, str]]:
    """The README's descriptor examples, one per ``# name.kind — ...`` header."""
    text = (ROOT / "README.md").read_text()
    block = text.split("Descriptor file formats", 1)[1].split("```", 2)[1]
    parts = re.split(r"^# \S+\.(alg|twist|bialg|homlie) —.*\n", block, flags=re.M)
    return list(zip(parts[1::2], parts[2::2]))


SEEDS = [(name.rsplit(".", 1)[1], text) for name, text in GOLDEN_FILES.items()] + [
    ("alg", (ROOT / "perfbench" / "data" / "twisted_matrix.alg").read_text())
] + readme_examples()


# the refusals of a file that lacks a line, which have no line to name
WHOLE_FILE = {f"error: {message}\n" for message in (
    "descriptor kind must be poly or matrix", "descriptor needs a vars line",
    "descriptor needs gens and a delta image per generator", "missing 'names' line")}


def assert_clean_exit(kind: str, data: bytes):
    code, out, err = run_descriptor(kind, data)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert not out and err.endswith("\n") and err.count("\n") == 1, err
    # a precondition failure is about the object the file describes, not a line
    if code == 2 and err.startswith(("error:", "parse error:")) and err not in WHOLE_FILE:
        named = [int(n) for n in re.findall(r"\bline (\d+)", err)]
        assert any(1 <= n <= len(data.splitlines()) for n in named), err


# -- files built from the directives -----------------------------------------
#
# Each file is well formed: the mutations below break them, and the shipped
# examples, byte by byte.

numbers = st.sampled_from(["1", "2", "3", "0", "1/2", "2/3", "7/11", "-5/3", "0/4"])


def poly_text(variables):
    """A sum of up to three terms ``c*v^e`` of degree at most 2."""
    term = st.tuples(numbers, st.sampled_from(variables), st.integers(0, 2)).map(
        lambda t: t[0] + ("" if t[2] == 0 else f"*{t[1]}" + (f"^{t[2]}" if t[2] > 1 else "")))
    return st.lists(term, min_size=1, max_size=3).map(" + ".join)


@st.composite
def alg_files(draw):
    names = draw(st.sampled_from([["t"], ["s", "t"]]))
    out = [draw(st.sampled_from(["kind poly", "kind matrix"])), "vars " + " ".join(names)]
    for name in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
        out.append(f"twist {name} = {draw(poly_text(names))}")
    return "\n".join(out)


@st.composite
def twist_files(draw):
    out = ["kind twist"]
    if draw(st.booleans()):
        return "\n".join(out + [f"lambda {draw(numbers)}"])
    for head, keys in (("phi_H", ["a", "b", "c", "d"]), ("phi_A", ["x", "y"])):
        for name in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
            out.append(f"{head} {name} = {draw(poly_text(keys))}")
    return "\n".join(out)


@st.composite
def bialg_files(draw):
    gens = draw(st.sampled_from([["a"], ["a", "b"]]))
    out = ["kind free-bialgebra", "gens " + " ".join(gens)]
    legs = st.sampled_from([g + tag for g in gens for tag in ("'", "''")])
    part = st.tuples(numbers, legs, legs).map(lambda t: f"{t[0]} * ({t[1]} * {t[2]})")
    for g in gens:
        out.append(f"delta {g} = {' + '.join(draw(st.lists(part, min_size=1, max_size=2)))}")
    return "\n".join(out)


@st.composite
def homlie_files(draw):
    names = draw(st.sampled_from([["e1", "e2"], ["e1", "e2", "h"]]))
    out = [f"dim {len(names)}"] if draw(st.booleans()) else []
    out.append("names " + " ".join(names))
    linear = st.lists(st.tuples(numbers, st.sampled_from(names)).map("*".join),
                      min_size=1, max_size=2).map(" + ".join)
    pairs = [(a, b) for k, a in enumerate(names) for b in names[k + 1:]]
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True)):
        out.append(f"bracket {a} {b} = {draw(linear)}")
    for name in draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True)):
        out.append(f"alpha {name} = {draw(linear)}")
    return "\n".join(out)


built = st.one_of(*(st.tuples(st.just(kind), files) for kind, files in (
    ("alg", alg_files()), ("twist", twist_files()), ("bialg", bialg_files()),
    ("homlie", homlie_files()))))

# a case bound about 11 times the slowest case seen (87 ms, 2 vCPU, Python
# 3.11), so a refusal that scans its input pathologically fails the gate
FUZZ = settings(max_examples=150, deadline=1000, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(built)
def test_files_built_from_the_directives_exit_cleanly(case):
    kind, text = case
    assert_clean_exit(kind, text.encode())


# -- byte mutations of the shipped examples ----------------------------------

ALPHABET = b"0123456789/+-*^()@=' \n#tabcdxyze_"
edits = st.lists(st.tuples(st.sampled_from(["delete", "insert", "replace"]),
                           st.integers(0, 1 << 16),
                           st.one_of(st.sampled_from(ALPHABET), st.integers(0, 255))),
                 min_size=1, max_size=4)


def mutate(data: bytes, ops) -> bytes:
    out = bytearray(data)
    for op, pos, byte in ops:
        pos %= len(out) + 1
        if op == "insert":
            out[pos:pos] = bytes([byte])
        elif pos < len(out):
            out[pos:pos + 1] = b"" if op == "delete" else bytes([byte])
    return bytes(out)


@FUZZ
@given(st.one_of(st.sampled_from(SEEDS), built), edits)
def test_mutated_files_exit_cleanly(seed, ops):
    kind, text = seed
    assert_clean_exit(kind, mutate(text.encode(), ops))


def test_the_seeds_cover_every_kind_and_the_readme():
    assert {kind for kind, _ in SEEDS} == set(COMMANDS)
    assert [kind for kind, _ in readme_examples()] == ["alg", "homlie", "bialg", "twist"]
