"""Tests of the benchmark's own query generator and span recorder.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from common import build_window, parse_window, require_source  # noqa: E402
from queries import (QueryGenerator, Window, commutative_image,  # noqa: E402
                     difference, parse)

require_source()

SMALL = ("3gen-3-1-nonunital", "3gen-3-1-unital")


def small_generator(seed):
    return QueryGenerator([Window(*parse_window(n)) for n in SMALL], seed)


def test_generator_is_deterministic_for_a_seed():
    first = small_generator(7).chunk(16)
    again = small_generator(7).chunk(16)
    assert first == again
    assert small_generator(8).chunk(16) != again


def test_chunks_are_balanced_and_sized():
    chunk = small_generator(3).chunk(10)
    assert len(chunk) == 40
    for w in range(len(SMALL)):
        for equal in (True, False):
            assert sum(q.window == w and q.equal == equal for q in chunk) == 10
    for q in chunk:
        assert 1 <= len(parse(q.lhs)) <= 8


def test_unequal_pairs_are_nonzero_in_the_commutative_carrier():
    from homalgebra.algebras import poly_algebra
    from homalgebra.grammar import parse_lincomb
    from homalgebra.morphisms import MorphismAssignment, evaluate
    from homalgebra.poly import Poly

    gens = parse_window(SMALL[0])[0]
    carrier = poly_algebra(gens)  # associative, commutative, alpha = id
    m = MorphismAssignment(carrier, {g: Poly.var(g) for g in gens})
    for q in small_generator(11).chunk(25):
        image = commutative_image(difference(parse(q.lhs), parse(q.rhs)))
        assert tuple(sorted(image.items())) == q.image
        assert bool(image) == (not q.equal)
        value = evaluate(parse_lincomb(q.lhs) - parse_lincomb(q.rhs), m)
        assert carrier.eq(value, carrier.zero) == q.equal


def test_proven_ratio_equals_the_known_equal_share():
    import oracle
    from spans import Recorder, layer_metrics, summarize

    rec = Recorder()
    assert rec.install() == []
    bound = [m for name, m in sys.modules.items()
             if name.startswith("homalgebra") and hasattr(m, "saturate")]
    assert len(bound) >= 5  # the package, congruence, cli, bialgebras, ...
    assert all(hasattr(m.saturate, "__wrapped__") for m in bound)
    built = [(build_window(n), None) for n in SMALL]
    gen = small_generator(5)
    queries = gen.chunk(20) + [gen.query(0, True), gen.query(1, True)]
    op = oracle.make_op(built)
    for q in queries:
        assert oracle.check(q, op(q)), q
    stats = summarize(rec.names, rec.name_id, rec.start, rec.end, rec.parent)
    metrics = layer_metrics(stats, rec.counters)
    share = sum(q.equal for q in queries) / len(queries)
    assert metrics["congruence.proven_ratio"] == share
    assert metrics["congruence.saturate_calls"] == len(SMALL)
    assert metrics["grammar.parse_lincomb_calls"] == 2 * len(queries)
