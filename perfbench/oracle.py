"""``oracle``: one saturated basis per window answering textual queries.

Op: ``parse_lincomb`` on both sides, ``equal_mod``, ``format_lincomb`` on the
residue.  Set-up saturates the windows; no saturation happens in the timed
phase.
"""

from __future__ import annotations

from common import build_window, parse_window
from queries import QueryGenerator, Window, image_of_residue

WINDOWS = ("12gen-3-1-unital", "3gen-4-2-nonunital")
PER_CELL = 64           # a chunk holds 2 windows x 2 answers x PER_CELL queries


def build_steps():
    """One set-up step per window: (basis, None); its rows are listed as part
    of set-up, not kept."""
    def step(name):
        basis = build_window(name)
        basis.rows_as_lincombs()
        return basis, None
    return [lambda name=name: step(name) for name in WINDOWS]


class Stream:
    """Seeded query chunks; the queries need neither the bases nor the
    recorder, which run.py passes to every workload's stream."""

    def __init__(self, seed: int, built, recorder=None):
        self.gen = QueryGenerator([Window(*parse_window(n)) for n in WINDOWS], seed)
        self.warmup = self.gen.query(0, True)

    def next_chunk(self):
        return self.gen.chunk(PER_CELL)


def make_op(built):
    from homalgebra import grammar

    def op(q):
        res = built[q.window][0].equal_mod(grammar.parse_lincomb(q.lhs),
                                        grammar.parse_lincomb(q.rhs))
        return res.proven, grammar.format_lincomb(res.residue)
    return op


def check(q, out) -> bool:
    """Known-equal: proven with residue 0.  Known-unequal: not proven, and the
    residue has the difference's image in the commutative carrier."""
    if isinstance(out, Exception):
        return False
    proven, residue = out
    if q.equal:
        return proven and residue == "0"
    try:
        return not proven and image_of_residue(residue) == q.image
    except (ValueError, IndexError):
        return False
