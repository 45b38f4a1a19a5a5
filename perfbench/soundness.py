"""``soundness``: exact evaluation of saturated rows into polynomial carriers.

Set-up saturates the five windows of acceptance criterion 9 and lists their
rows.  Op: evaluate one row under a seeded random assignment and zero-test it.
Every window goes into ``Q[u,v]``; the non-unital ones also into the
q-twisted ``Q[t]``.  Ops go round-robin over the eight (window, carrier)
jobs, so every run has the same mix.  Each job evaluates up to
ROWS_PER_ASSIGNMENT of its rows, in seeded order, under one assignment and one
shared evaluate memo, then draws the next assignment: the memo's size and
the ops' cost cycle in a fixed pattern instead of drifting with run length.
"""

from __future__ import annotations

import random

from common import build_window, parse_window

WINDOWS = ("3gen-3-1-nonunital", "12gen-3-1-nonunital", "12gen-3-1-unital",
           "10gen-3-1-nonunital", "10gen-3-1-unital")
PER_JOB = 32            # a chunk holds PER_JOB ops of every job
ROWS_PER_ASSIGNMENT = 512


def build_steps():
    """One set-up step per window: (basis, its rows)."""
    def step(name):
        basis = build_window(name)
        return basis, basis.rows_as_lincombs()
    return [lambda name=name: step(name) for name in WINDOWS]


class _Job:
    def __init__(self, rows, gens, target, rng):
        self.rows, self.gens, self.target, self.rng = rows, gens, target, rng
        self.order = []

    def next(self):
        if not self.order:
            from homalgebra.morphisms import MorphismAssignment
            self.assignment = MorphismAssignment(
                self.target, {g: self.target.rand(self.rng) for g in self.gens})
            self.memo = {}
            self.order = self.rng.sample(range(len(self.rows)),
                                         min(len(self.rows), ROWS_PER_ASSIGNMENT))
        return self.rows[self.order.pop()], self.assignment, self.memo


class Stream:
    def __init__(self, seed: int, built, recorder=None):
        from homalgebra.algebras import poly_algebra, q_poly_algebra
        classical, twisted = poly_algebra(["u", "v"]), q_poly_algebra(2)
        if recorder is not None:
            classical = recorder.wrap_descriptor(classical)
            twisted = recorder.wrap_descriptor(twisted)
        rng = random.Random(seed)
        self.jobs = []
        for name, (basis, rows) in zip(WINDOWS, built):
            unital = parse_window(name)[3]
            for target in (classical,) if unital else (classical, twisted):
                self.jobs.append(_Job(rows, basis.gens, target, random.Random(rng.random())))
        self.warmup = self.jobs[0].next()

    def next_chunk(self):
        return [job.next() for _ in range(PER_JOB) for job in self.jobs]


def make_op(built):
    from homalgebra import morphisms

    def op(item):
        row, assignment, memo = item
        target = assignment.target
        return target.eq(morphisms.evaluate(row, assignment, memo), target.zero)
    return op


def check(item, out) -> bool:
    """Every row is an ideal member and every carrier a model: it vanishes."""
    return out is True
