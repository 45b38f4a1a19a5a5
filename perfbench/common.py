"""Shared pieces of the benchmark: paths, the saturation windows, the
reference file, the timed-phase loop and latency statistics."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
# calibrate() at the reference speed; timings in end-to-end metrics are scaled
# to this speed (see NOTES.md, "Machine-speed calibration")
REF_CAL_S = 0.0025
BLOCK_OPS = 1024        # ops per block of the tail estimate

TAGS3 = ("'", "''", "'''")
GENS = {
    "2gen": ("x", "y"),
    "3gen": ("x", "y", "z"),
    "10gen": tuple(g + t for g in "abcd" for t in TAGS3[:2]) + ("x", "y"),
    "12gen": tuple(g + t for g in "abcd" for t in TAGS3),
}


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def require_source():
    """Make ``homalgebra`` importable from the checkout, or fail."""
    if not os.path.isfile(os.path.join(SRC, "homalgebra", "__init__.py")):
        raise SetupError(f"no homalgebra package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def parse_window(name: str):
    """``"12gen-3-1-unital"`` -> (generators, max arity, max exp, unital)."""
    gens, arity, exp, unital = name.split("-")
    return GENS[gens], int(arity), int(exp), unital == "unital"


def build_window(name: str):
    """Saturate the named window."""
    from homalgebra.congruence import Bound, SaturationConfig, saturate
    gens, arity, exp, unital = parse_window(name)
    return saturate(gens, Bound(arity, exp), SaturationConfig(unit_instances=unital))


def window_mismatches(name: str, basis, reference: dict) -> list[str]:
    """Differences between a built window and the reference counts."""
    want = reference["windows"][name]
    got = {"basis_size": basis.basis_size, "rows_count": basis.rows_count}
    return [f"{name}: {k} {got[k]} != {want[k]}" for k in want if got[k] != want[k]]


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now: the fastest of five
    short samples, so a momentary stall does not count as a slow machine.

    The loop does the kind of work the program does (tuple keys, dict
    updates, ``Fraction`` arithmetic) and touches nothing of the program, so
    its time tracks how fast the machine runs Python at that moment.  The
    collector is off while it runs, so the program's heap does not leak in.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            acc: dict = {}
            total = Fraction(0)
            for i in range(4_000):
                key = (i % 97, (i % 13, i % 7))
                acc[key] = acc.get(key, 0) + i
                if not i % 8:
                    total += Fraction(i % 5 + 1, i % 3 + 1)
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if was_enabled:
            gc.enable()


def speed_factor(before: float, after: float) -> float:
    """Scale from wall seconds to reference seconds for the interval between
    two calibrations."""
    return REF_CAL_S / ((before + after) / 2)


def timed_setup(steps, repeats: int):
    """Run the set-up ``repeats`` times; it is ``steps``, callables whose
    results make a list.  A calibration follows every step.

    Returns (median reference seconds, median wall seconds, last results).
    """
    ref, raw = [], []
    result = None
    cal = calibrate()
    for _ in range(repeats):
        result = None  # drop the previous set-up before timing the next
        gc.collect()
        result, ref_s, raw_s = [], 0.0, 0.0
        for step in steps:
            t0 = time.perf_counter()
            result.append(step())
            dt = time.perf_counter() - t0
            after = calibrate()
            ref_s += dt * speed_factor(cal, after)
            raw_s += dt
            cal = after
        ref.append(ref_s)
        raw.append(raw_s)
    return statistics.median(ref), statistics.median(raw), result


def run_ops(items, run_op, recorder=None):
    """Run and time each op; a raised exception is the op's output."""
    outputs, latencies = [], []
    perf = time.perf_counter
    for i, item in enumerate(items):
        if recorder is not None:
            recorder.current_op = i
        t0 = perf()
        try:
            out = run_op(item)
        except Exception as exc:  # a failed op, counted by the checker
            out = exc
        latencies.append(perf() - t0)
        outputs.append(out)
    if recorder is not None:
        recorder.current_op = -1
    return outputs, latencies


class Phase:
    """Op latencies of a timed phase, in wall and in reference seconds."""

    def __init__(self):
        self.latencies: list[float] = []      # reference seconds per op
        self.wall = 0.0                       # reference seconds
        self.raw_wall = 0.0                   # wall-clock seconds

    def add(self, latencies, factor: float):
        self.latencies.extend(dt * factor for dt in latencies)
        raw = sum(latencies)
        self.raw_wall += raw
        self.wall += raw * factor


def timed_phase(next_chunk, run_op, judge, seconds: float) -> Phase:
    """Closed loop, one client: run ops until ``seconds`` of timed work.

    ``next_chunk()`` makes the next inputs and ``judge(inputs, outputs)``
    checks them, both with the clock stopped; a calibration brackets every
    chunk.  Inputs and outputs are dropped after the check, so the phase's
    own memory does not grow with its length.
    """
    gc.collect()
    phase = Phase()
    cal = calibrate()
    while phase.raw_wall < seconds:
        chunk = next_chunk()
        outputs, latencies = run_ops(chunk, run_op)
        after = calibrate()
        phase.add(latencies, speed_factor(cal, after))
        judge(chunk, outputs)
        cal = after
    return phase


class Outcome:
    """What a workload run produced: metric values, counts and notes."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def judge(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def judge_all(self, check, items, outputs):
        for i, (item, out) in enumerate(zip(items, outputs)):
            ok = check(item, out)
            self.judge(ok, "" if ok else f"op {i}: {str(item)[:300]} -> {out!r}")


def end_to_end(outcome: Outcome, phase: Phase, setup_s: float, rss_mb: float,
               block: int = BLOCK_OPS):
    value, pct, n = block_tail(phase.latencies, block)
    outcome.metrics.update({
        "ops_per_s": len(phase.latencies) / phase.wall,
        "op_p50_ms": statistics.median(phase.latencies) * 1e3,
        "op_tail_ms": value * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    })
    outcome.notes.append(f"op_tail_ms: p{pct:.3f} of {n} ops per block, "
                         f"median of {max(1, len(phase.latencies) // n)} blocks")
    outcome.notes.append(
        f"wall clock: {len(phase.latencies) / phase.raw_wall:.4f} ops/s; "
        f"machine ran at {phase.wall / phase.raw_wall:.3f}x the reference speed")


def tail(latencies: list[float]):
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples).  With ten or fewer samples the
    median stands in.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), 50.0, n
    rank = n - 10  # 1-based rank; ten samples lie above it
    return ordered[rank - 1], 100.0 * rank / n, n


def block_tail(latencies: list[float], block: int):
    """``tail`` of each consecutive block of ``block`` ops, and the median of
    those values.  A stall of the machine then moves one block's tail, not
    the result, and the value does not depend on how many blocks fit."""
    blocks = max(1, len(latencies) // block)
    size = len(latencies) // blocks
    tails = [tail(latencies[i * size:(i + 1) * size]) for i in range(blocks)]
    value = statistics.median(t[0] for t in tails)
    return value, tails[0][1], size


def peak_rss_mb(who) -> float:
    """Peak resident set of ``resource.RUSAGE_SELF`` or ``RUSAGE_CHILDREN``."""
    return resource.getrusage(who).ru_maxrss / 1024.0
