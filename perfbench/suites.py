"""``suites``: cold command-line invocations, one fresh process per op.

Each op runs ``python -m homalgebra.cli ARGS --json`` with ``PYTHONPATH=src``
and checks its exit code, per-law verdicts and JSON bytes against
``reference.json``.  A round runs every invocation once in seeded order; the
timed phase runs whole rounds until ``--seconds`` have passed, so every run
has the same mix.  One child at a time.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from common import (BENCH_DIR, OUT_DIR, ROOT, SRC, Outcome, Phase, calibrate,
                    end_to_end, load_reference, peak_rss_mb, speed_factor)

SETUP_SAMPLES = 9       # interpreter start + import; setup_s is their median
TIMEOUT_S = 150
WARMUP_KIND = "m2-representability.classical"
IMPORT_CMD = [sys.executable, "-c", "import homalgebra.cli"]


def cli_cmd(inv) -> list[str]:
    return [sys.executable, "-m", "homalgebra.cli", *inv["argv"], "--json"]


def launcher_cmd(inv, spans_out: str) -> list[str]:
    return [sys.executable, os.path.join(BENCH_DIR, "launcher.py"), spans_out,
            *inv["argv"], "--json"]


def spawn(cmd):
    """Run one child to completion: (CompletedProcess or exception, seconds)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as exc:
        proc = exc
    return proc, time.perf_counter() - t0


def verdicts(doc: dict) -> list:
    return [[rep["law"], rep["passed"]] for rep in doc["reports"]]


def mismatch(inv, proc) -> str | None:
    """Why the invocation's output differs from the reference, or None."""
    if isinstance(proc, Exception):
        return f"{inv['kind']}: {proc}"
    if proc.returncode != inv["exit_code"]:
        return f"{inv['kind']}: exit {proc.returncode}, expected {inv['exit_code']}"
    try:
        doc = json.loads(proc.stdout)
        got = verdicts(doc)
        zero = doc["parameters"].get("reduces_to_zero")
    except (ValueError, KeyError, TypeError) as exc:
        return f"{inv['kind']}: unreadable report ({exc})"
    if got != inv["verdicts"]:
        return f"{inv['kind']}: verdicts {got}"
    if zero != inv.get("reduces_to_zero"):
        return f"{inv['kind']}: reduces_to_zero {zero}"
    if hashlib.sha256(proc.stdout).hexdigest() != inv["sha256"]:
        return f"{inv['kind']}: JSON differs from the reference bytes"
    return None


def judge(outcome: Outcome, inv, proc):
    bad = mismatch(inv, proc)
    outcome.judge(bad is None, bad or "")


class Spawner:
    """Starts children one at a time, a calibration after each, and gives
    each child's wall time with the factor that scales it to reference
    seconds."""

    def __init__(self):
        self.cal = calibrate()

    def __call__(self, cmd):
        proc, dt = spawn(cmd)
        after = calibrate()
        factor = speed_factor(self.cal, after)
        self.cal = after
        return proc, dt, factor


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    invocations = load_reference()["suites"]
    rng = random.Random(seed)

    spawn(IMPORT_CMD)  # writes bytecode caches on a fresh checkout
    timed = Spawner()
    setup = []
    for _ in range(SETUP_SAMPLES):
        proc, dt, factor = timed(IMPORT_CMD)
        outcome.judge(not isinstance(proc, Exception) and proc.returncode == 0,
                      "import homalgebra.cli failed")
        setup.append(dt * factor)

    warm = next(inv for inv in invocations if inv["kind"] == WARMUP_KIND)
    judge(outcome, warm, timed(cli_cmd(warm))[0])
    phase, by_kind = Phase(), {}
    while phase.raw_wall < seconds:
        order = list(invocations)
        rng.shuffle(order)
        for inv in order:
            proc, dt, factor = timed(cli_cmd(inv))
            judge(outcome, inv, proc)
            phase.add([dt], factor)
            by_kind.setdefault(inv["kind"], []).append(dt * factor)
    if not trace:
        # one tail block per round: the same fourteen kinds in every block
        end_to_end(outcome, phase, statistics.median(setup),
                   peak_rss_mb(resource.RUSAGE_CHILDREN), block=len(invocations))
        return outcome

    from spans import (MAXIMA, layer_metrics, layer_shares, load, merge,
                       summarize, trace_metrics)
    os.makedirs(OUT_DIR, exist_ok=True)
    stats, counters = {}, {}
    startup = traced_wall = 0.0
    covered = True
    order = list(invocations)
    rng.shuffle(order)
    for inv in order:
        out = os.path.join(OUT_DIR, f"suites-seed{seed}-{inv['kind']}.spans")
        spawned = time.monotonic()
        proc, dt, factor = timed(launcher_cmd(inv, out))
        traced_wall += dt * factor
        judge(outcome, inv, proc)
        head, name_id, start, end, parent, _ = load(out)
        merge(stats, summarize(head["names"], name_id, start, end, parent))
        for key, value in head["counters"].items():
            counters[key] = (max(counters.get(key, 0), value) if key in MAXIMA
                             else counters.get(key, 0) + value)
        startup += head["ready"] - spawned
        covered &= head["windows"] == inv["windows"] and not head["missing"]
    outcome.judge(covered, "coverage: saturate windows differ from the reference")

    outcome.metrics.update(layer_metrics(stats, counters))
    outcome.notes.append(layer_shares(stats, "one round"))
    outcome.metrics.update(trace_metrics(len(phase.latencies) / phase.wall,
                                         len(order) / traced_wall,
                                         sum(s["calls"] for s in stats.values())))
    outcome.metrics["cli.startup_s"] = startup
    outcome.metrics["cli.main_self_s"] = stats.get("cli.main", {}).get("self", 0.0)
    for kind, times in by_kind.items():
        outcome.metrics[f"cli.invocation_s.{kind}"] = statistics.median(times)
    return outcome
