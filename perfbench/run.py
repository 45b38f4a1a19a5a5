"""The homalgebra benchmark.

    python3 perfbench/run.py --workload {suites,oracle,soundness} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Prints notes, then as the last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Exits 2 without a result when the checkout holds
no program to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

from common import (OUT_DIR, ROOT, Outcome, SetupError, calibrate,
                    end_to_end, load_reference, peak_rss_mb, require_source,
                    run_ops, speed_factor, timed_phase, timed_setup,
                    window_mismatches)

SETUP_REPEATS = 3       # set-ups per run; setup_s is their median
TRACED_OPS = 8192       # fixed work of the traced pass, the first ops of the stream


def run_in_process(mod, seed: int, seconds: float, trace: bool) -> Outcome:
    """``oracle`` and ``soundness``: set up once per repeat, then a closed loop."""
    outcome = Outcome()
    reference = load_reference()
    cal = calibrate()
    t0 = time.perf_counter()
    import homalgebra  # noqa: F401  (import is part of the program's set-up)
    import_s = (time.perf_counter() - t0) * speed_factor(cal, calibrate())

    build_s, build_raw, built = timed_setup(mod.build_steps(),
                                             1 if trace else SETUP_REPEATS)
    for name, (basis, _) in zip(mod.WINDOWS, built):
        bad = window_mismatches(name, basis, reference)
        outcome.judge(not bad, "; ".join(bad))
    stream = mod.Stream(seed, built)
    op = mod.make_op(built)
    outcome.judge(mod.check(stream.warmup, run_ops([stream.warmup], op)[0][0]), "warm-up")
    phase = timed_phase(stream.next_chunk, op,
                        lambda items, outs: outcome.judge_all(mod.check, items, outs),
                        seconds)
    if not trace:
        end_to_end(outcome, phase, import_s + build_s, peak_rss_mb(resource.RUSAGE_SELF))
        outcome.notes.append(f"wall clock: set-up {build_raw:.4f} s without the import")
        return outcome

    n = min(TRACED_OPS, len(phase.latencies))
    untraced_rate = n / sum(phase.latencies[:n])
    del built, stream, op, phase
    from spans import (Recorder, layer_metrics, layer_shares, summarize,
                       trace_metrics)
    rec = Recorder()
    missing = rec.install()
    built = [step() for step in mod.build_steps()]
    stream = mod.Stream(seed, built, rec)
    op = mod.make_op(built)
    run_ops([stream.warmup], op)
    items = []
    while len(items) < TRACED_OPS:
        items.extend(stream.next_chunk())
    items = items[:TRACED_OPS]
    gc.collect()
    cal = calibrate()
    outputs, latencies = run_ops(items, op, rec)
    traced_rate = len(latencies) / (sum(latencies) * speed_factor(cal, calibrate()))
    outcome.judge_all(mod.check, items, outputs)

    stats = summarize(rec.names, rec.name_id, rec.start, rec.end, rec.parent)
    outcome.metrics.update(layer_metrics(stats, rec.counters))
    for what, keep in (("set-up", lambda i: rec.op[i] < 0), ("ops", lambda i: rec.op[i] >= 0)):
        part = summarize(rec.names, rec.name_id, rec.start, rec.end, rec.parent, keep)
        outcome.notes.append(layer_shares(part, what))
    want = [reference["windows"][name] for name in mod.WINDOWS]
    outcome.judge(rec.windows == want and not missing,
                  f"coverage: saturate saw {rec.windows}, expected {want}; missing {missing}")
    outcome.metrics.update(trace_metrics(untraced_rate, traced_rate, len(rec.end)))
    # the command-line layer runs only in the suites workload
    outcome.metrics.update({"cli.startup_s": 0.0, "cli.main_self_s": 0.0})
    outcome.metrics.update({f"cli.invocation_s.{inv['kind']}": 0.0
                            for inv in reference["suites"]})
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.write(os.path.join(OUT_DIR, f"{mod.__name__}-seed{seed}.spans"),
              {"workload": mod.__name__, "seed": seed})
    return outcome


def report(spec: dict, outcome: Outcome, trace: bool) -> dict:
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] not in outcome.metrics:
            raise KeyError(f"workload did not measure {m['name']}")
        metrics[m["name"]] = {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
    return {"correct": not outcome.failures, "attempted": outcome.attempted,
            "failed": len(outcome.failures), "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["suites", "oracle", "soundness"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        require_source()
    except (OSError, SetupError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.workload == "suites":
        import suites
        outcome = suites.run(args.seed, args.seconds, bool(args.trace))
    else:
        mod = __import__(args.workload)
        outcome = run_in_process(mod, args.seed, args.seconds, bool(args.trace))
    for line in outcome.notes + [f"FAILED {f}" for f in outcome.failures[:20]]:
        print(line)
    print(json.dumps(report(spec, outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
