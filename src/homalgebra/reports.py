"""Report records shared by the law checkers and the command-line tool.

Verdict records carry everything needed to reproduce a claim: both sides,
the verdict, the residue if any, and the window/configuration they were
decided under.  JSON serialization is deterministic (stable key order, exact
rationals as strings); wall-clock timings are kept out of the JSON document
unless explicitly requested so that reports are byte-identical across runs.
"""

from __future__ import annotations

import json
from typing import Optional

from .terms import Record

SCHEMA_VERSION = "1"


class _Report(Record):
    """A report record: its dict is its fields and ``passed``, with each
    record in a list field as its own dict."""
    __slots__ = ()

    def to_dict(self) -> dict:
        out = {f: getattr(self, f) for f in self.__slots__}
        for f, v in out.items():
            if isinstance(v, list):
                out[f] = [x.to_dict() if isinstance(x, _Report) else x for x in v]
        out["passed"] = self.passed
        return out


class LawItem(_Report):
    __slots__ = ("label", "lhs", "rhs", "verdict", "residue")

    def __init__(self, label: str, lhs: str, rhs: str, verdict: str,
                 residue: Optional[str] = None):
        self.label, self.lhs, self.rhs = label, lhs, rhs
        self.verdict, self.residue = verdict, residue

    @property
    def passed(self) -> bool:
        return self.verdict in ("PROVEN_EQUAL", "EQUAL", "PASS")


class LawReport(_Report):
    __slots__ = ("law", "items", "context")

    def __init__(self, law: str, items: Optional[list[LawItem]] = None,
                 context: Optional[dict] = None):
        self.law = law
        self.items = [] if items is None else items
        self.context = {} if context is None else context

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


class CheckReport(_Report):
    """A sampled axiom check: the law, the samples run, a line per
    counterexample, and the seed of the samples."""
    __slots__ = ("law", "samples_run", "counterexamples", "seed")

    def __init__(self, law: str, samples_run: int, counterexamples: list[str],
                 seed: Optional[int] = None):
        self.law, self.samples_run = law, samples_run
        self.counterexamples, self.seed = counterexamples, seed

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def law_report(law: str, context: dict, fmt, cases) -> LawReport:
    """One item per ``(label, lhs, rhs, decide)``, both sides printed by ``fmt``."""
    report = LawReport(law, context=context)
    for label, lhs, rhs, decide in cases:
        report.items.append(LawItem(label, fmt(lhs), fmt(rhs), *decide(lhs, rhs)))
    return report


def report_document(job: str, parameters: dict, reports: list, *,
                    elapsed: Optional[float] = None) -> dict:
    """The top-level report document emitted by the command-line tool."""
    body = [r.to_dict() for r in reports]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "job": job,
        "parameters": parameters,
        "reports": body,
        "passed": all(r["passed"] for r in body),
    }
    if elapsed is not None:
        doc["elapsed_seconds"] = round(elapsed, 3)
    return doc


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def render_text(doc: dict) -> str:
    lines = [f"job: {doc['job']}"]
    for key, value in sorted(doc["parameters"].items()):
        lines.append(f"  {key}: {value}")
    for rep in doc["reports"]:
        status = "PASS" if rep["passed"] else "FAIL"
        extra = ""
        if "samples_run" in rep:
            extra = f" ({rep['samples_run']} samples)"
        lines.append(f"[{status}] {rep['law']}{extra}")
        for item in rep.get("items", []):
            mark = "ok " if item["passed"] else "FAIL"
            lines.append(f"    {mark} {item['label']}: {item['verdict']}")
            if not item["passed"]:
                lines.append(f"         lhs = {item['lhs']}")
                lines.append(f"         rhs = {item['rhs']}")
                if item.get("residue"):
                    lines.append(f"         residue = {item['residue']}")
        for bad in rep.get("counterexamples", []):
            lines.append(f"    FAIL {bad}")
    if "elapsed_seconds" in doc:
        lines.append(f"elapsed: {doc['elapsed_seconds']}s")
    lines.append("result: " + ("PASS" if doc["passed"] else "FAIL"))
    return "\n".join(lines)
