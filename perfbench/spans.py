"""In-memory span recorder and the wrappers that feed it.

Spans are recorded from the benchmark's side of each layer boundary: a
wrapper replaces a public function in every ``homalgebra`` namespace that
bound it (``from .congruence import saturate`` makes a second binding), or a
method on its class.  Each span keeps its name, start, end, parent span and
op id; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from array import array

# (home module, attribute or Class.attribute, span name)
TARGETS = [
    ("homalgebra.terms", "sort_key", "terms.sort_key"),
    ("homalgebra.congruence", "enumerate_terms", "congruence.enumerate_terms"),
    ("homalgebra.congruence", "saturate", "congruence.saturate"),
    ("homalgebra.congruence", "RelationBasis.rows_as_lincombs", "congruence.rows_as_lincombs"),
    ("homalgebra.congruence", "RelationBasis.equal_mod", "congruence.equal_mod"),
    ("homalgebra.congruence", "RelationBasis.reduce", "congruence.reduce"),
    ("homalgebra.grammar", "parse_lincomb", "grammar.parse_lincomb"),
    ("homalgebra.grammar", "format_lincomb", "grammar.format_lincomb"),
    ("homalgebra.morphisms", "evaluate", "morphisms.evaluate"),
    ("homalgebra.poly", "Poly.__mul__", "poly.mul"),
    ("homalgebra.poly", "Poly.substitute", "poly.substitute"),
    ("homalgebra.bialgebras", "check_hom_coassoc", "bialgebras.check_hom_coassoc"),
    ("homalgebra.bialgebras", "check_comodule", "bialgebras.check_comodule"),
    ("homalgebra.bialgebras", "check_delta_is_morphism", "bialgebras.check_delta_is_morphism"),
    ("homalgebra.bialgebras", "check_comodule_homalgebra", "bialgebras.check_comodule_homalgebra"),
    ("homalgebra.bialgebras", "representability_check", "bialgebras.representability_check"),
    ("homalgebra.homlie", "envelope", "homlie.envelope"),
    ("homalgebra.homlie", "check_envelope_bialgebra", "homlie.check_envelope_bialgebra"),
    ("homalgebra.homlie", "check_hom_lie", "homlie.check_hom_lie"),
    ("homalgebra.reports", "dump_json", "reports.dump_json"),
]

# boundary counts that combine across processes by maximum, not by sum
MAXIMA = {"morphisms.memo_terms"}

# carrier descriptor callables, wrapped per descriptor with dataclasses.replace
DESCRIPTOR_FIELDS = {"mul": "algebras.mul", "alpha": "algebras.alpha",
                     "add": "algebras.add_scale", "scale": "algebras.add_scale",
                     "eq": "algebras.eq"}


class Recorder:
    """Spans in parallel arrays, plus counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.current_op = -1
        self.counters: dict[str, float] = {}
        self.windows: list[dict] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, kwargs, result)``
        takes counts from the call."""
        nid = self._id(name)
        name_id, start, end, parent, op, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self.stack)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counts taken at the boundaries ---------------------------------------

    def _after_saturate(self, args, kwargs, basis):
        self.add("congruence.basis_size", basis.basis_size)
        self.add("congruence.rows_count", basis.rows_count)
        self.windows.append({"basis_size": basis.basis_size,
                             "rows_count": basis.rows_count})

    def _after_equal_mod(self, args, kwargs, result):
        self.add("congruence.proven", 1 if result.proven else 0)

    def _after_evaluate(self, args, kwargs, result):
        memo = args[2] if len(args) > 2 else kwargs.get("memo")
        if memo is not None:
            self.maximum("morphisms.memo_terms", len(memo))

    # -- installation --------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target in every namespace that bound it.

        Returns the targets that were not found.
        """
        hooks = {"congruence.saturate": self._after_saturate,
                 "congruence.equal_mod": self._after_equal_mod,
                 "morphisms.evaluate": self._after_evaluate}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "homalgebra" or n.startswith("homalgebra."))]
        missing = []
        for home, attr, name in TARGETS:
            owner = sys.modules.get(home)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, method, None)
            if original is None:
                missing.append(f"{home}.{attr}")
                continue
            wrapped = self.wrap(name, original, hooks.get(name))
            if cls_name:
                setattr(owner, method, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        return missing

    def wrap_descriptor(self, desc):
        """The carrier with its element operations recorded as spans."""
        return dataclasses.replace(desc, **{
            f: self.wrap(name, getattr(desc, f)) for f, name in DESCRIPTOR_FIELDS.items()})

    # -- output ------------------------------------------------------------------

    def write(self, path: str, header: dict):
        """Spans as a JSON header line followed by the raw arrays."""
        head = dict(header, names=self.names, spans=len(self.end),
                    counters=self.counters, windows=self.windows,
                    arrays=["name_id:i", "start:d", "end:d", "parent:i", "op:i"])
        with open(path, "wb") as fh:
            fh.write((json.dumps(head) + "\n").encode())
            for arr in (self.name_id, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)


def load(path: str):
    """Read a span file back: (header, name_id, start, end, parent, op)."""
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        n = head["spans"]
        arrays = []
        for spec in head["arrays"]:
            arr = array(spec.split(":")[1])
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (head, *arrays)


def summarize(names, name_id, start, end, parent, keep=None) -> dict:
    """name -> {"calls", "total", "self"} in seconds, over the spans ``i``
    with ``keep(i)`` (all by default)."""
    n = len(end)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    out = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in names}
    for i in range(n):
        if keep is not None and not keep(i):
            continue
        s = out[names[name_id[i]]]
        s["calls"] += 1
        s["total"] += dur[i]
        s["self"] += dur[i] - child[i]
    return out


def merge(into: dict, other: dict):
    for name, s in other.items():
        acc = into.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        for k in acc:
            acc[k] += s[k]


def layer_metrics(stats: dict, counters: dict) -> dict:
    """The per-layer metrics that spans and boundary counts give directly."""
    def total(name):
        return stats.get(name, {}).get("total", 0.0)

    def self_(name):
        return stats.get(name, {}).get("self", 0.0)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    sat_self = self_("congruence.saturate")
    eq_calls = calls("congruence.equal_mod")
    rows = counters.get("congruence.rows_count", 0)
    out = {
        "terms.sort_key_s": total("terms.sort_key"),
        "terms.sort_key_calls": calls("terms.sort_key"),
        "congruence.enumerate_terms_s": total("congruence.enumerate_terms"),
        "congruence.saturate_self_s": sat_self,
        "congruence.saturate_calls": calls("congruence.saturate"),
        "congruence.rows_per_s": rows / sat_self if sat_self else 0.0,
        "congruence.rows_as_lincombs_s": total("congruence.rows_as_lincombs"),
        "congruence.equal_mod_self_s": self_("congruence.equal_mod"),
        "congruence.reduce_s": total("congruence.reduce"),
        "congruence.reduce_calls": calls("congruence.reduce"),
        "congruence.proven_ratio":
            counters.get("congruence.proven", 0) / eq_calls if eq_calls else 0.0,
        "congruence.basis_size": counters.get("congruence.basis_size", 0),
        "congruence.rows_count": rows,
        "grammar.parse_lincomb_s": total("grammar.parse_lincomb"),
        "grammar.parse_lincomb_calls": calls("grammar.parse_lincomb"),
        "grammar.format_lincomb_s": total("grammar.format_lincomb"),
        "grammar.format_lincomb_calls": calls("grammar.format_lincomb"),
        "morphisms.evaluate_self_s": self_("morphisms.evaluate"),
        "morphisms.evaluate_calls": calls("morphisms.evaluate"),
        "morphisms.memo_terms": counters.get("morphisms.memo_terms", 0),
        "algebras.mul_s": total("algebras.mul"),
        "algebras.mul_calls": calls("algebras.mul"),
        # evaluate reaches the twist only through alpha_pow, which iterates alpha
        "algebras.alpha_pow_s": total("algebras.alpha"),
        "algebras.add_scale_s": total("algebras.add_scale"),
        "algebras.eq_s": total("algebras.eq"),
        "poly.mul_s": total("poly.mul"),
        "poly.mul_calls": calls("poly.mul"),
        "poly.substitute_s": total("poly.substitute"),
        "reports.dump_json_s": total("reports.dump_json"),
    }
    for _, _, name in TARGETS:
        if name.split(".")[0] in ("bialgebras", "homlie"):
            out[f"{name}_self_s"] = self_(name)
    return out


def layer_shares(stats: dict, what: str) -> str:
    """Each layer's share of the traced self time, as one line of text."""
    by_layer: dict[str, float] = {}
    for name, s in stats.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s["self"]
    total = sum(by_layer.values()) or 1.0
    ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
    return f"layer shares of traced self time, {what}: " + ", ".join(
        f"{layer} {100 * t / total:.1f}%" for layer, t in ranked if t)


def trace_metrics(untraced_rate: float, traced_rate: float, spans: int) -> dict:
    return {
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_ops_per_s": untraced_rate - traced_rate,
        "trace.spans": spans,
    }
