"""Span tracing for the traced benchmark run.

``install`` replaces each layer's public functions with wrappers wherever
they are looked up: the defining module's attribute, every other
``layerprop`` module that imported its own binding (``rewrite`` holds its
own ``canonical_key``, ``cli`` its own ``check_explanation_1``), and class
attributes for methods.  A wrapper records one span (name, start, end,
parent span, operation id).  Spans are kept in memory in flat arrays and
written once, when the run ends.  A span's self time is its duration minus
the time its child spans cover; because calls nest strictly, that is the
duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# (module, attribute, span name); "Class.method" patches the class.
FUNCTIONS = [
    ("layerprop.rewrite", "find_derivation", "rewrite.find_derivation"),
    ("layerprop.rewrite", "RuleEngine.matches", "rewrite.matches"),
    ("layerprop.rewrite", "RuleEngine.anti_matches", "rewrite.anti_matches"),
    ("layerprop.rewrite", "RuleEngine.is_isolated", "rewrite.is_isolated"),
    ("layerprop.rewrite", "_apply", "rewrite.apply"),
    ("layerprop.rewrite", "verify_derivation", "rewrite.verify_derivation"),
    ("layerprop.diagram", "canonicalize", "diagram.canonicalize"),
    ("layerprop.diagram", "canonical_key", "diagram.canonical_key"),
    ("layerprop.diagram", "layer_eq", "diagram.layer_eq"),
    ("layerprop.internal", "rewrite_occurrences",
     "internal.rewrite_occurrences"),
    ("layerprop.semantics", "interpret", "semantics.interpret"),
    ("layerprop.semantics", "side_evaluation", "semantics.side_evaluation"),
    ("layerprop.profunctor", "ComposedProfunctor.__init__",
     "profunctor.coend"),
    ("layerprop.profunctor", "nat_trans_search",
     "profunctor.nat_trans_search"),
    ("layerprop.profunctor", "pointed_two_cell",
     "profunctor.pointed_two_cell"),
    ("layerprop.explain", "check_explanation_1",
     "explain.check_explanation_1"),
    ("layerprop.explain", "check_explanation_2",
     "explain.check_explanation_2"),
    ("layerprop.explain", "check_counterfactual",
     "explain.check_counterfactual"),
    ("layerprop.chem", "build_chem_system", "chem.build_chem_system"),
    ("layerprop.chem", "canonical_form", "chem.canonical_form"),
    ("layerprop.ccs", "build_ccs_system", "ccs.build_ccs_system"),
    ("layerprop.circuits", "build_circuit_system",
     "circuits.build_circuit_system"),
    ("layerprop.theory", "validate_system", "theory.validate_system"),
    ("layerprop.jsonio", "system_from_json", "jsonio.system_from_json"),
    ("layerprop.jsonio", "diagram_from_json", "jsonio.diagram_from_json"),
    ("layerprop.jsonio", "derivation_from_json",
     "jsonio.derivation_from_json"),
    ("layerprop.jsonio", "dumps", "jsonio.dumps"),
    ("layerprop.cli", "main", "cli.main"),
]

RULE_SPAN = "rewrite.rule"
VERIFY_PREFIX = "semantics.verify."

# Every per-layer metric, in the order BENCHMARK.json lists them.
CALL_METRICS = [
    "rewrite.find_derivation", "rewrite.matches", "rewrite.anti_matches",
    "rewrite.apply", "diagram.canonicalize", "diagram.canonical_key",
    "diagram.layer_eq", "internal.rewrite_occurrences",
    "semantics.verify.A", "semantics.verify.F", "semantics.verify.M",
    "semantics.verify.E", "semantics.interpret", "profunctor.coend",
    "profunctor.nat_trans_search", "chem.canonical_form",
]
SELF_METRICS = CALL_METRICS[:-1] + [
    "rewrite.verify_derivation", "rewrite.is_isolated",
    "semantics.side_evaluation", "profunctor.pointed_two_cell",
    "explain.check_explanation_1", "explain.check_explanation_2",
    "explain.check_counterfactual", "chem.build_chem_system",
    "ccs.build_ccs_system", "circuits.build_circuit_system",
    "theory.validate_system", "jsonio.system_from_json",
    "jsonio.diagram_from_json", "jsonio.derivation_from_json",
    "jsonio.dumps", "cli.main",
]


def metric_units() -> dict[str, str]:
    """Per-layer metric name -> unit."""
    units = {f"{n}.calls": "count" for n in CALL_METRICS}
    units.update({f"{n}.self_s": "s" for n in SELF_METRICS})
    units.update({"rewrite.matches.results": "count",
                  "rewrite.apps_per_s": "1/s",
                  "rewrite.rules_built": "count",
                  "profunctor.coend.classes": "count",
                  "cli.import_s": "s"})
    return units


class Tracer:
    """In-memory span store with per-name aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.s_name = array("H")
        self.s_parent = array("q")
        self.s_op = array("q")
        self.s_start = array("d")
        self.s_end = array("d")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, name, start, child time]
        self.op = -1

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> None:
        self.s_name.append(self._nid(name))
        self.s_parent.append(self._stack[-1][0] if self._stack else -1)
        self.s_op.append(self.op)
        self.s_end.append(0.0)
        start = time.perf_counter()
        self.s_start.append(start)
        self._stack.append([len(self.s_start) - 1, name, start, 0.0])

    def close(self) -> None:
        end = time.perf_counter()
        idx, name, start, child = self._stack.pop()
        self.s_end[idx] = end
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if self._stack:
            self._stack[-1][3] += dur

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def hook(self, fn) -> None:
        """Run bookkeeping outside every span: its time is charged to no
        layer (the enclosing span treats it as covered)."""
        t0 = time.perf_counter()
        fn()
        spent = time.perf_counter() - t0
        if self._stack:
            self._stack[-1][3] += spent

    def run_op(self, op_id: int, fn):
        """Call fn as operation op_id under a root span named "op"."""
        self.op = op_id
        self.open("op")
        try:
            return fn()
        finally:
            self.close()
            self.op = -1

    def merge(self, agg: dict) -> None:
        """Add the aggregates written by a traced child process."""
        for k, v in agg["calls"].items():
            self.calls[k] = self.calls.get(k, 0) + v
        for k, v in agg["self_s"].items():
            self.self_s[k] = self.self_s.get(k, 0.0) + v
        for k, v in agg["counters"].items():
            self.count(k, v)

    def aggregates(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "counters": self.counters}

    def write(self, path) -> None:
        """Spans as gzip'd tab-separated lines; one member per writer, so
        files from several processes concatenate into one valid file."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tname\tparent\top\tstart\tend\n")
            names = self.names
            for i in range(len(self.s_start)):
                fh.write(f"{i}\t{names[self.s_name[i]]}\t{self.s_parent[i]}"
                         f"\t{self.s_op[i]}\t{self.s_start[i]:.9f}"
                         f"\t{self.s_end[i]:.9f}\n")

    def metrics(self, import_s: float) -> dict[str, float]:
        """Every per-layer metric; layers the run never entered read 0."""
        out: dict[str, float] = {}
        for n in CALL_METRICS:
            out[f"{n}.calls"] = float(self.calls.get(n, 0))
        for n in SELF_METRICS:
            out[f"{n}.self_s"] = self.self_s.get(n, 0.0)
        fd_s = self.counters.get("find_derivation_s", 0.0)
        apps = self.counters.get("find_derivation_apps", 0.0)
        out["rewrite.matches.results"] = self.counters.get("match_results",
                                                           0.0)
        out["rewrite.apps_per_s"] = apps / fd_s if fd_s else 0.0
        out["rewrite.rules_built"] = self.counters.get("rules_built", 0.0)
        out["profunctor.coend.classes"] = self.counters.get("coend_classes",
                                                            0.0)
        out["cli.import_s"] = import_s
        return out


def _wrap(tracer: Tracer, fn, name, after=None):
    """Span around fn while an operation runs.  ``name`` is a span name or
    a function of the call's arguments; ``after(result, args)`` runs
    outside every span, once the span closed."""
    def traced(*args, **kwargs):
        if tracer.op < 0:  # outside operations: the benchmark's checks
            return fn(*args, **kwargs)
        tracer.open(name(args) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            tracer.hook(lambda: after(out, args))
        return out
    traced.__wrapped__ = fn
    return traced


def _find_derivation_wrapper(tracer: Tracer, fn):
    """Outermost find_derivation calls also total their time and the rule
    applications made inside them (rewrite.apps_per_s)."""
    state = {"depth": 0}

    def traced(*args, **kwargs):
        if tracer.op < 0:  # outside operations: the benchmark's checks
            return fn(*args, **kwargs)
        outer = state["depth"] == 0
        state["depth"] += 1
        before = tracer.calls.get("rewrite.apply", 0)
        t0 = time.perf_counter()
        tracer.open("rewrite.find_derivation")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()
            state["depth"] -= 1
            if outer:
                tracer.count("find_derivation_s", time.perf_counter() - t0)
                tracer.count("find_derivation_apps",
                             tracer.calls.get("rewrite.apply", 0) - before)
    traced.__wrapped__ = fn
    return traced


def _after_hooks(tracer: Tracer) -> dict:
    """Counters taken from a traced call's result or arguments."""
    def match_results(out, args):
        tracer.count("match_results", len(out))

    def coend_classes(out, args):  # args[0] is the ComposedProfunctor
        comp = args[0]
        tracer.count("coend_classes", sum(
            len(comp.elements(a, c)) for a in comp.source.objects
            for c in comp.target.objects))

    def rules_built(out, args):  # rule_* calls nested in one count once
        if tracer.parent_name() != RULE_SPAN:
            tracer.count("rules_built", 1)

    return {"rewrite.matches": match_results,
            "profunctor.coend": coend_classes, RULE_SPAN: rules_built}


def _rebind(original, replacement) -> None:
    """Point every layerprop module binding of ``original`` at
    ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "layerprop"
                               or mod_name.startswith("layerprop.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function; returns the targets that were missing."""
    importlib.import_module("layerprop.cli")  # loads every traced module
    hooks = _after_hooks(tracer)
    missing = []
    for mod_name, attr, name in FUNCTIONS:
        mod = importlib.import_module(mod_name)
        owner_name, _, meth = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        fn = getattr(owner, meth, None)
        if fn is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        if name == "rewrite.find_derivation":
            wrapped = _find_derivation_wrapper(tracer, fn)
        else:
            wrapped = _wrap(tracer, fn, name, hooks.get(name))
        if owner_name:
            setattr(owner, meth, wrapped)
        else:
            _rebind(fn, wrapped)
    sem = importlib.import_module("layerprop.semantics")
    _rebind(sem.verify_rule_semantics,
            _wrap(tracer, sem.verify_rule_semantics,
                  lambda args: VERIFY_PREFIX + args[0].family))
    engine_cls = importlib.import_module("layerprop.rewrite").RuleEngine
    for attr in sorted(vars(engine_cls)):
        if attr.startswith("rule_"):
            setattr(engine_cls, attr,
                    _wrap(tracer, getattr(engine_cls, attr), RULE_SPAN,
                          hooks[RULE_SPAN]))
    return missing
