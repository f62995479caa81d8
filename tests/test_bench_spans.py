"""The benchmark's traced functions exist under the names it looks up."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    # ``spans.install`` skips a target it cannot find, so a rename would
    # lose that metric without any check failing
    spans = _load_spans()
    missing = []
    for mod_name, attr, _ in spans.FUNCTIONS:
        target = importlib.import_module(mod_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
    # the rule-building and per-family verification spans
    engine = importlib.import_module("layerprop.rewrite").RuleEngine
    assert any(name.startswith("rule_") for name in vars(engine))
    assert callable(importlib.import_module(
        "layerprop.semantics").verify_rule_semantics)
