"""Batch command line: parse files, dispatch checks, report verdicts.

Exit codes: 0 success (valid/certified/equal/found), 1 malformed input,
2 check failed (invalid/refuted/distinct), 3 budget exhausted (unknown).
Output is deterministic for fixed inputs; ``--json`` switches the report
to a machine-readable envelope.

Each verb handler imports the modules it runs, so a verb loads only those:
``check-theory`` and ``export-dot`` never load the rewrite engine or the
profunctor semantics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import diagram as dg
from . import jsonio
from .errors import (LayerPropError, MalformedInput, SearchTooLarge,
                     check_count)
from .theory import SystemOfLayers, validate_system

if TYPE_CHECKING:
    from . import circuits as cx

OK, MALFORMED, FAILED, EXHAUSTED = 0, 1, 2, 3

STATUS_EXIT = {"valid": OK, "certified": OK, "refuted": FAILED,
               "invalid": FAILED, "unknown": EXHAUSTED}


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}")


def _load_system(path: str) -> SystemOfLayers:
    sys_ = jsonio.system_from_json(_load_json(path))
    report = validate_system(sys_)
    if not report.ok:
        raise MalformedInput("invalid theory: " + "; ".join(report.violations))
    return sys_


def _load_diagram(sys_: SystemOfLayers, spec: str) -> dg.Diagram:
    """A diagram file, an s-expression file, or a generator reference."""
    path = Path(spec)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise MalformedInput(f"cannot read {spec}: {exc}")
        if text.lstrip().startswith("("):
            from . import sexpr, terms
            return terms.build(sexpr.parse_term(text), sys_)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedInput(
                f"{spec} is neither JSON nor an s-expression: {exc}")
        return jsonio.diagram_from_json(sys_, payload)
    if ":" in spec:
        layer, gen = spec.split(":", 1)
        return dg.gen_box(sys_, layer, gen)
    hits = [name for name in sorted(sys_.layers)
            if spec in {g.name for g in sys_.layer(name).gen_morphisms}]
    if len(hits) == 1:
        return dg.gen_box(sys_, hits[0], spec)
    raise MalformedInput(
        f"{spec!r} is neither a readable file nor a unique generator name")


def _report(args, payload: dict, lines: list[str]) -> None:
    if getattr(args, "json", False):
        sys.stdout.write(jsonio.dumps(payload))
    else:
        for line in lines:
            print(line)


def _verdict_exit(args, verdict, extra: dict | None = None) -> int:
    payload = {"verdict": jsonio.verdict_to_json(verdict)}
    if extra:
        payload.update(extra)
    lines = [f"status: {verdict.status}"]
    lines += [f"  {r}" for r in verdict.reasons]
    if verdict.witness is not None:
        lines.append(f"  witness: {len(verdict.witness.steps)} steps")
        for step in verdict.witness.steps:
            lines.append(f"    {step.orientation} {step.rule.name}")
    _report(args, payload, lines)
    return STATUS_EXIT[verdict.status]


def cmd_check_theory(args) -> int:
    sys_ = jsonio.system_from_json(_load_json(args.system))
    report = validate_system(sys_)
    payload = {"ok": report.ok, "violations": report.violations}
    lines = (["theory: ok"] if report.ok else
             ["theory: invalid"] + [f"  {v}" for v in report.violations])
    _report(args, payload, lines)
    return OK if report.ok else FAILED


def cmd_typecheck(args) -> int:
    sys_ = _load_system(args.system)
    if args.term is not None:
        from . import sexpr, terms
        d = terms.build(sexpr.parse_term(args.term), sys_)
    else:
        d = _load_diagram(sys_, args.diagram)
    payload = {"sort": jsonio.diagram_to_json(d)["sort"]}
    _report(args, payload, [f"sort: {d.sort.pretty()}"])
    return OK


def cmd_eq(args) -> int:
    sys_ = _load_system(args.system)
    a = _load_diagram(sys_, args.diagrams[0])
    b = _load_diagram(sys_, args.diagrams[1])
    if dg.structural_eq(a, b):
        _report(args, {"result": "equal", "mode": "structural"},
                ["equal (structurally)"])
        return OK
    res = dg.layer_eq(a, b, args.budget)
    payload = {"result": res.status, "mode": "modulo-equations"}
    if res.weights is not None:  # the certificate of "distinct"
        payload["weights"] = [[layer, gen, w] for (layer, gen), w
                              in sorted(res.weights.items())]
    _report(args, payload, [res.status])
    return {"equal": OK, "distinct": FAILED, "unknown": EXHAUSTED}[res.status]


def cmd_derive(args) -> int:
    from . import rewrite as rw
    sys_ = _load_system(args.system)
    src = _load_diagram(sys_, args.src)
    dst = _load_diagram(sys_, args.dst)
    engine = rw.RuleEngine(sys_, _collapse_pairs(args))
    out = rw.find_derivation(src, dst, args.budget, engine)
    if isinstance(out, rw.NotFound):
        _report(args, {"result": "not-found", "budget": out.budget},
                [f"no derivation within budget {out.budget}"])
        return EXHAUSTED
    payload = {"result": "found",
               "derivation": jsonio.derivation_to_json(out)}
    lines = [f"derivation with {len(out.steps)} steps"]
    lines += [f"  {m.orientation} {m.rule.name}" for m in out.steps]
    _report(args, payload, lines)
    if args.out:
        Path(args.out).write_text(
            jsonio.dumps(jsonio.derivation_to_json(out)), encoding="utf-8")
    return OK


def _collapse_pairs(args) -> list[tuple[str, str]]:
    pairs = []
    for item in args.collapse or ():
        src, sep, tgt = item.partition(">")
        if not sep:
            raise MalformedInput(f"--collapse expects SRC>TGT, got {item!r}")
        pairs.append((src, tgt))
    return pairs


def _check_diagram(args, check) -> int:
    """``check(diagram, sigma, budget, engine)`` on the loaded files."""
    from .rewrite import RuleEngine
    sys_ = _load_system(args.system)
    sigma = _load_diagram(sys_, args.sigma)
    e = _load_diagram(sys_, args.diagram)
    engine = RuleEngine(sys_, _collapse_pairs(args))
    return _verdict_exit(args, check(e, sigma, args.budget, engine))


def cmd_explain(args) -> int:
    from .explain import check_explanation_1
    return _check_diagram(args, check_explanation_1)


def cmd_explain2(args) -> int:
    from .explain import check_explanation_2
    from .rewrite import RuleEngine
    sys_ = _load_system(args.system)
    engine = RuleEngine(sys_, _collapse_pairs(args))
    dv = jsonio.derivation_from_json(sys_, _load_json(args.derivation),
                                     engine)
    verdict = check_explanation_2(dv, args.layer, args.equation)
    return _verdict_exit(args, verdict)


def cmd_counterfactual(args) -> int:
    from .explain import check_counterfactual
    return _check_diagram(args, check_counterfactual)


def cmd_semantics_verify(args) -> int:
    from . import rewrite as rw
    from .semantics import verify_rule_semantics
    sys_ = _load_system(args.system)
    model = jsonio.model_from_json(sys_, _load_json(args.model))
    problems = model.validate()
    if problems:
        _report(args, {"ok": False, "violations": problems},
                ["model invalid:"] + [f"  {p}" for p in problems])
        return MALFORMED
    words = {name: [w for n in range(args.max_word + 1)
                    for w in itertools.product(lay.gen_objects, repeat=n)]
             for name, lay in sys_.layers.items()}
    engine = rw.RuleEngine(sys_)
    rules = rw.sample_instances(engine, words)
    failures, undecided = [], []
    for rule in rules:
        try:
            if not verify_rule_semantics(rule, model, cap=args.cap):
                failures.append(rule.name)
        except SearchTooLarge:
            undecided.append(rule.name)
    checked = len(rules)
    payload = {"checked": checked, "failures": failures}
    if undecided:
        payload["undecided"] = undecided
    lines = [f"verified {checked} rule instances" if not undecided else
             f"checked {checked} rule instances, {len(undecided)} undecided"]
    lines += [f"  FAILED {name}" for name in failures]
    lines += [f"  UNDECIDED {name}" for name in undecided]
    _report(args, payload, lines)
    if failures:
        return FAILED
    return EXHAUSTED if undecided else OK


def cmd_chem(args) -> int:
    from . import chem as chem_mod
    cs = chem_mod.build_chem_system()
    if args.emit:
        _emit(args.emit, {
            "chem.json": jsonio.system_to_json(cs.system),
            "glucose.json": jsonio.diagram_to_json(cs.explanation),
            "sigma.json": jsonio.diagram_to_json(cs.explained)})
    verdict = chem_mod.check_glucose_explanation(cs, args.budget)
    return _verdict_exit(args, verdict, {"case": "glucose-phosphorylation"})


def _emit(outdir: str, files: dict[str, dict]) -> None:
    """Write each payload as JSON to its file name in ``outdir``."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        (out / name).write_text(jsonio.dumps(payload), encoding="utf-8")


def cmd_ccs(args) -> int:
    from . import ccs as ccs_mod
    if args.lts is not None:
        process = ccs_mod.parse_process(args.lts)
        sys.stdout.write(ccs_mod.lts_dot(process))
        return OK
    cs = ccs_mod.build_ccs_system()
    if args.emit:
        _emit(args.emit, {
            "ccs.json": jsonio.system_to_json(cs.system),
            "red1.json": jsonio.diagram_to_json(cs.explained),
            "lts1.json": jsonio.diagram_to_json(cs.explanation),
            "lts2.json": jsonio.diagram_to_json(cs.counterfactual)})
    valid, counter = ccs_mod.check_ccs_fixtures(cs, args.budget)
    payload = {"explanation": jsonio.verdict_to_json(valid),
               "counterfactual": jsonio.verdict_to_json(counter)}
    lines = [f"explanation: {valid.status}",
             f"counterfactual: {counter.status}"]
    _report(args, payload, lines)
    code = max(STATUS_EXIT[valid.status], STATUS_EXIT[counter.status])
    return code


def _ratfunc_from_param(raw) -> cx.RatFunc:
    from fractions import Fraction

    from . import circuits as cx
    if isinstance(raw, (int, float, str)):
        return cx.RatFunc.const(Fraction(str(raw)))
    if isinstance(raw, dict):
        return cx.RatFunc.make(
            [Fraction(str(x)) for x in raw.get("s_poly_num", [0])],
            [Fraction(str(x)) for x in raw.get("s_poly_den", [1])])
    raise MalformedInput(f"bad scalar parameter {raw!r}")


def _ratfunc_to_json(r: cx.RatFunc) -> dict:
    return {"s_poly_num": [str(x) for x in r.num],
            "s_poly_den": [str(x) for x in r.den]}


def _load_bipoles(path: str) -> list[cx.Bipole]:
    """A one-wire circuit file: a JSON list of {"kind", "param"} objects."""
    from . import circuits as cx
    raw = _load_json(path)
    if not isinstance(raw, list):
        raise MalformedInput(f"{path}: expected a list of bipoles, got "
                             f"{type(raw).__name__}")
    bipoles = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or \
                not {"kind", "param"} <= entry.keys():
            raise MalformedInput(
                f"{path}: bipole {i} needs the keys 'kind' and 'param'")
        try:
            param = _ratfunc_from_param(entry["param"])
        except (MalformedInput, ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"{path}: bipole {i}: {exc}")
        bipoles.append(cx.Bipole(entry["kind"], param))
    return bipoles


def cmd_circuit(args) -> int:
    from . import circuits as cx
    # the system is for the fixture and the series check, not for --file
    cs = cx.build_circuit_system() if args.emit or not args.file else None
    if args.emit:
        _emit(args.emit, {"circuit.json": jsonio.system_to_json(cs.system)})
    if args.file:
        z = cx.boxing_B(_load_bipoles(args.file))
        rel = cx.wrapping_W(z)
        payload = {
            "impedance_rows": [[_ratfunc_to_json(x) for x in row]
                               for row in z.relation.rows],
            "wrapped_rows": [[_ratfunc_to_json(x) for x in row]
                             for row in rel.rows]}
        _report(args, payload,
                [f"impedance relation: {len(z.relation.rows)} constraints",
                 f"wrapped two-port: {len(rel.rows)} constraints"])
        return OK
    verdict = cx.check_series_explanation(cs, args.budget)
    return _verdict_exit(args, verdict, {"case": "series-resistors"})


def cmd_export_dot(args) -> int:
    sys_ = _load_system(args.system)
    d = _load_diagram(sys_, args.diagram)
    sys.stdout.write(dg.export_dot(d))
    return OK


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input (exit 1), not argparse's exit 2,
    which here would read as a failed check."""

    def error(self, message: str):
        raise MalformedInput(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="layerprop",
                     description="multi-layer string diagram kernel")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget_default=10_000):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--budget", type=int, default=budget_default,
                       help="rewrite application budget")

    def collapse(p):
        p.add_argument("--collapse", action="append", metavar="SRC>TGT",
                       help="enable window collapse for a faithful functor")

    p = sub.add_parser("check-theory", help="validate a theory file")
    p.add_argument("--system", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_theory)

    p = sub.add_parser("typecheck", help="sort of a term or diagram")
    p.add_argument("--system", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--term", help="s-expression term")
    g.add_argument("--diagram", help="diagram file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_typecheck)

    p = sub.add_parser("eq", help="equality of two diagrams")
    p.add_argument("--system", required=True)
    p.add_argument("diagrams", nargs=2)
    common(p, budget_default=256)
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("derive", help="search for a rewrite derivation")
    p.add_argument("--system", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--out", help="write the derivation here")
    common(p)
    collapse(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("explain", help="check an explanation of a morphism")
    p.add_argument("--system", required=True)
    p.add_argument("--sigma", required=True,
                   help="explained morphism: file or generator name")
    p.add_argument("--diagram", required=True, help="the explanation")
    common(p)
    collapse(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("explain2",
                       help="check an explanation of an equation")
    p.add_argument("--system", required=True)
    p.add_argument("--derivation", required=True)
    p.add_argument("--layer", required=True)
    p.add_argument("--equation", required=True)
    p.add_argument("--json", action="store_true")
    collapse(p)
    p.set_defaults(func=cmd_explain2)

    p = sub.add_parser("counterfactual",
                       help="check a counterfactual explanation")
    p.add_argument("--system", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--diagram", required=True)
    common(p, budget_default=2_000)
    collapse(p)
    p.set_defaults(func=cmd_counterfactual)

    p = sub.add_parser("semantics-verify",
                       help="verify rule families over a finite model")
    p.add_argument("--system", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--max-word", type=int, default=2,
                   help="sample rule instances over every word of length 0 "
                        "to MAX_WORD in each layer's generating objects")
    p.add_argument("--cap", type=int, default=1_000_000,
                   help="cap on the A family's natural transformation search")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_semantics_verify)

    p = sub.add_parser("chem", help="reaction case study")
    p.add_argument("--emit", help="write fixture files to this directory")
    common(p, budget_default=600)
    p.set_defaults(func=cmd_chem)

    p = sub.add_parser("ccs", help="process calculus case study")
    p.add_argument("--emit", help="write fixture files to this directory")
    p.add_argument("--lts", metavar="PROCESS",
                   help="print the reachable transition graph as DOT")
    common(p, budget_default=400)
    p.set_defaults(func=cmd_ccs)

    p = sub.add_parser("circuit", help="electrical circuit case study")
    p.add_argument("--emit", help="write fixture files to this directory")
    p.add_argument("--file", help="evaluate a one-wire circuit file")
    common(p, budget_default=3_000)
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("export-dot", help="render a diagram as DOT")
    p.add_argument("--system", required=True)
    p.add_argument("--diagram", required=True)
    p.set_defaults(func=cmd_export_dot)

    return parser


def _check_counts(args) -> None:
    """Budgets, word lengths and caps are counts: reject negative ones."""
    for name in ("budget", "max_word", "cap"):
        value = getattr(args, name, None)
        if value is not None:
            check_count("--" + name.replace("_", "-"), value)


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        _check_counts(args)
        return args.func(args)
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MALFORMED
    except LayerPropError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return MALFORMED


if __name__ == "__main__":
    sys.exit(main())
