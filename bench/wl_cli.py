"""Workload ``cli``: every verb as a fresh ``python -m layerprop.cli``
process, one at a time.

Fixtures are written at set-up: the case-study systems and diagrams by
``chem``/``ccs``/``circuit --emit``, the two-layer fixture, the monoid
model's system and model JSON, s-expression diagrams, and seeded inputs (an
equation-step pair for ``eq``, a random walk for ``derive``, a series
circuit).  A round runs every verb once plus hostile inputs whose right
answer is exit 1 with a one-line ``error:`` message and no traceback.
Interpreter start, import, ``jsonio``, theory validation and the case-study
builders dominate here.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction

from layerprop import diagram as dg
from layerprop import jsonio, models, sexpr, terms
from layerprop import rewrite as rw

import wl_search
import wl_semantics
from harness import Op

NAME = "cli"
CHILD_PROCESSES = True

# cmd_semantics_verify's pools at --max-word 1: the empty word and each
# generating object
SV_MAX_WORD = 1
# two g boxes on parallel sheets, one after the other
INTERCHANGE = "(seq (par (gen U g) (id U a)) (par (id U b) (gen U g)))"


SEEDED_FIXTURES = ("eq_x.json", "eq_y.json", "walk_src.json",
                   "walk_dst.json", "series.json")


def describe(state) -> str:
    """The seeded fixture files, for the run's input digest."""
    return "".join((state["fx"] / name).read_text(encoding="utf-8")
                   for name in SEEDED_FIXTURES)


def _run_cli(ctx, args, cwd):
    return subprocess.run([sys.executable, "-m", "layerprop.cli", *args],
                          cwd=cwd, env=ctx.python_env(),
                          capture_output=True, text=True)


def setup(ctx):
    rng = random.Random(f"cli/{ctx.seed}")
    fx = ctx.work / "fixtures"
    shutil.rmtree(fx, ignore_errors=True)
    fx.mkdir(parents=True)
    for case in ("chem", "ccs", "circuit"):
        proc = _run_cli(ctx, [case, "--emit", str(fx)], fx)
        if proc.returncode != 0:
            raise RuntimeError(f"{case} --emit exited {proc.returncode}: "
                               f"{proc.stderr}")

    def write(name, text):
        (fx / name).write_text(text, encoding="utf-8")
        return str(fx / name)

    two_text = (ctx.root / "bench" / "two_layer.json").read_text(
        encoding="utf-8")
    two = jsonio.system_from_json(json.loads(two_text))
    write("two.json", two_text)
    monoid = models.monoid_model()
    write("monoid.json", jsonio.dumps(jsonio.system_to_json(monoid.system)))
    write("monoid_model.json", jsonio.dumps(jsonio.model_to_json(monoid)))
    write("gh.sexp", "(seq (gen U g) (gen U h))")
    write("u.sexp", "(gen U u)")
    write("h.sexp", "(gen U h)")
    write("interchange.sexp", INTERCHANGE)
    write("parallel.sexp", "(par (gen U g) (gen U g))")
    write("object.json", json.dumps({"kind": "resistor", "param": 2}))

    x, y = wl_search.equation_pair(two, "two", rng)
    write("eq_x.json", jsonio.dumps(jsonio.diagram_to_json(x)))
    write("eq_y.json", jsonio.dumps(jsonio.diagram_to_json(y)))
    src, dst = wl_search.random_walk(two, rng, rng.randint(2, 3))
    write("walk_src.json", jsonio.dumps(jsonio.diagram_to_json(src)))
    write("walk_dst.json", jsonio.dumps(jsonio.diagram_to_json(dst)))
    ohms = [rng.randint(1, 9) for _ in range(rng.randint(2, 3))]
    write("series.json", json.dumps([{"kind": "resistor", "param": r}
                                     for r in ohms]))

    glucose = jsonio.diagram_from_json(
        jsonio.system_from_json(json.loads(
            (fx / "chem.json").read_text(encoding="utf-8"))),
        json.loads((fx / "glucose.json").read_text(encoding="utf-8")))
    pools = {name: [()] + [(s,) for s in lay.gen_objects]
             for name, lay in monoid.system.layers.items()}
    return {
        "ctx": ctx, "fx": fx, "two": two, "ohms": ohms,
        "gh_u_key": dg.canonical_key(dg.gen_box(two, "U", "u")),
        "walk_key": dg.canonical_key(dst),
        "glucose_cells": len(dg.canonicalize(glucose).diagram.cells),
        "interchange_cells": len(dg.canonicalize(terms.build(
            sexpr.parse_term(INTERCHANGE), two)).diagram.cells),
        "sv_checked": sum(wl_semantics.expected_counts(
            monoid.system, pools).values()),
    }


# -- checks -------------------------------------------------------------------


def _expect(code, *lines, exact=False):
    """Exit code and stdout lines (present, or the whole output)."""
    def check(proc):
        if proc.returncode != code:
            return f"exit {proc.returncode}, expected {code}: " \
                   f"{proc.stderr.strip()[-200:]}"
        out = proc.stdout.splitlines()
        if exact and out != list(lines):
            return f"output {out!r}"
        missing = [ln for ln in lines if ln not in out]
        return f"missing {missing!r}" if missing else None
    return check


def _hostile(proc):
    """Malformed input: exit 1, one ``error:`` line, no traceback."""
    err = proc.stderr.strip().splitlines()
    if proc.returncode != 1:
        return f"exit {proc.returncode}, expected 1"
    if "Traceback (most recent call last):" in proc.stderr:
        return "traceback instead of an error message"
    if len(err) != 1 or not err[0].startswith("error: "):
        return f"stderr {err!r}"
    return None


def _derivation_check(state, out_name, end_key):
    def check(proc):
        bad = _expect(0)(proc)
        if bad:
            return bad
        engine = rw.RuleEngine(state["two"])
        payload = json.loads((state["fx"] / out_name).read_text(
            encoding="utf-8"))
        dv = jsonio.derivation_from_json(state["two"], payload, engine)
        if dv.end_key != end_key:
            return "reloaded derivation ends elsewhere"
        return None
    return check


def _series_check(ohms):
    total = Fraction(sum(ohms))

    def check(proc):
        bad = _expect(0)(proc)
        if bad:
            return bad
        row = json.loads(proc.stdout)["impedance_rows"][0]
        # v = R i as a reduced row: pivot 1 on i, -1/R on v
        want = [["1"], [str(-1 / total)]]
        got = [row[0]["s_poly_num"], row[1]["s_poly_num"]]
        return None if got == want else f"row {got!r}, expected {want!r}"
    return check


def _dot_check(cells):
    def check(proc):
        bad = _expect(0)(proc)
        if bad:
            return bad
        nodes = len(re.findall(r"^  c\d+ \[", proc.stdout, re.M))
        return None if nodes == cells else f"{nodes} nodes for {cells} cells"
    return check


# -- the round ----------------------------------------------------------------


def verbs(state):
    """(label, argv, check, known fault) for one round, in order."""
    fx = state["fx"]

    def f(name):
        return str(fx / name)

    chem, ccs, two = f("chem.json"), f("ccs.json"), f("two.json")
    return [
        ("chem", ["chem"], _expect(0, "status: valid"), None),
        ("ccs", ["ccs"], _expect(0, "explanation: valid",
                                 "counterfactual: certified"), None),
        ("circuit", ["circuit"], _expect(0, "status: valid"), None),
        ("circuit-file", ["circuit", "--file", f("series.json"), "--json"],
         _series_check(state["ohms"]), None),
        ("check-theory", ["check-theory", "--system", chem],
         _expect(0, "theory: ok", exact=True), None),
        ("check-theory-two", ["check-theory", "--system", two],
         _expect(0, "theory: ok", exact=True), None),
        ("typecheck", ["typecheck", "--system", two, "--term",
                       "(seq (gen U g) (refine U L b))", "--json"],
         lambda p: _expect(0)(p) or (
             None if json.loads(p.stdout)["sort"] == {
                 "dom": [["U", ["a"]]], "cod": [["L", ["y"]]]}
             else f"sort {p.stdout!r}"), None),
        ("typecheck-diagram", ["typecheck", "--system", two, "--diagram",
                               f("interchange.sexp"), "--json"],
         lambda p: _expect(0)(p) or (
             None if json.loads(p.stdout)["sort"] == {
                 "dom": [["U", ["a"]], ["U", ["a"]]],
                 "cod": [["U", ["b"]], ["U", ["b"]]]}
             else f"sort {p.stdout!r}"), None),
        ("eq-structural", ["eq", "--system", two, f("interchange.sexp"),
                           f("parallel.sexp")],
         _expect(0, "equal (structurally)", exact=True), None),
        ("eq-equations", ["eq", "--system", two, f("eq_x.json"),
                          f("eq_y.json")], _expect(0, "equal", exact=True),
         None),
        ("derive", ["derive", "--system", two, "--src", f("gh.sexp"),
                    "--dst", f("u.sexp"), "--out", f("dv.json")],
         _derivation_check(state, "dv.json", state["gh_u_key"]), None),
        ("derive-walk", ["derive", "--system", two, "--src",
                         f("walk_src.json"), "--dst", f("walk_dst.json"),
                         "--out", f("walk_dv.json")],
         _derivation_check(state, "walk_dv.json", state["walk_key"]), None),
        # the derivation uses an equation of the layer it explains
        ("explain2", ["explain2", "--system", two, "--derivation",
                      f("dv.json"), "--layer", "U", "--equation", "gh_is_u"],
         lambda p: _expect(2, "status: invalid")(p) or (
             None if "condition 2" in p.stdout else "no condition 2 reason"),
         None),
        ("explain-chem", ["explain", "--system", chem, "--sigma",
                          "phosphorylation", "--diagram", f("glucose.json"),
                          "--budget", "600"], _expect(0, "status: valid"),
         None),
        ("explain-ccs", ["explain", "--system", ccs, "--sigma",
                         f("red1.json"), "--diagram", f("lts1.json"),
                         "--budget", "400"], _expect(0, "status: valid"),
         None),
        ("counterfactual", ["counterfactual", "--system", ccs, "--sigma",
                            f("red1.json"), "--diagram", f("lts2.json")],
         _expect(0, "status: certified", exact=True), None),
        ("export-dot", ["export-dot", "--system", chem, "--diagram",
                        f("glucose.json")],
         _dot_check(state["glucose_cells"]), None),
        ("export-dot-two", ["export-dot", "--system", two, "--diagram",
                            f("interchange.sexp")],
         _dot_check(state["interchange_cells"]), None),
        ("semantics-verify", ["semantics-verify", "--system",
                              f("monoid.json"), "--model",
                              f("monoid_model.json"), "--max-word",
                              str(SV_MAX_WORD)],
         _expect(0, f"verified {state['sv_checked']} rule instances",
                 exact=True), None),
        ("hostile:missing-file", ["check-theory", "--system",
                                  f("missing.json")], _hostile, None),
        ("hostile:bad-term", ["typecheck", "--system", two, "--term",
                              "(seq (gen U g)"], _hostile, None),
        ("hostile:not-parallel", ["eq", "--system", two, f("u.sexp"),
                                  f("h.sexp")], _hostile, None),
        ("hostile:unknown-name", ["eq", "--system", two, "nosuch",
                                  f("u.sexp")], _hostile, None),
        ("hostile:circuit-object", ["circuit", "--file", f("object.json")],
         _hostile, "cmd_circuit iterates a JSON object as a bipole list"),
        ("hostile:negative-budget", ["derive", "--system", two, "--src",
                                     f("gh.sexp"), "--dst", f("u.sexp"),
                                     "--budget", "-5"], _hostile,
         "derive accepts a negative budget"),
    ]


def _traced_call(ctx, argv, cwd):
    """The verb through bench/launch.py, which installs the span wrappers;
    its aggregates join this run's and its spans file is kept."""
    op_id = ctx.tracer.op
    prefix = ctx.work / f"op{op_id}"
    proc = subprocess.run(
        [sys.executable, str(ctx.root / "bench" / "launch.py"),
         str(prefix), str(op_id), *argv],
        cwd=cwd, env=ctx.python_env(), capture_output=True, text=True)
    agg = prefix.with_suffix(".json")
    ctx.tracer.merge(json.loads(agg.read_text(encoding="utf-8")))
    agg.unlink()
    ctx.child_traces.append(prefix.with_suffix(".tsv.gz"))
    return proc


def round_ops(state, rnd: int) -> list[Op]:
    ctx = state["ctx"]
    ops = []
    for label, argv, check, fault in verbs(state):
        if ctx.tracer is None:
            call = (lambda argv=argv: _run_cli(ctx, argv, state["fx"]))
        else:
            call = (lambda argv=argv: _traced_call(ctx, argv, state["fx"]))
        ops.append(Op(label, call, check, fault))
    return ops

