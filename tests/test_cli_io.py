"""Serialization round trips, the s-expression front end, and the CLI."""

import json
import subprocess
import sys
import time

import pytest

from layerprop import ccs, chem, circuits, diagram as dg, jsonio, models
from layerprop import rewrite as rw
from layerprop import sexpr, terms
from layerprop.cli import main
from layerprop.errors import MalformedInput, SearchTooLarge
from layerprop.theory import sheet

from conftest import make_two_layer_system


def test_sexpr_example_parses(single_layer):
    term = sexpr.parse_term("(seq (par (cup W) (id W a)) (pants W () a))")
    d = terms.build(term, single_layer)
    assert d.dom == sheet("W", ("a",))
    assert d.cod == sheet("W", ("a",))


def test_sexpr_multi_symbol_words(two_layer):
    term = sexpr.parse_term("(refine U L (a b))")
    d = terms.build(term, two_layer)
    assert d.cod == sheet("L", ("x", "y"))


def test_sexpr_errors():
    with pytest.raises(MalformedInput):
        sexpr.parse_term("(seq (id W a)")
    with pytest.raises(MalformedInput):
        sexpr.parse_term("(frobnicate W)")
    with pytest.raises(MalformedInput):
        sexpr.parse_term("(seq (id W a))")


@pytest.mark.parametrize("text, message", [
    # a wrong argument count, for every form with a fixed count
    ("(empty W)", "(empty ...) takes 0 arguments, got 1"),
    ("(id W)", "(id ...) takes 2 arguments, got 1"),
    ("(id W a b)", "(id ...) takes 2 arguments, got 3"),
    ("(gen W)", "(gen ...) takes 2 arguments, got 1"),
    ("(cup)", "(cup ...) takes 1 arguments, got 0"),
    ("(cap W a)", "(cap ...) takes 1 arguments, got 2"),
    ("(pants W a)", "(pants ...) takes 3 arguments, got 2"),
    ("(copants W a b c)", "(copants ...) takes 3 arguments, got 4"),
    ("(refine U L)", "(refine ...) takes 3 arguments, got 2"),
    ("(coarsen U L a b)", "(coarsen ...) takes 3 arguments, got 4"),
    ("(sym W a W)", "(sym ...) takes 4 arguments, got 3"),
    ("(fuse W (id W a))", "(fuse ...) takes 3 arguments, got 2"),
    # a non-word where a word goes
    ("(id W ((a)))", "not an object word: [['a']]"),
    ("(pants W a (b (c)))", "not an object word: ['b', ['c']]"),
    ("(sym W a W (()))", "not an object word: [[]]"),
    # a non-atom where a symbol goes
    ("(id (W) a)", "expected a symbol, found ['W']"),
    ("(gen W (p))", "expected a symbol, found ['p']"),
    ("(cup (W))", "expected a symbol, found ['W']"),
    ("(refine U (L) a)", "expected a symbol, found ['L']"),
    ("(fuse () (id W a) (id W a))", "expected a symbol, found []"),
    ("((seq) (id W a))", "expected a symbol, found ['seq']"),
    # chains of fewer than two terms
    ("(seq (id W a))", "(seq ...) needs at least two terms"),
    ("(par (id W a))", "(par ...) needs at least two terms"),
    ("(seq)", "(seq ...) needs at least two terms"),
    ("(par)", "(par ...) needs at least two terms"),
    # unknown heads and non-terms where a term goes
    ("(frobnicate W)", "unknown term form 'frobnicate'"),
    ("(Seq (id W a) (id W a))", "unknown term form 'Seq'"),
    ("()", "expected a term form, found []"),
    ("(seq x (id W a))", "expected a term form, found 'x'"),
    ("(par (id W a) ())", "expected a term form, found []"),
    ("(fuse W p (id W a))", "expected a term form, found 'p'"),
    # the reader
    ("", "unexpected end of input"),
    ("(seq (id W a)", "unbalanced parenthesis"),
    (")", "unexpected ')'"),
    ("(empty) (empty)", "trailing input after term"),
])
def test_sexpr_error_messages(text, message):
    with pytest.raises(MalformedInput) as err:
        sexpr.parse_term(text)
    assert str(err.value) == message


def test_system_json_round_trip(two_layer):
    payload = jsonio.system_to_json(two_layer)
    again = jsonio.system_from_json(payload)
    assert jsonio.system_to_json(again) == payload
    from layerprop.theory import validate_system
    assert validate_system(again).ok


def test_diagram_json_round_trip(two_layer):
    d = dg.seq_compose(
        dg.gen_box(two_layer, "U", "g"),
        dg.seq_compose(dg.refine(two_layer, "U", "L", ("b",)),
                       dg.gen_box(two_layer, "L", "hl")))
    payload = jsonio.diagram_to_json(d)
    again = jsonio.diagram_from_json(two_layer, payload)
    assert dg.structural_eq(d, again)
    assert jsonio.diagram_to_json(again) == payload


def test_derivation_json_round_trip(two_layer):
    engine = rw.RuleEngine(two_layer)
    src = dg.identity(two_layer, sheet("U", ("a",)) + sheet("U", ("b",)))
    dst = dg.seq_compose(dg.pants(two_layer, "U", ("a",), ("b",)),
                         dg.copants(two_layer, "U", ("a",), ("b",)))
    dv = rw.find_derivation(src, dst, 50, engine)
    payload = jsonio.derivation_to_json(dv)
    again = jsonio.derivation_from_json(two_layer, payload, engine)
    assert rw.verify_derivation(again)
    assert jsonio.derivation_to_json(again) == payload


def test_model_json_round_trip():
    model = models.monoid_model()
    payload = jsonio.model_to_json(model)
    again = jsonio.model_from_json(model.system, payload)
    assert again.validate() == []
    assert jsonio.model_to_json(again) == payload


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(jsonio.dumps(payload), encoding="utf-8")
    return str(path)


def test_cli_check_theory(tmp_path, capsys):
    sys_ = make_two_layer_system()
    path = _write(tmp_path, "t.json", jsonio.system_to_json(sys_))
    assert main(["check-theory", "--system", path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_cli_typecheck_term(tmp_path, capsys):
    sys_ = make_two_layer_system()
    path = _write(tmp_path, "t.json", jsonio.system_to_json(sys_))
    code = main(["typecheck", "--system", path, "--term", "(gen U g)"])
    assert code == 0
    assert "U:a" in capsys.readouterr().out


def test_cli_eq_exit_codes(tmp_path, capsys):
    sys_ = make_two_layer_system()
    t = _write(tmp_path, "t.json", jsonio.system_to_json(sys_))
    a = _write(tmp_path, "a.json", jsonio.diagram_to_json(
        dg.gen_box(sys_, "U", "g")))
    b = _write(tmp_path, "b.json", jsonio.diagram_to_json(
        dg.seq_compose(dg.identity(sys_, sheet("U", ("a",))),
                       dg.gen_box(sys_, "U", "g"))))
    assert main(["eq", "--system", t, a, b]) == 0
    c = _write(tmp_path, "c.json", jsonio.diagram_to_json(
        dg.gen_box(sys_, "U", "h")))
    assert main(["eq", "--system", t, a, c]) == 1  # sort mismatch: malformed
    capsys.readouterr()


def test_cli_eq_distinct_by_weights(tmp_path, capsys):
    # m1;m2 = id keeps the weight m1 = -1, m2 = 1, under which m1 and m1;m1
    # differ: eq answers distinct with that certificate, derive as before
    mon = models.monoid_model().system
    t = _write(tmp_path, "t.json", jsonio.system_to_json(mon))
    twice = tmp_path / "twice.sexp"
    twice.write_text("(seq (gen MU m1) (gen MU m1))", encoding="utf-8")
    assert main(["eq", "--system", t, "m1", str(twice)]) == 2
    assert capsys.readouterr().out == "distinct\n"
    assert main(["eq", "--system", t, "m1", str(twice), "--json"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == "distinct"
    assert out["weights"] == [["MU", "m1", -1], ["MU", "m2", 1]]
    from layerprop import weights
    w = {(layer, gen): v for layer, gen, v in out["weights"]}
    x, y = dg.gen_box(mon, "MU", "m1"), terms.build(
        sexpr.parse_term(twice.read_text(encoding="utf-8")), mon)
    assert weights.check_weights(x, y, w, ("E",))
    assert main(["derive", "--system", t, "--src", "m1", "--dst",
                 str(twice), "--budget", "50"]) == 3
    assert capsys.readouterr().out == "no derivation within budget 50\n"


def test_cli_backward_moves_without_a_forward_inverse(tmp_path):
    # a backward result the quotient fuses (derive) or erases a box of (eq)
    # is not kept: the search spends its budget instead of failing, and eq
    # then finds its witness the other way round
    two = _write(tmp_path, "two.json",
                 jsonio.system_to_json(make_two_layer_system()))
    mon = _write(tmp_path, "mon.json",
                 jsonio.system_to_json(models.monoid_model().system))
    for name, text in (
            ("p.sexp", "(seq (gen U g) (gen U h) (refine U L (a)))"),
            ("s.sexp", "(seq (gen U g) (refine U L (b)) (gen L hl))"),
            ("bare.sexp", "(id MU (u))"),
            ("both.sexp", "(seq (gen MU m1) (gen MU m2))")):
        (tmp_path / name).write_text(text, encoding="utf-8")
    for argv, code, out in (
            (["derive", "--system", two, "--src", "p.sexp", "--dst",
              "s.sexp", "--budget", "50"], 3,
             "no derivation within budget 50\n"),
            (["eq", "--system", mon, "bare.sexp", "both.sexp"], 0,
             "equal\n")):
        proc = subprocess.run([sys.executable, "-m", "layerprop.cli", *argv],
                              capture_output=True, text=True, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


def test_cli_derive_and_explain2(tmp_path, capsys):
    sys_ = make_two_layer_system()
    t = _write(tmp_path, "t.json", jsonio.system_to_json(sys_))
    from layerprop.internal import InternalDiagram
    gh = _write(tmp_path, "gh.json", jsonio.diagram_to_json(
        dg.box(sys_, InternalDiagram("U", ("a",), ("a",),
                                     ((0, "g"), (0, "h"))))))
    u = _write(tmp_path, "u.json", jsonio.diagram_to_json(
        dg.gen_box(sys_, "U", "u")))
    out = str(tmp_path / "dv.json")
    assert main(["derive", "--system", t, "--src", gh, "--dst", u,
                 "--out", out]) == 0
    code = main(["explain2", "--system", t, "--derivation", out,
                 "--layer", "U", "--equation", "gh_is_u"])
    # the one-step derivation uses the equation of the same layer
    assert code == 2
    capsys.readouterr()


def test_cli_chem_fixture(capsys):
    assert main(["chem"]) == 0
    out = capsys.readouterr().out
    assert "status: valid" in out


def test_cli_ccs_fixture(capsys):
    assert main(["ccs"]) == 0
    out = capsys.readouterr().out
    assert "explanation: valid" in out
    assert "counterfactual: certified" in out


def test_cli_circuit_fixture(capsys):
    assert main(["circuit"]) == 0
    out = capsys.readouterr().out
    assert "status: valid" in out


def test_cli_circuit_file(tmp_path, capsys):
    circuit = [{"kind": "resistor", "param": 2},
               {"kind": "resistor", "param": 3}]
    path = tmp_path / "series.json"
    path.write_text(json.dumps(circuit), encoding="utf-8")
    assert main(["circuit", "--file", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # v = 5 i: one constraint row
    assert len(payload["impedance_rows"]) == 1
    # canonical reduced row for v = 5i: pivot 1 on i, then -1/5 on v
    row = payload["impedance_rows"][0]
    assert row[0]["s_poly_num"] == ["1"]
    assert row[1]["s_poly_num"] == ["-1/5"]


def test_cli_explain_end_to_end(tmp_path, capsys):
    cs = chem.build_chem_system()
    outdir = tmp_path / "fixtures"
    assert main(["chem", "--emit", str(outdir)]) == 0
    capsys.readouterr()
    code = main(["explain", "--system", str(outdir / "chem.json"),
                 "--sigma", "phosphorylation",
                 "--diagram", str(outdir / "glucose.json"),
                 "--budget", "600"])
    assert code == 0
    assert "status: valid" in capsys.readouterr().out


def test_cli_counterfactual_end_to_end(tmp_path, capsys):
    outdir = tmp_path / "fixtures"
    assert main(["ccs", "--emit", str(outdir)]) == 0
    capsys.readouterr()
    code = main(["counterfactual", "--system", str(outdir / "ccs.json"),
                 "--sigma", str(outdir / "red1.json"),
                 "--diagram", str(outdir / "lts2.json")])
    assert code == 0
    assert "status: certified" in capsys.readouterr().out


def test_cli_export_dot(tmp_path, capsys):
    sys_ = make_two_layer_system()
    t = _write(tmp_path, "t.json", jsonio.system_to_json(sys_))
    a = _write(tmp_path, "a.json", jsonio.diagram_to_json(
        dg.gen_box(sys_, "U", "g")))
    assert main(["export-dot", "--system", t, "--diagram", a]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_cli_malformed_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["check-theory", "--system", missing]) == 1
    capsys.readouterr()
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xfb\xff\x00")
    assert main(["check-theory", "--system", str(binary)]) == 1
    capsys.readouterr()


def test_cli_json_outputs_deterministic(tmp_path):
    result = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "layerprop.cli", "ccs", "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        result.append(proc.stdout)
    assert result[0] == result[1]


def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize("argv", [
    ["derive", "--system", "t.json", "--src", "g", "--dst", "u",
     "--budget", "-5"],
    ["eq", "--system", "t.json", "g", "u", "--budget", "-1"],
    ["explain", "--system", "t.json", "--sigma", "g", "--diagram", "u",
     "--budget", "-1"],
    ["explain2", "--system", "t.json", "--derivation", "d.json",
     "--layer", "U", "--equation", "e", "--budget", "-1"],
    ["counterfactual", "--system", "t.json", "--sigma", "g",
     "--diagram", "u", "--budget", "-1"],
    ["chem", "--budget", "-1"],
    ["ccs", "--budget", "-1"],
    ["circuit", "--budget", "-1"],
    ["semantics-verify", "--system", "t.json", "--model", "m.json",
     "--max-word", "-1"],
    ["semantics-verify", "--system", "t.json", "--model", "m.json",
     "--cap", "-1"],
])
def test_cli_rejects_negative_counts(capsys, argv):
    # checked before any file is read: t.json and m.json need not exist
    assert main(argv) == 1
    assert argv[-2] in _single_error_line(capsys)


@pytest.mark.parametrize("payload", [
    {"kind": "resistor", "param": 2},
    [{"kind": "resistor"}],
    [{"param": 2}],
    ["resistor"],
    [{"kind": "resistor", "param": "two"}],
])
def test_cli_circuit_file_malformed(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["circuit", "--file", str(path)]) == 1
    assert str(path) in _single_error_line(capsys)


@pytest.mark.parametrize("text", ["", "not json\n"])
def test_cli_diagram_file_neither_json_nor_sexpr(tmp_path, capsys, text):
    t = _write(tmp_path, "t.json",
               jsonio.system_to_json(make_two_layer_system()))
    path = tmp_path / "d.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["export-dot", "--system", t, "--diagram", str(path)]) == 1
    assert str(path) in _single_error_line(capsys)


def test_cli_semantics_verify_monoid(tmp_path, capsys):
    model = models.monoid_model()
    t = _write(tmp_path, "t.json", jsonio.system_to_json(model.system))
    m = _write(tmp_path, "m.json", jsonio.model_to_json(model))
    assert main(["semantics-verify", "--system", t, "--model", m,
                 "--max-word", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["verified 103 rule instances"]


def test_cli_semantics_verify_max_word_zero(tmp_path, capsys):
    # --max-word 0 samples over the empty word alone, so it checks fewer
    # instances than --max-word 1
    model = models.monoid_model()
    t = _write(tmp_path, "t.json", jsonio.system_to_json(model.system))
    m = _write(tmp_path, "m.json", jsonio.model_to_json(model))
    want = len(rw.sample_instances(rw.RuleEngine(model.system), {
        layer: [()] for layer in model.system.layers}))
    assert want < 103
    assert main(["semantics-verify", "--system", t, "--model", m,
                 "--max-word", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"verified {want} rule instances"]


def test_cli_semantics_verify_pool_bound(tmp_path, capsys):
    # the meet model's --max-word 3 pools give 1250842 instances; counting
    # them stops past rewrite.SAMPLED_INSTANCES, before any rule is built
    model = models.meet_model()
    t = _write(tmp_path, "t.json", jsonio.system_to_json(model.system))
    m = _write(tmp_path, "m.json", jsonio.model_to_json(model))
    start = time.perf_counter()
    assert main(["semantics-verify", "--system", t, "--model", m,
                 "--max-word", "3"]) == 1
    assert time.perf_counter() - start < 2
    assert "SearchTooLarge" in _single_error_line(capsys)


def test_sample_instances_bound_is_exact(monkeypatch):
    # the monoid model's --max-word 1 pools give 103 instances
    model = models.monoid_model()
    engine = rw.RuleEngine(model.system)
    words = {"MU": [(), ("u",)], "ML": [(), ("v",)]}
    monkeypatch.setattr(rw, "SAMPLED_INSTANCES", 102)
    with pytest.raises(SearchTooLarge):
        rw.sample_instances(engine, words)
    monkeypatch.setattr(rw, "SAMPLED_INSTANCES", 103)
    assert len(rw.sample_instances(engine, words)) == 103


def test_cli_semantics_verify_cap_undecided(tmp_path, capsys):
    # a 2-cell search past --cap leaves its instance undecided (exit 3),
    # and the other instances are still verified; only the A family
    # searches, since F and M instances are decided by their side
    # evaluations and E instances by the equation's two morphisms
    model = models.monoid_model()
    t = _write(tmp_path, "t.json", jsonio.system_to_json(model.system))
    m = _write(tmp_path, "m.json", jsonio.model_to_json(model))
    argv = ["semantics-verify", "--system", t, "--model", m, "--max-word",
            "1", "--cap", "0"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == "checked 103 rule instances, 24 undecided"
    assert "  UNDECIDED A1[ML;e;e]" in lines
    assert all(line.startswith("  UNDECIDED ") for line in lines[1:])
    assert main(argv + ["--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["checked"] == 103 and payload["failures"] == []
    assert len(payload["undecided"]) == 24
    assert {name.split("[")[0] for name in payload["undecided"]} == {
        "A1", "A2", "A3", "A4", "A5", "A6"}


def _model_edit(edit):
    payload = jsonio.model_to_json(models.monoid_model())
    edit(payload)
    return payload


@pytest.mark.parametrize("payload, path", [
    ({"categories": [], "objects": {}, "generators": {}},
     "categories: expected an object, got list"),
    ({"categories": {}, "generators": {}}, "objects: missing"),
    ({"categories": {}, "objects": {"u": "x"}, "generators": {}},
     "objects.u: expected a key of the form 'layer:name'"),
    (_model_edit(lambda p: p["categories"]["MU"]["compose"].__setitem__(
        0, ["a", "b"])), "categories.MU.compose[0]: expected 3 items, got 2"),
    (_model_edit(lambda p: p["functors"][0].__setitem__("target", "ZZ")),
     "functors[0].target: no category 'ZZ'"),
    # tables the law checks read must be total and land in the category
    (_model_edit(lambda p: p["categories"]["MU"]["compose"].pop()),
     "categories.MU.compose: no entry for ['2', '2']"),
    (_model_edit(lambda p: p["categories"]["ML"]["tensor_mor"][0].__setitem__(
        2, "*")), "categories.ML.tensor_mor: ['0', '0'] maps to '*', which "
     "is no morphism"),
    (_model_edit(lambda p: p["categories"]["ML"]["morphisms"][1].__setitem__(
        "dom", "x")), "categories.ML.morphisms[1].dom: no object 'x'"),
    (_model_edit(lambda p: p["functors"][0]["morphisms"].pop("1")),
     "functors[0].morphisms: no entry for '1'"),
    (_model_edit(lambda p: p["generators"].__setitem__("MU:m1", "*")),
     "generators.MU:m1: '*' is not one of the morphisms of 'MU'"),
])
def test_cli_model_file_shape(tmp_path, capsys, payload, path):
    model = models.monoid_model()
    t = _write(tmp_path, "t.json", jsonio.system_to_json(model.system))
    m = _write(tmp_path, "m.json", payload)
    assert main(["semantics-verify", "--system", t, "--model", m]) == 1
    assert _single_error_line(capsys) == f"error: bad model file: {path}"


@pytest.mark.parametrize("edit, violation", [
    (lambda p: p["categories"]["MU"]["identities"].__setitem__("*", "1"),
     "left identity fails at '0'"),
    (lambda p: p["objects"].pop("ML:v"), "object 'v' of 'ML' unbound"),
])
def test_cli_model_invalid_is_reported(tmp_path, capsys, edit, violation):
    # a model that breaks a law is reported, not a traceback: law checks
    # run only on tables whose earlier checks hold
    model = models.monoid_model()
    t = _write(tmp_path, "t.json", jsonio.system_to_json(model.system))
    m = _write(tmp_path, "m.json", _model_edit(edit))
    assert main(["semantics-verify", "--system", t, "--model", m]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == "model invalid:" and f"  {violation}" in lines


@pytest.mark.parametrize("payload, path", [
    ({"layers": [1]}, "layers[0]: expected an object, got int"),
    (3, "top level: expected an object, got int"),
    ({"layers": 1}, "layers: expected a list, got int"),
    ({"layers": [{"name": "U"}]}, "layers[0].objects: missing"),
    ({"layers": [{"name": "U", "objects": "ab"}]},
     "layers[0].objects: expected a list, got str"),
    ({"layers": [{"name": "U", "objects": ["a"]}],
      "functors": [{"source": "U", "target": "U", "objects": [],
                    "morphisms": {}}]},
     "functors[0].objects: expected an object, got list"),
])
def test_cli_theory_file_shape(tmp_path, capsys, payload, path):
    t = _write(tmp_path, "t.json", payload)
    assert main(["check-theory", "--system", t]) == 1
    assert _single_error_line(capsys) == f"error: bad theory file: {path}"


def _one_cell(cell, dom, cod):
    """A diagram file of one cell whose ports are the boundary, in order."""
    return {"sort": {"dom": dom, "cod": cod}, "cells": [cell], "wires": [
        {"source": ["dom", k], "target": ["cell", 0, k, "in"], "type": t}
        for k, t in enumerate(dom)] + [
        {"source": ["cell", 0, k, "out"], "target": ["cod", k], "type": t}
        for k, t in enumerate(cod)]}


def _pants(layer, beta):
    return _one_cell({"kind": "pants", "layer": layer, "alpha": ["a"],
                      "beta": [beta]}, [[layer, ["a"]], [layer, [beta]]],
                     [[layer, ["a", beta]]])


def _retarget(payload, target):
    """The payload with its first wire's target endpoint replaced."""
    payload["wires"][0]["target"] = target
    return payload


# files that name what the system does not declare
UNDECLARED = [
    (_one_cell({"kind": "box", "layer": "U", "dom": ["a"], "cod": ["b"],
                "slices": [[0, "zz"]]}, [["U", ["a"]]], [["U", ["b"]]]),
     "cells[0]: unknown generator 'zz'"),
    (_one_cell({"kind": "box", "layer": "U", "dom": ["a", "z"],
                "cod": ["b", "z"], "slices": [[0, "g"]]},
               [["U", ["a", "z"]]], [["U", ["b", "z"]]]),
     "cells[0]: object 'z' not declared in layer 'U'"),
    (_pants("NOPE", "b"), "cells[0]: no layer named 'NOPE'"),
    (_pants("U", "z"), "cells[0]: object 'z' not declared in layer 'U'"),
    (_one_cell({"kind": "refine", "source": "L", "target": "U",
                "word": ["x"]}, [["L", ["x"]]], [["U", ["a"]]]),
     "cells[0]: no translation 'L' -> 'U'"),
    ({"sort": {"dom": [["U", ["z"]]], "cod": [["U", ["z"]]]}, "cells": [],
      "wires": [{"source": ["dom", 0], "target": ["cod", 0],
                 "type": ["U", ["z"]]}]},
     "sort.dom: object 'z' not declared in layer 'U'"),
]


@pytest.mark.parametrize("payload, path", [
    (3, "top level: expected an object, got int"),
    ([1], "top level: expected an object, got list"),
    ({"sort": {"dom": [], "cod": []}, "cells": [1], "wires": []},
     "cells[0]: expected an object, got int"),
    ({"sort": {"dom": [], "cod": []}, "cells": [{"kind": "nope"}],
      "wires": []}, "cells[0].kind: unknown cell kind 'nope'"),
    ({"sort": {"dom": [["U", ["a"]]], "cod": [["U", ["a"]]]},
      "cells": [], "wires": [{"source": ["dom", 0], "target": ["cod", 0],
                              "type": "U"}]},
     "wires[0].type: expected a list, got str"),
    ({"sort": {"dom": [["U", ["a"]]], "cod": [["U", ["a"]]]},
      "cells": [], "wires": [{"source": ["cell", 0], "target": ["cod", 0],
                              "type": ["U", ["a"]]}]},
     "wires[0].source: expected 3 items, got 2"),
    *UNDECLARED,
    # a cell endpoint is tagged "cell", and its port names its role
    (_retarget(_pants("U", "b"), ["zz", 0, 0, "in"]),
     "wires[0].target: expected 'dom', 'cod' or 'cell', got 'zz'"),
    (_retarget(_pants("U", "b"), ["cell", 0, 0, "out"]),
     "wires[0].target: expected port 'in', got 'out'"),
])
def test_cli_diagram_file_shape(tmp_path, capsys, payload, path):
    t = _write(tmp_path, "t.json",
               jsonio.system_to_json(make_two_layer_system()))
    d = _write(tmp_path, "d.json", payload)
    assert main(["export-dot", "--system", t, "--diagram", d]) == 1
    assert _single_error_line(capsys) == f"error: bad diagram file: {path}"


@pytest.mark.parametrize("payload, path", [
    ([1], "top level: expected an object, got list"),
    ({"start": 3}, "start: expected an object, got int"),
    ({"start": {"sort": {"dom": [], "cod": []}, "cells": [], "wires": []},
      "steps": [3]}, "steps[0]: expected an object, got int"),
    ({"start": _pants("U", "z")},
     "start.cells[0]: object 'z' not declared in layer 'U'"),
])
def test_cli_derivation_file_shape(tmp_path, capsys, payload, path):
    t = _write(tmp_path, "t.json",
               jsonio.system_to_json(make_two_layer_system()))
    x = _write(tmp_path, "x.json", payload)
    assert main(["explain2", "--system", t, "--derivation", x, "--layer",
                 "U", "--equation", "gh_is_u"]) == 1
    assert _single_error_line(capsys) == \
        f"error: bad derivation file: {path}"


def test_cli_derivation_unparsable_collapse_rule(tmp_path, capsys):
    t = _write(tmp_path, "t.json",
               jsonio.system_to_json(make_two_layer_system()))
    x = _write(tmp_path, "x.json", {
        "start": {"sort": {"dom": [], "cod": []}, "cells": [], "wires": []},
        "steps": [{"rule": "A3c[x", "orientation": "fwd"}]})
    assert main(["explain2", "--system", t, "--derivation", x, "--layer",
                 "U", "--equation", "gh_is_u"]) == 1
    assert "does not re-match" in _single_error_line(capsys)


# -- input nested deeper than the recursion limit -----------------------------


def test_cli_typechecks_a_long_chain(tmp_path, capsys):
    t = _write(tmp_path, "t.json",
               jsonio.system_to_json(make_two_layer_system()))
    chain = tmp_path / "long.sexp"
    chain.write_text("(seq " + " ".join(["(id U a)"] * 1200) + ")",
                     encoding="utf-8")
    assert main(["typecheck", "--system", t, "--term", "(id U a)"]) == 0
    one = capsys.readouterr().out
    assert main(["typecheck", "--system", t, "--diagram", str(chain)]) == 0
    assert capsys.readouterr().out == one


def test_cli_rejects_deep_parentheses(tmp_path, capsys):
    t = _write(tmp_path, "t.json",
               jsonio.system_to_json(make_two_layer_system()))
    nested = tmp_path / "nested.sexp"
    nested.write_text("(" * 1200 + ")" * 1200, encoding="utf-8")
    assert main(["typecheck", "--system", t, "--diagram", str(nested)]) == 1
    assert _single_error_line(capsys) == \
        "error: term nested deeper than 200 parentheses"


def _states(n, offsets):
    """A diagram file of one W box of n states s: e -> a, stored at
    offsets 0, 1, ... (each after the last) or all at offset 0."""
    slices = [[k if offsets == "rising" else 0, "s"] for k in range(n)]
    return _one_cell({"kind": "box", "layer": "W", "dom": [],
                      "cod": ["a"] * n, "slices": slices},
                     [["W", []]], [["W", ["a"] * n]])


def test_cli_eq_of_a_too_large_interchange_class(tmp_path, capsys,
                                                 single_layer):
    # independent states commute, so both files store one box; the class of
    # eight has 8! = 40320 orderings, more than are enumerated, and its
    # least member is not taken from a cut of it
    t = _write(tmp_path, "t.json", jsonio.system_to_json(single_layer))
    for n, code in ((7, 0), (8, 1)):
        x = _write(tmp_path, "x.json", _states(n, "rising"))
        y = _write(tmp_path, "y.json", _states(n, "zero"))
        assert main(["eq", "--system", t, x, y]) == code
        if code == 0:
            assert capsys.readouterr().out == "equal (structurally)\n"
    assert _single_error_line(capsys) == \
        "error: SearchTooLarge: interchange class exceeds 20000 orderings"


def test_cli_ccs_lts_empty_process(capsys):
    assert main(["ccs", "--lts", ""]) == 1
    assert _single_error_line(capsys) == \
        "error: unexpected end of process at position 0 in ''"


def test_cli_ccs_lts_long_prefix_chain(capsys):
    assert main(["ccs", "--lts", "a." * 1500 + "0"]) == 0
    out = capsys.readouterr().out
    assert out.count(" -> ") == 1500
    assert '[label="0"];' in out


def test_cli_ccs_lts_rejects_deep_parentheses(capsys):
    process = "(" * 1500 + "a.0" + "|0)" * 1500
    assert main(["ccs", "--lts", process]) == 1
    line = _single_error_line(capsys)
    assert line.startswith(
        "error: process nested deeper than 200 parentheses at position 200")
    # the message quotes only the input around the position
    assert line.endswith(f" in ...{'(' * 80!r}...") and len(line) < 160


# -- what each verb loads -----------------------------------------------------

# runs cli.main on its arguments, then writes the loaded layerprop modules
# to the file named first
_LOADED = """\
import json, sys
from layerprop import cli
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    json.dump([code, sorted(m.partition(".")[2] for m in sys.modules
                            if m.startswith("layerprop."))], out)
"""

_SEARCH = {"rewrite", "explain", "weights"}
_SEMANTICS = {"profunctor", "semantics", "models"}
_CASES = {"chem", "ccs", "circuits"}


def test_each_verb_loads_only_its_modules(tmp_path, capsys):
    fx = tmp_path / "fx"
    assert main(["chem", "--emit", str(fx)]) == 0
    assert main(["ccs", "--emit", str(fx)]) == 0
    capsys.readouterr()
    two = _write(fx, "two.json",
                 jsonio.system_to_json(make_two_layer_system()))
    for name, text in (("gh.sexp", "(seq (gen U g) (gen U h))"),
                       ("u.sexp", "(gen U u)"),
                       ("pair.sexp", "(par (gen U g) (gen U g))"),
                       ("swap.sexp", "(seq (par (gen U g) (id U a)) "
                                     "(par (id U b) (gen U g)))")):
        (fx / name).write_text(text, encoding="utf-8")
    (fx / "series.json").write_text(json.dumps(
        [{"kind": "resistor", "param": r} for r in (2, 3)]), encoding="utf-8")
    monoid = models.monoid_model()
    mon = _write(fx, "monoid.json", jsonio.system_to_json(monoid.system))
    mon_model = _write(fx, "monoid-model.json", jsonio.model_to_json(monoid))

    def f(name):
        return str(fx / name)

    chem_sys, ccs_sys = f("chem.json"), f("ccs.json")
    light = _SEARCH | _SEMANTICS | _CASES
    # (argv, exit code, modules it must not load)
    cases = [
        (["check-theory", "--system", chem_sys], 0, light),
        (["check-theory", "--system", f("missing.json")], 1, light),
        (["typecheck", "--system", two, "--term", "(gen U g)"], 0, light),
        (["typecheck", "--system", two, "--term", "(seq (gen U g)"], 1,
         light),
        (["typecheck", "--system", two, "--diagram", f("swap.sexp"),
          "--json"], 0, light),
        (["export-dot", "--system", chem_sys, "--diagram",
          f("glucose.json")], 0, light),
        (["export-dot", "--system", two, "--diagram", f("swap.sexp")], 0,
         light),
        (["eq", "--system", two, f("swap.sexp"), f("pair.sexp")], 0, light),
        (["eq", "--system", two, f("gh.sexp"), f("u.sexp")], 0,
         _SEMANTICS | _CASES),
        (["derive", "--system", two, "--src", f("gh.sexp"), "--dst",
          f("u.sexp"), "--out", f("dv.json")], 0, _SEMANTICS | _CASES),
        (["explain2", "--system", two, "--derivation", f("dv.json"),
          "--layer", "U", "--equation", "gh_is_u"], 2, _SEMANTICS | _CASES),
        (["explain", "--system", chem_sys, "--sigma", "phosphorylation",
          "--diagram", f("glucose.json"), "--budget", "600"], 0,
         _SEMANTICS | _CASES),
        (["counterfactual", "--system", ccs_sys, "--sigma", f("red1.json"),
          "--diagram", f("lts2.json")], 0, _SEMANTICS | _CASES),
        (["chem"], 0, _SEMANTICS),
        (["ccs"], 0, _SEMANTICS),
        (["circuit"], 0, _SEMANTICS),
        (["circuit", "--file", f("series.json")], 0, _SEMANTICS | _SEARCH),
        # the semantics samples rules but never searches
        (["semantics-verify", "--system", mon, "--model", mon_model,
          "--max-word", "1"], 0, {"explain", "weights"} | _CASES),
    ]
    report = tmp_path / "loaded.json"
    for argv, code, banned in cases:
        proc = subprocess.run([sys.executable, "-c", _LOADED, str(report),
                               *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        got, loaded = json.loads(report.read_text(encoding="utf-8"))
        assert got == code, (argv, proc.stderr)
        assert banned.isdisjoint(loaded), (argv, banned & set(loaded))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, layerprop; print(sorted("
         "m for m in sys.modules if m.startswith('layerprop.')))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
