"""Serialization round trips, the s-expression front end, and the CLI."""

import json
import subprocess
import sys

import pytest

from layerprop import ccs, chem, circuits, diagram as dg, jsonio, models
from layerprop import rewrite as rw
from layerprop import sexpr, terms
from layerprop.cli import main
from layerprop.errors import MalformedInput
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
])
def test_cli_model_file_shape(tmp_path, capsys, payload, path):
    model = models.monoid_model()
    t = _write(tmp_path, "t.json", jsonio.system_to_json(model.system))
    m = _write(tmp_path, "m.json", payload)
    assert main(["semantics-verify", "--system", t, "--model", m]) == 1
    assert _single_error_line(capsys) == f"error: bad model file: {path}"


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
