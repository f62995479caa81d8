"""Hostile input through the command line: model files through
``semantics-verify``, theory files through ``check-theory``, diagram files
through ``export-dot``, derivation files through ``explain2``, and hostile
options on valid files through a sample of verbs.

Every input here is malformed: the command must exit 1 with exactly one
``error:`` line and no traceback.  The searches are derandomized and
bounded, so the suite stays deterministic.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerprop import diagram as dg
from layerprop import jsonio, models
from layerprop import rewrite as rw
from layerprop.cli import main
from layerprop.internal import InternalDiagram

FUZZ = settings(derandomize=True, database=None, max_examples=50,
                deadline=None)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=8)

MODEL = jsonio.model_to_json(models.monoid_model())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    theory = root / "t.json"
    theory.write_text(jsonio.dumps(jsonio.system_to_json(
        models.monoid_model().system)), encoding="utf-8")
    return str(theory), root / "m.json"


def _argv(files, verb: str) -> list[str]:
    """The command line that loads the payload file with ``verb``."""
    theory, path = files[0], str(files[1])
    return [verb, "--system", path if verb == "check-theory" else theory] + {
        "semantics-verify": ["--model", path, "--max-word", "0"],
        "check-theory": [], "export-dot": ["--diagram", path],
        "explain2": ["--derivation", path, "--layer", "MU", "--equation",
                     "m1m2_id"]}[verb]


def _hostile(argv: list[str]) -> str:
    """Run the command line; it must exit 1 with one error line, which is
    returned."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 1, (code, out.getvalue(), err.getvalue())
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "Traceback" not in err.getvalue()
    return lines[0]


def _rejected(files, payload, verb: str = "semantics-verify") -> str:
    """Run ``verb`` on the payload; return its one error line."""
    files[1].write_text(json.dumps(payload), encoding="utf-8")
    return _hostile(_argv(files, verb))


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _kind(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    return "number" if isinstance(value, (int, float)) else \
        type(value).__name__


def _replaced(data, valid):
    """A copy of a valid payload with one node, at a random path, replaced
    by random JSON of another kind."""
    path = data.draw(st.sampled_from(list(_paths(valid))))
    payload = json.loads(json.dumps(valid))
    node = payload
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]] if path else payload
    new = data.draw(JSON.filter(lambda v: _kind(v) != _kind(old)))
    if not path:
        return new
    node[path[-1]] = new
    return payload


@FUZZ
@given(st.data())
def test_model_with_a_node_of_the_wrong_type(files, data):
    _rejected(files, _replaced(data, MODEL))


@FUZZ
@given(JSON)
def test_model_of_random_json(files, payload):
    _rejected(files, payload)


def _valid_files():
    """A valid theory, diagram and derivation over the monoid system; the
    derivation deletes m1;m2 by the equation m1m2_id."""
    sys_ = models.monoid_model().system
    m1m2 = dg.box(sys_, InternalDiagram("MU", ("u",), ("u",),
                                        ((0, "m1"), (0, "m2"))))
    d = dg.seq_many(dg.copants(sys_, "MU", ("u",), ()),
                    dg.par_tensor(m1m2, dg.cap(sys_, "MU")),
                    dg.refine(sys_, "MU", "ML", ("u",)))
    dv = rw.find_derivation(m1m2, dg.identity(sys_, m1m2.dom), 20)
    return {"check-theory": jsonio.system_to_json(sys_),
            "export-dot": jsonio.diagram_to_json(d),
            "explain2": jsonio.derivation_to_json(dv)}


VALID = _valid_files()


@pytest.mark.parametrize("verb", sorted(VALID))
def test_valid_loader_payloads_are_accepted(files, verb):
    files[1].write_text(json.dumps(VALID[verb]), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(files, verb))
    assert code != 1 and err.getvalue() == "", (code, err.getvalue())


@pytest.mark.parametrize("verb", sorted(VALID))
@FUZZ
@given(data=st.data())
def test_loader_input_with_a_node_of_the_wrong_type(files, verb, data):
    _rejected(files, _replaced(data, VALID[verb]), verb)


@pytest.mark.parametrize("verb", sorted(VALID))
@FUZZ
@given(payload=JSON)
def test_loader_input_of_random_json(files, verb, payload):
    _rejected(files, payload, verb)


def _name_paths(valid, under=()):
    """Paths below ``under`` of a diagram payload's name strings (layers,
    objects, generators), leaving out cell kinds and endpoint tags."""
    out = []
    for path in _paths(valid):
        node = valid
        for key in path:
            node = node[key]
        if (isinstance(node, str) and path[:len(under)] == under
                and path[-1] != "kind" and not ("wires" in path and (
                    "source" in path or "target" in path))):
            out.append(path)
    return out


@pytest.mark.parametrize("verb, under", [("export-dot", ()),
                                         ("explain2", ("start",))])
@FUZZ
@given(data=st.data())
def test_diagram_naming_an_undeclared_name(files, verb, under, data):
    # the loader builds cells through the checked constructors and checks
    # the sort, so a name the system does not declare is rejected
    path = data.draw(st.sampled_from(_name_paths(VALID[verb], under)))
    payload = json.loads(json.dumps(VALID[verb]))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "zz"
    _rejected(files, payload, verb)


def test_cell_id_of_the_wrong_type(files):
    # the loader ignored a cell's "id", so a diagram with "id": null loaded
    payload = json.loads(json.dumps(VALID["export-dot"]))
    payload["cells"][1]["id"] = None
    assert _rejected(files, payload, "export-dot") == \
        "error: bad diagram file: cells[1].id: expected int, got null"


# -- hostile options on valid files -----------------------------------------


@pytest.fixture(scope="module")
def valid(files):
    """Paths of a valid theory, model, diagram and derivation."""
    root = files[1].parent
    paths = {"t": files[0]}
    for key, name, payload in (("m", "model.json", MODEL),
                               ("d", "d.json", VALID["export-dot"]),
                               ("dv", "dv.json", VALID["explain2"])):
        (root / name).write_text(json.dumps(payload), encoding="utf-8")
        paths[key] = str(root / name)
    return paths


# each command line names the files by key; every one is a usage error or
# an option value the verb must reject before it runs a check
HOSTILE_OPTIONS = [
    ["derive", "--system", "t"],
    ["derive", "--system", "t", "--src", "d", "--dst", "d", "--collapse",
     "MU"],
    ["derive", "--system", "t", "--src", "d", "--dst", "d", "--collapse",
     "X>Y"],
    ["explain", "--system", "t", "--sigma", "d", "--diagram", "d",
     "--collapse", "MU-ML"],
    ["counterfactual", "--system", "t", "--sigma", "d", "--diagram", "d",
     "--collapse", "ML>MU"],
    ["explain2", "--system", "t", "--derivation", "dv", "--layer", "MU",
     "--equation", "m1m2_id", "--collapse", "MU>"],
    ["explain2", "--system", "t", "--derivation", "dv", "--layer", "MU",
     "--equation", "m1m2_id", "--budget", "5"],
    ["eq", "--system", "t", "d", "d", "--budget", "abc"],
    ["eq", "--system", "t", "d", "d", "--collapse", "MU>ML"],
    ["typecheck", "--system", "t"],
    ["typecheck", "--system", "t", "--term", "(empty)", "--diagram", "d"],
    ["export-dot", "--system", "t", "--diagram", "d", "--json"],
    ["check-theory", "--system", "t", "--budget", "1"],
    ["semantics-verify", "--system", "t", "--model", "m", "--max-word",
     "two"],
    ["semantics-verify", "--system", "t", "--model", "m", "--cap", "1e6"],
    ["chem", "--budget", "1.5"],
    ["chem", "--collapse", "A>B"],
    ["ccs", "--budget"],
    ["circuit", "--frob"],
    ["frobnicate"],
    [],
]


@pytest.mark.parametrize("argv", HOSTILE_OPTIONS, ids=" ".join)
def test_hostile_options_on_valid_files(valid, argv):
    _hostile([valid.get(a, a) for a in argv])


def _not_a_count(text: str) -> bool:
    try:
        return int(text) < 0
    except ValueError:
        return True


COUNT_OPTIONS = {
    "--budget": ["derive", "--system", "t", "--src", "d", "--dst", "d"],
    "--max-word": ["semantics-verify", "--system", "t", "--model", "m"],
    "--cap": ["semantics-verify", "--system", "t", "--model", "m"],
}


@FUZZ
@given(option=st.sampled_from(sorted(COUNT_OPTIONS)),
       value=st.text(max_size=6).filter(_not_a_count))
def test_count_option_of_random_text(valid, option, value):
    _hostile([valid.get(a, a) for a in COUNT_OPTIONS[option]]
             + [option, value])


@FUZZ
@given(value=st.text(max_size=6).filter(lambda v: v != "MU>ML"))
def test_collapse_option_of_random_text(valid, value):
    _hostile(["derive", "--system", valid["t"], "--src", valid["d"],
              "--dst", valid["d"], "--collapse", value])
