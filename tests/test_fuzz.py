"""Hostile model files through ``layerprop semantics-verify``.

Every payload here is malformed: the command must exit 1 with exactly one
``error:`` line and no traceback.  The searches are derandomized and
bounded, so the suite stays deterministic.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerprop import jsonio, models
from layerprop.cli import main

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


def _rejected(files, payload) -> str:
    """Run semantics-verify on the payload; return its one error line."""
    theory, model = files
    model.write_text(json.dumps(payload), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["semantics-verify", "--system", theory, "--model",
                     str(model), "--max-word", "0"])
    lines = err.getvalue().splitlines()
    assert code == 1, (code, out.getvalue(), err.getvalue())
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "Traceback" not in err.getvalue()
    return lines[0]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


PATHS = list(_paths(MODEL))


def _kind(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    return "number" if isinstance(value, (int, float)) else \
        type(value).__name__


@FUZZ
@given(st.data())
def test_model_with_a_node_of_the_wrong_type(files, data):
    path = data.draw(st.sampled_from(PATHS))
    payload = json.loads(json.dumps(MODEL))
    node = payload
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]] if path else payload
    new = data.draw(JSON.filter(lambda v: _kind(v) != _kind(old)))
    if path:
        node[path[-1]] = new
    else:
        payload = new
    _rejected(files, payload)


@FUZZ
@given(JSON)
def test_model_of_random_json(files, payload):
    _rejected(files, payload)
