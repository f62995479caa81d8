"""Window shapes and the explanation judgments on the miniature system."""

import pytest

from layerprop import diagram as dg
from layerprop import explain as ex
from layerprop import rewrite as rw
from layerprop.diagram import canonicalize
from layerprop.errors import InvalidDerivation, SortMismatch
from layerprop.internal import InternalDiagram
from layerprop.theory import SystemOfLayers, sheet


def _window(two_layer, content=None):
    parts = [dg.refine(two_layer, "U", "L", ("a",))]
    if content is not None:
        parts.append(dg.box(two_layer, content))
    parts.append(dg.coarsen(two_layer, "U", "L", ("a",)))
    out = parts[0]
    for p in parts[1:]:
        out = dg.seq_compose(out, p)
    return out


def test_is_window(two_layer):
    w = _window(two_layer, InternalDiagram("L", ("x",), ("x",),
                                           ((0, "ul"),)))
    assert ex.is_window(w)
    assert not ex.is_cowindow(w)
    assert ex.is_window(_window(two_layer))  # trivial frame


def test_single_box_is_neither(two_layer):
    b = dg.gen_box(two_layer, "U", "g")
    assert not ex.is_window(b)
    assert not ex.is_cowindow(b)


def test_is_cowindow(two_layer):
    cw = dg.seq_compose(
        dg.seq_compose(dg.coarsen(two_layer, "U", "L", ("a",)),
                       dg.gen_box(two_layer, "U", "u")),
        dg.refine(two_layer, "U", "L", ("a",)))
    assert ex.is_cowindow(cw)
    assert not ex.is_window(cw)


def test_explanation_1_valid(two_layer):
    sigma = dg.gen_box(two_layer, "U", "u")  # a -> a in the upper layer
    e = _window(two_layer, InternalDiagram("L", ("x",), ("x",),
                                           ((0, "ul"),)))
    verdict = ex.check_explanation_1(e, sigma, budget=400)
    assert verdict.status == "valid"
    assert verdict.witness is not None
    assert rw.verify_derivation(verdict.witness)
    ends = {rw.canonical_key(verdict.witness.start),
            verdict.witness.end_key}
    assert ends == {rw.canonical_key(canonicalize(e).diagram),
                    rw.canonical_key(canonicalize(sigma).diagram)}
    assert ex.contains_window(e)


def test_explanation_1_condition2_violation(two_layer):
    sigma = dg.gen_box(two_layer, "U", "u")
    bad = dg.gen_box(two_layer, "U", "u")
    # same-layer box in the explanation: condition 2 fails (also e == sigma)
    verdict = ex.check_explanation_1(bad, sigma, budget=10)
    assert verdict.status == "invalid"
    assert any("condition 2" in r for r in verdict.reasons)


def test_explanation_1_budget_zero_unknown(two_layer):
    sigma = dg.gen_box(two_layer, "U", "u")
    e = _window(two_layer, InternalDiagram("L", ("x",), ("x",),
                                           ((0, "ul"),)))
    verdict = ex.check_explanation_1(e, sigma, budget=0)
    assert verdict.status == "unknown"


def test_explanation_1_requires_parallel(two_layer):
    with pytest.raises(SortMismatch, match="^explanation and explained "
                                           "must be parallel$"):
        ex.check_explanation_1(dg.gen_box(two_layer, "U", "g"),
                               dg.gen_box(two_layer, "U", "u"), 5)


def test_monotone_in_budget(two_layer):
    sigma = dg.gen_box(two_layer, "U", "u")
    e = _window(two_layer, InternalDiagram("L", ("x",), ("x",),
                                           ((0, "ul"),)))
    small = ex.check_explanation_1(e, sigma, budget=400)
    large = ex.check_explanation_1(e, sigma, budget=4000)
    assert small.status == "valid" and large.status == "valid"


def test_explanation_2_uses_lower_equation(two_layer):
    # the upper layer's equation g;h = u, explained through the ul-image:
    # here we check the bookkeeping, not chemistry: a derivation that proves
    # box(g;h) => box(u) via the upper equation itself must be rejected
    sys = two_layer
    engine = rw.RuleEngine(sys)
    gh = dg.box(sys, InternalDiagram("U", ("a",), ("a",),
                                     ((0, "g"), (0, "h"))))
    u = dg.gen_box(sys, "U", "u")
    dv = rw.find_derivation(gh, u, 30, engine)
    assert isinstance(dv, rw.Derivation)
    verdict = ex.check_explanation_2(dv, "U", "gh_is_u")
    assert verdict.status == "invalid"
    assert any("condition 2" in r for r in verdict.reasons)


def test_explanation_2_nonparallel_rejected(two_layer):
    engine = rw.RuleEngine(two_layer)
    ident = dg.identity(two_layer, sheet("U", ("a",)) + sheet("U", ("b",)))
    dst = dg.seq_compose(dg.pants(two_layer, "U", ("a",), ("b",)),
                         dg.copants(two_layer, "U", ("a",), ("b",)))
    dv = rw.find_derivation(ident, dst, 50, engine)
    verdict = ex.check_explanation_2(dv, "U", "gh_is_u")
    assert verdict.status == "invalid"
    assert any("parallelism" in r for r in verdict.reasons)


def test_explanation_2_rejects_a_derivation_that_does_not_replay(
        two_layer):
    # the steps of g;h => u, put after a start they were not found on
    gh = dg.box(two_layer, InternalDiagram("U", ("a",), ("a",),
                                           ((0, "g"), (0, "h"))))
    u = dg.gen_box(two_layer, "U", "u")
    moved = rw.Derivation(u, rw.find_derivation(gh, u, 30).steps)
    with pytest.raises(InvalidDerivation, match="does not replay"):
        ex.check_explanation_2(moved, "U", "gh_is_u")


def test_explanation_2_unknown_equation(two_layer):
    engine = rw.RuleEngine(two_layer)
    x = dg.gen_box(two_layer, "U", "g")
    dv = rw.find_derivation(x, x, 5, engine)
    with pytest.raises(InvalidDerivation):
        ex.check_explanation_2(dv, "U", "missing")


def test_counterfactual_refuted_when_windowable(two_layer):
    sigma = dg.gen_box(two_layer, "U", "u")
    e = _window(two_layer, InternalDiagram("L", ("x",), ("x",),
                                           ((0, "ul"),)))
    verdict = ex.check_counterfactual(e, sigma, budget=400)
    assert verdict.status == "refuted"
    assert verdict.witness is not None and rw.verify_derivation(
        verdict.witness)


def test_counterfactual_invalid_conditions(two_layer):
    sigma = dg.gen_box(two_layer, "U", "u")
    verdict = ex.check_counterfactual(dg.gen_box(two_layer, "U", "u"),
                                      sigma, budget=10)
    assert verdict.status == "invalid"


def test_counterfactual_unknown_within_budget(two_layer):
    # the window is not isolated, and budget 0 finds no rewrite either way
    sigma = dg.gen_box(two_layer, "U", "u")
    e = _window(two_layer, InternalDiagram("L", ("x",), ("x",),
                                           ((0, "ul"),)))
    verdict = ex.check_counterfactual(e, sigma, budget=0)
    assert verdict.status == "unknown" and verdict.witness is None
    assert verdict.reasons == ["no isolation certificate and no rewrite "
                               "within budget 0"]


def test_counterfactual_of_coinciding_diagrams_invalid(two_layer):
    # conditions 1 and 2 hold for a diagram and itself only where a layer
    # is below itself, an order that validation rejects
    system = SystemOfLayers(list(two_layer.layers.values()),
                            list(two_layer.functors.values()),
                            list(two_layer.order) + [("U", "U")])
    sigma = dg.gen_box(system, "U", "u")
    verdict = ex.check_counterfactual(sigma, dg.gen_box(system, "U", "u"),
                                      budget=10)
    assert verdict.status == "invalid" and verdict.witness is None
    assert verdict.reasons == ["the diagrams coincide; the identity rewrite "
                               "connects them"]


def test_certified_excludes_valid(two_layer):
    # a certified counterfactual can never also be a valid explanation
    sigma = dg.gen_box(two_layer, "U", "u")
    e = _window(two_layer, InternalDiagram("L", ("x",), ("x",),
                                           ((0, "ul"),)))
    cf = ex.check_counterfactual(e, sigma, budget=400)
    e1 = ex.check_explanation_1(e, sigma, budget=400)
    assert not (cf.status == "certified" and e1.status == "valid")


def _not_single_boxes(two_layer):
    """(e, sigma) pairs, each parallel, whose sigma is not one internal box:
    an identity wire, a two-box chain and a lone refine."""
    s = two_layer
    window = _window(s, InternalDiagram("L", ("x",), ("x",), ((0, "ul"),)))
    lowered = dg.seq_compose(
        dg.refine(s, "U", "L", ("a",)),
        dg.box(s, InternalDiagram("L", ("x",), ("x",),
                                  ((0, "gl"), (0, "hl")))))
    chain = dg.seq_many(dg.gen_box(s, "U", "g"),
                        dg.refine(s, "U", "L", ("b",)),
                        dg.gen_box(s, "L", "hl"))
    return [(window, dg.identity(s, sheet("U", ("a",)))),
            (lowered, chain),
            (lowered, dg.refine(s, "U", "L", ("a",)))]


@pytest.mark.parametrize("judgment", [ex.check_explanation_1,
                                      ex.check_counterfactual])
def test_condition_1_rejects_what_is_not_one_box(two_layer, judgment):
    for e, sigma in _not_single_boxes(two_layer):
        verdict = judgment(e, sigma, budget=50)
        assert verdict.status == "invalid"
        assert verdict.witness is None
        assert verdict.reasons == ["condition 1: explained morphism is not "
                                   "a single internal box of one layer"]


def test_counterfactual_requires_parallel(two_layer):
    with pytest.raises(SortMismatch, match="^counterfactual and explained "
                                           "must be parallel$"):
        ex.check_counterfactual(dg.gen_box(two_layer, "U", "g"),
                                dg.gen_box(two_layer, "U", "u"), 5)
