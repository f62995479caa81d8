"""Interpretation into pointed profunctors and rule verification."""

import gc
import weakref

import pytest

from layerprop import diagram as dg
from layerprop import models
from layerprop import profunctor as pf
from layerprop import rewrite as rw
from layerprop import semantics as sm
from layerprop.errors import ModelIncomplete
from layerprop.internal import InternalDiagram
from layerprop.theory import sheet, validate_system


@pytest.fixture(scope="module")
def monoid_model():
    return models.monoid_model()


@pytest.fixture(scope="module")
def meet_model():
    return models.meet_model()


def test_models_validate(monoid_model, meet_model):
    for model in (monoid_model, meet_model):
        assert validate_system(model.system).ok
        assert model.validate() == []
        assert model.check_consistency() == []
        for f in model.functors.values():
            assert f.validate() == []


def test_interpret_empty_is_identity_on_terminal(monoid_model):
    d = dg.empty_diagram(monoid_model.system)
    out = sm.interpret(monoid_model, d)
    assert out.src_obj == () and out.tgt_obj == ()
    assert len(out.prof.elements((), ())) == 1


def test_interpret_box_point(monoid_model):
    d = dg.gen_box(monoid_model.system, "MU", "m1")
    out = sm.interpret(monoid_model, d)
    assert out.src_obj == (("*",),) or out.src_obj == ("*",)
    # composing with the boundary identity leaves a one-point class
    # containing the generator's binding
    elements = out.prof.elements(out.src_obj, out.tgt_obj)
    assert out.point in elements


def test_interpret_seq_matches_model_composition(monoid_model):
    sys_ = monoid_model.system
    both = dg.seq_compose(dg.gen_box(sys_, "MU", "m1"),
                          dg.gen_box(sys_, "MU", "m2"))
    fused = dg.box(sys_, InternalDiagram("MU", ("u",), ("u",),
                                         ((0, "m1"), (0, "m2"))))
    a = sm.interpret(monoid_model, both)
    b = sm.interpret(monoid_model, fused)
    two_cell = pf.pointed_two_cell(a, b, iso=True)
    assert two_cell is not None


def test_interpret_refine_table_sizes(meet_model):
    sys_ = meet_model.system
    d = dg.refine(sys_, "Ar", "Sq", ("lo",))
    out = sm.interpret(meet_model, d)
    # underlying composite must have the size profile of a covariant
    # embedding: one element per morphism p -> x
    cs = meet_model.category("Sq")
    for x in cs.objects:
        expected = len(cs.hom("p", x))
        assert len(out.prof.elements((("lo",))[:1] and ("lo",), (x,))) \
            == expected


def test_model_categories_freed_with_the_model():
    # products and hom profunctors are cached on their categories, so
    # nothing outside the model keeps them alive
    model = models.meet_model()
    sys_ = model.system
    for d in (dg.sheet_sym(sys_, "Ar", ("lo",), "Sq", ("q",)),
              dg.refine(sys_, "Ar", "Sq", ("lo",)),
              dg.pants(sys_, "Sq", ("p",), ("q",))):
        sm.interpret(model, d)
    sq = model.category("Sq")
    refs = [weakref.ref(sq), weakref.ref(pf.product_category([sq, sq])),
            weakref.ref(pf.hom_profunctor(sq))]
    del model, sys_, d, sq
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_interpret_missing_binding(meet_model, monoid_model):
    d = dg.gen_box(monoid_model.system, "MU", "m1")
    with pytest.raises(ModelIncomplete):
        sm.interpret(meet_model, d)  # wrong model for this system


def test_sheet_symmetry_interprets(meet_model):
    sys_ = meet_model.system
    d = dg.sheet_sym(sys_, "Ar", ("lo",), "Sq", ("q",))
    out = sm.interpret(meet_model, d)
    assert out.src_obj == ("lo", "q")
    assert out.tgt_obj == ("q", "lo")


def test_side_evaluation_agrees_for_f1(monoid_model):
    sys_ = monoid_model.system
    engine = rw.RuleEngine(sys_)
    f = sys_.functor("MU", "ML")
    sigma = InternalDiagram("MU", ("u",), ("u",), ((0, "m1"),))
    rule = engine.rule_f1(f, sigma)
    ev_l = sm.side_evaluation(monoid_model, rule.lhs)
    ev_r = sm.side_evaluation(monoid_model, rule.rhs)
    assert ev_l and any(l == r for l in ev_l for r in ev_r)


def test_side_evaluation_none_for_mixed(monoid_model):
    sys_ = monoid_model.system
    window = dg.seq_compose(dg.refine(sys_, "MU", "ML", ("u",)),
                            dg.coarsen(sys_, "MU", "ML", ("u",)))
    assert sm.side_evaluation(monoid_model, window) == []


def _verify_all(model, words):
    engine = rw.RuleEngine(model.system)
    rules = rw.sample_instances(engine, words)
    failures = []
    for rule in rules:
        if rule.name.startswith("A3c["):
            continue
        if not sm.verify_rule_semantics(rule, model):
            failures.append(rule.name)
    return rules, failures


def test_verify_rules_monoid_model(monoid_model):
    words = {"MU": [(), ("u",), ("u", "u")], "ML": [(), ("v",)]}
    rules, failures = _verify_all(monoid_model, words)
    assert len(rules) > 50
    assert failures == []


def test_verify_rules_meet_model(meet_model):
    words = {"Ar": [(), ("lo",), ("hi",)],
             "Sq": [(), ("q",), ("r",), ("q", "r")]}
    rules, failures = _verify_all(meet_model, words)
    assert len(rules) > 80
    assert failures == []


def test_deliberately_wrong_rule_fails(monoid_model):
    sys_ = monoid_model.system
    lhs = dg.pants(sys_, "MU", ("u",), ("u",))
    rhs = dg.seq_compose(
        dg.pants(sys_, "MU", ("u",), ("u",)),
        dg.box(sys_, InternalDiagram("MU", ("u", "u"), ("u", "u"),
                                     ((0, "m1"),))))
    bogus = rw.RewriteRule("bogus", "M", lhs, rhs, True, ())
    assert not sm.verify_rule_semantics(bogus, monoid_model)


def test_e_rule_soundness_check(monoid_model):
    engine = rw.RuleEngine(monoid_model.system)
    good = engine.rule_e("MU", "m1m2_id")
    assert sm.verify_rule_semantics(good, monoid_model)
