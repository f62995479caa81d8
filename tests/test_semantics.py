"""Interpretation into pointed profunctors and rule verification."""

import gc
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import weakref

import pytest

from layerprop import diagram as dg
from layerprop import models
from layerprop import profunctor as pf
from layerprop import rewrite as rw
from layerprop import semantics as sm
from layerprop.errors import BoundaryMismatch, ModelIncomplete
from layerprop.internal import InternalDiagram
from layerprop.theory import (LayerPresentation, MorphismGen, SystemOfLayers,
                              TranslationFunctor, sheet, validate_system)

import profunctor_oracles as oracles


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
    # products and hom profunctors are cached on their categories, pieces,
    # functors and push tables on the model, and rule pieces on the engine,
    # so nothing outside the model and the engine keeps them alive
    model = models.meet_model()
    sys_ = model.system
    for d in (dg.sheet_sym(sys_, "Ar", ("lo",), "Sq", ("q",)),
              dg.refine(sys_, "Ar", "Sq", ("lo",)),
              dg.pants(sys_, "Sq", ("p",), ("q",))):
        sm.interpret(model, d)
        assert sm.side_evaluation(model, d)
    engine = rw.RuleEngine(sys_)
    rules = rw.sample_instances(engine, {"Ar": [(), ("lo",)],
                                         "Sq": [(), ("q",)]})
    for rule in rules:
        sm.verify_rule_semantics(rule, model)
    assert any(key[0] == "push" for key in model._cache)
    sq = model.category("Sq")
    refs = [weakref.ref(sq), weakref.ref(pf.product_category([sq, sq])),
            weakref.ref(pf.hom_profunctor(sq)), weakref.ref(engine)]
    del model, sys_, d, sq, engine, rules, rule
    gc.collect()
    assert [r() for r in refs] == [None] * 4


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


def test_cyclic_permutation_reads_both_ways(meet_model):
    # lo, q, hi to q, hi, lo is one permutation P of the sheets, read up as
    # P and down as P^-1
    sys_ = meet_model.system
    d = dg.seq_compose(
        dg.par_tensor(dg.sheet_sym(sys_, "Ar", ("lo",), "Sq", ("q",)),
                      dg.identity(sys_, sheet("Ar", ("hi",)))),
        dg.par_tensor(dg.identity(sys_, sheet("Sq", ("q",))),
                      dg.sheet_sym(sys_, "Ar", ("lo",), "Ar", ("hi",))))
    assert [[item[0] for item in items]
            for items in sm.layered_slices(d)] == [["perm"]]
    ar, sq = meet_model.category("Ar"), meet_model.category("Sq")
    src = pf.product_category([ar, sq, ar]).objects
    tgt = pf.product_category([sq, ar, ar]).objects
    up, down = sm.side_evaluation(meet_model, d)
    assert up[0] == "up" and up[1] == tuple((x, y, z) for z, x, y in src)
    assert down[0] == "down" and down[1] == tuple((z, x, y)
                                                  for x, y, z in tgt)
    assert up[3:5] == down[3:5] == (("lo", "q", "hi"), ("q", "hi", "lo"))


def test_side_evaluation_agrees_for_f1(monoid_model):
    sys_ = monoid_model.system
    engine = rw.RuleEngine(sys_)
    f = sys_.functor("MU", "ML")
    sigma = InternalDiagram("MU", ("u",), ("u",), ((0, "m1"),))
    rule = engine.rule_instance("F1", f, sigma)
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


def _wrong_rule(sys_):
    """Pants against pants followed by a box on the merged sheet."""
    lhs = dg.pants(sys_, "MU", ("u",), ("u",))
    rhs = dg.seq_compose(
        dg.pants(sys_, "MU", ("u",), ("u",)),
        dg.box(sys_, InternalDiagram("MU", ("u", "u"), ("u", "u"),
                                     ((0, "m1"),))))
    return rw.RewriteRule("bogus", "M", lhs, rhs, True, ())


def test_deliberately_wrong_rule_fails(monoid_model):
    assert not sm.verify_rule_semantics(_wrong_rule(monoid_model.system),
                                        monoid_model)


CRITERION_4_WORDS = (
    ("monoid_model", {"MU": [(), ("u",), ("u", "u")], "ML": [(), ("v",)]}),
    ("meet_model", {"Ar": [(), ("lo",), ("hi",)],
                    "Sq": [(), ("q",), ("r",), ("q", "r")]}))


def _agree(model, rule) -> bool:
    return any(l == r for l in sm.side_evaluation(model, rule.lhs)
               for r in sm.side_evaluation(model, rule.rhs))


def _searched(model, rule, iso: bool):
    """The element search's pointed 2-cell between the interpreted sides."""
    return pf.pointed_two_cell(sm.interpret(model, rule.lhs),
                               sm.interpret(model, rule.rhs), iso=iso)


@pytest.mark.parametrize("name, count", [("monoid_model", 130),
                                         ("meet_model", 284)])
def test_sliding_verdicts_match_the_element_search(name, count, request):
    # the search, kept as an independent oracle: on every F and M instance
    # (and the wrong rule) it finds a 2-cell fixing every element exactly
    # when the side evaluations agree, and that agreement is the verdict
    model = request.getfixturevalue(name)
    words = dict(CRITERION_4_WORDS)[name]
    rules = [r for r in rw.sample_instances(rw.RuleEngine(model.system),
                                            words) if r.family in ("F", "M")]
    assert len(rules) == count
    if name == "monoid_model":
        rules.append(_wrong_rule(model.system))
    for rule in rules:
        cell = _searched(model, rule, rule.bidirectional)
        identity = cell is not None and all(
            key[2] == val for key, val in cell.items())
        agree = _agree(model, rule)
        assert sm.verify_rule_semantics(rule, model) == agree == identity, \
            rule.name


def _counit_past_a_crossing(sys_, box: bool):
    """The counit law M4l beside an ML sheet that crosses its output:
    copants((), u) beside v, a sheet swap of u and v, then the cap, against
    the swap alone, followed by an m1 box on u if ``box``."""
    u, v = sheet("MU", ("u",)), sheet("ML", ("v",))
    lhs = dg.seq_compose(
        dg.seq_compose(
            dg.par_tensor(dg.copants(sys_, "MU", (), ("u",)),
                          dg.identity(sys_, v)),
            dg.par_tensor(dg.identity(sys_, sheet("MU", ())),
                          dg.sheet_sym(sys_, "MU", ("u",), "ML", ("v",)))),
        dg.par_tensor(dg.par_tensor(dg.cap(sys_, "MU"), dg.identity(sys_, v)),
                      dg.identity(sys_, u)))
    rhs = dg.sheet_sym(sys_, "MU", ("u",), "ML", ("v",))
    if box:
        rhs = dg.seq_compose(rhs, dg.par_tensor(dg.identity(sys_, v), dg.box(
            sys_, InternalDiagram("MU", ("u",), ("u",), ((0, "m1"),)))))
    return rw.RewriteRule("M4l-crossed", "M", lhs, rhs, True, ())


def test_down_only_side_with_a_permutation(monoid_model):
    # the left side folds to hom(-, G-) only in its down reading, where the
    # crossing is read as down(P^-1); the right side is the crossing alone
    rule = _counit_past_a_crossing(monoid_model.system, False)
    assert sm.layered_slices(rule.lhs)[-1][0][0] == "perm"
    assert [e[0] for e in sm.side_evaluation(monoid_model, rule.lhs)] == [
        "down"]
    assert [e[0] for e in sm.side_evaluation(monoid_model, rule.rhs)] == [
        "up", "down"]
    assert sm.verify_rule_semantics(rule, monoid_model)
    # the search finds a pointed isomorphism both ways
    left = sm.interpret(monoid_model, rule.lhs)
    right = sm.interpret(monoid_model, rule.rhs)
    assert pf.pointed_two_cell(left, right, iso=True) is not None
    assert pf.pointed_two_cell(right, left, iso=True) is not None
    # a box on the right breaks the law; the search still finds a pointed
    # iso (m1 is invertible), so the verdict rests on the evaluations, as
    # the conjunction of the two did before
    wrong = _counit_past_a_crossing(monoid_model.system, True)
    assert _searched(monoid_model, wrong, True) is not None
    assert not _agree(monoid_model, wrong)
    assert not sm.verify_rule_semantics(wrong, monoid_model)


def test_window_collapse_rules_are_not_verified(monoid_model):
    f = next(iter(monoid_model.system.functors.values()))
    rule = rw.RuleEngine(monoid_model.system).rule_instance(
        "A3c", f, monoid_model.system.layer(f.source).gen_objects[:1])
    with pytest.raises(ModelIncomplete, match="window-collapse"):
        sm.verify_rule_semantics(rule, monoid_model)


def test_sliding_rules_run_no_element_search(monoid_model, monkeypatch):
    calls = []
    search = pf.nat_trans_search
    monkeypatch.setattr(pf, "nat_trans_search",
                        lambda *a, **k: calls.append(a) or search(*a, **k))
    words = dict(CRITERION_4_WORDS)["monoid_model"]
    rules = rw.sample_instances(rw.RuleEngine(monoid_model.system), words)
    sliding = [r for r in rules if r.family in ("F", "M")]
    assert sliding and all(sm.verify_rule_semantics(r, monoid_model)
                           for r in sliding)
    assert calls == []
    # the counter sees the searches the A family still runs
    assert sm.verify_rule_semantics(
        next(r for r in rules if r.family == "A"), monoid_model)
    assert len(calls) == 1


def _identifying_model():
    """Ar translated into a Sq with the one object p: lo and hi both go to
    p and up to p's identity."""
    upper = LayerPresentation("Ar", ("lo", "hi"),
                              (MorphismGen("up", ("lo",), ("hi",)),))
    lower = LayerPresentation("Sq", ("p",))
    f = TranslationFunctor(
        "Ar", "Sq", (("lo", ("p",)), ("hi", ("p",))),
        (("up", InternalDiagram("Sq", ("p",), ("p",), ())),))
    ca = models.arrow_meet_category()
    cs = models._poset_category("Sq", ["p"], {("p", "p")}, {("p", "p"): "p"})
    return sm.FinOmegaSystem(
        SystemOfLayers([upper, lower], [f], order=[("Sq", "Ar")]),
        {"Ar": ca, "Sq": cs},
        {("Ar", "lo"): "lo", ("Ar", "hi"): "hi", ("Sq", "p"): "p"},
        {("Ar", "up"): "lo<hi"},
        {("Ar", "Sq"): pf.FinFunctor("identify", ca, cs,
                                     {"lo": "p", "hi": "p"},
                                     {m: "p<p" for m in ca.morphisms})})


def test_rule_without_a_pointed_two_cell_fails():
    # the window on lo has an element over (hi, lo), where lo's identity has
    # none, so no 2-cell takes the window to the identity; the reverse rule,
    # the window's unit, has one
    model = _identifying_model()
    assert validate_system(model.system).ok and model.validate() == []
    ident = dg.identity(model.system, sheet("Ar", ("lo",)))
    window = dg.seq_compose(dg.refine(model.system, "Ar", "Sq", ("lo",)),
                            dg.coarsen(model.system, "Ar", "Sq", ("lo",)))
    collapse = rw.RewriteRule("collapse", "A", window, ident, False)
    assert not sm.verify_rule_semantics(collapse, model)
    unit = rw.RewriteRule("unit", "A", ident, window, False)
    assert sm.verify_rule_semantics(unit, model)


def test_rule_verification_slices_each_side_once(monoid_model, monkeypatch):
    # the side evaluations slice each side once and interpret neither
    engine = rw.RuleEngine(monoid_model.system)
    rule = engine.rule_instance("F1", monoid_model.system.functor("MU", "ML"),
                                InternalDiagram("MU", ("u",), ("u",),
                                                ((0, "m1"),)))
    cut = []
    slices = sm.layered_slices
    monkeypatch.setattr(sm, "layered_slices",
                        lambda d: cut.append(d) or slices(d))
    assert sm.verify_rule_semantics(rule, monoid_model)
    assert len(cut) == 2


def test_e_rule_soundness_check(monoid_model):
    engine = rw.RuleEngine(monoid_model.system)
    good = engine.rule_instance("E", "MU", "m1m2_id")
    assert sm.verify_rule_semantics(good, monoid_model)
    # E is decided by side evaluation like F and M; on every E instance of
    # the --max-word 2 pools that verdict is the equation's own check, that
    # both sides denote one morphism
    checked = 0
    for model in (models.monoid_model(), models.meet_model()):
        engine = rw.RuleEngine(model.system)
        pools = {name: [w for n in range(3)
                        for w in itertools.product(lay.gen_objects, repeat=n)]
                 for name, lay in model.system.layers.items()}
        for key, args in rw._sampled(model.system, pools, rw._SAMPLES, ()):
            if key != "E":
                continue
            rule = engine.rule_instance(key, *args)
            layer, eq_name = rule.params
            eq = next(e for e in model.system.layer(layer).equations
                      if e.name == eq_name)
            assert sm.verify_rule_semantics(rule, model) == (
                model.internal_morphism(eq.lhs)
                == model.internal_morphism(eq.rhs))
            checked += 1
    assert checked == 3
    # with m2 bound to 1, m1;m2 denotes 2, not the identity 0
    broken = models.monoid_model()
    broken.generators[("MU", "m2")] = "1"
    assert not sm.verify_rule_semantics(
        rw.RuleEngine(broken.system).rule_instance("E", "MU", "m1m2_id"),
        broken)


CRITERION_4_DIGEST = ("f8b930dd41a30d284aa99ed228559ee2"
                      "e1235f7ca4d2a19168b56e005e53769a")


def test_criterion_4_verdicts_pinned(monoid_model, meet_model):
    # the verdict and the side evaluations (direction, object and generator
    # images, boundaries, point) of every instance of the criterion-4 pools
    entries = []
    for model, words in (
            (monoid_model, {"MU": [(), ("u",), ("u", "u")],
                            "ML": [(), ("v",)]}),
            (meet_model, {"Ar": [(), ("lo",), ("hi",)],
                          "Sq": [(), ("q",), ("r",), ("q", "r")]})):
        for rule in rw.sample_instances(rw.RuleEngine(model.system), words):
            entries.append((rule.name, sm.verify_rule_semantics(rule, model),
                            sm.side_evaluation(model, rule.lhs),
                            sm.side_evaluation(model, rule.rhs)))
    assert len(entries) == 513
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == CRITERION_4_DIGEST


_HASHSEED_DIGEST = """
import hashlib, json, sys
from layerprop import models, profunctor as pf, rewrite as rw
from layerprop import semantics as sm
digest = hashlib.sha256()
for model, words in zip((models.monoid_model(), models.meet_model()),
                        json.loads(sys.argv[1])):
    words = {k: [tuple(w) for w in ws] for k, ws in words.items()}
    for rule in rw.sample_instances(rw.RuleEngine(model.system), words):
        if rule.family != "A" or rule.name.startswith("A3c["):
            continue
        sides = [sm.interpret(model, d) for d in (rule.lhs, rule.rhs)]
        for pp in sides:
            digest.update(repr((pp.src_obj, pp.tgt_obj, pp.point,
                                list(pp.prof._elements.items()))).encode())
        cell = pf.pointed_two_cell(*sides)
        digest.update(repr(cell and list(cell.items())).encode())
print(digest.hexdigest())
"""


def test_interpretation_independent_of_hash_seed():
    # elements are kept in construction order, never in an order a set or a
    # string hash could give: every criterion-4 A side interprets to the
    # same element tables, points and pointed 2-cells under two hash seeds
    words = json.dumps([w for _, w in CRITERION_4_WORDS])
    digests = set()
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_DIGEST, words],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=seed))
        digests.add(proc.stdout)
    assert len(digests) == 1


# -- the composed-functor evaluation as a reference ---------------------------


def _compose(f, g):
    """f then g; None stands for an identity."""
    if f is None or g is None:
        return g if f is None else f
    return pf.Functor(f"{f.name};{g.name}", f.source, g.target,
                      lambda a: g.on_obj(f.on_obj(a)),
                      lambda m: g.on_mor(f.on_mor(m)))


def _flat_product(fs, widths, source, target):
    """Product of functors (None: identity) with the boundary components
    concatenated instead of nested; None when every factor is one."""
    if all(f is None for f in fs):
        return None
    ends = list(itertools.accumulate(widths))
    spans = [(f, end - k, end) for f, k, end in zip(fs, widths, ends)
             if f is not None]

    def split_apply(method):
        calls = [(getattr(f, method), i, j) for f, i, j in spans]

        def apply(x):
            out, last = (), 0
            for call, i, j in calls:   # identity factors pass through
                out += x[last:i] + call(x[i:j])
                last = j
            return out + x[last:]
        return apply

    return pf.Functor("x".join(f.name for f, _, _ in spans), source, target,
                      split_apply("on_obj"), split_apply("on_mor"))


def _flat(parts, side):
    return pf.product_category([c for p in parts
                                for c in getattr(p, side).components])


def reference_side_evaluation(model, d):
    """Side evaluation by composed functors: compose the flat products of
    the slices' parts into one functor, F (up) or G (down), checking that
    each slice starts where the last one ended, then map the boundary
    category's objects and generators through it."""
    slices = sm.layered_slices(d)
    src = pf.product_category([model.category(layer)
                               for layer, _ in d.dom.entries])
    a0 = tuple(model.word_obj(layer, w) for layer, w in d.dom.entries)
    evaluations = []
    for direction in ("up", "down"):
        down = direction == "down"
        pieces = [sm._parts(model, items, down) for items in slices]
        if any((p.f if down else p.g) is not None
               for parts in pieces for p in parts):
            continue
        functor, tgt, b, point = None, src, a0, src.ident(a0)
        for parts in pieces:
            a = sum((p.a for p in parts), ())
            if a != b:
                raise BoundaryMismatch(f"points do not meet: {b!r} vs {a!r}")
            mid, tgt = _flat(parts, "mid"), _flat(parts, "tgt")
            step = sum((p.point for p in parts), ())
            widths = [len(getattr(p, "tgt" if down else "src").components)
                      for p in parts]
            if down:   # point ; G(p), G the functors composed so far
                g = _flat_product([p.g for p in parts], widths, tgt, mid)
                point = src.then(point, step if functor is None
                                 else functor.on_mor(step))
                functor = _compose(g, functor)
            else:      # F(point) ; p
                f = _flat_product([p.f for p in parts], widths,
                                  _flat(parts, "src"), mid)
                point = mid.then(point if f is None else f.on_mor(point),
                                 step)
                functor = _compose(functor, f)
            b = sum((p.b for p in parts), ())
        cat = tgt if down else src
        objs, gens = cat.objects, cat.generators()
        if functor is not None:
            objs = tuple(map(functor.on_obj, objs))
            gens = tuple(map(functor.on_mor, gens))
        evaluations.append((direction, objs, gens, a0, b, point))
    return evaluations


def _sliding_sides(model, words):
    rules = rw.sample_instances(rw.RuleEngine(model.system), words)
    return [side for r in rules if r.family in ("F", "M")
            for side in (r.lhs, r.rhs)]


def _edge_sides(sys_):
    """A permutation side read down only, its box variant, a cup from and a
    cap to the zero-component boundary, each beside a wire, the empty
    diagram, and last two mixed sides: cup;cap and a window."""
    u = sheet("MU", ("u",))
    crossed = _counit_past_a_crossing(sys_, False)
    return [crossed.lhs, crossed.rhs,
            _counit_past_a_crossing(sys_, True).rhs,
            dg.cup(sys_, "MU"), dg.cap(sys_, "MU"),
            dg.par_tensor(dg.identity(sys_, u), dg.cup(sys_, "MU")),
            dg.par_tensor(dg.cap(sys_, "MU"), dg.identity(sys_, u)),
            dg.empty_diagram(sys_),
            dg.seq_compose(dg.cup(sys_, "MU"), dg.cap(sys_, "MU")),
            dg.seq_compose(dg.refine(sys_, "MU", "ML", ("u",)),
                           dg.coarsen(sys_, "MU", "ML", ("u",)))]


@pytest.mark.parametrize("name", ["monoid_model", "meet_model"])
def test_side_evaluation_matches_composed_functors(name, request):
    # pushing the boundary through the pieces column by column gives the
    # composed functors' tuples on every sliding side, in both directions
    model = request.getfixturevalue(name)
    sides = _sliding_sides(model, dict(CRITERION_4_WORDS)[name])
    if name == "monoid_model":
        sides += _edge_sides(model.system)
    directions = set()
    for d in sides:
        got = sm.side_evaluation(model, d)
        assert got == reference_side_evaluation(model, d), d
        directions.update(e[0] for e in got)
    assert directions == {"up", "down"}
    if name == "monoid_model":   # the mixed sides evaluate neither way
        assert [sm.side_evaluation(model, d) for d in sides[-2:]] == [[], []]


def test_side_evaluation_builds_no_functor_or_fold(monoid_model, meet_model,
                                                    monkeypatch):
    # the pieces are built once per model and the push tables once per side
    # shape; evaluating a side again then pushes the boundary through the
    # pieces, and builds no functor or profunctor, no segment and no
    # mapping through a shape, and interprets nothing
    sides = [(model, d) for name, model in (("monoid_model", monoid_model),
                                            ("meet_model", meet_model))
             for d in _sliding_sides(model, dict(CRITERION_4_WORDS)[name])]
    sides += [(monoid_model, d) for d in _edge_sides(monoid_model.system)]
    want = [sm.side_evaluation(model, d) for model, d in sides]
    calls = []

    def count(name, f):
        return lambda *a, **k: calls.append(name) or f(*a, **k)
    for cls in (pf.Functor, pf.Profunctor):
        monkeypatch.setattr(cls, "__init__",
                            count(cls.__name__, cls.__init__))
    for name in ("_segment", "_through", "_mapping", "interpret",
                 "hom_profunctor"):
        monkeypatch.setattr(sm, name, count(name, getattr(sm, name)))
    monkeypatch.setattr(pf, "hom_profunctor",
                        count("hom_profunctor", pf.hom_profunctor))
    assert [sm.side_evaluation(model, d) for model, d in sides] == want
    assert calls == []
    # the counters see the interpretation push through segments
    sm.interpret(monoid_model, sides[0][1])
    assert {"interpret", "_segment", "_through"} <= set(calls)


def _shifted_meet_model():
    """The meet model with its translation functor sending lo to q, not to
    p, the image of the translation's word."""
    model = models.meet_model()
    ff = model.functors[("Ar", "Sq")]
    model.functors[("Ar", "Sq")] = pf.FinFunctor(
        "shifted", ff.source, ff.target, {"lo": "q", "hi": "s"},
        {"lo<lo": "q<q", "lo<hi": "q<s", "hi<hi": "s<s"})
    return model


def test_side_evaluation_boundary_mismatch(meet_model):
    # a refinement of lo followed by a box on p reads only up; where the
    # model's functor sends lo to q the box's boundary is not met
    sys_ = meet_model.system
    side = dg.seq_compose(
        dg.refine(sys_, "Ar", "Sq", ("lo",)),
        dg.box(sys_, InternalDiagram("Sq", ("p",), ("s",), ((0, "gd"),))))
    assert [e[0] for e in sm.side_evaluation(meet_model, side)] == ["up"]
    shifted = _shifted_meet_model()
    assert shifted.validate() != []
    for evaluate in (sm.side_evaluation, reference_side_evaluation,
                     sm.interpret):
        with pytest.raises(BoundaryMismatch):
            evaluate(shifted, side)
    # a coarsening of lo is one segment with no up part: pushed back from
    # lo it reaches q, where its source boundary reads p, so its two pushes
    # do not meet
    lo = dg.coarsen(shifted.system, "Ar", "Sq", ("lo",))
    with pytest.raises(BoundaryMismatch):
        sm.interpret(shifted, lo)


def _push_shapes(model) -> list:
    return [key for key in model._cache if key[0] == "push"]


def _fresh_push(model, d) -> list:
    """The side evaluation of d pushed from an empty table memo."""
    for key in _push_shapes(model):
        del model._cache[key]
    return sm.side_evaluation(model, d)


@pytest.mark.parametrize("make, max_word", [(models.monoid_model, 2),
                                            (models.meet_model, None)])
def test_push_memo_hit_matches_a_fresh_push(make, max_word):
    # the push tables are memoised by side shape: on every sampled side a
    # memo hit returns the very tables of the first push and equals a push
    # from an empty memo, and verifying the instances in reversed order,
    # so that other sides fill the memo, gives the same evaluations
    model = make()
    words = dict(CRITERION_4_WORDS)["meet_model"] if max_word is None else {
        name: [w for n in range(max_word + 1)
               for w in itertools.product(lay.gen_objects, repeat=n)]
        for name, lay in model.system.layers.items()}
    rules = rw.sample_instances(rw.RuleEngine(model.system), words)
    sides = [d for r in rules for d in (r.lhs, r.rhs)]
    first = [sm.side_evaluation(model, d) for d in sides]
    assert 1 < len(_push_shapes(model)) < len(sides) // 4
    hits = [sm.side_evaluation(model, d) for d in sides]
    assert hits == first
    assert all(h[1] is f[1] and h[2] is f[2]
               for hs, fs in zip(hits, first) for h, f in zip(hs, fs))
    assert [_fresh_push(model, d) for d in sides] == first
    forward = [(sm.verify_rule_semantics(r, model),
                sm.side_evaluation(model, r.lhs),
                sm.side_evaluation(model, r.rhs)) for r in rules]
    again = make()
    backward = [(sm.verify_rule_semantics(r, again),
                 sm.side_evaluation(again, r.lhs),
                 sm.side_evaluation(again, r.rhs)) for r in reversed(rules)]
    assert backward[::-1] == forward
    assert [ev for _, *evs in forward for ev in evs] == first


def test_push_memo_hit_still_checks_boundaries(meet_model):
    # coarsening hi and coarsening lo have one side shape; in the shifted
    # model the first meets its boundaries and puts that shape in the memo,
    # and the second, whose functor sends lo to q where its source boundary
    # reads p, still fails the check
    hi, lo = (dg.coarsen(meet_model.system, "Ar", "Sq", (x,))
              for x in ("hi", "lo"))
    (_, objs, *_), = sm.side_evaluation(meet_model, hi)
    assert sm.side_evaluation(meet_model, lo)[0][1] is objs
    shifted = _shifted_meet_model()
    assert [e[0] for e in sm.side_evaluation(shifted, hi)] == ["down"]
    shapes = _push_shapes(shifted)
    assert len(shapes) == 1
    with pytest.raises(BoundaryMismatch):
        sm.side_evaluation(shifted, lo)
    # a side that fails a check leaves no table behind: the refinement of
    # test_side_evaluation_boundary_mismatch fails again, and the memo
    # still holds the one shape
    side = dg.seq_compose(
        dg.refine(shifted.system, "Ar", "Sq", ("lo",)),
        dg.box(shifted.system,
               InternalDiagram("Sq", ("p",), ("s",), ((0, "gd"),))))
    for _ in range(2):
        with pytest.raises(BoundaryMismatch):
            sm.side_evaluation(shifted, side)
    assert _push_shapes(shifted) == shapes


# -- the coend fold as a reference --------------------------------------------


def _product(pp, qq):
    """Parallel product of pointed profunctors, boundary components
    concatenated."""
    p, q = pp.prof, qq.prof
    np_, mp = len(p.source.components), len(p.target.components)
    src = pf.product_category(list(p.source.components)
                              + list(q.source.components))
    tgt = pf.product_category(list(p.target.components)
                              + list(q.target.components))
    elements = {}
    for a in src.objects:
        for b in tgt.objects:
            elems = [(x, y) for x in p.elements(a[:np_], b[:mp])
                     for y in q.elements(a[np_:], b[mp:])]
            if elems:
                elements[(a, b)] = tuple(sorted(elems, key=repr))

    def lact(g, xy, a, b):
        return (p.lact(g[:np_], xy[0], a[:np_], b[:mp]),
                q.lact(g[np_:], xy[1], a[np_:], b[mp:]))

    def ract(xy, h, a, b):
        return (p.ract(xy[0], h[:mp], a[:np_], b[:mp]),
                q.ract(xy[1], h[mp:], a[np_:], b[mp:]))

    return pf.PointedProfunctor(
        pf.Profunctor("product", src, tgt, elements, lact, ract),
        pp.src_obj + qq.src_obj, pp.tgt_obj + qq.tgt_obj,
        (pp.point, qq.point))


def reference_interpret(model, d):
    """Interpretation by explicit coend quotients: each slice is the product
    of its wires' homs and its cells' embeddings, or the embedding of its
    permutation read up, and point_compose folds the slices."""
    c = dg.canonicalize(d).diagram

    def hom_at(layer, word):
        cat1 = pf.product_category([model.category(layer)])
        obj = (model.word_obj(layer, word),)
        return pf.PointedProfunctor(pf.hom_profunctor(cat1), obj, obj,
                                    cat1.ident(obj))

    def part(kind, *payload):
        if kind == "wire":
            return hom_at(*payload[0])
        piece = (sm._perm(model, *payload) if kind == "perm"
                 else sm._cell_piece(model, *payload))
        prof = (oracles.embed(piece.f, "up") if piece.f is not None else
                oracles.embed(piece.g, "down") if piece.g is not None
                else pf.hom_profunctor(piece.src))
        return pf.PointedProfunctor(prof, piece.a, piece.b, piece.point)

    def product(parts):
        if not parts:
            cat = pf.product_category([])
            return pf.PointedProfunctor(pf.hom_profunctor(cat), (), (), ())
        out = parts[0]
        for p in parts[1:]:
            out = _product(out, p)
        return out

    slices = sm.layered_slices(c)
    if not slices:
        return product([hom_at(*t) for t in c.dom.entries])
    out = product([part(*item) for item in slices[0]])
    for sl in slices[1:]:
        out = oracles.point_compose(out, product([part(*item)
                                                  for item in sl]))
    return out


def _sample(model, words, every):
    engine = rw.RuleEngine(model.system)
    rules = [r for r in rw.sample_instances(engine, words)
             if r.family != "E" and not r.name.startswith("A3c[")]
    return rules[::every]


def _down_then_two_ups(sys_):
    """Two sides where a down piece meets a run of two up pieces, which one
    segment pushes through: copants;pants;refine and cap;cup;refine."""
    return [dg.seq_many(dg.copants(sys_, "MU", ("u",), ("u",)),
                        dg.pants(sys_, "MU", ("u",), ("u",)),
                        dg.refine(sys_, "MU", "ML", ("u", "u"))),
            dg.seq_many(dg.cap(sys_, "MU"), dg.cup(sys_, "MU"),
                        dg.refine(sys_, "MU", "ML", ()))]


@pytest.mark.parametrize("make, words, every", [
    (models.monoid_model, {"MU": [(), ("u",), ("u", "u")], "ML": [(), ("v",)]},
     3),
    (models.meet_model, {"Ar": [(), ("lo",), ("hi",)],
                         "Sq": [(), ("q",), ("r",), ("q", "r")]}, 12),
])
def test_interpret_isomorphic_to_coend_fold(make, words, every):
    # co-Yoneda reindexing names elements differently from the coend fold
    # (morphisms of the middle category instead of least triples), so the
    # two interpretations are compared through a pointed isomorphism
    model = make()
    sides = [side for rule in _sample(model, words, every)
             for side in (rule.lhs, rule.rhs)]
    if make is models.monoid_model:
        sides += _down_then_two_ups(model.system)
    for side in sides:
        new, ref = sm.interpret(model, side), reference_interpret(model, side)
        # the cap bounds the assignment space left after the point's
        # closure, which propagation never enumerates
        assert pf.pointed_two_cell(new, ref, iso=True,
                                   cap=10 ** 30) is not None
        assert pf.pointed_two_cell(ref, new, iso=True,
                                   cap=10 ** 30) is not None


INTERPRETATION_DIGEST = ("472593de9717c368a2425f4f23662842"
                         "688b9d58271e93e83ee03ccac827cd82")


def _interpretation(pp) -> list:
    """The boundaries, the point, the element tables and both actions along
    every generator of an interpreted side."""
    p = pp.prof
    out = [pp.src_obj, pp.tgt_obj, pp.point, list(p._elements.items())]
    for (a, b), xs in p._elements.items():
        for x in xs:
            out.append([p.lact(g, x, a, b) for g in p.source.gens_into(a)])
            out.append([p.ract(x, h, a, b) for h in p.target.gens_from(b)])
    return out


def test_interpretations_pinned(monoid_model, meet_model):
    # every criterion-4 A side and every edge side interprets to the same
    # element names, tables, points and actions as the pinned digest, so a
    # change to the interpretation that renames an element fails here even
    # where the result stays pointed-isomorphic
    sides = [(model, d)
             for model, (_, words) in zip((monoid_model, meet_model),
                                          CRITERION_4_WORDS)
             for rule in rw.sample_instances(rw.RuleEngine(model.system),
                                             words)
             if rule.family == "A" and not rule.name.startswith("A3c[")
             for d in (rule.lhs, rule.rhs)]
    sides += [(monoid_model, d) for d in _edge_sides(monoid_model.system)]
    digest = hashlib.sha256()
    for model, d in sides:
        digest.update(repr(_interpretation(sm.interpret(model, d))).encode())
    assert len(sides) == 202
    assert digest.hexdigest() == INTERPRETATION_DIGEST


def test_nat_search_cap_counts_after_point_closure(monoid_model):
    # the two sheets A1[ML;e;e] starts from have 9^9 raw assignments
    # against the coend fold, and the point's closure settles all of them
    engine = rw.RuleEngine(monoid_model.system)
    side = engine.rule_instance("A1", "ML", (), ()).lhs
    new = sm.interpret(monoid_model, side)
    ref = reference_interpret(monoid_model, side)
    raw = 1
    for a in new.prof.source.objects:
        for b in new.prof.target.objects:
            raw *= len(ref.prof.elements(a, b)) ** len(new.prof.elements(a,
                                                                         b))
    assert raw == 387_420_489
    assert pf.pointed_two_cell(new, ref, iso=True) is not None
    assert pf.pointed_two_cell(ref, new, iso=True) is not None


# -- syntax-semantics soundness -----------------------------------------------


def _walk_pairs(system, rng, count):
    """(generator box, the box after 1-3 random rule applications)."""
    engine = rw.RuleEngine(system)
    out = []
    while len(out) < count:
        layer = rng.choice(sorted(system.layers))
        gen = rng.choice(system.layer(layer).gen_morphisms).name
        start = d = dg.gen_box(system, layer, gen)
        for _ in range(rng.randint(1, 3)):
            d = rw.apply_rule(d, rng.choice(engine.matches(d)))
        out.append((start, d))
    return out


# per layer with equations: the box's input object, the paths its content
# chains and how many (the square's paths end at its top corner)
_EQUATION_BOXES = {"MU": ("u", [["m1"], ["m2"], ["m1", "m2"]], 2),
                   "Sq": ("p", [["gd"], ["gf", "gh"], ["gg", "gk"]], 1)}


def _equation_pairs(system, rng, count):
    """(box, the box after 1-2 random equation steps)."""
    engine = rw.RuleEngine(system, equation_insertions=True)
    layer = next(name for name in _EQUATION_BOXES if name in system.layers)
    obj, paths, chained = _EQUATION_BOXES[layer]
    sig = system.signature(layer)
    out = []
    while len(out) < count:
        gens = [g for _ in range(chained) for g in rng.choice(paths)]
        x = d = dg.box(system, InternalDiagram(
            layer, (obj,), sig[gens[-1]][1], tuple((0, g) for g in gens)))
        for _ in range(rng.randint(1, 2)):
            moves = [m for m in engine.matches(d) if m.rule.family == "E"]
            d = rw.apply_rule(d, rng.choice(moves))
        out.append((x, d))
    return out


def _sound(model, dv) -> bool:
    """The derivation's end points denote 2-cell related pointed
    profunctors, an isomorphism when every step is invertible."""
    return pf.pointed_two_cell(
        sm.interpret(model, dv.start), sm.interpret(model, dv.end()),
        iso=all(step.rule.bidirectional for step in dv.steps)) is not None


@pytest.mark.parametrize("make", [models.monoid_model, models.meet_model])
def test_derivations_are_sound(make):
    # every derivation the search returns, and every layer_eq witness,
    # relates two sides whose interpretations carry a pointed 2-cell
    model = make()
    rng = random.Random(f"soundness/{make.__name__}")
    found = 0
    for start, end in _walk_pairs(model.system, rng, 40):
        dv = rw.find_derivation(start, end, 2000)
        if isinstance(dv, rw.Derivation):
            found += 1
            assert _sound(model, dv), [m.rule.name for m in dv.steps]
    assert found >= 35
    equal = 0
    for x, y in _equation_pairs(model.system, rng, 10):
        result = dg.layer_eq(x, y, 256)
        if result.status == "equal":
            equal += 1
            assert _sound(model, result.witness)
    assert equal >= 8
