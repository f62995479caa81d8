"""Separation certificates: an invariant weight never separates the two
sides of a rule or the ends of a walk, and every weight it returns checks."""

import random
from fractions import Fraction

import pytest

from conftest import make_two_layer_system
from layerprop import ccs, chem, circuits, internal, models, weights
from layerprop import diagram as dg
from layerprop import rewrite as rw
from layerprop.errors import UnknownSymbol
from layerprop.internal import InternalDiagram
from layerprop.theory import (Equation, LayerPresentation, MorphismGen,
                              SystemOfLayers, TranslationFunctor, sheet,
                              translate_internal)
from test_rewrite import _walk

SYSTEMS = {
    "two": make_two_layer_system,
    "monoid": lambda: models.monoid_model().system,
    "meet": lambda: models.meet_model().system,
    "chem": lambda: chem.build_chem_system().system,
    "circuits": lambda: circuits.build_circuit_system().system,
}


def _box(system, layer, obj, gens):
    return dg.box(system, InternalDiagram(layer, (obj,), (obj,),
                                          tuple((0, g) for g in gens)))


def _moves_boxes(rule):
    return weights.counts(rule.lhs) != weights.counts(rule.rhs)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_sampled_instances_are_not_separated(name):
    system = SYSTEMS[name]()
    engine = rw.RuleEngine(system)
    words = {layer: [()] + [(o,) for o in lay.gen_objects]
             for layer, lay in system.layers.items()}
    rules = rw.sample_instances(engine, words)
    # A3c is never sampled: build it over every functor and pool word
    rules += [engine.rule_instance("A3c", f, w)
              for f in system.functors.values() for w in words[f.source]]
    assert any(r.name.startswith("A3c") for r in rules)
    assert [r.name for r in rules if weights.separating_weights(
        r.lhs, r.rhs, rw.FAMILIES) is not None] == []
    # F moves boxes across layers, so the check is not vacuous
    assert any(_moves_boxes(r) for r in rules)


def test_ccs_translation_and_equation_instances_are_not_separated():
    # ccs word pools pass SAMPLED_INSTANCES even at the empty word, so
    # build every F1/F2 and E instance directly
    system = ccs.build_ccs_system().system
    engine = rw.RuleEngine(system)
    rules = []
    for f in system.functors.values():
        sig = system.signature(f.source)
        for g in system.layer(f.source).gen_morphisms:
            content = internal.generator(f.source, g.name, sig)
            if translate_internal(system, f, content).slices:
                rules += [engine.rule_instance(key, f, content)
                          for key in ("F1", "F2")]
    rules += [engine.rule_instance("E", layer, eq.name)
              for layer, lay in system.layers.items()
              for eq in lay.equations]
    assert len(rules) == 658 and all(_moves_boxes(r) for r in rules)
    assert [r.name for r in rules if weights.separating_weights(
        r.lhs, r.rhs, rw.FAMILIES) is not None] == []


def test_no_walk_is_separated(two_layer):
    systems = {"two": two_layer, "monoid": models.monoid_model().system,
               "meet": models.meet_model().system}
    pairs = 0
    for name, system in systems.items():
        starts = [dg.gen_box(system, layer, g.name)
                  for layer in sorted(system.layers)
                  for g in system.layer(layer).gen_morphisms]
        for seed in range(15):
            rng = random.Random(f"weights/{name}/{seed}")
            for steps in (2, 3):
                src, dst = _walk(system, starts, rng, steps)
                assert weights.separating_weights(src, dst,
                                                  rw.FAMILIES) is None
                pairs += 1
    assert pairs == 90


# the budget-exhaustion pairs of the search benchmark: (system, layer,
# object, source generators, target generators)
EXHAUSTION = [
    ("two", "U", "a", ["u"], ["u", "u"]),
    ("two", "U", "a", ["g", "h"], ["g", "h", "g", "h"]),
    ("two", "U", "a", ["u", "u"], ["u"]),
    ("monoid", "MU", "u", ["m1"], ["m1", "m1"]),
    ("monoid", "MU", "u", ["m1", "m1"], ["m1"]),
    ("monoid", "MU", "u", ["m2"], ["m1"]),
]


def _counting_applications(monkeypatch):
    applied = []
    apply = rw._apply
    monkeypatch.setattr(rw, "_apply",
                        lambda host, m: applied.append(m) or apply(host, m))
    return applied


@pytest.mark.parametrize("name,layer,obj,a,b", EXHAUSTION)
def test_exhaustion_pairs_carry_a_checked_certificate(monkeypatch, name,
                                                      layer, obj, a, b):
    system = SYSTEMS[name]()
    x, y = _box(system, layer, obj, a), _box(system, layer, obj, b)
    w = weights.separating_weights(x, y, rw.FAMILIES)
    assert w and weights.check_weights(x, y, w, rw.FAMILIES)
    # every entry is pinned by a row: one more on any breaks the check
    for var in w:
        assert not weights.check_weights(x, y, {**w, var: w[var] + 1},
                                         rw.FAMILIES), var
    applied = _counting_applications(monkeypatch)
    out = rw.find_derivation(x, y, 1000)
    assert applied == []
    # the NotFound carries the weight, which its equality and repr ignore
    assert out == rw.NotFound(1000) and out.weights == w
    assert repr(out) == "NotFound(budget=1000)"


@pytest.mark.parametrize("a,b,budget,status,searched", [
    (["m1"], ["m1", "m1"], 64, "distinct", 1),
    (["m1"], ["m1", "m1", "m2"], 0, "unknown", 2),
    (["m1"], ["m1", "m1", "m2"], 64, "equal", 1),
])
def test_layer_eq_reads_its_certificate_from_the_search(monkeypatch, a, b,
                                                        budget, status,
                                                        searched):
    # one weight per direction searched, and a weight ends the search: a
    # weight that separates a from b separates b from a
    mon = models.monoid_model().system
    calls = []
    real = weights.separating_weights
    monkeypatch.setattr(weights, "separating_weights",
                        lambda *args: calls.append(args) or real(*args))
    x, y = _box(mon, "MU", "u", a), _box(mon, "MU", "u", b)
    res = dg.layer_eq(x, y, budget)
    assert (res.status, len(calls)) == (status, searched)
    if status == "distinct":
        assert res.weights == real(x, y, ("E",))
        assert weights.check_weights(x, y, res.weights, ("E",))
    else:
        assert res.weights is None


def _rank(rows, variables):
    """Rank over the rationals, by plain Gauss-Jordan elimination."""
    m = [[Fraction(r.get(v, 0)) for v in variables] for r in rows]
    rank = 0
    for c in range(len(variables)):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_separation_agrees_with_a_rank_oracle():
    # random one-object layers and equations: a weight exists exactly when
    # the count difference raises the rank of the equation rows
    rng = random.Random("weights/rank")

    def content(n):
        return InternalDiagram("W", ("a",), ("a",), tuple(
            (0, f"g{rng.randrange(n)}") for _ in range(rng.randint(0, 5))))
    separated = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        gens = tuple(MorphismGen(f"g{i}", ("a",), ("a",)) for i in range(n))
        eqs = tuple(Equation(f"e{j}", content(n), content(n))
                    for j in range(rng.randint(0, 6)))
        system = SystemOfLayers([LayerPresentation("W", ("a",), gens, eqs)])
        x, y = dg.box(system, content(n)), dg.box(system, content(n))
        rows = [weights.counts(dg.box(system, eq.lhs)) for eq in eqs]
        for row, eq in zip(rows, eqs):
            for var, c in weights.counts(dg.box(system, eq.rhs)).items():
                row[var] = row.get(var, 0) - c
        diff = weights.counts(x)
        for var, c in weights.counts(y).items():
            diff[var] = diff.get(var, 0) - c
        variables = [("W", g.name) for g in gens]
        want = _rank(rows + [diff], variables) > _rank(rows, variables)
        w = weights.separating_weights(x, y, ("E",))
        assert (w is not None) == want
        if w is not None:
            assert weights.check_weights(x, y, w, ("E",))
            separated += 1
    assert 50 < separated < 150


def test_missing_translation_image_gives_no_certificate(two_layer):
    # a hand-built system whose translation forgets u: no weight is
    # returned and the search runs, raising as it does without the check
    f = two_layer.functor("U", "L")
    broken = TranslationFunctor(f.source, f.target, f.object_map, tuple(
        (g, img) for g, img in f.morphism_map if g != "u"))
    system = SystemOfLayers(list(two_layer.layers.values()), [broken],
                            two_layer.order)
    u, uu = (_box(system, "U", "a", gens) for gens in (["u"], ["u", "u"]))
    assert weights.separating_weights(u, uu, rw.FAMILIES) is None
    assert not weights.check_weights(u, uu, {("U", "u"): 1}, rw.FAMILIES)
    with pytest.raises(UnknownSymbol):
        rw.find_derivation(u, uu, 300)
    gh = _box(system, "U", "a", ["g", "h"])
    found = rw.find_derivation(gh, u, 300)
    assert [m.rule.name for m in found.steps] == ["E[U;gh_is_u]"]
    # the equation rows alone need no image
    res = dg.layer_eq(u, uu, 64)
    assert res.status == "distinct"
    assert weights.check_weights(u, uu, res.weights, ("E",))


def test_no_rows_separate_every_count_difference(monkeypatch, single_layer):
    loop = dg.box(single_layer, InternalDiagram(
        "W", (), (), ((0, "s"), (0, "p"), (0, "q"), (0, "t"))))
    empty = dg.identity(single_layer, sheet("W", ()))
    w = weights.separating_weights(loop, empty, rw.FAMILIES)
    assert w == {("W", "p"): 1}
    assert weights.check_weights(loop, empty, w, rw.FAMILIES)
    applied = _counting_applications(monkeypatch)
    assert rw.find_derivation(loop, empty, 50) == rw.NotFound(50)
    assert applied == []
