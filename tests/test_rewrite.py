"""Rule matching, application round-trips, derivation search, isolation."""

import dataclasses
import gc
import hashlib
import random
import weakref

import pytest

import genterms
import search_oracle
from conftest import make_two_layer_system
from layerprop import diagram as dg
from layerprop import internal, jsonio, models, terms, weights
from layerprop import rewrite as rw
from layerprop.diagram import canonical_key, canonicalize
from layerprop.errors import (LayerPropError, MalformedInput,
                              SideConditionViolation, SortMismatch, StaleMatch)
from layerprop.internal import InternalDiagram
from layerprop.theory import (Equation, LayerPresentation, MorphismGen,
                              SystemOfLayers, TranslationFunctor, sheet)


@pytest.fixture
def engine(two_layer):
    return rw.RuleEngine(two_layer)


def test_a3_matches_identity_sheet(two_layer, engine):
    ident = dg.identity(two_layer, sheet("U", ("a",)))
    ms = [m for m in engine.matches(ident) if m.rule.name.startswith("A3[")]
    assert len(ms) == 1
    window = rw.apply_rule(ident, ms[0])
    assert len(window.cells) == 2
    frame = dg.seq_compose(dg.refine(two_layer, "U", "L", ("a",)),
                           dg.coarsen(two_layer, "U", "L", ("a",)))
    assert dg.structural_eq(window, frame)


def test_a2_collapses_counit_pair(two_layer, engine):
    # unit and counit are one-directional: A2 erases a copants;pants pair
    # and no A-family move reintroduces it on the fused sheet
    start = dg.seq_compose(dg.copants(two_layer, "U", ("a",), ("b",)),
                           dg.pants(two_layer, "U", ("a",), ("b",)))
    m_a2 = [m for m in engine.matches(start)
            if m.rule.name.startswith("A2[")][0]
    mid = rw.apply_rule(start, m_a2)
    assert mid.sort == start.sort
    assert dg.structural_eq(mid, dg.identity(two_layer,
                                             sheet("U", ("a", "b"))))
    assert not any(m.rule.name.startswith("A1[") for m in engine.matches(mid))


def test_f1_locality(two_layer, engine):
    sigma = dg.gen_box(two_layer, "U", "g")
    core = dg.seq_compose(sigma, dg.refine(two_layer, "U", "L", ("b",)))
    bystander = dg.gen_box(two_layer, "L", "kl")
    host = dg.par_tensor(core, bystander)
    ms = [m for m in engine.matches(host) if m.rule.name.startswith("F1[")
          and m.orientation == "fwd"]
    assert len(ms) == 1
    result = rw.apply_rule(host, ms[0])
    expect = dg.par_tensor(
        dg.seq_compose(dg.refine(two_layer, "U", "L", ("a",)),
                       dg.gen_box(two_layer, "L", "gl")),
        bystander)
    assert dg.structural_eq(result, expect)


def test_f1_round_trips(two_layer, engine):
    sigma = dg.gen_box(two_layer, "U", "g")
    host = dg.seq_compose(sigma, dg.refine(two_layer, "U", "L", ("b",)))
    m = [m for m in engine.matches(host)
         if m.rule.name.startswith("F1[") and m.orientation == "fwd"][0]
    pushed = rw.apply_rule(host, m)
    back = [m2 for m2 in engine.matches(pushed)
            if m2.rule.name == m.rule.name and m2.orientation == "bwd"]
    assert back
    restored = rw.apply_rule(pushed, back[0])
    assert canonical_key(restored) == canonical_key(host)


def test_stale_match_rejected(two_layer, engine):
    ident = dg.identity(two_layer, sheet("U", ("a",)))
    m = engine.matches(ident)[0]
    other = dg.gen_box(two_layer, "U", "u")
    with pytest.raises(StaleMatch):
        rw.apply_rule(other, m)


def test_find_derivation_trivial(two_layer, engine):
    x = dg.gen_box(two_layer, "U", "g")
    dv = rw.find_derivation(x, x, 10, engine)
    assert isinstance(dv, rw.Derivation)
    assert dv.steps == []
    assert rw.verify_derivation(dv)


def test_find_derivation_a1_single_step(two_layer, engine):
    src = dg.identity(two_layer, sheet("U", ("a",)) + sheet("U", ("b",)))
    dst = dg.seq_compose(dg.pants(two_layer, "U", ("a",), ("b",)),
                         dg.copants(two_layer, "U", ("a",), ("b",)))
    dv = rw.find_derivation(src, dst, 50, engine)
    assert isinstance(dv, rw.Derivation)
    assert len(dv.steps) == 1
    assert dv.steps[0].rule.name == "A1[U;a;b]"
    assert rw.verify_derivation(dv)


def test_triangle_composites(two_layer, engine):
    refine = dg.refine(two_layer, "U", "L", ("a",))
    middle = dg.seq_compose(
        refine, dg.seq_compose(dg.coarsen(two_layer, "U", "L", ("a",)),
                               dg.refine(two_layer, "U", "L", ("a",))))
    up = rw.find_derivation(refine, middle, 5, engine)
    down = rw.find_derivation(middle, refine, 5, engine)
    assert isinstance(up, rw.Derivation) and len(up.steps) == 1
    assert isinstance(down, rw.Derivation) and len(down.steps) == 1
    loop = rw.Derivation(canonicalize(refine).diagram, up.steps + down.steps)
    assert rw.verify_derivation(loop)
    assert loop.end_key == canonical_key(refine)


def test_find_derivation_not_found(two_layer, engine):
    src = dg.gen_box(two_layer, "U", "u")
    dst = dg.box(two_layer, InternalDiagram("U", ("a",), ("a",),
                                            ((0, "u"), (0, "u"))))
    res = rw.find_derivation(src, dst, 30, engine)
    assert isinstance(res, rw.NotFound)
    assert res.budget == 30


def test_find_derivation_sort_precondition(two_layer, engine):
    with pytest.raises(SortMismatch):
        rw.find_derivation(dg.gen_box(two_layer, "U", "g"),
                           dg.gen_box(two_layer, "U", "h"), 5, engine)


def test_e_rule_derivation_and_symmetry(two_layer, engine):
    gh = dg.box(two_layer, InternalDiagram("U", ("a",), ("a",),
                                           ((0, "g"), (0, "h"))))
    u = dg.gen_box(two_layer, "U", "u")
    fwd = rw.find_derivation(gh, u, 20, engine)
    bwd = rw.find_derivation(u, gh, 20, engine)
    assert isinstance(fwd, rw.Derivation) and len(fwd.steps) == 1
    assert isinstance(bwd, rw.Derivation) and len(bwd.steps) == 1
    assert rw.verify_derivation(fwd) and rw.verify_derivation(bwd)


def test_verify_rejects_corrupted_derivation(two_layer, engine):
    src = dg.identity(two_layer, sheet("U", ("a",)) + sheet("U", ("b",)))
    dst = dg.seq_compose(dg.pants(two_layer, "U", ("a",), ("b",)),
                         dg.copants(two_layer, "U", ("a",), ("b",)))
    dv = rw.find_derivation(src, dst, 50, engine)
    good = dv.steps[0]
    bad = rw.Match(good.rule, good.orientation, good.cells,
                   (good.dom_wires[1], good.dom_wires[0]), good.cod_wires,
                   good.host_key, good.box_payload)
    assert not rw.verify_derivation(rw.Derivation(dv.start, [bad]))


def test_cupcap_rules(two_layer, engine):
    empty = dg.empty_diagram(two_layer)
    circle = dg.seq_compose(dg.cup(two_layer, "U"), dg.cap(two_layer, "U"))
    dv = rw.find_derivation(empty, circle, 20, engine)
    assert isinstance(dv, rw.Derivation) and len(dv.steps) == 1
    assert dv.steps[0].rule.name == "A5[U]"
    capcup = dg.seq_compose(dg.cap(two_layer, "U"), dg.cup(two_layer, "U"))
    ident = dg.identity(two_layer, sheet("U", ()))
    dv2 = rw.find_derivation(capcup, ident, 20, engine)
    assert isinstance(dv2, rw.Derivation) and len(dv2.steps) == 1
    assert dv2.steps[0].rule.name == "A6[U]"


def test_sort_preserved_on_random_applications(two_layer, engine):
    rng = random.Random(11)
    seeds = [dg.gen_box(two_layer, "U", "g"),
             dg.seq_compose(dg.gen_box(two_layer, "U", "g"),
                            dg.refine(two_layer, "U", "L", ("b",))),
             dg.identity(two_layer, sheet("U", ("a",)) + sheet("U", ("b",))),
             dg.pants(two_layer, "U", ("a",), ("b",))]
    for seed in seeds:
        d = canonicalize(seed).diagram
        for _ in range(6):
            ms = engine.matches(d)
            if not ms:
                break
            m = ms[rng.randrange(len(ms))]
            nxt = rw.apply_rule(d, m)
            assert nxt.sort == d.sort
            d = nxt


def test_bidirectional_round_trip_sampled(two_layer, engine):
    rng = random.Random(23)
    words = {"U": [("a",), ("b",), ("a", "b")],
             "L": [("x",), ("y",)]}
    rules = [r for r in rw.sample_instances(engine, words) if r.bidirectional]
    checked = 0
    for rule in rules:
        host = canonicalize(rule.lhs).diagram
        ms = [m for m in engine.matches(host)
              if m.rule.name == rule.name and m.orientation == "fwd"]
        if not ms:
            continue
        m = ms[0]
        pushed = rw.apply_rule(host, m)
        back = [m2 for m2 in engine.matches(pushed)
                if m2.rule.name == rule.name and m2.orientation == "bwd"]
        assert back, f"no reverse match for {rule.name}"
        options = [rw.apply_rule(pushed, b) for b in back]
        assert any(canonical_key(o) == canonical_key(host) for o in options), \
            f"round trip failed for {rule.name}"
        checked += 1
    assert checked >= 30


def test_is_isolated_identity_sheet_with_functor(two_layer, engine):
    ident = dg.identity(two_layer, sheet("U", ("a",)))
    assert not engine.is_isolated(ident)


def test_is_isolated_plain_box_no_functors_out(two_layer, engine):
    b = dg.gen_box(two_layer, "L", "gl")
    # L has no outgoing translations and no equations: nothing interacts
    assert engine.is_isolated(b)


def test_is_isolated_brute_force_agreement(two_layer, engine):
    # brute force: enumerate all matches (cells-touching or whole-host) by
    # the engine on several diagrams and compare with is_isolated
    samples = [
        dg.gen_box(two_layer, "L", "gl"),
        dg.gen_box(two_layer, "U", "g"),
        dg.identity(two_layer, sheet("L", ("x",))),
        dg.seq_compose(dg.gen_box(two_layer, "U", "g"),
                       dg.refine(two_layer, "U", "L", ("b",))),
    ]
    for d in samples:
        brute = engine._isolation(d)[0]
        assert engine.is_isolated(d) == (not brute)


def _padded_system():
    """U -> L where U's object e translates to the empty word and U's one
    generator needs four e's: m: e e e e a -> b goes to gl: x -> y.  L's zl
    is no translation."""
    upper = LayerPresentation("U", ("a", "b", "e"), (
        MorphismGen("m", ("e", "e", "e", "e", "a"), ("b",)),))
    lower = LayerPresentation("L", ("x", "y"), (
        MorphismGen("gl", ("x",), ("y",)), MorphismGen("zl", ("x",), ("y",))))
    f = TranslationFunctor(
        "U", "L", (("a", ("x",)), ("b", ("y",)), ("e", ())),
        (("m", InternalDiagram("L", ("x",), ("y",), ((0, "gl"),))),))
    return SystemOfLayers([upper, lower], [f], order=[("L", "U")])


def test_is_isolated_fails_on_a_cut_lift(monkeypatch):
    # F1 backward lifts zl along the refine: a complete search shows that
    # nothing lifts, and one cut after its first state shows nothing
    def host(system):
        return dg.seq_compose(dg.refine(system, "U", "L", ("a",)),
                              dg.gen_box(system, "L", "zl"))

    system = _padded_system()
    assert rw.RuleEngine(system).is_isolated(host(system))
    monkeypatch.setattr(rw, "LIFT_STATES", 0)
    system = _padded_system()
    engine = rw.RuleEngine(system)
    assert not engine._isolation(host(system))[0]
    assert not engine.is_isolated(host(system))


def test_is_isolated_fails_on_a_cut_preimage(monkeypatch):
    # F2 backward lifts gl along the coarsen: the lift's dom is a preimage
    # of x, and the one that works, e e e e a, has more e's than the
    # preimage search tries, so the certificate must not hold
    def host(system):
        return dg.seq_compose(dg.gen_box(system, "L", "gl"),
                              dg.coarsen(system, "U", "L", ("b",)))

    system = _padded_system()
    engine = rw.RuleEngine(system)
    assert not engine._isolation(host(system))[0]
    assert not engine.is_isolated(host(system))
    # with room for four e's the search finds the F2 move it missed
    monkeypatch.setattr(rw, "PREIMAGE_EPS", 4)
    system = _padded_system()
    found = rw.RuleEngine(system)._isolation(host(system))[0]
    assert [m.rule.name for m in found] == ["F2[U>L;e.e.e.e.a>0.m]"]


def _slack_system():
    """U -> L where p0..p5: a_i -> a_{i+1} translate to identities and
    m: a6 -> b to gl: x -> y."""
    objects = tuple(f"a{i}" for i in range(7)) + ("b",)
    upper = LayerPresentation("U", objects, tuple(
        MorphismGen(f"p{i}", (f"a{i}",), (f"a{i + 1}",)) for i in range(6))
        + (MorphismGen("m", ("a6",), ("b",)),))
    lower = LayerPresentation("L", ("x", "y"),
                              (MorphismGen("gl", ("x",), ("y",)),))
    f = TranslationFunctor(
        "U", "L", tuple((o, ("x",)) for o in objects[:-1]) + (("b", ("y",)),),
        tuple((f"p{i}", InternalDiagram("L", ("x",), ("x",), ()))
              for i in range(6))
        + (("m", InternalDiagram("L", ("x",), ("y",), ((0, "gl"),))),))
    return SystemOfLayers([upper, lower], [f], order=[("L", "U")])


def test_is_isolated_fails_past_the_lift_slack(monkeypatch):
    # F1 backward lifts gl along the refine of a0; the one lift,
    # p0;...;p5;m, is longer than the slack allows
    def host(system):
        return dg.seq_compose(dg.refine(system, "U", "L", ("a0",)),
                              dg.gen_box(system, "L", "gl"))

    system = _slack_system()
    engine = rw.RuleEngine(system)
    assert not engine._isolation(host(system))[0]
    assert not engine.is_isolated(host(system))
    monkeypatch.setattr(rw, "LIFT_SLACK", 8)
    system = _slack_system()
    found = rw.RuleEngine(system)._isolation(host(system))[0]
    assert [m.rule.name for m in found] == \
        ["F1[U>L;a0>0.p0;0.p1;0.p2;0.p3;0.p4;0.p5;0.m]"]


def _interchange_system():
    """One layer W: a, p, q, r: a -> a, and p beside q equals q beside
    p."""
    aa = ("a", "a")
    layer = LayerPresentation(
        "W", ("a",), tuple(MorphismGen(g, ("a",), ("a",)) for g in "pqr"),
        (Equation("pq", InternalDiagram("W", aa, aa, ((0, "p"), (1, "q"))),
                  InternalDiagram("W", aa, aa, ((0, "q"), (1, "p")))),))
    return SystemOfLayers([layer], [], order=[])


def test_is_isolated_fails_on_a_cut_occurrence_search(monkeypatch):
    # p and q become adjacent only after q passes eight r's, deeper than
    # the first OCCURRENCE_ORDERINGS orderings reach
    def host(system):
        slices = (((0, "p"),) + ((0, "r"),) * 8 + ((1, "q"),)
                  + tuple((k, "r") for k in range(2, 10)))
        return dg.box(system, InternalDiagram("W", ("a",) * 10, ("a",) * 10,
                                              slices))

    system = _interchange_system()
    engine = rw.RuleEngine(system)
    assert not engine._isolation(host(system))[0]
    assert not engine.is_isolated(host(system))
    monkeypatch.setattr(internal, "OCCURRENCE_ORDERINGS", 15000)
    system = _interchange_system()
    found = rw.RuleEngine(system)._isolation(host(system))[0]
    assert {m.rule.name for m in found} == {"E[W;pq]"}


def test_window_collapse_flag(two_layer):
    engine = rw.RuleEngine(two_layer, [("U", "L")])
    frame = dg.seq_compose(dg.refine(two_layer, "U", "L", ("a",)),
                           dg.coarsen(two_layer, "U", "L", ("a",)))
    ident = dg.identity(two_layer, sheet("U", ("a",)))
    dv = rw.find_derivation(frame, ident, 30, engine)
    assert isinstance(dv, rw.Derivation)
    assert any(s.rule.name.startswith("A3c[") for s in dv.steps)
    assert rw.verify_derivation(dv)


def test_determinism_of_search(two_layer, engine):
    src = dg.identity(two_layer, sheet("U", ("a",)) + sheet("U", ("b",)))
    dst = dg.seq_compose(dg.pants(two_layer, "U", ("a",), ("b",)),
                         dg.copants(two_layer, "U", ("a",), ("b",)))
    d1 = rw.find_derivation(src, dst, 50, engine)
    d2 = rw.find_derivation(src, dst, 50,
                            rw.RuleEngine(two_layer))
    assert [s.signature() for s in d1.steps] == \
        [s.signature() for s in d2.steps]


def test_isolated_diagram_has_no_derivations(two_layer, engine):
    isolated = dg.gen_box(two_layer, "L", "gl")
    assert engine.is_isolated(isolated)
    # sampled parallel targets: nothing is reachable
    targets = [
        dg.box(two_layer, InternalDiagram("L", ("x",), ("y",),
                                          ((0, "ul"), (0, "gl")))),
        dg.seq_compose(dg.gen_box(two_layer, "L", "ul"),
                       dg.gen_box(two_layer, "L", "gl")),
    ]
    for x in targets:
        out = rw.find_derivation(isolated, x, 40, engine)
        assert isinstance(out, rw.NotFound)


# ---------------------------------------------------------------------------
# pinned search results: seeded walks of 2-3 applications from generator
# boxes (and a few hand-picked starts) on three systems, the E/F moves a
# walk rarely takes, and two weight-separated pairs that exhaust the budget.
# Each value is the signature list of the returned derivation, or the
# budget of the NotFound.

WALK_SEEDS = range(6)
WALK_BUDGET = 3000
EXHAUST_BUDGET = 300


def _box(system, layer, obj, gens):
    return dg.box(system, InternalDiagram(layer, (obj,), (obj,),
                                          tuple((0, g) for g in gens)))


def _walk(system, starts, rng, steps):
    engine = rw.RuleEngine(system)
    while True:
        start = rng.choice(starts)
        d = start
        for _ in range(steps):
            d = rw.apply_rule(d, rng.choice(engine.matches(d)))
        if dg.canonical_key(d) != dg.canonical_key(start):
            return start, d


def _pinned_cases(two_layer):
    systems = {"two": two_layer, "monoid": models.monoid_model().system,
               "meet": models.meet_model().system}
    cases = {}
    for name, system in systems.items():
        starts = [dg.gen_box(system, layer, g.name)
                  for layer in sorted(system.layers)
                  for g in system.layer(layer).gen_morphisms]
        if name == "two":
            starts += [
                _box(system, "U", "a", ["g", "h"]),
                dg.seq_compose(dg.gen_box(system, "U", "g"),
                               dg.refine(system, "U", "L", ("b",))),
                dg.identity(system, sheet("U", ("a",)) + sheet("U", ("b",))),
            ]
        for seed in WALK_SEEDS:
            for steps in (2, 3):
                src, dst = _walk(system, starts, random.Random(seed), steps)
                cases[f"{name}-walk{steps}-{seed}"] = (src, dst, WALK_BUDGET)
    two, mon = systems["two"], systems["monoid"]
    cases["two-u-uu"] = (_box(two, "U", "a", ["u"]),
                         _box(two, "U", "a", ["u", "u"]), EXHAUST_BUDGET)
    cases["monoid-m2-m1"] = (_box(mon, "MU", "u", ["m2"]),
                             _box(mon, "MU", "u", ["m1"]), EXHAUST_BUDGET)
    u = internal.generator("U", "u", two.signature("U"))
    ida = internal.identity("U", ("a",))
    cases["two-E"] = (_box(two, "U", "a", ["g", "h"]),
                      _box(two, "U", "a", ["u"]), WALK_BUDGET)
    cases["two-F1"] = (dg.seq_compose(dg.gen_box(two, "U", "g"),
                                      dg.refine(two, "U", "L", ("b",))),
                       dg.seq_compose(dg.refine(two, "U", "L", ("a",)),
                                      dg.gen_box(two, "L", "gl")),
                       WALK_BUDGET)
    pants = dg.pants(two, "U", ("a",), ("a",))
    cases["two-F3"] = (
        dg.seq_compose(dg.par_tensor(dg.box(two, u),
                                     dg.identity(two, sheet("U", ("a",)))),
                       pants),
        dg.seq_compose(pants, dg.box(two, u.beside(ida))), WALK_BUDGET)
    return cases


def _outcome(res):
    if isinstance(res, rw.NotFound):
        return res.budget
    return [s.signature() for s in res.steps]


PINNED = {
    "meet-walk2-0": [
        ("M4r[Sq;q]", "bwd", (), (0,), (0,), None),
        ("A1[Sq;e;s]", "fwd", (), (2, 3), (2, 3), None),
    ],
    "meet-walk2-1": [
        ("M3l[Sq;q]", "bwd", (), (1,), (1,), None),
        ("M3l[Sq;q]", "bwd", (), (2,), (2,), None),
    ],
    "meet-walk2-2": [
        ("A3[Ar>Sq;lo]", "fwd", (), (0,), (0,), None),
        ("A3[Ar>Sq;lo]", "fwd", (), (0,), (0,), None),
    ],
    "meet-walk2-3": [
        ("M3r[Sq;q]", "bwd", (), (1,), (1,), None),
        ("M3r[Sq;p]", "bwd", (), (0,), (0,), None),
    ],
    "meet-walk2-4": [
        ("M4l[Sq;p]", "bwd", (), (0,), (0,), None),
        ("A1[Sq;q;e]", "fwd", (), (3, 1), (3, 1), None),
    ],
    "meet-walk2-5": [
        ("M4l[Sq;r]", "bwd", (), (0,), (0,), None),
        ("M3r[Sq;r]", "bwd", (), (2,), (2,), None),
    ],
    "meet-walk3-0": [
        ("M4r[Sq;q]", "bwd", (), (0,), (0,), None),
        ("A1[Sq;e;s]", "fwd", (), (2, 3), (2, 3), None),
        ("M3r[Sq;e]", "bwd", (), (3,), (3,), None),
    ],
    "meet-walk3-1": [
        ("M3l[Sq;q]", "bwd", (), (1,), (1,), None),
        ("A1[Sq;p;e]", "fwd", (), (0, 3), (0, 3), None),
        ("M3l[Sq;q]", "bwd", (), (6,), (6,), None),
    ],
    "meet-walk3-2": [
        ("A3[Ar>Sq;lo]", "fwd", (), (0,), (0,), None),
        ("A3[Ar>Sq;lo]", "fwd", (), (0,), (0,), None),
        ("M3l[Sq;p]", "bwd", (), (5,), (5,), None),
    ],
    "meet-walk3-3": [
        ("M3r[Sq;p]", "bwd", (), (0,), (0,), None),
        ("M3r[Sq;q]", "bwd", (), (2,), (2,), None),
        ("M5b[Ar>Sq]", "bwd", (2,), (), (3,), None),
    ],
    "meet-walk3-4": [
        ("M4l[Sq;p]", "bwd", (), (0,), (0,), None),
        ("A1[Sq;q;e]", "fwd", (), (3, 1), (3, 1), None),
        ("M4l[Sq;p]", "bwd", (), (2,), (2,), None),
    ],
    "meet-walk3-5": [
        ("M3r[Sq;r]", "bwd", (), (0,), (0,), None),
        ("M4l[Sq;r]", "bwd", (), (0,), (0,), None),
        ("M6b[Ar>Sq]", "bwd", (2,), (1,), (), None),
    ],
    "monoid-m2-m1": 300,
    "monoid-walk2-0": [
        ("M4l[MU;u]", "bwd", (), (0,), (0,), None),
        ("A1[MU;e;u]", "fwd", (), (1, 3), (1, 3), None),
    ],
    "monoid-walk2-1": [
        ("M3l[ML;v]", "bwd", (), (1,), (1,), None),
        ("M3l[ML;v]", "bwd", (), (2,), (2,), None),
    ],
    "monoid-walk2-2": [
        ("M3l[ML;v]", "bwd", (), (1,), (1,), None),
        ("A1[ML;v;e]", "fwd", (), (0, 3), (0, 3), None),
    ],
    "monoid-walk2-3": [
        ("M4r[MU;u]", "bwd", (), (1,), (1,), None),
        ("A3[MU>ML;e]", "fwd", (), (3,), (3,), None),
    ],
    "monoid-walk2-4": [
        ("M4l[ML;v]", "bwd", (), (0,), (0,), None),
        ("A1[ML;v;e]", "fwd", (), (3, 1), (3, 1), None),
    ],
    "monoid-walk2-5": [
        ("M4r[MU;u]", "bwd", (), (1,), (1,), None),
        ("M3r[MU;u]", "bwd", (), (1,), (1,), None),
    ],
    "monoid-walk3-0": [
        ("M4l[MU;u]", "bwd", (), (0,), (0,), None),
        ("A1[MU;e;u]", "fwd", (), (1, 3), (1, 3), None),
        ("M3l[MU;e]", "bwd", (), (3,), (3,), None),
    ],
    "monoid-walk3-1": [
        ("M3l[ML;v]", "bwd", (), (1,), (1,), None),
        ("A1[ML;v;e]", "fwd", (), (0, 3), (0, 3), None),
        ("M3l[ML;v]", "bwd", (), (6,), (6,), None),
    ],
    "monoid-walk3-2": [
        ("M3l[ML;v]", "bwd", (), (1,), (1,), None),
        ("A1[ML;v;e]", "fwd", (), (0, 3), (0, 3), None),
        ("M4l[ML;e]", "bwd", (), (3,), (3,), None),
    ],
    "monoid-walk3-3": [
        ("M4r[ML;v]", "bwd", (), (1,), (1,), None),
    ],
    "monoid-walk3-4": [
        ("M4l[ML;v]", "bwd", (), (0,), (0,), None),
        ("A1[ML;v;e]", "fwd", (), (3, 1), (3, 1), None),
        ("M4l[ML;v]", "bwd", (), (2,), (2,), None),
    ],
    "monoid-walk3-5": [
        ("M3r[MU;u]", "bwd", (), (1,), (1,), None),
        ("M4r[MU;e]", "bwd", (), (3,), (3,), None),
        ("M4r[MU;u]", "bwd", (), (2,), (2,), None),
    ],
    "two-E": [
        ("E[U;gh_is_u]", "fwd", (0,), (), (),
         (0, ("a",), ("a",), ((0, "u"),))),
    ],
    "two-F1": [
        ("F1[U>L;a>0.g]", "fwd", (0, 1), (0,), (2,), None),
    ],
    "two-F3": [
        ("F3[U;a>0.u;a>id]", "fwd", (0, 1), (0, 1), (3,), None),
    ],
    "two-u-uu": 300,
    "two-walk2-0": [
        ("M4l[U;a.a]", "bwd", (), (0,), (0,), None),
        ("A1[U;b;e]", "fwd", (), (3, 1), (3, 1), None),
    ],
    "two-walk2-1": [
        ("M3l[L;y]", "bwd", (), (1,), (1,), None),
        ("M3l[L;y]", "bwd", (), (2,), (2,), None),
    ],
    "two-walk2-2": [
        ("M3l[L;y]", "bwd", (), (1,), (1,), None),
        ("A1[L;x;e]", "fwd", (), (0, 3), (0, 3), None),
    ],
    "two-walk2-3": [
        ("M4l[U;a]", "bwd", (), (0,), (0,), None),
        ("M3r[U;a]", "bwd", (), (2,), (2,), None),
    ],
    "two-walk2-4": [
        ("M4l[L;x]", "bwd", (), (0,), (0,), None),
        ("A1[L;x;e]", "fwd", (), (3, 1), (3, 1), None),
    ],
    "two-walk2-5": [
        ("M3l[U;a]", "bwd", (), (0,), (0,), None),
        ("M4l[U;e]", "bwd", (), (3,), (3,), None),
    ],
    "two-walk3-0": [
        ("M3l[U;a.a]", "bwd", (), (0,), (0,), None),
        ("M4l[U;a.a]", "bwd", (), (0,), (0,), None),
        ("A1[U;b;e]", "fwd", (), (3, 1), (3, 1), None),
    ],
    "two-walk3-1": [
        ("M3l[L;y]", "bwd", (), (1,), (1,), None),
        ("A1[L;x.x;e]", "fwd", (), (0, 3), (0, 3), None),
        ("M3l[L;y]", "bwd", (), (6,), (6,), None),
    ],
    "two-walk3-2": [
        ("M3l[L;y]", "bwd", (), (1,), (1,), None),
        ("A1[L;x;e]", "fwd", (), (0, 3), (0, 3), None),
        ("M4l[L;e]", "bwd", (), (3,), (3,), None),
    ],
    "two-walk3-3": [
        ("M4r[L;x]", "bwd", (), (1,), (1,), None),
    ],
    "two-walk3-4": [
        ("M4l[L;x]", "bwd", (), (0,), (0,), None),
        ("A1[L;x;e]", "fwd", (), (3, 1), (3, 1), None),
        ("M4l[L;x]", "bwd", (), (2,), (2,), None),
    ],
    "two-walk3-5": [
        ("M3l[U;a]", "bwd", (), (0,), (0,), None),
        ("M3l[U;a]", "bwd", (), (0,), (0,), None),
        ("M4l[U;e]", "bwd", (), (3,), (3,), None),
    ],
}


def test_search_results_pinned(two_layer):
    got = {name: _outcome(rw.find_derivation(src, dst, budget))
           for name, (src, dst, budget) in _pinned_cases(two_layer).items()}
    assert got == PINNED


def _counting_builds(monkeypatch):
    built = []
    apply = rw._apply
    monkeypatch.setattr(rw, "_apply",
                        lambda host, m: built.append(m) or apply(host, m))
    return built


def test_weight_equal_unreachable_pair_spends_the_budget(monkeypatch):
    # two-u-uu and monoid-m2-m1 are settled by a weight before the loop;
    # m1 and m1;m1;m2 weigh the same under every invariant weight (m1;m2 =
    # id), and with insertions off no derivation joins them, so the loop
    # must run out: every offered move is considered until the budget is
    # spent, though the last level builds only the moves whose frame the
    # other tree holds
    mon = models.monoid_model().system
    src = _box(mon, "MU", "u", ["m1"])
    dst = _box(mon, "MU", "u", ["m1", "m1", "m2"])
    assert weights.separating_weights(src, dst, rw.FAMILIES) is None
    built = _counting_builds(monkeypatch)
    for budget in (1, 200):
        offered = []
        built.clear()
        out = rw.find_derivation(src, dst, budget,
                                 rule_filter=lambda m: offered.append(m) or True)
        assert out == rw.NotFound(budget)
        assert len(offered) >= budget
    assert len(built) < 200


def _result(res):
    """What a search returned: the rule, orientation and host of every
    step.  Of two placements with the same host and result, a backward
    step may name either."""
    if isinstance(res, rw.NotFound):
        return res
    return ([(s.rule.name, s.orientation, s.host_key) for s in res.steps],
            canonical_key(res.start))


def _oracle_walks(two_layer):
    """Seeded walks of 1-4 steps on three systems, each searched forward;
    seed 1's walks of 1, 2 and 4 steps backward too.  Reversed, the walks
    of 3 find nothing and spend the budget through levels of over 5000
    moves, seconds per walk; the reversed walks of 4 spend it inside their
    fourth level."""
    systems = {"two": two_layer, "monoid": models.monoid_model().system,
               "meet": models.meet_model().system}
    for name, system in systems.items():
        starts = [dg.gen_box(system, layer, g.name)
                  for layer in sorted(system.layers)
                  for g in system.layer(layer).gen_morphisms]
        for steps in (1, 2, 3, 4):
            for seed in (0, 1):
                a, b = _walk(system, starts, random.Random(seed), steps)
                yield (name, steps, seed), a, b
                if seed == 1 and steps != 3:
                    yield (name, steps, seed, "reversed"), b, a


def _oracle_by_budget(src, dst):
    """The one-pass search's result at 10000 and at each level boundary at
    -1, 0, +1, from one run at 10000: it returns the derivation it found
    from the budget it spent at the meet on, and NotFound below that."""
    levels = []
    full = search_oracle.find_derivation(src, dst, 10_000, levels=levels)
    found = isinstance(full, rw.Derivation)
    return {b: full if found and b >= levels[-1] else rw.NotFound(b)
            for b in {10_000} | {b + d for b in levels for d in (-1, 0, 1)
                                 if b + d >= 0}}


def test_search_agrees_with_the_one_pass_oracle(two_layer):
    # at the budgets where a level ends or the one-pass search meets
    compared = set()
    for case, src, dst in _oracle_walks(two_layer):
        for budget, want in sorted(_oracle_by_budget(src, dst).items()):
            got = rw.find_derivation(src, dst, budget)
            assert _result(got) == _result(want), (case, budget)
            assert isinstance(got, rw.NotFound) or rw.verify_derivation(got)
            compared.add((type(want), budget == 10_000))
    assert len(compared) == 4  # found and not, at the full budget and below


def test_every_step_is_an_engine_match_on_its_host(two_layer):
    # each step of a derivation is a move the engine offers on its host,
    # and leads to the next step's host and, last, to dst.  The pinned
    # cases, the oracle walks, and two pairs ending in an E step and one
    # A5 step on the empty diagram; the walks end in A1 steps on two bare
    # sheets
    gh = _box(two_layer, "U", "a", ["g", "h"])
    engine = rw.RuleEngine(two_layer)
    dressed = rw.apply_rule(gh, next(m for m in engine.matches(gh)
                                     if m.rule.name == "M3l[U;a]"))
    circle = dg.seq_compose(dg.cup(two_layer, "U"), dg.cap(two_layer, "U"))
    pairs = list(_pinned_cases(two_layer).values()) + [
        (src, dst, 10_000) for _, src, dst in _oracle_walks(two_layer)] + [
        (gh, rw.apply_rule(dressed, next(m for m in engine.matches(dressed)
                                         if m.rule.family == "E")), 10_000),
        (dg.empty_diagram(two_layer), circle, 10_000)]
    keys = set()
    for src, dst, budget in pairs:
        dv = rw.find_derivation(src, dst, budget)
        if isinstance(dv, rw.NotFound):
            continue
        engine = rw.RuleEngine(src.system)
        host = dv.start
        for step in dv.steps:
            assert step.host_key == canonical_key(host)
            assert step.signature() in {m.signature()
                                        for m in engine.matches(host)}
            host = rw._apply(host, step)
            keys.add(step.rule.name.partition("[")[0])
        assert canonical_key(host) == canonical_key(dst)
    assert {"E", "A5", "A1"} <= keys


def test_inverse_undoes_each_backward_move(two_layer):
    # every backward move the search keeps, on hosts where the E, A1 and
    # A5 moves are offered: its inverse is a match the engine offers on the
    # result, and leads back to the host
    engine = rw.RuleEngine(two_layer, equation_insertions=True)
    hosts = [_box(two_layer, "U", "a", ["g", "h"]),
             _box(two_layer, "U", "a", ["u"]),
             dg.seq_compose(dg.pants(two_layer, "U", ("a",), ("b",)),
                            dg.copants(two_layer, "U", ("a",), ("b",))),
             dg.seq_compose(dg.cup(two_layer, "U"), dg.cap(two_layer, "U"))]
    kinds = set()
    for host in map(lambda d: dg.canonicalize(d).diagram, hosts):
        for m in engine.anti_matches(host):
            res = rw._apply(host, m)
            if len(res.cells) != (len(host.cells) - len(m.cells)
                                  + len(m.replacement.cells)):
                continue  # the quotient fused or erased a cell
            inv = rw._inverse(host, m)
            assert inv.host_key == canonical_key(res)
            assert inv.signature() in {x.signature()
                                       for x in engine.matches(res)}
            assert canonical_key(rw._apply(res, inv)) == canonical_key(host)
            kinds.add(m.rule.name.partition("[")[0])
    assert {"E", "A1", "A5"} <= kinds


def test_search_builds_no_more_than_the_oracle(two_layer, monkeypatch):
    # the second pass reuses the first pass's states: no pinned search
    # builds a state more often than the one-pass search
    built = _counting_builds(monkeypatch)
    for name, (src, dst, budget) in _pinned_cases(two_layer).items():
        built.clear()
        search_oracle.find_derivation(src, dst, budget)
        one_pass = len(built)
        built.clear()
        rw.find_derivation(src, dst, budget)
        assert len(built) <= one_pass, name


def test_rule_instances_shared_per_system(two_layer, engine):
    # matching hands out one RewriteRule object per rule instance, to every
    # engine over the system
    host = dg.identity(two_layer, sheet("U", ("a",)) + sheet("U", ("b",)))
    seen: dict = {}
    for d in (host, canonicalize(host).diagram, dg.par_tensor(host, host)):
        for m in engine.matches(d) + engine.anti_matches(d):
            assert seen.setdefault(m.rule.name, m.rule) is m.rule
    assert len(seen) > 10
    fresh = rw.RuleEngine(two_layer).matches(host)[0].rule
    assert fresh is seen[fresh.name]
    assert dg.structural_eq(fresh.rhs, seen[fresh.name].rhs)


def test_rule_pieces_built_once_per_engine(two_layer, monkeypatch):
    # an engine builds each piece of its rule sides once and its rules share
    # it; composites are built and checked per rule, and another engine
    # builds its own pieces
    cells = []
    real = dg._single_cell
    monkeypatch.setattr(dg, "_single_cell",
                        lambda sys_, cell: cells.append(cell) or real(sys_,
                                                                      cell))
    f = two_layer.functor("U", "L")
    engine = rw.RuleEngine(two_layer)
    a3 = engine.rule_instance("A3", f, ("a",))
    assert [c.tag for c in cells] == ["refine", "coarsen"]
    a3c = engine.rule_instance("A3c", f, ("a",))
    assert len(cells) == 2 and a3c.rhs is a3.lhs
    assert a3c.lhs is not a3.rhs and dg.structural_eq(a3c.lhs, a3.rhs)
    for key in ("A6", "A5"):   # cap then cup, and cup then cap
        engine.rule_instance(key, "U")
    assert len(cells) == 4
    fresh = rw.RuleEngine(two_layer).rule_instance("A3", f, ("a",))
    assert len(cells) == 6 and fresh.lhs is not a3.lhs


def test_equation_rewrites_shared_per_system(two_layer, monkeypatch):
    # a second engine reads the rewrites of a box the first one matched
    calls = []
    real = internal.rewrite_occurrences
    monkeypatch.setattr(internal, "rewrite_occurrences",
                        lambda *args: calls.append(args) or real(*args))
    box = _box(two_layer, "U", "a", ["g", "h", "u"])
    first = rw.RuleEngine(two_layer).matches(box)
    assert calls and any(m.box_payload for m in first)
    calls.clear()
    again = rw.RuleEngine(two_layer).matches(box)
    assert calls == []
    assert [m.signature() for m in again] == [m.signature() for m in first]


def test_backward_deletion_needs_insertions():
    # the backward side may not delete m1;m2 when insertions are off: the
    # forward replay of that edge would be an insertion
    mon = models.monoid_model().system
    src = _box(mon, "MU", "u", ["m1"])
    dst = _box(mon, "MU", "u", ["m1", "m1", "m2"])
    assert rw.find_derivation(src, dst, 50) == rw.NotFound(50)
    dv = rw.find_derivation(src, dst, 50,
                            rw.RuleEngine(mon, equation_insertions=True))
    assert [(m.rule.name, m.orientation) for m in dv.steps] == \
        [("E[MU;m1m2_id]", "bwd")]
    assert rw.verify_derivation(dv)


def test_backward_result_the_quotient_fuses_is_not_kept(two_layer):
    # backward from dst, F1 slides the box hl up through the refine, and
    # the quotient fuses the slid box with g into src's box g;h; F1 slides
    # a whole box, so no forward move leads from src back to dst
    src = dg.seq_compose(_box(two_layer, "U", "a", ["g", "h"]),
                         dg.refine(two_layer, "U", "L", ("a",)))
    dst = dg.seq_many(dg.gen_box(two_layer, "U", "g"),
                      dg.refine(two_layer, "U", "L", ("b",)),
                      dg.gen_box(two_layer, "L", "hl"))
    engine = rw.RuleEngine(two_layer)
    assert any(m.orientation == "bwd" and m.rule.family == "F"
               and canonical_key(rw._apply(canonicalize(dst).diagram, m))
               == canonical_key(src) for m in engine.matches(dst))
    for budget in (5, 20, 50, 200):
        assert rw.find_derivation(src, dst, budget, engine) == \
            rw.NotFound(budget)


def _check_splice(host, m):
    """The trusted application agrees with the validating one, and the
    frame the search predicts for it is the frame of its result."""
    out = rw._apply(host, m)
    dg.validate_diagram(out)
    assert out._key == canonical_key(rw.apply_rule(host, m))
    frame = rw._frame_labels(host.cells)
    assert rw._moved_frame(frame, host, m, {}) == rw._frame_labels(out.cells)


def test_trusted_apply_matches_validating_path(two_layer, monkeypatch):
    # every move the pinned searches are offered, applied through the
    # trusted and the validating path, whether the search built it or not
    cases = _pinned_cases(two_layer)
    made = []
    for name in ("matches", "anti_matches"):
        def recording(engine, host, real=getattr(rw.RuleEngine, name)):
            moves = real(engine, host)
            made.extend((host, m) for m in moves)
            return moves
        monkeypatch.setattr(rw.RuleEngine, name, recording)
    gc.collect()
    gc.disable()
    try:
        for src, dst, budget in cases.values():
            rw.find_derivation(src, dst, budget)
        assert gc.collect() == 0
    finally:
        gc.enable()
    monkeypatch.undo()
    assert len(made) > 3000
    for host, m in made:
        _check_splice(host, m)
    # and every match on random hosts, and on hosts where a splice joins
    # two boxes (A2, A4, F1) or empties one (deleting m1;m2), so that the
    # quotient runs again
    rng = random.Random(17)
    two, mon = two_layer, models.monoid_model().system
    hosts = [(two, terms.build(t, two))
             for t in genterms.random_terms(two, rng, 40, max_cells=6)]
    hosts += [
        (two, dg.seq_many(dg.gen_box(two, "U", "g"),
                          dg.copants(two, "U", ("b",), ()),
                          dg.pants(two, "U", ("b",), ()),
                          dg.gen_box(two, "U", "h"))),
        (two, dg.seq_many(dg.gen_box(two, "L", "gl"),
                          dg.coarsen(two, "U", "L", ("b",)),
                          dg.refine(two, "U", "L", ("b",)),
                          dg.gen_box(two, "L", "hl"))),
        (two, dg.seq_many(dg.gen_box(two, "U", "g"),
                          dg.refine(two, "U", "L", ("b",)),
                          dg.gen_box(two, "L", "hl"))),
        (mon, _box(mon, "MU", "u", ["m1", "m2"])),
    ]
    checked = 0
    for system, d in hosts:
        engine = rw.RuleEngine(system, equation_insertions=True)
        host = canonicalize(d).diagram
        for m in engine.matches(host):
            _check_splice(host, m)
            checked += 1
    assert checked > 900
    # new box contents are put in interchange normal form: the rewrite of
    # the first u by g;h, written in another order
    aa = ("a", "a")
    host = canonicalize(dg.seq_compose(
        dg.box(two, InternalDiagram("U", aa, aa, ((0, "u"), (1, "u")))),
        dg.copants(two, "U", ("a",), ("a",)))).diagram
    m = next(m for m in rw.RuleEngine(two).matches(host) if m.box_payload)
    assert m.box_payload[1].slices == ((0, "g"), (0, "h"), (1, "u"))
    unsorted = InternalDiagram("U", aa, aa, ((1, "u"), (0, "g"), (0, "h")))
    _check_splice(host, rw.Match(m.rule, m.orientation, m.cells, (), (),
                                 m.host_key, (m.cells[0], unsorted)))


def test_apply_rule_rejects_forged_matches(two_layer, engine):
    frame = dg.seq_compose(dg.refine(two_layer, "U", "L", ("a",)),
                           dg.coarsen(two_layer, "U", "L", ("a",)))
    host = canonicalize(dg.par_tensor(
        frame, dg.identity(two_layer, sheet("U", ("b",))))).diagram
    key = canonical_key(host)
    by_type = {}
    for wi, w in enumerate(host.wires):
        by_type.setdefault(w.type, []).append(wi)
    (a_in, a_out), (b_wire,) = by_type[("U", ("a",))], by_type[("U", ("b",))]
    a3 = engine.rule_instance("A3", two_layer.functor("U", "L"), ("a",))
    a1 = engine.rule_instance("A1", "U", ("a",), ("a",))
    forged = [
        # the sheet of b where the rule wants a sheet of a
        rw.Match(a3, "fwd", (), (b_wire,), (b_wire,), key),
        # pants and copants around the frame: a path leaves the match's
        # output attachment and comes back to its input attachment
        rw.Match(a1, "fwd", (), (a_in, a_out), (a_in, a_out), key),
        rw.Match(a3, "fwd", (), (len(host.wires),), (0,), key),
    ]
    for m in forged:
        with pytest.raises(LayerPropError):
            rw.apply_rule(host, m)
        with pytest.raises(LayerPropError):
            rw.Derivation(host, [m]).end()
    # the trusted path keeps its local type check
    with pytest.raises(SortMismatch):
        rw._apply(host, forged[0])
    # an equation payload that changes its box's type
    box = canonicalize(_box(two_layer, "U", "a", ["g", "h"])).diagram
    good = next(m for m in engine.matches(box) if m.box_payload is not None)
    bad = rw.Match(good.rule, good.orientation, good.cells, (), (),
                   good.host_key,
                   (0, InternalDiagram("U", ("b",), ("b",), ())))
    for apply in (rw.apply_rule, rw._apply):
        with pytest.raises(SortMismatch):
            apply(box, bad)
    rw.apply_rule(box, good)


def test_apply_rule_checks_the_occurrence(two_layer, engine):
    # F1 matched on u, carrying the rule of u;u: the match's cells are no
    # occurrence of that rule's lhs, so u must not become F(u;u)
    f = two_layer.functor("U", "L")
    u = internal.generator("U", "u", two_layer.signature("U"))
    rule = engine.rule_instance("F1", f, u)
    host = canonicalize(rule.lhs).diagram
    m = next(m for m in engine.matches(host)
             if m.rule.name == rule.name and m.orientation == "fwd")
    forged = dataclasses.replace(m, rule=engine.rule_instance("F1", f,
                                                              u.then(u)))
    assert forged.rule.name == "F1[U>L;a>0.u;0.u]"
    with pytest.raises(SideConditionViolation, match="not an occurrence"):
        rw.apply_rule(host, forged)
    with pytest.raises(SideConditionViolation, match="not an occurrence"):
        rw.Derivation(host, [forged]).end()
    assert canonical_key(rw.apply_rule(host, m)) == canonical_key(rule.rhs)
    # an equation payload of the box's type that is no rewrite of the box
    box = canonicalize(_box(two_layer, "U", "a", ["g", "h"])).diagram
    good = next(m for m in engine.matches(box) if m.box_payload is not None)
    uu = InternalDiagram("U", ("a",), ("a",), ((0, "u"), (0, "u")))
    bad = dataclasses.replace(good, box_payload=(0, uu))
    with pytest.raises(SideConditionViolation, match="not an occurrence"):
        rw.apply_rule(box, bad)
    rw.apply_rule(box, good)


def test_apply_rule_rejects_a_cut_that_leaves_a_port_unattached(two_layer,
                                                                  engine):
    # A3 backward at the refine of refine;coarsen alone, its cod wire taken
    # from the coarsen: the cut leaves the refine's output unattached, so
    # the cells are no occurrence of up;down
    host = canonicalize(dg.seq_compose(
        dg.refine(two_layer, "U", "L", ("a",)),
        dg.coarsen(two_layer, "U", "L", ("a",)))).diagram
    up, down = (next(ci for ci, c in enumerate(host.cells) if c.tag == tag)
                for tag in ("refine", "coarsen"))
    wire = {(w.src, w.dst): wi for wi, w in enumerate(host.wires)}
    rule = engine.rule_instance("A3", two_layer.functor("U", "L"), ("a",))
    forged = rw.Match(rule, "bwd", (up,), (wire[("dom", 0), ("in", up, 0)],),
                      (wire[("out", down, 0), ("cod", 0)],), host._key)
    with pytest.raises(SortMismatch, match="unattached"):
        canonical_key(rw._cut(host, forged))
    with pytest.raises(SideConditionViolation, match="not an occurrence"):
        rw.apply_rule(host, forged)


def test_preimage_words_cut_at_their_bound():
    # eight objects with image t: 512 words map to t t t, and the search
    # stops at the first PREIMAGE_WORDS of them, in depth-first order
    objects = tuple(f"o{i}" for i in range(8))
    f = TranslationFunctor("S", "T", tuple((o, ("t",)) for o in objects))
    words, complete = rw._preimage_words(f, objects, ("t", "t", "t"))
    assert len(words) == rw.PREIMAGE_WORDS == 64 and not complete
    assert len(set(words)) == 64
    assert words[:2] == [("o0", "o0", "o0"), ("o0", "o0", "o1")]
    assert words[-1] == ("o0", "o7", "o7")


def test_negative_budgets_rejected(two_layer):
    u = _box(two_layer, "U", "a", ["u"])
    uu = _box(two_layer, "U", "a", ["u", "u"])
    with pytest.raises(MalformedInput,
                       match="^budget must not be negative, got -5$"):
        rw.find_derivation(u, uu, -5)
    with pytest.raises(MalformedInput,
                       match="^budget must not be negative, got -3$"):
        dg.layer_eq(u, uu, -3)
    assert rw.find_derivation(u, uu, 0) == rw.NotFound(0)


# ---------------------------------------------------------------------------
# pinned match sets: every match and anti-match two engines offer on a fixed
# corpus, down to the cells, wires, rule parameters and rule sides

SAMPLE_POOLS = {
    "two": {"U": [(), ("a",), ("b",)], "L": [(), ("x",), ("y",)]},
    "monoid": {"MU": [(), ("u",), ("u", "u")], "ML": [(), ("v",)]},
    "meet": {"Ar": [(), ("lo",), ("hi",)],
             "Sq": [(), ("q",), ("r",), ("q", "r")]},
}


def _sample_systems(two_layer):
    """(name, system, sample_instances rules) for the three systems."""
    out = []
    for name, system in (("two", two_layer),
                         ("monoid", models.monoid_model().system),
                         ("meet", models.meet_model().system)):
        rules = rw.sample_instances(rw.RuleEngine(system), SAMPLE_POOLS[name])
        out.append((name, system, rules))
    return out


# "anti" counts every backward move: the bidirectional ones either way,
# then the one-directional ones
MATCH_COUNTS = {"A": 22441, "anti": 64483, "E": 328, "F": 1116, "M": 54710}
MATCH_DIGEST = ("a2f8487ba708af8abcd3a89d68ec740e"
                "0d41b2a1e34062e7e1ee018300e50912")


def _pinned_corpus(two_layer) -> list:
    """(engines, host) pairs: every side of the sampled rules and random
    two-layer terms, each with a plain engine and one with the collapse
    and equation insertions on."""
    corpus = []
    for name, system, rules in _sample_systems(two_layer):
        engines = (rw.RuleEngine(system),
                   rw.RuleEngine(system, [("U", "L")] if name == "two" else
                                 (), equation_insertions=True))
        corpus += [(engines, side) for rule in rules
                   for side in (rule.lhs, rule.rhs)]
        if name == "two":
            rng = random.Random(17)
            corpus += [(engines, terms.build(t, system)) for t in
                       genterms.random_terms(system, rng, 40, max_cells=6)]
    assert len(corpus) == 1608
    return corpus


def test_match_sets_pinned(two_layer):
    corpus = _pinned_corpus(two_layer)
    entries = []
    counts: dict = {}
    sides: dict = {}  # the digest of a rule's side keys, once per rule
    for engines, host in corpus:
        for engine in engines:
            for kind, found in (("matches", engine.matches(host)),
                                ("anti", engine.anti_matches(host))):
                for m in found:
                    fam = "anti" if kind == "anti" else m.rule.family
                    counts[fam] = counts.get(fam, 0) + 1
                    if id(m.rule) not in sides:
                        sides[id(m.rule)] = hashlib.sha256(repr(
                            (canonical_key(m.rule.lhs),
                             canonical_key(m.rule.rhs))).encode()).hexdigest()
                    entries.append((kind, m.signature(), m.rule.family,
                                    m.rule.bidirectional, m.rule.params,
                                    sides[id(m.rule)]))
    assert counts == MATCH_COUNTS
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == MATCH_DIGEST


DIAGRAM_JSON_DIGEST = ("5755958b2bf2ac07acaeccf81865fd40"
                       "779f50b064b04660b673a3369c5beb8b")


def test_diagram_json_pinned(two_layer):
    # the diagram codec's output on the pinned hosts, so that a drift of the
    # codec or of canonical forms shows; each file reads back to its host
    out = []
    for engines, host in _pinned_corpus(two_layer):
        payload = jsonio.diagram_to_json(host)
        back = jsonio.diagram_from_json(engines[0].system, payload)
        assert canonical_key(back) == canonical_key(host)
        out.append(jsonio.dumps(payload))
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == DIAGRAM_JSON_DIGEST


def test_every_rule_matches_its_own_sides(two_layer):
    # the engine offers each sampled rule on its own sides, over every cell;
    # A2 has no backward move, and an equation side that is an identity box
    # canonicalises away
    for name, system, rules in _sample_systems(two_layer):
        engine = rw.RuleEngine(system, equation_insertions=True)
        misses = []
        for rule in rules:
            for orientation, side in (("fwd", rule.lhs), ("bwd", rule.rhs)):
                host = canonicalize(side).diagram
                found = (engine.matches(host)
                         if orientation == "fwd" or rule.bidirectional
                         else engine.anti_matches(host))
                every = tuple(range(len(host.cells)))
                if not any(m.rule.name == rule.name
                           and m.orientation == orientation
                           and tuple(sorted(m.cells)) == every
                           for m in found):
                    misses.append((rule, orientation, host))
        for rule, orientation, host in misses:
            assert ((rule.name.startswith("A2[") and orientation == "bwd")
                    or (rule.family == "E" and not host.cells)), \
                (name, rule.name, orientation)
        assert sum(r.name.startswith("A2[") and o == "bwd"
                   for r, o, _ in misses) == \
            sum(r.name.startswith("A2[") for r in rules)
        assert len(rules) == {"two": 271, "monoid": 167, "meet": 346}[name]


def test_rule_memo_freed_with_the_system():
    # engines share their solutions and rule sides through the system,
    # and rule sides refer back to it: dropping the system frees it all
    system = make_two_layer_system()
    host = dg.seq_compose(dg.gen_box(system, "U", "g"),
                          dg.refine(system, "U", "L", ("b",)))
    assert rw.RuleEngine(system).matches(host)
    assert system._rewrite_memo
    ref = weakref.ref(system)
    del system, host
    gc.collect()
    assert ref() is None
