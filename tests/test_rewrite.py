"""Rule matching, application round-trips, derivation search, isolation."""

import random

import pytest

from layerprop import diagram as dg
from layerprop import internal, models
from layerprop import rewrite as rw
from layerprop.diagram import canonical_key, canonicalize
from layerprop.errors import SortMismatch, StaleMatch
from layerprop.internal import InternalDiagram
from layerprop.theory import sheet


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
        brute = engine.isolation_matches(d)
        assert engine.is_isolated(d) == (not brute)


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
        ("M3l[Sq;q]", "bwd", (), (1,), (1,), None),
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
        ("M3l[ML;v]", "bwd", (), (1,), (1,), None),
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
        ("M3l[L;y]", "bwd", (), (1,), (1,), None),
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


def test_rule_instances_shared_per_engine(two_layer, engine):
    # matching hands out one RewriteRule object per rule instance
    host = dg.identity(two_layer, sheet("U", ("a",)) + sheet("U", ("b",)))
    seen: dict = {}
    for d in (host, canonicalize(host).diagram, dg.par_tensor(host, host)):
        for m in engine.matches(d) + engine.anti_matches(d):
            assert seen.setdefault(m.rule.name, m.rule) is m.rule
    assert len(seen) > 10
    fresh = rw.RuleEngine(two_layer).matches(host)[0].rule
    assert fresh is not seen[fresh.name]
    assert dg.structural_eq(fresh.rhs, seen[fresh.name].rhs)


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
