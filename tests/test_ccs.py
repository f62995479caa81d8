"""Process calculus semantics and the two operational-layer fixtures."""

import itertools
import random

import pytest

from layerprop import ccs
from layerprop import diagram as dg
from layerprop import rewrite as rw
from layerprop.ccs import (NIL, Par, Prefix, bisimilar, co,
                           congruence_key, lts_transitions, parse_process,
                           reductions, render)


def P(text):
    return parse_process(text)


def congruent(p, q):
    return congruence_key(p) == congruence_key(q)


def test_parse_render_round_trip():
    for text in ("0", "x.0", "(x.0|y.0)", "(x.0|(y.0|x'.0))", "a.b.0",
                 "(0|(y.0|0))"):
        assert render(P(text)) == text


def test_co_involutive():
    assert co("x") == "x'"
    assert co(co("x")) == "x"


def test_congruence_examples():
    assert congruent(P("(0|x.0)"), P("x.0"))
    assert congruent(P("((x.0|y.0)|z.0)"), P("(x.0|(y.0|z.0))"))
    assert congruent(P("(x.0|y.0)"), P("(y.0|x.0)"))
    assert not congruent(P("x.(0|0)"), P("x.0"))  # not closed under prefix
    assert not congruent(P("x.0"), P("y.0"))


def test_reductions_simple_pair():
    out = reductions(P("(x.0|x'.0)"))
    assert len(out) == 1
    assert render(out[0]) == "(0|0)"


def test_reductions_through_bracketing():
    out = reductions(P("(x.0|(y.0|x'.0))"))
    assert [render(q) for q in out] == ["(0|(y.0|0))"]


def test_reductions_none():
    assert reductions(P("y.0")) == []
    assert reductions(P("(x.0|y.0)")) == []


def test_lts_transitions_fire():
    assert lts_transitions(P("x.0")) == [("x", NIL)]


def test_lts_transitions_enumeration():
    got = lts_transitions(P("(x.0|x'.0)"))
    rendered = {(label, render(q)) for label, q in got}
    assert rendered == {("x", "(0|x'.0)"), ("x'", "(x.0|0)"),
                        ("tau", "(0|0)")}


def test_lts_transitions_nil():
    assert lts_transitions(NIL) == []


def _naive_bisimilar(p, q):
    """Greatest fixpoint by pair elimination (independent oracle)."""
    states_p, edges_p = ccs.reachable(p)
    states_q, edges_q = ccs.reachable(q)
    states = states_p + states_q
    offset = len(states_p)
    succ = {i: [] for i in range(len(states))}
    for a, l, b in edges_p:
        succ[a].append((l, b))
    for a, l, b in edges_q:
        succ[a + offset].append((l, b + offset))
    rel = {(i, j) for i in range(len(states)) for j in range(len(states))}
    changed = True
    while changed:
        changed = False
        for (i, j) in sorted(rel):
            ok = True
            for l, i2 in succ[i]:
                if not any((i2, j2) in rel for l2, j2 in succ[j]
                           if l2 == l):
                    ok = False
                    break
            if ok:
                for l, j2 in succ[j]:
                    if not any((i2, j2) in rel for l2, i2 in succ[i]
                               if l2 == l):
                        ok = False
                        break
            if not ok:
                rel.discard((i, j))
                changed = True
    return (0, offset) in rel


def test_bisimilar_basics():
    assert bisimilar(P("(0|0)"), P("0"))
    assert not bisimilar(P("x.0"), P("y.0"))
    assert bisimilar(P("(x.0|y.0)"), P("(y.0|x.0)"))
    assert not bisimilar(P("(x.0|x'.0)"), P("x.x'.0"))


def _random_process(rng, depth):
    if depth == 0:
        return NIL
    kind = rng.randrange(3)
    if kind == 0:
        return NIL
    if kind == 1:
        action = rng.choice(["x", "y", "x'", "y'"])
        return Prefix(action, _random_process(rng, depth - 1))
    return Par(_random_process(rng, depth - 1),
               _random_process(rng, depth - 1))


def test_bisimilar_matches_naive_oracle():
    rng = random.Random(41)
    checked = 0
    for _ in range(100):
        p = _random_process(rng, rng.randint(1, 4))
        q = _random_process(rng, rng.randint(1, 4))
        if len(ccs.reachable(p)[0]) > 20 or len(ccs.reachable(q)[0]) > 20:
            continue
        assert bisimilar(p, q) == _naive_bisimilar(p, q)
        checked += 1
    assert checked >= 80


def test_congruent_implies_bisimilar():
    rng = random.Random(43)
    for _ in range(60):
        p = _random_process(rng, rng.randint(1, 3))
        variants = [Par(NIL, p), Par(p, NIL)]
        if isinstance(p, Par):
            variants.append(Par(p.right, p.left))
        for q in variants:
            assert congruent(p, q)
            assert bisimilar(p, q)


def test_reductions_subsumed_by_silent_transitions():
    rng = random.Random(47)
    for _ in range(80):
        p = _random_process(rng, rng.randint(1, 4))
        taus = [q for label, q in lts_transitions(p) if label == ccs.TAU]
        for r in reductions(p):
            assert any(congruent(r, q) for q in taus)


def test_transitions_decrease_prefix_count():
    def prefixes(p):
        if isinstance(p, Prefix):
            return 1 + prefixes(p.body)
        if isinstance(p, Par):
            return prefixes(p.left) + prefixes(p.right)
        return 0

    rng = random.Random(53)
    for _ in range(60):
        p = _random_process(rng, rng.randint(1, 4))
        for _, q in lts_transitions(p):
            assert prefixes(q) < prefixes(p)


@pytest.fixture(scope="module")
def ccs_system():
    return ccs.build_ccs_system()


def test_system_validates(ccs_system):
    from layerprop.theory import validate_system
    assert validate_system(ccs_system.system).ok


def test_translation_flattens(ccs_system):
    f = ccs_system.system.functor("Red", "LTS")
    assert f.word_image(("(x.0|(y.0|x'.0))",)) == ("x.0", "y.0", "x'.0")
    # homomorphic on words
    assert f.word_image(("x.0", "(y.0|0)")) == ("x.0", "y.0", "0")


def test_reduction_image_typechecks(ccs_system):
    from layerprop.theory import translate_internal
    from layerprop import internal
    f = ccs_system.system.functor("Red", "LTS")
    img = translate_internal(ccs_system.system, f, ccs_system.rule_content)
    internal.validate(img, ccs_system.system.signature("LTS"))
    assert img.dom == ("x.0", "y.0", "x'.0")
    assert img.cod == ("0", "y.0", "0")


def test_fixture_verdicts(ccs_system):
    valid, counter = ccs.check_ccs_fixtures(ccs_system, budget=400)
    assert valid.status == "valid"
    assert valid.witness is not None
    assert rw.verify_derivation(valid.witness)
    assert counter.status == "certified"


def test_counterfactual_mutation_refuted(ccs_system):
    # replace the direct derivation with the translated one: now the
    # window is exactly the image, and a rewrite connects them
    from layerprop.theory import translate_internal
    sys_ = ccs_system.system
    f = sys_.functor("Red", "LTS")
    image = translate_internal(sys_, f, ccs_system.rule_content)
    mutated = dg.seq_many(
        dg.refine(sys_, "Red", "LTS", ccs_system.rule_content.dom),
        dg.box(sys_, image),
        dg.coarsen(sys_, "Red", "LTS", ccs_system.rule_content.cod))
    from layerprop import explain
    verdict = explain.check_counterfactual(mutated, ccs_system.explained,
                                           budget=400,
                                           engine=ccs_system.engine)
    assert verdict.status == "refuted"
    assert verdict.witness is not None


def test_counterfactual_not_isolated_if_image(ccs_system):
    # the mutated diagram from the previous test has matches (the window
    # collapses back through the translation), unlike the fixture
    assert ccs_system.engine.is_isolated(ccs_system.counterfactual)


def test_lts_dot_export(capsys):
    out = ccs.lts_dot(P("(x.0|x'.0)"))
    assert out.startswith("digraph")
    assert out.count("->") == 5  # x, x', tau, then the two tails
    assert out == ccs.lts_dot(P("(x.0|x'.0)"))
    from layerprop.cli import main
    assert main(["ccs", "--lts", "(x.0|x'.0)"]) == 0
    assert capsys.readouterr().out == out
