"""System validation, word translation, and functor composition."""

import random

import pytest

from layerprop.errors import UnknownSymbol
from layerprop.internal import InternalDiagram
from layerprop.theory import (Equation, LayerPresentation, MorphismGen,
                              SystemOfLayers, TranslationFunctor,
                              compose_functors, validate_system)

from conftest import make_two_layer_system


def test_single_layer_no_functors_is_valid():
    sys_ = SystemOfLayers(
        [LayerPresentation("only", ("a",), (MorphismGen("g", ("a",), ("a",)),))])
    assert validate_system(sys_).ok


def test_two_functors_same_pair_violates_posetality():
    a = LayerPresentation("A", ("x",))
    b = LayerPresentation("B", ("y",))
    f1 = TranslationFunctor("A", "B", (("x", ("y",)),))
    f2 = TranslationFunctor("A", "B", (("x", ("y", "y")),))
    sys_ = SystemOfLayers([a, b], [f1, f2], order=[("B", "A")])
    rep = validate_system(sys_)
    assert any("posetality" in v for v in rep.violations)


def _chain_system(perturb: bool) -> SystemOfLayers:
    a = LayerPresentation("A", ("x",), (MorphismGen("g", ("x",), ("x",)),))
    b = LayerPresentation("B", ("y",), (MorphismGen("gb", ("y",), ("y",)),))
    c = LayerPresentation("C", ("z",), (
        MorphismGen("gc", ("z",), ("z",)),
        MorphismGen("other", ("z",), ("z",)),
    ))
    f = TranslationFunctor("A", "B", (("x", ("y",)),),
                           (("g", InternalDiagram("B", ("y",), ("y",),
                                                  ((0, "gb"),))),))
    g = TranslationFunctor("B", "C", (("y", ("z",)),),
                           (("gb", InternalDiagram("C", ("z",), ("z",),
                                                   ((0, "gc"),))),))
    stored_gen = "other" if perturb else "gc"
    h = TranslationFunctor("A", "C", (("x", ("z",)),),
                           (("g", InternalDiagram("C", ("z",), ("z",),
                                                  ((0, stored_gen),))),))
    return SystemOfLayers([a, b, c], [f, g, h],
                          order=[("B", "A"), ("C", "B"), ("C", "A")])


def test_chain_with_consistent_composite_is_valid():
    assert validate_system(_chain_system(perturb=False)).ok


def test_chain_with_perturbed_composite_reports_closure_violation():
    rep = validate_system(_chain_system(perturb=True))
    assert any("disagrees with stored" in v for v in rep.violations)


def test_translate_word_homomorphism_example():
    f = TranslationFunctor("A", "B", (("a", ("x", "y")),))
    assert f.word_image(("a", "a")) == ("x", "y", "x", "y")
    assert f.word_image(()) == ()


def test_translate_word_unknown_symbol():
    f = TranslationFunctor("A", "B", (("a", ("x",)),))
    with pytest.raises(UnknownSymbol):
        f.word_image(("zz",))


def test_translate_word_random_splits_are_homomorphic():
    rng = random.Random(3)
    f = TranslationFunctor("A", "B", (("a", ("x", "y")), ("b", ()),
                                      ("c", ("z",))))
    for _ in range(100):
        w = tuple(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        k = rng.randint(0, len(w))
        assert f.word_image(w) == f.word_image(w[:k]) + f.word_image(w[k:])


def test_order_direction_checked(two_layer):
    assert validate_system(two_layer).ok
    flipped = SystemOfLayers(list(two_layer.layers.values()),
                             list(two_layer.functors.values()),
                             order=[("U", "L")])
    rep = validate_system(flipped)
    assert not rep.ok


def test_morphism_map_typing_checked():
    sys_ = make_two_layer_system()
    f = sys_.functors[("U", "L")]
    bad = TranslationFunctor(
        f.source, f.target, f.object_map,
        tuple((g, img) if g != "g" else
              (g, InternalDiagram("L", ("y",), ("x",), ((0, "hl"),)))
              for g, img in f.morphism_map))
    rep = validate_system(SystemOfLayers(list(sys_.layers.values()), [bad],
                                         order=[("L", "U")]))
    assert any("image of 'g'" in v for v in rep.violations)


def test_functor_composition_on_generators():
    sys_ = _chain_system(perturb=False)
    f = sys_.functor("A", "B")
    g = sys_.functor("B", "C")
    h = compose_functors(sys_, f, g)
    assert h.word_image(("x",)) == ("z",)
    assert h.gen_image("g").slices == ((0, "gc"),)


def test_cyclic_order_rejected():
    a = LayerPresentation("A", ("x",))
    b = LayerPresentation("B", ("y",))
    f = TranslationFunctor("A", "B", (("x", ("y",)),))
    g = TranslationFunctor("B", "A", (("y", ("x",)),))
    sys_ = SystemOfLayers([a, b], [f, g], order=[("B", "A"), ("A", "B")])
    rep = validate_system(sys_)
    assert any("cycle" in v for v in rep.violations)


def test_equation_sides_must_be_parallel():
    lay = LayerPresentation(
        "E", ("a", "b"),
        (MorphismGen("g", ("a",), ("b",)), MorphismGen("h", ("a",), ("a",))),
        (Equation("bad", InternalDiagram("E", ("a",), ("b",), ((0, "g"),)),
                  InternalDiagram("E", ("a",), ("a",), ((0, "h"),))),))
    rep = validate_system(SystemOfLayers([lay]))
    assert any("not parallel" in v for v in rep.violations)
