"""Ready-made finite models used for semantic verification.

Three small strict monoidal categories: a three-element cyclic monoid viewed
as a one-object category, the arrow category with its meet tensor, and the
commutative-square poset (a product of two arrows) with meets.  Each comes
bundled into a two-layer system with a translation functor so that every
rule family has instances to verify.
"""

from __future__ import annotations

from .internal import InternalDiagram
from .profunctor import FinFunctor, FinMonoidalCategory
from .semantics import FinOmegaSystem
from .theory import (Equation, LayerPresentation, MorphismGen,
                     SystemOfLayers, TranslationFunctor)


def cyclic_monoid_category(name: str = "Z3") -> FinMonoidalCategory:
    """The additive monoid on {0,1,2} as a one-object monoidal category."""
    objects = ["*"]
    morphisms = ["0", "1", "2"]
    compose = {(a, b): str((int(a) + int(b)) % 3)
               for a in morphisms for b in morphisms}
    return FinMonoidalCategory(
        name, objects, morphisms,
        {m: "*" for m in morphisms}, {m: "*" for m in morphisms},
        compose, {"*": "0"}, "*",
        {("*", "*"): "*"},
        dict(compose))


def _poset_category(name: str, objects: list[str],
                    leq: set[tuple[str, str]],
                    meet: dict[tuple[str, str], str]
                    ) -> FinMonoidalCategory:
    morphisms = [f"{a}<{b}" for a in objects for b in objects
                 if (a, b) in leq]
    dom = {m: m.split("<")[0] for m in morphisms}
    cod = {m: m.split("<")[1] for m in morphisms}
    compose = {}
    for f in morphisms:
        for g in morphisms:
            if cod[f] == dom[g]:
                compose[(f, g)] = f"{dom[f]}<{cod[g]}"
    identities = {a: f"{a}<{a}" for a in objects}
    tensor_mor = {}
    for f in morphisms:
        for g in morphisms:
            a = meet[(dom[f], dom[g])]
            b = meet[(cod[f], cod[g])]
            tensor_mor[(f, g)] = f"{a}<{b}"
    top = [a for a in objects if all((b, a) in leq for b in objects)][0]
    return FinMonoidalCategory(name, objects, morphisms, dom, cod, compose,
                               identities, top, dict(meet), tensor_mor)


def arrow_meet_category(name: str = "Arr") -> FinMonoidalCategory:
    """The arrow category lo -> hi with meet as a strict tensor."""
    objects = ["lo", "hi"]
    leq = {("lo", "lo"), ("lo", "hi"), ("hi", "hi")}
    meet = {(a, b): "hi" if a == b == "hi" else "lo"
            for a in objects for b in objects}
    return _poset_category(name, objects, leq, meet)


def square_meet_category(name: str = "Sq") -> FinMonoidalCategory:
    """The commutative square p < q,r < s (a 2x2 poset) with meets."""
    objects = ["p", "q", "r", "s"]
    order = {"p": set(), "q": {"p"}, "r": {"p"}, "s": {"p", "q", "r"}}
    leq = {(a, b) for a in objects for b in objects
           if a == b or a in order[b]}

    def meet(a, b):
        below = [c for c in objects
                 if (c, a) in leq and (c, b) in leq]
        return max(below, key=lambda c: sum((d, c) in leq for d in objects))

    meets = {(a, b): meet(a, b) for a in objects for b in objects}
    return _poset_category(name, objects, leq, meets)


def monoid_model() -> FinOmegaSystem:
    """Two layers over the cyclic monoid, translated by the doubling map."""
    upper = LayerPresentation(
        "MU", ("u",),
        (MorphismGen("m1", ("u",), ("u",)),
         MorphismGen("m2", ("u",), ("u",))),
        (Equation("m1m2_id",
                  InternalDiagram("MU", ("u",), ("u",),
                                  ((0, "m1"), (0, "m2"))),
                  InternalDiagram("MU", ("u",), ("u",), ())),))
    lower = LayerPresentation(
        "ML", ("v",),
        (MorphismGen("n1", ("v",), ("v",)),
         MorphismGen("n2", ("v",), ("v",))))
    # doubling is a monoid homomorphism: 1 -> 2, 2 -> 1
    f = TranslationFunctor(
        "MU", "ML", (("u", ("v",)),),
        (("m1", InternalDiagram("ML", ("v",), ("v",), ((0, "n2"),))),
         ("m2", InternalDiagram("ML", ("v",), ("v",), ((0, "n1"),)))))
    sys_ = SystemOfLayers([upper, lower], [f], order=[("ML", "MU")])
    cu = cyclic_monoid_category("Z3u")
    cl = cyclic_monoid_category("Z3l")
    model_f = FinFunctor("double", cu, cl, {"*": "*"},
                         {"0": "0", "1": "2", "2": "1"})
    return FinOmegaSystem(
        sys_,
        {"MU": cu, "ML": cl},
        {("MU", "u"): "*", ("ML", "v"): "*"},
        {("MU", "m1"): "1", ("MU", "m2"): "2",
         ("ML", "n1"): "1", ("ML", "n2"): "2"},
        {("MU", "ML"): model_f})


def meet_model() -> FinOmegaSystem:
    """Arrow category translated into the commutative square by meets."""
    upper = LayerPresentation(
        "Ar", ("lo", "hi"),
        (MorphismGen("up", ("lo",), ("hi",)),))
    lower = LayerPresentation(
        "Sq", ("p", "q", "r", "s"),
        (MorphismGen("gf", ("p",), ("q",)),
         MorphismGen("gg", ("p",), ("r",)),
         MorphismGen("gh", ("q",), ("s",)),
         MorphismGen("gk", ("r",), ("s",)),
         MorphismGen("gd", ("p",), ("s",))),
        (Equation("square_left",
                  InternalDiagram("Sq", ("p",), ("s",),
                                  ((0, "gf"), (0, "gh"))),
                  InternalDiagram("Sq", ("p",), ("s",), ((0, "gd"),))),
         Equation("square_right",
                  InternalDiagram("Sq", ("p",), ("s",),
                                  ((0, "gg"), (0, "gk"))),
                  InternalDiagram("Sq", ("p",), ("s",), ((0, "gd"),)))))
    f = TranslationFunctor(
        "Ar", "Sq", (("lo", ("p",)), ("hi", ("s",))),
        (("up", InternalDiagram("Sq", ("p",), ("s",), ((0, "gd"),))),))
    sys_ = SystemOfLayers([upper, lower], [f], order=[("Sq", "Ar")])
    ca = arrow_meet_category()
    cs = square_meet_category()
    model_f = FinFunctor(
        "meetmap", ca, cs,
        {"lo": "p", "hi": "s"},
        {"lo<lo": "p<p", "lo<hi": "p<s", "hi<hi": "s<s"})
    return FinOmegaSystem(
        sys_,
        {"Ar": ca, "Sq": cs},
        {("Ar", "lo"): "lo", ("Ar", "hi"): "hi",
         ("Sq", "p"): "p", ("Sq", "q"): "q", ("Sq", "r"): "r",
         ("Sq", "s"): "s"},
        {("Ar", "up"): "lo<hi",
         ("Sq", "gf"): "p<q", ("Sq", "gg"): "p<r", ("Sq", "gh"): "q<s",
         ("Sq", "gk"): "r<s", ("Sq", "gd"): "p<s"},
        {("Ar", "Sq"): model_f})

