"""Shared miniature systems used across the test suite."""

from __future__ import annotations

import os
import sys as _sys
from pathlib import Path

_sys.path.insert(0, str(Path(__file__).resolve().parent))
# tests that run ``python -m layerprop.cli`` need the package in the child
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

import pytest

from layerprop.internal import InternalDiagram
from layerprop.theory import (Equation, LayerPresentation, MorphismGen,
                              SystemOfLayers, TranslationFunctor)


def make_two_layer_system() -> SystemOfLayers:
    """Upper layer U with an equation, lower layer L, one translation U->L."""
    upper = LayerPresentation(
        name="U",
        gen_objects=("a", "b"),
        gen_morphisms=(
            MorphismGen("g", ("a",), ("b",)),
            MorphismGen("h", ("b",), ("a",)),
            MorphismGen("k", ("a", "a"), ("b",)),
            MorphismGen("u", ("a",), ("a",)),
        ),
        equations=(
            Equation("gh_is_u",
                     InternalDiagram("U", ("a",), ("a",),
                                     ((0, "g"), (0, "h"))),
                     InternalDiagram("U", ("a",), ("a",), ((0, "u"),))),
        ),
    )
    lower = LayerPresentation(
        name="L",
        gen_objects=("x", "y"),
        gen_morphisms=(
            MorphismGen("gl", ("x",), ("y",)),
            MorphismGen("hl", ("y",), ("x",)),
            MorphismGen("kl", ("x", "x"), ("y",)),
            MorphismGen("ul", ("x",), ("x",)),
        ),
    )
    f = TranslationFunctor(
        source="U", target="L",
        object_map=(("a", ("x",)), ("b", ("y",))),
        morphism_map=(
            ("g", InternalDiagram("L", ("x",), ("y",), ((0, "gl"),))),
            ("h", InternalDiagram("L", ("y",), ("x",), ((0, "hl"),))),
            ("k", InternalDiagram("L", ("x", "x"), ("y",), ((0, "kl"),))),
            ("u", InternalDiagram("L", ("x",), ("x",), ((0, "ul"),))),
        ),
    )
    return SystemOfLayers([upper, lower], [f], order=[("L", "U")])


def make_single_layer_system() -> SystemOfLayers:
    layer = LayerPresentation(
        name="W",
        gen_objects=("a", "b", "c"),
        gen_morphisms=(
            MorphismGen("p", ("a",), ("b",)),
            MorphismGen("q", ("b",), ("c",)),
            MorphismGen("r", ("a", "b"), ("c",)),
            MorphismGen("s", (), ("a",)),
            MorphismGen("t", ("c",), ()),
        ),
    )
    return SystemOfLayers([layer], [], order=[])


@pytest.fixture
def two_layer():
    return make_two_layer_system()


@pytest.fixture
def single_layer():
    return make_single_layer_system()
