"""Term syntax for diagrams; typing is by construction.

Terms mirror the constructors of the calculus one-to-one.  ``build``
elaborates a term through the ``diagram`` constructors, which carry the sort
rules: a term is well sorted exactly when it builds, and its sort is the
sort of the diagram it builds.  A single cell is one leaf, ``Cell``, named
by its class in ``diagram.CONSTRUCTORS``, so a new cell kind needs no term
of its own.  The one syntactic rule is the side condition of the in-layer
tensor: both operands must be internal terms.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import diagram as dg
from .errors import SideConditionViolation
from .internal import Word
from .theory import SystemOfLayers, sheet


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Id:
    layer: str
    word: Word


@dataclass(frozen=True)
class Gen:
    layer: str
    name: str


@dataclass(frozen=True)
class Cell:
    """One cell: ``kind`` is a key of ``diagram.CONSTRUCTORS`` and ``args``
    its label fields' values in order."""

    kind: type
    args: tuple


@dataclass(frozen=True)
class Seq:
    first: "Term"
    second: "Term"


@dataclass(frozen=True)
class Par:
    top: "Term"
    bottom: "Term"


@dataclass(frozen=True)
class Fuse:
    layer: str
    top: "Term"
    bottom: "Term"


Term = Empty | Id | Gen | Cell | Seq | Par | Fuse


def is_internal_term(t: Term) -> bool:
    """Built from generators, identities, boxes, composition and in-layer
    tensor."""
    pending = [t]  # a loop, not recursion: a chain nests as deep as it is long
    while pending:
        t = pending.pop()
        if isinstance(t, Seq):
            pending += (t.second, t.first)
        elif isinstance(t, Fuse):
            pending += (t.bottom, t.top)
        elif not (isinstance(t, (Gen, Id)) or isinstance(t, Cell)
                  and t.kind is dg.InternalBox):
            return False
    return True


# each leaf term's diagram; the constructors carry the sort rules
_LEAVES = {
    Empty: lambda sys, t: dg.empty_diagram(sys),
    Id: lambda sys, t: dg.identity(sys, sheet(t.layer, t.word)),
    Gen: lambda sys, t: dg.gen_box(sys, t.layer, t.name),
    Cell: lambda sys, t: dg.CONSTRUCTORS[t.kind](sys, *t.args),
}


# the two chain forms, each with its composition
_CHAINS = {Seq: dg.seq_compose, Par: dg.par_tensor}


def build(t: Term, sys: SystemOfLayers) -> dg.Diagram:
    """Elaborate a term into a diagram, whose sort is the term's; an
    ill-sorted term raises at its first ill-sorted subterm."""
    kind = type(t)
    if kind in _CHAINS:
        # (seq t1 ... tn) reads as a left spine n-1 deep: fold it in a loop,
        # building the operands in the order the recursion would
        operands = []
        while type(t) is kind:
            left, right = (getattr(t, f.name) for f in fields(t))
            operands.append(right)
            t = left
        out = build(t, sys)
        for right in reversed(operands):
            out = _CHAINS[kind](out, build(right, sys))
        return out
    if isinstance(t, Fuse):
        if not (is_internal_term(t.top) and is_internal_term(t.bottom)):
            raise SideConditionViolation(
                "in-layer tensor applied to a non-internal term")
        return dg.fuse_internal(build(t.top, sys), build(t.bottom, sys),
                                t.layer)
    leaf = _LEAVES.get(kind)
    if leaf is None:
        raise TypeError(f"not a term: {t!r}")
    return leaf(sys, t)
