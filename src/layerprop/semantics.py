"""Evaluation of diagrams over finite models.

A model binds each layer to a finite strict monoidal category, each object
symbol to an object, each morphism generator to a morphism, and each
translation functor to a finite monoidal functor.  Interpretation slices
the canonical diagram into sequential layers of parallel cells, or a
permutation of the sheets where the wiring crosses.  Each cell has one
piece, a pointed hom_M(F-, G-) with F the up and G the down part; only a
permutation P reads two ways, up(P) or down(P^-1).

A side is read one way, by ``_push``: it pushes a boundary through the
pieces slice by slice, forward through each F or backward through each G,
and carries the point as F(point) ; p forward and p ; G(point) backward,
which by functoriality is the forward composite.  What the boundary's
objects and morphisms map to depends only on the side's shape, each part's
functor and width per slice, so those images are kept per model and shape.

Interpretation cuts the slices read up into segments, each a run with no
down part followed by a run with no up part.  By co-Yoneda (Loregian,
*(Co)end Calculus*, arXiv:1501.02503) a segment is one representable
hom_M(F-, G-): F is pushed forward from its source boundary, G backward
from its target boundary, the two must meet, and the point is
p_up ; p_down.  A coend quotient is taken only where one segment meets the
next.

Rule verification follows the rule's direction.  An invertible rule (E, F
or M) holds when its sides have a common side evaluation: a side with no
down part is one segment hom_M(F-, -), and its up evaluation is F on the
objects and generators of the source boundary, with the boundaries and the
point; a down evaluation pushes the target boundary backward through each
G.  No functor is composed and no profunctor built for a side
evaluation.  By Yoneda, Nat(up F, up F') = Nat(F', F) (section 2 of the
reference above), so two sides that evaluate up alike carry the identity
as a pointed natural isomorphism, and no search is needed; down
evaluations, hom_M(-, G-), are dual, and a side holding a permutation is
pointed-isomorphic to its down reading through up(P) = down(P^-1).  An E
side is a single box, so its evaluation carries the morphism its equation
side denotes.  A one-directional rule (A) holds when a point-preserving
natural transformation takes the interpreted left side to the right one;
that search (``profunctor.pointed_two_cell``) runs element by element and
is the only one ``cap`` bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import profunctor as pf
from .diagram import (Cap, Cell, Coarsen, Copants, Cup, Diagram,
                      InternalBox, Pants, Refine, SheetSym, canonicalize)
from .errors import BoundaryMismatch, ModelIncomplete
from .internal import InternalDiagram, Word
from .profunctor import (ComposedProfunctor, FinCategory, FinFunctor,
                         FinMonoidalCategory, Functor, PointedProfunctor,
                         hom_profunctor, product_category, reindex)
from .rewrite import RewriteRule
from .theory import SystemOfLayers


@dataclass
class FinOmegaSystem:
    """Finite semantic model of a system of layers."""

    system: SystemOfLayers
    categories: dict[str, FinMonoidalCategory]
    objects: dict[tuple[str, str], object]          # (layer, symbol) -> obj
    generators: dict[tuple[str, str], object]       # (layer, gen) -> mor
    functors: dict[tuple[str, str], FinFunctor] = field(default_factory=dict)
    # the pieces of slice items, the functors those pieces share, and the
    # push tables of each side shape
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def category(self, layer: str) -> FinMonoidalCategory:
        if layer not in self.categories:
            raise ModelIncomplete(f"no category bound to layer {layer!r}")
        return self.categories[layer]

    def word_obj(self, layer: str, w: Word):
        cat = self.category(layer)
        return cat.word_obj([self.objects[(layer, s)] for s in w])

    def internal_morphism(self, d: InternalDiagram):
        """The model morphism denoted by an internal diagram."""
        cat = self.category(d.layer)
        sig = self.system.signature(d.layer)
        word = d.dom
        result = cat.ident(self.word_obj(d.layer, word))
        for off, gen in d.slices:
            gdom, gcod = sig[gen]
            if (d.layer, gen) not in self.generators:
                raise ModelIncomplete(
                    f"no morphism bound to generator {gen!r} of {d.layer!r}")
            m = self.generators[(d.layer, gen)]
            left = cat.ident(self.word_obj(d.layer, word[:off]))
            right = cat.ident(self.word_obj(
                d.layer, word[off + len(gdom):]))
            slice_m = cat.tensor_mor(cat.tensor_mor(left, m), right)
            result = cat.then(result, slice_m)
            word = word[:off] + gcod + word[off + len(gdom):]
        return result

    def functor(self, source: str, target: str) -> FinFunctor:
        if (source, target) not in self.functors:
            raise ModelIncomplete(
                f"no model functor for {source!r} -> {target!r}")
        return self.functors[(source, target)]

    def validate(self) -> list[str]:
        """The category and functor laws, then, once they hold, the
        agreement between the model and the presentation."""
        out: list[str] = []
        for cat in self.categories.values():
            out += cat.validate_monoidal()
        for f in self.functors.values():
            out += f.validate()
        if out:  # the bindings are checked by evaluating in the model
            return out
        for name, lay in self.system.layers.items():
            if name not in self.categories:
                out.append(f"layer {name!r} unbound")
                continue
            cat = self.categories[name]
            for sym in lay.gen_objects:
                if (name, sym) not in self.objects:
                    out.append(f"object {sym!r} of {name!r} unbound")
                elif self.objects[(name, sym)] not in cat.objects:
                    out.append(f"object {sym!r} of {name!r} bound outside "
                               f"the category")
            for g in lay.gen_morphisms:
                if (name, g.name) not in self.generators:
                    out.append(f"generator {g.name!r} of {name!r} unbound")
                    continue
                m = self.generators[(name, g.name)]
                try:
                    if cat.dom(m) != self.word_obj(name, g.dom) or \
                            cat.cod(m) != self.word_obj(name, g.cod):
                        out.append(f"generator {g.name!r} of {name!r} bound "
                                   f"to a morphism of the wrong type")
                except KeyError:
                    out.append(f"generator {g.name!r} of {name!r} bound "
                               f"outside the category")
        if out:  # the functor checks evaluate the bindings
            return out
        for (s, t), f in self.system.functors.items():
            if (s, t) not in self.functors:
                out.append(f"functor {s!r}->{t!r} unbound")
                continue
            ff = self.functors[(s, t)]
            for sym in self.system.layer(s).gen_objects:
                want = self.word_obj(t, f.word_image((sym,)))
                if ff.obj_map.get(self.objects[(s, sym)]) != want:
                    out.append(f"model functor {s!r}->{t!r} disagrees with "
                               f"the translation on object {sym!r}")
            for g in self.system.layer(s).gen_morphisms:
                want = self.internal_morphism(f.gen_image(g.name))
                if ff.mor_map.get(self.generators[(s, g.name)]) != want:
                    out.append(f"model functor {s!r}->{t!r} disagrees with "
                               f"the translation on generator {g.name!r}")
        return out


# -- interpretation ----------------------------------------------------------


@dataclass(frozen=True)
class _Piece:
    """hom_M(F-, G-) from ``src`` to ``tgt`` pointed in hom_M(F a, G b),
    for F: src -> M and G: tgt -> M (None: an identity).  A wire or box is
    (id, id), an up piece (pants, cup, refine, permutation) is (F, id), a
    down piece (copants, cap, coarsen, inverse permutation) is (id, G).
    ``_push`` carries a boundary forward through the F of the parts of a
    slice, or backward through their G, each on its own components."""

    f: object
    g: object
    src: FinCategory
    tgt: FinCategory
    a: tuple
    b: tuple
    point: tuple

    @property
    def mid(self) -> FinCategory:
        return self.src if self.f is None else self.f.target


def _up(f: Functor, a) -> _Piece:
    """up(F) pointed at the identity of F a."""
    b = f.on_obj(a)
    return _Piece(f, None, f.source, f.target, a, b, f.target.ident(b))


def _down(f: Functor, b) -> _Piece:
    """down(F) pointed at the identity of F b."""
    a = f.on_obj(b)
    return _Piece(None, f, f.target, f.source, a, b, f.target.ident(a))


def _box(model: FinOmegaSystem, cell: InternalBox) -> _Piece:
    """hom of the box's sheet pointed at the box's morphism."""
    cat1 = product_category([model.category(cell.layer)])
    content = cell.content
    return _Piece(None, None, cat1, cat1,
                  (model.word_obj(cell.layer, content.dom),),
                  (model.word_obj(cell.layer, content.cod),),
                  (model.internal_morphism(content),))


def _shared(model: FinOmegaSystem, key: tuple, build: Callable):
    """What ``build`` makes, built once per model and ``key``: the pieces of
    all pants and copants of a layer, of all its cups and caps, of all
    refinements and coarsenings along a translation, or of all permutations
    of the same sheet categories in the same order share one functor and
    its memo, so a point pushed through a new piece mostly meets images
    already computed, and a side shape, which names each part's functor,
    keys the images of a push."""
    f = model._cache.get(key)
    if f is None:
        f = model._cache[key] = build()
    return f


def _tensor(model: FinOmegaSystem, cell: Pants | Copants):
    cat = model.category(cell.layer)
    f = _shared(model, ("tensor", cell.layer), lambda: Functor(
        "tensor", product_category([cat, cat]), product_category([cat]),
        lambda ab: (cat.tensor_obj(*ab),), lambda mn: (cat.tensor_mor(*mn),)))
    return f, (model.word_obj(cell.layer, cell.alpha),
               model.word_obj(cell.layer, cell.beta))


def _unit(model: FinOmegaSystem, cell: Cup | Cap):
    cat = model.category(cell.layer)
    f = _shared(model, ("unit", cell.layer), lambda: Functor(
        "unit", product_category([]), product_category([cat]),
        lambda _: (cat.unit,), lambda _: (cat.ident(cat.unit),)))
    return f, ()


def _translation(model: FinOmegaSystem, cell: Refine | Coarsen):
    ff = model.functor(cell.source, cell.target)
    f = _shared(model, ("translation", cell.source, cell.target),
                lambda: Functor(
                    ff.name, product_category([model.category(cell.source)]),
                    product_category([model.category(cell.target)]),
                    lambda x: (ff.on_obj(x[0]),),
                    lambda m: (ff.on_mor(m[0]),)))
    return f, (model.word_obj(cell.source, cell.word),)


def _perm(model: FinOmegaSystem, types: tuple, order: tuple,
          down: bool = False) -> _Piece:
    """up(P), or down(P^-1) if ``down``, for the permutation P of the
    sheets ``types`` that moves the sheet at order[k] to place k."""
    cats = [model.category(layer) for layer, _ in types]
    a = tuple(model.word_obj(layer, word) for layer, word in types)
    if down:   # P^-1 moves the sheet at place k back to order[k]
        cats, a = [cats[i] for i in order], tuple(a[i] for i in order)
        order = tuple(sorted(range(len(order)), key=order.__getitem__))
    src = product_category(cats)

    def permute(x):
        return tuple(x[i] for i in order)
    f = _shared(model, ("perm", src, order), lambda: Functor(
        "perm", src, product_category([cats[i] for i in order]), permute,
        permute))
    return _down(f, a) if down else _up(f, a)


# each cell kind's piece; canonical diagrams hold no sheet symmetry, whose
# piece is the permutation of its two sheets read up
_PIECES = {
    InternalBox: _box,
    SheetSym: lambda model, cell: _perm(
        model, ((cell.layer1, cell.alpha), (cell.layer2, cell.beta)),
        (1, 0)),
    Pants: lambda model, cell: _up(*_tensor(model, cell)),
    Copants: lambda model, cell: _down(*_tensor(model, cell)),
    Cup: lambda model, cell: _up(*_unit(model, cell)),
    Cap: lambda model, cell: _down(*_unit(model, cell)),
    Refine: lambda model, cell: _up(*_translation(model, cell)),
    Coarsen: lambda model, cell: _down(*_translation(model, cell)),
}


def _cell_piece(model: FinOmegaSystem, cell: Cell) -> _Piece:
    piece = _PIECES.get(type(cell))
    if piece is None:
        raise ModelIncomplete(f"cell {cell!r} has no interpretation")
    return piece(model, cell)


def _item_piece(model: FinOmegaSystem, item: tuple, down: bool) -> _Piece:
    kind, *payload = item
    if kind == "cell":
        return _cell_piece(model, *payload)
    if kind == "perm":
        return _perm(model, *payload, down)
    (layer, word), = payload   # a wire is the identity box of its sheet
    return _box(model, InternalBox(layer, InternalDiagram(layer, word, word)))


def _parts(model: FinOmegaSystem, items: list, down: bool) -> list[_Piece]:
    """The pieces of a slice's items, a permutation read up or, if
    ``down``, down, each built once per model."""
    parts = []
    for item in items:
        key = item, down and item[0] == "perm"
        piece = model._cache.get(key)
        if piece is None:
            piece = model._cache[key] = _item_piece(model, item, down)
        parts.append(piece)
    return parts


def layered_slices(d: Diagram) -> list[list]:
    """Cut the canonical diagram into sequential slices.

    Each slice is a list of items, ("cell", cell) or ("wire", sheet_type),
    or the single item ("perm", sheet_types, order), which moves the sheet at
    order[k] to place k: one brings a cell's inputs adjacent where they are
    apart, and one realizes the output boundary order.
    """
    c = canonicalize(d).diagram
    by_src = {w.src: wi for wi, w in enumerate(c.wires)}
    by_dst = {w.dst: wi for wi, w in enumerate(c.wires)}
    frontier = [by_src[("dom", k)] for k in range(len(c.dom))]
    slices: list[list] = []

    def wire_type(wi):
        return c.wires[wi].type

    def reorder(wires):
        if wires != frontier:
            slices.append([("perm", tuple(map(wire_type, frontier)),
                            tuple(map(frontier.index, wires)))])
            frontier[:] = wires

    remaining = set(range(len(c.cells)))
    while remaining:
        for ci in sorted(remaining):
            ins = [by_dst[("in", ci, pi)]
                   for pi in range(c.cells[ci].ports[0])]
            if all(wi in frontier for wi in ins):
                break
        else:
            raise AssertionError("acyclic diagram must have a ready cell")
        target = min(map(frontier.index, ins), default=len(frontier))
        reorder(frontier[:target] + ins
                + [wi for wi in frontier[target:] if wi not in ins])
        cell = c.cells[ci]
        items = [("wire", wire_type(w)) for w in frontier]
        items[target:target + len(ins)] = [("cell", cell)]
        slices.append(items)
        outs = [by_src[("out", ci, pi)] for pi in range(cell.ports[1])]
        frontier[target:target + len(ins)] = outs
        remaining.discard(ci)
    want = [by_dst[("cod", k)] for k in range(len(c.cod))]
    assert sorted(frontier) == sorted(want)
    reorder(want)
    return slices


def _meet(b: tuple, a: tuple) -> None:
    """Check that the boundary ``b`` one slice or push ends at is the
    boundary ``a`` the next one starts at."""
    if a != b:
        raise BoundaryMismatch(f"points do not meet: {b!r} vs {a!r}")


def _source(model: FinOmegaSystem, d: Diagram) -> tuple:
    """The category and the object of a diagram's source boundary."""
    entries = d.dom.entries
    return (product_category([model.category(layer) for layer, _ in entries]),
            tuple(model.word_obj(layer, w) for layer, w in entries))


def _target(parts: list[_Piece]) -> tuple:
    """The category and the object a slice ends at."""
    return (product_category([c for p in parts for c in p.tgt.components]),
            sum((p.b for p in parts), ()))


def _push(cat: FinCategory, edge: tuple, slices: list[list[_Piece]],
          down: bool) -> tuple:
    """Push the boundary ``edge`` of ``cat`` through the parts of the
    slices: forward through each part's F, or, if ``down``, backward from
    the last slice through each part's G.  Every slice must meet the
    boundary it is pushed from.  The point starts at the identity of
    ``edge`` and each step makes it F(point) ; p forward or p ; G(point)
    backward, which by functoriality is the forward composite.  Returns the
    shape (per slice, in the order pushed, each part's functor, None for an
    identity, and width), the far boundary and the point."""
    point, shape = cat.ident(edge), []
    for parts in reversed(slices) if down else slices:
        if down:
            _meet(sum((p.b for p in parts), ()), edge)
        else:
            _meet(edge, sum((p.a for p in parts), ()))
        next_point, steps, i = (), [], 0
        for p in parts:
            functor = p.g if down else p.f
            j = i + len((p.tgt if down else p.src).components)
            x = point[i:j]
            if functor is not None:
                x = functor.on_mor(x)
            next_point += (p.mid.then(p.point, x) if down
                           else p.mid.then(x, p.point))
            steps.append((functor, j - i))
            i = j
        point = next_point
        shape.append(tuple(steps))
        edge = sum((p.a if down else p.b for p in parts), ())
    return tuple(shape), edge, point


def _mapping(shape: tuple, method: str) -> Callable:
    """An object (``method`` "on_obj") or a morphism ("on_mor") of a
    boundary category mapped through ``shape``: per slice, each part's
    functor maps its own components and an identity part passes them
    through."""
    steps = []
    for parts in shape:
        calls, i = [], 0
        for functor, width in parts:
            if functor is not None:
                calls.append((getattr(functor, method), i, i + width))
            i += width
        if calls:
            steps.append(calls)

    def apply(x):
        for calls in steps:
            out, last = (), 0
            for call, i, j in calls:
                out += x[last:i] + call(x[i:j])
                last = j
            x = out + x[last:]
        return x
    return apply


def _through(model: FinOmegaSystem, source: FinCategory,
             target: FinCategory, shape: tuple):
    """The functor from ``source`` to ``target`` that maps through
    ``shape``, None when every part is an identity; built once per model,
    so its memo of images serves every side of that shape."""
    if all(functor is None for parts in shape for functor, _ in parts):
        return None
    return _shared(model, ("through", source, shape), lambda: Functor(
        "push", source, target, _mapping(shape, "on_obj"),
        _mapping(shape, "on_mor")))


def _tables(cat: FinCategory, shape: tuple) -> tuple:
    """The images of the objects and of the generators of ``cat`` through
    ``shape``."""
    return (tuple(map(_mapping(shape, "on_obj"), cat.objects)),
            tuple(map(_mapping(shape, "on_mor"), cat.generators())))


def _segments(slices: list[list[_Piece]]) -> list[tuple]:
    """Cut slices read up into segments, each a run of slices with no down
    part followed by a run with no up part; a slice holds one cell or one
    permutation, so it never has both."""
    segments: list[tuple] = [([], [])]
    for parts in slices:
        up = any(p.f is not None for p in parts)
        down = any(p.g is not None for p in parts)
        assert not (up and down), parts
        ups, downs = segments[-1]
        if up and downs:
            segments.append(([parts], []))
        else:
            (downs if down or downs else ups).append(parts)
    return segments


def _segment(model: FinOmegaSystem, cat: FinCategory, edge: tuple,
             ups: list, downs: list) -> tuple:
    """hom_M(F-, G-) for the run ``ups`` then the run ``downs`` from the
    boundary ``edge`` of ``cat``: F pushed forward from it, G backward from
    the far boundary, and the two pushes meeting in M.  Returns the
    profunctor, its target category, the far boundary and the point,
    p_up ; p_down."""
    f_shape, meet, p_up = _push(cat, edge, ups, False)
    mid = _target(ups[-1])[0] if ups else cat
    tgt, far = _target(downs[-1]) if downs else (mid, meet)
    g_shape, a, p_down = _push(tgt, far, downs, True)
    _meet(meet, a)
    prof = reindex(hom_profunctor(mid), _through(model, cat, mid, f_shape),
                   _through(model, tgt, mid, g_shape), cat, tgt)
    return prof, tgt, far, mid.then(p_up, p_down)


def interpret(model: FinOmegaSystem, d: Diagram) -> PointedProfunctor:
    """Structural evaluation of a diagram into a pointed profunctor: the
    segments of its slices read up, each composed onto the last through a
    coend."""
    slices = [_parts(model, items, False) for items in layered_slices(d)]
    cat, a0 = _source(model, d)
    edge, prof, point = a0, None, None
    for ups, downs in _segments(slices):
        seg, cat, far, p = _segment(model, cat, edge, ups, downs)
        if prof is None:
            prof, point = seg, p
        else:
            prof = ComposedProfunctor(prof, seg)
            point = prof.inject(a0, far, edge, point, p)
        edge = far
    return PointedProfunctor(prof, a0, edge, point)


def side_evaluation(model: FinOmegaSystem, d: Diagram) -> list[tuple]:
    """Evaluate a diagram built purely of covariant (or purely
    contravariant) pieces down to a single embedded functor with a point.

    Returns one (direction, object images, generator images, src_obj,
    tgt_obj, point) tuple per available direction, none when the diagram
    mixes directions.  The up evaluation exists when no slice read up has a
    down part, so the side is one segment hom_M(F-, -); the down evaluation
    when no slice read down has an up part, so it is hom_M(-, G-).  The
    functor F maps the source boundary, G the target one; the images of
    its objects and generators fix it.  Each is one ``_push``: up forward
    from the source boundary, down backward from the target boundary.  The
    images depend only on the boundary category and the side's shape, so
    they are computed once per model and shape; the boundaries are checked
    and the point pushed on every call.  No functor is composed and no
    profunctor built.  Only a permutation reads differently down, so the
    down reading has pieces of its own only when the slicing holds one.
    The directions are decided before any boundary is checked, so a mixed
    side raises nothing.
    """
    slices = layered_slices(d)
    up = [_parts(model, items, False) for items in slices]
    down = up
    if any(items[0][0] == "perm" for items in slices):
        down = [_parts(model, items, True) for items in slices]
    cat, a0 = _source(model, d)
    evaluations: list[tuple] = []
    for direction, pieces in (("up", up), ("down", down)):
        reads_down = direction == "down"
        if any((p.f if reads_down else p.g) is not None
               for parts in pieces for p in parts):
            continue
        if reads_down:
            start, b = _target(pieces[-1]) if pieces else (cat, a0)
            shape, a, point = _push(start, b, pieces, True)
            _meet(a0, a)   # a down push must end at the source boundary
        else:
            start, a = cat, a0
            shape, b, point = _push(cat, a0, pieces, False)
        tables = _shared(model, ("push", start, shape),
                         lambda: _tables(start, shape))
        evaluations.append((direction, *tables, a, b, point))
    return evaluations


# -- rule verification -------------------------------------------------------


def verify_rule_semantics(rule: RewriteRule, model: FinOmegaSystem,
                          cap: int = 1_000_000) -> bool:
    """Whether the rule holds in the model, decided by its direction.

    An invertible rule (E, F, M) holds when its two sides have a common
    side evaluation.  This is the whole check, by Yoneda, Nat(up F, up F')
    = Nat(F', F): two sides that evaluate up alike are both hom_M(F-, -)
    with the same F on objects and generators, the same boundaries and the
    same point, so the identity is a pointed natural isomorphism between
    them; down is dual, and a side holding a permutation P is
    pointed-isomorphic to its down reading through up(P) = down(P^-1).  An
    E side is one box, so its evaluation is the morphism its content
    denotes.  Sides with no common evaluation fail.  A one-directional rule
    (A) holds when a pointed 2-cell takes the interpreted left side to the
    interpreted right side, searched element by element; ``cap`` bounds
    that search only.
    """
    if rule.name.startswith("A3c["):
        raise ModelIncomplete(
            "window-collapse rules are excluded from semantic verification")
    if rule.bidirectional:
        ev_l = side_evaluation(model, rule.lhs)
        ev_r = side_evaluation(model, rule.rhs)
        return any(l == r for l in ev_l for r in ev_r)
    return pf.pointed_two_cell(interpret(model, rule.lhs),
                               interpret(model, rule.rhs),
                               cap=cap) is not None
