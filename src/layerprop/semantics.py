"""Evaluation of diagrams over finite models.

A model binds each layer to a finite strict monoidal category, each object
symbol to an object, each morphism generator to a morphism, and each
translation functor to a finite monoidal functor.  Interpretation slices
the canonical diagram into sequential layers of parallel cells, or a
permutation of the sheets where the wiring crosses.  Each cell has one
piece, a pointed hom_M(F-, G-) with F the up and G the down part; only a
permutation P reads two ways, up(P) or down(P^-1).  So every slice is
representable, and the fold reindexes by co-Yoneda and takes a coend
quotient only where a down piece meets an up piece.

Rule verification follows the rule's direction.  An invertible rule (E, F
or M) holds when its sides have a common side evaluation: a side built
purely of up pieces folds to hom_M(F-, -) with no coend, and its up
evaluation is F on the objects and generators of the source boundary, with
the boundaries and the point.  It is computed by pushing those objects and
generators forward through the cells' pieces slice by slice, one column per
boundary component, and carrying the point as F(point) ; p; a down
evaluation pushes the target boundary backward through each G, carrying
p ; G(point), which by functoriality is the forward composite.  The pushed
objects and generators depend only on the side's shape, so they are
computed once per model and shape.  No composed functor or profunctor is
built for a side evaluation.  By Yoneda, Nat(up F, up F') = Nat(F', F)
(Loregian, *(Co)end Calculus*, arXiv:1501.02503, section 2), so two sides
that evaluate up alike carry the identity as a pointed natural
isomorphism, and no search is needed; down
evaluations, hom_M(-, G-), are dual, and a side holding a permutation is
pointed-isomorphic to its down reading through up(P) = down(P^-1).  An E
side is a single box, so its evaluation carries the morphism its equation
side denotes.  A one-directional rule (A) holds when a point-preserving
natural transformation takes the interpreted left side to the right one;
that search (``profunctor.pointed_two_cell``) runs element by element and
is the only one ``cap`` bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from . import profunctor as pf
from .diagram import (Cap, Cell, Coarsen, Copants, Cup, Diagram,
                      InternalBox, Pants, Refine, SheetSym, canonicalize)
from .errors import BoundaryMismatch, ModelIncomplete
from .internal import InternalDiagram, Word
from .profunctor import (ComposedProfunctor, FinCategory, FinFunctor,
                         FinMonoidalCategory, Functor, PointedProfunctor,
                         Profunctor, hom_profunctor, product_category,
                         reindex)
from .rewrite import RewriteRule
from .theory import OmegaType, SystemOfLayers


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


def _compose(f, g):
    """f then g; None stands for an identity."""
    if f is None or g is None:
        return g if f is None else f
    return Functor(f"{f.name};{g.name}", f.source, g.target,
                   lambda a: g.on_obj(f.on_obj(a)),
                   lambda m: g.on_mor(f.on_mor(m)))


def _flat_product(fs: list, widths: list[int], source: FinCategory,
                  target: FinCategory):
    """Product of functors (None: identity) with the boundary components
    concatenated instead of nested; None when every factor is one."""
    if all(f is None for f in fs):
        return None
    ends = list(itertools.accumulate(widths))
    spans = [(f, end - k, end) for f, k, end in zip(fs, widths, ends)
             if f is not None]

    def split_apply(method: str) -> Callable:
        calls = [(getattr(f, method), i, j) for f, i, j in spans]

        def apply(x):
            out, last = (), 0
            for call, i, j in calls:   # identity factors pass through
                out += x[last:i] + call(x[i:j])
                last = j
            return out + x[last:]
        return apply

    return Functor("x".join(f.name for f, _, _ in spans), source, target,
                   split_apply("on_obj"), split_apply("on_mor"))


@dataclass(frozen=True)
class _Piece:
    """hom_M(F-, G-) from ``src`` to ``tgt`` pointed in hom_M(F a, G b),
    for F: src -> M and G: tgt -> M (None: an identity).  A wire or box is
    (id, id), an up piece (pants, cup, refine, permutation) is (F, id), a
    down piece (copants, cap, coarsen, inverse permutation) is (id, G)."""

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


def _shared(model: FinOmegaSystem, key: tuple, build: Callable) -> Functor:
    """The functor ``build`` makes, built once per model and ``key``: the
    pieces of all pants and copants of a layer, of all its cups and caps, of
    all refinements and coarsenings along a translation, or of all
    permutations of the same sheet categories in the same order share one
    functor and its memo, so a point pushed through a new piece mostly meets
    images already computed, and ``_push`` keys its tables by the functor."""
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


def _slice_piece(model: FinOmegaSystem, items: list, down: bool) -> _Piece:
    """The flat product of a slice's pieces, a permutation read up or, if
    ``down``, down."""
    parts = _parts(model, items, down)
    if len(parts) == 1:
        return parts[0]

    def flat(cats):
        return product_category([c for cat in cats for c in cat.components])

    src, tgt = flat(p.src for p in parts), flat(p.tgt for p in parts)
    mid = flat(p.mid for p in parts)
    return _Piece(
        _flat_product([p.f for p in parts],
                      [len(p.src.components) for p in parts], src, mid),
        _flat_product([p.g for p in parts],
                      [len(p.tgt.components) for p in parts], tgt, mid),
        src, tgt, sum((p.a for p in parts), ()),
        sum((p.b for p in parts), ()), sum((p.point for p in parts), ()))


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
    """Check that the boundary ``b`` one slice ends at is the boundary
    ``a`` the next one starts at."""
    if a != b:
        raise BoundaryMismatch(f"points do not meet: {b!r} vs {a!r}")


def _fold(model: FinOmegaSystem, dom: OmegaType, pieces: list[_Piece]
          ) -> tuple[Profunctor, _Piece]:
    """Compose the slices' pieces left to right, from the boundary ``dom``,
    into P(F-, G-), returned as P and the accumulated F, G, boundaries and
    point.  By co-Yoneda a step only reindexes, up(F) ; Q = Q(F-, -) while
    the chain so far is hom(F-, -) and P ; down(G) = P(-, G-), except where
    a down piece meets an up piece: there it takes a coend."""
    src = product_category([model.category(layer) for layer, _ in
                            dom.entries])
    a0 = tuple(model.word_obj(layer, w) for layer, w in dom.entries)
    prof: Profunctor = hom_profunctor(src)
    f = g = None
    tgt, b, point = src, a0, src.ident(a0)
    lo = hi = a0            # F a0 and G b, the point's objects in P
    for s in pieces:
        _meet(b, s.a)
        if s.f is None:
            point = prof.ract(point, s.point if g is None
                              else g.on_mor(s.point), lo, hi)
            g = _compose(s.g, g)
        elif g is None and not isinstance(prof, ComposedProfunctor):
            point = s.mid.then(s.f.on_mor(point), s.point)
            lo = s.f.on_obj(lo)
            f, g, prof = _compose(f, s.f), s.g, hom_profunctor(s.mid)
        else:
            comp = ComposedProfunctor(
                reindex(prof, None, g, prof.source, s.src),
                reindex(hom_profunctor(s.mid), s.f, None, s.src, s.mid))
            g, prof = s.g, comp
            point = comp.inject(lo, _image(g, s.b), s.a, point, s.point)
        tgt, b = s.tgt, s.b
        hi = _image(g, b)
    return prof, _Piece(f, g, src, tgt, a0, b, point)


def _image(f, a):
    """F a; None stands for an identity."""
    return a if f is None else f.on_obj(a)


def interpret(model: FinOmegaSystem, d: Diagram) -> PointedProfunctor:
    """Structural evaluation of a diagram into a pointed profunctor: the
    fold of its slices read up."""
    pieces = [_slice_piece(model, items, False)
              for items in layered_slices(d)]
    prof, s = _fold(model, d.dom, pieces)
    return PointedProfunctor(reindex(prof, s.f, s.g, s.src, s.tgt), s.a, s.b,
                             s.point)


def _map_columns(method: Callable, cols: list, n: int):
    """The columns of ``method`` on each of the n rows the columns ``cols``
    hold; a part of width zero reads n empty rows."""
    return zip(*map(method, zip(*cols) if cols else itertools.repeat((), n)))


def _rows(cols: list, n: int) -> tuple:
    """The n rows the columns ``cols`` hold."""
    return tuple(zip(*cols)) if cols else ((),) * n


def _push(model: FinOmegaSystem, dom: OmegaType, slices: list[list[_Piece]],
          down: bool) -> tuple:
    """Push a boundary through the parts of the slices, up forward from
    the dom boundary through each part's F, or down backward from the cod
    boundary through each part's G.  The boundary category's objects and
    generators go through ``_tables``, computed once per model and side
    shape: the words of a side change only its boundaries and its point.
    What is pushed here, on every call, is the point, F(point) ; p up and
    p ; G(point) down, which by functoriality is the forward fold's point,
    with every check that one slice's boundary meets the next one's.
    Returns the images, the two boundaries and the point."""
    a0 = tuple(model.word_obj(layer, w) for layer, w in dom.entries)
    cat = product_category([model.category(layer) for layer, _ in
                            dom.entries])
    edge = a0               # the boundary the next slice must meet
    if down and slices:
        cat = product_category([c for p in slices[-1]
                                for c in p.tgt.components])
        edge = sum((p.b for p in slices[-1]), ())
    start, point, shape = edge, cat.ident(edge), []
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
    a, b = (edge, start) if down else (start, edge)
    _meet(a0, a)            # a down push must end at the source boundary
    return (*_tables(model, cat, tuple(shape)), a, b, point)


def _tables(model: FinOmegaSystem, cat: FinCategory, shape: tuple
            ) -> tuple:
    """The images of the objects and of the generators of the boundary
    category ``cat`` through ``shape``: per slice, in the order pushed,
    each part's functor (None: an identity) and width.  They are held as
    columns, one per component: a part with a functor maps its own
    columns, row by row, and a wire or box passes them through.  The
    tables depend on nothing else, so they are computed once per model
    and shape."""
    key = "push", cat, shape
    tables = model._cache.get(key)
    if tables is None:
        objs, gens = cat.objects, cat.generators()
        n_objs, n_gens = len(objs), len(gens)
        obj_cols, gen_cols = list(zip(*objs)), list(zip(*gens))
        for steps in shape:
            next_objs, next_gens, i = [], [], 0
            for functor, width in steps:
                j = i + width
                if functor is None:
                    next_objs += obj_cols[i:j]
                    next_gens += gen_cols[i:j]
                else:
                    next_objs += _map_columns(functor.on_obj, obj_cols[i:j],
                                              n_objs)
                    next_gens += _map_columns(functor.on_mor, gen_cols[i:j],
                                              n_gens)
                i = j
            obj_cols, gen_cols = next_objs, next_gens
        tables = model._cache[key] = (_rows(obj_cols, n_objs),
                                      _rows(gen_cols, n_gens))
    return tables


def side_evaluation(model: FinOmegaSystem, d: Diagram) -> list[tuple]:
    """Evaluate a diagram built purely of covariant (or purely
    contravariant) pieces down to a single embedded functor with a point.

    Returns one (direction, object images, generator images, src_obj,
    tgt_obj, point) tuple per available direction, none when the diagram
    mixes directions.  The up evaluation exists when no slice read up has a
    down part, so the side folds to hom_M(F-, -) with no coend; the down
    evaluation when no slice read down has an up part, so it folds to
    hom_M(-, G-).  The functor F maps the source boundary, G the target
    one; the images of its objects and generators fix it.  Both are
    computed by pushing the boundary through the cached pieces of each
    slice, column by column: up runs forward from the source boundary,
    each point step F(point) ; p, and down runs backward from the target
    boundary, each step p ; G(point).  The images depend only on the
    side's shape, the boundary category and each part's functor and width,
    so they are computed once per model and shape; the boundaries are
    checked and the point pushed on every call.  No composed functor, flat
    product or profunctor is built.  Only a permutation reads differently
    down, so the down reading has pieces of its own only when the slicing
    holds one.  The directions are decided before any boundary is checked, so a
    mixed side raises nothing.
    """
    slices = layered_slices(d)
    up = [_parts(model, items, False) for items in slices]
    down = up
    if any(items[0][0] == "perm" for items in slices):
        down = [_parts(model, items, True) for items in slices]
    evaluations: list[tuple] = []
    for direction, pieces in (("up", up), ("down", down)):
        reads_down = direction == "down"
        if any((p.f if reads_down else p.g) is not None
               for parts in pieces for p in parts):
            continue
        evaluations.append((direction,
                            *_push(model, d.dom, pieces, reads_down)))
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
