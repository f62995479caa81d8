"""Evaluation of diagrams over finite models.

A model binds each layer to a finite strict monoidal category, each object
symbol to an object, each morphism generator to a morphism, and each
translation functor to a finite monoidal functor.  Interpretation slices
the canonical diagram into sequential layers of parallel cells (inserting
sheet swaps where the wiring crosses) and folds the slices with coend
composition.

Rule verification searches for a point-preserving natural transformation
between the two interpreted sides; for the invertible families it must be
an isomorphism, and for sides built purely from covariant (or purely
contravariant) embeddings the two sides are additionally evaluated down to
a single embedded functor, whose tables and distinguished points must agree
on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import profunctor as pf
from .diagram import (Cap, Cell, Coarsen, Copants, Cup, Diagram,
                      InternalBox, Pants, Refine, SheetSym, canonicalize)
from .errors import ModelIncomplete
from .internal import InternalDiagram, Word
from .profunctor import (FinFunctor, FinMonoidalCategory, PointedProfunctor,
                         compose_functors, embed, hom_profunctor,
                         identity_functor, point_compose, product_category,
                         product_prof)
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
        """Structural agreement between the model and the presentation
        (categories and functors themselves are validated separately)."""
        out: list[str] = []
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


def _cell_functor(model: FinOmegaSystem, cell: Cell
                  ) -> tuple[FinFunctor | None, FinFunctor | None,
                             PointedProfunctor]:
    """(up functor, down functor, pointed interpretation) of one cell."""
    key = ("cell", cell)
    if key in model._cache:
        return model._cache[key]
    out = _cell_functor_uncached(model, cell)
    model._cache[key] = out
    return out


def _cell_functor_uncached(model: FinOmegaSystem, cell: Cell
                           ) -> tuple[FinFunctor | None, FinFunctor | None,
                                      PointedProfunctor]:
    sysm = model

    def prod1(layer):
        return product_category([sysm.category(layer)])

    if isinstance(cell, InternalBox):
        cat1 = prod1(cell.layer)
        ident = identity_functor(cat1)
        m = sysm.internal_morphism(cell.content)
        prof = hom_profunctor(cat1)
        a = (sysm.word_obj(cell.layer, cell.content.dom),)
        b = (sysm.word_obj(cell.layer, cell.content.cod),)
        return ident, ident, PointedProfunctor(prof, a, b, (m,))
    if isinstance(cell, (Pants, Copants)):
        cat = sysm.category(cell.layer)
        src = product_category([cat, cat])
        tgt = product_category([cat])
        f = FinFunctor(
            f"tensor_{cat.name}", src, tgt,
            {(a, b): (cat.tensor_obj(a, b),) for (a, b) in src.objects},
            {(m, n): (cat.tensor_mor(m, n),) for (m, n) in src.morphisms})
        ab = sysm.word_obj(cell.layer, cell.alpha + cell.beta)
        point = (cat.ident(ab),)
        if isinstance(cell, Pants):
            a = (sysm.word_obj(cell.layer, cell.alpha),
                 sysm.word_obj(cell.layer, cell.beta))
            return f, None, PointedProfunctor(embed(f, "up"), a, (ab,),
                                              point)
        b = (sysm.word_obj(cell.layer, cell.alpha),
             sysm.word_obj(cell.layer, cell.beta))
        return None, f, PointedProfunctor(embed(f, "down"), (ab,), b, point)
    if isinstance(cell, (Cup, Cap)):
        cat = sysm.category(cell.layer)
        src = product_category([])
        tgt = product_category([cat])
        f = FinFunctor(f"unit_{cat.name}", src, tgt,
                       {(): (cat.unit,)},
                       {(): (cat.ident(cat.unit),)})
        point = (cat.ident(cat.unit),)
        if isinstance(cell, Cup):
            return f, None, PointedProfunctor(embed(f, "up"), (),
                                              (cat.unit,), point)
        return None, f, PointedProfunctor(embed(f, "down"), (cat.unit,), (),
                                          point)
    if isinstance(cell, (Refine, Coarsen)):
        ff = model.functor(cell.source, cell.target)
        src = product_category([model.category(cell.source)])
        tgt = product_category([model.category(cell.target)])
        f = FinFunctor(f"({ff.name})", src, tgt,
                       {(a,): (ff.on_obj(a),) for a in ff.source.objects},
                       {(m,): (ff.on_mor(m),) for m in ff.source.morphisms})
        a = sysm.word_obj(cell.source, cell.word)
        fa = sysm.word_obj(cell.target, cell.image)
        point = (model.category(cell.target).ident(fa),)
        if isinstance(cell, Refine):
            return f, None, PointedProfunctor(embed(f, "up"), (a,), (fa,),
                                              point)
        return None, f, PointedProfunctor(embed(f, "down"), (fa,), (a,),
                                          point)
    if isinstance(cell, SheetSym):
        c1 = sysm.category(cell.layer1)
        c2 = sysm.category(cell.layer2)
        src = product_category([c1, c2])
        tgt = product_category([c2, c1])
        f = FinFunctor(f"swap_{c1.name}_{c2.name}", src, tgt,
                       {(a, b): (b, a) for (a, b) in src.objects},
                       {(m, n): (n, m) for (m, n) in src.morphisms})
        finv = FinFunctor(f"swap_{c2.name}_{c1.name}", tgt, src,
                          {(b, a): (a, b) for (b, a) in tgt.objects},
                          {(n, m): (m, n) for (n, m) in tgt.morphisms})
        a = (sysm.word_obj(cell.layer1, cell.alpha),
             sysm.word_obj(cell.layer2, cell.beta))
        b = (a[1], a[0])
        point = (c2.ident(a[1]), c1.ident(a[0]))
        return f, finv, PointedProfunctor(embed(f, "up"), a, b, point)
    raise ModelIncomplete(f"cell {cell!r} has no interpretation")


def _wire_pointed(model: FinOmegaSystem, sheet_type) -> PointedProfunctor:
    key = ("wire", sheet_type)
    if key in model._cache:
        return model._cache[key]
    layer, word = sheet_type
    cat1 = product_category([model.category(layer)])
    obj = (model.word_obj(layer, word),)
    out = PointedProfunctor(hom_profunctor(cat1), obj, obj, cat1.ident(obj))
    model._cache[key] = out
    return out


def layered_slices(d: Diagram) -> list[list]:
    """Cut the canonical diagram into sequential slices.

    Each slice is a list of items, either ("cell", cell) or
    ("wire", sheet_type); synthetic sheet symmetries are inserted to bring
    a cell's inputs adjacent and to realize the output boundary order.
    """
    c = canonicalize(d).diagram
    by_src = {w.src: wi for wi, w in enumerate(c.wires)}
    by_dst = {w.dst: wi for wi, w in enumerate(c.wires)}
    frontier = [by_src[("dom", k)] for k in range(len(c.dom))]
    slices: list[list] = []

    def wire_type(wi):
        return c.wires[wi].type

    def emit_swap(i):
        t1, t2 = wire_type(frontier[i]), wire_type(frontier[i + 1])
        items = [("wire", wire_type(w)) for w in frontier[:i]]
        items.append(("cell", SheetSym(t1[0], t1[1], t2[0], t2[1])))
        items.extend(("wire", wire_type(w)) for w in frontier[i + 2:])
        slices.append(items)
        frontier[i], frontier[i + 1] = frontier[i + 1], frontier[i]

    remaining = set(range(len(c.cells)))
    while remaining:
        ready = None
        for ci in sorted(remaining):
            ins = [by_dst[("in", ci, pi)]
                   for pi in range(len(c.cells[ci].in_ports()))]
            if all(wi in frontier for wi in ins):
                ready = (ci, ins)
                break
        assert ready is not None, "acyclic diagram must have a ready cell"
        ci, ins = ready
        if ins:
            target = min(frontier.index(wi) for wi in ins)
            for k, wi in enumerate(ins):
                pos = frontier.index(wi)
                while pos > target + k:
                    emit_swap(pos - 1)
                    pos -= 1
                while pos < target + k:
                    emit_swap(pos)
                    pos += 1
        else:
            target = len(frontier)
        cell = c.cells[ci]
        items = [("wire", wire_type(w)) for w in frontier[:target]]
        items.append(("cell", cell))
        items.extend(("wire", wire_type(w))
                     for w in frontier[target + len(ins):])
        slices.append(items)
        outs = [by_src[("out", ci, pi)]
                for pi in range(len(cell.out_ports()))]
        frontier[target:target + len(ins)] = outs
        remaining.discard(ci)
    # realize the output boundary ordering
    want = [by_dst[("cod", k)] for k in range(len(c.cod))]
    for k, wi in enumerate(want):
        pos = frontier.index(wi)
        while pos > k:
            emit_swap(pos - 1)
            pos -= 1
    assert frontier == want
    return slices


def interpret(model: FinOmegaSystem, d: Diagram) -> PointedProfunctor:
    """Structural evaluation of a diagram into a pointed profunctor."""
    c = canonicalize(d).diagram
    slices = layered_slices(c)
    if not slices:
        return _boundary_pointed(model, c.dom.entries)
    out = _slice_pointed(model, slices[0])
    for sl in slices[1:]:
        out = point_compose(out, _slice_pointed(model, sl))
    return out


def _boundary_pointed(model: FinOmegaSystem, entries) -> PointedProfunctor:
    parts = [_wire_pointed(model, t) for t in entries]
    if not parts:
        cat = product_category([])
        return PointedProfunctor(hom_profunctor(cat), (), (), ())
    out = parts[0]
    for p in parts[1:]:
        out = product_prof(out, p)
    return out


def _slice_pointed(model: FinOmegaSystem, items) -> PointedProfunctor:
    parts = []
    for kind, payload in items:
        if kind == "wire":
            parts.append(_wire_pointed(model, payload))
        else:
            parts.append(_cell_functor(model, payload)[2])
    if not parts:
        cat = product_category([])
        return PointedProfunctor(hom_profunctor(cat), (), (), ())
    out = parts[0]
    for p in parts[1:]:
        out = product_prof(out, p)
    return out


# -- canonical evaluation of embedding chains --------------------------------


def _flat_product_functor(fs: list[FinFunctor]) -> FinFunctor:
    """Product of functors between product categories, with the boundary
    components concatenated instead of nested."""
    src_atoms = [c for f in fs for c in f.source.components]
    tgt_atoms = [c for f in fs for c in f.target.components]
    src = product_category(src_atoms)
    tgt = product_category(tgt_atoms)
    in_widths = [len(f.source.components) for f in fs]

    def split_apply(table_getter, flat):
        parts = []
        i = 0
        for f, k in zip(fs, in_widths):
            parts.extend(table_getter(f)(flat[i:i + k]))
            i += k
        return tuple(parts)

    obj_map = {a: split_apply(lambda f: f.on_obj, a) for a in src.objects}
    mor_map = {m: split_apply(lambda f: f.on_mor, m) for m in src.morphisms}
    name = "(" + "|".join(f.name for f in fs) + ")"
    return FinFunctor(name, src, tgt, obj_map, mor_map)


def side_evaluation(model: FinOmegaSystem, d: Diagram) -> list[tuple]:
    """Evaluate a diagram built purely of covariant (or purely
    contravariant) pieces down to a single embedded functor with a point.

    Returns one (direction, obj_map, mor_map, src_point_obj, tgt_point_obj,
    point) tuple per available direction; empty when the diagram mixes
    directions.  This mechanizes the coend evaluations that justify the
    sliding rules: a composite of embeddings is the embedding of the
    (strictly equal) composite functor, and the induced point is the
    evaluated pair class.
    """
    c = canonicalize(d).diagram
    slices = layered_slices(c)
    per_slice = []
    for items in slices:
        ups, downs, points = [], [], []
        for kind, payload in items:
            if kind == "wire":
                layer, word = payload
                cat1 = product_category([model.category(layer)])
                ident = identity_functor(cat1)
                ups.append(ident)
                downs.append(ident)
                points.append(cat1.ident((model.word_obj(layer, word),)))
            else:
                fu, fd, pp = _cell_functor(model, payload)
                ups.append(fu)
                downs.append(fd)
                points.append(pp.point)
        per_slice.append((ups, downs, points))

    def flatten_point(points):
        return tuple(x for p in points for x in p)

    src_cat = _boundary_cat(model, c.dom.entries)
    src_obj = tuple(model.word_obj(layer, w) for layer, w in c.dom.entries)
    tgt_obj = tuple(model.word_obj(layer, w) for layer, w in c.cod.entries)
    out: list[tuple] = []
    if all(all(f is not None for f in ups) for ups, _, _ in per_slice):
        total = identity_functor(src_cat)
        point = src_cat.ident(src_obj)
        for ups, _, points in per_slice:
            step = _flat_product_functor(ups) if ups else \
                identity_functor(product_category([]))
            q = flatten_point(points)
            # comp(up(G), up(F)) evaluates to up(G;F); the point follows
            point = step.target.then(step.on_mor(point), q)
            total = compose_functors(total, step)
        out.append(("up", dict(total.obj_map), dict(total.mor_map), src_obj,
                    tgt_obj, point))
    if all(all(f is not None for f in downs) for _, downs, _ in per_slice):
        # contravariant chain: every slice is a functor from the next
        # boundary back; the point accumulates in the fixed source boundary
        total = identity_functor(src_cat)
        point = src_cat.ident(src_obj)
        for _, downs, points in per_slice:
            step = _flat_product_functor(downs) if downs else \
                identity_functor(product_category([]))
            q = flatten_point(points)
            point = src_cat.then(point, total.on_mor(q))
            total = compose_functors(step, total)
        out.append(("down", dict(total.obj_map), dict(total.mor_map),
                    src_obj, tgt_obj, point))
    return out


def _boundary_cat(model: FinOmegaSystem, entries):
    return product_category([model.category(layer) for layer, _ in entries])


# -- rule verification -------------------------------------------------------


def verify_rule_semantics(rule: RewriteRule, model: FinOmegaSystem,
                          cap: int = 1_000_000) -> bool:
    """A pointed 2-cell exists from the interpreted left side to the
    interpreted right side (an isomorphism for invertible rules), and for
    sliding/coherence rules the canonical evaluation witnesses agree."""
    if rule.name.startswith("A3c["):
        raise ModelIncomplete(
            "window-collapse rules are excluded from semantic verification")
    if rule.family == "E":
        # an equation is modeled soundly iff both sides denote one morphism
        layer, eq_name = rule.params
        eq = {e.name: e for e in model.system.layer(layer).equations}[eq_name]
        return (model.internal_morphism(eq.lhs)
                == model.internal_morphism(eq.rhs))
    left = interpret(model, rule.lhs)
    right = interpret(model, rule.rhs)
    two_cell = pf.pointed_two_cell(left, right, iso=rule.bidirectional,
                                   cap=cap)
    if two_cell is None:
        return False
    if rule.family in ("F", "M"):
        ev_l = side_evaluation(model, rule.lhs)
        ev_r = side_evaluation(model, rule.rhs)
        if not ev_l or not ev_r:
            return False
        if not any(l == r for l in ev_l for r in ev_r):
            return False
    return True
