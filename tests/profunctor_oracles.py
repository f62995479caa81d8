"""Independent checks of the profunctor kernel, for the tests only: the
bimodule laws of a profunctor, the adjunction triangles of up(F) and
down(F), pointed composition, and the small constructions they need, among
them the embeddings up(F) and down(F) themselves."""

from __future__ import annotations

from typing import Callable

from layerprop import profunctor as pf
from layerprop.errors import BoundaryMismatch


def _same(x):
    return x


def identity_functor(c: pf.FinCategory) -> pf.Functor:
    return pf.Functor(f"id_{c.name}", c, c, _same, _same)


def product_functor(fs: list[pf.Functor]) -> pf.Functor:
    def componentwise(maps: list) -> Callable:
        return lambda x: tuple(m(xi) for m, xi in zip(maps, x))
    return pf.Functor("(" + "x".join(f.name for f in fs) + ")",
                      pf.product_category([f.source for f in fs]),
                      pf.product_category([f.target for f in fs]),
                      componentwise([f.on_obj for f in fs]),
                      componentwise([f.on_mor for f in fs]))


def embed(f: pf.Functor, direction: str) -> pf.Profunctor:
    """Covariant ("up") or contravariant ("down") embedding of a functor
    F: C -> D, hom_D(F-, -) or hom_D(-, F-)."""
    hom = pf.hom_profunctor(f.target)
    if direction == "up":
        return pf.reindex(hom, f, None, f.source, f.target)
    if direction == "down":
        return pf.reindex(hom, None, f, f.target, f.source)
    raise ValueError(f"unknown embedding direction {direction!r}")


def validate_profunctor(p: pf.Profunctor) -> list[str]:
    """Exhaustive bimodule law check: functorial actions that commute."""
    out: list[str] = []
    src, tgt = p.source, p.target
    for (a, b), elems in p._elements.items():
        for x in elems:
            if p.lact(src.ident(a), x, a, b) != x:
                out.append(f"left unit fails at {(a, b, x)!r}")
            if p.ract(x, tgt.ident(b), a, b) != x:
                out.append(f"right unit fails at {(a, b, x)!r}")
            for g in src.morphisms:
                if src.cod(g) != a:
                    continue
                gx = p.lact(g, x, a, b)
                if gx not in p.elements(src.dom(g), b):
                    out.append(f"left action leaves the table at "
                               f"{(g, x)!r}")
                for g2 in src.morphisms:
                    if src.cod(g2) != src.dom(g):
                        continue
                    if p.lact(src.then(g2, g), x, a, b) != \
                            p.lact(g2, gx, src.dom(g), b):
                        out.append(f"left functoriality fails at "
                                   f"{(g2, g, x)!r}")
            for h in tgt.morphisms:
                if tgt.dom(h) != b:
                    continue
                xh = p.ract(x, h, a, b)
                if xh not in p.elements(a, tgt.cod(h)):
                    out.append(f"right action leaves the table at "
                               f"{(x, h)!r}")
                for h2 in tgt.morphisms:
                    if tgt.dom(h2) != tgt.cod(h):
                        continue
                    if p.ract(x, tgt.then(h, h2), a, b) != \
                            p.ract(xh, h2, a, tgt.cod(h)):
                        out.append(f"right functoriality fails at "
                                   f"{(x, h, h2)!r}")
            for g in src.morphisms:
                if src.cod(g) != a:
                    continue
                for h in tgt.morphisms:
                    if tgt.dom(h) != b:
                        continue
                    left = p.ract(p.lact(g, x, a, b), h, src.dom(g), b)
                    right = p.lact(g, p.ract(x, h, a, b), a, tgt.cod(h))
                    if left != right:
                        out.append(f"actions do not commute at "
                                   f"{(g, x, h)!r}")
    return out


def pointed_hom(c: pf.FinCategory, f) -> pf.PointedProfunctor:
    prof = pf.hom_profunctor(c)
    return pf.PointedProfunctor(prof, c.dom(f), c.cod(f), f)


def point_compose(pp: pf.PointedProfunctor,
                  qq: pf.PointedProfunctor) -> pf.PointedProfunctor:
    if pp.tgt_obj != qq.src_obj:
        raise BoundaryMismatch(
            f"points do not meet: {pp.tgt_obj!r} vs {qq.src_obj!r}")
    comp = pf.ComposedProfunctor(pp.prof, qq.prof)
    point = comp.inject(pp.src_obj, qq.tgt_obj, pp.tgt_obj, pp.point,
                        qq.point)
    return pf.PointedProfunctor(comp, pp.src_obj, qq.tgt_obj, point)


def check_adjunction_triangles(f: pf.Functor) -> list[str]:
    """Element-wise triangle identities for up(F) left adjoint to down(F)."""
    out: list[str] = []
    up = embed(f, "up")
    down = embed(f, "down")
    c, d = f.source, f.target
    ud = pf.ComposedProfunctor(up, down)

    def unit(h, a, a2):
        # C(a, a2) -> (up;down)(a, a2)
        return ud.inject(a, a2, f.on_obj(a), d.ident(f.on_obj(a)),
                         f.on_mor(h))

    for a in c.objects:
        _, x0, y0 = unit(c.ident(a), a, a)  # a representative of the unit
        for b in d.objects:
            # triangle for up, p in D(Fa, b): [x0, [y0, p]] evaluates the
            # counit on [y0, p], then the right unit isomorphism
            for p in up.elements(a, b):
                if d.then(x0, d.then(y0, p)) != p:
                    out.append(f"up-triangle fails at {(a, b, p)!r}")
            # triangle for down, q in D(b, Fa)
            for q in down.elements(b, a):
                if d.then(d.then(q, x0), y0) != q:
                    out.append(f"down-triangle fails at {(b, a, q)!r}")
    return out


def check_pointed_composition(c: pf.FinCategory) -> list[str]:
    """Composing pointed homs realizes composition: [f, g] evaluates to
    the class of the composite."""
    out: list[str] = []
    hom = pf.hom_profunctor(c)
    comp = pf.ComposedProfunctor(hom, hom)
    for f in c.morphisms:
        for g in c.morphisms:
            if c.cod(f) != c.dom(g):
                continue
            a, z = c.dom(f), c.cod(g)
            fg = c.then(f, g)
            cls_pair = comp.inject(a, z, c.cod(f), f, g)
            cls_comp = comp.inject(a, z, a, c.ident(a), fg)
            if cls_pair != cls_comp:
                out.append(f"pair class of {(f, g)!r} differs from its "
                           f"composite's class")
    return out
