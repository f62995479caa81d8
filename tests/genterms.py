"""Random well-formed terms and meaning-preserving rewrites for tests."""

from __future__ import annotations

import random

from layerprop import diagram as dg
from layerprop import terms
from layerprop.terms import Cell, Empty, Fuse, Gen, Id, Par, Seq, Term
from layerprop.theory import EMPTY_TYPE, OmegaType, SystemOfLayers, Sort


def id_term_of_type(t: OmegaType) -> Term:
    if not t.entries:
        return Empty()
    out: Term = Id(*t.entries[0])
    for layer, word in t.entries[1:]:
        out = Par(out, Id(layer, word))
    return out


def primitive_pool(sys_: SystemOfLayers) -> list[Term]:
    prims: list[Term] = [Empty()]
    for name in sorted(sys_.layers):
        lay = sys_.layer(name)
        words = [(), *((s,) for s in lay.gen_objects[:3])]
        if len(lay.gen_objects) >= 2:
            words.append((lay.gen_objects[0], lay.gen_objects[1]))
        for w in words:
            prims.append(Id(name, w))
        for g in lay.gen_morphisms:
            prims.append(Gen(name, g.name))
        prims.append(Cell(dg.Cup, (name,)))
        prims.append(Cell(dg.Cap, (name,)))
        for a in words[:3]:
            for b in words[:3]:
                prims.append(Cell(dg.Pants, (name, a, b)))
                prims.append(Cell(dg.Copants, (name, a, b)))
    for (src, tgt), f in sorted(sys_.functors.items()):
        lay = sys_.layer(src)
        for w in [(), (lay.gen_objects[0],)]:
            prims.append(Cell(dg.Refine, (src, tgt, w)))
            prims.append(Cell(dg.Coarsen, (src, tgt, w)))
    layer_names = sorted(sys_.layers)
    for l1 in layer_names:
        for l2 in layer_names:
            prims.append(Cell(dg.SheetSym, (
                l1, (sys_.layer(l1).gen_objects[0],),
                l2, (sys_.layer(l2).gen_objects[0],))))
    return prims


def cell_count(t: Term) -> int:
    if isinstance(t, (Empty, Id)):
        return 0
    if isinstance(t, (Seq, Par)):
        first = t.first if isinstance(t, Seq) else t.top
        second = t.second if isinstance(t, Seq) else t.bottom
        return cell_count(first) + cell_count(second)
    if isinstance(t, Fuse):
        return 1
    return 1


def random_terms(sys_: SystemOfLayers, rng: random.Random, count: int,
                 max_cells: int = 8) -> list[Term]:
    prims = primitive_pool(sys_)
    pool: list[tuple[Term, Sort]] = []
    for p in prims:
        pool.append((p, terms.build(p, sys_).sort))
    out: list[Term] = []
    attempts = 0
    while len(out) < count and attempts < count * 60:
        attempts += 1
        op = rng.randrange(4)
        x, sx = pool[rng.randrange(len(pool))]
        if op == 0:
            y, sy = pool[rng.randrange(len(pool))]
            cand: Term = Par(x, y)
        elif op == 1:
            compatible = [(y, sy) for y, sy in pool if sy.dom == sx.cod]
            if compatible:
                y, sy = compatible[rng.randrange(len(compatible))]
            else:
                y = id_term_of_type(sx.cod)
            cand = Seq(x, y)
        elif op == 2:
            internals = [(y, sy) for y, sy in pool
                         if terms.is_internal_term(y)
                         and len(sy.dom) == 1]
            if not internals:
                continue
            y, sy = internals[rng.randrange(len(internals))]
            z, sz = internals[rng.randrange(len(internals))]
            if sy.dom.entries[0][0] != sz.dom.entries[0][0]:
                continue
            cand = Fuse(sy.dom.entries[0][0], y, z)
        else:
            cand = x
        if cell_count(cand) > max_cells:
            continue
        sort = terms.build(cand, sys_).sort
        pool.append((cand, sort))
        if cell_count(cand) > 0:
            out.append(cand)
    return out


# -- meaning-preserving mutations --------------------------------------------


def _seq_chain(t: Term) -> list[Term]:
    if isinstance(t, Seq):
        return _seq_chain(t.first) + _seq_chain(t.second)
    return [t]


def _par_chain(t: Term) -> list[Term]:
    if isinstance(t, Par):
        return _par_chain(t.top) + _par_chain(t.bottom)
    return [t]


def _rebuild(chain: list[Term], ctor, rng: random.Random) -> Term:
    if len(chain) == 1:
        return chain[0]
    k = rng.randrange(1, len(chain))
    return ctor(_rebuild(chain[:k], ctor, rng),
                _rebuild(chain[k:], ctor, rng))


def mutate(t: Term, sys_: SystemOfLayers, rng: random.Random) -> Term:
    """One random rewrite by a monoidal-category law."""
    kind = rng.randrange(5)
    if kind == 0 and isinstance(t, Seq):
        return _rebuild(_seq_chain(t), Seq, rng)
    if kind == 1 and isinstance(t, Par):
        return _rebuild(_par_chain(t), Par, rng)
    if kind == 2:
        # unit: pad with an identity on a random side
        sort = terms.build(t, sys_).sort
        if rng.random() < 0.5:
            return Seq(id_term_of_type(sort.dom), t)
        return Seq(t, id_term_of_type(sort.cod))
    if kind == 3 and isinstance(t, Par) and isinstance(t.top, Seq) \
            and isinstance(t.bottom, Seq):
        # interchange: (a;b) par (c;d) = (a par c); (b par d)
        return Seq(Par(t.top.first, t.bottom.first),
                   Par(t.top.second, t.bottom.second))
    if kind == 4:
        # symmetry involution on two adjacent output sheets
        sort = terms.build(t, sys_).sort
        entries = sort.cod.entries
        if len(entries) >= 2:
            i = rng.randrange(len(entries) - 1)
            (l1, a), (l2, b) = entries[i], entries[i + 1]
            swap = Cell(dg.SheetSym, (l1, a, l2, b))
            swap_back = Cell(dg.SheetSym, (l2, b, l1, a))
            pad: Term = Seq(swap, swap_back)
            for k in range(i):
                pad = Par(Id(*entries[i - 1 - k]), pad)
            for k in range(i + 2, len(entries)):
                pad = Par(pad, Id(*entries[k]))
            return Seq(t, pad)
    # descend into one branch
    if isinstance(t, Seq):
        if rng.random() < 0.5:
            return Seq(mutate(t.first, sys_, rng), t.second)
        return Seq(t.first, mutate(t.second, sys_, rng))
    if isinstance(t, Par):
        if rng.random() < 0.5:
            return Par(mutate(t.top, sys_, rng), t.bottom)
        return Par(t.top, mutate(t.bottom, sys_, rng))
    return t
