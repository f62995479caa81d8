"""Finite categories, profunctors, reindexing and coend composition.

Everything here is exhaustively enumerable: categories carry explicit
object/morphism lists, functors memoised maps, and profunctors explicit
element sets with bimodule actions.  ``Reindexed`` restricts a profunctor
along functors, P(F-, G-), which by co-Yoneda is what composing with a
representable comes to.  Profunctor composition in general quotients the
pairs over a middle object by the usual zig-zag identifications, computed
with union-find; the class representative (its first triple) doubles as the
element id.  Elements are kept in construction order throughout: a hom set
lists its morphisms in the category's order, a coend its classes in order
of first appearance, so every construction is deterministic.  An embedding
of a functor F is the hom profunctor of its target reindexed along F.

Each category carries a generating set of morphisms (``generators``).  The
coend quotient unions only along generators of the middle category, and
natural-transformation search propagates only along generators of the
boundary categories: the actions are functorial, so the relations and the
naturality squares of composites follow from those of their factors.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import BoundaryMismatch, SearchTooLarge


class FinCategory:
    """A small category with explicit composition.

    ``then(f, g)`` is diagram-order composition (f first).  Product
    categories compute componentwise instead of storing product tables.
    """

    def __init__(self, name: str, objects: Iterable, morphisms: Iterable,
                 dom: dict, cod: dict, compose: dict, identities: dict,
                 components: tuple | None = None):
        self.name = name
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self._dom = dom
        self._cod = cod
        self._compose = compose
        self._ident = identities
        self.components = components  # None marks an atomic category
        self._hom_buckets: dict | None = None
        self._gens: tuple | None = None
        self._gens_from: dict = {}
        self._gens_into: dict = {}
        self._then_cache: dict = {}
        # products led by this category and its hom profunctor, kept here
        # so that they are freed with the category
        self._products: dict = {}
        self._hom_prof: Profunctor | None = None

    def dom(self, f):
        if self.components is None:
            return self._dom[f]
        cached = self._dom.get(f)
        if cached is None:
            cached = tuple(c.dom(fi)
                           for c, fi in zip(self.components, f))
            self._dom[f] = cached
        return cached

    def cod(self, f):
        if self.components is None:
            return self._cod[f]
        cached = self._cod.get(f)
        if cached is None:
            cached = tuple(c.cod(fi)
                           for c, fi in zip(self.components, f))
            self._cod[f] = cached
        return cached

    def ident(self, obj):
        if self.components is None:
            return self._ident[obj]
        cached = self._ident.get(obj)
        if cached is None:
            cached = tuple(c.ident(o)
                           for c, o in zip(self.components, obj))
            self._ident[obj] = cached
        return cached

    def then(self, f, g):
        """f then g, defined when cod(f) == dom(g)."""
        if self.components is None:
            return self._compose[(f, g)]
        cached = self._then_cache.get((f, g))
        if cached is None:
            cached = tuple(c.then(fi, gi)
                           for c, fi, gi in zip(self.components, f, g))
            self._then_cache[(f, g)] = cached
        return cached

    def hom(self, a, b) -> tuple:
        if self._hom_buckets is None:
            buckets: dict = {}
            for f in self.morphisms:
                buckets.setdefault((self.dom(f), self.cod(f)), []).append(f)
            self._hom_buckets = {k: tuple(v) for k, v in buckets.items()}
        return self._hom_buckets.get((a, b), ())

    def generators(self) -> tuple:
        """A generating set: every morphism is an identity or a composite
        of generators.

        An atomic category scans its morphisms in order and keeps each one
        that is not yet an identity or a composite of those kept.  A product
        pads each component's generators with identities of the other
        components, since (f1, .., fn) is the composite of the
        (id, .., fi, .., id).
        """
        if self._gens is None:
            if self.components is None:
                gens = self._greedy_generators()
            else:
                gens = []
                comps = self.components
                for i, comp in enumerate(comps):
                    rest = comps[:i] + comps[i + 1:]
                    for g in comp.generators():
                        for objs in itertools.product(
                                *(c.objects for c in rest)):
                            ids = tuple(c.ident(o)
                                        for c, o in zip(rest, objs))
                            gens.append(ids[:i] + (g,) + ids[i:])
            for g in gens:
                self._gens_from.setdefault(self.dom(g), []).append(g)
                self._gens_into.setdefault(self.cod(g), []).append(g)
            self._gens = tuple(gens)
        return self._gens

    def _greedy_generators(self) -> list:
        gens: list = []
        reached = {self.ident(o) for o in self.objects}
        for f in self.morphisms:
            if f in reached:
                continue
            gens.append(f)
            todo = list(reached)
            while todo:
                m = todo.pop()
                for g in gens:
                    if self.dom(g) == self.cod(m):
                        mg = self.then(m, g)
                        if mg not in reached:
                            reached.add(mg)
                            todo.append(mg)
        return gens

    def gens_from(self, b) -> list:
        """Generators with domain b."""
        if self._gens is None:
            self.generators()
        return self._gens_from.get(b, [])

    def gens_into(self, a) -> list:
        """Generators with codomain a."""
        if self._gens is None:
            self.generators()
        return self._gens_into.get(a, [])

    def validate(self) -> list[str]:
        """Exhaustive identity and associativity checks."""
        out: list[str] = []
        for obj in self.objects:
            i = self.ident(obj)
            if self.dom(i) != obj or self.cod(i) != obj:
                out.append(f"identity of {obj!r} has wrong endpoints")
        for f in self.morphisms:
            for g in self.morphisms:
                if self.cod(f) != self.dom(g):
                    continue
                fg = self.then(f, g)
                if self.dom(fg) != self.dom(f) or self.cod(fg) != self.cod(g):
                    out.append(f"composite {f!r};{g!r} has wrong endpoints")
        if out:  # the laws below compose identities and composites
            return out
        for f in self.morphisms:
            i_dom = self.ident(self.dom(f))
            i_cod = self.ident(self.cod(f))
            if self.then(i_dom, f) != f:
                out.append(f"left identity fails at {f!r}")
            if self.then(f, i_cod) != f:
                out.append(f"right identity fails at {f!r}")
        for f in self.morphisms:
            for g in self.morphisms:
                if self.cod(f) != self.dom(g):
                    continue
                for h in self.morphisms:
                    if self.cod(g) != self.dom(h):
                        continue
                    if self.then(self.then(f, g), h) != \
                            self.then(f, self.then(g, h)):
                        out.append(
                            f"associativity fails at {f!r};{g!r};{h!r}")
        return out


TERMINAL = FinCategory("1", [()], [()], {}, {}, {}, {}, components=())


def product_category(cats: list[FinCategory]) -> FinCategory:
    """The product of ``cats``, built once and cached on ``cats[0]``."""
    if not cats:
        return TERMINAL
    key = tuple(cats)
    out = cats[0]._products.get(key)
    if out is None:
        out = FinCategory("x".join(c.name for c in cats),
                          itertools.product(*(c.objects for c in cats)),
                          itertools.product(*(c.morphisms for c in cats)),
                          {}, {}, {}, {}, components=key)
        cats[0]._products[key] = out
    return out


class FinMonoidalCategory(FinCategory):
    """Atomic category with a strict tensor on objects and morphisms."""

    def __init__(self, name, objects, morphisms, dom, cod, compose,
                 identities, unit, tensor_obj: dict, tensor_mor: dict):
        super().__init__(name, objects, morphisms, dom, cod, compose,
                         identities)
        self.unit = unit
        self._tensor_obj = tensor_obj
        self._tensor_mor = tensor_mor

    def tensor_obj(self, a, b):
        return self._tensor_obj[(a, b)]

    def tensor_mor(self, f, g):
        return self._tensor_mor[(f, g)]

    def word_obj(self, objs: Iterable):
        out = self.unit
        for o in objs:
            out = self.tensor_obj(out, o)
        return out

    def validate_monoidal(self) -> list[str]:
        out = self.validate()
        for a in self.objects:
            if self.tensor_obj(self.unit, a) != a or \
                    self.tensor_obj(a, self.unit) != a:
                out.append(f"tensor unit fails at {a!r}")
            for b in self.objects:
                for c in self.objects:
                    if self.tensor_obj(self.tensor_obj(a, b), c) != \
                            self.tensor_obj(a, self.tensor_obj(b, c)):
                        out.append(f"tensor associativity fails at "
                                   f"{(a, b, c)!r}")
        for f in self.morphisms:
            for g in self.morphisms:
                fg = self.tensor_mor(f, g)
                if self.dom(fg) != self.tensor_obj(self.dom(f), self.dom(g)):
                    out.append(f"tensor dom fails at {(f, g)!r}")
                if self.cod(fg) != self.tensor_obj(self.cod(f), self.cod(g)):
                    out.append(f"tensor cod fails at {(f, g)!r}")
            i = self.ident(self.unit)
            if self.tensor_mor(f, i) != f or self.tensor_mor(i, f) != f:
                out.append(f"tensor morphism unit fails at {f!r}")
        if out:  # interchange composes tensors, so their endpoints must hold
            return out
        for f1 in self.morphisms:
            for f2 in self.morphisms:
                if self.cod(f1) != self.dom(f2):
                    continue
                for g1 in self.morphisms:
                    for g2 in self.morphisms:
                        if self.cod(g1) != self.dom(g2):
                            continue
                        left = self.tensor_mor(self.then(f1, f2),
                                               self.then(g1, g2))
                        right = self.then(self.tensor_mor(f1, g1),
                                          self.tensor_mor(f2, g2))
                        if left != right:
                            out.append("tensor functoriality fails at "
                                       f"{(f1, f2, g1, g2)!r}")
                            return out
        return out


class Functor:
    """A functor whose images are computed on demand and memoised, so that a
    product or a composite of functors never tabulates its source."""

    def __init__(self, name: str, source: FinCategory, target: FinCategory,
                 on_obj: Callable, on_mor: Callable):
        self.name, self.source, self.target = name, source, target
        self.on_obj = functools.cache(on_obj)
        self.on_mor = functools.cache(on_mor)


class FinFunctor(Functor):
    """A functor given by its tables of object and morphism images."""

    def __init__(self, name: str, source: FinCategory, target: FinCategory,
                 obj_map: dict, mor_map: dict):
        super().__init__(name, source, target, obj_map.__getitem__,
                         mor_map.__getitem__)
        self.obj_map, self.mor_map = obj_map, mor_map

    def validate(self) -> list[str]:
        out = []
        for a in self.source.objects:
            if a not in self.obj_map:
                out.append(f"functor {self.name}: no image for object {a!r}")
        for f in self.source.morphisms:
            if f not in self.mor_map:
                out.append(f"functor {self.name}: no image for {f!r}")
                continue
            ff = self.mor_map[f]
            if self.target.dom(ff) != self.obj_map[self.source.dom(f)] or \
                    self.target.cod(ff) != self.obj_map[self.source.cod(f)]:
                out.append(f"functor {self.name}: image of {f!r} has wrong "
                           f"endpoints")
        for a in self.source.objects:
            if self.mor_map.get(self.source.ident(a)) != \
                    self.target.ident(self.obj_map[a]):
                out.append(f"functor {self.name}: identity of {a!r} not "
                           f"preserved")
        if out:  # composing the images needs their endpoints
            return out
        for f in self.source.morphisms:
            for g in self.source.morphisms:
                if self.source.cod(f) != self.source.dom(g):
                    continue
                if self.mor_map[self.source.then(f, g)] != \
                        self.target.then(self.mor_map[f], self.mor_map[g]):
                    out.append(f"functor {self.name}: composition of "
                               f"{f!r};{g!r} not preserved")
        return out


class Profunctor:
    """Explicit bimodule: elements per object pair with two actions, x in
    P(a, b) to lact(g, x, a, b) in P(a', b) for g: a' -> a and to
    ract(x, h, a, b) in P(a, b') for h: b -> b'."""

    def __init__(self, name: str, source: FinCategory, target: FinCategory,
                 elements: dict, lact: Callable, ract: Callable):
        self.name = name
        self.source = source
        self.target = target
        self._elements = elements
        self.lact = lact
        self.ract = ract

    def elements(self, a, b) -> tuple:
        return self._elements.get((a, b), ())


def hom_profunctor(c: FinCategory) -> Profunctor:
    if c._hom_prof is not None:
        return c._hom_prof
    elements = {}
    for a in c.objects:
        for b in c.objects:
            hom = c.hom(a, b)
            if hom:
                elements[(a, b)] = hom

    def lact(g, x, a, b):
        return c.then(g, x)

    def ract(x, h, a, b):
        return c.then(x, h)

    c._hom_prof = Profunctor(f"hom_{c.name}", c, c, elements, lact, ract)
    return c._hom_prof


class Reindexed(Profunctor):
    """P(F-, G-) for functors F, G into P's source and target (None: an
    identity): the elements over (a, c) are those of P over (F a, G c)."""

    def __init__(self, base: Profunctor, f, g, source: FinCategory,
                 target: FinCategory):
        fo, fm = (f.on_obj, f.on_mor) if f is not None else (_same, _same)
        go, gm = (g.on_obj, g.on_mor) if g is not None else (_same, _same)
        elements = {}
        for a in source.objects:
            fa = fo(a)
            for c in target.objects:
                xs = base.elements(fa, go(c))
                if xs:
                    elements[(a, c)] = xs

        def lact(h, x, a, c):
            return base.lact(fm(h), x, fo(a), go(c))

        def ract(x, h, a, c):
            return base.ract(x, gm(h), fo(a), go(c))

        super().__init__(f"{base.name}(F-,G-)", source, target, elements,
                         lact, ract)
        self.base = base


def _same(x):
    return x


def reindex(p: Profunctor, f, g, source: FinCategory,
            target: FinCategory) -> Profunctor:
    """P(F-, G-); P itself when F and G are identities."""
    if f is None and g is None:
        return p
    return Reindexed(p, f, g, source, target)


class _UnionFind:
    """Disjoint sets over 0 .. n-1."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


class ComposedProfunctor(Profunctor):
    """Coend composite with its injection maps.

    The elements over (a, c) are the classes of triples (b, x, y), x in
    P(a, b) and y in Q(b, c), under (b2, x.g, y) ~ (b, x, g.y) for
    g: b -> b2.  The relations along the generating morphisms of the middle
    category generate those along their composites, so only the generators
    are walked.  The triples over a are numbered block by block, one block
    per (b, c), row x, column y; each class is named by its first triple,
    and the classes over (a, c) come in that order.
    """

    def __init__(self, p: Profunctor, q: Profunctor):
        if p.target.objects != q.source.objects or \
                p.target.morphisms != q.source.morphisms:
            raise BoundaryMismatch(
                f"cannot compose {p.name} with {q.name}: middle categories "
                f"differ")
        self.p = p
        self.q = q
        self._pos: tuple = ({}, {})   # element positions in P and in Q
        mid = p.target
        # a -> (number of the first triple of each block b, c; name of
        # each triple)
        self._blocks: dict = {}
        elements: dict = {}
        rank = {b: k for k, b in enumerate(mid.objects)}
        p_bs: dict = {}   # a -> the b with P(a, b) non-empty
        for (a, b), xs in p._elements.items():
            if xs:
                p_bs.setdefault(a, []).append(b)
        q_row: dict = {}   # b -> (c, Q(b, c)) for non-empty Q(b, c)
        for (b, c), ys in q._elements.items():
            if ys:
                q_row.setdefault(b, []).append((c, ys))
        # g: b -> b2 -> for each c with Q(b2, c) non-empty: c, the position
        # in Q(b, c) of g.y for each y in Q(b2, c), |Q(b, c)| and |Q(b2, c)|
        left_moves: dict = {}

        def moves(g, b, b2) -> list:
            out = left_moves.get(g)
            if out is None:
                out = []
                for c, ys in q_row.get(b2, ()):
                    pos = self._position(1, b, c)
                    out.append((c, [pos[q.lact(g, y, b2, c)] for y in ys],
                                len(pos), len(ys)))
                left_moves[g] = out
            return out

        for a in p.source.objects:
            bs = sorted(p_bs.get(a, ()), key=rank.__getitem__)
            offsets: dict = {}   # b -> c -> number of the block's 1st triple
            blocks = []          # (b, c, P(a, b), Q(b, c))
            n = 0
            for b in bs:
                xs = p.elements(a, b)
                offsets[b] = row = {}
                for c, ys in q_row.get(b, ()):
                    row[c] = n
                    blocks.append((b, c, xs, ys))
                    n += len(xs) * len(ys)
            uf = _UnionFind(n)
            for b in bs:
                xs = p.elements(a, b)
                for g in mid.gens_from(b):
                    b2 = mid.cod(g)
                    pos = self._position(0, a, b2)
                    xg = [pos[p.ract(x, g, a, b)] for x in xs]
                    at1, at2 = offsets[b], offsets[b2]
                    for c, gy, n1, n2 in moves(g, b, b2):
                        o1, o2 = at1[c], at2[c]
                        for i, xi in enumerate(xg):
                            row1, row2 = o1 + i * n1, o2 + xi * n2
                            for j, yj in enumerate(gy):
                                uf.union(row2 + j, row1 + yj)
            of_triple, named = self._name_classes(blocks, uf)
            self._blocks[a] = (offsets, of_triple)
            for c in q.target.objects:
                elements[(a, c)] = tuple(named.get(c, ()))

        def lact(g, rep, a, c):
            b, x, y = rep
            a2 = p.source.dom(g)
            return self.inject(a2, c, b, p.lact(g, x, a, b), y)

        def ract(rep, h, a, c):
            b, x, y = rep
            c2 = q.target.cod(h)
            return self.inject(a, c2, b, x, q.ract(y, h, b, c))

        super().__init__(f"({p.name};{q.name})", p.source, q.target,
                         elements, lact, ract)

    @staticmethod
    def _name_classes(blocks: list, uf: _UnionFind) -> tuple[list, dict]:
        """Name each class by its first triple.  Returns the name of each
        triple, and per c the names in order of first appearance."""
        roots = [uf.find(k) for k in range(len(uf.parent))]
        first: dict = {}   # root -> its first triple
        named: dict = {}
        k = 0
        for b, c, xs, ys in blocks:
            for x in xs:
                for y in ys:
                    if roots[k] not in first:
                        first[roots[k]] = (b, x, y)
                        named.setdefault(c, []).append((b, x, y))
                    k += 1
        return [first[root] for root in roots], named

    def _position(self, side: int, a, b) -> dict:
        """Index of each element of P(a, b) (side 0) or Q(a, b) (side 1)."""
        table = self._pos[side]
        out = table.get((a, b))
        if out is None:
            prof = self.q if side else self.p
            out = {x: i for i, x in enumerate(prof.elements(a, b))}
            table[(a, b)] = out
        return out

    def inject(self, a, c, b, x, y):
        """Class of the pair (x, y) over middle object b."""
        offsets, of_triple = self._blocks[a]
        return of_triple[offsets[b][c]
                         + self._position(0, a, b)[x]
                         * len(self.q.elements(b, c))
                         + self._position(1, b, c)[y]]


@dataclass(frozen=True)
class PointedProfunctor:
    prof: Profunctor
    src_obj: object
    tgt_obj: object
    point: object

    def __post_init__(self):
        if self.point not in self.prof.elements(self.src_obj, self.tgt_obj):
            raise BoundaryMismatch(
                f"point {self.point!r} not in table at "
                f"{(self.src_obj, self.tgt_obj)!r}")


# ---------------------------------------------------------------------------
# natural transformation search


def nat_trans_search(p: Profunctor, q: Profunctor,
                     point: tuple | None = None, iso: bool = False,
                     cap: int = 1_000_000) -> dict | None:
    """First natural transformation p => q, by backtracking with
    naturality propagation.

    ``point`` is ((a, b, x), y): the component at (a, b) must send x to y.
    With ``iso`` every component must be a bijection.  Raises
    SearchTooLarge when the assignment space left after the point's
    closure exceeds ``cap``.
    """
    if p.source.objects != q.source.objects or \
            p.target.objects != q.target.objects:
        return None
    pairs = []
    for a in p.source.objects:
        for b in p.target.objects:
            xs = p.elements(a, b)
            ys = q.elements(a, b)
            if iso and len(xs) != len(ys):
                return None
            if xs and not ys:
                return None
            if xs:
                pairs.append((a, b))
    assignment: dict = {}
    src, tgt = p.source, p.target

    def propagate(todo: list) -> list | None:
        """Close the assignment under both actions and return the keys it
        added; on a conflict remove them again and return None.  The
        generating morphisms suffice: both actions are functorial, so
        naturality along generators gives naturality along composites."""
        added = []

        def settle(key, want) -> bool:
            if key in assignment:
                return assignment[key] == want
            assignment[key] = want
            added.append(key)
            todo.append((key, want))
            return True

        while todo:
            (a, b, x), y = todo.pop()
            for g in src.gens_into(a):
                if not settle((src.dom(g), b, p.lact(g, x, a, b)),
                              q.lact(g, y, a, b)):
                    undo(added)
                    return None
            for h in tgt.gens_from(b):
                if not settle((a, tgt.cod(h), p.ract(x, h, a, b)),
                              q.ract(y, h, a, b)):
                    undo(added)
                    return None
        return added

    def undo(added: list) -> None:
        for key in added:
            del assignment[key]

    def injective_ok(a, b) -> bool:
        seen = set()
        for x in p.elements(a, b):
            y = assignment.get((a, b, x))
            if y is not None:
                if y in seen:
                    return False
                seen.add(y)
        return True

    keys = [(a, b, x) for (a, b) in pairs for x in p.elements(a, b)]
    if point is not None:
        (pa, pb, px), py = point
        assignment[(pa, pb, px)] = py
        if propagate([((pa, pb, px), py)]) is None:
            return None
    if iso and not all(injective_ok(a, b) for a, b in pairs):
        return None
    space = 1
    for a, b, x in keys:
        if space > cap:
            break
        if (a, b, x) not in assignment:
            space *= len(q.elements(a, b))
    if space > cap:
        raise SearchTooLarge(f"component search space exceeds {cap}")

    def choose(key, options) -> list | None:
        """Assign the key the first of ``options`` that propagates (and
        keeps the touched components injective under ``iso``); the keys
        that choice added, or None when no option is left."""
        a, b, _ = key
        for y in options:
            assignment[key] = y
            added = propagate([(key, y)])
            ok = added is not None
            if ok and iso:
                # only the components this assignment touched can collide
                touched = {(a, b)} | {(k[0], k[1]) for k in added}
                ok = all(injective_ok(a2, b2) for a2, b2 in touched)
            if ok:
                return added
            if added is not None:
                undo(added)
            del assignment[key]
        return None

    # depth-first over the unassigned keys in order, one frame per choice:
    # (key index, the options left, the keys the current option added)
    frames: list = []
    i = 0
    while True:
        while i < len(keys) and keys[i] in assignment:
            i += 1
        if i == len(keys):
            return dict(assignment)
        a, b, _ = keys[i]
        options = iter(q.elements(a, b))
        added = choose(keys[i], options)
        while added is None:   # backtrack to the latest choice left open
            if not frames:
                return None
            i, options, added = frames.pop()
            undo(added)
            del assignment[keys[i]]
            added = choose(keys[i], options)
        frames.append((i, options, added))
        i += 1


def pointed_two_cell(pp: PointedProfunctor, qq: PointedProfunctor,
                     iso: bool = False, cap: int = 1_000_000) -> dict | None:
    """A 2-cell (P, f) -> (Q, g): natural transformation sending f to g."""
    if (pp.src_obj, pp.tgt_obj) != (qq.src_obj, qq.tgt_obj):
        return None
    point = ((pp.src_obj, pp.tgt_obj, pp.point), qq.point)
    return nat_trans_search(pp.prof, qq.prof, point, iso=iso, cap=cap)
