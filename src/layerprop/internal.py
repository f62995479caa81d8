"""Single-layer diagrams as slice sequences.

An internal diagram lives entirely inside one layer.  It is stored as an
ordered list of slices, each firing one morphism generator at a horizontal
offset with identity padding on both sides.  Two slice sequences denote the
same diagram when they differ only by interchange moves (sliding slices past
each other when their spans are disjoint); ``canonical_slices`` picks the
leftmost-first representative of that class.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .errors import SearchTooLarge, SortMismatch, UnknownGenerator

Word = tuple[str, ...]
Slice = tuple[int, str]
GenSig = Mapping[str, tuple[Word, Word]]

EPSILON: Word = ()


def word(*symbols: str) -> Word:
    return tuple(symbols)


@dataclass(frozen=True)
class InternalDiagram:
    """A morphism of one layer, presented as generator slices."""

    layer: str
    dom: Word
    cod: Word
    slices: tuple[Slice, ...] = ()

    def is_identity(self) -> bool:
        return not self.slices

    def then(self, other: "InternalDiagram") -> "InternalDiagram":
        if self.layer != other.layer:
            raise SortMismatch(
                f"cannot compose across layers {self.layer!r} and {other.layer!r}")
        if self.cod != other.dom:
            raise SortMismatch(
                f"middle words differ: {self.cod!r} vs {other.dom!r}")
        return InternalDiagram(self.layer, self.dom, other.cod,
                               self.slices + other.slices)

    def beside(self, other: "InternalDiagram") -> "InternalDiagram":
        """Vertical juxtaposition: self occupies the left columns."""
        if self.layer != other.layer:
            raise SortMismatch(
                f"cannot juxtapose layers {self.layer!r} and {other.layer!r}")
        shift = len(self.cod)
        shifted = tuple((o + shift, g) for o, g in other.slices)
        return InternalDiagram(self.layer, self.dom + other.dom,
                               self.cod + other.cod, self.slices + shifted)


def identity(layer: str, w: Word) -> InternalDiagram:
    return InternalDiagram(layer, w, w, ())


def generator(layer: str, name: str, sig: GenSig) -> InternalDiagram:
    if name not in sig:
        raise UnknownGenerator(f"no generator {name!r} in layer {layer!r}")
    dom, cod = sig[name]
    return InternalDiagram(layer, dom, cod, ((0, name),))


def run_slices(dom: Word, slices: Iterable[Slice], sig: GenSig) -> list[Word]:
    """All intermediate words, dom first.  Raises if a slice does not fit."""
    words = [dom]
    w = dom
    for off, gen in slices:
        if gen not in sig:
            raise UnknownGenerator(f"unknown generator {gen!r}")
        gdom, gcod = sig[gen]
        if off < 0 or off + len(gdom) > len(w):
            raise SortMismatch(
                f"slice {gen!r} at offset {off} does not fit in word {w!r}")
        if w[off:off + len(gdom)] != gdom:
            raise SortMismatch(
                f"slice {gen!r} expects {gdom!r} at offset {off}, found "
                f"{w[off:off + len(gdom)]!r}")
        w = w[:off] + gcod + w[off + len(gdom):]
        words.append(w)
    return words


def validate(d: InternalDiagram, sig: GenSig) -> None:
    words = run_slices(d.dom, d.slices, sig)
    if words[-1] != d.cod:
        raise SortMismatch(
            f"slices end at {words[-1]!r}, declared codomain {d.cod!r}")


def _swaps(a: Slice, b: Slice, sig: GenSig) -> list[tuple[Slice, Slice]]:
    """Legal ways to swap adjacent slices (a then b) into (b then a).

    Spans must be disjoint in the intermediate word.  When both a's codomain
    and b's domain are empty and they meet at a seam, both readings are
    legitimate interchange moves and both are returned.
    """
    ao, ag = a
    bo, bg = b
    adl, acl = len(sig[ag][0]), len(sig[ag][1])
    bdl, bcl = len(sig[bg][0]), len(sig[bg][1])
    out: list[tuple[Slice, Slice]] = []
    if bo + bdl <= ao:
        out.append(((bo, bg), (ao + bcl - bdl, ag)))
    if bo >= ao + acl:
        cand = ((bo - acl + adl, bg), (ao, ag))
        if cand not in out:
            out.append(cand)
    return out


def _commute(a: Slice, b: Slice, sig: GenSig) -> tuple[Slice, Slice] | None:
    sw = _swaps(a, b, sig)
    return sw[0] if sw else None


# an interchange class of more orderings raises SearchTooLarge, but
# ``rewrite_occurrences`` searches only the first orderings reached
CLASS_ORDERINGS, OCCURRENCE_ORDERINGS = 20000, 5000


def _reachable(slices: Iterable[Slice],
               sig: GenSig) -> Iterator[tuple[Slice, ...]]:
    """The orderings reachable by adjacent interchange swaps, breadth
    first, starting with the given one."""
    start = tuple(slices)
    yield start
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for i in range(len(cur) - 1):
            for b2, a2 in _swaps(cur[i], cur[i + 1], sig):
                nxt = cur[:i] + (b2, a2) + cur[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
                    yield nxt


def interchange_class(slices: Iterable[Slice],
                      sig: GenSig) -> set[tuple[Slice, ...]]:
    """All orderings reachable by adjacent interchange swaps; a class of
    more than ``CLASS_ORDERINGS`` raises SearchTooLarge."""
    found = set(itertools.islice(_reachable(slices, sig),
                                 CLASS_ORDERINGS + 1))
    if len(found) > CLASS_ORDERINGS:
        raise SearchTooLarge(
            f"interchange class exceeds {CLASS_ORDERINGS} orderings")
    return found


def _greedy_canonical(slices: tuple[Slice, ...],
                      sig: GenSig) -> tuple[Slice, ...]:
    # sound only when every generator in the list has nonempty dom and cod:
    # then enabled slices are pinned by the wires they consume and the
    # leftmost-first choice is representative-independent
    rem = list(slices)
    out: list[Slice] = []
    while rem:
        best: tuple[int, str, int] | None = None
        for j in range(len(rem)):
            off, gen = rem[j]
            ok = True
            for i in range(j - 1, -1, -1):
                sw = _commute(rem[i], (off, gen), sig)
                if sw is None:
                    ok = False
                    break
                off = sw[0][0]
            if ok and (best is None or (off, gen) < (best[0], best[1])):
                best = (off, gen, j)
        assert best is not None
        j = best[2]
        for i in range(j - 1, -1, -1):
            sw = _commute(rem[i], rem[i + 1], sig)
            assert sw is not None
            rem[i], rem[i + 1] = sw
        out.append(rem.pop(0))
    return tuple(out)


def canonical_slices(slices: Iterable[Slice], sig: GenSig) -> tuple[Slice, ...]:
    """Deterministic representative of the interchange-equivalence class;
    SearchTooLarge when the class must be enumerated and is too large."""
    tup = tuple(slices)
    if not tup:
        return ()
    if all(sig[g][0] and sig[g][1] for _, g in tup):
        return _greedy_canonical(tup, sig)
    return min(interchange_class(tup, sig))


def canonicalize(d: InternalDiagram, sig: GenSig) -> InternalDiagram:
    return InternalDiagram(d.layer, d.dom, d.cod,
                           canonical_slices(d.slices, sig))


def orderings(slices: tuple[Slice, ...], sig: GenSig
              ) -> tuple[list[tuple[Slice, ...]], bool]:
    """The interchange class in a deterministic order, or the first
    ``OCCURRENCE_ORDERINGS`` orderings reached of a larger one; and whether
    that is the whole class."""
    reached = list(itertools.islice(_reachable(slices, sig),
                                    OCCURRENCE_ORDERINGS + 1))
    return (sorted(reached[:OCCURRENCE_ORDERINGS]),
            len(reached) <= OCCURRENCE_ORDERINGS)


class Occurrences(list):
    """The rewrites ``rewrite_occurrences`` found, and whether its search
    covered the host's whole interchange class (``complete``)."""

    def __init__(self, found: Iterable[InternalDiagram], complete: bool):
        super().__init__(found)
        self.complete = complete


def rewrite_occurrences(host: InternalDiagram, lhs: InternalDiagram,
                        rhs: InternalDiagram, sig: GenSig) -> Occurrences:
    """Replace one occurrence of ``lhs`` inside ``host`` by ``rhs``.

    An occurrence is a contiguous block in some interchange-equivalent
    ordering of the host whose slices coincide with the (whiskered) lhs and
    whose starting word carries lhs.dom at the block's columns.  Results are
    deduplicated by canonical form; the search is exhaustive up to
    ``OCCURRENCE_ORDERINGS`` orderings, and the result's ``complete`` says
    whether that covered the class.
    """
    if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
        raise SortMismatch("equation sides must be parallel")
    m = len(lhs.slices)
    results: dict[tuple[Slice, ...], InternalDiagram] = {}
    orders, complete = orderings(host.slices, sig)
    for order in orders:
        words = run_slices(host.dom, order, sig)
        for s in range(len(order) - m + 1):
            w = words[s]
            if m == 0:
                offsets = range(len(w) - len(lhs.dom) + 1)
            else:
                o0 = order[s][0] - lhs.slices[0][0]
                offsets = (o0,) if o0 >= 0 else ()
            for o in offsets:
                if w[o:o + len(lhs.dom)] != lhs.dom:
                    continue
                if any(order[s + k] != (po + o, pg)
                       for k, (po, pg) in enumerate(lhs.slices)):
                    continue
                new = (order[:s]
                       + tuple((po + o, pg) for po, pg in rhs.slices)
                       + order[s + m:])
                cand = InternalDiagram(host.layer, host.dom, host.cod,
                                       canonical_slices(new, sig))
                results.setdefault(cand.slices, cand)
    return Occurrences((results[k] for k in sorted(results)), complete)


def split_beside(d: InternalDiagram, sig: GenSig
                 ) -> list[tuple[InternalDiagram, InternalDiagram]]:
    """All ways to present ``d`` as a juxtaposition top-beside-bottom.

    Whether a dom split point separates the slices is independent of the
    slice order, so checking the stored order is complete.
    """
    out = []
    for k in range(len(d.dom) + 1):
        track = k
        top: list[Slice] = []
        bottom: list[Slice] = []
        ok = True
        for off, gen in d.slices:
            dl, cl = len(sig[gen][0]), len(sig[gen][1])
            if off + dl <= track:
                top.append((off, gen))
                track += cl - dl
            elif off >= track:
                bottom.append((off - track, gen))
            else:
                ok = False
                break
        if not ok:
            continue
        top_d = InternalDiagram(d.layer, d.dom[:k], d.cod[:track], tuple(top))
        bot_d = InternalDiagram(d.layer, d.dom[k:], d.cod[track:],
                                tuple(bottom))
        out.append((top_d, bot_d))
    return out


def translate(d: InternalDiagram, target_layer: str,
              word_image: Callable[[Word], Word],
              gen_image: Callable[[str], InternalDiagram],
              sig: GenSig) -> InternalDiagram:
    """Push an internal diagram along a strict monoidal translation."""
    out: list[Slice] = []
    w = d.dom
    for off, gen in d.slices:
        toff = len(word_image(w[:off]))
        img = gen_image(gen)
        out.extend((toff + po, pg) for po, pg in img.slices)
        gdom, gcod = sig[gen]
        w = w[:off] + gcod + w[off + len(gdom):]
    return InternalDiagram(target_layer, word_image(d.dom), word_image(d.cod),
                           tuple(out))
