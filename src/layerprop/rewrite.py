"""Rewrite cells between diagrams: the rule table, matching, and search.

Every rule is one entry of the table ``_SCHEMATA``: a key, argument kinds
and two sides built from the arguments by the ``dg`` constructors.  The
four families over a validated system:

* F: a box slides through a refinement/coarsening (picking up the functor's
  image) or through pants/copants (splitting into an in-layer tensor).
* A: unit/counit pairs for pants/copants, refine/coarsen and cup/cap;
  one-directional.
* M: coherence of pants/copants/cup/cap with each other and with
  refine/coarsen; invertible.
* E: one invertible rule per layer equation, applied inside boxes through a
  payload (``_match_boxeq``).

``RuleEngine.rule_instance`` builds any rule of the table, and
``sample_instances`` walks the table over word pools.  Each A, F and M side
is also built once over variables (``_Template``), and one matcher finds
its convex occurrences in the canonical host, as in convex rewriting modulo
symmetric monoidal structure (Bonchi et al., String Diagram Rewrite Theory
II, arXiv:2104.14686; Chyp, https://github.com/akissinger/chyp, is a small
tool built on the same idea): cells are placed from an anchor along the
side's wires, bare sheets taken by type, and labels unified with the
host's.  ``matches`` offers each lhs forward and each bidirectional rhs
backward; ``anti_matches`` the moves whose inverse ``matches`` offers:
each bidirectional side either way, then each one-directional rhs backward.
What the host does not fix is searched: a juxtaposed box is split
(``internal.split_beside``), an image box lifted (``lift_along``, given the
dom word of a matched refine or the cod word of a matched coarsen), an
image word inverted (``_preimage_words``), and a functor no cell fixes taken
from those with its source or target.  ``Match.cells`` lists the host image
of each cell of the matched side in the side's construction order.

The table carries the deliberate asymmetries, load-bearing for the pinned
searches and the isolation certificate: A2 has no backward move; the
cup/cap unit A5 introduces a floating circle, so it is offered forward only
on the empty diagram and backward only on a lone circle; A3c exists only
for the engine's faithful window-collapse pairs; and an F3/F4 strand is a
box of the layer or a bare sheet with identity content, both readings
offered where a box is, never both strands identity.  ``is_isolated``
counts a match only when it touches a cell of the diagram or covers the
diagram whole.  Unit rules whiskered onto interior sheet wires produce only
window/pants dressing around the diagram; the certificate follows the
generator-by-generator reading and ignores them, which
``check_counterfactual`` complements with an explicit derivation search.

The matcher only proposes: ``apply_rule``, which ``replay`` and
``Derivation.end`` apply through, checks that the host cut at a match's
cells and wires has the canonical key of the side it replaces, or that an E
payload is one of the box's rewrites by the equation.  An engine is its
settings, the pieces of the rule sides it built (``_Pieces``, each piece
once per engine), and one memo per system (``SystemOfLayers._rewrite_memo``):
the rules a template denotes at given host values, one rule per table key
and arguments, and the rewrites of each box content by an equation side.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterable

from . import diagram as dg
from . import internal
from .diagram import (Diagram, InternalBox, Wire, canonical_key,
                      canonicalize)
from .errors import (InvalidDerivation, LayerPropError, SearchTooLarge,
                     SideConditionViolation, SortMismatch, StaleMatch,
                     check_count)
from .internal import EPSILON, InternalDiagram, Word
from .theory import (OmegaType, SystemOfLayers, TranslationFunctor,
                     translate_internal)


def _wname(w: Word) -> str:
    return ".".join(w) if w else "e"


def _isig(d: InternalDiagram) -> str:
    body = ";".join(f"{o}.{g}" for o, g in d.slices) or "id"
    return f"{_wname(d.dom)}>{body}"


@dataclass(frozen=True)
class RewriteRule:
    name: str
    family: str
    lhs: Diagram
    rhs: Diagram
    bidirectional: bool
    params: tuple = ()


@dataclass(frozen=True)
class Match:
    """A located rule application on a specific canonical host."""

    rule: RewriteRule
    orientation: str            # "fwd" | "bwd"
    cells: tuple[int, ...]      # host cells removed by the application
    dom_wires: tuple[int, ...]  # host wires per pattern input position
    cod_wires: tuple[int, ...]
    host_key: tuple
    box_payload: tuple | None = None  # (cell, new InternalDiagram) for E

    @property
    def replacement(self) -> Diagram:
        return self.rule.rhs if self.orientation == "fwd" else self.rule.lhs

    def signature(self) -> tuple:
        payload = None
        if self.box_payload is not None:
            ci, content = self.box_payload
            payload = (ci, content.dom, content.cod, content.slices)
        return (self.rule.name, self.orientation, self.cells, self.dom_wires,
                self.cod_wires, payload)


@dataclass(frozen=True)
class NotFound:
    budget: int
    # the weight that separated the pair before any move (``weights``)
    weights: dict | None = field(default=None, compare=False, repr=False)


@dataclass
class Derivation:
    start: Diagram
    steps: list[Match] = field(default_factory=list)

    def end(self) -> Diagram:
        """The last state; any steps may be given, so each goes through the
        validating ``apply_rule``."""
        d = canonicalize(self.start).diagram
        for m in self.steps:
            d = apply_rule(d, m)
        return d

    @property
    def end_key(self) -> tuple:
        return canonical_key(self.end())


# ---------------------------------------------------------------------------
# generic application


class _HostIndex:
    """A canonical host's port lookups and successor lists, built in one
    pass over its wires; every matcher run on the host shares them."""

    __slots__ = ("host", "key", "by_src", "by_dst", "succ", "by_kind",
                 "by_type")

    def __init__(self, host: Diagram, key: tuple) -> None:
        self.host = host
        self.key = key
        self.by_src: dict = {}
        self.by_dst: dict = {}
        self.succ: list[list[int]] = [[] for _ in host.cells]
        self.by_kind: dict[type, list[int]] = {}
        for ci, cell in enumerate(host.cells):
            self.by_kind.setdefault(type(cell), []).append(ci)
        self.by_type: dict[tuple, list[int]] = {}
        for wi, (src, dst, ty) in enumerate(host.wires):
            self.by_src[src] = wi
            self.by_dst[dst] = wi
            self.by_type.setdefault(ty, []).append(wi)
            if src[0] == "out" and dst[0] == "in":
                self.succ[src[1]].append(dst[1])

    def wire_in(self, ci: int, pi: int) -> int:
        """The wire at input port ``pi`` of cell ``ci``."""
        return self.by_dst[("in", ci, pi)]

    def wire_out(self, ci: int, pi: int) -> int:
        """The wire at output port ``pi`` of cell ``ci``."""
        return self.by_src[("out", ci, pi)]

    def convex(self, removed: set[int], dom_wires: Iterable[int],
               cod_wires: Iterable[int]) -> bool:
        """No path from a consumer of an output attachment back to a
        producer of an input attachment; attachment endpoints must
        survive."""
        wires = self.host.wires
        starts = set()
        for wi in cod_wires:
            dst = wires[wi].dst
            if dst[0] == "in":
                if dst[1] in removed:
                    return False
                starts.add(dst[1])
        goals = set()
        for wi in dom_wires:
            src = wires[wi].src
            if src[0] == "out":
                if src[1] in removed:
                    return False
                goals.add(src[1])
        if not starts or not goals:
            return True
        if starts & goals:
            return False
        succ = self.succ
        seen = set(starts)
        queue = deque(starts)
        while queue:
            ci = queue.popleft()
            for nj in succ[ci]:
                if nj in goals:
                    return False
                if nj not in seen:
                    seen.add(nj)
                    queue.append(nj)
        return True

    def offer(self, out: list, rule: RewriteRule, orientation: str, cells,
              dom_wires, cod_wires) -> None:
        """Append the match at these cells and wires if it is convex."""
        if self.convex(set(cells), dom_wires, cod_wires):
            out.append(Match(rule, orientation, tuple(cells),
                             tuple(dom_wires), tuple(cod_wires), self.key))


def _splice(host: Diagram, m: Match) -> tuple[list, list, Iterable[int],
                                              Iterable[int]]:
    """The host's cells and ``(src, dst, type)`` wires rewritten at the
    match, with the indices of the new cells and of the new wires.

    Only a local check is made: every attachment carries the type of the
    replacement's boundary position, and an E payload keeps its box's layer,
    dom and cod.  Convexity is the caller's to ensure.
    """
    if m.box_payload is not None:
        ci, content = m.box_payload
        cell = host.cells[ci]
        if not (isinstance(cell, InternalBox)
                and (content.layer, content.dom, content.cod)
                == (cell.layer, cell.content.dom, cell.content.cod)):
            raise SortMismatch(f"{m.rule.name}: payload does not fit cell "
                               f"{ci}")
        cells = list(host.cells)
        cells[ci] = InternalBox(cell.layer, content)
        return cells, list(host.wires), (ci,), ()

    repl = m.replacement
    hw = host.wires
    if ([hw[wi].type for wi in m.dom_wires] != list(repl.dom.entries)
            or [hw[wi].type for wi in m.cod_wires] != list(repl.cod.entries)):
        raise SortMismatch(f"{m.rule.name}: attachment types differ from "
                           f"the replacement's boundary")
    removed = set(m.cells)
    old2new: dict[int, int] = {}
    cells: list = []
    for ci, cell in enumerate(host.cells):
        if ci not in removed:
            old2new[ci] = len(cells)
            cells.append(cell)
    base = len(cells)
    cells += repl.cells

    attach = set(m.dom_wires) | set(m.cod_wires)
    wires: list[tuple] = []
    for wi, (src, dst, ty) in enumerate(hw):
        if wi in attach:
            continue
        if src[0] == "out":
            if src[1] in removed:
                continue
            src = ("out", old2new[src[1]], src[2])
        if dst[0] == "in":
            if dst[1] in removed:
                continue
            dst = ("in", old2new[dst[1]], dst[2])
        wires.append((src, dst, ty))
    first_new = len(wires)
    for src, dst, ty in repl.wires:
        if src[0] == "dom":
            src = hw[m.dom_wires[src[1]]].src
            if src[0] == "out":
                src = ("out", old2new[src[1]], src[2])
        else:
            src = ("out", base + src[1], src[2])
        if dst[0] == "cod":
            dst = hw[m.cod_wires[dst[1]]].dst
            if dst[0] == "in":
                dst = ("in", old2new[dst[1]], dst[2])
        else:
            dst = ("in", base + dst[1], dst[2])
        wires.append((src, dst, ty))
    return cells, wires, range(base, len(cells)), range(first_new, len(wires))


def _apply(host: Diagram, m: Match) -> Diagram:
    """Rewrite the canonical host at a match the engine found on it; the
    result is canonical.

    Trusted: the match must be convex and located on this host, as every
    match ``RuleEngine`` returns is.  Beyond ``_splice``'s local check
    nothing is validated, and only the new cells and wires are
    re-canonicalized (``diagram._canonical``).  ``apply_rule`` is the
    validating entry point.
    """
    host = canonicalize(host).diagram
    cells, wires, new_cells, new_wires = _splice(host, m)
    return dg._canonical(host.system, host.dom, host.cod, cells, wires,
                         new_cells, new_wires)[0]


def _inverse(host: Diagram, m: Match) -> Match:
    """The match that undoes ``m`` on ``_apply(host, m)``, at the image of
    the move's replacement; the host is canonical, and the quotient must
    have kept every cell, as on each backward edge the search keeps."""
    cells, wires, new_cells, new_wires = _splice(host, m)
    res, pos = dg._canonical(host.system, host.dom, host.cod, cells, wires,
                             new_cells, new_wires)
    orientation = "bwd" if m.orientation == "fwd" else "fwd"
    if m.box_payload is not None:
        ci = m.box_payload[0]
        return Match(m.rule, orientation, (pos[ci],), (), (), res._key,
                     (pos[ci], host.cells[ci].content))
    repl, by_src = m.replacement, {w.src: wi for wi, w in enumerate(res.wires)}
    image = {}  # each end of a replacement wire: that wire in the result
    for (src, dst, _), wi in zip(repl.wires, new_wires):
        end = wires[wi][0]
        image[src] = image[dst] = by_src[
            ("out", pos[end[1]], end[2]) if end[0] == "out" else end]
    return Match(m.rule, orientation, tuple(pos[ci] for ci in new_cells),
                 tuple(image["dom", j] for j in range(len(repl.dom))),
                 tuple(image["cod", j] for j in range(len(repl.cod))),
                 res._key)


def apply_rule(d: Diagram, m: Match) -> Diagram:
    """Public application of any match, validated in full.

    Rejects a match found on another diagram (StaleMatch), one naming cells
    or wires the diagram lacks, that is not convex or that is not an
    occurrence of the side it replaces (SideConditionViolation), and one
    whose attachments do not fit the replacement (SortMismatch); the spliced
    diagram then goes through the validating ``canonicalize``.
    """
    host = canonicalize(d).diagram
    if host._key != m.host_key:
        raise StaleMatch("diagram changed since the match was found")
    n_cells, n_wires = len(host.cells), len(host.wires)
    named = m.cells + ((m.box_payload[0],) if m.box_payload else ())
    if not (all(0 <= ci < n_cells for ci in named)
            and all(0 <= wi < n_wires for wi in m.dom_wires + m.cod_wires)):
        raise SideConditionViolation(
            f"{m.rule.name}: match names cells or wires the diagram lacks")
    if not _HostIndex(host, m.host_key).convex(set(m.cells), m.dom_wires,
                                               m.cod_wires):
        raise SideConditionViolation(f"{m.rule.name}: match is not convex")
    cells, wires, _, _ = _splice(host, m)
    if not _occurs(host, m):
        raise SideConditionViolation(
            f"{m.rule.name}: match is not an occurrence of the rule's side")
    return canonicalize(Diagram(host.system, host.dom, host.cod, cells,
                                map(Wire._make, wires))).diagram


def _occurs(host: Diagram, m: Match) -> bool:
    """Whether the match's cells and wires are an occurrence of the side it
    replaces: for an E step, the payload is a rewrite of the box by the
    equation; otherwise the host cut there has that side's canonical
    key."""
    side = m.rule.lhs if m.orientation == "fwd" else m.rule.rhs
    if m.box_payload is None:
        try:
            return canonical_key(_cut(host, m)) == canonical_key(side)
        except SortMismatch:  # another wire crosses the cut
            return False
    ci, content = m.box_payload
    boxes = [d.cells[0] for d in (side, m.replacement)
             if len(d.cells) == 1 and isinstance(d.cells[0], InternalBox)]
    sig = host.system.signature(content.layer)
    internal.validate(content, sig)
    slices = internal.canonical_slices(content.slices, sig)
    return len(boxes) == 2 and any(
        r.slices == slices for r in internal.rewrite_occurrences(
            host.cells[ci].content, *(b.content for b in boxes), sig))


def _cut(host: Diagram, m: Match) -> Diagram:
    """The host at the match's cells, bounded by its dom and cod wires in
    their order; a wire that crosses that boundary elsewhere leaves a port
    unattached, which validation rejects."""
    inside = {ci: k for k, ci in enumerate(m.cells)}
    dom = {wi: ("dom", k) for k, wi in enumerate(m.dom_wires)}
    cod = {wi: ("cod", k) for k, wi in enumerate(m.cod_wires)}
    wires = []
    for wi, (src, dst, ty) in enumerate(host.wires):
        src = dom.get(wi) or (("out", inside[src[1]], src[2])
                              if src[0] == "out" and src[1] in inside
                              else None)
        dst = cod.get(wi) or (("in", inside[dst[1]], dst[2])
                              if dst[0] == "in" and dst[1] in inside else None)
        if src and dst:
            wires.append(Wire(src, dst, ty))
    types = [OmegaType(tuple(host.wires[wi].type for wi in ws))
             for ws in (m.dom_wires, m.cod_wires)]
    return Diagram(host.system, *types, [host.cells[ci] for ci in m.cells],
                   wires)


# ---------------------------------------------------------------------------
# bounded inversion of a translation functor


# the bounds of inverting a translation: source words per target word and
# objects of empty image in each; lift states per root word, and slices a
# lift may have beyond the target's
PREIMAGE_WORDS, PREIMAGE_EPS = 64, 3
LIFT_STATES, LIFT_SLACK = 5000, 4


def _preimage_words(f: TranslationFunctor, src_objects: tuple[str, ...],
                    target: Word) -> tuple[list[Word], bool]:
    """Source words whose image is exactly ``target``, each the path that
    found it, in depth-first order (an explicit stack: a recursive closure
    would be a reference cycle); the second component reports whether the
    search was exhaustive (False once a bound cut it)."""
    results: list[Word] = []
    complete = True
    images = {sym: f.word_image((sym,)) for sym in src_objects}
    ordered = sorted(images)
    stack: list[tuple[int, Word, int]] = [(0, (), 0)]
    while stack:
        if len(results) >= PREIMAGE_WORDS:
            complete = False
            break
        pos, acc, eps_used = stack.pop()
        if pos == len(target):
            results.append(acc)
        children = []
        for s in ordered:
            img = images[s]
            if not img:
                if eps_used < PREIMAGE_EPS:
                    children.append((pos, acc + (s,), eps_used + 1))
                else:  # longer preimages exist that the search skips
                    complete = False
            elif target[pos:pos + len(img)] == img:
                children.append((pos + len(img), acc + (s,), eps_used))
        stack.extend(reversed(children))
    return results, complete


def lift_along(sys: SystemOfLayers, f: TranslationFunctor,
               target: InternalDiagram, dom_word: Word | None = None,
               cod_word: Word | None = None
               ) -> tuple[list[InternalDiagram], bool]:
    """Internal diagrams over f.source whose translation is ``target``.

    Bounded breadth-first search; the second component reports whether the
    search was exhaustive: False once ``LIFT_STATES`` or a preimage bound
    was hit, or once a candidate whose image still fits the target is
    dropped for having more than ``LIFT_SLACK`` slices beyond the target's.
    """
    src_layer = sys.layer(f.source)
    sig = src_layer.signature
    tgt_sig = sys.signature(f.target)
    target_canon = internal.canonical_slices(target.slices, tgt_sig)
    target_counts: dict[str, int] = {}
    for _, g in target_canon:
        target_counts[g] = target_counts.get(g, 0) + 1

    def fits(slices) -> bool:  # no generator more often than the target's
        counts: dict[str, int] = {}
        for _, g in slices:
            counts[g] = counts.get(g, 0) + 1
            if counts[g] > target_counts.get(g, 0):
                return False
        return True

    gen_images = {g.name: f.gen_image(g.name) for g in src_layer.gen_morphisms}
    max_len = len(target_canon) + LIFT_SLACK

    complete = True
    if dom_word is not None:
        roots = [dom_word]
    else:
        roots, ok = _preimage_words(f, src_layer.gen_objects, target.dom)
        complete = complete and ok

    results: dict[tuple, InternalDiagram] = {}
    for root in roots:
        if f.word_image(root) != target.dom:
            continue
        start = (root, ())
        seen = {(root, ())}
        queue = deque([start])
        explored = 0
        while queue:
            word, slices = queue.popleft()
            explored += 1
            if explored > LIFT_STATES:
                complete = False
                break
            cand = InternalDiagram(f.source, root, word, slices)
            img = internal.translate(cand, f.target, f.word_image,
                                     lambda g: gen_images[g], sig)
            img_canon = internal.canonical_slices(img.slices, tgt_sig)
            if not fits(img_canon):
                continue
            if (img_canon == target_canon
                    and (cod_word is None or word == cod_word)):
                key = (root, internal.canonical_slices(slices, sig))
                results.setdefault(
                    key, InternalDiagram(f.source, root, word, key[1]))
            past_slack = len(slices) >= max_len
            for gname in sorted(sig):
                gdom, gcod = sig[gname]
                gimg = gen_images[gname]
                for off in range(len(word) - len(gdom) + 1):
                    if word[off:off + len(gdom)] != gdom:
                        continue
                    nxt_word = word[:off] + gcod + word[off + len(gdom):]
                    nxt_slices = slices + ((off, gname),)
                    # deduplicate on (word, canonical image): candidates
                    # differing only by identity-image structure collapse,
                    # keeping the space finite despite bracketing moves
                    toff = len(f.word_image(word[:off]))
                    ext = img.slices + tuple((toff + po, pg)
                                             for po, pg in gimg.slices)
                    if past_slack and not (complete and fits(ext)):
                        continue
                    st = (nxt_word, internal.canonical_slices(ext, tgt_sig))
                    if st in seen:
                        continue
                    if past_slack:  # a candidate the bound drops
                        complete = False
                        continue
                    seen.add(st)
                    queue.append((nxt_word, nxt_slices))
    ordered = [results[k] for k in sorted(results)]
    return ordered, complete


# ---------------------------------------------------------------------------
# the rule table

# argument kinds: a strand is a content that may also be an identity
L, F, W, C, S, Q = "layer", "functor", "word", "content", "strand", "equation"


@dataclass(frozen=True)
class _Schema:
    """One rule: its key (the names' prefix; its first letter is the
    family), its argument kinds and its two sides, built from a
    ``_Pieces`` and the arguments by ``dg`` constructors.  The A family is
    one-directional.  ``keep`` leading arguments (a functor as its source
    and target; default all) make the rule's params.  ``only`` carries an
    asymmetry: "whole" sides match only the whole host, a "forward" rule's
    rhs is never matched, and a "collapse" rule exists only for the
    engine's faithful window-collapse pairs and is neither sampled nor
    semantically verified."""

    key: str
    kinds: tuple
    lhs: Callable
    rhs: Callable
    keep: int | None = None
    only: str = ""


class _Pieces:
    """The system a rule side is built over, as the schemata see it: a
    side is composed of pieces, and ``y(make, *args)`` is the piece
    ``make(system, *args)``, built and validated once per ``_Pieces``.
    Diagrams are immutable, so the rules of one engine share their
    pieces; ``dg.seq_compose`` and ``dg.par_tensor`` still check every
    composite."""

    __slots__ = ("system", "_built")

    def __init__(self, system) -> None:
        self.system, self._built = system, {}

    def __call__(self, make: Callable, *args) -> Diagram:
        key = make, args
        d = self._built.get(key)
        if d is None:
            d = self._built[key] = make(self.system, *args)
        return d


def _id(y: _Pieces, layer: str, *words: Word) -> Diagram:
    """Bare sheets of one layer."""
    return y(dg.identity, OmegaType(tuple((layer, w) for w in words)))


def _strand(y: _Pieces, content: InternalDiagram) -> Diagram:
    """A box, or the bare sheet an identity content is."""
    if content.is_identity():
        return _id(y, content.layer, content.dom)
    return y(dg.box, content)


def _up(y: _Pieces, f, w: Word) -> Diagram:
    return y(dg.refine, f.source, f.target, w)


def _down(y: _Pieces, f, w: Word) -> Diagram:
    return y(dg.coarsen, f.source, f.target, w)


def _eq(y: _Pieces, layer: str, name: str):
    return {e.name: e for e in y.system.layer(layer).equations}[name]


_seq, _par = dg.seq_compose, dg.par_tensor
_SCHEMATA = {s.key: s for s in (
    _Schema("A1", (L, W, W), lambda y, l, a, b: _id(y, l, a, b),
            lambda y, l, a, b: _seq(y(dg.pants, l, a, b),
                                    y(dg.copants, l, a, b))),
    _Schema("A2", (L, W, W), lambda y, l, a, b: _seq(
        y(dg.copants, l, a, b), y(dg.pants, l, a, b)),
            lambda y, l, a, b: _id(y, l, a + b), only="forward"),
    # the unit introduces a floating circle: offered on the empty diagram
    # only, and undone only on a lone circle
    _Schema("A5", (L,), lambda y, l: y(dg.empty_diagram),
            lambda y, l: _seq(y(dg.cup, l), y(dg.cap, l)), only="whole"),
    _Schema("A6", (L,), lambda y, l: _seq(y(dg.cap, l), y(dg.cup, l)),
            lambda y, l: _id(y, l, EPSILON)),
    _Schema("A3", (F, W), lambda y, f, w: _id(y, f.source, w),
            lambda y, f, w: _seq(_up(y, f, w), _down(y, f, w))),
    # the window unit's left inverse, for designated faithful functors
    _Schema("A3c", (F, W), lambda y, f, w: _seq(_up(y, f, w), _down(y, f, w)),
            lambda y, f, w: _id(y, f.source, w), only="collapse"),
    _Schema("A4", (F, W), lambda y, f, w: _seq(_down(y, f, w), _up(y, f, w)),
            lambda y, f, w: _id(y, f.target, f.word_image(w))),
    _Schema("F1", (F, C), lambda y, f, s: _seq(y(dg.box, s),
                                                _up(y, f, s.cod)),
            lambda y, f, s: _seq(_up(y, f, s.dom), y(
                dg.box, translate_internal(y.system, f, s))), keep=1),
    _Schema("F2", (F, C), lambda y, f, s: _seq(_down(y, f, s.dom),
                                                y(dg.box, s)),
            lambda y, f, s: _seq(y(
                dg.box, translate_internal(y.system, f, s)),
                _down(y, f, s.cod)), keep=1),
    _Schema("F3", (L, S, S),
            lambda y, l, s, t: _seq(_par(_strand(y, s), _strand(y, t)),
                                    y(dg.pants, l, s.cod, t.cod)),
            lambda y, l, s, t: _seq(y(dg.pants, l, s.dom, t.dom),
                                    y(dg.box, s.beside(t))), keep=1),
    _Schema("F4", (L, S, S),
            lambda y, l, s, t: _seq(y(dg.copants, l, s.dom, t.dom),
                                    _par(_strand(y, s), _strand(y, t))),
            lambda y, l, s, t: _seq(y(dg.box, s.beside(t)),
                                    y(dg.copants, l, s.cod, t.cod)), keep=1),
    _Schema("M1", (L, W, W, W), lambda y, l, a, b, c: _seq(
        _par(y(dg.pants, l, a, b), _id(y, l, c)), y(dg.pants, l, a + b, c)),
            lambda y, l, a, b, c: _seq(_par(_id(y, l, a), y(
                dg.pants, l, b, c)), y(dg.pants, l, a, b + c)), keep=1),
    _Schema("M2", (L, W, W, W), lambda y, l, a, b, c: _seq(
        y(dg.copants, l, a + b, c), _par(y(dg.copants, l, a, b),
                                         _id(y, l, c))),
            lambda y, l, a, b, c: _seq(y(dg.copants, l, a, b + c), _par(
                _id(y, l, a), y(dg.copants, l, b, c))), keep=1),
    _Schema("M3l", (L, W), lambda y, l, a: _seq(
        _par(y(dg.cup, l), _id(y, l, a)), y(dg.pants, l, EPSILON, a)),
            lambda y, l, a: _id(y, l, a)),
    _Schema("M3r", (L, W), lambda y, l, a: _seq(
        _par(_id(y, l, a), y(dg.cup, l)), y(dg.pants, l, a, EPSILON)),
            lambda y, l, a: _id(y, l, a)),
    _Schema("M4l", (L, W), lambda y, l, a: _seq(
        y(dg.copants, l, EPSILON, a), _par(y(dg.cap, l), _id(y, l, a))),
            lambda y, l, a: _id(y, l, a)),
    _Schema("M4r", (L, W), lambda y, l, a: _seq(
        y(dg.copants, l, a, EPSILON), _par(_id(y, l, a), y(dg.cap, l))),
            lambda y, l, a: _id(y, l, a)),
    _Schema("M5a", (F, W, W), lambda y, f, a, b: _seq(
        _par(_up(y, f, a), _up(y, f, b)),
        y(dg.pants, f.target, f.word_image(a), f.word_image(b))),
            lambda y, f, a, b: _seq(y(dg.pants, f.source, a, b),
                                    _up(y, f, a + b)), keep=1),
    _Schema("M5b", (F,), lambda y, f: _seq(y(dg.cup, f.source),
                                           _up(y, f, EPSILON)),
            lambda y, f: y(dg.cup, f.target)),
    _Schema("M6a", (F, W, W), lambda y, f, a, b: _seq(
        y(dg.copants, f.target, f.word_image(a), f.word_image(b)),
        _par(_down(y, f, a), _down(y, f, b))),
            lambda y, f, a, b: _seq(_down(y, f, a + b),
                                    y(dg.copants, f.source, a, b)), keep=1),
    _Schema("M6b", (F,), lambda y, f: _seq(_down(y, f, EPSILON),
                                           y(dg.cap, f.source)),
            lambda y, f: y(dg.cap, f.target)),
    # matched inside boxes through a payload (``_match_boxeq``)
    _Schema("E", (L, Q), lambda y, l, e: y(dg.box, _eq(y, l, e).lhs),
            lambda y, l, e: y(dg.box, _eq(y, l, e).rhs)),
)}

# the order of ``sample_instances``: (domain, members...) takes every
# member for each choice of domain values, appended to the arguments so
# far; words, contents and equations come from the first argument's layer
_SAMPLES = ((), ((L,), ((W, W), "A1", "A2"), ((), "A5", "A6"),
                 ((S, S), "F3", "F4"),
                 ((W,), ((W, W), "M1", "M2"), "M3l", "M4l", "M3r", "M4r"),
                 ((Q,), "E")),
            ((F,), ((W,), "A3", "A4"), ((C,), "F1", "F2"),
             ((W, W), "M5a", "M6a"), ((), "M5b", "M6b")))


# ---------------------------------------------------------------------------
# template matching


class _Var:
    """A schema variable; one of a content also has variables for its dom
    and cod words, and a strand's content may be an identity."""

    __slots__ = ("dom", "cod", "strand")

    def __init__(self, dom=None, cod=None, strand: bool = False) -> None:
        self.dom, self.cod, self.strand = dom, cod, strand


@dataclass(frozen=True)
class _Img:
    """The image of a word or content variable under a functor variable."""

    functor: "_FunctorVar"
    var: _Var


class _FunctorVar:
    """A functor variable: layer variables for its ends, and images."""

    def __init__(self) -> None:
        self.source, self.target = _Var(), _Var()

    def word_image(self, w: tuple) -> tuple:
        return tuple(_Img(self, v) for v in w)

    def gen_image(self, v: _Var) -> InternalDiagram:
        return InternalDiagram(self.target, self.word_image((v.dom,)),
                               self.word_image((v.cod,)),
                               ((0, _Img(self, v)),))


class _Template:
    """One side of a schema, built over variables and compiled for
    matching.

    Its cells are placed in the host from an anchor, its first cell that is
    not a strand box, along its links (``steps``), or by kind where the side
    falls apart; a strand box may also read as the bare sheet it stands on.
    A side without cells is an identity, matched on distinct host wires.
    ``patterns`` are the cells' label fields, or the sheets' types, which
    ``RuleEngine._solve`` unifies with the host's values.
    """

    def __init__(self, schema: _Schema, side: str) -> None:
        self.schema, self.whole = schema, schema.only == "whole"
        args: list = []
        sig: dict = {}
        self.functor = None
        for kind in schema.kinds:
            if kind == F:
                self.functor = f = _FunctorVar()
                args.append(f)
            elif kind == W:
                args.append((_Var(),))
            elif kind in (C, S):
                home = args[0] if type(args[0]) is _Var else args[0].source
                v = _Var(_Var(), _Var(), kind == S)
                sig[v] = ((v.dom,), (v.cod,))
                if self.functor is not None:
                    sig[_Img(f, v)] = (f.word_image((v.dom,)),
                                       f.word_image((v.cod,)))
                args.append(InternalDiagram(home, (v.dom,), (v.cod,),
                                            ((0, v),)))
            else:
                args.append(_Var())
        # the system while the side is built over variables: the ``dg``
        # constructors' checks pass, and content variables are generators
        y = SimpleNamespace(functor=lambda *_: self.functor,
                            signature=lambda _: sig, **dict.fromkeys(
                                ("validate_word", "validate_type", "layer"),
                                lambda *_: None))
        d = getattr(schema, side)(_Pieces(y), *args)
        self.args = [a[0] if type(a) is tuple else a.slices[0][1]
                     if type(a) is InternalDiagram else a for a in args]
        self.free = [v for v, k in zip(self.args, schema.kinds) if k in (L, F)]
        self.strands = [v for v, k in zip(self.args, schema.kinds) if k == S]
        self.kinds = [type(c) for c in d.cells]
        self.optional = [type(c) is InternalBox and getattr(
            c.content.slices[0][1], "strand", False) for c in d.cells]
        self.n_wires = len(d.wires)
        # the label fields each cell constrains (an image follows from them)
        self.fields = [[f for f, _ in c.label_fields] for c in d.cells]
        self.patterns = [getattr(c, f) for c, fs in zip(d.cells, self.fields)
                         for f in fs]
        self.dom, self.cod = [None] * len(d.dom), [None] * len(d.cod)
        links = []
        for src, dst, ty in d.wires:
            if src[0] == "dom" and dst[0] == "cod":  # an identity's sheet
                assert src[1] == dst[1] and not d.cells
                self.patterns += ty
            elif src[0] == "dom":
                self.dom[src[1]] = dst[1:]
            elif dst[0] == "cod":
                self.cod[dst[1]] = src[1:]
            else:
                links.append(src[1:] + dst[1:])
        self.anchor = self.optional.index(False) if d.cells else None
        self.steps: list = []
        placed = {self.anchor}
        while len(placed) < len(d.cells):
            link = next((x for x in links if (x[0] in placed)
                         != (x[2] in placed)), None)
            if link is None:  # a part of the side no link reaches
                b = min(set(range(len(d.cells))) - placed)
                self.steps.append(("any", b))
            else:
                links.remove(link)
                b = link[2] if link[0] in placed else link[0]
                self.steps.append(("out" if b == link[2] else "in",) + link)
            placed.add(b)
        self.checks = links  # links between cells placed by other steps

    def place(self, index: _HostIndex, hc: int) -> list:
        """Each placement with the anchor at host cell hc: its host cells
        in the side's order, its dom and cod wires, and the host values of
        ``patterns``."""
        m: list = [None] * len(self.kinds)
        m[self.anchor] = hc
        found: list = []
        self._extend(index, m, {}, 0, found)
        return found

    def _extend(self, index: _HostIndex, m: list, skip: dict, k: int,
                found: list) -> None:
        host = index.host
        if k == len(self.steps):
            if all(index.wire_out(m[a], p) == index.wire_in(m[b], q)
                   for a, p, b, q in self.checks):
                found.append(self._read(index, m, skip))
            return
        step = self.steps[k]
        if step[0] == "any":
            new, hw = step[1], None
            ends = index.by_kind.get(self.kinds[new], ())
        else:  # a link from a's output p to b's input q
            direction, a, p, b, q = step
            if direction == "out":
                hw = index.wire_out(m[a], p)
                end, new, port = host.wires[hw].dst, b, q
            else:
                hw = index.wire_in(m[b], q)
                end, new, port = host.wires[hw].src, a, p
            ends = (end[1],) if end[0] in ("in", "out") and end[2] == port \
                else ()
        for hc in ends:
            if type(host.cells[hc]) is self.kinds[new] and hc not in m:
                m[new] = hc
                self._extend(index, m, skip, k + 1, found)
        m[new] = None
        if hw is not None and self.optional[new]:  # the strand as a sheet
            skip[new] = hw
            self._extend(index, m, skip, k + 1, found)
            del skip[new]

    def _read(self, index: _HostIndex, m: list, skip: dict) -> tuple:
        host, values = index.host, []
        for c, hc in enumerate(m):
            if hc is None:
                layer, word = host.wires[skip[c]].type
                values += (layer, internal.identity(layer, word))
            else:
                values += [getattr(host.cells[hc], f)
                           for f in self.fields[c]]
        dom = tuple(skip[c] if m[c] is None else index.wire_in(m[c], q)
                    for c, q in self.dom)
        cod = tuple(skip[c] if m[c] is None else index.wire_out(m[c], p)
                    for c, p in self.cod)
        return (tuple(hc for hc in m if hc is not None), dom, cod,
                tuple(values))


class _Moves:
    """Templates to match, each with an orientation: by the kind of their
    anchor cell, those of one bare sheet, and the other bare ones."""

    def __init__(self) -> None:
        self.by_anchor: dict[type, list] = {}
        self.sheets: list = []
        self.bare: list = []

    def add(self, t: _Template, orientation: str) -> None:
        if t.kinds:
            self.by_anchor.setdefault(t.kinds[t.anchor], []).append(
                (t, orientation))
        else:
            (self.sheets if len(t.dom) == 1 else self.bare).append(
                (t, orientation))

    def __bool__(self) -> bool:
        return bool(self.by_anchor or self.sheets or self.bare)


@functools.cache
def _templates() -> tuple:
    """(schema, lhs template, rhs template or None) of every rule matched
    on the host, compiled once."""
    return tuple((s, _Template(s, "lhs"),
                  None if s.only == "forward" else _Template(s, "rhs"))
                 for s in _SCHEMATA.values() if s.key != "E")


def _settle(pat, val, env: dict) -> bool | None:
    """Whether ``pat`` denotes ``val``, binding the variables this fixes;
    None while that waits on other variables or on a search."""
    tp = type(pat)
    if tp is _Var:
        have = env.get(pat)
        if have is None:
            env[pat] = val
            return pat.dom is None or (_settle(pat.dom, val.dom, env)
                                       and _settle(pat.cod, val.cod, env))
        return have == val
    if tp is tuple:  # a word
        if len(pat) != 1:  # word variables settled elsewhere, concatenated
            known = [env.get(part) for part in pat]
            return None if None in known else sum(known, ()) == val
        if type(pat[0]) is _Var:
            return _settle(pat[0], val, env)
        f, w = env.get(pat[0].functor), env.get(pat[0].var)  # an image
        return None if f is None or w is None else f.word_image(w) == val
    if tp is InternalDiagram:  # a content variable's box, or a search
        (_, v), *more = pat.slices
        return None if more or type(v) is _Img else _settle(v, val, env)
    have = env.get(pat)  # a functor
    if have is None:
        env[pat] = val
        return (_settle(pat.source, val.source, env)
                and _settle(pat.target, val.target, env))
    return have == val


# ---------------------------------------------------------------------------
# the engine


FAMILIES = ("A", "E", "F", "M")


class RuleEngine:
    """Instantiates the rule table over one system and finds matches.

    ``families`` restricts matching to some of the rule families; only
    those families' templates are matched.
    """

    def __init__(self, system: SystemOfLayers,
                 faithful_window_collapse: Iterable[tuple[str, str]] = (),
                 equation_insertions: bool = False,
                 families: Iterable[str] = FAMILIES):
        self.system = system
        self.families = frozenset(families)
        self.collapse = frozenset(faithful_window_collapse)
        for pair in sorted(self.collapse):  # each names a stored functor
            system.functor(*pair)
        # applying an equation in the direction whose pattern is an
        # identity inserts a cancelling pair anywhere in any box; those
        # moves never make progress toward a distinct diagram and would
        # defeat the isolation certificate, so they are off by default
        self.equation_insertions = equation_insertions
        self._memo = system._rewrite_memo
        # the pieces of the rule sides this engine builds
        self._pieces = _Pieces(system)
        # each lhs forward and each bidirectional rhs backward for
        # ``matches``; each bidirectional side either way and each rhs
        # backward for ``anti_matches``
        self._moves, self._anti = _Moves(), _Moves()
        for schema, lhs, rhs in _templates():
            if schema.key[0] in self.families and (
                    schema.only != "collapse" or self.collapse):
                self._moves.add(lhs, "fwd")
                if schema.key[0] != "A":
                    self._anti.add(lhs, "fwd")
                    self._moves.add(rhs, "bwd")
                if rhs is not None:
                    self._anti.add(rhs, "bwd")

    # -- rule construction

    def rule_instance(self, key: str, *args) -> RewriteRule:
        """The rule of table entry ``key`` ("A1", "M3l", "E", ...) at its
        arguments: layers, functors, words, box contents or an equation
        name, in the entry's order."""
        schema = _SCHEMATA[key]
        names = [a.name if isinstance(a, TranslationFunctor)
                 else _wname(a) if isinstance(a, tuple)
                 else _isig(a) if isinstance(a, InternalDiagram) else a
                 for a in args]
        params = sum(((a.source, a.target) if isinstance(a, TranslationFunctor)
                      else (a,) for a in args[:schema.keep]), ())
        return RewriteRule(f"{key}[{';'.join(names)}]", key[0],
                           schema.lhs(self._pieces, *args),
                           schema.rhs(self._pieces, *args), key[0] != "A",
                           params)

    def _rule(self, key: str, *args) -> RewriteRule:
        """``rule_instance(key, *args)``, built once per system: rules are
        frozen, and application only reads the replacement's cells and
        wires."""
        rule = self._memo.get((key, args))
        if rule is None:
            rule = self._memo[key, args] = self.rule_instance(key, *args)
        return rule

    # -- matching

    def matches(self, d: Diagram) -> list[Match]:
        """Every rule application of the engine's families available on d,
        deterministically ordered."""
        return self._matches(d)[0]

    def anti_matches(self, d: Diagram) -> list[Match]:
        """Predecessor moves: each move m whose inverse ``matches`` offers on
        m's result.  Each bidirectional side either way, then each
        one-directional rhs backward, each part in signature order; an
        equation step toward an identity side only with insertions on."""
        return self._matches(d, back=True)[0]

    def _matches(self, d: Diagram, back: bool = False
                 ) -> tuple[list[Match], bool]:
        """The matches of ``matches``, or of ``anti_matches`` if ``back``,
        on d; and whether every search a bound can cut was exhaustive."""
        host = canonicalize(d).diagram
        key = canonical_key(host)
        found: list[Match] = []
        exhaustive = ("E" not in self.families
                      or self._match_boxeq(host, key, found, back))
        moves = self._anti if back else self._moves
        if moves:
            exhaustive = self._match(moves, _HostIndex(host, key),
                                     found) and exhaustive
        found.sort(key=Match.signature)
        if back:  # stable: the one-directional moves go last
            found.sort(key=lambda m: not m.rule.bidirectional)
        return found, exhaustive

    def _match(self, moves: _Moves, index: _HostIndex, out: list) -> bool:
        """Append the moves' matches on the host to out; whether every
        search that inverts a translation was exhaustive."""
        host, key, by_type = index.host, index.key, index.by_type
        exhaustive = True
        for kind, anchors in index.by_kind.items():
            for t, orientation in moves.by_anchor.get(kind, ()):
                if t.whole and (len(host.cells), len(host.wires)) != \
                        (len(t.kinds), t.n_wires):
                    continue
                for hc in anchors:
                    for cells, dom, cod, values in t.place(index, hc):
                        rules, done = self._rules_at(t, values)
                        exhaustive = exhaustive and done
                        for rule in rules:
                            index.offer(out, rule, orientation, cells, dom,
                                        cod)
        # one sheet is always convex, and its rules depend on its type
        for ty, wires in by_type.items():
            for t, orientation in moves.sheets:
                rules, done = self._rules_at(t, ty)
                exhaustive = exhaustive and done
                for rule in rules:
                    for wi in wires:
                        out.append(Match(rule, orientation, (), (wi,), (wi,),
                                         key))
        for t, orientation in moves.bare:  # no sheet (A5), or two (A1)
            n = len(t.dom)
            if t.whole and host.wires:
                continue
            for types in itertools.product(by_type, repeat=n):
                if any(types.count(ty) > len(by_type[ty]) for ty in types):
                    continue  # too few distinct sheets of a type
                rules, done = self._rules_at(t, sum(types, ()))
                exhaustive = exhaustive and done
                for rule in rules:
                    for ws in itertools.product(*map(by_type.get, types)):
                        if len(set(ws)) == n:
                            index.offer(out, rule, orientation, (), ws, ws)
        return exhaustive

    def _rules_at(self, t: _Template, values: tuple
                  ) -> tuple[list[RewriteRule], bool]:
        """The rules whose side t denotes these host values, and whether
        the search for them was exhaustive."""
        found = self._memo.get((t, values))
        if found is None:
            envs: list[dict] = []
            exhaustive = self._solve(t, {}, list(zip(t.patterns, values)),
                                     envs)
            found = self._memo[t, values] = ([
                self._rule(t.schema.key, *(env[v] for v in t.args))
                for env in envs
                # a strand rule moves at least one box
                if not (t.strands and all(env[v].is_identity()
                                          for v in t.strands))],
                exhaustive)
        if t.schema.only == "collapse":  # the engine's pairs only
            return [rule for rule in found[0]
                    if rule.params[:2] in self.collapse], found[1]
        return found

    def _solve(self, t: _Template, env: dict, items: list,
               found: list) -> bool:
        """Append to found each completion of env under which every
        (pattern, value) of items holds; return whether every search below
        was exhaustive.  Layers, words and contents settle directly; a
        juxtaposed box is split (``split_beside``), an image box lifted
        (``lift_along``), an image word inverted (``_preimage_words``), and an
        argument no pattern fixes is enumerated: a functor from its source
        or target, a layer from the system."""
        while items:
            pending = []
            for pat, val in items:
                held = _settle(pat, val, env)
                if held is False:
                    return True
                if held is None:
                    pending.append((pat, val))
            fv = t.functor
            if (fv is not None and fv not in env and fv.source in env
                    and fv.target in env):
                env[fv] = self.system.functors.get((env[fv.source],
                                                    env[fv.target]))
                if env[fv] is None:
                    return True
            elif len(pending) == len(items):
                break
            items = pending
        for i, (pat, val) in enumerate(items):
            options = self._options(pat, val, env)
            if options is not None:
                options, exhaustive = options
                for extra in options:
                    if not self._solve(t, dict(env), extra + items[:i]
                                       + items[i + 1:], found):
                        exhaustive = False
                return exhaustive
        for var in t.free:
            if var in env:
                continue
            if type(var) is not _FunctorVar:
                values = sorted(self.system.layers)
            else:  # from its source if that is known, else its target
                end = "source" if var.source in env else "target"
                values = [f for _, f in sorted(self.system.functors.items())
                          if getattr(f, end) == env.get(getattr(var, end))]
            exhaustive = True
            for x in values:
                if not self._solve(t, dict(env), [(var, x)] + items, found):
                    exhaustive = False
            return exhaustive
        if not items:
            found.append(env)
        return True

    def _options(self, pat, val, env: dict) -> tuple[list, bool] | None:
        """The ways a pattern that ``_settle`` left open can hold, each as
        the (pattern, value) pairs it adds, and whether their search was
        exhaustive; None while that is open."""
        if type(pat) is tuple:
            img = pat[0]
            f = env.get(img.functor) if type(img) is _Img else None
            if len(pat) != 1 or f is None:
                return None
            words, exhaustive = _preimage_words(
                f, self.system.layer(f.source).gen_objects, val)
            return [[(img.var, w)] for w in words], exhaustive
        parts = [g for _, g in pat.slices]
        if len(parts) == 2:
            sig = self.system.signature(val.layer)
            return [list(zip(parts, split))
                    for split in internal.split_beside(val, sig)], True
        f, v = env.get(parts[0].functor), parts[0].var
        if f is None:
            return None
        lifts, exhaustive = lift_along(self.system, f, val, env.get(v.dom),
                                       env.get(v.cod))
        return [[(v, sigma)] for sigma in lifts], exhaustive

    def _match_boxeq(self, host: Diagram, key: tuple, out: list,
                     back: bool) -> bool:
        """Append each box's rewrites by its layer's equations to out, for
        ``anti_matches`` if ``back``; whether every occurrence search
        covered its box's interchange class."""
        exhaustive = True
        for ci, cell in enumerate(host.cells):
            if not isinstance(cell, InternalBox):
                continue
            sig = self.system.signature(cell.layer)
            content_gens = {g for _, g in cell.content.slices}
            for eq in self.system.layer(cell.layer).equations:
                for orientation, lhs, rhs in (("fwd", eq.lhs, eq.rhs),
                                              ("bwd", eq.rhs, eq.lhs)):
                    # an insertion, and backward a deletion (its inverse
                    # inserts), only with insertions on
                    if not (self.equation_insertions or (
                            lhs.slices and (rhs.slices or not back))):
                        continue
                    pattern_gens = {g for _, g in lhs.slices}
                    if pattern_gens and not pattern_gens <= content_gens:
                        continue
                    ck = (cell.content, eq.name, orientation)
                    if ck not in self._memo:
                        self._memo[ck] = internal.rewrite_occurrences(
                            cell.content, lhs, rhs, sig)
                    results = self._memo[ck]
                    exhaustive = exhaustive and results.complete
                    for res in results:
                        out.append(Match(self._rule("E", cell.layer, eq.name),
                                         orientation, (ci,), (), (), key,
                                         (ci, res)))
        return exhaustive

    # -- isolation

    def _isolation(self, d: Diagram) -> tuple[list[Match], bool]:
        """The matches that count for the isolation certificate, every match
        interacting with a cell plus the matches covering the whole diagram;
        and whether every search on d that a bound can cut was
        exhaustive."""
        host = canonicalize(d).diagram
        found, exhaustive = self._matches(host)
        return [m for m in found if m.cells or m.box_payload is not None
                or (not host.cells and len(set(m.dom_wires + m.cod_wires))
                    == len(host.wires))], exhaustive

    def is_isolated(self, d: Diagram) -> bool:
        """Certificate that no generated rewrite interacts with d.

        Goes through the rule families one by one against d's cells (rules
        whose matched side is a bare sheet wire count only when they cover
        the whole diagram).  Translated-box matching inverts functors by
        bounded search; if any search on d was cut by a bound the
        certificate conservatively fails.
        """
        found, exhaustive = self._isolation(d)
        return exhaustive and not found



# a sampled pool of more rule instances raises SearchTooLarge before any
# is built: five times the meet model's 20474 at its default word length
SAMPLED_INSTANCES = 100_000


def sample_instances(engine: RuleEngine,
                     words: dict[str, list[Word]]) -> list[RewriteRule]:
    """Concrete rule instances over given word pools, for tests and
    semantic verification, in the order of ``_SAMPLES``.  Raises
    SearchTooLarge when the pools give more than ``SAMPLED_INSTANCES``."""
    pairs = list(itertools.islice(_sampled(engine.system, words, _SAMPLES,
                                           ()), SAMPLED_INSTANCES + 1))
    if len(pairs) > SAMPLED_INSTANCES:
        raise SearchTooLarge(f"the word pools give more than "
                             f"{SAMPLED_INSTANCES} rule instances")
    return [engine.rule_instance(key, *args) for key, args in pairs]


def _sampled(sys: SystemOfLayers, words: dict[str, list[Word]],
             group: tuple, args: tuple):
    """(table key, arguments) of each instance a sampling group makes."""
    for choice in itertools.product(*(_domain(sys, words, kind, args)
                                      for kind in group[0])):
        for member in group[1:]:
            if isinstance(member, str):
                yield member, args + choice
            else:
                yield from _sampled(sys, words, member, args + choice)


def _domain(sys: SystemOfLayers, words: dict[str, list[Word]], kind: str,
            args: tuple) -> list:
    """The sampled values of an argument kind, after ``args``."""
    if kind == L:
        return sorted(sys.layers)
    if kind == F:
        return [f for _, f in sorted(sys.functors.items())]
    f = args[0] if isinstance(args[0], TranslationFunctor) else None
    home = args[0] if f is None else f.source
    lay = sys.layer(home)
    if kind == W:
        return words.get(home, [])
    if kind == Q:
        return [eq.name for eq in lay.equations]
    sig = lay.signature
    gens = [internal.generator(home, g.name, sig) for g in lay.gen_morphisms]
    # generators with identity images slide through refinements
    # invisibly; their instances normalize to bare triangles
    return [g for g in gens
            if f is None or translate_internal(sys, f, g).slices]


# ---------------------------------------------------------------------------
# derivation search and verification


def replay(start: Diagram, signatures: list[tuple],
           engine: RuleEngine | None = None) -> Derivation:
    """Rebuild a derivation from its step signatures, each picked among the
    matches on the state the steps before it reached and applied through
    ``apply_rule``; the default engine (every window collapse, equation
    insertions on) offers each step any engine can.  Raises
    InvalidDerivation at the first step that does not re-match."""
    if engine is None:
        engine = RuleEngine(start.system, start.system.functors,
                            equation_insertions=True)
    start = canonicalize(start).diagram
    current = start
    steps: list[Match] = []
    for sig in signatures:
        step = next((m for m in engine.matches(current)
                     if m.signature() == sig), None)
        if step is None:
            raise InvalidDerivation(f"step {sig[0]!r} does not re-match")
        steps.append(step)
        current = apply_rule(current, step)
    return Derivation(start, steps)


def verify_derivation(dv: Derivation) -> bool:
    """Replay the derivation; every step must re-match on the state it was
    found on and apply."""
    try:
        again = replay(dv.start, [m.signature() for m in dv.steps])
    except LayerPropError:
        return False
    return [m.host_key for m in again.steps] == \
        [m.host_key for m in dv.steps]


def _frame_labels(cells) -> tuple:
    """The sorted labels of the cells that are neither boxes nor sheet
    symmetries."""
    return tuple(sorted(c.label() for c in cells
                        if not isinstance(c, (InternalBox, dg.SheetSym))))


def _moved_frame(frame: tuple, host: Diagram, m: Match,
                 memo: dict) -> tuple:
    """The frame of ``_apply(host, m)``, from the frame of the canonical
    host, without building it.  ``memo`` is shared by the hosts of this
    frame; it maps a replacement and the removed cells' labels to the
    result.

    A diagram's frame is the sorted labels of its cells that are neither
    boxes nor sheet symmetries.  The quotient only drops sheet symmetries
    and fuses or erases boxes, so the result's frame is the host's, less
    the removed cells' labels, plus the replacement's; an E step changes
    one box and keeps the host's frame.
    """
    if m.box_payload is not None:
        return frame
    cells = m.cells
    key = (m.replacement, *[host.cells[ci].label() for ci in cells]
           ) if cells else m.replacement
    moved = memo.get(key)
    if moved is None:
        labels = list(frame)
        for label in _frame_labels([host.cells[ci] for ci in cells]):
            labels.remove(label)
        labels += _frame_labels(m.replacement.cells)
        moved = memo[key] = tuple(sorted(labels))
    return moved


def find_derivation(src: Diagram, dst: Diagram, budget: int = 10_000,
                    engine: RuleEngine | None = None,
                    rule_filter=None) -> Derivation | NotFound:
    """Meet-in-the-middle breadth-first search over canonical forms.

    The budget counts the moves a level considers across both frontiers,
    whether the search builds their states or not.  A returned derivation
    replays from src to dst; the search expands the smaller frontier first,
    deterministically.  ``rule_filter`` restricts the move set: it receives
    each move's RewriteRule and may veto it, so a move and its inverse pass
    or fail together.  A negative budget is rejected with
    MalformedInput.  A pair that an invariant weight of the engine's
    families separates (``weights``) is reachable at no budget; it returns
    ``NotFound(budget)``, carrying the weight, before any application.

    A level is expanded in two passes over the same moves.  A state can lie
    in the other tree only if its frame (``_moved_frame``, known before the
    state is built) is the frame of a state there, so the first pass builds
    only those moves and returns at the first that lands in the other tree,
    or ``NotFound(budget)`` if the budget ends inside the level.  Only a
    level that does neither is built in full, by the second pass, which
    reuses the first pass's states.  Budgets and verdicts are those of a
    single pass that builds every move.  A backward move whose result the
    quotient fused or erased cells of spends budget but joins neither tree:
    no forward move need lead back from it.  Every other backward edge
    enters the derivation as its own inverse (``_inverse``), at the image
    of the move's replacement, with no matching.
    """
    check_count("budget", budget)
    if src.sort != dst.sort:
        raise SortMismatch("derivation endpoints must be parallel")
    if engine is None:
        engine = RuleEngine(src.system)
    src_c, dst_c = canonicalize(src).diagram, canonicalize(dst).diagram
    k_src, k_dst = canonical_key(src_c), canonical_key(dst_c)
    if k_src == k_dst:
        return Derivation(src_c, [])
    from . import weights  # deferred: the semantics never loads it
    separating = weights.separating_weights(src_c, dst_c, engine.families)
    if separating:
        return NotFound(budget, separating)

    # each side's tree maps a state to (the state it came from, the move)
    trees: tuple[dict, dict] = ({k_src: None}, {k_dst: None})
    frontiers = [[k_src], [k_dst]]
    diagrams = {k: (d, _frame_labels(d.cells))  # key: (diagram, frame)
                for k, d in ((k_src, src_c), (k_dst, dst_c))}
    frames: tuple[set, set] = ({diagrams[k_src][1]}, {diagrams[k_dst][1]})
    memos: dict[tuple, dict] = {}  # per frame, for ``_moved_frame``

    def built(side: int, state: Diagram, m: Match) -> tuple:
        # the state and its key; no key for a backward result the quotient
        # reshaped (it only removes cells), which may have no way back
        nxt = _apply(state, m)
        whole = len(nxt.cells) == (len(state.cells) - len(m.cells)
                                   + len(m.replacement.cells))
        return nxt, (canonical_key(nxt) if whole or not side else None)

    def stitched(meet: tuple) -> Derivation:
        chain, k = [], meet
        while trees[0][k] is not None:
            k, m = trees[0][k]
            chain.insert(0, m)
        k = meet
        # ``built`` keeps only the backward results the quotient left whole
        while trees[1][k] is not None:
            k, m = trees[1][k]
            chain.append(_inverse(diagrams[k][0], m))
        return Derivation(src_c, chain)

    spent = 0
    while (frontiers[0] or frontiers[1]) and spent < budget:
        side = 1 if not frontiers[0] or (
            frontiers[1] and len(frontiers[1]) < len(frontiers[0])) else 0
        tree, other, meets = trees[side], trees[1 - side], frames[1 - side]
        level: list[tuple] = []
        for key in frontiers[side]:
            state, frame = diagrams[key]
            memo = memos.setdefault(frame, {})
            for m in (engine.matches, engine.anti_matches)[side](state):
                if rule_filter is not None and not rule_filter(m.rule):
                    continue
                if spent == budget:
                    return NotFound(budget)
                spent += 1
                nf, nxt, nk = _moved_frame(frame, state, m, memo), None, None
                if nf in meets:
                    nxt, nk = built(side, state, m)
                    if nk in other:  # the trees are disjoint: nk is new
                        tree[nk] = (key, m)
                        return stitched(nk)
                level.append((key, state, m, nf, nxt, nk))
        if spent == budget:
            return NotFound(budget)
        new: list[tuple] = []
        for key, state, m, nf, nxt, nk in level:
            if nxt is None:
                nxt, nk = built(side, state, m)
            if nk is None or nk in tree:
                continue
            tree[nk] = (key, m)
            diagrams[nk] = nxt, nf
            frames[side].add(nf)
            new.append(nk)
        frontiers[side] = new
    return NotFound(budget)


def _either_way(a: Diagram, b: Diagram, budget: int,
                engine: RuleEngine | None = None) -> Derivation | NotFound:
    """The derivation from a to b, else the one from b to a, else the last
    ``NotFound``; each search gets the whole budget and the same engine.  A
    weight separates both ways, so a ``NotFound`` carrying one ends it."""
    engine = engine or RuleEngine(a.system)
    for x, y in ((a, b), (b, a)):
        out = find_derivation(x, y, budget, engine)
        if isinstance(out, Derivation) or out.weights is not None:
            break
    return out
