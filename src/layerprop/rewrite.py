"""Rewrite cells between diagrams: rule families, matching, and search.

The rule set consists of four families over a validated system:

* F: a box slides through a refinement/coarsening (picking up the functor's
  image) or through pants/copants (splitting into an in-layer tensor).
* A: unit/counit pairs for pants/copants, refine/coarsen and cup/cap;
  one-directional.
* M: coherence of pants/copants/cup/cap with each other and with
  refine/coarsen; invertible.
* E: one invertible rule per layer equation, applied inside boxes.

Matching is host-driven: rather than enumerating the infinite instance
space, each family inspects the canonical host and yields concrete
instantiated matches.  Backward matching of F rules inverts a translation
functor by bounded search (``lift_along``).

Two deliberate asymmetries, both load-bearing for isolation certificates:
the cup/cap unit (A5) introduces a floating circle and is only offered on
the empty diagram, and ``is_isolated`` counts a match only when it touches
a cell of the diagram or covers the diagram whole.  Unit rules whiskered
onto interior sheet wires produce only window/pants dressing around the
diagram; the certificate follows the generator-by-generator reading and
ignores them, which ``check_counterfactual`` complements with an explicit
derivation search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from . import diagram as dg
from . import internal
from .diagram import (Cap, Coarsen, Copants, Cup, Diagram, InternalBox,
                      Pants, Refine, Wire, canonical_key, canonicalize)
from .errors import (InvalidDerivation, LayerPropError,
                     SideConditionViolation, SortMismatch, StaleMatch,
                     check_count)
from .internal import EPSILON, InternalDiagram, Word
from .theory import SystemOfLayers, TranslationFunctor, sheet, \
    translate_internal


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

    __slots__ = ("host", "key", "by_src", "by_dst", "succ")

    def __init__(self, host: Diagram, key: tuple) -> None:
        self.host = host
        self.key = key
        self.by_src: dict = {}
        self.by_dst: dict = {}
        self.succ: list[list[int]] = [[] for _ in host.cells]
        for wi, (src, dst, _) in enumerate(host.wires):
            self.by_src[src] = wi
            self.by_dst[dst] = wi
            if src[0] == "out" and dst[0] == "in":
                self.succ[src[1]].append(dst[1])

    def wire_in(self, ci: int, pi: int = 0) -> int:
        """The wire at input port ``pi`` of cell ``ci``."""
        return self.by_dst[("in", ci, pi)]

    def wire_out(self, ci: int, pi: int = 0) -> int:
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
                         new_cells, new_wires)


def apply_rule(d: Diagram, m: Match) -> Diagram:
    """Public application of any match, validated in full.

    Rejects a match found on another diagram (StaleMatch), one naming cells
    or wires the diagram lacks or that is not convex
    (SideConditionViolation), and one whose attachments do not fit the
    replacement (SortMismatch); the spliced diagram then goes through the
    validating ``canonicalize``.
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
    return canonicalize(Diagram(host.system, host.dom, host.cod, cells,
                                map(Wire._make, wires))).diagram


# ---------------------------------------------------------------------------
# bounded inversion of a translation functor


def _preimage_words(f: TranslationFunctor, src_objects: tuple[str, ...],
                    target: Word, eps_cap: int = 3
                    ) -> tuple[list[Word], bool]:
    """Source words whose image is exactly ``target``, in depth-first
    order (an explicit stack: a recursive closure would be a reference
    cycle)."""
    results: list[Word] = []
    complete = True
    images = {sym: f.word_image((sym,)) for sym in src_objects}
    ordered = sorted(src_objects)
    stack: list[tuple[int, Word, int]] = [(0, (), 0)]
    while stack:
        if len(results) >= 64:
            complete = False
            break
        pos, acc, eps_used = stack.pop()
        if pos == len(target):
            results.append(acc)
        children = []
        for s in ordered:
            img = images[s]
            if not img:
                if eps_used < eps_cap:
                    children.append((pos, acc + (s,), eps_used + 1))
            elif target[pos:pos + len(img)] == img:
                children.append((pos + len(img), acc + (s,), eps_used))
        stack.extend(reversed(children))
    seen: set[Word] = set()
    uniq = [w for w in results if not (w in seen or seen.add(w))]
    return uniq, complete


def lift_along(sys: SystemOfLayers, f: TranslationFunctor,
               target: InternalDiagram, dom_word: Word | None = None,
               cod_word: Word | None = None, state_cap: int = 5000,
               eps_slack: int = 4) -> tuple[list[InternalDiagram], bool]:
    """Internal diagrams over f.source whose translation is ``target``.

    Bounded breadth-first search; the second component reports whether the
    search was exhaustive (False once any cap was hit).
    """
    src_layer = sys.layer(f.source)
    sig = src_layer.signature
    tgt_sig = sys.signature(f.target)
    target_canon = internal.canonical_slices(target.slices, tgt_sig)
    target_counts: dict[str, int] = {}
    for _, g in target_canon:
        target_counts[g] = target_counts.get(g, 0) + 1
    gen_images = {g.name: f.gen_image(g.name) for g in src_layer.gen_morphisms}
    max_len = len(target_canon) + eps_slack

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
            if explored > state_cap:
                complete = False
                break
            cand = InternalDiagram(f.source, root, word, slices)
            img = internal.translate(cand, f.target, f.word_image,
                                     lambda g: gen_images[g], sig)
            img_canon = internal.canonical_slices(img.slices, tgt_sig)
            counts: dict[str, int] = {}
            ok = True
            for _, g in img_canon:
                counts[g] = counts.get(g, 0) + 1
                if counts[g] > target_counts.get(g, 0):
                    ok = False
                    break
            if not ok:
                continue
            if (img_canon == target_canon
                    and (cod_word is None or word == cod_word)):
                key = (root, internal.canonical_slices(slices, sig))
                results.setdefault(
                    key, InternalDiagram(f.source, root, word, key[1]))
            if len(slices) >= max_len:
                continue
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
                    st = (nxt_word, internal.canonical_slices(ext, tgt_sig))
                    if st not in seen:
                        seen.add(st)
                        queue.append((nxt_word, nxt_slices))
    ordered = [results[k] for k in sorted(results)]
    return ordered, complete


# ---------------------------------------------------------------------------
# the engine


FAMILIES = ("A", "E", "F", "M")


class RuleEngine:
    """Instantiates the rule families over one system and finds matches.

    ``families`` restricts matching to some of the rule families; only
    those families' matchers run.
    """

    def __init__(self, system: SystemOfLayers,
                 faithful_window_collapse: Iterable[tuple[str, str]] = (),
                 equation_insertions: bool = False,
                 families: Iterable[str] = FAMILIES):
        self.system = system
        self.families = frozenset(families)
        self.collapse = frozenset(faithful_window_collapse)
        # applying an equation in the direction whose pattern is an
        # identity inserts a cancelling pair anywhere in any box; those
        # moves never make progress toward a distinct diagram and would
        # defeat the isolation certificate, so they are off by default
        self.equation_insertions = equation_insertions
        self.functors_by_source: dict[str, list[TranslationFunctor]] = {}
        self.functors_by_target: dict[str, list[TranslationFunctor]] = {}
        for (s, t), f in sorted(system.functors.items()):
            self.functors_by_source.setdefault(s, []).append(f)
            self.functors_by_target.setdefault(t, []).append(f)
        self._lift_cache: dict = {}
        self._eq_cache: dict = {}
        # one instance per (builder, arguments): rules are frozen and
        # application only reads the replacement's cells and wires
        self._rules: dict[tuple, RewriteRule] = {}

    # -- rule construction

    def rule_a1(self, layer: str, alpha: Word, beta: Word) -> RewriteRule:
        sys = self.system
        lhs = dg.identity(sys, sheet(layer, alpha) + sheet(layer, beta))
        rhs = dg.seq_compose(dg.pants(sys, layer, alpha, beta),
                             dg.copants(sys, layer, alpha, beta))
        return RewriteRule(f"A1[{layer};{_wname(alpha)};{_wname(beta)}]",
                           "A", lhs, rhs, False, (layer, alpha, beta))

    def rule_a2(self, layer: str, alpha: Word, beta: Word) -> RewriteRule:
        sys = self.system
        lhs = dg.seq_compose(dg.copants(sys, layer, alpha, beta),
                             dg.pants(sys, layer, alpha, beta))
        rhs = dg.identity(sys, sheet(layer, alpha + beta))
        return RewriteRule(f"A2[{layer};{_wname(alpha)};{_wname(beta)}]",
                           "A", lhs, rhs, False, (layer, alpha, beta))

    def rule_a3(self, f: TranslationFunctor, word: Word) -> RewriteRule:
        sys = self.system
        lhs = dg.identity(sys, sheet(f.source, word))
        rhs = dg.seq_compose(dg.refine(sys, f.source, f.target, word),
                             dg.coarsen(sys, f.source, f.target, word))
        return RewriteRule(f"A3[{f.name};{_wname(word)}]", "A", lhs, rhs,
                           False, (f.source, f.target, word))

    def rule_a3c(self, f: TranslationFunctor, word: Word) -> RewriteRule:
        # left inverse of the window unit, for designated faithful functors;
        # excluded from semantic verification
        sys = self.system
        lhs = dg.seq_compose(dg.refine(sys, f.source, f.target, word),
                             dg.coarsen(sys, f.source, f.target, word))
        rhs = dg.identity(sys, sheet(f.source, word))
        return RewriteRule(f"A3c[{f.name};{_wname(word)}]", "A", lhs, rhs,
                           False, (f.source, f.target, word))

    def rule_a4(self, f: TranslationFunctor, word: Word) -> RewriteRule:
        sys = self.system
        lhs = dg.seq_compose(dg.coarsen(sys, f.source, f.target, word),
                             dg.refine(sys, f.source, f.target, word))
        rhs = dg.identity(sys, sheet(f.target, f.word_image(word)))
        return RewriteRule(f"A4[{f.name};{_wname(word)}]", "A", lhs, rhs,
                           False, (f.source, f.target, word))

    def rule_a5(self, layer: str) -> RewriteRule:
        sys = self.system
        lhs = dg.empty_diagram(sys)
        rhs = dg.seq_compose(dg.cup(sys, layer), dg.cap(sys, layer))
        return RewriteRule(f"A5[{layer}]", "A", lhs, rhs, False, (layer,))

    def rule_a6(self, layer: str) -> RewriteRule:
        sys = self.system
        lhs = dg.seq_compose(dg.cap(sys, layer), dg.cup(sys, layer))
        rhs = dg.identity(sys, sheet(layer, EPSILON))
        return RewriteRule(f"A6[{layer}]", "A", lhs, rhs, False, (layer,))

    def rule_f1(self, f: TranslationFunctor,
                sigma: InternalDiagram) -> RewriteRule:
        sys = self.system
        fsigma = translate_internal(sys, f, sigma)
        lhs = dg.seq_compose(dg.box(sys, sigma),
                             dg.refine(sys, f.source, f.target, sigma.cod))
        rhs = dg.seq_compose(dg.refine(sys, f.source, f.target, sigma.dom),
                             dg.box(sys, fsigma))
        return RewriteRule(f"F1[{f.name};{_isig(sigma)}]", "F", lhs, rhs,
                           True, (f.source, f.target))

    def rule_f2(self, f: TranslationFunctor,
                sigma: InternalDiagram) -> RewriteRule:
        sys = self.system
        fsigma = translate_internal(sys, f, sigma)
        lhs = dg.seq_compose(dg.coarsen(sys, f.source, f.target, sigma.dom),
                             dg.box(sys, sigma))
        rhs = dg.seq_compose(dg.box(sys, fsigma),
                             dg.coarsen(sys, f.source, f.target, sigma.cod))
        return RewriteRule(f"F2[{f.name};{_isig(sigma)}]", "F", lhs, rhs,
                           True, (f.source, f.target))

    def _strand(self, content: InternalDiagram) -> Diagram:
        if content.is_identity():
            return dg.identity(self.system, sheet(content.layer, content.dom))
        return dg.box(self.system, content)

    def rule_f3(self, layer: str, sigma: InternalDiagram,
                tau: InternalDiagram) -> RewriteRule:
        sys = self.system
        lhs = dg.seq_compose(
            dg.par_tensor(self._strand(sigma), self._strand(tau)),
            dg.pants(sys, layer, sigma.cod, tau.cod))
        rhs = dg.seq_compose(dg.pants(sys, layer, sigma.dom, tau.dom),
                             dg.box(sys, sigma.beside(tau)))
        return RewriteRule(f"F3[{layer};{_isig(sigma)};{_isig(tau)}]", "F",
                           lhs, rhs, True, (layer,))

    def rule_f4(self, layer: str, sigma: InternalDiagram,
                tau: InternalDiagram) -> RewriteRule:
        sys = self.system
        lhs = dg.seq_compose(
            dg.copants(sys, layer, sigma.dom, tau.dom),
            dg.par_tensor(self._strand(sigma), self._strand(tau)))
        rhs = dg.seq_compose(dg.box(sys, sigma.beside(tau)),
                             dg.copants(sys, layer, sigma.cod, tau.cod))
        return RewriteRule(f"F4[{layer};{_isig(sigma)};{_isig(tau)}]", "F",
                           lhs, rhs, True, (layer,))

    def rule_m1(self, layer: str, alpha: Word, beta: Word,
                gamma: Word) -> RewriteRule:
        sys = self.system
        lhs = dg.seq_compose(
            dg.par_tensor(dg.pants(sys, layer, alpha, beta),
                          dg.identity(sys, sheet(layer, gamma))),
            dg.pants(sys, layer, alpha + beta, gamma))
        rhs = dg.seq_compose(
            dg.par_tensor(dg.identity(sys, sheet(layer, alpha)),
                          dg.pants(sys, layer, beta, gamma)),
            dg.pants(sys, layer, alpha, beta + gamma))
        name = f"M1[{layer};{_wname(alpha)};{_wname(beta)};{_wname(gamma)}]"
        return RewriteRule(name, "M", lhs, rhs, True, (layer,))

    def rule_m2(self, layer: str, alpha: Word, beta: Word,
                gamma: Word) -> RewriteRule:
        sys = self.system
        lhs = dg.seq_compose(
            dg.copants(sys, layer, alpha + beta, gamma),
            dg.par_tensor(dg.copants(sys, layer, alpha, beta),
                          dg.identity(sys, sheet(layer, gamma))))
        rhs = dg.seq_compose(
            dg.copants(sys, layer, alpha, beta + gamma),
            dg.par_tensor(dg.identity(sys, sheet(layer, alpha)),
                          dg.copants(sys, layer, beta, gamma)))
        name = f"M2[{layer};{_wname(alpha)};{_wname(beta)};{_wname(gamma)}]"
        return RewriteRule(name, "M", lhs, rhs, True, (layer,))

    def rule_m3(self, layer: str, alpha: Word, side: str) -> RewriteRule:
        sys = self.system
        ident = dg.identity(sys, sheet(layer, alpha))
        if side == "l":
            lhs = dg.seq_compose(dg.par_tensor(dg.cup(sys, layer), ident),
                                 dg.pants(sys, layer, EPSILON, alpha))
        else:
            lhs = dg.seq_compose(dg.par_tensor(ident, dg.cup(sys, layer)),
                                 dg.pants(sys, layer, alpha, EPSILON))
        rhs = dg.identity(sys, sheet(layer, alpha))
        return RewriteRule(f"M3{side}[{layer};{_wname(alpha)}]", "M", lhs,
                           rhs, True, (layer, alpha))

    def rule_m4(self, layer: str, alpha: Word, side: str) -> RewriteRule:
        sys = self.system
        ident = dg.identity(sys, sheet(layer, alpha))
        if side == "l":
            lhs = dg.seq_compose(dg.copants(sys, layer, EPSILON, alpha),
                                 dg.par_tensor(dg.cap(sys, layer), ident))
        else:
            lhs = dg.seq_compose(dg.copants(sys, layer, alpha, EPSILON),
                                 dg.par_tensor(ident, dg.cap(sys, layer)))
        rhs = dg.identity(sys, sheet(layer, alpha))
        return RewriteRule(f"M4{side}[{layer};{_wname(alpha)}]", "M", lhs,
                           rhs, True, (layer, alpha))

    def rule_m5a(self, f: TranslationFunctor, alpha: Word,
                 beta: Word) -> RewriteRule:
        sys = self.system
        lhs = dg.seq_compose(
            dg.par_tensor(dg.refine(sys, f.source, f.target, alpha),
                          dg.refine(sys, f.source, f.target, beta)),
            dg.pants(sys, f.target, f.word_image(alpha), f.word_image(beta)))
        rhs = dg.seq_compose(dg.pants(sys, f.source, alpha, beta),
                             dg.refine(sys, f.source, f.target,
                                       alpha + beta))
        name = f"M5a[{f.name};{_wname(alpha)};{_wname(beta)}]"
        return RewriteRule(name, "M", lhs, rhs, True, (f.source, f.target))

    def rule_m5b(self, f: TranslationFunctor) -> RewriteRule:
        sys = self.system
        lhs = dg.seq_compose(dg.cup(sys, f.source),
                             dg.refine(sys, f.source, f.target, EPSILON))
        rhs = dg.cup(sys, f.target)
        return RewriteRule(f"M5b[{f.name}]", "M", lhs, rhs, True,
                           (f.source, f.target))

    def rule_m6a(self, f: TranslationFunctor, alpha: Word,
                 beta: Word) -> RewriteRule:
        sys = self.system
        lhs = dg.seq_compose(
            dg.copants(sys, f.target, f.word_image(alpha),
                       f.word_image(beta)),
            dg.par_tensor(dg.coarsen(sys, f.source, f.target, alpha),
                          dg.coarsen(sys, f.source, f.target, beta)))
        rhs = dg.seq_compose(dg.coarsen(sys, f.source, f.target,
                                        alpha + beta),
                             dg.copants(sys, f.source, alpha, beta))
        name = f"M6a[{f.name};{_wname(alpha)};{_wname(beta)}]"
        return RewriteRule(name, "M", lhs, rhs, True, (f.source, f.target))

    def rule_m6b(self, f: TranslationFunctor) -> RewriteRule:
        sys = self.system
        lhs = dg.seq_compose(dg.coarsen(sys, f.source, f.target, EPSILON),
                             dg.cap(sys, f.source))
        rhs = dg.cap(sys, f.target)
        return RewriteRule(f"M6b[{f.name}]", "M", lhs, rhs, True,
                           (f.source, f.target))

    def rule_e(self, layer: str, eq_name: str) -> RewriteRule:
        sys = self.system
        eq = {e.name: e for e in sys.layer(layer).equations}[eq_name]
        return RewriteRule(f"E[{layer};{eq_name}]", "E", dg.box(sys, eq.lhs),
                           dg.box(sys, eq.rhs), True, (layer, eq_name))

    def _rule(self, builder, *args) -> RewriteRule:
        """``builder(*args)``, built on first use and shared afterwards."""
        key = (builder.__func__, args)
        rule = self._rules.get(key)
        if rule is None:
            rule = self._rules[key] = builder(*args)
        return rule

    # -- host-driven matching

    @staticmethod
    def _sort_key(m: Match) -> tuple:
        payload = ()
        if m.box_payload is not None:
            payload = (m.box_payload[0], m.box_payload[1].slices)
        return (m.rule.name, m.orientation, m.cells, m.dom_wires,
                m.cod_wires, payload)

    def matches(self, d: Diagram) -> list[Match]:
        """Every rule application of the engine's families available on d,
        deterministically ordered."""
        host = canonicalize(d).diagram
        key = canonical_key(host)
        index = _HostIndex(host, key) if self.families - {"E"} else None
        found: list[Match] = []
        for family, matcher in (("E", self._match_boxeq),
                                ("F", self._match_f), ("A", self._match_a),
                                ("M", self._match_m)):
            if family in self.families:
                found.extend(matcher(host, key, index))
        found.sort(key=self._sort_key)
        return found

    def _match_boxeq(self, host: Diagram, key: tuple,
                     index: _HostIndex | None) -> list[Match]:
        out: list[Match] = []
        for ci, cell in enumerate(host.cells):
            if not isinstance(cell, InternalBox):
                continue
            sig = self.system.signature(cell.layer)
            content_gens = {g for _, g in cell.content.slices}
            for eq in self.system.layer(cell.layer).equations:
                rule = None
                for orientation, lhs, rhs in (("fwd", eq.lhs, eq.rhs),
                                              ("bwd", eq.rhs, eq.lhs)):
                    if not lhs.slices and not self.equation_insertions:
                        continue
                    pattern_gens = {g for _, g in lhs.slices}
                    if pattern_gens and not pattern_gens <= content_gens:
                        continue
                    ck = (cell.layer, cell.content.dom, cell.content.slices,
                          eq.name, orientation)
                    if ck not in self._eq_cache:
                        self._eq_cache[ck] = internal.rewrite_occurrences(
                            cell.content, lhs, rhs, sig)
                    results = self._eq_cache[ck]
                    if results and rule is None:
                        rule = self._rule(self.rule_e, cell.layer, eq.name)
                    for res in results:
                        out.append(Match(rule, orientation, (ci,), (), (),
                                         key, (ci, res)))
        return out

    def _lift(self, f: TranslationFunctor, target: InternalDiagram,
              dom_word: Word | None, cod_word: Word | None):
        ck = (f.source, f.target, target.dom, target.cod, target.slices,
              dom_word, cod_word)
        if ck not in self._lift_cache:
            self._lift_cache[ck] = lift_along(self.system, f, target,
                                              dom_word, cod_word)
        return self._lift_cache[ck]

    def _match_f(self, host: Diagram, key: tuple,
                 index: _HostIndex) -> list[Match]:
        out: list[Match] = []
        wire_in, wire_out, offer = index.wire_in, index.wire_out, index.offer
        for ci, cell in enumerate(host.cells):
            if isinstance(cell, InternalBox):
                sig = self.system.signature(cell.layer)
                dst = host.wires[wire_out(ci)].dst
                nxt = host.cells[dst[1]] if dst[0] == "in" else None
                # F1 fwd: box feeding refine
                if isinstance(nxt, Refine) and nxt.source == cell.layer:
                    f = self.system.functor(nxt.source, nxt.target)
                    rule = self._rule(self.rule_f1, f, cell.content)
                    offer(out, rule, "fwd", (ci, dst[1]),
                          (wire_in(ci),), (wire_out(dst[1]),))
                # F2 bwd: image box feeding coarsen
                if isinstance(nxt, Coarsen) and nxt.target == cell.layer:
                    f = self.system.functor(nxt.source, nxt.target)
                    lifts, _ = self._lift(f, cell.content, None, nxt.word)
                    for sigma in lifts:
                        rule = self._rule(self.rule_f2, f, sigma)
                        offer(out, rule, "bwd", (ci, dst[1]),
                              (wire_in(ci),), (wire_out(dst[1]),))
                # F4 bwd: box feeding copants
                if isinstance(nxt, Copants) and nxt.layer == cell.layer:
                    for top, bottom in internal.split_beside(cell.content,
                                                             sig):
                        if (top.cod, bottom.cod) != (nxt.alpha, nxt.beta):
                            continue
                        if top.is_identity() and bottom.is_identity():
                            continue
                        rule = self._rule(self.rule_f4, cell.layer, top,
                                          bottom)
                        offer(out, rule, "bwd", (ci, dst[1]),
                              (wire_in(ci),),
                              (wire_out(dst[1], 0), wire_out(dst[1], 1)))
                # F3 bwd: pants feeding box
                src = host.wires[wire_in(ci)].src
                prev = host.cells[src[1]] if src[0] == "out" else None
                if isinstance(prev, Pants) and prev.layer == cell.layer:
                    for top, bottom in internal.split_beside(cell.content,
                                                             sig):
                        if (top.dom, bottom.dom) != (prev.alpha, prev.beta):
                            continue
                        if top.is_identity() and bottom.is_identity():
                            continue
                        rule = self._rule(self.rule_f3, cell.layer, top,
                                          bottom)
                        offer(out, rule, "bwd", (src[1], ci),
                              (wire_in(src[1], 0), wire_in(src[1], 1)),
                              (wire_out(ci),))
            elif isinstance(cell, Refine):
                # F1 bwd: refine feeding a box over the target layer
                dst = host.wires[wire_out(ci)].dst
                nxt = host.cells[dst[1]] if dst[0] == "in" else None
                if isinstance(nxt, InternalBox) and nxt.layer == cell.target:
                    f = self.system.functor(cell.source, cell.target)
                    lifts, _ = self._lift(f, nxt.content, cell.word, None)
                    for sigma in lifts:
                        rule = self._rule(self.rule_f1, f, sigma)
                        offer(out, rule, "bwd", (ci, dst[1]),
                              (wire_in(ci),), (wire_out(dst[1]),))
            elif isinstance(cell, Coarsen):
                # F2 fwd: coarsen feeding a box over the source layer
                dst = host.wires[wire_out(ci)].dst
                nxt = host.cells[dst[1]] if dst[0] == "in" else None
                if isinstance(nxt, InternalBox) and nxt.layer == cell.source:
                    f = self.system.functor(cell.source, cell.target)
                    rule = self._rule(self.rule_f2, f, nxt.content)
                    offer(out, rule, "fwd", (ci, dst[1]),
                          (wire_in(ci),), (wire_out(dst[1]),))
            elif isinstance(cell, Pants):
                # F3 fwd: strands into pants, at least one a box
                w0, w1 = wire_in(ci, 0), wire_in(ci, 1)
                s0, s1 = host.wires[w0].src, host.wires[w1].src
                for c0, b0 in self._strands(host, s0, cell.alpha, cell.layer):
                    for c1, b1 in self._strands(host, s1, cell.beta,
                                                cell.layer):
                        if c0.is_identity() and c1.is_identity():
                            continue
                        rule = self._rule(self.rule_f3, cell.layer, c0, c1)
                        cells = tuple(x for x in (b0, b1, ci)
                                      if x is not None)
                        d0 = wire_in(b0) if b0 is not None else w0
                        d1 = wire_in(b1) if b1 is not None else w1
                        offer(out, rule, "fwd", cells,
                              (d0, d1), (wire_out(ci),))
            elif isinstance(cell, Copants):
                # F4 fwd: copants into strands, at least one a box
                w0, w1 = wire_out(ci, 0), wire_out(ci, 1)
                d0, d1 = host.wires[w0].dst, host.wires[w1].dst
                for c0, b0 in self._strands(host, d0, cell.alpha, cell.layer):
                    for c1, b1 in self._strands(host, d1, cell.beta,
                                                cell.layer):
                        if c0.is_identity() and c1.is_identity():
                            continue
                        rule = self._rule(self.rule_f4, cell.layer, c0, c1)
                        cells = tuple(x for x in (ci, b0, b1)
                                      if x is not None)
                        e0 = wire_out(b0) if b0 is not None else w0
                        e1 = wire_out(b1) if b1 is not None else w1
                        offer(out, rule, "fwd", cells,
                              (wire_in(ci),), (e0, e1))
        return out

    @staticmethod
    def _strands(host, end, word, layer):
        """Strand contents at the far end of a pants/copants leg: identity,
        or the box of ``layer`` whose port ``end`` is."""
        opts = [(internal.identity(layer, word), None)]
        if end[0] in ("in", "out"):
            cell = host.cells[end[1]]
            if isinstance(cell, InternalBox) and cell.layer == layer:
                opts.append((cell.content, end[1]))
        return opts

    def _match_a(self, host: Diagram, key: tuple,
                 index: _HostIndex) -> list[Match]:
        out: list[Match] = []
        wire_in, wire_out, offer = index.wire_in, index.wire_out, index.offer
        for wi, w in enumerate(host.wires):
            for wj, v in enumerate(host.wires):
                if wi == wj or w.type[0] != v.type[0]:
                    continue
                rule = self._rule(self.rule_a1, w.type[0], w.type[1],
                                  v.type[1])
                offer(out, rule, "fwd", (), (wi, wj),
                      (wi, wj))
        for wi, w in enumerate(host.wires):
            layer, word = w.type
            for f in self.functors_by_source.get(layer, ()):
                out.append(Match(self._rule(self.rule_a3, f, word), "fwd",
                                 (), (wi,), (wi,), key))
        for ci, cell in enumerate(host.cells):
            if isinstance(cell, Copants):
                w0, w1 = wire_out(ci), wire_out(ci, 1)
                d0, d1 = host.wires[w0].dst, host.wires[w1].dst
                if (d0[0] == "in" and d1[0] == "in" and d0[1] == d1[1]
                        and d0[2] == 0 and d1[2] == 1):
                    nxt = host.cells[d0[1]]
                    if isinstance(nxt, Pants) and \
                            (nxt.alpha, nxt.beta) == (cell.alpha, cell.beta):
                        rule = self._rule(self.rule_a2, cell.layer,
                                          cell.alpha, cell.beta)
                        offer(out, rule, "fwd", (ci, d0[1]),
                              (wire_in(ci),), (wire_out(d0[1]),))
            elif isinstance(cell, Coarsen):
                dst = host.wires[wire_out(ci)].dst
                nxt = host.cells[dst[1]] if dst[0] == "in" else None
                if (isinstance(nxt, Refine)
                        and (nxt.source, nxt.target, nxt.word)
                        == (cell.source, cell.target, cell.word)):
                    f = self.system.functor(cell.source, cell.target)
                    rule = self._rule(self.rule_a4, f, cell.word)
                    offer(out, rule, "fwd", (ci, dst[1]),
                          (wire_in(ci),), (wire_out(dst[1]),))
            elif isinstance(cell, Refine):
                if (cell.source, cell.target) in self.collapse:
                    dst = host.wires[wire_out(ci)].dst
                    nxt = host.cells[dst[1]] if dst[0] == "in" else None
                    if (isinstance(nxt, Coarsen)
                            and (nxt.source, nxt.target, nxt.word)
                            == (cell.source, cell.target, cell.word)):
                        f = self.system.functor(cell.source, cell.target)
                        rule = self._rule(self.rule_a3c, f, cell.word)
                        offer(out, rule, "fwd", (ci, dst[1]),
                              (wire_in(ci),), (wire_out(dst[1]),))
            elif isinstance(cell, Cap):
                for cj, other in enumerate(host.cells):
                    if isinstance(other, Cup) and other.layer == cell.layer:
                        rule = self._rule(self.rule_a6, cell.layer)
                        offer(out, rule, "fwd", (ci, cj),
                              (wire_in(ci),), (wire_out(cj),))
        if not host.cells and not host.wires:
            for layer in sorted(self.system.layers):
                out.append(Match(self._rule(self.rule_a5, layer), "fwd",
                                 (), (), (), key))
        return out

    def _match_m(self, host: Diagram, key: tuple,
                 index: _HostIndex) -> list[Match]:
        out: list[Match] = []
        wire_in, wire_out, offer = index.wire_in, index.wire_out, index.offer
        for ci, cell in enumerate(host.cells):
            if isinstance(cell, Pants):
                w0, w1 = wire_in(ci, 0), wire_in(ci, 1)
                wout = wire_out(ci)
                s0, s1 = host.wires[w0].src, host.wires[w1].src
                p0 = host.cells[s0[1]] if s0[0] == "out" else None
                p1 = host.cells[s1[1]] if s1[0] == "out" else None
                if (isinstance(p0, Pants) and s0[2] == 0
                        and p0.layer == cell.layer
                        and cell.alpha == p0.alpha + p0.beta):
                    rule = self._rule(self.rule_m1, cell.layer, p0.alpha,
                                      p0.beta, cell.beta)
                    offer(out, rule, "fwd", (s0[1], ci),
                          (wire_in(s0[1], 0), wire_in(s0[1], 1), w1),
                          (wout,))
                if (isinstance(p1, Pants) and s1[2] == 0
                        and p1.layer == cell.layer
                        and cell.beta == p1.alpha + p1.beta):
                    rule = self._rule(self.rule_m1, cell.layer, cell.alpha,
                                      p1.alpha, p1.beta)
                    offer(out, rule, "bwd", (s1[1], ci),
                          (w0, wire_in(s1[1], 0), wire_in(s1[1], 1)),
                          (wout,))
                if (isinstance(p0, Cup) and cell.alpha == EPSILON
                        and p0.layer == cell.layer):
                    rule = self._rule(self.rule_m3, cell.layer, cell.beta, "l")
                    offer(out, rule, "fwd", (s0[1], ci),
                          (w1,), (wout,))
                if (isinstance(p1, Cup) and cell.beta == EPSILON
                        and p1.layer == cell.layer):
                    rule = self._rule(self.rule_m3, cell.layer, cell.alpha,
                                      "r")
                    offer(out, rule, "fwd", (s1[1], ci),
                          (w0,), (wout,))
                if (isinstance(p0, Refine) and isinstance(p1, Refine)
                        and s0[1] != s1[1]
                        and (p0.source, p0.target) == (p1.source, p1.target)
                        and p0.target == cell.layer):
                    f = self.system.functor(p0.source, p0.target)
                    rule = self._rule(self.rule_m5a, f, p0.word, p1.word)
                    offer(out, rule, "fwd",
                          (s0[1], s1[1], ci),
                          (wire_in(s0[1]), wire_in(s1[1])), (wout,))
                dsto = host.wires[wout].dst
                n = host.cells[dsto[1]] if dsto[0] == "in" else None
                if (isinstance(n, Refine) and n.source == cell.layer
                        and n.word == cell.alpha + cell.beta):
                    f = self.system.functor(n.source, n.target)
                    rule = self._rule(self.rule_m5a, f, cell.alpha, cell.beta)
                    offer(out, rule, "bwd", (ci, dsto[1]),
                          (w0, w1), (wire_out(dsto[1]),))
            elif isinstance(cell, Copants):
                win = wire_in(ci)
                w0, w1 = wire_out(ci, 0), wire_out(ci, 1)
                d0, d1 = host.wires[w0].dst, host.wires[w1].dst
                n0 = host.cells[d0[1]] if d0[0] == "in" else None
                n1 = host.cells[d1[1]] if d1[0] == "in" else None
                if (isinstance(n0, Copants) and d0[2] == 0
                        and n0.layer == cell.layer
                        and cell.alpha == n0.alpha + n0.beta):
                    rule = self._rule(self.rule_m2, cell.layer, n0.alpha,
                                      n0.beta, cell.beta)
                    offer(out, rule, "fwd", (ci, d0[1]),
                          (win,),
                          (wire_out(d0[1], 0), wire_out(d0[1], 1), w1))
                if (isinstance(n1, Copants) and d1[2] == 0
                        and n1.layer == cell.layer
                        and cell.beta == n1.alpha + n1.beta):
                    rule = self._rule(self.rule_m2, cell.layer, cell.alpha,
                                      n1.alpha, n1.beta)
                    offer(out, rule, "bwd", (ci, d1[1]),
                          (win,),
                          (w0, wire_out(d1[1], 0), wire_out(d1[1], 1)))
                if (isinstance(n0, Cap) and cell.alpha == EPSILON
                        and n0.layer == cell.layer):
                    rule = self._rule(self.rule_m4, cell.layer, cell.beta, "l")
                    offer(out, rule, "fwd", (ci, d0[1]),
                          (win,), (w1,))
                if (isinstance(n1, Cap) and cell.beta == EPSILON
                        and n1.layer == cell.layer):
                    rule = self._rule(self.rule_m4, cell.layer, cell.alpha,
                                      "r")
                    offer(out, rule, "fwd", (ci, d1[1]),
                          (win,), (w0,))
                if (isinstance(n0, Coarsen) and isinstance(n1, Coarsen)
                        and d0[1] != d1[1]
                        and (n0.source, n0.target) == (n1.source, n1.target)
                        and n0.target == cell.layer):
                    f = self.system.functor(n0.source, n0.target)
                    rule = self._rule(self.rule_m6a, f, n0.word, n1.word)
                    offer(out, rule, "fwd",
                          (ci, d0[1], d1[1]), (win,),
                          (wire_out(d0[1]), wire_out(d1[1])))
                srci = host.wires[win].src
                p = host.cells[srci[1]] if srci[0] == "out" else None
                if (isinstance(p, Coarsen) and p.source == cell.layer
                        and p.word == cell.alpha + cell.beta):
                    f = self.system.functor(p.source, p.target)
                    rule = self._rule(self.rule_m6a, f, cell.alpha, cell.beta)
                    offer(out, rule, "bwd", (srci[1], ci),
                          (wire_in(srci[1]),), (w0, w1))
            elif isinstance(cell, Cup):
                wo = wire_out(ci)
                dst = host.wires[wo].dst
                n = host.cells[dst[1]] if dst[0] == "in" else None
                if (isinstance(n, Refine) and n.source == cell.layer
                        and n.word == EPSILON):
                    f = self.system.functor(n.source, n.target)
                    rule = self._rule(self.rule_m5b, f)
                    offer(out, rule, "fwd", (ci, dst[1]), (),
                          (wire_out(dst[1]),))
                for f in self.functors_by_target.get(cell.layer, ()):
                    rule = self._rule(self.rule_m5b, f)
                    offer(out, rule, "bwd", (ci,), (), (wo,))
            elif isinstance(cell, Cap):
                win = wire_in(ci)
                src = host.wires[win].src
                p = host.cells[src[1]] if src[0] == "out" else None
                if (isinstance(p, Coarsen) and p.source == cell.layer
                        and p.word == EPSILON):
                    f = self.system.functor(p.source, p.target)
                    rule = self._rule(self.rule_m6b, f)
                    offer(out, rule, "fwd", (src[1], ci),
                          (wire_in(src[1]),), ())
                for f in self.functors_by_target.get(cell.layer, ()):
                    rule = self._rule(self.rule_m6b, f)
                    offer(out, rule, "bwd", (ci,), (win,), ())
        for wi, w in enumerate(host.wires):
            layer, word = w.type
            for side in ("l", "r"):
                for builder in (self.rule_m3, self.rule_m4):
                    out.append(Match(self._rule(builder, layer, word, side),
                                     "bwd", (), (wi,), (wi,), key))
        return out

    # -- anti-moves: locate right-hand sides of one-directional rules

    def anti_matches(self, d: Diagram) -> list[Match]:
        """Predecessor moves: the mechanical inverses of A-family rules
        (none when the engine leaves out the A family)."""
        if "A" not in self.families:
            return []
        host = canonicalize(d).diagram
        key = canonical_key(host)
        out: list[Match] = []
        index = _HostIndex(host, key)
        wire_in, wire_out, offer = index.wire_in, index.wire_out, index.offer
        for ci, cell in enumerate(host.cells):
            if isinstance(cell, Pants):
                dst = host.wires[wire_out(ci)].dst
                nxt = (host.cells[dst[1]] if dst[0] == "in" and dst[2] == 0
                       else None)
                if isinstance(nxt, Copants) and \
                        (nxt.alpha, nxt.beta) == (cell.alpha, cell.beta):
                    rule = self._rule(self.rule_a1, cell.layer,
                                      cell.alpha, cell.beta)
                    offer(out, rule, "bwd", (ci, dst[1]),
                          (wire_in(ci), wire_in(ci, 1)),
                          (wire_out(dst[1]), wire_out(dst[1], 1)))
            elif isinstance(cell, Refine):
                dst = host.wires[wire_out(ci)].dst
                nxt = host.cells[dst[1]] if dst[0] == "in" else None
                if (isinstance(nxt, Coarsen)
                        and (nxt.source, nxt.target, nxt.word)
                        == (cell.source, cell.target, cell.word)):
                    f = self.system.functor(cell.source, cell.target)
                    rule = self._rule(self.rule_a3, f, cell.word)
                    offer(out, rule, "bwd", (ci, dst[1]),
                          (wire_in(ci),), (wire_out(dst[1]),))
            elif isinstance(cell, Cup):
                # anti-A5 mirrors the forward restriction: the predecessor
                # must be the empty diagram
                if len(host.cells) == 2 and len(host.wires) == 1:
                    dst = host.wires[wire_out(ci)].dst
                    nxt = host.cells[dst[1]] if dst[0] == "in" else None
                    if isinstance(nxt, Cap) and nxt.layer == cell.layer:
                        rule = self._rule(self.rule_a5, cell.layer)
                        out.append(Match(rule, "bwd", (ci, dst[1]), (),
                                         (), key))
        for wi, w in enumerate(host.wires):
            layer, word = w.type
            for f in self.functors_by_target.get(layer, ()):
                pres, _ = _preimage_words(
                    f, self.system.layer(f.source).gen_objects, word)
                for src_word in pres:
                    out.append(Match(self._rule(self.rule_a4, f, src_word),
                                     "bwd", (), (wi,), (wi,), key))
            if word == EPSILON:
                out.append(Match(self._rule(self.rule_a6, layer), "bwd",
                                 (), (wi,), (wi,), key))
            for f in self.functors_by_source.get(layer, ()):
                if (f.source, f.target) in self.collapse:
                    out.append(Match(self._rule(self.rule_a3c, f, word),
                                     "bwd", (), (wi,), (wi,), key))
        out.sort(key=self._sort_key)
        return out

    # -- isolation

    def isolation_matches(self, d: Diagram) -> list[Match]:
        """Matches that count for the isolation certificate: every match
        interacting with a cell, plus matches covering the whole diagram."""
        host = canonicalize(d).diagram
        out = []
        n_wires = len(host.wires)
        for m in self.matches(host):
            if m.cells or m.box_payload is not None:
                out.append(m)
                continue
            touched = set(m.dom_wires) | set(m.cod_wires)
            if not host.cells and len(touched) == n_wires:
                out.append(m)
        return out

    def is_isolated(self, d: Diagram) -> bool:
        """Certificate that no generated rewrite interacts with d.

        Goes through the rule families one by one against d's cells (rules
        whose matched side is a bare sheet wire count only when they cover
        the whole diagram).  Translated-box matching inverts functors by
        bounded search; if a search hits its cap the certificate
        conservatively fails.
        """
        host = canonicalize(d).diagram
        if self.isolation_matches(host):
            return False
        wire_out = _HostIndex(host, None).wire_out
        for ci, cell in enumerate(host.cells):
            dst = host.wires[wire_out(ci)].dst \
                if cell.out_ports() else (None,)
            nxt = host.cells[dst[1]] if dst[0] == "in" else None
            if isinstance(cell, InternalBox) and isinstance(nxt, Coarsen) \
                    and nxt.target == cell.layer:
                f = self.system.functor(nxt.source, nxt.target)
                _, ok = self._lift(f, cell.content, None, nxt.word)
                if not ok:
                    return False
            if isinstance(cell, Refine) and isinstance(nxt, InternalBox) \
                    and nxt.layer == cell.target:
                f = self.system.functor(cell.source, cell.target)
                _, ok = self._lift(f, nxt.content, cell.word, None)
                if not ok:
                    return False
        return True


def sample_instances(engine: RuleEngine,
                     words: dict[str, list[Word]]) -> list[RewriteRule]:
    """Concrete rule instances over given word pools, for tests and
    semantic verification."""
    sys = engine.system
    out: list[RewriteRule] = []
    for layer in sorted(sys.layers):
        pool = words.get(layer, [])
        lay = sys.layer(layer)
        sig = lay.signature
        gens = [internal.generator(layer, g.name, sig)
                for g in lay.gen_morphisms]
        for a in pool:
            for b in pool:
                out.append(engine.rule_a1(layer, a, b))
                out.append(engine.rule_a2(layer, a, b))
        out.append(engine.rule_a5(layer))
        out.append(engine.rule_a6(layer))
        for g1 in gens:
            for g2 in gens:
                out.append(engine.rule_f3(layer, g1, g2))
                out.append(engine.rule_f4(layer, g1, g2))
        for a in pool:
            for b in pool:
                for c in pool:
                    out.append(engine.rule_m1(layer, a, b, c))
                    out.append(engine.rule_m2(layer, a, b, c))
            for side in ("l", "r"):
                out.append(engine.rule_m3(layer, a, side))
                out.append(engine.rule_m4(layer, a, side))
        for eq in lay.equations:
            out.append(engine.rule_e(layer, eq.name))
    for (s, t), f in sorted(sys.functors.items()):
        pool = words.get(s, [])
        lay = sys.layer(s)
        sig = lay.signature
        gens = [internal.generator(s, g.name, sig) for g in lay.gen_morphisms]
        for w in pool:
            out.append(engine.rule_a3(f, w))
            out.append(engine.rule_a4(f, w))
        for g in gens:
            # generators with identity images slide through refinements
            # invisibly; their instances normalize to bare triangles
            if translate_internal(sys, f, g).slices:
                out.append(engine.rule_f1(f, g))
                out.append(engine.rule_f2(f, g))
        for a in pool:
            for b in pool:
                out.append(engine.rule_m5a(f, a, b))
                out.append(engine.rule_m6a(f, a, b))
        out.append(engine.rule_m5b(f))
        out.append(engine.rule_m6b(f))
    return out


# ---------------------------------------------------------------------------
# derivation search and verification


def replay(start: Diagram, signatures: list[tuple],
           engine: RuleEngine | None = None) -> Derivation:
    """Rebuild a derivation from its step signatures, each re-matched on
    the state the steps before it reached.  Without an engine, the settings
    come from the steps: collapse pairs from ``A3c`` names, and equation
    insertions if an E step matches an equation's identity side.  Raises
    InvalidDerivation at the first step that does not re-match."""
    if engine is None:
        named = {sig[:2] for sig in signatures}
        collapse = set()
        for name, _ in named:
            if (name or "").startswith("A3c["):  # "A3c[SRC>TGT;word]"
                src, _, tgt = name[4:].partition(";")[0].partition(">")
                collapse.add((src, tgt))
        inserting = {(f"E[{layer};{eq.name}]", orientation)
                     for layer, lay in start.system.layers.items()
                     for eq in lay.equations
                     for orientation, side in (("fwd", eq.lhs),
                                               ("bwd", eq.rhs))
                     if not side.slices}
        engine = RuleEngine(start.system, collapse, bool(named & inserting))
    start = canonicalize(start).diagram
    current = start
    steps: list[Match] = []
    for sig in signatures:
        step = next((m for m in engine.matches(current)
                     if m.signature() == sig), None)
        if step is None:
            raise InvalidDerivation(f"step {sig[0]!r} does not re-match")
        steps.append(step)
        current = _apply(current, step)
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


def find_derivation(src: Diagram, dst: Diagram, budget: int = 10_000,
                    engine: RuleEngine | None = None,
                    rule_filter=None) -> Derivation | NotFound:
    """Meet-in-the-middle breadth-first search over canonical forms.

    The budget counts rule applications across both frontiers.  A returned
    derivation replays from src to dst; the search expands the smaller
    frontier first, deterministically.  ``rule_filter`` restricts the move
    set (it receives each Match and may veto it).  A negative budget is
    rejected with MalformedInput.
    """
    check_count("budget", budget)
    if src.sort != dst.sort:
        raise SortMismatch("derivation endpoints must be parallel")
    if engine is None:
        engine = RuleEngine(src.system)
    src_c = canonicalize(src).diagram
    dst_c = canonicalize(dst).diagram
    k_src, k_dst = canonical_key(src_c), canonical_key(dst_c)
    if k_src == k_dst:
        return Derivation(src_c, [])

    spent = 0
    fwd_tree: dict[tuple, tuple[tuple, Match] | None] = {k_src: None}
    bwd_tree: dict[tuple, tuple | None] = {k_dst: None}
    diagrams: dict[tuple, Diagram] = {k_src: src_c, k_dst: dst_c}
    frontier_f: list[tuple] = [k_src]
    frontier_b: list[tuple] = [k_dst]

    def allowed(moves):
        if rule_filter is None:
            return moves
        return [m for m in moves if rule_filter(m)]

    def stitched(meet: tuple) -> Derivation:
        chain: list[Match] = []
        k = meet
        while fwd_tree[k] is not None:
            prev, m = fwd_tree[k]
            chain.append(m)
            k = prev
        chain.reverse()
        k = meet
        while bwd_tree[k] is not None:
            nxt = bwd_tree[k]
            state = diagrams[k]
            found = None
            for m in allowed(engine.matches(state)):
                if canonical_key(_apply(state, m)) == nxt:
                    found = m
                    break
            if found is None:
                raise AssertionError("backward edge has no forward replay")
            chain.append(found)
            k = nxt
        return Derivation(src_c, chain)

    while (frontier_f or frontier_b) and spent < budget:
        expand_forward = bool(frontier_f) and (
            not frontier_b or len(frontier_f) <= len(frontier_b))
        if expand_forward:
            new_f: list[tuple] = []
            for key in frontier_f:
                state = diagrams[key]
                for m in allowed(engine.matches(state)):
                    if spent >= budget:
                        break
                    spent += 1
                    nxt = _apply(state, m)
                    nk = canonical_key(nxt)
                    if nk in fwd_tree:
                        continue
                    fwd_tree[nk] = (key, m)
                    diagrams.setdefault(nk, nxt)
                    if nk in bwd_tree:
                        return stitched(nk)
                    new_f.append(nk)
            frontier_f = new_f
        else:
            new_b: list[tuple] = []
            for key in frontier_b:
                state = diagrams[key]
                # a backward move needs a forward inverse the engine
                # offers; an equation applied toward its identity side
                # inverts to an insertion
                moves = ([m for m in engine.matches(state)
                          if m.rule.bidirectional
                          and (engine.equation_insertions
                               or m.box_payload is None
                               or m.replacement.cells[0].content.slices)]
                         + engine.anti_matches(state))
                for m in allowed(moves):
                    if spent >= budget:
                        break
                    spent += 1
                    pred = _apply(state, m)
                    pk = canonical_key(pred)
                    if pk in bwd_tree:
                        continue
                    bwd_tree[pk] = key
                    diagrams.setdefault(pk, pred)
                    if pk in fwd_tree:
                        return stitched(pk)
                    new_b.append(pk)
            frontier_b = new_b
    return NotFound(budget)
