"""A prefix-and-parallel process calculus with two operational layers.

Processes are nil, action prefixes, and binary parallel compositions with
their bracketing preserved.  The reduction view fires one complementary
pair of top-level prefixes per step, up to the usual structural congruence;
the transition view labels every firable action and synchronizes
complementary pairs silently.  Both views become layers of one system: the
upper layer's objects are bracketed process trees and the lower layer's
objects are (process, pending action) states; the translation flattens a
process into its thread states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import diagram as dg
from . import explain
from . import rewrite as rw
from .errors import MAX_NESTING, FixtureInvalid, MalformedInput
from .internal import InternalDiagram, Word
from .theory import (Equation, LayerPresentation, MorphismGen,
                     SystemOfLayers, TranslationFunctor, translate_internal,
                     validate_system)

TAU = "tau"


@dataclass(frozen=True)
class Nil:
    pass


@dataclass(frozen=True)
class Prefix:
    action: str  # "x" or co-name "x'"
    body: "Process"


@dataclass(frozen=True)
class Par:
    left: "Process"
    right: "Process"


Process = Nil | Prefix | Par

NIL = Nil()


def co(action: str) -> str:
    """The complementary name; involutive."""
    return action[:-1] if action.endswith("'") else action + "'"


def _prefixes(p: Process) -> tuple[list[str], Process]:
    """The actions of a prefix chain and the process after them; a loop,
    because a chain nests as deep as it is long."""
    actions = []
    while isinstance(p, Prefix):
        actions.append(p.action)
        p = p.body
    return actions, p


def render(p: Process) -> str:
    actions, p = _prefixes(p)
    rest = ("0" if isinstance(p, Nil)
            else f"({render(p.left)}|{render(p.right)})")
    return "".join(f"{a}." for a in actions) + rest


def parse_process(text: str) -> Process:
    text = text.strip()
    pos = 0

    def error(msg):
        # a long text shows 40 characters on each side of pos
        lo, hi = max(pos - 40, 0), pos + 40
        if len(text) <= 80:
            lo, hi = 0, len(text)
        shown = "..." * (lo > 0) + repr(text[lo:hi]) + "..." * (hi < len(text))
        raise MalformedInput(f"{msg} at position {pos} in {shown}")

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse(depth: int) -> Process:
        nonlocal pos
        actions = []  # a prefix chain is read in a loop
        while True:
            skip_ws()
            if pos >= len(text):
                error("unexpected end of process")
            ch = text[pos]
            if not ch.isalpha():
                break
            name = ""
            while pos < len(text) and (text[pos].isalnum()
                                       or text[pos] in "_'"):
                name += text[pos]
                pos += 1
            skip_ws()
            if pos >= len(text) or text[pos] != ".":
                error("expected '.' after an action")
            pos += 1
            actions.append(name)
        if ch == "0":
            pos += 1
            out = NIL
        elif ch == "(":
            if depth == MAX_NESTING:
                error(f"process nested deeper than {MAX_NESTING} "
                      "parentheses")
            pos += 1
            left = parse(depth + 1)
            skip_ws()
            if pos >= len(text) or text[pos] != "|":
                error("expected '|'")
            pos += 1
            right = parse(depth + 1)
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                error("expected ')'")
            pos += 1
            out = Par(left, right)
        else:
            error(f"unexpected character {ch!r}")
        for name in reversed(actions):
            out = Prefix(name, out)
        return out

    out = parse(0)
    skip_ws()
    if pos != len(text):
        error("trailing input")
    return out


# -- congruence and operational semantics ------------------------------------


def _threads(p: Process) -> list[Process]:
    """Top-level parallel components, zeros dropped, prefixes untouched."""
    if isinstance(p, Nil):
        return []
    if isinstance(p, Prefix):
        return [p]
    return _threads(p.left) + _threads(p.right)


def _term_key(p: Process) -> tuple:
    """Equal exactly for equal terms.  A prefix chain is one flat entry,
    which orders keys as one nested entry per action would, and compares
    without recursing once per action."""
    actions, p = _prefixes(p)
    key = (("0",) if isinstance(p, Nil)
           else ("par", _term_key(p.left), _term_key(p.right)))
    return ("pre", tuple(actions), key) if actions else key


def congruence_key(p: Process) -> tuple:
    """Invariant of the structural congruence: the sorted multiset of
    top-level threads, bodies compared verbatim."""
    return tuple(sorted(_term_key(t) for t in _threads(p)))


def _positions(p: Process, path=()) -> list[tuple[tuple, Prefix]]:
    """Top-level prefix positions: (tree path, prefix)."""
    if isinstance(p, Prefix):
        return [(path, p)]
    if isinstance(p, Par):
        return (_positions(p.left, path + ("l",))
                + _positions(p.right, path + ("r",)))
    return []


def _replace(p: Process, path: tuple, new: Process) -> Process:
    if not path:
        return new
    assert isinstance(p, Par)
    if path[0] == "l":
        return Par(_replace(p.left, path[1:], new), p.right)
    return Par(p.left, _replace(p.right, path[1:], new))


def reductions(p: Process) -> list[Process]:
    """All one-step reducts, in place, deduplicated up to congruence."""
    out: list[Process] = []
    seen: set[tuple] = set()
    spots = _positions(p)
    for (path1, pre1), (path2, pre2) in itertools.combinations(spots, 2):
        for (pa, a), (pb, b) in (((path1, pre1), (path2, pre2)),
                                 ((path2, pre2), (path1, pre1))):
            if co(a.action) != b.action:
                continue
            reduct = _replace(_replace(p, pa, a.body), pb, b.body)
            key = congruence_key(reduct)
            if key not in seen:
                seen.add(key)
                out.append(reduct)
            break  # the symmetric firing is congruent to this one
    return out


def lts_transitions(p: Process) -> list[tuple[str, Process]]:
    """All labelled steps: prefix firings, framed steps, synchronizations."""
    if isinstance(p, Nil):
        return []
    if isinstance(p, Prefix):
        return [(p.action, p.body)]
    out: list[tuple[str, Process]] = []
    left_steps = lts_transitions(p.left)
    right_steps = lts_transitions(p.right)
    for label, q in left_steps:
        out.append((label, Par(q, p.right)))
    for label, q in right_steps:
        out.append((label, Par(p.left, q)))
    for la, qa in left_steps:
        for lb, qb in right_steps:
            if la != TAU and lb == co(la):
                out.append((TAU, Par(qa, qb)))
    deduped = []
    seen = set()
    for label, q in out:
        key = (label, _term_key(q))
        if key not in seen:
            seen.add(key)
            deduped.append((label, q))
    return deduped


def reachable(p: Process) -> tuple[list[Process], list[tuple]]:
    states = [p]
    index = {_term_key(p): 0}
    edges = []
    frontier = [p]
    while frontier:
        nxt = []
        for q in frontier:
            for label, r in lts_transitions(q):
                key = _term_key(r)
                if key not in index:
                    index[key] = len(states)
                    states.append(r)
                    nxt.append(r)
                edges.append((index[_term_key(q)], label, index[key]))
        frontier = nxt
    return states, edges


def lts_dot(p: Process) -> str:
    """The reachable labelled transition graph, rendered as DOT."""
    states, edges = reachable(p)
    lines = ["digraph lts {", "  rankdir=LR;"]
    for i, state in enumerate(states):
        lines.append(f'  s{i} [label="{render(state)}"];')
    for a, label, b in sorted(edges):
        shown = "" if label == TAU else label
        lines.append(f'  s{a} -> s{b} [label="{shown}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def bisimilar(p: Process, q: Process) -> bool:
    """Partition refinement over the union of the reachable graphs."""
    states_p, edges_p = reachable(p)
    offset = len(states_p)
    states_q, edges_q = reachable(q)
    states = states_p + states_q
    edges = edges_p + [(a + offset, l, b + offset) for a, l, b in edges_q]
    succs: dict[int, list[tuple[str, int]]] = {i: [] for i in
                                               range(len(states))}
    for a, l, b in edges:
        succs[a].append((l, b))
    block = {i: 0 for i in range(len(states))}
    while True:
        sig = {i: (block[i], tuple(sorted({(l, block[b])
                                           for l, b in succs[i]})))
               for i in block}
        palette = {s: k for k, s in enumerate(sorted(set(sig.values())))}
        nxt = {i: palette[sig[i]] for i in block}
        if nxt == block:
            break
        block = nxt
    return block[0] == block[offset]


# -- the layered system ------------------------------------------------------


def _subterms(p: Process) -> set[Process]:
    if isinstance(p, Nil):
        return {p}
    if isinstance(p, Prefix):
        return {p} | _subterms(p.body)
    return {p} | _subterms(p.left) | _subterms(p.right)


def _closure(roots) -> list[Process]:
    """Subterms of the roots and of everything they reduce to."""
    universe: set[Process] = {NIL}
    frontier = list(roots)
    while frontier:
        p = frontier.pop()
        for s in _subterms(p):
            if s not in universe:
                universe.add(s)
                for r in reductions(s):
                    frontier.append(r)
    return sorted(universe, key=_term_key)


def state_symbol(p: Process, pending: str = TAU) -> str:
    if pending == TAU:
        return render(p)
    return f"{render(p)}^{pending}"


@dataclass
class CcsSystem:
    system: SystemOfLayers
    universe: list[Process]
    engine: rw.RuleEngine
    rule_content: InternalDiagram      # the reduction derivation, upper layer
    explanation: dg.Diagram            # its translated window
    counterfactual: dg.Diagram         # the direct lower-layer derivation
    explained: dg.Diagram              # the boxed reduction derivation


DEFAULT_ROOTS = ("(x.0|(y.0|x'.0))",)


def build_ccs_system(roots: tuple[str, ...] = DEFAULT_ROOTS) -> CcsSystem:
    universe = _closure(parse_process(r) for r in roots)
    names = sorted({p.action.rstrip("'") for p in universe
                    if isinstance(p, Prefix)})
    proc_syms = [render(p) for p in universe]
    by_sym = {render(p): p for p in universe}

    gens: dict[str, list[MorphismGen]] = {"Red": [], "LTS": []}
    eqs: dict[str, list[Equation]] = {"Red": [], "LTS": []}

    def iso(layer, name, dom, cod):
        """name: dom -> cod in layer, its inverse name~ and the two
        equations that make them inverse."""
        gens[layer] += (MorphismGen(name, dom, cod),
                        MorphismGen(name + "~", cod, dom))
        for law, w, first, then in (("retract", dom, name, name + "~"),
                                    ("section", cod, name + "~", name)):
            eqs[layer].append(Equation(
                f"{name}.{law}",
                InternalDiagram(layer, w, w, ((0, first), (0, then))),
                InternalDiagram(layer, w, w, ())))

    # upper layer: bracketed process trees with congruence isomorphisms
    for p in universe:
        for q in universe:
            if Par(p, q) in universe:
                iso("Red", f"pack[{render(p)}|{render(q)}]",
                    (render(p), render(q)), (render(Par(p, q)),))
            iso("Red", f"comm[{render(p)}|{render(q)}]",
                (render(p), render(q)), (render(q), render(p)))
    iso("Red", "zero", ("0",), ())
    for p in universe:
        if Par(NIL, p) in universe:
            iso("Red", f"unitl[{render(p)}]", (render(Par(NIL, p)),),
                (render(p),))
    for p in universe:
        for q in universe:
            for a in names:
                if Prefix(a, p) in universe and Prefix(co(a), q) in universe:
                    gens["Red"].append(MorphismGen(
                        f"R[{a};{render(p)}|{render(q)}]",
                        (render(Prefix(a, p)), render(Prefix(co(a), q))),
                        (render(p), render(q))))

    red = LayerPresentation("Red", tuple(proc_syms), tuple(gens["Red"]),
                            tuple(eqs["Red"]))

    # lower layer: (process, pending action) states
    pending_states: list[tuple[Process, str]] = []
    for p in universe:
        pending_states.append((p, TAU))
        if isinstance(p, Prefix):
            pending_states.append((p.body, p.action))
    pending_states = sorted(set(pending_states),
                            key=lambda s: (state_symbol(*s),))
    state_syms = [state_symbol(p, a) for p, a in pending_states]

    for p in universe:
        if isinstance(p, Prefix):
            gens["LTS"].append(MorphismGen(
                f"fire[{render(p)}]",
                (state_symbol(p),), (state_symbol(p.body, p.action),)))
    actions = sorted({a for _, a in pending_states if a != TAU})
    for a in actions:
        if co(a) not in actions:
            continue
        for p, pa in pending_states:
            for q, qa in pending_states:
                if pa == a and qa == co(a):
                    gens["LTS"].append(MorphismGen(
                        f"sync[{a};{render(p)}|{render(q)}]",
                        (state_symbol(p, a), state_symbol(q, co(a))),
                        (state_symbol(p), state_symbol(q))))
    for s1 in state_syms:
        for s2 in state_syms:
            iso("LTS", f"bswap[{s1}|{s2}]", (s1, s2), (s2, s1))
    iso("LTS", "bzero", (state_symbol(NIL),), ())
    for p in universe:
        if isinstance(p, Par):
            iso("LTS", f"bsplit[{render(p)}]", (state_symbol(p),),
                (state_symbol(p.left), state_symbol(p.right)))

    lts = LayerPresentation("LTS", tuple(state_syms), tuple(gens["LTS"]),
                            tuple(eqs["LTS"]))

    # the translation: flatten a process into its thread states
    def flatten(p: Process) -> Word:
        if isinstance(p, Par):
            return flatten(p.left) + flatten(p.right)
        return (state_symbol(p),)

    def block_swap(left: Word, right: Word) -> tuple[tuple[int, str], ...]:
        seq = list(left + right)
        slices = []
        for i in reversed(range(len(left))):
            for j in range(len(right)):
                pos = i + j
                slices.append(
                    (pos, f"bswap[{seq[pos]}|{seq[pos + 1]}]"))
                seq[pos], seq[pos + 1] = seq[pos + 1], seq[pos]
        return tuple(slices)

    def split_cascade(p: Process, offset: int) -> list[tuple[int, str]]:
        if not isinstance(p, Par):
            return []
        out = [(offset, f"bsplit[{render(p)}]")]
        out += split_cascade(p.left, offset)
        out += split_cascade(p.right, offset + len(flatten(p.left)))
        return out

    mor_map: list[tuple[str, InternalDiagram]] = []
    for gen in gens["Red"]:
        name = gen.name
        dom_img = tuple(s for sym in gen.dom for s in flatten(by_sym[sym]))
        cod_img = tuple(s for sym in gen.cod for s in flatten(by_sym[sym]))
        if name.startswith(("pack[", "unitl[")) and \
                not name.endswith("~"):
            if name.startswith("unitl["):
                img = InternalDiagram("LTS", dom_img, cod_img,
                                      ((0, "bzero"),))
            else:
                img = InternalDiagram("LTS", dom_img, cod_img, ())
        elif name.startswith("comm[") and not name.endswith("~"):
            p, q = gen.dom
            img = InternalDiagram(
                "LTS", dom_img, cod_img,
                block_swap(flatten(by_sym[p]), flatten(by_sym[q])))
        elif name == "zero":
            img = InternalDiagram("LTS", dom_img, cod_img, ((0, "bzero"),))
        elif name.startswith("R["):
            a = name[2:name.index(";")]
            pre1, pre2 = gen.dom
            p1, p2 = by_sym[gen.cod[0]], by_sym[gen.cod[1]]
            slices = [(0, f"fire[{pre1}]"), (1, f"fire[{pre2}]"),
                      (0, f"sync[{a};{render(p1)}|{render(p2)}]")]
            slices += split_cascade(p1, 0)
            slices += split_cascade(p2, len(flatten(p1)))
            img = InternalDiagram("LTS", dom_img, cod_img, tuple(slices))
        else:  # the inverse name~ of a generator above
            base = dict(mor_map)[name[:-1]]
            img = InternalDiagram("LTS", base.cod, base.dom,
                                  _invert_slices(base, lts))
        mor_map.append((name, img))

    translation = TranslationFunctor(
        "Red", "LTS",
        tuple((render(p), flatten(p)) for p in universe),
        tuple(mor_map))
    sys_ = SystemOfLayers([red, lts], [translation],
                          order=[("LTS", "Red")])
    report = validate_system(sys_)
    if not report.ok:
        raise FixtureInvalid("; ".join(report.violations))
    engine = rw.RuleEngine(sys_)
    return _with_fixtures(sys_, universe, engine)


def _invert_slices(img: InternalDiagram,
                   lts: LayerPresentation) -> tuple[tuple[int, str], ...]:
    """Reverse an invertible image slice by slice."""
    sig = lts.signature
    words = []
    w = img.dom
    for off, gen in img.slices:
        words.append((off, gen, w))
        gd, gc = sig[gen]
        w = w[:off] + gc + w[off + len(gd):]
    out = []
    for off, gen, _ in reversed(words):
        if gen.endswith("~"):
            out.append((off, gen[:-1]))
        else:
            out.append((off, gen + "~"))
    return tuple(out)


def reduction_rule_content(cs_universe: list[Process]) -> InternalDiagram:
    """The derivation of the reduction on (x.0|(y.0|x'.0)) as one internal
    morphism of the upper layer."""
    t0 = "(x.0|(y.0|x'.0))"
    return InternalDiagram(
        "Red", (t0,), ("(0|(y.0|0))",),
        ((0, f"pack[x.0|(y.0|x'.0)]~"),
         (1, f"pack[y.0|x'.0]~"),
         (1, "comm[y.0|x'.0]"),
         (0, "R[x;0|0]"),
         (1, "comm[0|y.0]"),
         (1, "pack[y.0|0]"),
         (0, "pack[0|(y.0|0)]")))


def _with_fixtures(sys_: SystemOfLayers, universe, engine) -> CcsSystem:
    content = reduction_rule_content(universe)
    sigma = dg.box(sys_, content)
    f = sys_.functor("Red", "LTS")
    image = translate_internal(sys_, f, content)
    explanation = dg.seq_many(
        dg.refine(sys_, "Red", "LTS", content.dom),
        dg.box(sys_, image),
        dg.coarsen(sys_, "Red", "LTS", content.cod))

    # the direct lower-layer derivation: fire both prefixes, bring the
    # pending states together, synchronize, and restore the order
    s = state_symbol
    x0 = parse_process("x.0")
    y0 = parse_process("y.0")
    xbar0 = parse_process("x'.0")
    direct = InternalDiagram(
        "LTS",
        (s(x0), s(y0), s(xbar0)),
        (s(NIL), s(y0), s(NIL)),
        ((0, f"fire[{render(x0)}]"),
         (2, f"fire[{render(xbar0)}]"),
         (1, f"bswap[{s(y0)}|{s(NIL, co('x'))}]"),
         (0, f"sync[x;0|0]"),
         (1, f"bswap[{s(NIL)}|{s(y0)}]")))
    counterfactual = dg.seq_many(
        dg.refine(sys_, "Red", "LTS", content.dom),
        dg.box(sys_, direct),
        dg.coarsen(sys_, "Red", "LTS", content.cod))
    return CcsSystem(sys_, universe, engine, content, explanation,
                     counterfactual, sigma)


def check_ccs_fixtures(cs: CcsSystem | None = None, budget: int = 400
                       ) -> tuple[explain.ExplanationVerdict,
                                  explain.ExplanationVerdict]:
    """(windowed translation is a valid explanation, direct derivation is a
    certified counterfactual)."""
    if cs is None:
        cs = build_ccs_system()
    valid = explain.check_explanation_1(cs.explanation, cs.explained,
                                        budget, cs.engine)
    counter = explain.check_counterfactual(cs.counterfactual, cs.explained,
                                           budget, cs.engine)
    return valid, counter
