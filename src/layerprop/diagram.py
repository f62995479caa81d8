"""Multi-sheet diagrams and their canonical forms.

A diagram is an acyclic port graph: cells (boxes, pants, copants, cups, caps,
refine, coarsen, sheet symmetries) joined by typed sheet wires, with ordered
boundary attachments realizing the dom/cod types.  Isomorphism of these
graphs with the boundary fixed captures exactly the external symmetric
monoidal laws, so equality in the free setting reduces to comparing canonical
labelings.  Canonicalization additionally normalizes the internal quotient:
sheet symmetries are spliced into the wiring, sequentially adjacent boxes of
one layer fuse, identity boxes disappear, and box contents take their
interchange normal form.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import internal
from .errors import SideConditionViolation, SortMismatch
from .internal import EPSILON, InternalDiagram, Word
from .theory import (EMPTY_TYPE, OmegaType, Sort, SystemOfLayers, sheet)

if TYPE_CHECKING:
    from .rewrite import Derivation

# Endpoints: ("dom", k) | ("cod", k) | ("out", cell, port) | ("in", cell, port)
Endpoint = tuple
SheetType = tuple[str, Word]


@dataclass(frozen=True)
class InternalBox:
    layer: str
    content: InternalDiagram

    def in_ports(self) -> tuple[SheetType, ...]:
        return ((self.layer, self.content.dom),)

    def out_ports(self) -> tuple[SheetType, ...]:
        return ((self.layer, self.content.cod),)

    def label(self) -> tuple:
        return ("box", self.layer, self.content.dom, self.content.cod,
                self.content.slices)


@dataclass(frozen=True)
class Pants:
    layer: str
    alpha: Word
    beta: Word

    def in_ports(self):
        return ((self.layer, self.alpha), (self.layer, self.beta))

    def out_ports(self):
        return ((self.layer, self.alpha + self.beta),)

    def label(self):
        return ("pants", self.layer, self.alpha, self.beta)


@dataclass(frozen=True)
class Copants:
    layer: str
    alpha: Word
    beta: Word

    def in_ports(self):
        return ((self.layer, self.alpha + self.beta),)

    def out_ports(self):
        return ((self.layer, self.alpha), (self.layer, self.beta))

    def label(self):
        return ("copants", self.layer, self.alpha, self.beta)


@dataclass(frozen=True)
class Cup:
    layer: str

    def in_ports(self):
        return ()

    def out_ports(self):
        return ((self.layer, EPSILON),)

    def label(self):
        return ("cup", self.layer)


@dataclass(frozen=True)
class Cap:
    layer: str

    def in_ports(self):
        return ((self.layer, EPSILON),)

    def out_ports(self):
        return ()

    def label(self):
        return ("cap", self.layer)


@dataclass(frozen=True)
class Refine:
    source: str
    target: str
    word: Word
    image: Word

    def in_ports(self):
        return ((self.source, self.word),)

    def out_ports(self):
        return ((self.target, self.image),)

    def label(self):
        return ("refine", self.source, self.target, self.word)


@dataclass(frozen=True)
class Coarsen:
    source: str
    target: str
    word: Word
    image: Word

    def in_ports(self):
        return ((self.target, self.image),)

    def out_ports(self):
        return ((self.source, self.word),)

    def label(self):
        return ("coarsen", self.source, self.target, self.word)


@dataclass(frozen=True)
class SheetSym:
    layer1: str
    alpha: Word
    layer2: str
    beta: Word

    def in_ports(self):
        return ((self.layer1, self.alpha), (self.layer2, self.beta))

    def out_ports(self):
        return ((self.layer2, self.beta), (self.layer1, self.alpha))

    def label(self):
        return ("sym", self.layer1, self.alpha, self.layer2, self.beta)


Cell = (InternalBox | Pants | Copants | Cup | Cap | Refine | Coarsen
        | SheetSym)


@dataclass(frozen=True)
class Wire:
    src: Endpoint
    dst: Endpoint
    type: SheetType


class Diagram:
    """An immutable 1-cell over a fixed system of layers."""

    __slots__ = ("system", "dom", "cod", "cells", "wires", "_canon")

    def __init__(self, system: SystemOfLayers, dom: OmegaType, cod: OmegaType,
                 cells: Sequence[Cell], wires: Sequence[Wire]) -> None:
        self.system = system
        self.dom = dom
        self.cod = cod
        self.cells: tuple[Cell, ...] = tuple(cells)
        self.wires: tuple[Wire, ...] = tuple(wires)
        self._canon: "CanonicalForm | None" = None

    @property
    def sort(self) -> Sort:
        return Sort(self.dom, self.cod)

    def __repr__(self) -> str:
        return (f"<Diagram {self.sort.pretty()} cells={len(self.cells)} "
                f"wires={len(self.wires)}>")


@dataclass(frozen=True)
class CanonicalForm:
    diagram: Diagram
    key: tuple


def validate_diagram(d: Diagram) -> None:
    """Check port/boundary coverage, wire typing, and acyclicity."""
    by_src: dict[Endpoint, int] = {}
    by_dst: dict[Endpoint, int] = {}
    for wi, w in enumerate(d.wires):
        if w.src in by_src:
            raise SortMismatch(f"two wires share producer {w.src!r}")
        if w.dst in by_dst:
            raise SortMismatch(f"two wires share consumer {w.dst!r}")
        by_src[w.src] = wi
        by_dst[w.dst] = wi
    for k, ty in enumerate(d.dom.entries):
        wi = by_src.get(("dom", k))
        if wi is None:
            raise SortMismatch(f"input position {k} unattached")
        if d.wires[wi].type != ty:
            raise SortMismatch(f"input position {k} carries {d.wires[wi].type}"
                               f", boundary declares {ty}")
    for k, ty in enumerate(d.cod.entries):
        wi = by_dst.get(("cod", k))
        if wi is None:
            raise SortMismatch(f"output position {k} unattached")
        if d.wires[wi].type != ty:
            raise SortMismatch(f"output position {k} carries "
                               f"{d.wires[wi].type}, boundary declares {ty}")
    seen_ports = 0
    for ci, cell in enumerate(d.cells):
        for pi, ty in enumerate(cell.in_ports()):
            wi = by_dst.get(("in", ci, pi))
            if wi is None or d.wires[wi].type != ty:
                raise SortMismatch(f"cell {ci} input port {pi} broken")
            seen_ports += 1
        for pi, ty in enumerate(cell.out_ports()):
            wi = by_src.get(("out", ci, pi))
            if wi is None or d.wires[wi].type != ty:
                raise SortMismatch(f"cell {ci} output port {pi} broken")
            seen_ports += 1
    if seen_ports + len(d.dom) + len(d.cod) != 2 * len(d.wires):
        raise SortMismatch("stray wire endpoints")
    # acyclicity over the cell graph
    succ: dict[int, set[int]] = {ci: set() for ci in range(len(d.cells))}
    for w in d.wires:
        if w.src[0] == "out" and w.dst[0] == "in":
            succ[w.src[1]].add(w.dst[1])
    state: dict[int, int] = {}

    def visit(ci: int) -> None:
        state[ci] = 1
        for nj in succ[ci]:
            if state.get(nj) == 1:
                raise SortMismatch("diagram graph has a directed cycle")
            if nj not in state:
                visit(nj)
        state[ci] = 2

    for ci in range(len(d.cells)):
        if ci not in state:
            visit(ci)


# ---------------------------------------------------------------------------
# constructors


def empty_diagram(sys: SystemOfLayers) -> Diagram:
    return Diagram(sys, EMPTY_TYPE, EMPTY_TYPE, (), ())


def identity(sys: SystemOfLayers, t: OmegaType) -> Diagram:
    sys.validate_type(t)
    wires = [Wire(("dom", k), ("cod", k), ty) for k, ty in enumerate(t.entries)]
    return Diagram(sys, t, t, (), wires)


def _single_cell(sys: SystemOfLayers, cell: Cell) -> Diagram:
    dom = OmegaType(tuple(cell.in_ports()))
    cod = OmegaType(tuple(cell.out_ports()))
    wires = [Wire(("dom", k), ("in", 0, k), ty)
             for k, ty in enumerate(cell.in_ports())]
    wires += [Wire(("out", 0, k), ("cod", k), ty)
              for k, ty in enumerate(cell.out_ports())]
    return Diagram(sys, dom, cod, (cell,), wires)


def box(sys: SystemOfLayers, content: InternalDiagram) -> Diagram:
    internal.validate(content, sys.signature(content.layer))
    return _single_cell(sys, InternalBox(content.layer, content))


def gen_box(sys: SystemOfLayers, layer: str, name: str) -> Diagram:
    return box(sys, internal.generator(layer, name, sys.signature(layer)))


def pants(sys: SystemOfLayers, layer: str, alpha: Word, beta: Word) -> Diagram:
    sys.validate_word(layer, alpha)
    sys.validate_word(layer, beta)
    return _single_cell(sys, Pants(layer, alpha, beta))


def copants(sys: SystemOfLayers, layer: str, alpha: Word,
            beta: Word) -> Diagram:
    sys.validate_word(layer, alpha)
    sys.validate_word(layer, beta)
    return _single_cell(sys, Copants(layer, alpha, beta))


def cup(sys: SystemOfLayers, layer: str) -> Diagram:
    sys.layer(layer)
    return _single_cell(sys, Cup(layer))


def cap(sys: SystemOfLayers, layer: str) -> Diagram:
    sys.layer(layer)
    return _single_cell(sys, Cap(layer))


def refine(sys: SystemOfLayers, source: str, target: str,
           word: Word) -> Diagram:
    f = sys.functor(source, target)
    sys.validate_word(source, word)
    return _single_cell(sys, Refine(source, target, word, f.word_image(word)))


def coarsen(sys: SystemOfLayers, source: str, target: str,
            word: Word) -> Diagram:
    f = sys.functor(source, target)
    sys.validate_word(source, word)
    return _single_cell(sys, Coarsen(source, target, word,
                                     f.word_image(word)))


def sheet_sym(sys: SystemOfLayers, layer1: str, alpha: Word, layer2: str,
              beta: Word) -> Diagram:
    sys.validate_word(layer1, alpha)
    sys.validate_word(layer2, beta)
    return _single_cell(sys, SheetSym(layer1, alpha, layer2, beta))


def _shift_endpoint(ep: Endpoint, cell_shift: int, dom_shift: int = 0,
                    cod_shift: int = 0) -> Endpoint:
    kind = ep[0]
    if kind == "dom":
        return ("dom", ep[1] + dom_shift)
    if kind == "cod":
        return ("cod", ep[1] + cod_shift)
    return (kind, ep[1] + cell_shift, ep[2])


def seq_compose(x: Diagram, y: Diagram) -> Diagram:
    """Plug x's outputs into y's inputs."""
    if x.system is not y.system:
        raise SortMismatch("diagrams built over different systems")
    if x.cod != y.dom:
        raise SortMismatch(f"middle types differ: {x.cod.pretty()} vs "
                           f"{y.dom.pretty()}")
    shift = len(x.cells)
    x_mid: dict[int, Wire] = {}
    wires: list[Wire] = []
    for w in x.wires:
        if w.dst[0] == "cod":
            x_mid[w.dst[1]] = w
        else:
            wires.append(w)
    y_mid: dict[int, Wire] = {}
    for w in y.wires:
        src = _shift_endpoint(w.src, shift)
        dst = _shift_endpoint(w.dst, shift)
        if w.src[0] == "dom":
            y_mid[w.src[1]] = Wire(src, dst, w.type)
        else:
            wires.append(Wire(src, dst, w.type))
    for k in range(len(x.cod)):
        left, right = x_mid[k], y_mid[k]
        wires.append(Wire(left.src, right.dst, left.type))
    return Diagram(x.system, x.dom, y.cod, x.cells + y.cells, wires)


def par_tensor(x: Diagram, y: Diagram) -> Diagram:
    """Stack y below x; boundary types concatenate."""
    if x.system is not y.system:
        raise SortMismatch("diagrams built over different systems")
    shift = len(x.cells)
    wires = list(x.wires)
    for w in y.wires:
        wires.append(Wire(
            _shift_endpoint(w.src, shift, dom_shift=len(x.dom)),
            _shift_endpoint(w.dst, shift, cod_shift=len(x.cod)),
            w.type))
    return Diagram(x.system, x.dom + y.dom, x.cod + y.cod,
                   x.cells + y.cells, wires)


def seq_many(*parts: Diagram) -> Diagram:
    out = parts[0]
    for p in parts[1:]:
        out = seq_compose(out, p)
    return out


def as_internal(d: Diagram) -> InternalDiagram | None:
    """Content of a diagram that is a single sheet's internal morphism."""
    c = canonicalize(d).diagram
    if len(c.dom) != 1 or len(c.cod) != 1:
        return None
    (l1, w1), (l2, w2) = c.dom.entries[0], c.cod.entries[0]
    if l1 != l2:
        return None
    if not c.cells:
        return InternalDiagram(l1, w1, w2) if w1 == w2 else None
    if len(c.cells) == 1 and isinstance(c.cells[0], InternalBox):
        return c.cells[0].content
    return None


def fuse_internal(x: Diagram, y: Diagram,
                  layer: str | None = None) -> Diagram:
    """In-layer tensor: vertical juxtaposition inside one sheet."""
    cx, cy = as_internal(x), as_internal(y)
    if cx is None or cy is None:
        raise SideConditionViolation(
            "in-layer tensor requires both operands internal to one sheet")
    if cx.layer != cy.layer or (layer is not None and cx.layer != layer):
        raise SideConditionViolation(
            f"in-layer tensor operands live in {cx.layer!r} and {cy.layer!r}")
    return box(x.system, cx.beside(cy))


# ---------------------------------------------------------------------------
# canonicalization


def _endpoint_maps(wires: dict[int, Wire]):
    by_src: dict[Endpoint, int] = {}
    by_dst: dict[Endpoint, int] = {}
    for wi, w in wires.items():
        by_src[w.src] = wi
        by_dst[w.dst] = wi
    return by_src, by_dst


def _normalize(d: Diagram) -> tuple[dict[int, Cell], dict[int, Wire]]:
    """Apply the internal quotient: drop symmetries, fuse and erase boxes."""
    sig_of = d.system.signature
    cells: dict[int, Cell] = dict(enumerate(d.cells))
    wires: dict[int, Wire] = dict(enumerate(d.wires))
    next_wire = len(d.wires)

    for ci, cell in list(cells.items()):
        if isinstance(cell, InternalBox):
            canon = internal.canonicalize(cell.content, sig_of(cell.layer))
            cells[ci] = InternalBox(cell.layer, canon)

    changed = True
    while changed:
        changed = False
        by_src, by_dst = _endpoint_maps(wires)
        for ci, cell in sorted(cells.items()):
            if isinstance(cell, SheetSym):
                w_in0 = wires.pop(by_dst[("in", ci, 0)])
                w_in1 = wires.pop(by_dst[("in", ci, 1)])
                w_out0 = wires.pop(by_src[("out", ci, 0)])
                w_out1 = wires.pop(by_src[("out", ci, 1)])
                wires[next_wire] = Wire(w_in0.src, w_out1.dst, w_in0.type)
                wires[next_wire + 1] = Wire(w_in1.src, w_out0.dst, w_in1.type)
                next_wire += 2
                del cells[ci]
                changed = True
                break
            if isinstance(cell, InternalBox):
                out_wire = wires[by_src[("out", ci, 0)]]
                if out_wire.dst[0] == "in":
                    cj = out_wire.dst[1]
                    other = cells.get(cj)
                    if isinstance(other, InternalBox) and out_wire.dst[2] == 0:
                        fused = internal.canonicalize(
                            cells[ci].content.then(other.content),
                            sig_of(cell.layer))
                        cells[ci] = InternalBox(cell.layer, fused)
                        wi_out = by_src[("out", cj, 0)]
                        far = wires.pop(wi_out)
                        wires.pop(by_src[("out", ci, 0)])
                        wires[next_wire] = Wire(("out", ci, 0), far.dst,
                                                far.type)
                        next_wire += 1
                        del cells[cj]
                        changed = True
                        break
                if not cells[ci].content.slices:  # identity box: splice out
                    w_in = wires.pop(by_dst[("in", ci, 0)])
                    w_out = wires.pop(by_src[("out", ci, 0)])
                    wires[next_wire] = Wire(w_in.src, w_out.dst, w_in.type)
                    next_wire += 1
                    del cells[ci]
                    changed = True
                    break
    return cells, wires


def _traverse(cells: dict[int, Cell], seed_wires: list[int],
              wire_of_dst: dict[Endpoint, int],
              wire_of_src: dict[Endpoint, int],
              wires: dict[int, Wire]) -> list[int]:
    """Deterministic discovery order of cells from seed wires."""
    order: list[int] = []
    discovered: set[int] = set()
    queued: set[int] = set(seed_wires)
    queue = deque(seed_wires)

    def discover(ci: int) -> None:
        discovered.add(ci)
        order.append(ci)
        cell = cells[ci]
        for pi in range(len(cell.in_ports())):
            wi = wire_of_dst[("in", ci, pi)]
            if wi not in queued:
                queued.add(wi)
                queue.append(wi)
        for pi in range(len(cell.out_ports())):
            wi = wire_of_src[("out", ci, pi)]
            if wi not in queued:
                queued.add(wi)
                queue.append(wi)

    while queue:
        w = wires[queue.popleft()]
        for ep in (w.src, w.dst):
            if ep[0] in ("in", "out") and ep[1] not in discovered:
                discover(ep[1])
    return order


def _serialize(cells: dict[int, Cell], wires: dict[int, Wire],
               order: list[int], n_dom: int, n_cod: int) -> tuple:
    pos = {ci: k for k, ci in enumerate(order)}

    def enc(ep: Endpoint) -> tuple:
        if ep[0] == "dom":
            return (0, ep[1], 0)
        if ep[0] == "cod":
            return (0, ep[1], 0)
        return (1, pos[ep[1]], ep[2])

    labels = tuple(cells[ci].label() for ci in order)
    encoded = sorted((enc(w.src), enc(w.dst), w.src[0], w.dst[0], w.type)
                     for w in wires.values())
    return (labels, tuple(encoded))


def canonicalize(d: Diagram) -> CanonicalForm:
    """Boundary-anchored canonical labeling after quotient normalization."""
    if d._canon is not None:
        return d._canon
    validate_diagram(d)
    cells, wires = _normalize(d)
    by_src, by_dst = _endpoint_maps(wires)

    seeds = [by_src[("dom", k)] for k in range(len(d.dom))]
    seeds += [by_dst[("cod", k)] for k in range(len(d.cod))
              if by_dst[("cod", k)] not in seeds]
    order = _traverse(cells, seeds, by_dst, by_src, wires)

    remaining = sorted(set(cells) - set(order))
    comp_orders: list[tuple[tuple, list[int]]] = []
    while remaining:
        root0 = remaining[0]
        # grow the component from root0
        comp = _traverse(
            cells,
            [by_dst[("in", root0, pi)]
             for pi in range(len(cells[root0].in_ports()))]
            + [by_src[("out", root0, pi)]
               for pi in range(len(cells[root0].out_ports()))],
            by_dst, by_src, wires)
        if root0 not in comp:
            comp = [root0] + comp
        comp_wires = {wi: w for wi, w in wires.items()
                      if w.src[0] == "out" and w.src[1] in comp}
        best: tuple[tuple, list[int]] | None = None
        for root in sorted(comp):
            seed = ([by_dst[("in", root, pi)]
                     for pi in range(len(cells[root].in_ports()))]
                    + [by_src[("out", root, pi)]
                       for pi in range(len(cells[root].out_ports()))])
            local = _traverse(cells, seed, by_dst, by_src, wires)
            ser = _serialize(cells, comp_wires, local, 0, 0)
            if best is None or ser < best[0]:
                best = (ser, local)
        assert best is not None
        comp_orders.append(best)
        remaining = [ci for ci in remaining if ci not in comp]
    comp_orders.sort(key=lambda pair: pair[0])
    for _, local in comp_orders:
        order.extend(local)

    pos = {ci: k for k, ci in enumerate(order)}
    new_cells = [cells[ci] for ci in order]

    def remap(ep: Endpoint) -> Endpoint:
        if ep[0] in ("in", "out"):
            return (ep[0], pos[ep[1]], ep[2])
        return ep

    def sort_key(w: Wire) -> tuple:
        s = (0, w.src[1], 0) if w.src[0] == "dom" else (1, w.src[1], w.src[2])
        return s

    new_wires = sorted((Wire(remap(w.src), remap(w.dst), w.type)
                        for w in wires.values()), key=sort_key)
    canon = Diagram(d.system, d.dom, d.cod, new_cells, new_wires)
    key = (d.dom.entries, d.cod.entries,
           tuple(c.label() for c in new_cells),
           tuple((w.src, w.dst, w.type) for w in new_wires))
    form = CanonicalForm(canon, key)
    canon._canon = form
    d._canon = form
    return form


def canonical_key(d: Diagram) -> tuple:
    return canonicalize(d).key


def structural_eq(x: Diagram, y: Diagram) -> bool:
    """Equality in the free setting: identical canonical labelings."""
    return canonicalize(x).key == canonicalize(y).key


# ---------------------------------------------------------------------------
# equality modulo layer equations


@dataclass
class LayerEqResult:
    status: str  # "equal" | "distinct" | "unknown"
    witness: Derivation | None = None  # set when "equal"


def layer_eq(x: Diagram, y: Diagram, budget: int = 64) -> LayerEqResult:
    """Three-valued equality modulo the layers' equations.

    The search is ``rewrite.find_derivation`` restricted to the E family,
    with equation insertions on: ``budget`` counts equation applications
    across both frontiers, the smaller frontier expanding first, and an
    ``equal`` verdict carries a derivation that ``verify_derivation``
    replays.  A budget that runs out partway through a breadth-first level
    leaves the verdict to the order in which moves are tried.
    """
    from . import rewrite  # local import: rewrite layers on diagram

    if x.sort != y.sort:
        raise SortMismatch("layer_eq requires parallel diagrams")
    cx, cy = canonicalize(x), canonicalize(y)
    if cx.key != cy.key:
        layers = {cell.layer for c in (cx, cy) for cell in c.diagram.cells
                  if isinstance(cell, InternalBox)}
        if not any(x.system.layer(l).equations for l in layers):
            return LayerEqResult("distinct")
    engine = rewrite.RuleEngine(x.system, equation_insertions=True)
    out = rewrite.find_derivation(x, y, budget, engine,
                                  rule_filter=lambda m: m.rule.family == "E")
    if isinstance(out, rewrite.NotFound):
        return LayerEqResult("unknown")
    return LayerEqResult("equal", out)


# ---------------------------------------------------------------------------
# export


_DOT_NAMES = {"box": "box", "pants": "pants", "copants": "copants",
              "cup": "cup", "cap": "cap", "refine": "refine",
              "coarsen": "coarsen", "sym": "sym"}


def export_dot(d: Diagram) -> str:
    """Deterministic DOT rendering of the canonical form."""
    c = canonicalize(d).diagram
    lines = ["digraph diagram {", "  rankdir=LR;"]
    for k, (layer, w) in enumerate(c.dom.entries):
        lines.append(f'  dom{k} [shape=point, xlabel="{layer}"];')
    for k, (layer, w) in enumerate(c.cod.entries):
        lines.append(f'  cod{k} [shape=point, xlabel="{layer}"];')
    for ci, cell in enumerate(c.cells):
        lab = cell.label()
        kind = _DOT_NAMES[lab[0]]
        if kind == "box":
            text = (f"box {cell.layer}: {' '.join(cell.content.dom) or 'e'}"
                    f" -> {' '.join(cell.content.cod) or 'e'}")
        elif kind in ("refine", "coarsen"):
            text = f"{kind} {cell.source}>{cell.target}"
        else:
            text = f"{kind} {lab[1]}"
        lines.append(f'  c{ci} [shape=box, label="{text}"];')

    def node(ep: Endpoint) -> str:
        if ep[0] == "dom":
            return f"dom{ep[1]}"
        if ep[0] == "cod":
            return f"cod{ep[1]}"
        return f"c{ep[1]}"

    for w in c.wires:
        layer, word = w.type
        lines.append(f'  {node(w.src)} -> {node(w.dst)} '
                     f'[label="{layer}:{" ".join(word) or "e"}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
