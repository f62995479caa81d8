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

The subclasses of ``Cell`` are the one table of cell kinds: each declares
its tag, label fields and port counts, and ``CONSTRUCTORS`` gives its checked
constructor.  Labels, DOT text, the diagram file codec, the fields rule
templates match, the term leaf (``terms.Cell``) and the s-expression form
(``sexpr._FORMS``, for a kind without a box content) are read from it.  A
new cell kind takes a class and a constructor here, a ``rewrite._SCHEMATA``
row per rule that moves it, and a piece in ``semantics._PIECES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import internal
from .errors import SideConditionViolation, SortMismatch, check_count
from .internal import EPSILON, InternalDiagram, Word
from .theory import (EMPTY_TYPE, OmegaType, Sort, SystemOfLayers, sheet)

if TYPE_CHECKING:
    from .rewrite import Derivation

# Endpoints: ("dom", k) | ("cod", k) | ("out", cell, port) | ("in", cell, port)
Endpoint = tuple
SheetType = tuple[str, Word]


# how a label field reads: a name (of a layer or a functor's end), a word,
# or a box content, which labels and diagram files flatten to its dom, cod
# and slices (its layer is the cell's)
NAME, WORD, CONTENT = "name", "word", "content"


class Cell:
    """A diagram cell.  Each kind declares its ``tag`` (a label's first item,
    a diagram file's "kind"), ``ports`` counts (inputs, outputs) and
    ``label_fields`` with how each reads; other fields follow from these."""

    def label(self) -> tuple:
        """The tag, then the label fields; computed once per cell."""
        label = self.__dict__.get("_label")
        if label is None:
            label = [self.tag]
            for name, reader in self.label_fields:
                value = getattr(self, name)
                label += ((value.dom, value.cod, value.slices)
                          if reader == CONTENT else (value,))
            label = self.__dict__["_label"] = tuple(label)
        return label


@dataclass(frozen=True)
class InternalBox(Cell):
    layer: str
    content: InternalDiagram
    tag, ports = "box", (1, 1)
    label_fields = (("layer", NAME), ("content", CONTENT))

    def in_ports(self) -> tuple[SheetType, ...]:
        return ((self.layer, self.content.dom),)

    def out_ports(self) -> tuple[SheetType, ...]:
        return ((self.layer, self.content.cod),)


@dataclass(frozen=True)
class Pants(Cell):
    layer: str
    alpha: Word
    beta: Word
    tag, ports = "pants", (2, 1)
    label_fields = (("layer", NAME), ("alpha", WORD), ("beta", WORD))

    def in_ports(self):
        return ((self.layer, self.alpha), (self.layer, self.beta))

    def out_ports(self):
        return ((self.layer, self.alpha + self.beta),)


@dataclass(frozen=True)
class Copants(Cell):
    layer: str
    alpha: Word
    beta: Word
    tag, ports, label_fields = "copants", (1, 2), Pants.label_fields
    in_ports, out_ports = Pants.out_ports, Pants.in_ports  # ports reversed


@dataclass(frozen=True)
class Cup(Cell):
    layer: str
    tag, ports, label_fields = "cup", (0, 1), (("layer", NAME),)

    def in_ports(self):
        return ()

    def out_ports(self):
        return ((self.layer, EPSILON),)


@dataclass(frozen=True)
class Cap(Cell):
    layer: str
    tag, ports, label_fields = "cap", (1, 0), Cup.label_fields
    in_ports, out_ports = Cup.out_ports, Cup.in_ports  # ports reversed


@dataclass(frozen=True)
class Refine(Cell):
    source: str
    target: str
    word: Word
    image: Word
    tag, ports = "refine", (1, 1)
    label_fields = (("source", NAME), ("target", NAME), ("word", WORD))

    def in_ports(self):
        return ((self.source, self.word),)

    def out_ports(self):
        return ((self.target, self.image),)


@dataclass(frozen=True)
class Coarsen(Cell):
    source: str
    target: str
    word: Word
    image: Word
    tag, ports, label_fields = "coarsen", (1, 1), Refine.label_fields
    in_ports, out_ports = Refine.out_ports, Refine.in_ports  # ports reversed


@dataclass(frozen=True)
class SheetSym(Cell):
    layer1: str
    alpha: Word
    layer2: str
    beta: Word
    tag, ports = "sym", (2, 2)
    label_fields = (("layer1", NAME), ("alpha", WORD), ("layer2", NAME),
                    ("beta", WORD))

    def in_ports(self):
        return ((self.layer1, self.alpha), (self.layer2, self.beta))

    def out_ports(self):
        return ((self.layer2, self.beta), (self.layer1, self.alpha))


class Wire(NamedTuple):
    """A sheet wire from a producer endpoint to a consumer endpoint; it
    unpacks as ``(src, dst, type)``, like the plain triples a splice makes."""

    src: Endpoint
    dst: Endpoint
    type: SheetType


class Diagram:
    """An immutable 1-cell over a fixed system of layers."""

    __slots__ = ("system", "dom", "cod", "cells", "wires", "_canon", "_key")

    def __init__(self, system: SystemOfLayers, dom: OmegaType, cod: OmegaType,
                 cells: Sequence[Cell], wires: Sequence[Wire]) -> None:
        self.system = system
        self.dom = dom
        self.cod = cod
        self.cells: tuple[Cell, ...] = tuple(cells)
        self.wires: tuple[Wire, ...] = tuple(wires)
        # the canonical form of a diagram, or the key of one that is
        # canonical itself; a canonical diagram never points back at its
        # form, so no reference cycle keeps either alive
        self._canon: "CanonicalForm | None" = None
        self._key: tuple | None = None

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
    # acyclicity over the cell graph: every cell leaves a topological sort
    # (iterative, so that no self-referencing closure makes a cycle)
    succ: list[list[int]] = [[] for _ in d.cells]
    indeg = [0] * len(d.cells)
    for w in d.wires:
        if w.src[0] == "out" and w.dst[0] == "in":
            succ[w.src[1]].append(w.dst[1])
            indeg[w.dst[1]] += 1
    ready = [ci for ci, k in enumerate(indeg) if k == 0]
    sorted_cells = 0
    while ready:
        sorted_cells += 1
        for nj in succ[ready.pop()]:
            indeg[nj] -= 1
            if indeg[nj] == 0:
                ready.append(nj)
    if sorted_cells != len(d.cells):
        raise SortMismatch("diagram graph has a directed cycle")


# ---------------------------------------------------------------------------
# constructors


def empty_diagram(sys: SystemOfLayers) -> Diagram:
    return Diagram(sys, EMPTY_TYPE, EMPTY_TYPE, (), ())


def identity(sys: SystemOfLayers, t: OmegaType) -> Diagram:
    sys.validate_type(t)
    wires = [Wire(("dom", k), ("cod", k), ty)
             for k, ty in enumerate(t.entries)]
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
    sys.validate_word(content.layer, content.dom)
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


def _layer_box(sys: SystemOfLayers, layer: str,
               content: InternalDiagram) -> Diagram:
    """A box given its layer, which must be its content's."""
    if layer != content.layer:
        raise SortMismatch(f"a box of layer {layer!r} holds a content of "
                           f"layer {content.layer!r}")
    return box(sys, content)


# each cell kind's checked constructor, called with the system and the
# cell's label fields in order
CONSTRUCTORS = {InternalBox: _layer_box,
                Pants: pants, Copants: copants, Cup: cup, Cap: cap,
                Refine: refine, Coarsen: coarsen, SheetSym: sheet_sym}
CELL_KINDS = {kind.tag: kind for kind in CONSTRUCTORS}


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
        raise SortMismatch(f"cannot compose {x.sort.pretty()} with "
                           f"{y.sort.pretty()}")
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
    if layer is not None and not cx.layer == cy.layer == layer:
        raise SideConditionViolation(
            f"in-layer tensor operand not internal to {layer!r}")
    if cx.layer != cy.layer:
        raise SideConditionViolation(
            f"in-layer tensor operands live in {cx.layer!r} and {cy.layer!r}")
    return box(x.system, cx.beside(cy))


# ---------------------------------------------------------------------------
# canonicalization


def _endpoint_maps(wires: dict[int, tuple]):
    by_src: dict[Endpoint, int] = {}
    by_dst: dict[Endpoint, int] = {}
    for wi, (src, dst, _) in wires.items():
        by_src[src] = wi
        by_dst[dst] = wi
    return by_src, by_dst


def _normalize(sig_of, cells: dict[int, Cell],
               wires: dict[int, tuple]) -> None:
    """Apply the internal quotient in place: drop symmetries, fuse and erase
    boxes.  Box contents must already be canonical."""
    next_wire = max(wires, default=-1) + 1
    changed = True
    while changed:
        changed = False
        by_src, by_dst = _endpoint_maps(wires)
        for ci, cell in sorted(cells.items()):
            if isinstance(cell, SheetSym):
                src0, _, ty0 = wires.pop(by_dst[("in", ci, 0)])
                src1, _, ty1 = wires.pop(by_dst[("in", ci, 1)])
                _, dst0, _ = wires.pop(by_src[("out", ci, 0)])
                _, dst1, _ = wires.pop(by_src[("out", ci, 1)])
                wires[next_wire] = (src0, dst1, ty0)
                wires[next_wire + 1] = (src1, dst0, ty1)
                next_wire += 2
                del cells[ci]
                changed = True
                break
            if isinstance(cell, InternalBox):
                out_dst = wires[by_src[("out", ci, 0)]][1]
                if out_dst[0] == "in":
                    cj = out_dst[1]
                    other = cells.get(cj)
                    if isinstance(other, InternalBox) and out_dst[2] == 0:
                        fused = internal.canonicalize(
                            cells[ci].content.then(other.content),
                            sig_of(cell.layer))
                        cells[ci] = InternalBox(cell.layer, fused)
                        _, far_dst, far_ty = wires.pop(by_src[("out", cj, 0)])
                        wires.pop(by_src[("out", ci, 0)])
                        wires[next_wire] = (("out", ci, 0), far_dst, far_ty)
                        next_wire += 1
                        del cells[cj]
                        changed = True
                        break
                if not cells[ci].content.slices:  # identity box: splice out
                    src, _, ty = wires.pop(by_dst[("in", ci, 0)])
                    _, dst, _ = wires.pop(by_src[("out", ci, 0)])
                    wires[next_wire] = (src, dst, ty)
                    next_wire += 1
                    del cells[ci]
                    changed = True
                    break


def _traverse(nbrs: dict[int, list[int]], ends: list[tuple],
              seeds: list[int]) -> list[int]:
    """Deterministic discovery order of cells from seed wires: a wire
    discovers its producer, then its consumer; a cell queues the wires at
    its input ports, then at its output ports."""
    order: list[int] = []
    discovered: set[int] = set()
    queued: set[int] = set(seeds)
    queue = list(seeds)
    for wi in queue:  # the loop reaches the wires appended below
        for ci in ends[wi]:
            if ci is not None and ci not in discovered:
                discovered.add(ci)
                order.append(ci)
                for wj in nbrs[ci]:
                    if wj not in queued:
                        queued.add(wj)
                        queue.append(wj)
    return order


def _serialize(cells: dict[int, Cell], wires: list[tuple],
               order: list[int]) -> tuple:
    pos = {ci: k for k, ci in enumerate(order)}

    def enc(ep: Endpoint) -> tuple:
        if ep[0] in ("dom", "cod"):
            return (0, ep[1], 0)
        return (1, pos[ep[1]], ep[2])

    labels = tuple(cells[ci].label() for ci in order)
    encoded = sorted((enc(src), enc(dst), src[0], dst[0], ty)
                     for src, dst, ty in wires)
    return (labels, tuple(encoded))


def _floating_order(cells: dict[int, Cell], wires: list[tuple],
                    nbrs: dict[int, list[int]], ends: list[tuple],
                    rest: list[int]) -> list[int]:
    """Order of the cells that no boundary wire reaches: each component
    from the root whose serialization is least, the components by that
    serialization."""
    comp_orders: list[tuple[tuple, list[int]]] = []
    while rest:
        comp = _traverse(nbrs, ends, nbrs[rest[0]])
        members = set(comp)
        comp_wires = [wires[wi] for wi, (src, _) in enumerate(ends)
                      if src in members]
        best: tuple[tuple, list[int]] | None = None
        for root in sorted(comp):
            local = _traverse(nbrs, ends, nbrs[root])
            ser = _serialize(cells, comp_wires, local)
            if best is None or ser < best[0]:
                best = (ser, local)
        assert best is not None
        comp_orders.append(best)
        rest = [ci for ci in rest if ci not in members]
    comp_orders.sort(key=lambda pair: pair[0])
    return [ci for _, local in comp_orders for ci in local]


def _canonical(system: SystemOfLayers, dom: OmegaType, cod: OmegaType,
               cells: list[Cell], wires: list[tuple],
               fresh_cells: Iterable[int],
               fresh_wires: Iterable[int]) -> Diagram:
    """The canonical diagram of a well-formed diagram given by its cells and
    its wires as ``(src, dst, type)``; ``cells`` is changed in place.

    Only the cells in ``fresh_cells`` and the wires in ``fresh_wires`` may
    break the normal form: no other cell is a sheet symmetry or an empty
    box, every other box holds canonical content, and no other wire joins
    two boxes.  The quotient runs only when a fresh cell or wire breaks it.
    Nothing is validated here.
    """
    sig_of = system.signature
    settled = True
    for ci in fresh_cells:
        cell = cells[ci]
        if isinstance(cell, InternalBox):
            content = internal.canonicalize(cell.content, sig_of(cell.layer))
            cells[ci] = InternalBox(cell.layer, content)
            settled = settled and bool(content.slices)
        elif isinstance(cell, SheetSym):
            settled = False
    if settled:
        for wi in fresh_wires:
            src, dst, _ = wires[wi]
            if (src[0] == "out" and dst[0] == "in"
                    and isinstance(cells[src[1]], InternalBox)
                    and isinstance(cells[dst[1]], InternalBox)):
                settled = False
                break
    cell_map = dict(enumerate(cells))
    if not settled:
        wire_map = dict(enumerate(wires))
        _normalize(sig_of, cell_map, wire_map)
        wires = list(wire_map.values())

    # one pass over the wires: each cell's wires in port order (inputs,
    # then outputs), each wire's producing and consuming cell
    n_in: dict[int, int] = {}
    nbrs: dict[int, list[int]] = {}
    for ci, cell in cell_map.items():
        k_in, k_out = cell.ports
        n_in[ci] = k_in
        nbrs[ci] = [0] * (k_in + k_out)
    ends: list[tuple] = []
    seeds = [0] * len(dom)
    cod_wires = [0] * len(cod)
    for wi, (src, dst, _) in enumerate(wires):
        if src[0] == "out":
            a = src[1]
            nbrs[a][n_in[a] + src[2]] = wi
        else:
            a = None
            seeds[src[1]] = wi
        if dst[0] == "in":
            b = dst[1]
            nbrs[b][dst[2]] = wi
        else:
            b = None
            cod_wires[dst[1]] = wi
        ends.append((a, b))
    seeds += [wi for wi in cod_wires if wi not in seeds]

    order = _traverse(nbrs, ends, seeds)
    if len(order) < len(cell_map):
        placed = set(order)
        order += _floating_order(cell_map, wires, nbrs, ends,
                                 [ci for ci in sorted(cell_map)
                                  if ci not in placed])

    pos = {ci: k for k, ci in enumerate(order)}
    # sources are distinct, so sorting the triples orders wires by source
    triples = []
    for src, dst, ty in wires:
        if src[0] == "out":
            src = ("out", pos[src[1]], src[2])
        if dst[0] == "in":
            dst = ("in", pos[dst[1]], dst[2])
        triples.append((src, dst, ty))
    triples.sort()
    new_cells = [cell_map[ci] for ci in order]
    canon = Diagram(system, dom, cod, new_cells, map(Wire._make, triples))
    canon._key = (dom.entries, cod.entries,
                  tuple(c.label() for c in new_cells), tuple(triples))
    return canon


def canonicalize(d: Diagram) -> CanonicalForm:
    """Boundary-anchored canonical labeling after quotient normalization.

    This is a trust boundary: it validates ``d`` in full before
    normalizing, so any diagram may be passed.  The search applies rules
    through ``_canonical`` directly, which re-canonicalizes only what a
    splice changed and validates nothing (see ``rewrite._apply``).
    """
    if d._key is not None:
        return CanonicalForm(d, d._key)
    if d._canon is not None:
        return d._canon
    validate_diagram(d)
    canon = _canonical(d.system, d.dom, d.cod, list(d.cells), d.wires,
                       range(len(d.cells)), range(len(d.wires)))
    d._canon = CanonicalForm(canon, canon._key)
    return d._canon


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
    # set when "distinct" because an invariant weight separates the pair:
    # per (layer, generator), its nonzero weights (``weights``)
    weights: dict[tuple[str, str], int] | None = None


def layer_eq(x: Diagram, y: Diagram, budget: int = 64) -> LayerEqResult:
    """Three-valued equality modulo the layers' equations.

    The search is ``rewrite.find_derivation`` with an engine that matches
    the E family alone, with equation insertions on: ``budget`` counts
    the equation moves considered across both frontiers, built or not, the
    smaller frontier expanding first, and an ``equal`` verdict carries a
    derivation that ``verify_derivation`` replays.  A negative budget is
    rejected with MalformedInput.  A budget that runs out partway through a
    breadth-first level leaves the verdict to the order in which moves are
    tried.

    Before searching, ``distinct`` is certain in two cases: the canonical
    forms differ and no box lies in a layer with equations, or a weight
    that every equation keeps weighs the two differently
    (``weights.separating_weights``), which the result then carries.
    """
    from . import rewrite, weights  # local: both layer on diagram

    check_count("budget", budget)
    if x.sort != y.sort:
        raise SortMismatch("layer_eq requires parallel diagrams")
    cx, cy = canonicalize(x), canonicalize(y)
    if cx.key != cy.key:
        layers = {cell.layer for c in (cx, cy) for cell in c.diagram.cells
                  if isinstance(cell, InternalBox)}
        if not any(x.system.layer(l).equations for l in layers):
            return LayerEqResult("distinct")
        w = weights.separating_weights(cx.diagram, cy.diagram, ("E",))
        if w:
            return LayerEqResult("distinct", weights=w)
    engine = rewrite.RuleEngine(x.system, equation_insertions=True,
                                families=("E",))
    out = rewrite.find_derivation(x, y, budget, engine)
    if isinstance(out, rewrite.NotFound):
        return LayerEqResult("unknown")
    return LayerEqResult("equal", out)


# ---------------------------------------------------------------------------
# export


def _node_text(cell: Cell) -> str:
    """The tag and the names before the first word, joined by '>'
    ("refine U>L"), then a box content's dom -> cod ("box U: a -> b")."""
    text, sep = cell.tag, " "
    for name, reader in cell.label_fields:
        value = getattr(cell, name)
        if reader == WORD:
            break
        text += (sep + value if reader == NAME else ": " + " -> ".join(
            " ".join(w) or "e" for w in (value.dom, value.cod)))
        sep = ">"
    return text


def export_dot(d: Diagram) -> str:
    """Deterministic DOT rendering of the canonical form."""
    c = canonicalize(d).diagram
    lines = ["digraph diagram {", "  rankdir=LR;"]
    for end, t in (("dom", c.dom), ("cod", c.cod)):
        lines += [f'  {end}{k} [shape=point, xlabel="{layer}"];'
                  for k, (layer, _) in enumerate(t.entries)]
    for ci, cell in enumerate(c.cells):
        lines.append(f'  c{ci} [shape=box, label="{_node_text(cell)}"];')

    def node(ep: Endpoint) -> str:
        return f"{ep[0]}{ep[1]}" if ep[0] in ("dom", "cod") else f"c{ep[1]}"

    for w in c.wires:
        layer, word = w.type
        lines.append(f'  {node(w.src)} -> {node(w.dst)} '
                     f'[label="{layer}:{" ".join(word) or "e"}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
