"""Systems of layers: presentations, translations, and validation.

A layer is a finitely presented strict monoidal category: generating objects,
generating morphisms with dom/cod words, and equations between internal
diagrams.  Layers are related by translation functors running from the more
abstract layer down to the less abstract one; the induced order is stored
explicitly and checked against the functors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import internal
from .errors import UnknownFunctor, UnknownLayer, UnknownSymbol
from .internal import InternalDiagram, Word


@dataclass(frozen=True)
class MorphismGen:
    name: str
    dom: Word
    cod: Word


@dataclass(frozen=True)
class Equation:
    name: str
    lhs: InternalDiagram
    rhs: InternalDiagram


@dataclass(frozen=True)
class LayerPresentation:
    name: str
    gen_objects: tuple[str, ...]
    gen_morphisms: tuple[MorphismGen, ...] = ()
    equations: tuple[Equation, ...] = ()

    @property
    def signature(self) -> dict[str, tuple[Word, Word]]:
        return {g.name: (g.dom, g.cod) for g in self.gen_morphisms}

    def declares_word(self, w: Word) -> bool:
        return all(sym in self.gen_objects for sym in w)


@dataclass(frozen=True)
class TranslationFunctor:
    """Strict monoidal functor from ``source`` (more abstract) to ``target``."""

    source: str
    target: str
    object_map: tuple[tuple[str, Word], ...]
    morphism_map: tuple[tuple[str, InternalDiagram], ...] = ()

    @property
    def name(self) -> str:
        return f"{self.source}>{self.target}"

    def word_image(self, w: Word) -> Word:
        omap = dict(self.object_map)
        out: list[str] = []
        for sym in w:
            if sym not in omap:
                raise UnknownSymbol(
                    f"functor {self.name} has no image for object {sym!r}")
            out.extend(omap[sym])
        return tuple(out)

    def gen_image(self, gen: str) -> InternalDiagram:
        mmap = dict(self.morphism_map)
        if gen not in mmap:
            raise UnknownSymbol(
                f"functor {self.name} has no image for morphism {gen!r}")
        return mmap[gen]


@dataclass(frozen=True)
class OmegaType:
    """Boundary type: an ordered list of (layer, object word) sheets."""

    entries: tuple[tuple[str, Word], ...] = ()

    def __add__(self, other: "OmegaType") -> "OmegaType":
        return OmegaType(self.entries + other.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def pretty(self) -> str:
        if not self.entries:
            return "()"
        return "; ".join(f"{layer}:{' '.join(w) if w else 'e'}"
                         for layer, w in self.entries)


EMPTY_TYPE = OmegaType()


def sheet(layer: str, w: Word) -> OmegaType:
    return OmegaType(((layer, w),))


@dataclass(frozen=True)
class Sort:
    dom: OmegaType
    cod: OmegaType

    def pretty(self) -> str:
        return f"({self.dom.pretty()} | {self.cod.pretty()})"


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    def add(self, message: str) -> None:
        self.violations.append(message)

    @property
    def ok(self) -> bool:
        return not self.violations


class SystemOfLayers:
    """Immutable bundle of layers, translation functors and their order.

    ``order`` lists generating (lower, higher) pairs; queries use the
    transitive closure.  Construction does not validate; run
    ``validate_system`` and check ``.ok`` before trusting a hand-built system.
    """

    def __init__(self, layers: Sequence[LayerPresentation],
                 functors: Sequence[TranslationFunctor] = (),
                 order: Iterable[tuple[str, str]] = ()) -> None:
        self.layers: dict[str, LayerPresentation] = {}
        self._duplicate_layers: list[str] = []
        for lay in layers:
            if lay.name in self.layers:
                self._duplicate_layers.append(lay.name)
            self.layers[lay.name] = lay
        self.functors: dict[tuple[str, str], TranslationFunctor] = {}
        self._duplicate_functors: list[tuple[str, str]] = []
        for f in functors:
            key = (f.source, f.target)
            if key in self.functors:
                self._duplicate_functors.append(key)
            self.functors[key] = f
        self.order: tuple[tuple[str, str], ...] = tuple(order)
        self._closure: frozenset[tuple[str, str]] | None = None
        # shared by the rule engines over this system (``rewrite``): per
        # (template, host values) its rules, per (table key, arguments) the
        # rule, per (box content, equation, orientation) the rewrites; the
        # first and last also say whether their search was exhaustive
        self._rewrite_memo: dict[tuple, object] = {}

    def layer(self, name: str) -> LayerPresentation:
        if name not in self.layers:
            raise UnknownLayer(f"no layer named {name!r}")
        return self.layers[name]

    def functor(self, source: str, target: str) -> TranslationFunctor:
        key = (source, target)
        if key not in self.functors:
            raise UnknownFunctor(f"no translation {source!r} -> {target!r}")
        return self.functors[key]

    def order_closure(self) -> frozenset[tuple[str, str]]:
        if self._closure is None:
            pairs = set(self.order)
            changed = True
            while changed:
                changed = False
                for a, b in list(pairs):
                    for c, d in list(pairs):
                        if b == c and (a, d) not in pairs:
                            pairs.add((a, d))
                            changed = True
            self._closure = frozenset(pairs)
        return self._closure

    def below(self, lower: str, higher: str) -> bool:
        """Strictly lower in abstraction: lower < higher."""
        return (lower, higher) in self.order_closure()

    def signature(self, layer: str) -> dict[str, tuple[Word, Word]]:
        return self.layer(layer).signature

    def validate_word(self, layer: str, w: Word) -> None:
        lay = self.layer(layer)
        for sym in w:
            if sym not in lay.gen_objects:
                raise UnknownSymbol(
                    f"object {sym!r} not declared in layer {layer!r}")

    def validate_type(self, t: OmegaType) -> None:
        for layer, w in t.entries:
            self.validate_word(layer, w)


def translate_internal(sys: SystemOfLayers, f: TranslationFunctor,
                       d: InternalDiagram) -> InternalDiagram:
    if d.layer != f.source:
        raise UnknownLayer(
            f"diagram lives in {d.layer!r}, functor starts at {f.source!r}")
    return internal.translate(d, f.target, f.word_image, f.gen_image,
                              sys.signature(f.source))


def compose_functors(sys: SystemOfLayers, f: TranslationFunctor,
                     g: TranslationFunctor) -> TranslationFunctor:
    """The composite doing f first, then g."""
    if f.target != g.source:
        raise UnknownFunctor(
            f"cannot compose {f.name} with {g.name}")
    omap = tuple((sym, g.word_image(w)) for sym, w in f.object_map)
    mmap = tuple((gen, translate_internal(sys, g, img))
                 for gen, img in f.morphism_map)
    return TranslationFunctor(f.source, g.target, omap, mmap)


def _validate_layer(lay: LayerPresentation, report: ValidationReport) -> None:
    seen: set[str] = set()
    for g in lay.gen_morphisms:
        if g.name in seen:
            report.add(f"layer {lay.name!r}: duplicate generator {g.name!r}")
        seen.add(g.name)
        for w, side in ((g.dom, "dom"), (g.cod, "cod")):
            for sym in w:
                if sym not in lay.gen_objects:
                    report.add(f"layer {lay.name!r}: generator {g.name!r} "
                               f"{side} uses undeclared object {sym!r}")
    sig = lay.signature
    for eq in lay.equations:
        for d, side in ((eq.lhs, "lhs"), (eq.rhs, "rhs")):
            if d.layer != lay.name:
                report.add(f"equation {eq.name!r}: {side} lives in layer "
                           f"{d.layer!r}, not {lay.name!r}")
                continue
            try:
                internal.validate(d, sig)
            except Exception as exc:  # reported, not raised
                report.add(f"equation {eq.name!r}: {side} ill-typed: {exc}")
        if eq.lhs.dom != eq.rhs.dom or eq.lhs.cod != eq.rhs.cod:
            report.add(f"equation {eq.name!r}: sides are not parallel")


def _validate_functor(sys: SystemOfLayers, f: TranslationFunctor,
                      report: ValidationReport) -> None:
    if f.source not in sys.layers or f.target not in sys.layers:
        report.add(f"functor {f.name}: unknown endpoint layer")
        return
    src, tgt = sys.layer(f.source), sys.layer(f.target)
    omap = dict(f.object_map)
    for sym in src.gen_objects:
        if sym not in omap:
            report.add(f"functor {f.name}: object {sym!r} has no image")
        elif not tgt.declares_word(omap[sym]):
            report.add(f"functor {f.name}: image of {sym!r} uses objects "
                       f"undeclared in {f.target!r}")
    mmap = dict(f.morphism_map)
    tgt_sig = tgt.signature
    for g in src.gen_morphisms:
        if g.name not in mmap:
            report.add(f"functor {f.name}: morphism {g.name!r} has no image")
            continue
        img = mmap[g.name]
        if img.layer != f.target:
            report.add(f"functor {f.name}: image of {g.name!r} lives in "
                       f"{img.layer!r}, not {f.target!r}")
            continue
        try:
            internal.validate(img, tgt_sig)
        except Exception as exc:
            report.add(f"functor {f.name}: image of {g.name!r} ill-typed: "
                       f"{exc}")
            continue
        try:
            want_dom, want_cod = f.word_image(g.dom), f.word_image(g.cod)
        except UnknownSymbol:
            continue  # already reported above
        if img.dom != want_dom or img.cod != want_cod:
            report.add(f"functor {f.name}: image of {g.name!r} has sort "
                       f"{img.dom!r}->{img.cod!r}, expected "
                       f"{want_dom!r}->{want_cod!r}")


def validate_system(sys: SystemOfLayers) -> ValidationReport:
    """Check every structural invariant; the report is empty iff valid."""
    report = ValidationReport()
    for name in sys._duplicate_layers:
        report.add(f"duplicate layer name {name!r}")
    for key in sys._duplicate_functors:
        report.add(f"posetality: more than one functor for pair {key!r}")
    for lay in sys.layers.values():
        _validate_layer(lay, report)

    for a, b in sys.order:
        if a not in sys.layers or b not in sys.layers:
            report.add(f"order pair {(a, b)!r} mentions unknown layer")
    closure = sys.order_closure()
    for a, b in closure:
        if (b, a) in closure:
            report.add(f"order has a cycle through {a!r} and {b!r}")
        if a == b:
            report.add(f"order is not irreflexive at {a!r}")

    for f in sys.functors.values():
        _validate_functor(sys, f, report)
        if f.source == f.target:
            report.add(f"functor {f.name}: endpoints coincide")
        elif not sys.below(f.target, f.source):
            report.add(f"functor {f.name}: target is not strictly below "
                       f"source in the stored order")
    for a, b in closure:
        if a != b and (b, a) not in sys.functors:
            report.add(f"order relates {a!r} < {b!r} but no translation "
                       f"{b!r} -> {a!r} is stored")

    # composition closure: stored composite must agree generator-wise
    for (a, b), f in sorted(sys.functors.items()):
        for (c, d), g in sorted(sys.functors.items()):
            if b != c:
                continue
            if (a, d) not in sys.functors:
                report.add(f"missing composite functor {a!r} -> {d!r}")
                continue
            h = sys.functors[(a, d)]
            try:
                comp = compose_functors(sys, f, g)
            except Exception as exc:
                report.add(f"cannot compose {f.name} with {g.name}: {exc}")
                continue
            tgt_sig = sys.signature(d)
            for sym, w in comp.object_map:
                if dict(h.object_map).get(sym) != w:
                    report.add(f"composite {f.name};{g.name} disagrees with "
                               f"stored {h.name} on object {sym!r}")
            stored_m = dict(h.morphism_map)
            for gen, img in comp.morphism_map:
                have = stored_m.get(gen)
                if have is None:
                    continue  # missing image already reported
                want = internal.canonical_slices(img.slices, tgt_sig)
                got = internal.canonical_slices(have.slices, tgt_sig)
                if (img.dom, img.cod, want) != (have.dom, have.cod, got):
                    report.add(f"composite {f.name};{g.name} disagrees with "
                               f"stored {h.name} on morphism {gen!r}")
    return report
