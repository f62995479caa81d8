"""JSON encodings for systems, diagrams, derivations, models, verdicts.

All encoders are deterministic (sorted keys, canonical forms) so that
repeated runs serialize byte-identically.
"""

from __future__ import annotations

import json
from typing import Any

from . import diagram as dg
from . import rewrite as rw
from .diagram import (Cap, Coarsen, Copants, Cup, Diagram, InternalBox,
                      Pants, Refine, SheetSym, Wire, canonicalize)
from .errors import MalformedInput
from .explain import ExplanationVerdict
from .internal import InternalDiagram
from .profunctor import FinFunctor, FinMonoidalCategory
from .semantics import FinOmegaSystem
from .theory import (Equation, LayerPresentation, MorphismGen, OmegaType,
                     SystemOfLayers, TranslationFunctor)


def dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=1,
                      ensure_ascii=False) + "\n"


# -- payload shapes ---------------------------------------------------------
#
# A shape is a type (the node must be an instance), a dict (an object with
# those keys; ``_Opt`` marks an optional key's shape, the key ``str``
# applies to every value), a list of one shape (a list of such items), a
# tuple (a list with exactly those items) or a function checking the node
# itself.  Valid input pays for no path strings: a failing node's path is
# collected only as the error leaves each enclosing node.


class _Shape(Exception):
    """A payload node that does not fit its shape."""

    def __init__(self, problem: str, *path):
        super().__init__(problem)
        self.path = list(path)  # innermost key first

    def __str__(self) -> str:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                        for k in reversed(self.path)).lstrip(".")
        return f"{where or 'top level'}: {self.args[0]}"


class _Opt:
    def __init__(self, shape):
        self.shape = shape


def _kind(value) -> str:
    return "null" if value is None else type(value).__name__


def _child(value, shape, key) -> None:
    try:
        _check(value, shape)
    except _Shape as exc:
        exc.path.append(key)
        raise


def _check(value, shape) -> None:
    kind = type(shape)
    if kind is dict:
        if not isinstance(value, dict):
            raise _Shape(f"expected an object, got {_kind(value)}")
        for key, sub in shape.items():
            if key is str:
                for k, v in value.items():
                    _child(v, sub, k)
            elif key in value:
                sub = sub.shape if type(sub) is _Opt else sub
                if type(value[key]) is not sub:  # else a leaf that fits
                    _child(value[key], sub, key)
            elif type(sub) is not _Opt:
                raise _Shape("missing", key)
    elif kind is list or kind is tuple:
        if not isinstance(value, list):
            raise _Shape(f"expected a list, got {_kind(value)}")
        if kind is tuple:
            if tuple(map(type, value)) == shape:  # the common case, in C
                return
            if len(value) != len(shape):
                raise _Shape(f"expected {len(shape)} items, "
                             f"got {len(value)}")
            subs = shape
        else:
            item = shape[0]
            if type(item) is type and set(map(type, value)) <= {item}:
                return
            subs = shape * len(value)
        for i, (item, sub) in enumerate(zip(value, subs)):
            _child(item, sub, i)
    elif kind is type:
        if not isinstance(value, shape) or isinstance(value, bool):
            raise _Shape(f"expected {shape.__name__}, got {_kind(value)}")
    else:
        shape(value)


def _checked(payload, shape, what: str) -> None:
    """MalformedInput naming the first node of payload off its shape."""
    try:
        _check(payload, shape)
    except _Shape as exc:
        raise MalformedInput(f"bad {what}: {exc}") from None


_WORD = [str]
_INTERNAL = {"layer": str, "dom": _WORD, "cod": _WORD, "slices": [(int, str)]}
_THEORY = {
    "layers": [{"name": str, "objects": _WORD,
                "morphisms": _Opt([{"name": str, "dom": _WORD,
                                    "cod": _WORD}]),
                "equations": _Opt([{"name": str, "lhs": _INTERNAL,
                                    "rhs": _INTERNAL}])}],
    "functors": _Opt([{"source": str, "target": str,
                       "objects": {str: _WORD},
                       "morphisms": {str: _INTERNAL}}]),
    "order": _Opt([(str, str)]),
}
_SPLIT = {"layer": str, "alpha": _WORD, "beta": _WORD}
_FRAME = {"source": str, "target": str, "word": _WORD}
_CELLS = {"box": _INTERNAL, "pants": _SPLIT, "copants": _SPLIT,
          "cup": {"layer": str}, "cap": {"layer": str},
          "refine": _FRAME, "coarsen": _FRAME,
          "sym": {"layer1": str, "alpha": _WORD, "layer2": str,
                  "beta": _WORD}}


def _cell_shape(value) -> None:
    _check(value, {"kind": str})
    if value["kind"] not in _CELLS:
        raise _Shape(f"unknown cell kind {value['kind']!r}", "kind")
    _check(value, _CELLS[value["kind"]])


def _endpoint_shape(value) -> None:
    """["dom"|"cod", i] or ["cell", cell, port(, "in"|"out")]."""
    if isinstance(value, list) and value[:1] in (["dom"], ["cod"]):
        _check(value, (str, int))
    elif isinstance(value, list) and len(value) == 4:
        _check(value, (str, int, int, str))
    else:
        _check(value, (str, int, int))


_DIAGRAM = {
    "sort": {"dom": [(str, _WORD)], "cod": [(str, _WORD)]},
    "cells": [_cell_shape],
    "wires": [{"source": _endpoint_shape, "target": _endpoint_shape,
               "type": (str, _WORD)}],
}
_DERIVATION = {
    "start": _DIAGRAM,
    "steps": _Opt([{"rule": _Opt(str), "orientation": _Opt(str),
                    "anchor": _Opt({"cells": _Opt([int]),
                                    "dom_wires": _Opt([int]),
                                    "cod_wires": _Opt([int]),
                                    "box": _Opt({**_INTERNAL,
                                                 "cell": int})})}]),
}


def _qualified(value) -> None:
    """An object whose keys read "layer:name" and whose values are names."""
    _check(value, {str: str})
    for key in value:
        if ":" not in key:
            raise _Shape("expected a key of the form 'layer:name'", key)


_TRIPLES = [(str, str, str)]
_MODEL = {
    "categories": {str: {"objects": [str],
                         "morphisms": [{"name": str, "dom": str, "cod": str}],
                         "compose": _TRIPLES, "identities": {str: str},
                         "unit": str, "tensor_obj": _TRIPLES,
                         "tensor_mor": _TRIPLES}},
    "objects": _qualified,
    "generators": _qualified,
    "functors": _Opt([{"source": str, "target": str, "objects": {str: str},
                       "morphisms": {str: str}}]),
}


# -- internal diagrams -------------------------------------------------------


def internal_to_json(d: InternalDiagram) -> dict:
    return {"layer": d.layer, "dom": list(d.dom), "cod": list(d.cod),
            "slices": [[off, gen] for off, gen in d.slices]}


def _internal(payload: dict) -> InternalDiagram:
    """An internal diagram from a payload that passed its shape check."""
    return InternalDiagram(
        payload["layer"], tuple(payload["dom"]), tuple(payload["cod"]),
        tuple((off, gen) for off, gen in payload["slices"]))


# -- systems ------------------------------------------------------------------


def system_to_json(sys_: SystemOfLayers) -> dict:
    return {
        "layers": [
            {"name": lay.name,
             "objects": list(lay.gen_objects),
             "morphisms": [{"name": g.name, "dom": list(g.dom),
                            "cod": list(g.cod)}
                           for g in lay.gen_morphisms],
             "equations": [{"name": eq.name,
                            "lhs": internal_to_json(eq.lhs),
                            "rhs": internal_to_json(eq.rhs)}
                           for eq in lay.equations]}
            for lay in sorted(sys_.layers.values(), key=lambda l: l.name)],
        "functors": [
            {"source": f.source, "target": f.target,
             "objects": {sym: list(w) for sym, w in f.object_map},
             "morphisms": {gen: internal_to_json(img)
                           for gen, img in f.morphism_map}}
            for (_, _), f in sorted(sys_.functors.items())],
        "order": [list(pair) for pair in sorted(sys_.order)],
    }


def system_from_json(payload: dict) -> SystemOfLayers:
    _checked(payload, _THEORY, "theory file")
    layers = []
    for lay in payload["layers"]:
        layers.append(LayerPresentation(
            lay["name"], tuple(lay["objects"]),
            tuple(MorphismGen(m["name"], tuple(m["dom"]), tuple(m["cod"]))
                  for m in lay.get("morphisms", ())),
            tuple(Equation(e["name"], _internal(e["lhs"]),
                           _internal(e["rhs"]))
                  for e in lay.get("equations", ()))))
    functors = []
    for f in payload.get("functors", ()):
        functors.append(TranslationFunctor(
            f["source"], f["target"],
            tuple(sorted((sym, tuple(w))
                         for sym, w in f["objects"].items())),
            tuple(sorted((gen, _internal(img))
                         for gen, img in f["morphisms"].items()))))
    order = [tuple(pair) for pair in payload.get("order", ())]
    return SystemOfLayers(layers, functors, order)


# -- diagrams -----------------------------------------------------------------


def _cell_to_json(cell) -> dict:
    if isinstance(cell, InternalBox):
        return {"kind": "box", **internal_to_json(cell.content)}
    if isinstance(cell, Pants):
        return {"kind": "pants", "layer": cell.layer,
                "alpha": list(cell.alpha), "beta": list(cell.beta)}
    if isinstance(cell, Copants):
        return {"kind": "copants", "layer": cell.layer,
                "alpha": list(cell.alpha), "beta": list(cell.beta)}
    if isinstance(cell, Cup):
        return {"kind": "cup", "layer": cell.layer}
    if isinstance(cell, Cap):
        return {"kind": "cap", "layer": cell.layer}
    if isinstance(cell, Refine):
        return {"kind": "refine", "source": cell.source,
                "target": cell.target, "word": list(cell.word)}
    if isinstance(cell, Coarsen):
        return {"kind": "coarsen", "source": cell.source,
                "target": cell.target, "word": list(cell.word)}
    if isinstance(cell, SheetSym):
        return {"kind": "sym", "layer1": cell.layer1,
                "alpha": list(cell.alpha), "layer2": cell.layer2,
                "beta": list(cell.beta)}
    raise MalformedInput(f"unknown cell {cell!r}")


def _cell_from_json(sys_: SystemOfLayers, payload: dict):
    kind = payload.get("kind")
    if kind == "box":
        content = _internal(payload)
        return InternalBox(content.layer, content)
    if kind == "pants":
        return Pants(payload["layer"], tuple(payload["alpha"]),
                     tuple(payload["beta"]))
    if kind == "copants":
        return Copants(payload["layer"], tuple(payload["alpha"]),
                       tuple(payload["beta"]))
    if kind == "cup":
        return Cup(payload["layer"])
    if kind == "cap":
        return Cap(payload["layer"])
    if kind == "refine":
        f = sys_.functor(payload["source"], payload["target"])
        word = tuple(payload["word"])
        return Refine(payload["source"], payload["target"], word,
                      f.word_image(word))
    if kind == "coarsen":
        f = sys_.functor(payload["source"], payload["target"])
        word = tuple(payload["word"])
        return Coarsen(payload["source"], payload["target"], word,
                       f.word_image(word))
    if kind == "sym":
        return SheetSym(payload["layer1"], tuple(payload["alpha"]),
                        payload["layer2"], tuple(payload["beta"]))
    raise MalformedInput(f"unknown cell kind {kind!r}")


def _endpoint_to_json(ep) -> list:
    if ep[0] in ("dom", "cod"):
        return [ep[0], ep[1]]
    side = "cell"
    return [side, ep[1], ep[2], "out" if ep[0] == "out" else "in"]


def diagram_to_json(d: Diagram) -> dict:
    c = canonicalize(d).diagram
    return {
        "sort": {"dom": [[layer, list(w)] for layer, w in c.dom.entries],
                 "cod": [[layer, list(w)] for layer, w in c.cod.entries]},
        "cells": [{"id": i, **_cell_to_json(cell)}
                  for i, cell in enumerate(c.cells)],
        "wires": [{"source": _endpoint_to_json(w.src),
                   "target": _endpoint_to_json(w.dst),
                   "type": [w.type[0], list(w.type[1])]}
                  for w in c.wires],
    }


def diagram_from_json(sys_: SystemOfLayers, payload: dict) -> Diagram:
    _checked(payload, _DIAGRAM, "diagram file")
    dom = OmegaType(tuple((layer, tuple(w))
                          for layer, w in payload["sort"]["dom"]))
    cod = OmegaType(tuple((layer, tuple(w))
                          for layer, w in payload["sort"]["cod"]))
    cells = [_cell_from_json(sys_, c) for c in payload["cells"]]

    def endpoint(raw, role):
        if raw[0] in ("dom", "cod"):
            return (raw[0], raw[1])
        port = raw[3] if len(raw) > 3 else role
        return (port, raw[1], raw[2])

    wires = [Wire(endpoint(w["source"], "out"), endpoint(w["target"], "in"),
                  (w["type"][0], tuple(w["type"][1])))
             for w in payload["wires"]]
    d = Diagram(sys_, dom, cod, cells, wires)
    dg.validate_diagram(d)
    return d


# -- derivations --------------------------------------------------------------


def derivation_to_json(dv: rw.Derivation) -> dict:
    steps = []
    for m in dv.steps:
        anchor = {"cells": list(m.cells),
                  "dom_wires": list(m.dom_wires),
                  "cod_wires": list(m.cod_wires)}
        if m.box_payload is not None:
            ci, content = m.box_payload
            anchor["box"] = {"cell": ci, **internal_to_json(content)}
        steps.append({"rule": m.rule.name, "orientation": m.orientation,
                      "anchor": anchor})
    return {"start": diagram_to_json(dv.start), "steps": steps}


def derivation_from_json(sys_: SystemOfLayers, payload: dict,
                         engine: rw.RuleEngine | None = None
                         ) -> rw.Derivation:
    """Reconstruct by replaying: each recorded step must re-match."""
    _checked(payload, _DERIVATION, "derivation file")
    start = diagram_from_json(sys_, payload["start"])
    signatures = []
    for step in payload.get("steps", ()):
        anchor = step.get("anchor", {})
        box = anchor.get("box")
        payload_sig = None
        if box is not None:
            content = _internal(box)
            payload_sig = (box["cell"], content.dom, content.cod,
                           content.slices)
        signatures.append((step.get("rule"), step.get("orientation"),
                           tuple(anchor.get("cells", ())),
                           tuple(anchor.get("dom_wires", ())),
                           tuple(anchor.get("cod_wires", ())), payload_sig))
    return rw.replay(start, signatures, engine)


# -- verdicts -----------------------------------------------------------------


def verdict_to_json(v: ExplanationVerdict) -> dict:
    return {
        "status": v.status,
        "witness": None if v.witness is None
        else derivation_to_json(v.witness),
        "failed_conditions": list(v.reasons),
    }


# -- finite models ------------------------------------------------------------


def model_to_json(model: FinOmegaSystem) -> dict:
    cats = {}
    for layer, cat in sorted(model.categories.items()):
        cats[layer] = {
            "objects": list(cat.objects),
            "morphisms": [{"name": m, "dom": cat.dom(m), "cod": cat.cod(m)}
                          for m in cat.morphisms],
            "compose": [[f, g, cat.then(f, g)]
                        for f in cat.morphisms for g in cat.morphisms
                        if cat.cod(f) == cat.dom(g)],
            "identities": {a: cat.ident(a) for a in cat.objects},
            "unit": cat.unit,
            "tensor_obj": [[a, b, cat.tensor_obj(a, b)]
                           for a in cat.objects for b in cat.objects],
            "tensor_mor": [[f, g, cat.tensor_mor(f, g)]
                           for f in cat.morphisms for g in cat.morphisms],
        }
    return {
        "categories": cats,
        "objects": {f"{layer}:{sym}": obj
                    for (layer, sym), obj in sorted(model.objects.items())},
        "generators": {f"{layer}:{gen}": mor
                       for (layer, gen), mor
                       in sorted(model.generators.items())},
        "functors": [{"source": s, "target": t,
                      "objects": dict(sorted(f.obj_map.items())),
                      "morphisms": dict(sorted(f.mor_map.items()))}
                     for (s, t), f in sorted(model.functors.items())],
    }


def model_from_json(sys_: SystemOfLayers, payload: dict) -> FinOmegaSystem:
    _checked(payload, _MODEL, "model file")
    cats: dict[str, FinMonoidalCategory] = {}
    for layer, raw in payload["categories"].items():
        morphisms = raw["morphisms"]
        cats[layer] = FinMonoidalCategory(
            layer, raw["objects"], [m["name"] for m in morphisms],
            {m["name"]: m["dom"] for m in morphisms},
            {m["name"]: m["cod"] for m in morphisms},
            {(f, g): h for f, g, h in raw["compose"]},
            dict(raw["identities"]), raw["unit"],
            {(a, b): c for a, b, c in raw["tensor_obj"]},
            {(f, g): h for f, g, h in raw["tensor_mor"]})
    objects = {tuple(key.split(":", 1)): obj
               for key, obj in payload["objects"].items()}
    generators = {tuple(key.split(":", 1)): mor
                  for key, mor in payload["generators"].items()}
    functors = {}
    for i, f in enumerate(payload.get("functors", ())):
        src, tgt = f["source"], f["target"]
        for end in ("source", "target"):
            if f[end] not in cats:
                raise MalformedInput(
                    f"bad model file: functors[{i}].{end}: no category "
                    f"{f[end]!r}")
        functors[(src, tgt)] = FinFunctor(
            f"{src}>{tgt}", cats[src], cats[tgt],
            dict(f["objects"]), dict(f["morphisms"]))
    return FinOmegaSystem(sys_, cats, objects, generators, functors)
