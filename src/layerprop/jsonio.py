"""JSON encodings for systems, diagrams, derivations, models, verdicts.

All encoders are deterministic (sorted keys, canonical forms) so that
repeated runs serialize byte-identically.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from . import diagram as dg
from .diagram import Diagram, Wire, canonicalize
from .errors import LayerPropError, MalformedInput
from .internal import InternalDiagram
from .theory import (Equation, LayerPresentation, MorphismGen, OmegaType,
                     SystemOfLayers, TranslationFunctor)

if TYPE_CHECKING:  # the derivation and model codecs import these on use
    from . import rewrite as rw
    from .explain import ExplanationVerdict
    from .profunctor import FinMonoidalCategory
    from .semantics import FinOmegaSystem


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
# a cell's fields in a diagram file: a name or a word under its field's
# key, a box content flat beside its cell's layer
_FIELD_SHAPES = {dg.NAME: lambda name: {name: str},
                 dg.WORD: lambda name: {name: _WORD},
                 dg.CONTENT: lambda name: {"dom": _WORD, "cod": _WORD,
                                           "slices": [(int, str)]}}
_CELLS = {tag: {key: shape for name, reader in kind.label_fields
                for key, shape in _FIELD_SHAPES[reader](name).items()}
          for tag, kind in dg.CELL_KINDS.items()}


def _cell_shape(value) -> None:
    _check(value, {"kind": str, "id": _Opt(int)})
    if value["kind"] not in _CELLS:
        raise _Shape(f"unknown cell kind {value['kind']!r}", "kind")
    _check(value, _CELLS[value["kind"]])


def _endpoint_shape(role: str):
    """The shape of a wire's source ("out") or target ("in") endpoint:
    ["dom"|"cod", i] or ["cell", cell, port(, role)]."""
    def shape(value) -> None:
        if isinstance(value, list) and value[:1] in (["dom"], ["cod"]):
            _check(value, (str, int))
            return
        if isinstance(value, list) and len(value) == 4:
            _check(value, (str, int, int, str))
            if value[3] != role:
                raise _Shape(f"expected port {role!r}, got {value[3]!r}")
        else:
            _check(value, (str, int, int))
        if value[0] != "cell":
            raise _Shape(f"expected 'dom', 'cod' or 'cell', got {value[0]!r}")
    return shape


_DIAGRAM = {
    "sort": {"dom": [(str, _WORD)], "cod": [(str, _WORD)]},
    "cells": [_cell_shape],
    "wires": [{"source": _endpoint_shape("out"),
               "target": _endpoint_shape("in"), "type": (str, _WORD)}],
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
    out = {"kind": cell.tag}
    for name, reader in cell.label_fields:
        value = getattr(cell, name)
        out.update(internal_to_json(value) if reader == dg.CONTENT else
                   {name: value if reader == dg.NAME else list(value)})
    return out


def _cell_from_json(sys_: SystemOfLayers, payload: dict):
    """The cell of a shape-checked payload, by its kind's constructor."""
    kind = dg.CELL_KINDS[payload["kind"]]
    values = [_internal(payload) if reader == dg.CONTENT
              else payload[name] if reader == dg.NAME
              else tuple(payload[name]) for name, reader in kind.label_fields]
    return dg.CONSTRUCTORS[kind](sys_, *values).cells[0]


def _endpoint_to_json(ep) -> list:
    if ep[0] in ("dom", "cod"):
        return [ep[0], ep[1]]
    return ["cell", ep[1], ep[2], ep[0]]


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
    return _diagram(sys_, payload, "bad diagram file: ")


def _diagram(sys_: SystemOfLayers, payload: dict, at: str) -> Diagram:
    """A diagram from a payload that passed its shape check, checked
    against the system; ``at`` starts a rejection's message."""
    cells = []
    for i, c in enumerate(payload["cells"]):
        try:
            cells.append(_cell_from_json(sys_, c))
        except LayerPropError as exc:
            raise MalformedInput(f"{at}cells[{i}]: {exc}") from None
    sort = []
    for end in ("dom", "cod"):
        t = OmegaType(tuple((layer, tuple(w))
                            for layer, w in payload["sort"][end]))
        try:
            sys_.validate_type(t)
        except LayerPropError as exc:
            raise MalformedInput(f"{at}sort.{end}: {exc}") from None
        sort.append(t)

    def endpoint(raw, role):
        if raw[0] in ("dom", "cod"):
            return (raw[0], raw[1])
        return (role, raw[1], raw[2])

    wires = [Wire(endpoint(w["source"], "out"), endpoint(w["target"], "in"),
                  (w["type"][0], tuple(w["type"][1])))
             for w in payload["wires"]]
    d = Diagram(sys_, *sort, cells, wires)
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
    from . import rewrite as rw
    _checked(payload, _DERIVATION, "derivation file")
    start = _diagram(sys_, payload["start"], "bad derivation file: start.")
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
    from .profunctor import FinFunctor
    from .semantics import FinOmegaSystem
    _checked(payload, _MODEL, "model file")
    cats: dict[str, FinMonoidalCategory] = {}
    for layer, raw in payload["categories"].items():
        cats[layer] = _category(layer, raw)
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
        functor = FinFunctor(f"{src}>{tgt}", cats[src], cats[tgt],
                             dict(f["objects"]), dict(f["morphisms"]))
        _total(functor.obj_map, cats[src].objects, set(cats[tgt].objects),
               f"functors[{i}].objects", "object")
        _total(functor.mor_map, cats[src].morphisms,
               set(cats[tgt].morphisms), f"functors[{i}].morphisms",
               "morphism")
        functors[(src, tgt)] = functor
    for part, members in (("objects", "objects"), ("generators", "morphisms")):
        for key, value in payload[part].items():
            cat = cats.get(key.split(":", 1)[0])
            if cat is not None and value not in getattr(cat, members):
                raise MalformedInput(
                    f"bad model file: {part}.{key}: {value!r} is not one of "
                    f"the {members} of {cat.name!r}")
    return FinOmegaSystem(sys_, cats, objects, generators, functors)


def _category(layer: str, raw: dict) -> FinMonoidalCategory:
    """A model category whose tables are total and land in it, so that the
    law checks read no missing entry."""
    from .profunctor import FinMonoidalCategory
    at = f"categories.{layer}"
    objects, names = raw["objects"], [m["name"] for m in raw["morphisms"]]
    objs, mors = set(objects), set(names)
    for i, m in enumerate(raw["morphisms"]):
        for end in ("dom", "cod"):
            if m[end] not in objs:
                raise MalformedInput(f"bad model file: {at}.morphisms[{i}]."
                                     f"{end}: no object {m[end]!r}")
    if raw["unit"] not in objs:
        raise MalformedInput(f"bad model file: {at}.unit: no object "
                             f"{raw['unit']!r}")
    dom = {m["name"]: m["dom"] for m in raw["morphisms"]}
    cod = {m["name"]: m["cod"] for m in raw["morphisms"]}
    compose = {(f, g): h for f, g, h in raw["compose"]}
    identities = dict(raw["identities"])
    tensor_obj = {(a, b): c for a, b, c in raw["tensor_obj"]}
    tensor_mor = {(f, g): h for f, g, h in raw["tensor_mor"]}
    _total(identities, objects, mors, f"{at}.identities", "morphism")
    _total(compose, [(f, g) for f in names for g in names
                     if cod[f] == dom[g]], mors, f"{at}.compose", "morphism")
    _total(tensor_obj, [(a, b) for a in objects for b in objects], objs,
           f"{at}.tensor_obj", "object")
    _total(tensor_mor, [(f, g) for f in names for g in names], mors,
           f"{at}.tensor_mor", "morphism")
    return FinMonoidalCategory(layer, objects, names, dom, cod, compose,
                               identities, raw["unit"], tensor_obj, tensor_mor)


def _total(table: dict, keys, values: set, at: str, what: str) -> None:
    for key in keys:
        shown = list(key) if isinstance(key, tuple) else key
        if key not in table:
            raise MalformedInput(f"bad model file: {at}: no entry for "
                                 f"{shown!r}")
        if table[key] not in values:
            raise MalformedInput(f"bad model file: {at}: {shown!r} maps to "
                                 f"{table[key]!r}, which is no {what}")
