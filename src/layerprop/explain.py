"""Window recognition and the three explanation judgments.

An explanation relates two parallel diagrams across abstraction levels:
the explained morphism must be a single box of one layer (condition 1),
the explaining diagram may only use boxes from strictly lower layers
(condition 2), and the two must be connected by a rewrite (condition 3; a
counterfactual negates it).  The explanation and the counterfactual share
one shell: ``_conditions_12`` and the search both ways,
``rewrite._either_way``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import rewrite as rw
from .diagram import (Coarsen, Diagram, InternalBox, Refine, as_internal,
                      box, canonical_key, canonicalize, structural_eq)
from .errors import InvalidDerivation, SortMismatch
from .rewrite import Derivation, RuleEngine


@dataclass
class ExplanationVerdict:
    status: str  # valid | invalid | certified | refuted | unknown
    witness: Derivation | None = None
    reasons: list[str] = field(default_factory=list)


def _single_path(d: Diagram) -> list | None:
    """Cells in order along a single-sheet chain dom -> ... -> cod."""
    c = canonicalize(d).diagram
    if len(c.dom) != 1 or len(c.cod) != 1:
        return None
    by_src = {w.src: w for w in c.wires}
    chain = []
    cursor = by_src.get(("dom", 0))
    seen = 0
    while cursor is not None and seen <= len(c.cells) + 1:
        if cursor.dst[0] == "cod":
            return chain if len(chain) == len(c.cells) else None
        ci = cursor.dst[1]
        chain.append(c.cells[ci])
        cursor = by_src.get(("out", ci, 0))
        seen += 1
        if c.cells[ci].ports != (1, 1):
            return None
    return None


def _framed(d: Diagram, first_kind: type, last_kind: type,
            inner: str) -> bool:
    """A ``first_kind`` cell, at most one box in its ``inner`` layer, then
    a ``last_kind`` cell of the same translation."""
    chain = _single_path(d)
    if not chain:
        return False
    first, last = chain[0], chain[-1]
    return (isinstance(first, first_kind) and isinstance(last, last_kind)
            and (first.source, first.target) == (last.source, last.target)
            and len(chain) <= 3
            and all(isinstance(c, InternalBox)
                    and c.layer == getattr(first, inner) for c in chain[1:-1]))


def is_window(d: Diagram) -> bool:
    """Refine, then an internal morphism of the lower layer, then coarsen."""
    return _framed(d, Refine, Coarsen, "target")


def is_cowindow(d: Diagram) -> bool:
    """Coarsen, then an internal morphism of the upper layer, then refine."""
    return _framed(d, Coarsen, Refine, "source")


def contains_window(d: Diagram) -> bool:
    """Some refine cell reaches a matching coarsen through boxes only."""
    c = canonicalize(d).diagram
    by_src = {w.src: w for w in c.wires}
    for ci, cell in enumerate(c.cells):
        if not isinstance(cell, Refine):
            continue
        cursor = by_src.get(("out", ci, 0))
        hops = 0
        while cursor is not None and hops <= len(c.cells):
            if cursor.dst[0] != "in":
                break
            nxt = c.cells[cursor.dst[1]]
            if isinstance(nxt, Coarsen) and \
                    (nxt.source, nxt.target) == (cell.source, cell.target):
                return True
            if isinstance(nxt, InternalBox) and nxt.layer == cell.target:
                cursor = by_src.get(("out", cursor.dst[1], 0))
                hops += 1
                continue
            break
    return False


def _conditions_12(e: Diagram, sigma: Diagram, what: str) -> list[str]:
    """Why conditions 1 and 2 fail; ``what`` names e when the two are not
    parallel."""
    if e.sort != sigma.sort:
        raise SortMismatch(f"{what} and explained must be parallel")
    content = as_internal(sigma)
    if content is None or not content.slices:
        return ["condition 1: explained morphism is not a single internal "
                "box of one layer"]
    omega = content.layer
    return [f"condition 2: internal box {ci} lives in layer {cell.layer!r}, "
            f"which is not strictly below {omega!r}"
            for ci, cell in enumerate(canonicalize(e).diagram.cells)
            if isinstance(cell, InternalBox) and cell.content.slices
            and not e.system.below(cell.layer, omega)]


def check_explanation_1(e: Diagram, sigma: Diagram, budget: int = 10_000,
                        engine: RuleEngine | None = None
                        ) -> ExplanationVerdict:
    """Is e an explanation of the internal morphism sigma?"""
    reasons = _conditions_12(e, sigma, "explanation")
    if reasons:
        return ExplanationVerdict("invalid", None, reasons)
    dv = rw._either_way(e, sigma, budget, engine)
    if isinstance(dv, rw.NotFound):
        return ExplanationVerdict("unknown", None, [
            f"condition 3: no rewrite found within budget {budget}"])
    return ExplanationVerdict("valid", dv, [])


def check_explanation_2(eta: Derivation, layer: str, eq_name: str
                        ) -> ExplanationVerdict:
    """Is the derivation eta an explanation of the named layer equation?"""
    sys = eta.start.system
    equations = {eq.name: eq for eq in sys.layer(layer).equations}
    if eq_name not in equations:
        raise InvalidDerivation(
            f"layer {layer!r} has no equation named {eq_name!r}")
    if not rw.verify_derivation(eta):
        raise InvalidDerivation("derivation does not replay")
    eq = equations[eq_name]
    lhs_key = canonical_key(box(sys, eq.lhs))
    rhs_key = canonical_key(box(sys, eq.rhs))
    ends = {canonical_key(eta.start), eta.end_key}
    reasons: list[str] = []
    if ends != {lhs_key, rhs_key}:
        reasons.append("parallelism: derivation endpoints are not the "
                       "equation's two sides")
    for i, step in enumerate(eta.steps):
        if step.rule.family == "E":
            used_layer = step.rule.params[0]
            if not sys.below(used_layer, layer):
                reasons.append(
                    f"condition 2: step {i} uses an equation of layer "
                    f"{used_layer!r}, which is not strictly below {layer!r}")
    if reasons:
        return ExplanationVerdict("invalid", eta, reasons)
    return ExplanationVerdict("valid", eta, [])


def check_counterfactual(e: Diagram, sigma: Diagram, budget: int = 2_000,
                         engine: RuleEngine | None = None
                         ) -> ExplanationVerdict:
    """Conditions 1 and 2 of an explanation, with condition 3 negated."""
    reasons = _conditions_12(e, sigma, "counterfactual")
    if reasons:
        return ExplanationVerdict("invalid", None, reasons)
    if structural_eq(e, sigma):
        return ExplanationVerdict(
            "invalid", None, ["the diagrams coincide; the identity rewrite "
                              "connects them"])
    if engine is None:
        engine = RuleEngine(e.system)
    if engine.is_isolated(e):
        return ExplanationVerdict("certified", None, [])
    dv = rw._either_way(e, sigma, budget, engine)
    if isinstance(dv, rw.NotFound):
        return ExplanationVerdict("unknown", None, [
            "no isolation certificate and no rewrite within budget "
            f"{budget}"])
    return ExplanationVerdict("refuted", dv, [])
