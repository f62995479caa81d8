"""Separation certificates: an additive weight on box contents.

A weight gives each generator of each layer an integer.  A diagram weighs
the sum, over its boxes, of the weights of the generators its content
fires.  A weight is *invariant* when every layer equation's two sides weigh
the same and every generator weighs what its translation image weighs.
Two diagrams that an invariant weight tells apart are connected by no
derivation, at any budget: this is the P-invariant of Petri-net analysis
(Murata, Petri nets: properties, analysis and applications, Proc. IEEE
77(4), 1989), read on box contents, and a degenerate model of the theory
in the commutative monoid (Q, +).

Why every move the engine makes keeps an invariant weight, family by
family (``rewrite._SCHEMATA``):

* E rewrites a box content by an equation, in either direction and
  insertions included: the weight changes by the equation's row, lhs
  counts minus rhs counts, which an invariant weight sums to 0.
  Interchange (``internal.rewrite_occurrences`` works on the class)
  reorders slices and changes no count.
* F1/F2 slide a box with content s through a refinement or coarsening of
  f, where it becomes ``translate(s)``.  ``internal.translate`` replaces
  each slice by its generator's image slices, so the image's counts are
  the sum of the images' counts, and the rows of f (generator minus its
  image) make the two sides weigh the same.  A content found by
  ``lift_along`` is one whose translation is the matched image, so the
  same holds.  F3/F4 split one box into two juxtaposed ones, or a box and
  an identity strand, with the same slices in all.
* A (A3c included) and M move sheets, pants, cups, refinements and their
  inverses, and no box.
* The quotient of ``diagram._canonical`` fuses sequential boxes (their
  slices concatenate), erases identity boxes (no slices) and splices out
  sheet symmetries (no box), so a canonical form weighs what its diagram
  weighs.

So a weight that sums every row of the families an engine applies to 0
separates only pairs that engine never connects, whatever its rule filter.
The rows come from the system as given: a translation without an image for
some source generator (an unvalidated system) gives no certificate.

The search for a weight never builds a basis of the invariants.  It takes
the count difference d of the two diagrams, keeps the rows connected to
d's support, brings them to echelon form over the integers, and reduces d
by them.  A nonzero remainder means d is outside the rows' span; its first
free generator then gives, by back-substitution, an integer null vector of
the rows that does not vanish on d.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable

from .diagram import Diagram, InternalBox
from .theory import SystemOfLayers

Var = tuple[str, str]        # (layer, generator)
Row = dict[Var, int]


def counts(d: Diagram) -> Row:
    """How often each (layer, generator) fires in d's boxes."""
    out: Row = {}
    for cell in d.cells:
        if isinstance(cell, InternalBox):
            _add(out, cell.layer, cell.content.slices, 1)
    return out


def _add(row: Row, layer: str, slices, sign: int) -> None:
    for _, g in slices:
        var = (layer, g)
        row[var] = row.get(var, 0) + sign
        if not row[var]:
            del row[var]


def _rows(system: SystemOfLayers, families: Iterable[str]
          ) -> tuple[list[Row], dict[Var, list[int]]] | None:
    """The rows of the families an engine applies (E: one per equation, F:
    one per translation and source generator) and, per generator, the rows
    it occurs in; None when a translation lacks an image.  Built once per
    system and family set, in ``system._rewrite_memo``."""
    fams = frozenset(families) & {"E", "F"}
    key = ("weights", fams)
    memo = system._rewrite_memo
    if key not in memo:
        memo[key] = _build_rows(system, fams)
    return memo[key]


def _build_rows(system: SystemOfLayers, fams: frozenset
                ) -> tuple[list[Row], dict[Var, list[int]]] | None:
    rows: list[Row] = []
    if "E" in fams:
        for lay in system.layers.values():
            for eq in lay.equations:
                row: Row = {}
                _add(row, lay.name, eq.lhs.slices, 1)
                _add(row, lay.name, eq.rhs.slices, -1)
                rows.append(row)
    if "F" in fams:
        for f in system.functors.values():
            if f.source not in system.layers:
                return None
            images = dict(f.morphism_map)
            for g in system.layers[f.source].gen_morphisms:
                if g.name not in images:
                    return None
                row = {(f.source, g.name): 1}
                _add(row, f.target, images[g.name].slices, -1)
                rows.append(row)
    rows = [row for row in rows if row]
    index: dict[Var, list[int]] = {}
    for i, row in enumerate(rows):
        for var in row:
            index.setdefault(var, []).append(i)
    return rows, index


def _eliminate(row: Row, pivot: Row, var: Var) -> Row:
    """row with var cancelled by a multiple of pivot, scaled to integers
    and divided by the gcd of its entries."""
    a = row.get(var)
    if not a:
        return row
    b = pivot[var]
    out = {v: c * b for v, c in row.items()}
    for v, c in pivot.items():
        out[v] = out.get(v, 0) - a * c
    out = {v: c for v, c in out.items() if c}
    g = math.gcd(*out.values()) if out else 1
    return {v: c // g for v, c in out.items()}


def separating_weights(x: Diagram, y: Diagram, families: Iterable[str]
                       ) -> Row | None:
    """An integer weight, nonzero entries only, that sums every row of the
    families to 0 and weighs x and y differently; None when none exists or
    a translation of the system lacks an image.  A weight is returned only
    once ``check_weights`` has re-summed it."""
    d = counts(x)
    for var, c in counts(y).items():
        d[var] = d.get(var, 0) - c
        if not d[var]:
            del d[var]
    if not d:
        return None
    table = _rows(x.system, families)
    if table is None:
        return None
    rows, index = table
    # the rows sharing a generator with d's support, transitively
    component: set[int] = set()
    seen, stack = set(d), list(d)
    while stack:
        for i in index.get(stack.pop(), ()):
            if i not in component:
                component.add(i)
                fresh = [v for v in rows[i] if v not in seen]
                seen.update(fresh)
                stack += fresh
    # echelon form: a pivot row holds no earlier row's pivot generator; each
    # row pivots on its generator in the fewest rows, which keeps fill-in low
    pivots: list[tuple[Var, Row]] = []
    where: dict[Var, int] = {}
    for i in sorted(component):
        row = _reduce(rows[i], pivots, where)
        if row:
            var = min(row, key=lambda v: (len(index[v]), v))
            where[var] = len(pivots)
            pivots.append((var, row))
    d = _reduce(d, pivots, where)
    if not d:
        return None
    # d is outside the rows' span and holds no pivot generator: weigh its
    # first generator 1, the other free ones 0, and solve each pivot row,
    # last first, for its pivot generator, scaling to stay integral
    free = min(d)
    w = {free: 1}
    for var, row in reversed(pivots):
        rest = sum(c * w.get(v, 0) for v, c in row.items())
        if rest:
            a = row[var]
            scale = abs(a) // math.gcd(a, rest)
            if scale > 1:
                w = {v: c * scale for v, c in w.items()}
            w[var] = -rest * scale // a
    g = math.gcd(*w.values())
    w = {var: c // g for var, c in sorted(w.items())}
    return w if check_weights(x, y, w, families) else None


def _reduce(row: Row, pivots: list[tuple[Var, Row]],
            where: dict[Var, int]) -> Row:
    """row with every pivot generator cancelled, by the pivot rows in their
    order: cancelling pivot j brings in only pivots after j."""
    todo = [where[v] for v in row if v in where]
    heapq.heapify(todo)
    while todo:
        var, prow = pivots[heapq.heappop(todo)]
        if var in row:
            row = _eliminate(row, prow, var)
            for v in prow:
                if v in where and v in row and where[v] > where[var]:
                    heapq.heappush(todo, where[v])
    return row


def check_weights(x: Diagram, y: Diagram, weights: Row,
                  families: Iterable[str]) -> bool:
    """Whether the weight sums every row of the families to 0 and weighs x
    and y differently: the certificate that no derivation of those
    families connects them."""
    table = _rows(x.system, families)
    if table is None:
        return False

    def total(row: Row) -> int:
        return sum(c * weights.get(var, 0) for var, c in row.items())
    return (all(total(row) == 0 for row in table[0])
            and total(counts(x)) != total(counts(y)))
