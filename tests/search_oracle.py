"""The one-pass derivation search, for the tests only.

``find_derivation`` here is the search as it stood before a level was
settled by frames: it builds every move it considers, in order, and
inverts a backward edge by applying every forward move until one lands on
the next state, taking the first in signature order.  It is the reference
for budgets, meets and ``NotFound``: ``rewrite.find_derivation`` must
return the same verdict and, step by step, the same rule, orientation and
host.  That search undoes a backward edge at its own image instead, so
where two placements of a rule reach the same state it may name the other.
``rule_filter`` receives each move's rule.  ``levels``, when given,
receives the budget spent at the end of each level the search completes,
and at the move that meets the other tree.
"""

from __future__ import annotations

from layerprop import rewrite as rw
from layerprop import weights
from layerprop.diagram import Diagram, canonical_key, canonicalize
from layerprop.errors import SortMismatch, check_count


def find_derivation(src: Diagram, dst: Diagram, budget: int = 10_000,
                    engine: rw.RuleEngine | None = None, rule_filter=None,
                    levels: list | None = None):
    check_count("budget", budget)
    if src.sort != dst.sort:
        raise SortMismatch("derivation endpoints must be parallel")
    if engine is None:
        engine = rw.RuleEngine(src.system)
    src_c, dst_c = canonicalize(src).diagram, canonicalize(dst).diagram
    k_src, k_dst = canonical_key(src_c), canonical_key(dst_c)
    if k_src == k_dst:
        return rw.Derivation(src_c, [])
    if weights.separating_weights(src_c, dst_c, engine.families):
        return rw.NotFound(budget)

    def forward(state):
        return [m for m in engine.matches(state)
                if rule_filter is None or rule_filter(m.rule)]

    def backward(state):
        # derived here, not read from ``anti_matches``: the bidirectional
        # forward moves whose inverse the engine offers (an equation step
        # toward an identity side inverts to an insertion), then the
        # one-directional rhs matched backward
        moves = [m for m in engine.matches(state) if m.rule.bidirectional
                 and (engine.equation_insertions or m.box_payload is None
                      or m.replacement.cells[0].content.slices)]
        moves += [m for m in engine.anti_matches(state)
                  if not m.rule.bidirectional]
        return [m for m in moves
                if rule_filter is None or rule_filter(m.rule)]

    trees: tuple[dict, dict] = ({k_src: None}, {k_dst: None})
    frontiers = [[k_src], [k_dst]]
    diagrams = {k_src: src_c, k_dst: dst_c}

    def stitched(meet):
        chain = []
        k = meet
        while trees[0][k] is not None:
            k, m = trees[0][k]
            chain.append(m)
        chain.reverse()
        k = meet
        while trees[1][k] is not None:
            nxt, state = trees[1][k][0], diagrams[k]
            chain.append(next(m for m in forward(state)
                              if canonical_key(rw._apply(state, m)) == nxt))
            k = nxt
        return rw.Derivation(src_c, chain)

    spent = 0
    while (frontiers[0] or frontiers[1]) and spent < budget:
        side = 1 if not frontiers[0] or (
            frontiers[1] and len(frontiers[1]) < len(frontiers[0])) else 0
        tree, other = trees[side], trees[1 - side]
        new = []
        for key in frontiers[side]:
            state = diagrams[key]
            for m in (forward, backward)[side](state):
                if spent == budget:
                    return rw.NotFound(budget)
                spent += 1
                nxt = rw._apply(state, m)
                nk = canonical_key(nxt)
                if nk in tree:
                    continue
                tree[nk] = (key, m)
                diagrams.setdefault(nk, nxt)
                if nk in other:
                    if levels is not None:
                        levels.append(spent)
                    return stitched(nk)
                new.append(nk)
        frontiers[side] = new
        if levels is not None:
            levels.append(spent)
    return rw.NotFound(budget)
