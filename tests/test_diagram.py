"""Diagram construction, canonical forms, and structural equality."""

import gc
import itertools
import json
import random

import pytest

import genterms
import search_oracle
from layerprop import diagram as dg
from layerprop import internal, jsonio, models
from layerprop import rewrite as rw
from layerprop import semantics as sm
from layerprop import sexpr, terms
from layerprop.errors import (ModelIncomplete, SideConditionViolation,
                              SortMismatch)
from layerprop.internal import InternalDiagram
from layerprop.theory import EMPTY_TYPE, SystemOfLayers, sheet


def test_pants_sort(single_layer):
    d = dg.pants(single_layer, "W", ("a",), ("b",))
    assert d.dom == sheet("W", ("a",)) + sheet("W", ("b",))
    assert d.cod == sheet("W", ("a", "b"))


def test_empty_sort(single_layer):
    d = dg.empty_diagram(single_layer)
    assert d.dom == EMPTY_TYPE and d.cod == EMPTY_TYPE


def test_refine_sort(two_layer):
    d = dg.refine(two_layer, "U", "L", ("a", "b"))
    assert d.dom == sheet("U", ("a", "b"))
    assert d.cod == sheet("L", ("x", "y"))


def test_identity_absorbed(single_layer):
    x = dg.gen_box(single_layer, "W", "p")
    idx = dg.identity(single_layer, x.dom)
    assert dg.structural_eq(dg.seq_compose(idx, x), x)
    assert dg.structural_eq(dg.seq_compose(x, dg.identity(single_layer,
                                                          x.cod)), x)


def test_seq_association_irrelevant(single_layer):
    x = dg.gen_box(single_layer, "W", "p")
    y = dg.gen_box(single_layer, "W", "q")
    t = dg.cap(single_layer, "W")
    # (x;y);cap' vs x;(y;cap')  where cap' caps a c-sheet via copants trick:
    z = dg.box(single_layer, InternalDiagram("W", ("c",), (), ((0, "t"),)))
    left = dg.seq_compose(dg.seq_compose(x, y), z)
    right = dg.seq_compose(x, dg.seq_compose(y, z))
    assert dg.structural_eq(left, right)


def test_par_unit_and_interchange(single_layer):
    x = dg.gen_box(single_layer, "W", "p")
    y = dg.gen_box(single_layer, "W", "q")
    empty = dg.empty_diagram(single_layer)
    assert dg.structural_eq(dg.par_tensor(x, empty), x)
    a = dg.gen_box(single_layer, "W", "p")
    b = dg.gen_box(single_layer, "W", "q")
    seq_then_par = dg.par_tensor(dg.seq_compose(x, y), dg.seq_compose(a, b))
    par_then_seq = dg.seq_compose(dg.par_tensor(x, a), dg.par_tensor(y, b))
    assert dg.structural_eq(seq_then_par, par_then_seq)


def test_cup_tensor_sort(two_layer):
    d = dg.par_tensor(dg.cup(two_layer, "U"), dg.cup(two_layer, "L"))
    assert d.dom == EMPTY_TYPE
    assert d.cod == sheet("U", ()) + sheet("L", ())


def test_fuse_with_identity_pads(single_layer):
    sigma = dg.gen_box(single_layer, "W", "p")  # a -> b
    pad = dg.identity(single_layer, sheet("W", ("b",)))
    fused = dg.fuse_internal(sigma, pad)
    assert fused.dom == sheet("W", ("a", "b"))
    assert fused.cod == sheet("W", ("b", "b"))


def test_fuse_two_generators(single_layer):
    sigma = dg.gen_box(single_layer, "W", "p")  # a -> b
    tau = dg.gen_box(single_layer, "W", "q")    # b -> c
    fused = dg.fuse_internal(sigma, tau)
    assert fused.dom == sheet("W", ("a", "b"))
    assert fused.cod == sheet("W", ("b", "c"))


def test_fuse_rejects_pants(single_layer):
    sigma = dg.gen_box(single_layer, "W", "p")
    p = dg.pants(single_layer, "W", ("a",), ("b",))
    with pytest.raises(SideConditionViolation):
        dg.fuse_internal(sigma, p)


@pytest.mark.parametrize("chain", [terms.Seq, terms.Par])
def test_build_checks_each_leaf_word_once(single_layer, monkeypatch, chain):
    # elaboration is linear: a 200-deep chain of identities validates each
    # leaf's word once, not once per enclosing node
    calls = []
    validate_word = SystemOfLayers.validate_word
    monkeypatch.setattr(SystemOfLayers, "validate_word",
                        lambda self, *args: calls.append(args)
                        or validate_word(self, *args))
    t = terms.Id("W", ("a",))
    for _ in range(199):
        t = chain(t, terms.Id("W", ("a",)))
    d = terms.build(t, single_layer)
    assert len(calls) == 200
    assert len(d.wires) == (1 if chain is terms.Seq else 200)


def test_box_fusion_in_canonical_form(single_layer):
    x = dg.gen_box(single_layer, "W", "p")
    y = dg.gen_box(single_layer, "W", "q")
    seq = dg.seq_compose(x, y)
    one_box = dg.box(single_layer,
                     InternalDiagram("W", ("a",), ("c",),
                                     ((0, "p"), (0, "q"))))
    assert dg.structural_eq(seq, one_box)


def test_canonicalize_idempotent(single_layer):
    x = dg.seq_compose(dg.gen_box(single_layer, "W", "p"),
                       dg.gen_box(single_layer, "W", "q"))
    c1 = dg.canonicalize(x)
    c2 = dg.canonicalize(c1.diagram)
    assert c1.key == c2.key
    assert c2.diagram is c1.diagram


def test_search_leaves_no_cyclic_garbage(two_layer):
    # canonical forms and the diagrams a search builds are freed by
    # reference counting alone: none of them sits in a reference cycle
    u = dg.gen_box(two_layer, "U", "u")
    uu = dg.seq_compose(u, dg.gen_box(two_layer, "U", "u"))
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            rw.find_derivation(u, uu, 1000)
        assert gc.collect() == 0
    finally:
        gc.enable()


# completeness oracle: equal canonical keys exactly for isomorphic diagrams,
# with the internal quotient recomputed naively and isomorphism found by
# trying every cell permutation


def _quotient(d):
    """Cells and wire triples of d after the internal quotient: symmetries
    spliced out, boxes joined port to port fused, identity boxes dropped,
    box contents in interchange normal form."""
    cells = dict(enumerate(d.cells))
    wires = {(w.src, w.dst, w.type) for w in d.wires}

    def at(end, side):
        return next(w for w in wires if w[side] == end)

    changed = True
    while changed:
        changed = False
        for ci, cell in cells.items():
            if isinstance(cell, dg.SheetSym):
                i0, i1 = at(("in", ci, 0), 1), at(("in", ci, 1), 1)
                o0, o1 = at(("out", ci, 0), 0), at(("out", ci, 1), 0)
                wires -= {i0, i1, o0, o1}
                wires |= {(i0[0], o1[1], i0[2]), (i1[0], o0[1], i1[2])}
                del cells[ci]
            elif isinstance(cell, dg.InternalBox):
                out = at(("out", ci, 0), 0)
                nxt = cells.get(out[1][1]) if out[1][0] == "in" else None
                if isinstance(nxt, dg.InternalBox):
                    far = at(("out", out[1][1], 0), 0)
                    cells[ci] = dg.InternalBox(
                        cell.layer, cell.content.then(nxt.content))
                    wires -= {out, far}
                    wires.add((("out", ci, 0), far[1], far[2]))
                    del cells[out[1][1]]
                elif not cell.content.slices:
                    inp = at(("in", ci, 0), 1)
                    wires -= {inp, out}
                    wires.add((inp[0], out[1], inp[2]))
                    del cells[ci]
                else:
                    continue
            else:
                continue
            changed = True
            break
    sig_of = d.system.signature
    for ci, cell in cells.items():
        if isinstance(cell, dg.InternalBox):
            cells[ci] = dg.InternalBox(cell.layer, internal.canonicalize(
                cell.content, sig_of(cell.layer)))
    return cells, wires


def _isomorphic(qx, qy) -> bool:
    (cx, wx), (cy, wy) = qx, qy
    ids_x, ids_y = sorted(cx), sorted(cy)
    for perm in itertools.permutations(ids_y):
        to = dict(zip(ids_x, perm))
        if any(cx[i] != cy[to[i]] for i in ids_x):
            continue

        def remap(ep):
            return (ep[0], to[ep[1]], ep[2]) if ep[0] in ("in", "out") else ep

        if {(remap(src), remap(dst), ty) for src, dst, ty in wx} == wy:
            return True
    return False


def _relabeled(d, rng):
    """d with its cells renumbered and its wires reordered."""
    perm = list(range(len(d.cells)))
    rng.shuffle(perm)
    cells = [None] * len(perm)
    for ci, cell in enumerate(d.cells):
        cells[perm[ci]] = cell

    def remap(ep):
        return (ep[0], perm[ep[1]], ep[2]) if ep[0] in ("in", "out") else ep

    wires = [dg.Wire(remap(w.src), remap(w.dst), w.type) for w in d.wires]
    rng.shuffle(wires)
    return dg.Diagram(d.system, d.dom, d.cod, cells, wires)


def _rewired(d, rng):
    """d with the consumers of two wires of one type swapped, or None when
    there are no such wires or the swap makes a cycle."""
    pairs = [(i, j) for i, v in enumerate(d.wires)
             for j, w in enumerate(d.wires) if i < j and v.type == w.type]
    if not pairs:
        return None
    i, j = rng.choice(pairs)
    wires = list(d.wires)
    v, w = wires[i], wires[j]
    wires[i], wires[j] = (dg.Wire(v.src, w.dst, v.type),
                          dg.Wire(w.src, v.dst, w.type))
    out = dg.Diagram(d.system, d.dom, d.cod, d.cells, wires)
    try:
        dg.validate_diagram(out)
    except SortMismatch:
        return None
    return out


def test_canonical_keys_equal_exactly_for_isomorphic_diagrams(two_layer):
    rng = random.Random(61)
    sample = []
    for t in genterms.random_terms(two_layer, rng, 60, max_cells=6):
        d = terms.build(t, two_layer)
        mutated = terms.build(genterms.mutate(t, two_layer, rng), two_layer)
        sample += [d, _relabeled(d, rng), mutated, _rewired(d, rng),
                   _rewired(mutated, rng)]
    sample = [d for d in sample if d is not None]
    quotients = [_quotient(d) for d in sample]
    keys = [dg.canonical_key(d) for d in sample]
    outcomes = {True: 0, False: 0}
    for i, j in itertools.combinations(range(len(sample)), 2):
        (cx, wx), (cy, wy) = quotients[i], quotients[j]
        x, y = sample[i], sample[j]
        if ((x.dom, x.cod, len(wx)) != (y.dom, y.cod, len(wy))
                or sorted(map(repr, cx.values()))
                != sorted(map(repr, cy.values()))):
            assert keys[i] != keys[j]
            continue
        iso = _isomorphic(quotients[i], quotients[j])
        assert (keys[i] == keys[j]) == iso, (i, j)
        outcomes[iso] += 1
    # both directions are exercised: isomorphic pairs presented
    # differently, and pairs alike in cells and boundary that differ
    assert outcomes[True] >= 100 and outcomes[False] >= 20, outcomes


def test_sym_involution(single_layer):
    s1 = dg.sheet_sym(single_layer, "W", ("a",), "W", ("b",))
    s2 = dg.sheet_sym(single_layer, "W", ("b",), "W", ("a",))
    both = dg.seq_compose(s1, s2)
    ident = dg.identity(single_layer, sheet("W", ("a",)) + sheet("W", ("b",)))
    assert dg.structural_eq(both, ident)


def test_sym_naturality(single_layer):
    sigma = dg.gen_box(single_layer, "W", "p")  # a -> b
    tau = dg.gen_box(single_layer, "W", "q")    # b -> c
    sym_after = dg.seq_compose(dg.par_tensor(sigma, tau),
                               dg.sheet_sym(single_layer, "W", ("b",), "W",
                                            ("c",)))
    sym_before = dg.seq_compose(dg.sheet_sym(single_layer, "W", ("a",), "W",
                                             ("b",)),
                                dg.par_tensor(tau, sigma))
    assert dg.structural_eq(sym_after, sym_before)


def test_pants_is_canonical_fixed_point(single_layer):
    p = dg.pants(single_layer, "W", ("a",), ("b",))
    c = dg.canonicalize(p)
    assert len(c.diagram.cells) == 1
    assert dg.canonicalize(c.diagram).key == c.key


def test_structural_eq_distinguishes_sorts(single_layer):
    p = dg.pants(single_layer, "W", ("a",), ("b",))
    cp = dg.copants(single_layer, "W", ("a",), ("b",))
    assert not dg.structural_eq(p, cp)


def test_floating_component_canonical(single_layer):
    cupcap = dg.seq_compose(dg.cup(single_layer, "W"),
                            dg.cap(single_layer, "W"))
    x = dg.gen_box(single_layer, "W", "p")
    a = dg.par_tensor(x, cupcap)
    b = dg.par_tensor(cupcap, x)
    assert dg.structural_eq(a, b)


def test_window_frame_sort(two_layer):
    frame = dg.seq_compose(dg.refine(two_layer, "U", "L", ("a",)),
                           dg.coarsen(two_layer, "U", "L", ("a",)))
    assert frame.dom == sheet("U", ("a",))
    assert frame.cod == sheet("U", ("a",))


def test_layer_eq_direct_equation(two_layer):
    lhs = dg.box(two_layer, InternalDiagram("U", ("a",), ("a",),
                                            ((0, "g"), (0, "h"))))
    rhs = dg.box(two_layer, InternalDiagram("U", ("a",), ("a",),
                                            ((0, "u"),)))
    res = dg.layer_eq(lhs, rhs, budget=4)
    assert res.status == "equal"
    assert res.witness is not None and len(res.witness.steps) == 1


def test_layer_eq_distinct_without_equations(two_layer):
    lhs = dg.gen_box(two_layer, "L", "gl")
    rhs = dg.box(two_layer, InternalDiagram("L", ("x",), ("y",),
                                            ((0, "ul"), (0, "gl"))))
    res = dg.layer_eq(lhs, rhs, budget=8)
    assert res.status == "distinct"


def test_layer_eq_budget_zero_unknown(two_layer):
    lhs = dg.box(two_layer, InternalDiagram("U", ("a",), ("a",),
                                            ((0, "g"), (0, "h"))))
    rhs = dg.box(two_layer, InternalDiagram("U", ("a",), ("a",),
                                            ((0, "u"),)))
    res = dg.layer_eq(lhs, rhs, budget=0)
    assert res.status == "unknown"


def test_layer_eq_requires_parallel(two_layer):
    with pytest.raises(SortMismatch):
        dg.layer_eq(dg.gen_box(two_layer, "U", "g"),
                    dg.gen_box(two_layer, "U", "h"), 4)


def test_layer_eq_backward_deletion_to_a_bare_sheet():
    # backward from box(m1;m2), deleting m1;m2 erases the box and meets the
    # bare sheet, which has no box to insert into: no witness that way
    mon = models.monoid_model().system
    bare = dg.identity(mon, sheet("MU", ("u",)))
    both = dg.box(mon, InternalDiagram("MU", ("u",), ("u",),
                                       ((0, "m1"), (0, "m2"))))
    assert dg.layer_eq(bare, both, 64).status == "unknown"
    res = dg.layer_eq(both, bare, 64)
    assert res.status == "equal" and rw.verify_derivation(res.witness)


# equality modulo equations over seeded pairs: an equal pair is a box of
# 1-2 parallel strands of random paths and the same box after 1-3 seeded
# equation steps; a differ pair (monoid) appends m1, which changes the
# model morphism, so no witness exists.

EQ_STRANDS = {  # system: layer, strand object, paths, chained, widest
    "two": ("U", "a", [["u"], ["g", "h"]], 2, 2),
    "monoid": ("MU", "u", [["m1"], ["m2"], ["m1", "m2"]], 2, 1),
    "meet": ("Sq", "p", [["gd"], ["gf", "gh"], ["gg", "gk"]], 1, 2),
}
EQ_PAIRS = 6
DIFFER_PAIRS = 4


def _strand(system, layer, obj, gens):
    sig = system.signature(layer)
    d = internal.identity(layer, (obj,))
    for g in gens:
        d = d.then(internal.generator(layer, g, sig))
    return d


def _equal_pair(system, rng, layer, obj, paths, chained, widest):
    sig = system.signature(layer)
    eqs = system.layer(layer).equations
    while True:
        x = None
        for _ in range(rng.randint(1, widest)):
            gens = [g for _ in range(rng.randint(1, chained))
                    for g in rng.choice(paths)]
            strand = _strand(system, layer, obj, gens)
            x = strand if x is None else x.beside(strand)
        y = x
        for _ in range(rng.randint(1, 3)):
            eq = rng.choice(eqs)
            lhs, rhs = ((eq.lhs, eq.rhs) if rng.random() < 0.5
                        else (eq.rhs, eq.lhs))
            options = internal.rewrite_occurrences(y, lhs, rhs, sig)
            if options:
                y = rng.choice(options)
        bx, by = dg.box(system, x), dg.box(system, y)
        if dg.canonical_key(bx) != dg.canonical_key(by):
            return bx, by


def _layer_eq_pairs(two_layer):
    systems = {"two": two_layer, "monoid": models.monoid_model().system,
               "meet": models.meet_model().system}
    pairs = {}
    for name, system in systems.items():
        rng = random.Random(f"layer-eq/{name}")
        for i in range(EQ_PAIRS):
            pairs[f"{name}-eq{i}"] = _equal_pair(system, rng,
                                                 *EQ_STRANDS[name])
    mon = systems["monoid"]
    rng = random.Random("layer-eq/differ")
    for i in range(DIFFER_PAIRS):
        xs = [rng.choice(["m1", "m2"]) for _ in range(rng.randint(1, 3))]
        pairs[f"monoid-differ{i}"] = (
            dg.box(mon, _strand(mon, "MU", "u", xs)),
            dg.box(mon, _strand(mon, "MU", "u", xs + ["m1"])))
    return pairs


LAYER_EQ_PINNED = {
    **{f"{name}-eq{i}": ("equal", "equal")
       for name in EQ_STRANDS for i in range(EQ_PAIRS)},
    # m1 adds one to the weight m1 = -1, m2 = 1, which the equation
    # m1;m2 = id keeps, so the extra m1 separates each pair at any budget
    **{f"monoid-differ{i}": ("distinct", "distinct")
       for i in range(DIFFER_PAIRS)},
}


def test_layer_eq_verdicts_pinned(two_layer):
    got = {name: tuple(dg.layer_eq(x, y, budget).status
                       for budget in (64, 256))
           for name, (x, y) in _layer_eq_pairs(two_layer).items()}
    assert got == LAYER_EQ_PINNED


def test_layer_eq_search_agrees_with_the_one_pass_oracle(two_layer,
                                                         monkeypatch):
    # layer_eq's search over the pinned pairs, at its budgets and where a
    # level of the one-pass search ends or meets.  An E move keeps its
    # host's frame, so the first pass builds every one; a second pass that
    # built them again would build more states than the one-pass search
    built = []
    apply = rw._apply
    monkeypatch.setattr(rw, "_apply",
                        lambda host, m: built.append(m) or apply(host, m))
    for name, (x, y) in _layer_eq_pairs(two_layer).items():
        engine = rw.RuleEngine(x.system, equation_insertions=True,
                               families=("E",))
        levels = []
        search_oracle.find_derivation(x, y, 256, engine, levels=levels)
        for budget in sorted({64, 256} | {b + d for b in levels
                                          for d in (-1, 0, 1) if b + d > 0}):
            built.clear()
            want = search_oracle.find_derivation(x, y, budget, engine)
            one_pass = len(built)
            built.clear()
            got = rw.find_derivation(x, y, budget, engine)
            assert len(built) <= one_pass, (name, budget)
            if isinstance(want, rw.NotFound):
                assert got == want, (name, budget)
            else:
                assert [m.signature() for m in got.steps] == \
                    [m.signature() for m in want.steps], (name, budget)
                assert [m.host_key for m in got.steps] == \
                    [m.host_key for m in want.steps], (name, budget)


def test_layer_eq_witness_replays(two_layer):
    pairs = list(_layer_eq_pairs(two_layer).values())
    # the only witness inserts the identity side's pattern: m1 -> m1;m1;m2
    mon = models.monoid_model().system
    pairs.append((dg.box(mon, _strand(mon, "MU", "u", ["m1"])),
                  dg.box(mon, _strand(mon, "MU", "u", ["m1", "m1", "m2"]))))
    replayed = 0
    for x, y in pairs:
        res = dg.layer_eq(x, y, 256)
        if res.status != "equal":
            continue
        w = res.witness
        assert rw.verify_derivation(w)
        assert w.end_key == dg.canonical_key(y)
        again = jsonio.derivation_from_json(x.system,
                                            jsonio.derivation_to_json(w))
        assert [m.signature() for m in again.steps] == \
            [m.signature() for m in w.steps]
        replayed += 1
    assert replayed == 3 * EQ_PAIRS + 1


def test_export_dot_deterministic(two_layer):
    d = dg.seq_compose(dg.refine(two_layer, "U", "L", ("a",)),
                       dg.coarsen(two_layer, "U", "L", ("a",)))
    assert dg.export_dot(d) == dg.export_dot(d)
    assert "refine" in dg.export_dot(d)


def test_export_dot_empty(single_layer):
    out = dg.export_dot(dg.empty_diagram(single_layer))
    assert out.startswith("digraph")
    assert "c0" not in out


def test_export_dot_pants_stubs(single_layer):
    out = dg.export_dot(dg.pants(single_layer, "W", ("a",), ("b",)))
    assert out.count("dom") >= 2 and out.count("cod") >= 1


def test_seq_compose_mismatch_raises(single_layer):
    x = dg.gen_box(single_layer, "W", "p")
    with pytest.raises(SortMismatch):
        dg.seq_compose(x, x)


def test_fuse_strictly_associative(single_layer):
    x = dg.gen_box(single_layer, "W", "p")
    y = dg.gen_box(single_layer, "W", "q")
    z = dg.identity(single_layer, sheet("W", ("a",)))
    left = dg.fuse_internal(dg.fuse_internal(x, y), z)
    right = dg.fuse_internal(x, dg.fuse_internal(y, z))
    assert dg.structural_eq(left, right)


# -- the table of cell kinds --------------------------------------------------

_M1 = InternalDiagram("MU", ("u",), ("u",), ((0, "m1"),))
# per cell kind: its constructor's arguments over the monoid model's system,
# the label and the DOT node text of the cell it builds
CELL_SAMPLES = {
    dg.InternalBox: (("MU", _M1), ("box", "MU", ("u",), ("u",), ((0, "m1"),)),
                     "box MU: u -> u"),
    dg.Pants: (("MU", ("u",), ()), ("pants", "MU", ("u",), ()), "pants MU"),
    dg.Copants: (("MU", (), ("u",)), ("copants", "MU", (), ("u",)),
                 "copants MU"),
    dg.Cup: (("MU",), ("cup", "MU"), "cup MU"),
    dg.Cap: (("ML",), ("cap", "ML"), "cap ML"),
    dg.Refine: (("MU", "ML", ("u",)), ("refine", "MU", "ML", ("u",)),
                "refine MU>ML"),
    dg.Coarsen: (("MU", "ML", ("u", "u")),
                 ("coarsen", "MU", "ML", ("u", "u")), "coarsen MU>ML"),
    dg.SheetSym: (("MU", ("u",), "ML", ("v",)),
                  ("sym", "MU", ("u",), "ML", ("v",)), "sym MU"),
}


def test_cell_kind_table():
    # every kind of the table has a sample, and what is read from the table
    # holds for it: tag, label, port counts, codec, DOT text and semantics
    model = models.monoid_model()
    assert set(CELL_SAMPLES) == set(dg.CONSTRUCTORS)
    assert dg.CELL_KINDS == {kind.tag: kind for kind in CELL_SAMPLES}
    for kind, (args, label, text) in CELL_SAMPLES.items():
        (cell,) = dg.CONSTRUCTORS[kind](model.system, *args).cells
        assert type(cell) is kind
        assert cell.label() == label and label[0] == kind.tag
        assert cell.label() is cell.label()  # computed once
        assert kind.ports == (len(cell.in_ports()), len(cell.out_ports()))
        payload = json.loads(jsonio.dumps(jsonio._cell_to_json(cell)))
        assert payload["kind"] == kind.tag
        back = jsonio._cell_from_json(model.system, payload)
        assert back == cell and back.label() == label
        assert dg._node_text(cell) == text
        piece = sm._cell_piece(model, cell)
        assert (len(piece.a), len(piece.b)) == kind.ports
    with pytest.raises(ModelIncomplete):
        sm._cell_piece(model, object())


def _sexp(value) -> str:
    return value if isinstance(value, str) else f"({' '.join(value)})"


def test_cell_kind_terms():
    # every kind without a box content has an s-expression form under its
    # tag that reads its label fields and builds through its constructor;
    # a box is a term leaf too, of its content's layer only
    system = models.monoid_model().system
    for tag, kind in dg.CELL_KINDS.items():
        args = CELL_SAMPLES[kind][0]
        leaf = terms.Cell(kind, args)
        built = dg.CONSTRUCTORS[kind](system, *args)
        assert terms.build(leaf, system).cells == built.cells
        if any(reader == dg.CONTENT for _, reader in kind.label_fields):
            assert tag not in sexpr._FORMS
            continue
        assert len(sexpr._FORMS[tag][1]) == len(kind.label_fields)
        text = f"({tag} {' '.join(map(_sexp, args))})"
        assert sexpr.parse_term(text) == leaf
    assert terms.is_internal_term(terms.Cell(dg.InternalBox, ("MU", _M1)))
    with pytest.raises(SortMismatch):
        terms.build(terms.Cell(dg.InternalBox, ("ML", _M1)), system)


def test_cell_dot_text_in_export(two_layer):
    d = dg.seq_many(dg.gen_box(two_layer, "U", "g"),
                    dg.refine(two_layer, "U", "L", ("b",)),
                    dg.coarsen(two_layer, "U", "L", ("b",)))
    texts = [line.partition("label=")[2] for line in
             dg.export_dot(d).splitlines() if "shape=box" in line]
    assert sorted(texts) == ['"box U: a -> b"];', '"coarsen U>L"];',
                             '"refine U>L"];']
