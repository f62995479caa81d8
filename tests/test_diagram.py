"""Diagram construction, canonical forms, and structural equality."""

import random

import pytest

from layerprop import diagram as dg
from layerprop import internal, jsonio, models
from layerprop import rewrite as rw
from layerprop import terms
from layerprop.errors import SideConditionViolation, SortMismatch
from layerprop.internal import InternalDiagram
from layerprop.terms import infer_sort
from layerprop.theory import EMPTY_TYPE, sheet


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
    **{f"monoid-differ{i}": ("unknown", "unknown")
       for i in range(DIFFER_PAIRS)},
}


def test_layer_eq_verdicts_pinned(two_layer):
    got = {name: tuple(dg.layer_eq(x, y, budget).status
                       for budget in (64, 256))
           for name, (x, y) in _layer_eq_pairs(two_layer).items()}
    assert got == LAYER_EQ_PINNED


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
