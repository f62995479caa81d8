"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

The criteria are exact (no numeric tolerances); where a runtime bound is
stated it is asserted on a monotonic clock.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from layerprop import ccs, chem, circuits as cx, diagram as dg, models
from layerprop import jsonio, profunctor as pf, rewrite as rw
from layerprop import semantics as sm
from layerprop import terms
from layerprop.diagram import canonical_key, canonicalize
from layerprop.errors import (LayerPropError, SideConditionViolation,
                              SortMismatch, UnknownGenerator, UnknownSymbol)
from layerprop.internal import InternalDiagram
from layerprop.terms import Cell, Empty, Fuse, Gen, Id, Par, Seq
from layerprop.theory import EMPTY_TYPE, OmegaType, sheet

import circuit_oracles
import genterms
import profunctor_oracles as oracles
from conftest import make_two_layer_system


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


# -- criterion 1: typing ------------------------------------------------------


def _oracle_sort(t, sys_):
    """Rule-by-rule sort interpreter, written independently of the
    implementation's recursion (plain tuples in, plain tuples out)."""
    def ty(*pairs):
        return tuple(pairs)

    if isinstance(t, Empty):
        return ((), ())
    if isinstance(t, Id):
        for s in t.word:
            if s not in sys_.layer(t.layer).gen_objects:
                raise UnknownSymbol(s)
        return (ty((t.layer, t.word)), ty((t.layer, t.word)))
    if isinstance(t, Gen):
        table = {g.name: (g.dom, g.cod)
                 for g in sys_.layer(t.layer).gen_morphisms}
        if t.name not in table:
            raise UnknownGenerator(t.name)
        d, c = table[t.name]
        return (ty((t.layer, d)), ty((t.layer, c)))
    if isinstance(t, Cell) and t.kind is dg.Cup:
        (layer,) = t.args
        return ((), ty((layer, ())))
    if isinstance(t, Cell) and t.kind is dg.Cap:
        (layer,) = t.args
        return (ty((layer, ())), ())
    if isinstance(t, Cell) and t.kind is dg.Pants:
        layer, alpha, beta = t.args
        return (ty((layer, alpha), (layer, beta)),
                ty((layer, alpha + beta)))
    if isinstance(t, Cell) and t.kind is dg.Copants:
        layer, alpha, beta = t.args
        return (ty((layer, alpha + beta)),
                ty((layer, alpha), (layer, beta)))
    if isinstance(t, Cell) and t.kind is dg.Refine:
        source, target, word = t.args
        f = sys_.functor(source, target)
        return (ty((source, word)), ty((target, f.word_image(word))))
    if isinstance(t, Cell) and t.kind is dg.Coarsen:
        source, target, word = t.args
        f = sys_.functor(source, target)
        return (ty((target, f.word_image(word))), ty((source, word)))
    if isinstance(t, Cell) and t.kind is dg.SheetSym:
        layer1, alpha, layer2, beta = t.args
        return (ty((layer1, alpha), (layer2, beta)),
                ty((layer2, beta), (layer1, alpha)))
    if isinstance(t, Seq):
        d1, c1 = _oracle_sort(t.first, sys_)
        d2, c2 = _oracle_sort(t.second, sys_)
        if c1 != d2:
            raise SortMismatch("middle mismatch")
        return (d1, c2)
    if isinstance(t, Par):
        d1, c1 = _oracle_sort(t.top, sys_)
        d2, c2 = _oracle_sort(t.bottom, sys_)
        return (d1 + d2, c1 + c2)
    if isinstance(t, Fuse):
        def internal_ok(u):
            if isinstance(u, (Gen, Id)):
                return True
            if isinstance(u, Seq):
                return internal_ok(u.first) and internal_ok(u.second)
            if isinstance(u, Fuse):
                return internal_ok(u.top) and internal_ok(u.bottom)
            return False

        if not (internal_ok(t.top) and internal_ok(t.bottom)):
            raise SideConditionViolation("not internal")
        d1, c1 = _oracle_sort(t.top, sys_)
        d2, c2 = _oracle_sort(t.bottom, sys_)
        if len(d1) != 1 or len(d2) != 1 or d1[0][0] != t.layer or \
                d2[0][0] != t.layer:
            raise SideConditionViolation("wrong layer")
        return (ty((t.layer, d1[0][1] + d2[0][1])),
                ty((t.layer, c1[0][1] + c2[0][1])))
    raise AssertionError(f"unhandled term {t!r}")


def test_criterion_1_typing():
    started = time.monotonic()
    sys_ = make_two_layer_system()
    rng = random.Random(101)
    sample = genterms.random_terms(sys_, rng, 100)
    assert len(sample) == 100
    for t in sample:
        got = terms.build(t, sys_).sort
        assert (got.dom.entries, got.cod.entries) == _oracle_sort(t, sys_)
    # deliberately broken terms, 25 per error class
    broken = []
    good = sample[:25]
    for i, t in enumerate(good):
        sort = terms.build(t, sys_).sort
        mism = Gen("U", "g") if sort.cod != sheet("U", ("a",)) \
            else Gen("U", "k")
        broken.append((Seq(t, mism), SortMismatch))
    for i in range(25):
        broken.append((Fuse("U", Cell(dg.Pants, ("U", ("a",), ("b",))),
                            Gen("U", "g")), SideConditionViolation))
    for i in range(25):
        broken.append((Gen("U", f"missing{i}"), UnknownGenerator))
    for i in range(25):
        broken.append((Id("L", (f"ghost{i}",)), UnknownSymbol))
    assert len(broken) == 100
    for t, err in broken:
        with pytest.raises(err):
            terms.build(t, sys_)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report("criterion 1: recursive typing vs independent interpreter",
            True, f"{elapsed:.2f}s")


# -- criterion 2: canonical forms --------------------------------------------


def _brute_force_iso(x: dg.Diagram, y: dg.Diagram) -> bool:
    cx_, cy = canonicalize(x).diagram, canonicalize(y).diagram
    if (cx_.dom, cx_.cod) != (cy.dom, cy.cod):
        return False
    if len(cx_.cells) != len(cy.cells):
        return False
    labels_x = [c.label() for c in cx_.cells]
    labels_y = [c.label() for c in cy.cells]
    if sorted(labels_x) != sorted(labels_y):
        return False
    wires_x = {(w.src, w.dst, w.type) for w in cx_.wires}
    n = len(cx_.cells)
    for perm in itertools.permutations(range(n)):
        if any(labels_x[i] != labels_y[perm[i]] for i in range(n)):
            continue

        def remap(ep):
            if ep[0] in ("in", "out"):
                return (ep[0], perm[ep[1]], ep[2])
            return ep

        wires_m = {(remap(w.src), remap(w.dst), w.type) for w in cx_.wires}
        if wires_m == {(w.src, w.dst, w.type) for w in cy.wires}:
            return True
    return False


def test_criterion_2_canonical_forms():
    sys_ = make_two_layer_system()
    rng = random.Random(202)
    sample = genterms.random_terms(sys_, rng, 200, max_cells=8)
    built = [(t, terms.build(t, sys_)) for t in sample]
    rewrites_applied = 0
    for t, d in built:
        key = canonical_key(d)
        c1 = canonicalize(d)
        assert canonicalize(c1.diagram).key == c1.key  # idempotent
        mutated = t
        for _ in range(3):
            mutated = genterms.mutate(mutated, sys_, rng)
            rewrites_applied += 1
        assert canonical_key(terms.build(mutated, sys_)) == key
    assert rewrites_applied >= 500
    small = [d for _, d in built
             if len(canonicalize(d).diagram.cells) <= 5][:40]
    pairs = 0
    for a in small:
        for b in small[:12]:
            assert dg.structural_eq(a, b) == _brute_force_iso(a, b)
            pairs += 1
    _report("criterion 2: canonical forms sound vs brute-force isomorphism",
            True, f"{rewrites_applied} rewrites, {pairs} oracle pairs")


# -- criterion 3: rewrite engine ----------------------------------------------


def test_criterion_3_rewrite_engine():
    sys_ = make_two_layer_system()
    engine = rw.RuleEngine(sys_)
    words = {"U": [(), ("a",), ("b",), ("a", "b"), ("b", "a")],
             "L": [(), ("x",), ("y",), ("x", "y")]}
    rules = [r for r in rw.sample_instances(engine, words)
             if r.bidirectional]
    round_tripped = 0
    for rule in rules:
        if round_tripped >= 100:
            break
        host = canonicalize(rule.lhs).diagram
        if not canonicalize(rule.rhs).diagram.cells and \
                not canonicalize(rule.rhs).diagram.wires:
            continue
        ms = [m for m in engine.matches(host)
              if m.rule.name == rule.name and m.orientation == "fwd"]
        if not ms:
            continue
        pushed = rw.apply_rule(host, ms[0])
        back = [m for m in engine.matches(pushed)
                if m.rule.name == rule.name and m.orientation == "bwd"]
        assert back, rule.name
        assert any(canonical_key(rw.apply_rule(pushed, m))
                   == canonical_key(host) for m in back), rule.name
        round_tripped += 1
    assert round_tripped >= 100

    # single-step unit/counit derivations within budget 5
    ident2 = dg.identity(sys_, sheet("U", ("a",)) + sheet("U", ("b",)))
    pc = dg.seq_compose(dg.pants(sys_, "U", ("a",), ("b",)),
                        dg.copants(sys_, "U", ("a",), ("b",)))
    cp = dg.seq_compose(dg.copants(sys_, "U", ("a",), ("b",)),
                        dg.pants(sys_, "U", ("a",), ("b",)))
    fused = dg.identity(sys_, sheet("U", ("a", "b")))
    ident1 = dg.identity(sys_, sheet("U", ("a",)))
    window = dg.seq_compose(dg.refine(sys_, "U", "L", ("a",)),
                            dg.coarsen(sys_, "U", "L", ("a",)))
    cowindow = dg.seq_compose(dg.coarsen(sys_, "U", "L", ("a",)),
                              dg.refine(sys_, "U", "L", ("a",)))
    ident_img = dg.identity(sys_, sheet("L", ("x",)))
    empty = dg.empty_diagram(sys_)
    circle = dg.seq_compose(dg.cup(sys_, "U"), dg.cap(sys_, "U"))
    capcup = dg.seq_compose(dg.cap(sys_, "U"), dg.cup(sys_, "U"))
    ident_eps = dg.identity(sys_, sheet("U", ()))
    singles = [("A1", ident2, pc), ("A2", cp, fused),
               ("A3", ident1, window), ("A4", cowindow, ident_img),
               ("A5", empty, circle), ("A6", capcup, ident_eps)]
    for name, src, dst in singles:
        dv = rw.find_derivation(src, dst, 5, engine)
        assert isinstance(dv, rw.Derivation), name
        assert len(dv.steps) == 1 and dv.steps[0].rule.name.startswith(name)
        assert rw.verify_derivation(dv)

    # two-step triangle composites for both adjoint pairs
    refine_d = dg.refine(sys_, "U", "L", ("a",))
    middle_r = dg.seq_compose(window, refine_d)
    up = rw.find_derivation(refine_d, middle_r, 5, engine)
    down = rw.find_derivation(middle_r, refine_d, 5, engine)
    assert isinstance(up, rw.Derivation) and len(up.steps) == 1
    assert isinstance(down, rw.Derivation) and len(down.steps) == 1
    loop = rw.Derivation(canonicalize(refine_d).diagram,
                         up.steps + down.steps)
    assert rw.verify_derivation(loop)
    assert loop.end_key == canonical_key(refine_d)

    pants_d = dg.pants(sys_, "U", ("a",), ("b",))
    middle_p = dg.seq_compose(pc, pants_d)
    up_p = rw.find_derivation(pants_d, middle_p, 5, engine)
    down_p = rw.find_derivation(middle_p, pants_d, 5, engine)
    assert isinstance(up_p, rw.Derivation) and len(up_p.steps) == 1
    assert isinstance(down_p, rw.Derivation) and len(down_p.steps) == 1
    loop_p = rw.Derivation(canonicalize(pants_d).diagram,
                           up_p.steps + down_p.steps)
    assert rw.verify_derivation(loop_p)
    assert loop_p.end_key == canonical_key(pants_d)
    _report("criterion 3: rule round trips and unit/counit derivations",
            True, f"{round_tripped} round trips")


# -- criterion 4: semantics ---------------------------------------------------


def test_criterion_4_semantics():
    started = time.monotonic()
    checked = 0
    for model, words in (
            (models.monoid_model(),
             {"MU": [(), ("u",), ("u", "u")], "ML": [(), ("v",)]}),
            (models.meet_model(),
             {"Ar": [(), ("lo",), ("hi",)],
              "Sq": [(), ("q",), ("r",), ("q", "r")]})):
        engine = rw.RuleEngine(model.system)
        for rule in rw.sample_instances(engine, words):
            if rule.name.startswith("A3c[") or rule.family == "E":
                continue
            assert sm.verify_rule_semantics(rule, model), rule.name
            checked += 1
    # coend composition vs naive transitive-closure oracle
    cats = [models.cyclic_monoid_category(), models.arrow_meet_category()]
    for cat in cats:
        assert len(cat.morphisms) <= 4
        hom = pf.hom_profunctor(cat)
        comp = pf.ComposedProfunctor(hom, hom)
        for a in cat.objects:
            for c in cat.objects:
                triples = [(b, x, y) for b in cat.objects
                           for x in hom.elements(a, b)
                           for y in hom.elements(b, c)]
                edges = []
                for g in cat.morphisms:
                    b, b2 = cat.dom(g), cat.cod(g)
                    for x in hom.elements(a, b):
                        for y in hom.elements(b2, c):
                            edges.append(
                                ((b2, hom.ract(x, g, a, b), y),
                                 (b, x, hom.lact(g, y, b2, c))))
                labels = {t: i for i, t in enumerate(triples)}
                changed = True
                while changed:
                    changed = False
                    for u, v in edges:
                        if labels[u] != labels[v]:
                            lo = min(labels[u], labels[v])
                            hi = max(labels[u], labels[v])
                            for k in labels:
                                if labels[k] == hi:
                                    labels[k] = lo
                            changed = True
                assert len(set(labels.values())) == len(comp.elements(a, c))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report("criterion 4: profunctor model verifies all F/A/M instances",
            True, f"{checked} instances, {elapsed:.1f}s")


# -- criterion 5: pseudofunctor and monoidality -------------------------------


def test_criterion_5_pseudofunctor_monoidality():
    for cat in (models.cyclic_monoid_category(), models.arrow_meet_category(),
                models.square_meet_category()):
        assert oracles.check_pointed_composition(cat) == []
    # the covariant embedding preserves products on a concrete instance
    arrow = models.arrow_meet_category()
    z3 = models.cyclic_monoid_category()
    f = oracles.identity_functor(arrow)
    g = oracles.identity_functor(z3)
    up_prod = oracles.embed(oracles.product_functor([f, g]), "up")
    up_f, up_g = oracles.embed(f, "up"), oracles.embed(g, "up")
    src = pf.product_category([arrow, z3])
    elements = {}
    for a in src.objects:
        for b in src.objects:
            elems = [(x, y) for x in up_f.elements(a[0], b[0])
                     for y in up_g.elements(a[1], b[1])]
            if elems:
                elements[(a, b)] = tuple(sorted(elems, key=repr))
    pair = pf.Profunctor(
        "pair", src, src, elements,
        lambda gg, xy, a, b: (up_f.lact(gg[0], xy[0], a[0], b[0]),
                              up_g.lact(gg[1], xy[1], a[1], b[1])),
        lambda xy, hh, a, b: (up_f.ract(xy[0], hh[0], a[0], b[0]),
                              up_g.ract(xy[1], hh[1], a[1], b[1])))
    assert pf.nat_trans_search(up_prod, pair, iso=True) is not None
    _report("criterion 5: pointed composition and product preservation",
            True)


# -- criterion 6: chemistry ---------------------------------------------------


def test_criterion_6_chemistry():
    started = time.monotonic()
    mols = chem.load_fixture_molecules()
    for name in ("Glc", "ATP", "G6P", "ADP", "Hplus"):
        assert chem.is_molecule(mols[name]), name
    import test_chem as helpers
    h2, water, ethane = (helpers.h2(), helpers.water(), helpers.ethane())
    expectations = [(h2, 1), (water, 2), (ethane, 7)]
    for mol, count in expectations:
        splits = chem.enumerate_splits(mol, "w")
        assert len(splits) == count == helpers._bridge_oracle(mol)
        for left, right in splits:
            assert chem.isomorphic(chem.join(left, right, "w"), mol)
    cc = [1 for left, right in chem.enumerate_splits(ethane, "w")
          if sorted(t[1] for _, t in left.vertices if t[0] == "atom")
          == sorted(t[1] for _, t in right.vertices if t[0] == "atom")]
    assert len(cc) == 1
    cs = chem.build_chem_system()
    verdict = chem.check_glucose_explanation(cs, budget=600)
    assert verdict.status == "valid"
    assert verdict.witness is not None
    assert rw.verify_derivation(verdict.witness)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report("criterion 6: molecule fixtures, splits, and the reaction "
            "explanation", True, f"{elapsed:.2f}s")


# -- criterion 7: process calculus -------------------------------------------


def test_criterion_7_ccs():
    p = ccs.parse_process("(x.0|(y.0|x'.0))")
    out = ccs.reductions(p)
    assert [ccs.render(q) for q in out] == ["(0|(y.0|0))"]
    import test_ccs as helpers
    rng = random.Random(707)
    checked = 0
    while checked < 100:
        a = helpers._random_process(rng, rng.randint(1, 4))
        b = helpers._random_process(rng, rng.randint(1, 4))
        if len(ccs.reachable(a)[0]) > 20 or len(ccs.reachable(b)[0]) > 20:
            continue
        assert ccs.bisimilar(a, b) == helpers._naive_bisimilar(a, b)
        checked += 1
    cs = ccs.build_ccs_system()
    valid, counter = ccs.check_ccs_fixtures(cs, budget=400)
    assert valid.status == "valid"
    assert rw.verify_derivation(valid.witness)
    assert counter.status == "certified"
    assert cs.engine.is_isolated(cs.counterfactual)
    _report("criterion 7: reduction fixture, bisimulation oracle, and both "
            "verdicts", True, f"{checked} oracle pairs")


# -- criterion 8: circuits ----------------------------------------------------


def test_criterion_8_circuits():
    started = time.monotonic()
    kinds = [cx.Bipole("resistor", cx.RatFunc.const(2)),
             cx.Bipole("inductor", cx.RatFunc.const(1)),
             cx.Bipole("capacitor", cx.RatFunc.const(1)),
             cx.Bipole("vsource", cx.RatFunc.const(1)),
             cx.Bipole("isource", cx.RatFunc.const(1))]
    for b in kinds:
        assert cx.affine_eq(cx.wrapping_W(cx.impedance_of(b)),
                            cx.bipole_semantics(b)), b.kind
    def ohms(v):
        return cx.impedance_of(cx.Bipole("resistor", cx.RatFunc.const(v)))
    z = cx.imp_compose(ohms(2), ohms(3))
    assert cx.affine_eq(z.relation, ohms(5).relation)
    cs = cx.build_circuit_system()
    verdict = cx.check_series_explanation(cs, budget=3000)
    assert verdict.status == "valid"
    assert rw.verify_derivation(verdict.witness)
    gf5 = circuit_oracles.PrimeField(5)
    rng = random.Random(808)
    pairs = 0
    while pairs < 50:
        # each relation has at most three wires in total
        m = rng.randint(0, 2)
        n = rng.randint(0, 3 - m)
        k = rng.randint(0, 3 - m)
        rows_r = [tuple(rng.randrange(5) for _ in range(n + m + 1))
                  for _ in range(rng.randint(0, 3))]
        rows_s = [tuple(rng.randrange(5) for _ in range(m + k + 1))
                  for _ in range(rng.randint(0, 3))]
        r = cx.AffineRelation.make(gf5, n, m, rows_r)
        s = cx.AffineRelation.make(gf5, m, k, rows_s)
        comp = cx.affine_compose(r, s)
        want = set()
        for pr in circuit_oracles.solutions(r, gf5):
            for ps in circuit_oracles.solutions(s, gf5):
                if pr[n:] == ps[:m]:
                    want.add(pr[:n] + ps[m:])
        assert circuit_oracles.solutions(comp, gf5) == want
        pairs += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report("criterion 8: boxing/wrapping square, series law, and the "
            "finite-field oracle", True, f"{elapsed:.2f}s")


# -- criterion 9: determinism -------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    fixtures = tmp_path / "fx"
    base = [sys.executable, "-m", "layerprop.cli"]
    emit = subprocess.run(base + ["chem", "--emit", str(fixtures), "--json"],
                          capture_output=True, text=True)
    assert emit.returncode == 0
    subprocess.run(base + ["ccs", "--emit", str(fixtures), "--json"],
                   capture_output=True, text=True, check=True)
    commands = [
        ["chem", "--json"],
        ["ccs", "--json"],
        ["circuit", "--json"],
        ["check-theory", "--system", str(fixtures / "chem.json"), "--json"],
        ["explain", "--system", str(fixtures / "chem.json"),
         "--sigma", "phosphorylation",
         "--diagram", str(fixtures / "glucose.json"),
         "--budget", "600", "--json"],
        ["counterfactual", "--system", str(fixtures / "ccs.json"),
         "--sigma", str(fixtures / "red1.json"),
         "--diagram", str(fixtures / "lts2.json"), "--json"],
        ["export-dot", "--system", str(fixtures / "chem.json"),
         "--diagram", str(fixtures / "glucose.json")],
    ]
    for cmd in commands:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(base + cmd, capture_output=True)
            assert proc.returncode == 0, (cmd, proc.stderr)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], cmd
    _report("criterion 9: byte-identical repeated CLI runs", True,
            f"{len(commands)} commands")
