"""Workload ``semantics``: verify every sampled rule instance over both
shipped finite models.

A round is one verification pass per model, built anew as one
``semantics-verify`` call builds it: model, engine and instances (one
operation), then one operation per instance.  The round adds a deliberately
wrong rule, re-checks of seeded 2-cells, coend class counts on small
categories and natural-transformation searches that backtrack.  The monoid
model's one-object categories sit beside the meet model's products of up to
729 morphisms, so a change that scales with category size shows on one
model and not on the other.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from layerprop import diagram as dg
from layerprop import models
from layerprop import profunctor as pf
from layerprop import rewrite as rw
from layerprop import semantics as sm
from layerprop.internal import InternalDiagram

from harness import Op

NAME = "semantics"
CHILD_PROCESSES = False

# the word pools of acceptance criterion 4
MODELS = {
    "monoid": (models.monoid_model,
               {"MU": [(), ("u",), ("u", "u")], "ML": [(), ("v",)]}),
    "meet": (models.meet_model,
             {"Ar": [(), ("lo",), ("hi",)],
              "Sq": [(), ("q",), ("r",), ("q", "r")]}),
}
# seeded 2-cell re-checks per model, family (A, F, M) and round; a fixed
# count per family keeps the round's cost mix the same for every seed
TWO_CELL_SAMPLE = 2


def expected_counts(system, words) -> Counter:
    """Instances per family that sample_instances must yield, counted from
    the pools and the presentation alone."""
    c: Counter = Counter()
    for name, lay in system.layers.items():
        p, g = len(words.get(name, [])), len(lay.gen_morphisms)
        c["A"] += 2 * p * p + 2          # A1, A2 per pair; A5, A6
        c["F"] += 2 * g * g              # F3, F4 per generator pair
        c["M"] += 2 * p ** 3 + 4 * p     # M1, M2 per triple; M3, M4 x 2
        c["E"] += len(lay.equations)
    for (s, _), f in system.functors.items():
        p = len(words.get(s, []))
        moving = sum(1 for g in system.layer(s).gen_morphisms
                     if f.gen_image(g.name).slices)
        c["A"] += 2 * p                  # A3, A4
        c["F"] += 2 * moving             # F1, F2
        c["M"] += 2 * p * p + 2          # M5a, M6a per pair; M5b, M6b
    return c


# -- 2-cell re-check ----------------------------------------------------------


def _by_endpoint(cat):
    into, out_of = {}, {}
    for m in cat.morphisms:
        into.setdefault(cat.cod(m), []).append(m)
        out_of.setdefault(cat.dom(m), []).append(m)
    return into, out_of


def check_two_cell(left, right, cell, iso: bool) -> str | None:
    """Naturality under both actions, the point, and bijectivity."""
    if cell is None:
        return "no 2-cell found"
    p, q = left.prof, right.prof
    into, _ = _by_endpoint(p.source)
    _, out_of = _by_endpoint(p.target)
    for a in p.source.objects:
        for b in p.target.objects:
            xs = p.elements(a, b)
            ys = set(q.elements(a, b))
            images = set()
            for x in xs:
                y = cell.get((a, b, x))
                if y not in ys:
                    return f"component at {(a, b)!r} leaves the target"
                images.add(y)
                for g in into.get(a, ()):
                    a2 = p.source.dom(g)
                    if cell.get((a2, b, p.lact(g, x, a, b))) != \
                            q.lact(g, y, a, b):
                        return "left naturality fails"
                for h in out_of.get(b, ()):
                    b2 = p.target.cod(h)
                    if cell.get((a, b2, p.ract(x, h, a, b))) != \
                            q.ract(y, h, a, b):
                        return "right naturality fails"
            if iso and (len(images) != len(xs) or len(xs) != len(ys)):
                return f"component at {(a, b)!r} is not a bijection"
    if cell.get((left.src_obj, left.tgt_obj, left.point)) != right.point:
        return "point not preserved"
    return None


# -- coend oracle -------------------------------------------------------------


def naive_coend_classes(cat) -> dict:
    """Class counts of hom;hom by relabelling to a fixed point, the
    transitive-closure oracle of acceptance criterion 4."""
    out = {}
    for a in cat.objects:
        for c in cat.objects:
            triples = [(b, x, y) for b in cat.objects
                       for x in cat.hom(a, b) for y in cat.hom(b, c)]
            edges = []
            for g in cat.morphisms:
                b, b2 = cat.dom(g), cat.cod(g)
                for x in cat.hom(a, b):
                    for y in cat.hom(b2, c):
                        edges.append(((b2, cat.then(x, g), y),
                                      (b, x, cat.then(g, y))))
            labels = {t: i for i, t in enumerate(triples)}
            changed = True
            while changed:
                changed = False
                for u, v in edges:
                    if labels[u] != labels[v]:
                        lo, hi = sorted((labels[u], labels[v]))
                        for k in labels:
                            if labels[k] == hi:
                                labels[k] = lo
                        changed = True
            out[(a, c)] = len(set(labels.values()))
    return out


# -- natural-transformation cases that backtrack ------------------------------


def _one_object(name, morphisms, compose):
    return pf.FinCategory(name, ["*"], morphisms,
                          {m: "*" for m in morphisms},
                          {m: "*" for m in morphisms},
                          compose, {"*": morphisms[0]})


def _z2():
    return _one_object("Z2", ["e", "s"],
                       {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s",
                        ("s", "s"): "e"})


def _z2_set(cat, elements, left_swap, right_swap):
    """Z2 acting on a set: s swaps the pairs listed, fixes the rest."""
    def act(swap):
        table = dict(swap + [(y, x) for x, y in swap])
        return lambda g, x: table.get(x, x) if g == "s" else x
    lact, ract = act(left_swap), act(right_swap)
    return pf.Profunctor("set", cat, cat, {("*", "*"): tuple(elements)},
                         lambda g, x, a, b: lact(g, x),
                         lambda x, h, a, b: ract(h, x))


def nat_cases():
    """(label, p, q, point, iso, known fault) built fresh."""
    z2 = _z2()
    hom = pf.hom_profunctor(z2)
    triv = _one_object("1", ["i"], {("i", "i"): "i"})
    discrete = lambda names: pf.Profunctor(  # noqa: E731
        "discrete", triv, triv, {("*", "*"): tuple(names)},
        lambda g, x, a, b: x, lambda x, h, a, b: x)
    return [
        # injectivity rejects the first candidates: backtracking by undo
        ("nat:bijection", discrete(["x0", "x1", "x2"]),
         discrete(["y0", "y1", "y2"]), None, True, None),
        ("nat:no-iso", hom, _z2_set(z2, ["y0", "y1"], [], []), None, True,
         None),
        ("nat:pointed", hom,
         _z2_set(z2, ["w", "a0", "a1"], [("a0", "a1")], [("a0", "a1")]),
         (("*", "*", "e"), "a0"), False, None),
        # a propagation conflict leaves its additions behind
        ("nat:stale-undo", hom, _z2_set(z2, ["a0", "a1", "z"],
                                        [("a0", "a1")], []), None, False,
         "nat_trans_search keeps assignments added by a failed "
         "propagation"),
    ]


def brute_nat(p, q, point, iso) -> list[dict]:
    """Every natural transformation p => q, by enumeration."""
    keys = [(a, b, x) for a in p.source.objects for b in p.target.objects
            for x in p.elements(a, b)]
    choices = [q.elements(a, b) for a, b, _ in keys]
    out = []
    for pick in itertools.product(*choices):
        theta = dict(zip(keys, pick))
        if point is not None and theta.get(point[0]) != point[1]:
            continue
        ok = True
        for (a, b, x), y in theta.items():
            for g in p.source.morphisms:
                if p.source.cod(g) == a and theta[
                        (p.source.dom(g), b, p.lact(g, x, a, b))] != \
                        q.lact(g, y, a, b):
                    ok = False
            for h in p.target.morphisms:
                if p.target.dom(h) == b and theta[
                        (a, p.target.cod(h), p.ract(x, h, a, b))] != \
                        q.ract(y, h, a, b):
                    ok = False
        if ok and iso:
            for a in p.source.objects:
                for b in p.target.objects:
                    xs = p.elements(a, b)
                    images = {theta[(a, b, x)] for x in xs}
                    if not len(images) == len(xs) == len(q.elements(a, b)):
                        ok = False
        if ok:
            out.append(theta)
    return out


def _check_nat(expected):
    def check(found):
        if found is None:
            return (None if not expected else
                    f"search found none, enumeration found {len(expected)}")
        if found not in expected:
            return "search result is not a natural transformation"
        return None
    return check


# -- the round ----------------------------------------------------------------


def _bogus_rule(system):
    """Pants followed by a box on the merged sheet: not sound."""
    lhs = dg.pants(system, "MU", ("u",), ("u",))
    rhs = dg.seq_compose(
        dg.pants(system, "MU", ("u",), ("u",)),
        dg.box(system, InternalDiagram("MU", ("u", "u"), ("u", "u"),
                                       ((0, "m1"),))))
    return rw.RewriteRule("bogus", "M", lhs, rhs, True, ())


def setup(ctx):
    rng = random.Random(f"semantics/{ctx.seed}")
    plan = []
    for name, (make, words) in MODELS.items():
        model = make()
        engine = rw.RuleEngine(model.system)
        rules = rw.sample_instances(engine, words)
        counts = expected_counts(model.system, words)
        sample = sorted(
            i for family in "AFM" for i in rng.sample(
                [i for i, r in enumerate(rules) if r.family == family],
                TWO_CELL_SAMPLE))
        plan.append((name, make, words, counts, len(rules), sample))
    cats = {"Z3": models.cyclic_monoid_category,
            "Arr": models.arrow_meet_category}
    oracle = {n: naive_coend_classes(make()) for n, make in cats.items()}
    nat = [(label, brute_nat(p, q, point, iso))
           for label, p, q, point, iso, _ in nat_cases()]
    return {"plan": plan, "cats": cats, "oracle": oracle, "nat": nat}


def describe(state) -> str:
    """The seeded inputs (the 2-cell samples), for the input digest."""
    return repr([(name, sample) for name, *_, sample in state["plan"]])


def _model_ops(name, make, words, counts, n_rules, sample
               ) -> tuple[Op, list[Op]]:
    """The model's build operation, and the operations that use it."""
    built: dict = {}

    def prepare():
        model = make()
        engine = rw.RuleEngine(model.system)
        built["model"] = model
        built["rules"] = rw.sample_instances(engine, words)
        return Counter(r.family for r in built["rules"])

    build = Op(f"{name}:prepare", prepare,
               lambda got: None if got == counts else
               f"instance counts {dict(got)} differ from {dict(counts)}")
    ops = []
    for i in range(n_rules):
        ops.append(Op(
            f"{name}:verify",
            lambda i=i: sm.verify_rule_semantics(built["rules"][i],
                                                 built["model"]),
            lambda ok: None if ok is True else "instance not verified"))
    for i in sample:
        def two_cell(i=i):
            rule = built["rules"][i]
            left = sm.interpret(built["model"], rule.lhs)
            right = sm.interpret(built["model"], rule.rhs)
            return (left, right, pf.pointed_two_cell(
                left, right, iso=rule.bidirectional), rule.bidirectional)
        ops.append(Op(f"{name}:two-cell", two_cell,
                      lambda out: check_two_cell(*out)))
    if name == "monoid":
        ops.append(Op(
            "monoid:wrong-rule",
            lambda: sm.verify_rule_semantics(
                _bogus_rule(built["model"].system), built["model"]),
            lambda ok: None if ok is False else "unsound rule verified"))
    return build, ops


def _interleave(lists: list[list]) -> list:
    """Merge the lists evenly, each in its own order, so the models' checks
    share the machine's speed at every moment of the round."""
    keyed = [((i + 0.5) / len(ops), k, op) for k, ops in enumerate(lists)
             for i, op in enumerate(ops)]
    return [op for *_, op in sorted(keyed, key=lambda t: t[:2])]


def round_ops(state, rnd: int) -> list[Op]:
    builds, uses = zip(*(_model_ops(*entry) for entry in state["plan"]))
    ops = list(builds) + _interleave(list(uses))
    for cname, make in state["cats"].items():
        def coend(make=make):
            cat = make()
            hom = pf.hom_profunctor(cat)
            comp = pf.ComposedProfunctor(hom, hom)
            return {(a, c): len(comp.elements(a, c))
                    for a in cat.objects for c in cat.objects}
        want = state["oracle"][cname]
        ops.append(Op(f"coend:{cname}", coend,
                      lambda got, want=want: None if got == want else
                      f"class counts {got} differ from {want}"))
    cases = nat_cases()
    for (label, p, q, point, iso, fault), (_, expected) in zip(
            cases, state["nat"]):
        ops.append(Op(label,
                      lambda p=p, q=q, point=point, iso=iso:
                      pf.nat_trans_search(p, q, point, iso=iso),
                      _check_nat(expected), fault))
    return ops
