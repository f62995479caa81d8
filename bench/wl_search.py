"""Workload ``search``: derivation search and equality modulo equations.

Inputs come from three systems: the two-layer fixture of the test suite
(``two_layer.json``) and the systems of the two shipped models.  A round
holds seeded random walks from a generator box (the search must find them):
walks of 2 and 3 rule applications on every system; one walk of 4, the
systems taking turns; fixed budget-exhaustion pairs that no derivation
connects; ``layer_eq`` pairs
built by seeded equation steps (equal), and monoid pairs whose model
morphisms differ (never equal).  Every search builds its own engine, as one
CLI call does.  Successive rounds take the next inputs of a seeded pool, so
a run averages over many walks.

The walks of 4 come from a fixed stream, not from the seed: their searches
take from 10 ms to over 2 s, so the few a run holds would set its
throughput and peak memory by the seed's luck.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from layerprop import diagram as dg
from layerprop import internal, jsonio, models
from layerprop import rewrite as rw
from layerprop.internal import InternalDiagram

from harness import Op

NAME = "search"
CHILD_PROCESSES = False

# Per-round counts put the median in the middle of the length-2 walks and
# the 90th percentile inside the exhaustion searches and the walks of 4,
# whose cost no seed changes.  The exhaustion budget keeps a round near
# 4.5 s, so a 30-s run holds six or seven rounds and its median is taken
# over some 200 distinct seeded walks; the pool holds more rounds than a run
# reaches.  Between budgets 300 and 500 an exhaustion search jumps from
# 0.07 s to 0.4 s, so a budget there would leave its cost to chance.
WALKS = {2: 10, 3: 1}        # walks per system and round, by length
LONG_WALK = 4                # one fixed walk this long per round, systems
                             # rotate
FOUND_BUDGET = 10_000
EXHAUST_BUDGET = 1_000
EQ_BUDGET = 256
EQ_PAIRS = 3                 # equal layer_eq pairs per system and round
DIFFER_PAIRS = 2             # monoid pairs with distinct model morphisms
POOL = 12                    # distinct rounds of seeded inputs

# Exhaustion pairs.  Weigh each generator so that every rule keeps the
# total weight of a diagram's boxes: two-layer u = 2 (g;h = u), g = h = 1,
# translations carry the weights down; monoid m1 = n2 = 1, m2 = n1 = -1
# (m1;m2 = id).  The sides weigh differently, so no derivation exists.
EXHAUSTION = [
    ("two", "U", "a", ["u"], ["u", "u"]),
    ("two", "U", "a", ["g", "h"], ["g", "h", "g", "h"]),
    ("two", "U", "a", ["u", "u"], ["u"]),
    ("monoid", "MU", "u", ["m1"], ["m1", "m1"]),
    ("monoid", "MU", "u", ["m1", "m1"], ["m1"]),
    ("monoid", "MU", "u", ["m2"], ["m1"]),
]

# Box contents for equation steps: per system, the layer, one strand's
# object, the paths a strand may take (generator lists), how many paths a
# strand may chain and how many strands run in parallel.
STRANDS = {
    "two": ("U", "a", [["u"], ["g", "h"]], 2, 2),
    "monoid": ("MU", "u", [["m1"], ["m2"], ["m1", "m2"]], 2, 1),
    "meet": ("Sq", "p", [["gd"], ["gf", "gh"], ["gg", "gk"]], 1, 2),
}


def load_systems(root: Path) -> dict:
    two = jsonio.system_from_json(json.loads(
        (root / "bench" / "two_layer.json").read_text(encoding="utf-8")))
    return {"two": two, "monoid": models.monoid_model().system,
            "meet": models.meet_model().system}


def chain(system, layer, obj, gens) -> InternalDiagram:
    sig = system.signature(layer)
    d = InternalDiagram(layer, (obj,), (obj,), ())
    for g in gens:
        d = d.then(internal.generator(layer, g, sig))
    return d


def random_walk(system, rng, steps):
    """(start box, target) with target ``steps`` applications away."""
    engine = rw.RuleEngine(system)
    while True:
        layer = rng.choice(sorted(system.layers))
        gens = system.layer(layer).gen_morphisms
        start = dg.gen_box(system, layer, rng.choice(gens).name)
        d = start
        for _ in range(steps):
            d = rw.apply_rule(d, rng.choice(engine.matches(d)))
        if dg.canonical_key(d) != dg.canonical_key(start):
            return start, d


def strand_content(system, name, rng) -> InternalDiagram:
    """Parallel strands, each a random path, interleaved."""
    layer, obj, paths, repeat, widest = STRANDS[name]
    width = rng.randint(1, widest)
    strands = [[g for _ in range(rng.randint(1, repeat))
                for g in rng.choice(paths)] for _ in range(width)]
    slices = []
    pos = [0] * width
    while any(pos[i] < len(strands[i]) for i in range(width)):
        i = rng.choice([i for i in range(width) if pos[i] < len(strands[i])])
        slices.append((i, strands[i][pos[i]]))
        pos[i] += 1
    dom = (obj,) * width
    cod = internal.run_slices(dom, slices, system.signature(layer))[-1]
    return InternalDiagram(layer, dom, cod, tuple(slices))


def equation_pair(system, name, rng):
    """(x, y): y is x after 1-3 seeded equation steps, structurally
    different from x."""
    layer = STRANDS[name][0]
    sig = system.signature(layer)
    eqs = system.layer(layer).equations
    while True:
        x = strand_content(system, name, rng)
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


def differ_pair(model, rng):
    """Monoid boxes whose model morphisms differ."""
    system = model.system
    xs = [rng.choice(["m1", "m2"]) for _ in range(rng.randint(1, 3))]
    x = chain(system, "MU", "u", xs)
    y = chain(system, "MU", "u", xs + ["m1"])
    if model.internal_morphism(x) == model.internal_morphism(y):
        raise RuntimeError("differ pair has equal model morphisms")
    return dg.box(system, x), dg.box(system, y)


def setup(ctx):
    rng = random.Random(f"search/{ctx.seed}")
    systems = load_systems(ctx.root)
    monoid = models.monoid_model()
    pool = []
    names = sorted(systems)
    fixed = random.Random("search/long-walks")
    long_walks = [(name, LONG_WALK,
                   *random_walk(systems[name], fixed, LONG_WALK))
                  for name in names]
    for rnd in range(POOL):
        walks = []
        equal = []
        for name in names:
            for steps, count in WALKS.items():
                for _ in range(count):
                    walks.append((name, steps,
                                  *random_walk(systems[name], rng, steps)))
            for _ in range(EQ_PAIRS):
                equal.append((name,
                              *equation_pair(systems[name], name, rng)))
        differ = [differ_pair(monoid, rng) for _ in range(DIFFER_PAIRS)]
        pool.append((walks, equal, differ))
    exhaustion = []
    for name, layer, obj, a, b in EXHAUSTION:
        s = systems[name]
        exhaustion.append((name, dg.box(s, chain(s, layer, obj, a)),
                           dg.box(s, chain(s, layer, obj, b))))
    return {"systems": systems, "pool": pool, "long_walks": long_walks,
            "exhaustion": exhaustion}


def describe(state) -> str:
    """The seeded inputs, for the run's input digest."""
    return repr([[(n, dg.canonical_key(a), dg.canonical_key(b))
                  for n, *_, a, b in walks + equal] for walks, equal, _ in
                 state["pool"]])


def _check_found(dst):
    want = dg.canonical_key(dst)

    def check(out):
        if not isinstance(out, rw.Derivation):
            return f"not found: {out!r}"
        if not rw.verify_derivation(out):
            return "derivation does not replay"
        if out.end_key != want:
            return "derivation ends elsewhere"
        return None
    return check


def _search(system, src, dst, budget):
    return rw.find_derivation(src, dst, budget, rw.RuleEngine(system))


def round_ops(state, rnd: int) -> list[Op]:
    systems = state["systems"]
    walks, equal, differ = state["pool"][rnd % len(state["pool"])]
    long_walks = state["long_walks"]
    ops = []
    for name, steps, src, dst in walks + [long_walks[rnd % len(long_walks)]]:
        ops.append(Op(f"walk{steps}:{name}",
                      lambda s=systems[name], a=src, b=dst:
                      _search(s, a, b, FOUND_BUDGET), _check_found(dst)))
    for name, src, dst in state["exhaustion"]:
        ops.append(Op(f"exhaust:{name}",
                      lambda s=systems[name], a=src, b=dst:
                      _search(s, a, b, EXHAUST_BUDGET),
                      lambda out: None if out == rw.NotFound(EXHAUST_BUDGET)
                      else f"expected NotFound({EXHAUST_BUDGET}), "
                           f"got {out!r}"))
    for name, x, y in equal:
        ops.append(Op(f"layer_eq:{name}",
                      lambda x=x, y=y: dg.layer_eq(x, y, EQ_BUDGET),
                      lambda res: None if res.status == "equal"
                      else f"status {res.status}"))
    for x, y in differ:
        ops.append(Op("layer_eq:monoid-differ",
                      lambda x=x, y=y: dg.layer_eq(x, y, EQ_BUDGET),
                      lambda res: "equal boxes with different model "
                      "morphisms" if res.status == "equal" else None))
    # a fixed order that mixes the kinds, so they share the machine's speed
    random.Random(rnd).shuffle(ops)
    return ops
