"""Reaction chemistry: valence-saturated multigraphs and their partitions.

A molecule partition is a connected multigraph whose vertices are atoms,
charge marks, or free variables, with every vertex's incident bond count
equal to its valence.  Cutting a single bridge bond yields two fragments
capped by a fresh shared variable; joining reverses the cut.  These splits
and joins, together with one reaction box, generate the lowest layer of the
three-level reaction system; the upper layers name whole molecules and
English-level species.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from . import diagram as dg
from . import explain
from . import rewrite as rw
from .errors import (FixtureInvalid, VariableAbsent, VariableMultiple,
                     VariableNotFresh)
from .internal import InternalDiagram
from .theory import (LayerPresentation, MorphismGen, SystemOfLayers,
                     TranslationFunctor, ValidationReport, validate_system)

DEFAULT_VALENCES = {"H": 1, "C": 4, "N": 3, "O": 2, "P": 5, "S": 2,
                    "-": 1, "+": 1}

Atom = tuple[str, str]  # ("atom", symbol) or ("var", name)


def atom(symbol: str) -> Atom:
    return ("atom", symbol)


def var(name: str) -> Atom:
    return ("var", name)


@dataclass(frozen=True)
class MoleculePartition:
    """Typed multigraph; edges are unordered with multiplicities."""

    vertices: tuple[tuple[str, Atom], ...]       # (id, type), id-sorted
    edges: tuple[tuple[str, str, int], ...]      # (a, b, mult), a < b

    @staticmethod
    def make(vertices: dict[str, Atom],
             edges: dict[tuple[str, str], int]) -> "MoleculePartition":
        vs = tuple(sorted(vertices.items()))
        es = []
        for (a, b), m in edges.items():
            if a == b:
                es.append((a, b, m))
            else:
                lo, hi = sorted((a, b))
                es.append((lo, hi, m))
        return MoleculePartition(vs, tuple(sorted(es)))

    @property
    def vertex_types(self) -> dict[str, Atom]:
        return dict(self.vertices)

    def degree(self, v: str) -> int:
        total = 0
        for a, b, m in self.edges:
            if a == v:
                total += m
            if b == v:
                total += m
            if a == b == v:
                total += m  # diagonal counted twice by the two branches
        return total

    def neighbors(self, v: str) -> list[tuple[str, int]]:
        out = []
        for a, b, m in self.edges:
            if a == v:
                out.append((b, m))
            elif b == v:
                out.append((a, m))
        return sorted(out)

    def free_variables(self) -> set[str]:
        return {t[1] for _, t in self.vertices if t[0] == "var"}


def validate_partition(m: MoleculePartition,
                       valences: dict[str, int] | None = None
                       ) -> ValidationReport:
    """All four structural conditions, reported individually."""
    valences = valences or DEFAULT_VALENCES
    report = ValidationReport()
    ids = [v for v, _ in m.vertices]
    types = m.vertex_types
    if len(set(ids)) != len(ids):
        report.add("duplicate vertex ids")
    for a, b, mult in m.edges:
        if a not in types or b not in types:
            report.add(f"edge ({a},{b}) mentions an unknown vertex")
        if a == b:
            report.add(f"loop at {a}: the adjacency must be irreflexive")
        if mult <= 0:
            report.add(f"edge ({a},{b}) has nonpositive multiplicity")
    # connectivity
    if ids:
        seen = {ids[0]}
        queue = [ids[0]]
        while queue:
            v = queue.pop()
            for w, _ in m.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if set(ids) - seen:
            report.add("multigraph is not connected")
    # valence saturation
    for v, t in m.vertices:
        if t[0] == "var":
            want = 1
        elif t[1] in valences:
            want = valences[t[1]]
        else:
            report.add(f"vertex {v}: no valence known for {t[1]!r}")
            continue
        got = m.degree(v)
        if got != want:
            report.add(f"vertex {v} ({t[1]}): degree {got}, valence {want}")
    return report


def is_molecule(m: MoleculePartition,
                valences: dict[str, int] | None = None) -> bool:
    return validate_partition(m, valences).ok and not m.free_variables()


# -- canonical labeling ------------------------------------------------------


_CERT_CACHE: dict[MoleculePartition, tuple] = {}


def type_counts(m: MoleculePartition) -> tuple:
    counts: dict[Atom, int] = {}
    for _, t in m.vertices:
        counts[t] = counts.get(t, 0) + 1
    return tuple(sorted(counts.items()))


def canonical_form(m: MoleculePartition) -> tuple:
    """Certificate invariant under vertex relabeling.

    Color refinement by (type, multiset of edge-colored neighbor colors),
    with individualization on ties; the least certificate over the
    branches is returned.
    """
    cached = _CERT_CACHE.get(m)
    if cached is not None:
        return cached
    ids = [v for v, _ in m.vertices]
    types = m.vertex_types
    adj = {v: m.neighbors(v) for v in ids}

    def refine(colors: dict[str, tuple]) -> dict[str, int]:
        current = {v: (types[v], colors[v]) for v in ids}
        palette = {c: i for i, c in enumerate(sorted(set(current.values())))}
        out = {v: palette[current[v]] for v in ids}
        while True:
            sig = {v: (out[v], tuple(sorted((mult, out[w])
                                            for w, mult in adj[v])))
                   for v in ids}
            # numeric ordering keeps the renumbering stable at the fixpoint
            palette = {c: i for i, c in enumerate(sorted(set(sig.values())))}
            nxt = {v: palette[sig[v]] for v in ids}
            if nxt == out:
                return out
            out = nxt

    def certificate(order: list[str]) -> tuple:
        pos = {v: i for i, v in enumerate(order)}
        tys = tuple(types[v] for v in order)
        edges = tuple(sorted((min(pos[a], pos[b]), max(pos[a], pos[b]), mult)
                             for a, b, mult in m.edges))
        return (tys, edges)

    best: tuple | None = None

    def search(colors: dict[str, tuple]) -> None:
        nonlocal best
        stable = refine(colors)
        classes: dict[int, list[str]] = {}
        for v in ids:
            classes.setdefault(stable[v], []).append(v)
        non_singleton = [c for c in sorted(classes) if len(classes[c]) > 1]
        if not non_singleton:
            order = sorted(ids, key=lambda v: stable[v])
            cert = certificate(order)
            if best is None or cert < best:
                best = cert
            return
        target = non_singleton[0]
        for v in sorted(classes[target]):
            branched = {w: (stable[w], 1 if w == v else 0) for w in ids}
            search(branched)

    if not ids:
        return ((), ())
    search({v: () for v in ids})
    assert best is not None
    _CERT_CACHE[m] = best
    return best


def isomorphic(a: MoleculePartition, b: MoleculePartition) -> bool:
    if type_counts(a) != type_counts(b):
        return False
    return canonical_form(a) == canonical_form(b)


# -- splitting and joining ---------------------------------------------------


def _component(m: MoleculePartition, start: str,
               cut: tuple[str, str]) -> set[str]:
    lo, hi = sorted(cut)
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for w, _ in m.neighbors(v):
            if tuple(sorted((v, w))) == (lo, hi):
                continue
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def enumerate_splits(m: MoleculePartition, fresh: str
                     ) -> list[tuple[MoleculePartition, MoleculePartition]]:
    """One fragment pair per single bridge bond, the fresh variable capping
    both cut ends.  Results are ordered by the cut edge."""
    if fresh in m.free_variables():
        raise VariableNotFresh(f"variable {fresh!r} already occurs")
    types = m.vertex_types
    out = []
    for a, b, mult in m.edges:
        if mult != 1:
            continue
        comp_a = _component(m, a, (a, b))
        if b in comp_a:
            continue  # not a bridge
        comp_b = _component(m, b, (a, b))

        def fragment(side: set[str], anchor: str) -> MoleculePartition:
            vs = {v: types[v] for v in side}
            vs[f"var_{fresh}"] = var(fresh)
            es = {}
            for x, y, k in m.edges:
                if x in side and y in side:
                    es[(x, y)] = k
            es[(anchor, f"var_{fresh}")] = 1
            return MoleculePartition.make(vs, es)

        out.append((fragment(comp_a, a), fragment(comp_b, b)))
    return out


def join(n: MoleculePartition, k: MoleculePartition,
         variable: str) -> MoleculePartition:
    """Reverse a split: remove the shared variable caps and bond the
    attachment points."""
    pieces = []
    for part, tag in ((n, "n"), (k, "k")):
        hooks = [v for v, t in part.vertices if t == ("var", variable)]
        if not hooks:
            raise VariableAbsent(
                f"variable {variable!r} does not occur in a fragment")
        if len(hooks) > 1:
            raise VariableMultiple(
                f"variable {variable!r} occurs {len(hooks)} times")
        hook = hooks[0]
        anchors = part.neighbors(hook)
        if len(anchors) != 1 or anchors[0][1] != 1:
            raise VariableMultiple(
                f"variable {variable!r} must cap exactly one single bond")
        anchor = anchors[0][0]
        pieces.append((part, tag, hook, anchor))
    vertices = {}
    edges: dict[tuple[str, str], int] = {}
    for part, tag, hook, _ in pieces:
        for v, t in part.vertices:
            if v != hook:
                vertices[f"{tag}:{v}"] = t
        for a, b, mult in part.edges:
            if hook in (a, b):
                continue
            edges[(f"{tag}:{a}", f"{tag}:{b}")] = mult
    (pn, tn, hn, an), (pk, tk, hk, ak) = pieces
    edges[(f"{tn}:{an}", f"{tk}:{ak}")] = 1
    return MoleculePartition.make(vertices, edges)


# -- fixtures ----------------------------------------------------------------


def _molecule_from_json(payload: dict) -> MoleculePartition:
    vertices = {}
    for v in payload["vertices"]:
        t = v["type"]
        if t.startswith("var:"):
            vertices[v["id"]] = var(t[4:])
        else:
            vertices[v["id"]] = atom(t)
    edges = {(e["a"], e["b"]): e["mult"] for e in payload["edges"]}
    return MoleculePartition.make(vertices, edges)


FIXTURE_NAMES = ("Glc", "ATP", "G6P", "ADP", "Hplus", "GlcFrag_a", "H_a",
                 "PO3_a", "PO3_b", "ADPfrag_b", "minus_b", "H_b", "plus_b")


def load_fixture_molecules() -> dict[str, MoleculePartition]:
    out = {}
    root = resources.files("layerprop").joinpath("data/molecules")
    for name in FIXTURE_NAMES:
        payload = json.loads(root.joinpath(f"{name}.json").read_text())
        mol = _molecule_from_json(payload)
        report = validate_partition(mol)
        if not report.ok:
            raise FixtureInvalid(
                f"fixture {name}: " + "; ".join(report.violations))
        out[name] = mol
    return out


@dataclass
class ChemSystem:
    system: SystemOfLayers
    molecules: dict[str, MoleculePartition]
    engine: rw.RuleEngine
    explanation: dg.Diagram
    explained: dg.Diagram


def reaction_composite() -> InternalDiagram:
    """The low-level reaction: split both inputs at their bridge bonds, run
    the exchange box, and join the products."""
    return InternalDiagram(
        "PartMol+", ("Glc", "ATP"), ("G6P", "ADP", "Hplus"),
        ((0, "choose_Glc"),
         (2, "choose_ATP"),
         (1, "exchange"),
         (0, "join_G6P"),
         (3, "join_Hplus"),
         (1, "join_ADP")))


def build_chem_system() -> ChemSystem:
    """Three layers: species names, molecules, molecule partitions."""
    mols = load_fixture_molecules()
    for name in ("Glc", "ATP", "G6P", "ADP", "Hplus"):
        if not is_molecule(mols[name]):
            raise FixtureInvalid(f"{name} is not a closed molecule")
    _validate_fixture_splits(mols)

    species = LayerPresentation(
        "L+", ("Glc", "ATP", "G6P", "ADP", "Hplus"),
        (MorphismGen("phosphorylation", ("Glc", "ATP"),
                     ("G6P", "ADP", "Hplus")),))
    mol_layer = LayerPresentation(
        "Mol+", ("Glc", "ATP", "G6P", "ADP", "Hplus"),
        (MorphismGen("phosphorylation_mol", ("Glc", "ATP"),
                     ("G6P", "ADP", "Hplus")),))
    partmol = LayerPresentation(
        "PartMol+", FIXTURE_NAMES,
        (MorphismGen("choose_Glc", ("Glc",), ("GlcFrag_a", "H_a")),
         MorphismGen("choose_ATP", ("ATP",), ("PO3_b", "ADPfrag_b")),
         MorphismGen("exchange", ("H_a", "PO3_b", "ADPfrag_b"),
                     ("PO3_a", "ADPfrag_b", "minus_b", "H_b", "plus_b")),
         MorphismGen("join_G6P", ("GlcFrag_a", "PO3_a"), ("G6P",)),
         MorphismGen("join_Hplus", ("H_b", "plus_b"), ("Hplus",)),
         MorphismGen("join_ADP", ("ADPfrag_b", "minus_b"), ("ADP",))))

    t_map = tuple((s, (s,)) for s in species.gen_objects)
    translate = TranslationFunctor(
        "L+", "Mol+", t_map,
        (("phosphorylation",
          InternalDiagram("Mol+", ("Glc", "ATP"), ("G6P", "ADP", "Hplus"),
                          ((0, "phosphorylation_mol"),))),))
    include = TranslationFunctor(
        "Mol+", "PartMol+", t_map,
        (("phosphorylation_mol", reaction_composite()),))
    composite = TranslationFunctor(
        "L+", "PartMol+", t_map,
        (("phosphorylation", reaction_composite()),))
    sys_ = SystemOfLayers(
        [species, mol_layer, partmol],
        [translate, include, composite],
        order=[("Mol+", "L+"), ("PartMol+", "Mol+"), ("PartMol+", "L+")])
    report = validate_system(sys_)
    if not report.ok:
        raise FixtureInvalid("; ".join(report.violations))

    engine = rw.RuleEngine(sys_)
    sigma = dg.gen_box(sys_, "L+", "phosphorylation")
    e = dg.seq_many(
        dg.refine(sys_, "L+", "Mol+", ("Glc", "ATP")),
        dg.refine(sys_, "Mol+", "PartMol+", ("Glc", "ATP")),
        dg.box(sys_, reaction_composite()),
        dg.coarsen(sys_, "Mol+", "PartMol+", ("G6P", "ADP", "Hplus")),
        dg.coarsen(sys_, "L+", "Mol+", ("G6P", "ADP", "Hplus")))
    return ChemSystem(sys_, mols, engine, e, sigma)


def _validate_fixture_splits(mols: dict[str, MoleculePartition]) -> None:
    """Every split/join generator corresponds to a real bridge cut."""
    cases = [
        ("Glc", "a", ("GlcFrag_a", "H_a")),
        ("ATP", "b", ("PO3_b", "ADPfrag_b")),
        ("G6P", "a", ("GlcFrag_a", "PO3_a")),
        ("ADP", "b", ("ADPfrag_b", "minus_b")),
        ("Hplus", "b", ("H_b", "plus_b")),
    ]
    for whole, variable, (left, right) in cases:
        found = False
        want_counts = {type_counts(mols[left]), type_counts(mols[right])}
        for fu, fv in enumerate_splits(mols[whole], variable):
            if {type_counts(fu), type_counts(fv)} != want_counts:
                continue
            if (isomorphic(fu, mols[left]) and isomorphic(fv, mols[right])) \
                    or (isomorphic(fu, mols[right])
                        and isomorphic(fv, mols[left])):
                found = True
                break
        if not found:
            raise FixtureInvalid(
                f"{whole} does not split into {left} + {right}")
        rejoined = join(mols[left], mols[right], variable)
        if not isomorphic(rejoined, mols[whole]):
            raise FixtureInvalid(
                f"joining {left} + {right} does not restore {whole}")


def check_glucose_explanation(cs: ChemSystem | None = None,
                              budget: int = 600
                              ) -> explain.ExplanationVerdict:
    if cs is None:
        cs = build_chem_system()
    return explain.check_explanation_1(cs.explanation, cs.explained,
                                       budget, cs.engine)
