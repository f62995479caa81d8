"""Electrical circuits: exact affine relations, impedances, and the
boxing/wrapping square.

Bipole generators denote affine relations between pairs (current, voltage)
over the field of rational functions in the Laplace variable s.  Relations
are kept in reduced row echelon form, which is a unique normal form per
affine subspace, so equality of denotations is literal equality.  The
impedance category composes one-input one-output relations by sharing the
current and adding the voltages; boxing sends a bipole to its impedance and
wrapping embeds an impedance back as a two-port relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import diagram as dg
from .errors import ArityMismatch, FixtureInvalid, SquareViolation
from .internal import InternalDiagram
from .theory import (Equation, LayerPresentation, MorphismGen,
                     SystemOfLayers, TranslationFunctor, validate_system)

if TYPE_CHECKING:  # the series check imports these on use
    from .explain import ExplanationVerdict


# -- exact scalars -----------------------------------------------------------


def _poly_trim(coeffs: tuple) -> tuple:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _poly_add(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    return _poly_trim(tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)))


def _poly_neg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _poly_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(tuple(out))


def _poly_divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b) and _poly_trim(tuple(rem)):
        rem = list(_poly_trim(tuple(rem)))
        if len(rem) < len(b):
            break
        shift = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quo[shift] = factor
        for i, x in enumerate(b):
            rem[shift + i] -= factor * x
        rem = list(_poly_trim(tuple(rem)))
    return _poly_trim(tuple(quo)), _poly_trim(tuple(rem))


def _poly_gcd(a: tuple, b: tuple) -> tuple:
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = tuple(x / lead for x in a)  # monic
    return a


@dataclass(frozen=True)
class RatFunc:
    """Rational function in s with Fraction coefficients, gcd-reduced,
    denominator monic."""

    num: tuple
    den: tuple

    @staticmethod
    def make(num, den=(Fraction(1),)) -> "RatFunc":
        num = _poly_trim(tuple(Fraction(x) for x in num))
        den = _poly_trim(tuple(Fraction(x) for x in den))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            return RatFunc((), (Fraction(1),))
        g = _poly_gcd(num, den)
        if len(g) > 1 or (g and g[0] != 1):
            num, _ = _poly_divmod(num, g)
            den, _ = _poly_divmod(den, g)
        lead = den[-1]
        num = tuple(x / lead for x in num)
        den = tuple(x / lead for x in den)
        return RatFunc(num, den)

    @staticmethod
    def const(x) -> "RatFunc":
        return RatFunc.make((Fraction(x),))

    @staticmethod
    def s() -> "RatFunc":
        return RatFunc.make((Fraction(0), Fraction(1)))

    def __add__(self, other):
        return RatFunc.make(
            _poly_add(_poly_mul(self.num, other.den),
                      _poly_mul(other.num, self.den)),
            _poly_mul(self.den, other.den))

    def __neg__(self):
        return RatFunc(_poly_neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc.make(_poly_mul(self.num, other.num),
                            _poly_mul(self.den, other.den))

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverting the zero rational function")
        return RatFunc.make(self.den, self.num)

    def is_zero(self) -> bool:
        return not self.num


class QField:
    """Field operations on RatFunc values."""

    zero = RatFunc((), (Fraction(1),))
    one = RatFunc.const(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return a.inverse()

    @staticmethod
    def is_zero(a):
        return a.is_zero()


# -- affine relations --------------------------------------------------------


@dataclass(frozen=True)
class AffineRelation:
    """Solution set of A (x;y) = b, stored in reduced row echelon form.

    Rows are tuples over n_in + n_out variable coefficients followed by the
    constant; the inconsistent relation is canonically the single row
    0 = 1.
    """

    field: object
    n_in: int
    n_out: int
    rows: tuple

    @staticmethod
    def make(field, n_in: int, n_out: int, rows) -> "AffineRelation":
        return AffineRelation(field, n_in, n_out,
                              _rref(field, n_in + n_out, rows))

    @property
    def arity(self) -> tuple[int, int]:
        return (self.n_in, self.n_out)


def _rref(field, width: int, rows) -> tuple:
    work = [list(r) for r in rows]
    rank = 0
    for col in range(width + 1):
        pivot_row = None
        for i in range(rank, len(work)):
            if not field.is_zero(work[i][col]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = field.inv(work[rank][col])
        work[rank] = [field.mul(inv, x) for x in work[rank]]
        for i in range(len(work)):
            if i != rank and not field.is_zero(work[i][col]):
                factor = work[i][col]
                work[i] = [field.sub(x, field.mul(factor, y))
                           for x, y in zip(work[i], work[rank])]
        rank += 1
        if col == width:
            # inconsistent: canonical empty relation
            empty = [field.zero] * width + [field.one]
            return (tuple(empty),)
    out = [tuple(r) for r in work[:rank]]
    return tuple(out)


def affine_compose(r: AffineRelation, s: AffineRelation) -> AffineRelation:
    """Relational composite: project out the shared middle variables."""
    if r.field is not s.field and r.field != s.field:
        raise ArityMismatch("relations over different fields")
    if r.n_out != s.n_in:
        raise ArityMismatch(
            f"cannot compose arity {r.arity} with {s.arity}")
    field = r.field
    m = r.n_out
    total = m + r.n_in + s.n_out  # columns: [middle | in | out]
    rows = []
    for row in r.rows:
        new = [field.zero] * (total + 1)
        for i in range(r.n_in):
            new[m + i] = row[i]
        for j in range(m):
            new[j] = row[r.n_in + j]
        new[total] = row[r.n_in + r.n_out]
        rows.append(tuple(new))
    for row in s.rows:
        new = [field.zero] * (total + 1)
        for j in range(m):
            new[j] = row[j]
        for k in range(s.n_out):
            new[m + r.n_in + k] = row[m + k]
        new[total] = row[m + s.n_out]
        rows.append(tuple(new))
    reduced = _rref(field, total, rows)
    kept = [row for row in reduced
            if all(field.is_zero(row[j]) for j in range(m))]
    projected = [row[m:] for row in kept]
    return AffineRelation.make(field, r.n_in, s.n_out, projected)


def affine_eq(r: AffineRelation, s: AffineRelation) -> bool:
    return (r.arity == s.arity and r.rows == s.rows)


# -- impedances and bipoles --------------------------------------------------


@dataclass(frozen=True)
class Bipole:
    kind: str
    param: RatFunc

    @property
    def label(self) -> str:
        letters = {"resistor": "R", "inductor": "L", "capacitor": "C",
                   "vsource": "V", "isource": "J"}
        num = "_".join(str(x) for x in self.param.num) or "0"
        den = "_".join(str(x) for x in self.param.den)
        tag = num if self.param.den == (Fraction(1),) else f"{num}over{den}"
        return f"{letters[self.kind]}{tag}"


def bipole_semantics(b: Bipole) -> AffineRelation:
    """Two-port relation over (i1, v1, i2, v2)."""
    f = QField
    one, zero = f.one, f.zero
    s = RatFunc.s()
    eq_current = (one, zero, f.neg(one), zero, zero)  # i1 - i2 = 0
    if b.kind == "resistor":
        rows = [eq_current, (f.neg(b.param), one, zero, f.neg(one), zero)]
    elif b.kind == "inductor":
        rows = [eq_current,
                (f.neg(s * b.param), one, zero, f.neg(one), zero)]
    elif b.kind == "capacitor":
        # i = sC (v1 - v2)
        sc = s * b.param
        rows = [eq_current, (one, f.neg(sc), zero, sc, zero)]
    elif b.kind == "vsource":
        rows = [eq_current, (zero, one, zero, f.neg(one), b.param)]
    elif b.kind == "isource":
        rows = [eq_current, (one, zero, zero, zero, b.param)]
    else:
        raise FixtureInvalid(f"unknown bipole kind {b.kind!r}")
    return AffineRelation.make(f, 2, 2, rows)


@dataclass(frozen=True)
class Impedance:
    """A one-input one-output relation between current and voltage."""

    relation: AffineRelation


def impedance_of(b: Bipole) -> Impedance:
    """The boxing of one generator: its (i, v) law."""
    f = QField
    one, zero = f.one, f.zero
    s = RatFunc.s()
    if b.kind == "resistor":
        rows = [(f.neg(b.param), one, zero)]        # v = R i
    elif b.kind == "inductor":
        rows = [(f.neg(s * b.param), one, zero)]    # v = sL i
    elif b.kind == "capacitor":
        rows = [(one, f.neg(s * b.param), zero)]    # i = sC v
    elif b.kind == "vsource":
        rows = [(zero, one, b.param)]               # v = v0
    elif b.kind == "isource":
        rows = [(one, zero, b.param)]               # i = i0
    else:
        raise FixtureInvalid(f"unknown bipole kind {b.kind!r}")
    return Impedance(AffineRelation.make(f, 1, 1, rows))


def identity_impedance() -> Impedance:
    # the trivial impedance: no voltage drop at any current
    f = QField
    return Impedance(AffineRelation.make(f, 1, 1, [(f.zero, f.one, f.zero)]))


def imp_compose(z1: Impedance, z2: Impedance) -> Impedance:
    """Series composition: share the current, add the voltages."""
    f = QField
    one, zero = f.one, f.zero
    # columns: [v1 v2 | i v | const]
    rows = []
    for row in z1.relation.rows:
        rows.append((row[1], zero, row[0], zero, row[2]))
    for row in z2.relation.rows:
        rows.append((zero, row[1], row[0], zero, row[2]))
    rows.append((f.neg(one), f.neg(one), zero, one, zero))  # v = v1 + v2
    reduced = _rref(f, 4, rows)
    kept = [row[2:] for row in reduced
            if f.is_zero(row[0]) and f.is_zero(row[1])]
    return Impedance(AffineRelation.make(f, 1, 1, kept))


def boxing_B(term: list[Bipole]) -> Impedance:
    """Fold a one-wire circuit into its impedance."""
    out = identity_impedance()
    for b in term:
        out = imp_compose(out, impedance_of(b))
    return out


def wrapping_W(z: Impedance) -> AffineRelation:
    """Embed an impedance as a two-port relation: equal currents and a
    voltage drop governed by the impedance."""
    f = QField
    one, zero = f.one, f.zero
    rows = [(one, zero, f.neg(one), zero, zero)]  # i1 = i2
    for row in z.relation.rows:
        # a i + c (v1 - v2) = b
        a, c, b = row
        rows.append((a, c, zero, f.neg(c), b))
    return AffineRelation.make(f, 2, 2, rows)


# -- the layered system ------------------------------------------------------


DEFAULT_BIPOLES = (
    Bipole("resistor", RatFunc.const(2)),
    Bipole("resistor", RatFunc.const(3)),
    Bipole("resistor", RatFunc.const(5)),
    Bipole("inductor", RatFunc.const(1)),
    Bipole("capacitor", RatFunc.const(1)),
    Bipole("vsource", RatFunc.const(1)),
    Bipole("isource", RatFunc.const(1)),
)


@dataclass
class CircuitSystem:
    system: SystemOfLayers
    bipoles: tuple[Bipole, ...]
    impedances: dict[str, Impedance]
    relations: dict[str, AffineRelation]


def build_circuit_system(bipoles: tuple[Bipole, ...] = DEFAULT_BIPOLES
                         ) -> CircuitSystem:
    """Four layers (bipoles, circuits, impedances, relations) with the
    boxing/wrapping square validated on every generator."""
    labels = [b.label for b in bipoles]
    if len(set(labels)) != len(labels):
        raise FixtureInvalid("duplicate bipole labels")
    imps = {b.label: impedance_of(b) for b in bipoles}
    rels = {b.label: bipole_semantics(b) for b in bipoles}
    for b in bipoles:
        if not affine_eq(wrapping_W(imps[b.label]), rels[b.label]):
            raise SquareViolation(
                f"wrapping of the boxed {b.label} differs from its "
                f"two-port relation")

    gen = lambda name: MorphismGen(name, ("n",), ("n",))
    bip = LayerPresentation("Bip", ("n",),
                            tuple(gen(lb) for lb in labels))

    series = _series_fixture(bipoles)
    ecirc_eqs = []
    imp_eqs = []
    gaa_eqs = []
    if series is not None:
        a, b, c = series
        ecirc_eqs.append(Equation(
            "series_resistors",
            InternalDiagram("ECirc", ("n",), ("n",), ((0, a), (0, b))),
            InternalDiagram("ECirc", ("n",), ("n",), ((0, c),))))
        imp_eqs.append(Equation(
            "series_impedances",
            InternalDiagram("Imp", ("n",), ("n",),
                            ((0, f"z_{a}"), (0, f"z_{b}"))),
            InternalDiagram("Imp", ("n",), ("n",), ((0, f"z_{c}"),))))
        gaa_eqs.append(Equation(
            "series_relations",
            InternalDiagram("GAA", ("port", "port"), ("port", "port"),
                            ((0, f"rel_{a}"), (0, f"rel_{b}"))),
            InternalDiagram("GAA", ("port", "port"), ("port", "port"),
                            ((0, f"rel_{c}"),))))
        if not affine_eq(imp_compose(imps[a], imps[b]).relation,
                         imps[c].relation):
            raise FixtureInvalid("impedances do not add in series")
        if not affine_eq(affine_compose(rels[a], rels[b]), rels[c]):
            raise FixtureInvalid("two-port relations do not compose")

    ecirc = LayerPresentation("ECirc", ("n",),
                              tuple(gen(lb) for lb in labels),
                              tuple(ecirc_eqs))
    imp = LayerPresentation("Imp", ("n",),
                            tuple(gen(f"z_{lb}") for lb in labels),
                            tuple(imp_eqs))
    gaa = LayerPresentation(
        "GAA", ("port",),
        tuple(MorphismGen(f"rel_{lb}", ("port", "port"), ("port", "port"))
              for lb in labels),
        tuple(gaa_eqs))

    def internal(layer, name, width=1):
        w = ("n",) if layer in ("ECirc", "Imp") else ("port", "port")
        return InternalDiagram(layer, w, w, ((0, name),))

    incl = TranslationFunctor(
        "Bip", "ECirc", (("n", ("n",)),),
        tuple((lb, internal("ECirc", lb)) for lb in labels))
    boxing = TranslationFunctor(
        "Bip", "Imp", (("n", ("n",)),),
        tuple((lb, internal("Imp", f"z_{lb}")) for lb in labels))
    wrapping = TranslationFunctor(
        "Imp", "GAA", (("n", ("port", "port")),),
        tuple((f"z_{lb}", internal("GAA", f"rel_{lb}")) for lb in labels))
    interp = TranslationFunctor(
        "ECirc", "GAA", (("n", ("port", "port")),),
        tuple((lb, internal("GAA", f"rel_{lb}")) for lb in labels))
    # the square commutes, so one composite serves both paths
    diag = TranslationFunctor(
        "Bip", "GAA", (("n", ("port", "port")),),
        tuple((lb, internal("GAA", f"rel_{lb}")) for lb in labels))

    sys_ = SystemOfLayers(
        [bip, ecirc, imp, gaa],
        [incl, boxing, wrapping, interp, diag],
        order=[("ECirc", "Bip"), ("Imp", "Bip"), ("GAA", "ECirc"),
               ("GAA", "Imp"), ("GAA", "Bip")])
    report = validate_system(sys_)
    if not report.ok:
        raise FixtureInvalid("; ".join(report.violations))
    return CircuitSystem(sys_, tuple(bipoles), imps, rels)


def _series_fixture(bipoles) -> tuple[str, str, str] | None:
    """Labels (a, b, c) of resistors with value(a) + value(b) = value(c)."""
    resistors = [(b.label, b.param) for b in bipoles
                 if b.kind == "resistor"]
    for la, va in resistors:
        for lb, vb in resistors:
            for lc, vc in resistors:
                if va + vb == vc:
                    return (la, lb, lc)
    return None


def check_series_explanation(cs: CircuitSystem, budget: int = 3000
                             ) -> ExplanationVerdict:
    """The series-resistor law in the circuit layer, explained by a
    rewrite that windows into the relation layer."""
    from . import explain
    from . import rewrite as rw
    series = _series_fixture(cs.bipoles)
    if series is None:
        raise FixtureInvalid("no additive resistor triple available")
    a, b, c = series
    sys_ = cs.system
    lhs = dg.box(sys_, InternalDiagram("ECirc", ("n",), ("n",),
                                       ((0, a), (0, b))))
    rhs = dg.box(sys_, InternalDiagram("ECirc", ("n",), ("n",), ((0, c),)))

    def no_top_equation(rule: rw.RewriteRule) -> bool:
        return not (rule.family == "E" and rule.params[0] == "ECirc")

    eta = rw.find_derivation(lhs, rhs, budget,
                             rw.RuleEngine(sys_, [("ECirc", "GAA")]),
                             rule_filter=no_top_equation)
    if isinstance(eta, rw.NotFound):
        return explain.ExplanationVerdict(
            "unknown", None,
            [f"no windowed derivation within budget {budget}"])
    return explain.check_explanation_2(eta, "ECirc", "series_resistors")
