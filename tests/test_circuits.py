"""Exact affine relations, impedance arithmetic, and the circuit fixture."""

import itertools
import random
from fractions import Fraction

import pytest

from layerprop import circuits as cx
from layerprop import rewrite as rw
from layerprop.circuits import (AffineRelation, Bipole, QField, RatFunc,
                                affine_compose, affine_eq, boxing_B,
                                bipole_semantics, imp_compose, impedance_of,
                                wrapping_W)
from layerprop.errors import ArityMismatch, SquareViolation

from circuit_oracles import PrimeField, identity_relation, is_empty, solutions


def scalar_impedance(value):
    # a resistor's impedance is the scalar law v = R i
    return impedance_of(Bipole("resistor", RatFunc.const(value)))


def test_ratfunc_arithmetic():
    s = RatFunc.s()
    two = RatFunc.const(2)
    assert s + s == RatFunc.make((0, 2))
    assert (s * s).num == (0, 0, 1)
    assert (two * two.inverse()) == RatFunc.const(1)
    third = RatFunc.const(Fraction(1, 3))
    assert third * RatFunc.const(3) == RatFunc.const(1)
    assert (s * s - s * s).is_zero()


def test_ratfunc_reduction_canonical():
    a = RatFunc.make((0, 2), (2,))     # 2s/2 = s
    assert a == RatFunc.s()
    b = RatFunc.make((0, 0, 1), (0, 1))  # s^2/s = s
    assert b == RatFunc.s()
    with pytest.raises(ZeroDivisionError):
        RatFunc.make((1,), ())


def test_compose_with_identity():
    f = QField
    r = AffineRelation.make(f, 1, 1, [(f.neg(RatFunc.const(2)), f.one,
                                       f.zero)])
    ident = identity_relation(f, 1)
    assert affine_eq(affine_compose(r, ident), r)
    assert affine_eq(affine_compose(ident, r), r)


def test_compose_scales_multiply():
    f = QField
    two = AffineRelation.make(f, 1, 1, [(f.neg(RatFunc.const(2)), f.one,
                                         f.zero)])
    three = AffineRelation.make(f, 1, 1, [(f.neg(RatFunc.const(3)), f.one,
                                           f.zero)])
    six = AffineRelation.make(f, 1, 1, [(f.neg(RatFunc.const(6)), f.one,
                                         f.zero)])
    assert affine_eq(affine_compose(two, three), six)


def test_compose_arity_mismatch():
    f = QField
    r = identity_relation(f, 1)
    s = identity_relation(f, 2)
    with pytest.raises(ArityMismatch):
        affine_compose(r, s)


def _random_relation(rng, field, n_in, n_out, max_rows=3):
    width = n_in + n_out + 1
    rows = []
    for _ in range(rng.randint(0, max_rows)):
        rows.append(tuple(rng.randrange(field.p) for _ in range(width)))
    return AffineRelation.make(field, n_in, n_out, rows)


def test_compose_matches_point_enumeration_oracle():
    rng = random.Random(17)
    gf5 = PrimeField(5)
    for trial in range(60):
        n, m, k = (rng.randint(0, 2) for _ in range(3))
        r = _random_relation(rng, gf5, n, m)
        s = _random_relation(rng, gf5, m, k)
        comp = affine_compose(r, s)
        pts_r = solutions(r, gf5)
        pts_s = solutions(s, gf5)
        want = set()
        for pr in pts_r:
            for ps in pts_s:
                if pr[n:] == ps[:m]:
                    want.add(pr[:n] + ps[m:])
        assert solutions(comp, gf5) == want


def test_rref_canonical_over_gf5():
    rng = random.Random(3)
    gf5 = PrimeField(5)
    for _ in range(40):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        r = _random_relation(rng, gf5, n, m)
        # random row operations must not change the canonical form
        rows = [list(x) for x in r.rows]
        for _ in range(4):
            if not rows:
                break
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            if i != j:
                factor = rng.randrange(5)
                rows[i] = [gf5.add(x, gf5.mul(factor, y))
                           for x, y in zip(rows[i], rows[j])]
            rng.shuffle(rows)
        again = AffineRelation.make(gf5, n, m, [tuple(x) for x in rows])
        if not is_empty(r):
            assert again.rows == r.rows


def test_bipole_semantics_shapes():
    r0 = bipole_semantics(Bipole("resistor", RatFunc.const(0)))
    ident = identity_relation(QField, 2)
    # zero resistor is the ideal wire i1=i2, v1=v2
    assert affine_eq(r0, ident)
    ind = bipole_semantics(Bipole("inductor", RatFunc.const(1)))
    assert len(ind.rows) == 2
    cur = bipole_semantics(Bipole("isource", RatFunc.const(1)))
    # current source: rank 2 (two constraints), voltages free
    assert len(cur.rows) == 2


def test_imp_compose_adds_scalars():
    z = imp_compose(scalar_impedance(2), scalar_impedance(3))
    assert affine_eq(z.relation, scalar_impedance(5).relation)
    rng = random.Random(9)
    for _ in range(20):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        z = imp_compose(scalar_impedance(a), scalar_impedance(b))
        assert affine_eq(z.relation, scalar_impedance(a + b).relation)


def test_imp_compose_identity_and_assoc():
    z = scalar_impedance(7)
    assert affine_eq(imp_compose(z, cx.identity_impedance()).relation,
                     z.relation)
    rng = random.Random(21)
    for _ in range(15):
        zs = [scalar_impedance(rng.randint(-4, 4)) for _ in range(3)]
        left = imp_compose(imp_compose(zs[0], zs[1]), zs[2])
        right = imp_compose(zs[0], imp_compose(zs[1], zs[2]))
        assert affine_eq(left.relation, right.relation)
        swap = imp_compose(zs[1], zs[0])
        assert affine_eq(imp_compose(zs[0], zs[1]).relation, swap.relation)


def test_boxing_then_wrapping_is_semantics():
    for b in cx.DEFAULT_BIPOLES:
        assert affine_eq(wrapping_W(cx.impedance_of(b)),
                         bipole_semantics(b))


def test_boxing_composes():
    two = Bipole("resistor", RatFunc.const(2))
    three = Bipole("resistor", RatFunc.const(3))
    z = boxing_B([two, three])
    assert affine_eq(z.relation, scalar_impedance(5).relation)


def test_wrapping_functorial_on_random_scalars():
    rng = random.Random(31)
    for _ in range(20):
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        za, zb = scalar_impedance(a), scalar_impedance(b)
        lhs = wrapping_W(imp_compose(za, zb))
        rhs = affine_compose(wrapping_W(za), wrapping_W(zb))
        assert affine_eq(lhs, rhs)


def test_wrapping_injective_on_scalars():
    seen = {}
    for v in range(-6, 7):
        rel = wrapping_W(scalar_impedance(v)).rows
        assert rel not in seen.values()
        seen[v] = rel


@pytest.fixture(scope="module")
def circuit_system():
    return cx.build_circuit_system()


def test_circuit_system_valid(circuit_system):
    from layerprop.theory import validate_system
    assert validate_system(circuit_system.system).ok


def test_square_violation_detected():
    # a wrapping that forgets the equal-currents constraint must be caught
    broken = cx.wrapping_W(scalar_impedance(2))
    rows = tuple(r for r in broken.rows
                 if not r[0] == QField.one)  # drop a constraint
    assert not affine_eq(
        AffineRelation.make(QField, 2, 2, rows),
        cx.bipole_semantics(Bipole("resistor", RatFunc.const(2))))


def test_series_explanation_fixture(circuit_system):
    verdict = cx.check_series_explanation(circuit_system, budget=3000)
    assert verdict.status == "valid"
    assert verdict.witness is not None
    assert rw.verify_derivation(verdict.witness)
    families = [s.rule.family for s in verdict.witness.steps]
    assert "E" in families  # the relation-layer equation does the work
    used_layers = {s.rule.params[0] for s in verdict.witness.steps
                   if s.rule.family == "E"}
    assert used_layers == {"GAA"}
