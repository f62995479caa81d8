"""Reference code for the circuit tests: a prime field small enough to
enumerate, the brute-force point set of an affine relation over it, the
identity relation and the emptiness test of a relation."""

from __future__ import annotations

import itertools

from layerprop.circuits import AffineRelation


class PrimeField:
    """Integers modulo a prime."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0


def solutions(rel: AffineRelation, field: PrimeField) -> set:
    """Brute-force point set over a finite field."""
    width = rel.n_in + rel.n_out
    out = set()
    for point in itertools.product(range(field.p), repeat=width):
        ok = True
        for row in rel.rows:
            acc = 0
            for i in range(width):
                acc = field.add(acc, field.mul(row[i], point[i]))
            if acc != row[width] % field.p:
                ok = False
                break
        if ok:
            out.add(point)
    return out


def identity_relation(field, n: int) -> AffineRelation:
    rows = []
    for i in range(n):
        row = [field.zero] * (2 * n + 1)
        row[i] = field.one
        row[n + i] = field.neg(field.one)
        rows.append(tuple(row))
    return AffineRelation.make(field, n, n, rows)


def is_empty(rel: AffineRelation) -> bool:
    """Whether the relation has a row 0 = c with c nonzero."""
    width = rel.n_in + rel.n_out
    return any(all(rel.field.is_zero(r[i]) for i in range(width))
               and not rel.field.is_zero(r[width]) for r in rel.rows)
