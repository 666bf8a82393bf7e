"""Gauss composition via cubes.

A pair of primitive forms of the same negative discriminant is sent to an
integral cube realizing them as its first two slicing forms; the third
slicing form then represents the inverse of their composition class.  The
construction goes through oriented ideals of the quadratic order of the
discriminant: map the forms to ideals I1, I2, put I3 = (I1 I2)^-1, pick
bases, and read the cube off the coefficients of the eight triple products.

The classical Dirichlet composition in :mod:`cube_lab.quadforms` plays the
role of the independent oracle; `verify_triple_law` connects the two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .conventions import THIRD_FORM_IS_INVERSE
from .cubes import Cube, entries_from_tensor
from .errors import InputError, InternalError, UnsupportedInputError
from .quadforms import (
    BQF,
    ClassGroupTable,
    _require_discriminant,
    _require_reducible,
    class_group,
)

Element = tuple[int, int]  # u + v*tau


@dataclass(frozen=True)
class QuadraticOrder:
    """The order Z[tau] of discriminant D, tau^2 = D tau - (D^2 - D)/4."""

    D: int

    def __post_init__(self):
        _require_discriminant(self.D)

    @property
    def tau_norm(self) -> int:
        return (self.D * self.D - self.D) // 4

    def mul(self, e1: Element, e2: Element) -> Element:
        u1, v1 = e1
        u2, v2 = e2
        return (u1 * u2 - v1 * v2 * self.tau_norm,
                u1 * v2 + u2 * v1 + v1 * v2 * self.D)

    def conj(self, e: Element) -> Element:
        u, v = e
        return (u + v * self.D, -v)

    def norm(self, e: Element) -> int:
        u, v = e
        return u * u + u * v * self.D + v * v * self.tau_norm

    def trace(self, e: Element) -> int:
        u, v = e
        return 2 * u + v * self.D


def _hnf_rows(rows) -> tuple[Element, Element]:
    """Two-row Hermite basis of the lattice spanned by `rows` (full rank)."""
    work = [list(r) for r in rows if tuple(r) != (0, 0)]
    while True:
        nz = [r for r in work if r[1] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[1]))
        pivot = nz[0]
        for r in nz[1:]:
            q = r[1] // pivot[1]
            r[0] -= q * pivot[0]
            r[1] -= q * pivot[1]
        work = [r for r in work if r != [0, 0]]
    firsts = [r[0] for r in work if r[1] == 0]
    seconds = [r for r in work if r[1] != 0]
    g = 0
    for f in firsts:
        g = gcd(g, f)
    if not seconds or g == 0:
        raise InternalError("lattice is not full rank")
    m, v = seconds[0]
    if v < 0:
        m, v = -m, -v
    m %= g
    return ((g, 0), (m, v))


@dataclass(frozen=True)
class OrientedIdeal:
    """Fractional ideal lattice/den with a positively oriented basis."""

    order: QuadraticOrder
    basis: tuple[Element, Element]
    den: int = 1

    def __post_init__(self):
        w1, w2 = self.basis
        if w1[0] * w2[1] - w1[1] * w2[0] <= 0:
            raise InputError("ideal basis must be positively oriented")
        if self.den <= 0:
            raise InputError("denominator must be positive")

    def lattice_det(self) -> int:
        w1, w2 = self.basis
        return w1[0] * w2[1] - w1[1] * w2[0]

    def norm(self) -> Fraction:
        return Fraction(self.lattice_det(), self.den * self.den)

    def multiply(self, other: "OrientedIdeal") -> "OrientedIdeal":
        if self.order != other.order:
            raise InputError("ideals of different orders")
        prods = [self.order.mul(r1, r2) for r1 in self.basis for r2 in other.basis]
        return OrientedIdeal(self.order, _hnf_rows(prods), self.den * other.den)

    def conjugate(self) -> "OrientedIdeal":
        return OrientedIdeal(
            self.order, _hnf_rows([self.order.conj(r) for r in self.basis]), self.den
        )

    def inverse(self) -> "OrientedIdeal":
        """Inverse of an invertible integral ideal: conj(I) / N(I)."""
        if self.den != 1:
            raise InputError("inverse implemented for integral ideals")
        return OrientedIdeal(self.order, self.conjugate().basis, self.lattice_det())


def form_to_ideal(q: BQF) -> OrientedIdeal:
    """The ideal with basis (a, (b + sqrt(D))/2); its norm form is q again."""
    _require_reducible(q)
    D = int(q.discriminant())
    a, b = int(q.a), int(q.b)
    return OrientedIdeal(QuadraticOrder(D), ((a, 0), ((b - D) // 2, 1)))


def ideal_to_form(ideal: OrientedIdeal) -> BQF:
    """Norm form of the oriented basis divided by the ideal norm.

    The denominator of a fractional ideal cancels: N(x w1/d + y w2/d) over
    N(I) equals N(x w1 + y w2) over the lattice determinant.
    """
    order = ideal.order
    w1, w2 = ideal.basis
    n = ideal.lattice_det()
    a = Fraction(order.norm(w1), n)
    c = Fraction(order.norm(w2), n)
    b = Fraction(order.trace(order.mul(w1, order.conj(w2))), n)
    return BQF(a, b, c)


def cube_from_forms(q1: BQF, q2: BQF) -> Cube:
    """Integral cube whose first two forms are equivalent to q1 and q2.

    The third form is negative definite and represents the inverse of the
    composition class (see cube_lab.conventions item 8); the cube's
    hyperdeterminant equals the common discriminant exactly.
    """
    _require_reducible(q1)
    _require_reducible(q2)
    if q1.discriminant() != q2.discriminant():
        raise InputError("discriminant mismatch")
    order = QuadraticOrder(int(q1.discriminant()))
    i1 = form_to_ideal(q1)
    i2 = form_to_ideal(q2)
    j = i1.multiply(i2)
    nj = j.lattice_det()
    if Fraction(nj) != i1.norm() * i2.norm():
        raise InternalError("product ideal norm is not multiplicative")
    # I3 = conj(J)/nj, balanced.  Conjugation reverses orientation, and the
    # class convention is pinned to this basis order: re-normalizing it to a
    # positively-oriented basis would invert the attached classes.
    i3_basis = tuple(order.conj(r) for r in j.basis)
    t = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                prod = order.mul(order.mul(i1.basis[a], i2.basis[b]), i3_basis[c])
                if prod[0] % nj or prod[1] % nj:
                    raise InternalError("triple product is not integral")
                t[a][b][c] = prod[1] // nj
    cube = Cube(*entries_from_tensor(t))
    if cube.hyperdet() != order.D:
        raise InternalError("cube discriminant mismatch")
    return cube


def third_form(cube: Cube) -> BQF:
    return cube.forms()[2]


def form_class_index(q: BQF, table: ClassGroupTable) -> int:
    """Class index of a definite primitive form; a negative-definite
    (p, m, r) is assigned the class of (-p, m, -r), i.e. the inverse of the
    class of its negation."""
    if q.is_negative_definite():
        q = BQF(-q.a, q.b, -q.c)
    return table.index(q)


def verify_triple_law(cube: Cube, table: ClassGroupTable | None = None) -> bool:
    """[q1][q2][q3] = identity for the three slicing forms of the cube."""
    D = cube.hyperdet()
    if not cube.is_integral() or D >= 0:
        raise UnsupportedInputError("need an integral cube of negative discriminant")
    forms = cube.forms()
    if any(not f.is_primitive() for f in forms):
        raise UnsupportedInputError("slicing forms are not all primitive")
    if table is None:
        table = class_group(int(D))
    elif table.D != D:
        raise InputError("class group table has the wrong discriminant")
    idx = [form_class_index(f, table) for f in forms]
    return table.compose(table.compose(idx[0], idx[1]), idx[2]) == table.identity


def compose_via_cube(q1: BQF, q2: BQF, table: ClassGroupTable | None = None) -> int:
    """Class index of the composition of q1 and q2, computed by the cube
    route: the third form's class is inverted per the frozen convention."""
    if table is None:
        table = class_group(int(q1.discriminant()))
    k = form_class_index(third_form(cube_from_forms(q1, q2)), table)
    return table.inverse(k) if THIRD_FORM_IS_INVERSE else k


def random_primitive_cube(rng: random.Random, bound: int = 4, max_tries: int = 10000) -> Cube:
    """Rejection-sample an integral cube with negative discriminant and all
    three slicing forms primitive."""
    for _ in range(max_tries):
        cube = Cube(*(rng.randint(-bound, bound) for _ in range(8)))
        if cube.hyperdet() >= 0:
            continue
        if all(f.is_primitive() for f in cube.forms()):
            return cube
    raise InternalError("rejection sampling failed to find a cube")
