"""2x2x2 cubes: slicings, the three attached quadratic forms, the
hyperdeterminant in two formulations, the trace invariant, the group action,
the Kostant slice, and the symmetric embeddings of cubics and form pairs.

The tensor dictionary is fixed once and for all: the cube
(a, b1, b2, b3, c, d1, d2, d3) is the element

    a e1(x)e1(x)e1 + b1 e2(x)e1(x)e1 + b2 e1(x)e2(x)e1 + b3 e1(x)e1(x)e2
  + d1 e1(x)e2(x)e2 + d2 e2(x)e1(x)e2 + d3 e2(x)e2(x)e1 + c e2(x)e2(x)e2.

The low-level functions in this module are written against any commutative
ring elements (Fraction, Laurent polynomials, integers mod p), so the same
formulas serve both numeric work and the symbolic identity checks.  The
:class:`Cube` type wraps them for exact rationals, on int numerators over
one common denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError
from .quadforms import BQF, SL2, _frac, frac_to_str

# entry order used throughout: (a, b1, b2, b3, c, d1, d2, d3)
ENTRY_NAMES = ("a", "b1", "b2", "b3", "c", "d1", "d2", "d3")

# tensor index (i, j, k) of each entry, in entry order
POSITIONS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),  # a, b1, b2, b3
             (1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0))  # c, d1, d2, d3

# per axis and per entry: the entry's own index on that axis, then the slots
# of the two entries that agree with it off that axis (index 0, then 1)
_PAIRS = tuple(
    tuple((pos[axis],) + tuple(POSITIONS.index(pos[:axis] + (v,) + pos[axis + 1:])
                               for v in (0, 1)) for pos in POSITIONS)
    for axis in range(3)
)


def slices_entries(entries):
    """The three slice pairs ((M1,N1),(M2,N2),(M3,N3)), each matrix 2x2."""
    a, b1, b2, b3, c, d1, d2, d3 = entries
    m1 = ((a, b2), (b3, d1))
    n1 = ((b1, d3), (d2, c))
    m2 = ((a, b1), (b3, d2))
    n2 = ((b2, d3), (d1, c))
    m3 = ((a, b1), (b2, d3))
    n3 = ((b3, d2), (d1, c))
    return ((m1, n1), (m2, n2), (m3, n3))


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def forms_entries(entries):
    """Coefficient triples (A_i, B_i, C_i) of the three quadratic forms.

    These are the explicit expansions det(M_i)x^2 + B_i xy + det(N_i)y^2;
    they equal +det(M_i x + N_i y) expanded (see the conventions note).
    """
    a, b1, b2, b3, c, d1, d2, d3 = entries
    (m1, n1), (m2, n2), (m3, n3) = slices_entries(entries)
    ac = a * c
    t1, t2, t3 = b1 * d1, b2 * d2, b3 * d3
    return (
        (det2(m1), ac + t1 - t2 - t3, det2(n1)),
        (det2(m2), ac - t1 + t2 - t3, det2(n2)),
        (det2(m3), ac - t1 - t2 + t3, det2(n3)),
    )


def hyperdet_entries(entries):
    """The degree-4 invariant whose value is the common discriminant of the
    three quadratic forms."""
    a, b1, b2, b3, c, d1, d2, d3 = entries
    squares = (a * a * c * c + b1 * b1 * d1 * d1 + b2 * b2 * d2 * d2
               + b3 * b3 * d3 * d3)
    cross = (a * b1 * c * d1 + a * b2 * c * d2 + a * b3 * c * d3
             + b1 * b2 * d1 * d2 + b1 * b3 * d1 * d3 + b2 * b3 * d2 * d3)
    return squares - 2 * cross + 4 * (a * d1 * d2 * d3 + b1 * b2 * b3 * c)


def gram_det_entries(entries):
    """det of the 2x2 Gram matrix of the two layers of the cube under the
    symmetric pairing induced by the standard symplectic form on each factor:
    <e1(x)e1, e2(x)e2> = 1, <e1(x)e2, e2(x)e1> = -1, all else 0."""
    a, b1, b2, b3, c, d1, d2, d3 = entries
    g11 = 2 * (a * d1 - b2 * b3)
    g22 = 2 * (b1 * c - d2 * d3)
    g12 = a * c + b1 * d1 - b2 * d2 - b3 * d3
    return g11 * g22 - g12 * g12


def trace_entries(entries):
    a, b1, b2, b3, c, d1, d2, d3 = entries
    return a * c + b1 * d1 + b2 * d2 + b3 * d3


def contract_axis(axis, g, entries):
    """Apply the 2x2 matrix g to tensor index `axis` of the cube's entries,
    over any commutative ring: on that index e1 -> g[0][0] e1 + g[0][1] e2
    and e2 -> g[1][0] e1 + g[1][1] e2 (the row convention).  With a
    traceless g this is the Lie algebra action in that factor."""
    g0, g1 = g
    return [g0[col] * entries[lo] + g1[col] * entries[hi] for col, lo, hi in _PAIRS[axis]]


def act_entries(gs, entries):
    """Action of a triple of 2x2 matrices, factor i on tensor index i.

    Factor i is contracted into index i by :func:`contract_axis` (row
    convention; the pinned conventions are documented in
    cube_lab.conventions).  Matrices are plain nested pairs
    ((p, q), (r, s)) over any commutative ring.
    """
    for axis, g in enumerate(gs):
        entries = contract_axis(axis, g, entries)
    return entries


def symplectic_pairing_entries(e1, e2):
    """omega1 (x) omega2 (x) omega3 applied to two cubes: each entry pairs
    with its complement, with sign -1 to the number of e2 factors."""
    a, b1, b2, b3, c, d1, d2, d3 = e1
    A, B1, B2, B3, C, D1, D2, D3 = e2
    return (a * C - c * A + d1 * B1 - b1 * D1 + d2 * B2 - b2 * D2
            + d3 * B3 - b3 * D3)


def rank_one_entries(u, v, w):
    """Entries of the rank-one cube u (x) v (x) w (components over e1, e2)."""
    return [u[i] * v[j] * w[k] for i, j, k in POSITIONS]


# -- the exact-rational cube type --------------------------------------------


def _common(values):
    """Int numerators over the least common denominator of Fractions in
    lowest terms; such a pair is in lowest terms too."""
    den = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


def _over(n: int, d: int) -> Fraction:
    return Fraction(n) if d == 1 else Fraction(n, d)


@dataclass(frozen=True, init=False)
class Cube:
    """A cube over Q: eight int numerators over one common positive
    denominator L, in lowest terms (gcd(L, numerators) = 1, so L = 1 for an
    integral cube and for the zero cube).  Equality and hashing are exact
    on the pair.

    A degree-k invariant is its ring-generic formula on the numerators over
    L**k, turned into a Fraction only here.  The entries `a` ... `d3`,
    `entries()` and `slices()` are Fractions.
    """

    __slots__ = ("numerators", "denominator")
    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, a, b1, b2, b3, c, d1, d2, d3):
        values = (a, b1, b2, b3, c, d1, d2, d3)
        if all(type(x) is int for x in values):
            nums, den = values, 1
        else:
            nums, den = _common([_frac(x) for x in values])
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def _lowest(cls, numerators, denominator: int) -> "Cube":
        """The cube numerators / denominator (a positive int), in lowest terms."""
        g = gcd(denominator, *numerators)
        cube = object.__new__(cls)
        object.__setattr__(cube, "numerators", tuple(n // g for n in numerators))
        object.__setattr__(cube, "denominator", denominator // g)
        return cube

    def _entry(i):
        return property(lambda self: _over(self.numerators[i], self.denominator))

    a, b1, b2, b3, c, d1, d2, d3 = map(_entry, range(8))
    del _entry

    def entries(self) -> tuple[Fraction, ...]:
        d = self.denominator
        return tuple(_over(n, d) for n in self.numerators)

    def is_integral(self) -> bool:
        return self.denominator == 1

    def slices(self):
        return slices_entries(self.entries())

    def forms(self) -> tuple[BQF, BQF, BQF]:
        d = self.denominator ** 2
        return tuple(BQF(_over(p, d), _over(q, d), _over(r, d))
                     for p, q, r in forms_entries(self.numerators))

    def hyperdet(self) -> Fraction:
        return _over(hyperdet_entries(self.numerators), self.denominator ** 4)

    def hyperdet_gram(self) -> Fraction:
        return _over(gram_det_entries(self.numerators), self.denominator ** 4)

    def trace_invariant(self) -> Fraction:
        return _over(trace_entries(self.numerators), self.denominator ** 2)

    def transformed(self, triple) -> "Cube":
        """The cube moved by a triple of SL2 elements or raw 2x2 rational
        matrices: each matrix acts as an int matrix over its own common
        denominator, which multiplies into the cube's."""
        gs, den = [], self.denominator
        for g in triple:
            (p, q), (r, s) = g.rows() if isinstance(g, SL2) else g
            (p, q, r, s), m = _common([_frac(p), _frac(q), _frac(r), _frac(s)])
            gs.append(((p, q), (r, s)))
            den *= m
        return Cube._lowest(act_entries(gs, self.numerators), den)

    def to_dict(self) -> dict:
        e = [frac_to_str(x) for x in self.entries()]
        return {"a": e[0], "b": e[1:4], "c": e[4], "d": e[5:8]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Cube":
        try:
            data = json.loads(text)
            b = data["b"]
            d = data["d"]
            if not (isinstance(b, list) and isinstance(d, list) and len(b) == len(d) == 3):
                raise ValueError("b and d must be lists of three entries")
            return Cube(data["a"], b[0], b[1], b[2], data["c"], d[0], d[1], d[2])
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            raise InputError(f"malformed cube JSON: {exc}") from exc

    def __str__(self) -> str:
        return "(%s, (%s, %s, %s), %s, (%s, %s, %s))" % tuple(
            frac_to_str(x) for x in self.entries())


def kostant_entries(s, zero, one):
    """Entries (s, (0,0,0), 0, (1,1,1)) of the slice, over any ring with the
    given zero and one; its hyperdet is 4s."""
    return (s, zero, zero, zero, zero, one, one, one)


def kostant_cube(s) -> Cube:
    """The slice value (s, (0,0,0), 0, (1,1,1)); its hyperdet is 4s."""
    return Cube(*kostant_entries(s, 0, 1))


GHZ = Cube(1, 0, 0, 0, 1, 0, 0, 0)
W = kostant_cube(0)


def rank_one_cube(u, v, w) -> Cube:
    u = tuple(_frac(x) for x in u)
    v = tuple(_frac(x) for x in v)
    w = tuple(_frac(x) for x in w)
    return Cube(*rank_one_entries(u, v, w))


def embed_cubic_entries(a, b, c, d):
    """Triply-symmetric cube of the binary cubic a x^3 + 3b x^2 y + 3c x y^2 + d y^3."""
    return (a, b, b, b, d, c, c, c)


def embed_pair_entries(a, b, c, d, e, f):
    """Doubly-symmetric cube of (a x^2 + 2b xy + c y^2, d x^2 + 2e xy + f y^2)."""
    return (a, b, d, b, f, e, c, e)
