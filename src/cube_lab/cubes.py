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
:class:`Cube` dataclass wraps them for exact rationals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .quadforms import BQF, SL2, _frac, frac_to_str

# entry order used throughout: (a, b1, b2, b3, c, d1, d2, d3)
ENTRY_NAMES = ("a", "b1", "b2", "b3", "c", "d1", "d2", "d3")

# position of each entry in the 2x2x2 array T[i][j][k]
_SLOT = {
    (0, 0, 0): 0,  # a
    (1, 0, 0): 1,  # b1
    (0, 1, 0): 2,  # b2
    (0, 0, 1): 3,  # b3
    (1, 1, 1): 4,  # c
    (0, 1, 1): 5,  # d1
    (1, 0, 1): 6,  # d2
    (1, 1, 0): 7,  # d3
}


def tensor_from_entries(entries):
    t = [[[None, None], [None, None]], [[None, None], [None, None]]]
    for (i, j, k), slot in _SLOT.items():
        t[i][j][k] = entries[slot]
    return t


def entries_from_tensor(t):
    out = [None] * 8
    for (i, j, k), slot in _SLOT.items():
        out[slot] = t[i][j][k]
    return out


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


def contract_axis(axis, g, t):
    """Apply the 2x2 matrix g to tensor index `axis` of the 2x2x2 array t,
    over any commutative ring: on that index e1 -> g[0][0] e1 + g[0][1] e2
    and e2 -> g[1][0] e1 + g[1][1] e2 (the row convention)."""
    new = [[[None, None], [None, None]], [[None, None], [None, None]]]
    for pos in _SLOT:
        lo, hi = list(pos), list(pos)
        lo[axis], hi[axis] = 0, 1
        col = pos[axis]
        new[pos[0]][pos[1]][pos[2]] = (g[0][col] * t[lo[0]][lo[1]][lo[2]]
                                       + g[1][col] * t[hi[0]][hi[1]][hi[2]])
    return new


def act_entries(gs, entries):
    """Action of a triple of 2x2 matrices, factor i on tensor index i.

    Factor i is contracted into index i by :func:`contract_axis` (row
    convention; the pinned conventions are documented in
    cube_lab.conventions).  Matrices are plain nested pairs
    ((p, q), (r, s)) over any commutative ring.
    """
    t = tensor_from_entries(entries)
    for axis, g in enumerate(gs):
        t = contract_axis(axis, g, t)
    return entries_from_tensor(t)


def lie_act_entries(axis, xi, entries):
    """Derivative of the action in one factor: contract index `axis` with xi."""
    return entries_from_tensor(contract_axis(axis, xi, tensor_from_entries(entries)))


def symplectic_pairing_entries(e1, e2):
    """omega1 (x) omega2 (x) omega3 applied to two cubes."""
    t1 = tensor_from_entries(e1)
    t2 = tensor_from_entries(e2)
    total = e1[0] - e1[0]
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                # pairing with the complementary index (1-i, 1-j, 1-k)
                sign = 1
                for idx in (i, j, k):
                    sign = sign if idx == 0 else -sign
                total = total + sign * t1[i][j][k] * t2[1 - i][1 - j][1 - k]
    return total


def rank_one_entries(u, v, w):
    """Entries of the rank-one cube u (x) v (x) w (components over e1, e2)."""
    t = [[[u[i] * v[j] * w[k] for k in (0, 1)] for j in (0, 1)] for i in (0, 1)]
    return entries_from_tensor(t)


# -- the exact-rational cube type --------------------------------------------


@dataclass(frozen=True)
class Cube:
    a: Fraction
    b1: Fraction
    b2: Fraction
    b3: Fraction
    c: Fraction
    d1: Fraction
    d2: Fraction
    d3: Fraction

    def __post_init__(self):
        for name in ENTRY_NAMES:
            object.__setattr__(self, name, _frac(getattr(self, name)))

    def entries(self) -> tuple[Fraction, ...]:
        return tuple(getattr(self, name) for name in ENTRY_NAMES)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.entries())

    def slices(self):
        return slices_entries(self.entries())

    def forms(self) -> tuple[BQF, BQF, BQF]:
        return tuple(BQF(*t) for t in forms_entries(self.entries()))

    def hyperdet(self) -> Fraction:
        return hyperdet_entries(self.entries())

    def hyperdet_gram(self) -> Fraction:
        return gram_det_entries(self.entries())

    def trace_invariant(self) -> Fraction:
        return trace_entries(self.entries())

    def transformed(self, triple) -> "Cube":
        gs = tuple(g.rows() if isinstance(g, SL2) else g for g in triple)
        return Cube(*act_entries(gs, self.entries()))

    def to_dict(self) -> dict:
        return {
            "a": frac_to_str(self.a),
            "b": [frac_to_str(self.b1), frac_to_str(self.b2), frac_to_str(self.b3)],
            "c": frac_to_str(self.c),
            "d": [frac_to_str(self.d1), frac_to_str(self.d2), frac_to_str(self.d3)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Cube":
        try:
            data = json.loads(text)
            b = data["b"]
            d = data["d"]
            if len(b) != 3 or len(d) != 3:
                raise ValueError("b and d must have three entries")
            return Cube(data["a"], b[0], b[1], b[2], data["c"], d[0], d[1], d[2])
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"malformed cube JSON: {exc}") from exc

    def __str__(self) -> str:
        e = self.entries()
        return "(%s, (%s, %s, %s), %s, (%s, %s, %s))" % tuple(
            frac_to_str(x) for x in (e[0], e[1], e[2], e[3], e[4], e[5], e[6], e[7])
        )


def act(triple, cube: Cube) -> Cube:
    return cube.transformed(triple)


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
