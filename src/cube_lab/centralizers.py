"""The regular-centralizer group J, its torsion, the conjugated-torus
stabilizer matrices of the slice cube, and finite-field stabilizer oracles.

J is the commutative group scheme over the affine line whose fiber at y is
{(x, b) : x^2 - y b^2 = 1}, an element acting as the 2x2 matrix
(x, b; b y, x).  Fibers over a nonzero square are split tori, fibers over a
nonsquare are the norm-one tori of the quadratic extension, and the fiber at
0 degenerates to {(+-1, b)}.

The F_p oracles take their candidates from fibers of J, listed in O(p) from
a per-prime square-root table: a form of discriminant D != 0 mod an odd p
is fixed exactly by the fiber at D/4 (`form_stabilizer_fp`), each cube
factor by its form's, and a cubic only by elements fixing its resolvent.
SL2(F_p) is filtered only when D = 0 mod p or p = 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

from .cubes import Cube, contract_axis, embed_cubic_entries, forms_entries
from .errors import InputError
from .quadforms import SL2, _frac, form_sub
from .ring import LaurentRing, Poly


@dataclass(frozen=True)
class JElement:
    """Point (x, b) of the fiber of J at y; optionally over F_p."""

    y: Fraction | int
    x: Fraction | int
    b: Fraction | int
    p: Optional[int] = None

    def __post_init__(self):
        if self.p is None:
            object.__setattr__(self, "y", _frac(self.y))
            object.__setattr__(self, "x", _frac(self.x))
            object.__setattr__(self, "b", _frac(self.b))
            det = self.x * self.x - self.y * self.b * self.b
            if det != 1:
                raise InputError(f"x^2 - y b^2 = {det} != 1")
        else:
            p = self.p
            object.__setattr__(self, "y", self.y % p)
            object.__setattr__(self, "x", self.x % p)
            object.__setattr__(self, "b", self.b % p)
            if (self.x * self.x - self.y * self.b * self.b) % p != 1:
                raise InputError("x^2 - y b^2 != 1 mod p")

    def matrix(self):
        return ((self.x, self.b), (self.b * self.y, self.x))

    def is_identity(self) -> bool:
        return self.x == 1 and self.b == 0


def j_identity(y, p: Optional[int] = None) -> JElement:
    return JElement(y, 1, 0, p)


def j_mul(u: JElement, v: JElement) -> JElement:
    if u.y != v.y or u.p != v.p:
        raise InputError("J elements over different base points")
    x = u.x * v.x + u.y * u.b * v.b
    b = u.x * v.b + v.x * u.b
    return JElement(u.y, x, b, u.p)


def j_inv(u: JElement) -> JElement:
    return JElement(u.y, u.x, -u.b, u.p)


def j_pow(u: JElement, n: int) -> JElement:
    if n < 0:
        return j_pow(j_inv(u), -n)
    out = j_identity(u.y, u.p)
    base = u
    while n:
        if n & 1:
            out = j_mul(out, base)
        base = j_mul(base, base)
        n >>= 1
    return out


def j_torsion_order(u: JElement, nmax: int) -> Optional[int]:
    """Least n <= nmax with u^n = identity, else None."""
    cur = u
    for n in range(1, nmax + 1):
        if cur.is_identity():
            return n
        cur = j_mul(cur, u)
    return None


@cache
def _square_roots_fp(p: int) -> tuple[tuple[int, ...], ...]:
    """roots[r] lists the x in F_p with x^2 = r, built once per prime."""
    roots = [[] for _ in range(p)]
    for x in range(p):
        roots[x * x % p].append(x)
    return tuple(map(tuple, roots))


def j_fiber_elements(p: int, y: int) -> list[JElement]:
    """All F_p-points of the fiber of J at y: for each b, the square roots x
    of 1 + y b^2."""
    roots = _square_roots_fp(p)
    return [JElement(y, x, b, p) for b in range(p) for x in roots[(1 + y * b * b) % p]]


def is_split_fiber(p: int, y: int) -> bool:
    """True iff y is a nonzero square mod p (fiber a split torus)."""
    y %= p
    return y != 0 and pow(y, (p - 1) // 2, p) == 1


# -- stabilizer matrices of the slice cube ------------------------------------

def centralizer_entries(a, alpha):
    """Entries of the determinant-1 matrix h(alpha) =
    1/2 * (alpha + 1/alpha, (1/alpha - alpha)/a; a (1/alpha - alpha), alpha + 1/alpha)
    over any ring where a and alpha are invertible: nonzero Fractions or
    Laurent monomials.  Triples with alpha1 alpha2 alpha3 = 1 fix
    kostant_cube(a^2)."""
    diag = (alpha + alpha ** -1) / 2
    off = (alpha ** -1 - alpha) * a ** -1 / 2
    return ((diag, off), (a * a * off, diag))


def centralizer_matrix(a, alpha) -> SL2:
    """h(alpha) over the rationals (`centralizer_entries`) as an SL2."""
    a, alpha = _frac(a), _frac(alpha)
    if a == 0:
        raise InputError("base parameter a must be invertible")
    if alpha == 0:
        raise InputError("alpha must be invertible")
    (p, q), (r, s) = centralizer_entries(a, alpha)
    return SL2(p, q, r, s)


def diagonalizing_triple_entries(ring: LaurentRing, a: Poly):
    """The matrix (-1, 1/a; a, 1), used in all three factors.  Its
    determinant is -2, not 1: the triple is a GL2 triple (see conventions)."""
    return ((ring.const(-1), a.monomial_inverse()), (a, ring.one))


# -- finite-field brute force --------------------------------------------------

@cache
def sl2_fp(p: int) -> tuple[tuple[int, int, int, int], ...]:
    """All of SL2(F_p) as entry tuples (a, b, c, d), built once per prime."""
    out = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                if a:
                    d = (1 + b * c) * pow(a, -1, p) % p
                    out.append((a, b, c, d))
                elif b:
                    # a = 0: need -bc = 1
                    if (-b * c) % p == 1:
                        out.extend((0, b, c, d) for d in range(p))
    return tuple(out)


def binary_form_sub_fp(coeffs, g, p):
    """Coefficients of f((x, y).g) mod p, where f = sum f_k x^(n-k) y^k is
    the plain binary form of degree n = len(coeffs) - 1 and g = (g11, g12,
    g21, g22) is ((g11, g12), (g21, g22)): (x, y).g = (g11 x + g21 y,
    g12 x + g22 y)."""
    g11, g12, g21, g22 = g
    n = len(coeffs) - 1
    out = [0] * (n + 1)
    for k, coeff in enumerate(coeffs):
        if coeff == 0:
            continue
        # coeff * (g11 x + g21 y)^(n-k) * (g12 x + g22 y)^k, by y-degree
        term = [coeff]
        for u, v in [(g11, g21)] * (n - k) + [(g12, g22)] * k:
            nxt = [0] * (len(term) + 1)
            for i, t in enumerate(term):
                nxt[i] += t * u
                nxt[i + 1] += t * v
            term = nxt
        for i, t in enumerate(term):
            out[i] += t
    return tuple(x % p for x in out)


def form_stabilizer_fp(q, p: int) -> tuple[tuple[int, int, int, int], ...]:
    """The g = (g11, g12, g21, g22) of SL2(F_p) fixing the form q = (a, b, c)
    as a cube factor acts on its form: form_sub(q, g^T) = q (conventions
    item 3).

    For odd p and D = b^2 - 4ac nonzero mod p these are the x I + t M with
    M = (b/2, c; -a, -b/2), so M^2 = (D/4) I, and x^2 - (D/4) t^2 = 1: the
    fiber of J at D/4, p - (D/p) elements listed in O(p).  Otherwise
    SL2(F_p) is filtered.
    """
    a, b, c = q = tuple(v % p for v in q)
    disc = (b * b - 4 * a * c) % p
    if p == 2 or disc == 0:
        return tuple(
            g for g in sl2_fp(p)
            if tuple(v % p for v in form_sub(q, ((g[0], g[2]), (g[1], g[3])))) == q
        )
    half = (p + 1) // 2
    y = disc * half * half % p
    hb = b * half
    roots = _square_roots_fp(p)
    return tuple(
        ((x + t * hb) % p, t * c % p, -t * a % p, (x - t * hb) % p)
        for t in range(p) for x in roots[(1 + y * t * t) % p]
    )


def stabilizer_bruteforce_fp(p: int, cube) -> int:
    """Count the SL2(F_p)^3 triples fixing a cube.

    A triple fixing the cube fixes each attached form, so factor i only
    ranges over the stabilizer S_i of form i (`form_stabilizer_fp`).  The
    factors act on separate tensor indices, so (g1, g2, g3) fixes C exactly
    when (g1, g2, 1).C = (1, 1, g3^-1).C; as S_3 is a group, g3^-1 runs over
    S_3 with g3, and the count matches the images of the two halves, each
    contracting only the tensor indices it moves.  Any axis can stand alone
    in this way; the one with the largest stabilizer does (axis 3 on ties),
    so the double loop runs over the two smaller ones.  Accepts a Cube with
    integer entries or a plain sequence of eight integers.
    """
    if p > 13:
        raise InputError("p capped at 13 for the brute-force oracle")
    if isinstance(cube, Cube):
        if not cube.is_integral():
            raise InputError("cube must have integer entries to reduce mod p")
        cube = cube.numerators
    entries = tuple(x % p for x in cube)
    stabs = [
        [((a, b), (c, d)) for a, b, c, d in form_stabilizer_fp(q, p)]
        for q in forms_entries(entries)
    ]
    alone = max((2, 1, 0), key=lambda axis: len(stabs[axis]))
    i, j = (axis for axis in range(3) if axis != alone)

    def moved(axis, g, xs):
        return tuple(x % p for x in contract_axis(axis, g, xs))

    counted = Counter(moved(alone, g, entries) for g in stabs[alone])
    firsts = [moved(i, g, entries) for g in stabs[i]]
    return sum(counted[moved(j, g, e)] for e in firsts for g in stabs[j])


def cubic_stab_bruteforce_fp(p: int, cubic_coeffs) -> int:
    """Count of g in SL2(F_p) fixing the binary cubic (binomial coefficients
    (a, b, c, d) meaning a x^3 + 3b x^2 y + 3c x y^2 + d y^3).

    The resolvent is a covariant, so such a g also fixes the resolvent
    under the same substitution, f -> f((x, y).g); only the transposes of
    the resolvent's `form_stabilizer_fp` are tested.  The resolvent is any
    of the three forms of the cubic's triply symmetric cube."""
    if p > 13:
        raise InputError("p capped at 13 for the brute-force oracle")
    if p == 3:
        raise InputError("binomial cubics need 3 invertible")
    a, b, c, d = (x % p for x in cubic_coeffs)
    plain = (a, 3 * b % p, 3 * c % p, d)
    resolvent = forms_entries(embed_cubic_entries(a, b, c, d))[0]
    candidates = form_stabilizer_fp(resolvent, p)
    return sum(1 for g11, g12, g21, g22 in candidates
               if binary_form_sub_fp(plain, (g11, g21, g12, g22), p) == plain)
