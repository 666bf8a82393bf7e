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

from .conventions import DIAG_IMAGE_LAST_SIGN, DIAG_TRIPLE_FACTOR_DET
from .cubes import Cube, act_entries, contract_axis, forms_entries, kostant_entries
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

def centralizer_matrix(a, alpha) -> SL2:
    """The determinant-1 matrix
    1/2 * (alpha + 1/alpha, (1/alpha - alpha)/a; a (1/alpha - alpha), alpha + 1/alpha);
    triples of these with alpha1 alpha2 alpha3 = 1 stabilize kostant_cube(a^2).
    """
    a, alpha = _frac(a), _frac(alpha)
    if a == 0:
        raise InputError("base parameter a must be invertible")
    if alpha == 0:
        raise InputError("alpha must be invertible")
    diag = (alpha + 1 / alpha) / 2
    off = (1 / alpha - alpha) / (2 * a)
    return SL2(diag, off, a * a * off, diag)


def centralizer_matrix_symbolic(ring: LaurentRing, a: Poly, alpha: Poly):
    """Same matrix over a Laurent ring; a and alpha must be invertible monomials."""
    half = ring.const(Fraction(1, 2))
    ai = alpha.monomial_inverse()
    diag = half * (alpha + ai)
    off = half * (ai - alpha) * a.monomial_inverse()
    return ((diag, off), (a * a * off, diag))


@dataclass(frozen=True)
class SymbolicReport:
    name: str
    ok: bool
    residuals: tuple[str, ...]


def verify_stab_kostant() -> SymbolicReport:
    """The triple (h(a1), h(a2), h((a1 a2)^-1)) fixes the slice cube, as an
    exact Laurent-polynomial identity."""
    ring = LaurentRing(["a", "al1", "al2"], invertible=["a", "al1", "al2"])
    a = ring.var("a")
    al1, al2 = ring.var("al1"), ring.var("al2")
    al3 = (al1 * al2).monomial_inverse()
    hs = tuple(centralizer_matrix_symbolic(ring, a, al) for al in (al1, al2, al3))
    kappa = kostant_entries(a * a, ring.zero, ring.one)
    image = act_entries(hs, kappa)
    residuals = tuple(str(x - y) for x, y in zip(image, kappa) if x != y)
    return SymbolicReport("stabilizer-identity", not residuals, residuals)


def verify_centralizer_homomorphism() -> SymbolicReport:
    """h(alpha) h(beta) = h(alpha beta) in the Laurent ring."""
    ring = LaurentRing(["a", "al", "be"], invertible=["a", "al", "be"])
    a = ring.var("a")
    al, be = ring.var("al"), ring.var("be")
    ha, hb = (centralizer_matrix_symbolic(ring, a, x) for x in (al, be))
    hab = centralizer_matrix_symbolic(ring, a, al * be)
    prod = tuple(
        tuple(sum((ha[i][k] * hb[k][j] for k in (0, 1)), ring.zero) for j in (0, 1))
        for i in (0, 1)
    )
    residuals = tuple(
        str(prod[i][j] - hab[i][j])
        for i in (0, 1) for j in (0, 1)
        if prod[i][j] != hab[i][j]
    )
    return SymbolicReport("centralizer-homomorphism", not residuals, residuals)


def diagonalizing_triple_entries(ring: LaurentRing, a: Poly):
    """The matrix (-1, 1/a; a, 1), used in all three factors.  Its
    determinant is -2, not 1: the triple is a GL2 triple (see conventions)."""
    return ((ring.const(-1), a.monomial_inverse()), (a, ring.one))


def diagonalize_kostant() -> tuple[SymbolicReport, list]:
    """Image of the slice cube under the diagonalizing triple.

    The base of the slice family is the a^2-line, so the root label a is
    only defined up to the gauge a -> -a.  Both gauges are verified: the
    triple built from the root a sends kostant_cube(a^2) to
    -4(a^2, 0, -1/a, 0), and the triple built from the root -a sends it to
    -4(a^2, 0, 1/a, 0).  Returns the image under the root-a triple.
    """
    ring = LaurentRing(["a"], invertible=["a"])
    a = ring.var("a")
    kappa = kostant_entries(a * a, ring.zero, ring.one)
    residuals = []
    images = {}
    for root in (a, -a):
        g = diagonalizing_triple_entries(ring, root)
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if det != ring.const(DIAG_TRIPLE_FACTOR_DET):
            residuals.append(f"factor determinant {det} != {DIAG_TRIPLE_FACTOR_DET}")
        sign = DIAG_IMAGE_LAST_SIGN if root == a else -DIAG_IMAGE_LAST_SIGN
        image = act_entries((g, g, g), kappa)
        expected = (
            [ring.const(-4) * a * a]
            + [ring.zero] * 3
            + [ring.const(-4 * sign) * a.monomial_inverse()]
            + [ring.zero] * 3
        )
        residuals.extend(str(x - y) for x, y in zip(image, expected) if x != y)
        images[root == a] = image
    return SymbolicReport("diagonalization", not residuals, tuple(residuals)), images[True]


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
    contracting only the tensor indices it moves.  Accepts a Cube with
    integer entries or a plain sequence of eight integers.
    """
    if p > 13:
        raise InputError("p capped at 13 for the brute-force oracle")
    if isinstance(cube, Cube):
        if not cube.is_integral():
            raise InputError("cube must have integer entries to reduce mod p")
        cube = cube.numerators
    entries = tuple(x % p for x in cube)
    s1, s2, s3 = (
        [((a, b), (c, d)) for a, b, c, d in form_stabilizer_fp(q, p)]
        for q in forms_entries(entries)
    )

    def moved(axis, g, xs):
        return tuple(x % p for x in contract_axis(axis, g, xs))

    third = Counter(moved(2, g3, entries) for g3 in s3)
    firsts = [moved(0, g1, entries) for g1 in s1]
    return sum(third[moved(1, g2, e)] for e in firsts for g2 in s2)


def cubic_stab_bruteforce_fp(p: int, cubic_coeffs) -> int:
    """Count of g in SL2(F_p) fixing the binary cubic (binomial coefficients
    (a, b, c, d) meaning a x^3 + 3b x^2 y + 3c x y^2 + d y^3).

    The resolvent is a covariant, so such a g also fixes the resolvent
    under the same substitution, f -> f((x, y).g); only the transposes of
    the resolvent's `form_stabilizer_fp` are tested."""
    from .variants import resolvent_terms  # variants imports this module

    if p > 13:
        raise InputError("p capped at 13 for the brute-force oracle")
    if p == 3:
        raise InputError("binomial cubics need 3 invertible")
    a, b, c, d = (x % p for x in cubic_coeffs)
    plain = (a, 3 * b % p, 3 * c % p, d)
    candidates = form_stabilizer_fp(resolvent_terms(a, b, c, d), p)
    return sum(1 for g11, g12, g21, g22 in candidates
               if binary_form_sub_fp(plain, (g11, g21, g12, g22), p) == plain)
