"""Binary cubics, binary quartics, pairs of quadratic forms, the hyperbolic
Gram invariant, the 2x3x3 invariant, the diagonal-sphericity criterion, and
the component-containment checks.

Cubics and quartics are stored in binomial normalization (a x^3 + 3b x^2 y +
3c x y^2 + d y^3 and a x^4 + 4b x^3 y + 6c x^2 y^2 + 4d x y^3 + e y^4);
exact converters to and from plain coefficients are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cubes import Cube, embed_cubic_entries, embed_pair_entries, rank_one_entries
from .errors import InputError, UnsupportedInputError
from .quadforms import BQF, _frac
from .ring import LaurentRing, format_terms
from .centralizers import binary_form_sub_fp, sl2_fp


@dataclass(frozen=True)
class BinaryCubic:
    """a x^3 + 3b x^2 y + 3c x y^2 + d y^3."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, _frac(getattr(self, name)))

    @staticmethod
    def from_plain(p, q, r, s) -> "BinaryCubic":
        return BinaryCubic(_frac(p), _frac(q) / 3, _frac(r) / 3, _frac(s))

    def plain(self):
        return (self.a, 3 * self.b, 3 * self.c, self.d)

    def coefficients(self):
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return format_terms(zip(self.plain(), ("x^3", "x^2y", "xy^2", "y^3")), "")


def cubic_disc_terms(a, b, c, d):
    """Discriminant of a binomial cubic, over any commutative ring."""
    return (a * a * d * d - 6 * a * b * c * d - 3 * b * b * c * c
            + 4 * (a * c ** 3 + b ** 3 * d))


def cubic_disc(f: BinaryCubic) -> Fraction:
    """a^2 d^2 - 6abcd - 3b^2c^2 + 4(ac^3 + b^3 d)."""
    return cubic_disc_terms(*f.coefficients())


def cubic_disc_general_terms(p, q, r, s):
    return (q * q * r * r - 4 * p * r ** 3 - 4 * q ** 3 * s
            + 18 * p * q * r * s - 27 * p * p * s * s)


def cubic_disc_general(p, q, r, s) -> Fraction:
    """Classical discriminant of p x^3 + q x^2 y + r x y^2 + s y^3."""
    return cubic_disc_general_terms(*(_frac(v) for v in (p, q, r, s)))


def kostant_cubic(s) -> BinaryCubic:
    """The slice -(s/4) x^3 + 3 x y^2; its discriminant is -s exactly."""
    return BinaryCubic(-_frac(s) / 4, 0, 1, 0)


def resolvent_terms(a, b, c, d):
    return (a * c - b * b, a * d - b * c, b * d - c * c)


def resolvent(f: BinaryCubic) -> BQF:
    """(ac - b^2) x^2 + (ad - bc) xy + (bd - c^2) y^2; its discriminant
    equals the cubic discriminant."""
    return BQF(*resolvent_terms(*f.coefficients()))


def embed_cubic(f: BinaryCubic) -> Cube:
    return Cube(*embed_cubic_entries(*f.coefficients()))


@dataclass(frozen=True)
class BinaryQuartic:
    """a x^4 + 4b x^3 y + 6c x^2 y^2 + 4d x y^3 + e y^4."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction

    def __post_init__(self):
        for name in "abcde":
            object.__setattr__(self, name, _frac(getattr(self, name)))

    @staticmethod
    def from_plain(p0, p1, p2, p3, p4) -> "BinaryQuartic":
        return BinaryQuartic(
            _frac(p0), _frac(p1) / 4, _frac(p2) / 6, _frac(p3) / 4, _frac(p4)
        )

    def plain(self):
        return (self.a, 4 * self.b, 6 * self.c, 4 * self.d, self.e)

    def coefficients(self):
        return (self.a, self.b, self.c, self.d, self.e)


def quartic_ij_terms(a, b, c, d, e):
    i = a * e - 4 * b * d + 3 * c * c
    j = a * c * e + 2 * b * c * d - a * d * d - b * b * e - c ** 3
    return (i, j)


def quartic_ij(f: BinaryQuartic) -> tuple[Fraction, Fraction]:
    """I = ae - 4bd + 3c^2, J = ace + 2bcd - ad^2 - b^2 e - c^3."""
    return quartic_ij_terms(*f.coefficients())


def kostant_quartic(d, e) -> BinaryQuartic:
    """The slice 4 x^3 y + d x y^3 + e y^4; its invariants are (-d, -e)."""
    return BinaryQuartic(0, 1, 0, _frac(d) / 4, e)


@dataclass(frozen=True)
class FormPair:
    """(a x^2 + 2b xy + c y^2, d x^2 + 2e xy + f y^2)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction

    def __post_init__(self):
        for name in "abcdef":
            object.__setattr__(self, name, _frac(getattr(self, name)))

    @staticmethod
    def from_forms(q1: BQF, q2: BQF) -> "FormPair":
        return FormPair(q1.a, q1.b / 2, q1.c, q2.a, q2.b / 2, q2.c)

    def forms(self) -> tuple[BQF, BQF]:
        return (BQF(self.a, 2 * self.b, self.c), BQF(self.d, 2 * self.e, self.f))

    def coefficients(self):
        return (self.a, self.b, self.c, self.d, self.e, self.f)


def pair_disc_terms(a, b, c, d, e, f):
    return (a * a * f * f + c * c * d * d - 2 * a * c * d * f
            + 4 * (a * e - b * d) * (c * e - b * f))


def pair_disc(pair: FormPair) -> Fraction:
    """a^2 f^2 + c^2 d^2 - 2acdf + 4(ae - bd)(ce - bf)."""
    return pair_disc_terms(*pair.coefficients())


def kostant_pair(s) -> FormPair:
    """The slice ((s/4) x^2 + y^2, 2xy); its discriminant is s exactly."""
    return FormPair(_frac(s) / 4, 0, 1, 0, 1, 0)


def embed_pair(pair: FormPair) -> Cube:
    return Cube(*embed_pair_entries(*pair.coefficients()))


# -- finite-field quartic stabilizers vs 2-torsion point counts ---------------

def pgl2_fp(p: int) -> list[tuple[int, int, int, int]]:
    """Representatives of PGL2(F_p): SL2 mod +-1, plus the coset twisted by
    diag(n0, 1) for a nonsquare n0.  |PGL2(F_p)| = p(p^2 - 1)."""
    n0 = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    reps = []
    seen = set()
    for g in sl2_fp(p):
        neg = tuple((-x) % p for x in g)
        if neg in seen:
            continue
        seen.add(g)
        reps.append(g)
        reps.append((g[0] * n0 % p, g[1], g[2] * n0 % p, g[3]))
    return reps


def quartic_stab_count_fp(p: int, d: int, e: int) -> int:
    """Order of the PGL2(F_p)-stabilizer of the quartic slice realizing the
    curve y^2 = x^3 + dx + e, acting by f -> det(g)^-2 f((x,y).g).

    The slice used is 4x^3 y + 4d xy^3 + 4e y^4: its double cover
    z^2 = 4x^3 + 4dx + 4e has the same 2-torsion x-coordinates as
    x^3 + dx + e.  (The unscaled slice 4x^3 y + d xy^3 + e y^4 pairs with
    the curve y^2 = x^3 + (d/4)x + (e/4) instead; see the conventions
    notes.)
    """
    if p in (2, 3):
        raise InputError("need p coprime to 6")
    coeffs = (0, 4 % p, 0, 4 * d % p, 4 * e % p)
    count = 0
    for g in pgl2_fp(p):
        det = (g[0] * g[3] - g[1] * g[2]) % p
        scale = pow(det * det % p, -1, p)
        moved = tuple(v * scale % p for v in binary_form_sub_fp(coeffs, g, p))
        if moved == coeffs:
            count += 1
    return count


def e2_count_fp(p: int, d: int, e: int) -> int:
    """Number of 2-torsion points (including the origin) on
    y^2 = x^3 + dx + e over F_p: one plus the number of roots of the cubic."""
    return 1 + sum(1 for x in range(p) if (x ** 3 + d * x + e) % p == 0)


def quartic_slice_degenerate_fp(p: int, d: int, e: int) -> bool:
    return (4 * d ** 3 + 27 * e ** 2) % p == 0


# -- hyperbolic Gram invariant for two-row tensors ----------------------------

def _hyperbolic_pairing(u, v):
    total = Fraction(0)
    for i in range(0, len(u), 2):
        total += u[i] * v[i + 1] + u[i + 1] * v[i]
    return total


def gram_matrix_n(n: int, v1, v2):
    """Gram matrix of (v1, v2) for the hyperbolic form (0,1;1,0)^(n/2)."""
    if n % 2 != 0:
        raise UnsupportedInputError("hyperbolic pairing needs even n")
    if len(v1) != n or len(v2) != n:
        raise InputError("vectors must have length n")
    v1 = tuple(_frac(x) for x in v1)
    v2 = tuple(_frac(x) for x in v2)
    return (
        (_hyperbolic_pairing(v1, v1), _hyperbolic_pairing(v1, v2)),
        (_hyperbolic_pairing(v2, v1), _hyperbolic_pairing(v2, v2)),
    )


def gram_invariant_n(n: int, v1, v2) -> Fraction:
    g = gram_matrix_n(n, v1, v2)
    return g[0][0] * g[1][1] - g[0][1] * g[1][0]


def gram_slice(n: int, s) -> tuple[tuple, tuple]:
    """Unnormalized slice vectors: v1 = s e1 + e2, v2 = sum of the remaining
    hyperbolic pairs; its Gram matrix is diag(2s, 2(j-1)) for n = 2j."""
    if n % 2 != 0 or n < 4:
        raise UnsupportedInputError("slice needs even n >= 4")
    s = _frac(s)
    v1 = [Fraction(0)] * n
    v1[0] = s
    v1[1] = Fraction(1)
    v2 = [Fraction(0)] * n
    for i in range(2, n):
        v2[i] = Fraction(1)
    return tuple(v1), tuple(v2)


def gram_slice_invariant(n: int, s) -> Fraction:
    """Gram determinant of the slice normalized by 4(j-1); equals s."""
    j = n // 2
    return gram_invariant_n(n, *gram_slice(n, s)) / (4 * (j - 1))


# -- the 2x3x3 invariant -------------------------------------------------------

def invariant_233(m_rows, n_rows) -> Fraction:
    """Discriminant of the binary cubic det(M x - N y) for 3x3 matrices."""
    ring = LaurentRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    if len(m_rows) != 3 or len(n_rows) != 3:
        raise InputError("expected 3x3 matrices")
    pencil = [
        [ring.const(_frac(m_rows[i][j])) * x - ring.const(_frac(n_rows[i][j])) * y
         for j in range(3)]
        for i in range(3)
    ]
    det = ring.zero
    for perm, sign in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ):
        term = ring.const(sign)
        for i in range(3):
            term = term * pencil[i][perm[i]]
        det = det + term
    coeffs = [det.coefficient({"x": 3 - k, "y": k}) for k in range(4)]
    return cubic_disc_general(*coeffs)


# -- diagonal sphericity criterion ---------------------------------------------

_POSITIVE_ROOTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

_RANK_OK = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 3,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def positive_root_count(type_letter: str, rank: int) -> int:
    t = type_letter.upper()
    if t not in _POSITIVE_ROOTS or not _RANK_OK[t](rank):
        raise InputError(f"invalid simple type {type_letter}{rank}")
    return _POSITIVE_ROOTS[t](rank)


def spherical_diag_check(type_letter: str, rank: int, j: int) -> bool:
    """Whether the diagonal subgroup of the j-fold product of a simple group
    of the given type is spherical: rank >= (j - 2) * #positive roots."""
    if j < 2:
        raise InputError("j must be at least 2")
    return rank >= (j - 2) * positive_root_count(type_letter, rank)


# -- component containment -----------------------------------------------------

def _six_equations(e):
    a, b1, b2, b3, c, d1, d2, d3 = e
    return (
        a * d1 - b2 * b3,
        a * d2 - b1 * b3,
        a * d3 - b2 * b1,
        a * c + b1 * d1 - b2 * d2 - b3 * d3,
        a * c + b2 * d2 - b1 * d1 - b3 * d3,
        a * c + b3 * d3 - b1 * d1 - b2 * d2,
    )


def _ten_generators(e):
    a, b1, b2, b3, c, d1, d2, d3 = e
    return (
        b2 * d2 - b3 * d3,
        b1 * d1 - b3 * d3,
        b3 * c - d1 * d2,
        b2 * c - d1 * d3,
        b1 * c - d2 * d3,
        a * c - b3 * d3,
        b2 * b3 - a * d1,
        b1 * b3 - a * d2,
        b1 * b2 - a * d3,
        a * d1 * d2 - b3 * b3 * d3,
    )


LINEAR_COMPONENTS = (
    ("a", "b1", "b3", "d2"),
    ("a", "b1", "b2", "b3"),
    ("a", "b1", "b2", "d3"),
    ("a", "b2", "b3", "d1"),
)


def component_containment_check() -> list[tuple[str, bool, str]]:
    """Symbolic containment checks for the five components of the common
    zero locus of the six xy-coefficient equations.

    For each of the four linear components, the six equations must vanish
    identically once the four coordinates are set to zero; on the rank-one
    component, parametrized by u (x) v (x) w, all sixteen polynomials (the
    six equations and the ten generators of the non-linear prime) vanish.
    """
    names = ("a", "b1", "b2", "b3", "c", "d1", "d2", "d3")
    results = []
    for comp in LINEAR_COMPONENTS:
        ring = LaurentRing(names)
        entries = [ring.zero if n in comp else ring.var(n) for n in names]
        residuals = [str(p) for p in _six_equations(entries) if not p.is_zero()]
        results.append(
            (f"linear component ({', '.join(comp)})", not residuals, "; ".join(residuals))
        )
    ring = LaurentRing(["u1", "u2", "v1", "v2", "w1", "w2"])
    u = (ring.var("u1"), ring.var("u2"))
    v = (ring.var("v1"), ring.var("v2"))
    w = (ring.var("w1"), ring.var("w2"))
    entries = rank_one_entries(u, v, w)
    polys = _six_equations(entries) + _ten_generators(entries)
    residuals = [str(p) for p in polys if not p.is_zero()]
    results.append(("rank-one component (16 polynomials)", not residuals, "; ".join(residuals)))
    return results
