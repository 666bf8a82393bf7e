"""Binary quadratic forms over exact rationals.

Covers the form <-> traceless-matrix dictionary, the SL2 action, Gauss
reduction and equivalence for negative discriminants, classical Dirichlet
composition (via united representatives), and class-group enumeration.
The composition code here is deliberately independent of the cube-based
composition in :mod:`cube_lab.composition`; the two are checked against each
other by the verification suite.

Reduction and composition run on an integer core: int triples (a, b, c) and
the witness as four ints (p, q, r, s) (Cohen, GTM 138, Alg. 5.4.2 and
5.4.7).  `BQF` and `SL2`, with their `Fraction` coefficients, are built only
at the public boundary.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import InputError, InternalError, UnsupportedInputError
from .ring import format_terms


# an ASCII integer or 'p/q' with no spaces: the common spelling, read with int()
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?", re.ASCII)


def _frac(x) -> Fraction:
    """The one path from an int, a Fraction or a 'p/q' string to a Fraction."""
    if type(x) is Fraction:
        return x
    if type(x) is str and (m := _PLAIN.fullmatch(x)):
        num, den = m.groups()
        try:
            return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {x!r}: {exc}") from exc
    if isinstance(x, float):
        raise InputError("floating point input rejected; use int, Fraction or 'p/q' strings")
    if x is True or x is False:
        raise InputError("boolean input rejected; use int, Fraction or 'p/q' strings")
    if isinstance(x, str) and ("e" in x or "E" in x):
        # Fraction("1e99999999") would build 10**99999999 before any check
        raise InputError(f"bad rational {x!r}: exponent notation rejected")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {x!r}: {exc}") from exc


def frac_to_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class SL2:
    """2x2 matrix with exact rational entries and determinant exactly 1."""

    p: Fraction
    q: Fraction
    r: Fraction
    s: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", _frac(self.p))
        object.__setattr__(self, "q", _frac(self.q))
        object.__setattr__(self, "r", _frac(self.r))
        object.__setattr__(self, "s", _frac(self.s))
        if self.p * self.s - self.q * self.r != 1:
            p, q, r, s = map(frac_to_str, (self.p, self.q, self.r, self.s))
            raise InputError(f"determinant of ({p}, {q}; {r}, {s}) is not 1")

    @staticmethod
    def identity() -> "SL2":
        return SL2(1, 0, 0, 1)

    def rows(self):
        return ((self.p, self.q), (self.r, self.s))

    def __mul__(self, other: "SL2") -> "SL2":
        return SL2(
            self.p * other.p + self.q * other.r,
            self.p * other.q + self.q * other.s,
            self.r * other.p + self.s * other.r,
            self.r * other.q + self.s * other.s,
        )

    def inverse(self) -> "SL2":
        return SL2(self.s, -self.q, -self.r, self.p)

    def transpose(self) -> "SL2":
        return SL2(self.p, self.r, self.q, self.s)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in (self.p, self.q, self.r, self.s))


@dataclass(frozen=True)
class BQF:
    """ax^2 + bxy + cy^2 with exact rational coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))
        object.__setattr__(self, "c", _frac(self.c))

    def discriminant(self) -> Fraction:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x, y) -> Fraction:
        x, y = _frac(x), _frac(y)
        return self.a * x * x + self.b * x * y + self.c * y * y

    def coefficients(self):
        return (self.a, self.b, self.c)

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in (self.a, self.b, self.c))

    def is_primitive(self) -> bool:
        if not self.is_integral():
            return False
        g = gcd(gcd(self.a.numerator, self.b.numerator), self.c.numerator)
        return g == 1

    def is_negative_definite(self) -> bool:
        return self.discriminant() < 0 and self.a < 0

    def __neg__(self) -> "BQF":
        return BQF(-self.a, -self.b, -self.c)

    def to_dict(self) -> dict:
        return {"a": frac_to_str(self.a), "b": frac_to_str(self.b), "c": frac_to_str(self.c)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "BQF":
        try:
            data = json.loads(text)
            return BQF(data["a"], data["b"], data["c"])
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            raise InputError(f"malformed form JSON: {exc}") from exc

    def __str__(self) -> str:
        return format_terms(zip(self.coefficients(), ("x^2", "xy", "y^2")), "")


# -- the form <-> traceless matrix dictionary -------------------------------
#
# The traceless matrix (m, n; k, -m) corresponds to the form
# k x^2 + 2m xy - n y^2; its discriminant is -4 times the matrix determinant.

def form_from_sl2(m, n, k, neg_m=None) -> BQF:
    m, n, k = _frac(m), _frac(n), _frac(k)
    if neg_m is not None and _frac(neg_m) != -m:
        raise InputError("matrix is not traceless")
    return BQF(k, 2 * m, -n)


def sl2_from_form(q: BQF):
    """Entries (m, n; k, -m) of the traceless matrix attached to q."""
    m = q.b / 2
    return (m, -q.c, q.a, -m)


# -- group action ------------------------------------------------------------

def form_sub(q, g):
    """Coefficients of q(v.g) for the row vector v = (x, y), over any
    commutative ring: q = (a, b, c) is a x^2 + b xy + c y^2 and
    g = ((p, q), (r, s)), so v.g = (px + ry, qx + sy)."""
    a, b, c = q
    (p, q_), (r, s) = g
    return (
        a * p * p + b * p * q_ + c * q_ * q_,
        2 * a * p * r + b * (p * s + q_ * r) + 2 * c * q_ * s,
        a * r * r + b * r * s + c * s * s,
    )


def act(g: SL2, q: BQF) -> BQF:
    """(g.q)(v) = q(v.g) for the row vector v = (x, y); a left action."""
    return BQF(*form_sub(q.coefficients(), g.rows()))


def _require_reducible(q: BQF) -> tuple[int, int, int]:
    """The coefficients of an integral primitive positive-definite form, as ints."""
    if not q.is_integral():
        raise UnsupportedInputError(f"{q} is not an integral primitive form")
    a, b, c = q.a.numerator, q.b.numerator, q.c.numerator
    if gcd(a, b, c) != 1:
        raise UnsupportedInputError(f"{q} is not an integral primitive form")
    if b * b - 4 * a * c >= 0:
        raise UnsupportedInputError(f"discriminant {b * b - 4 * a * c} is not negative")
    if a <= 0:
        raise UnsupportedInputError(f"{q} is not positive definite")
    return a, b, c


def _reduce(f, witness: bool = True):
    """Reduce the positive-definite int triple f; returns the reduced triple
    and, if `witness`, the int matrix (p, q, r, s) with form_sub(f, g) equal
    to it, checked before it is returned; otherwise None."""
    a, b, c = f
    p, q, r, s = 1, 0, 0, 1
    while True:
        if abs(b) > a:
            # shift b into (-a, a]: b -> b + 2ta via (1,0;t,1)
            t = (a - b) // (2 * a)
            b, c = b + 2 * t * a, a * t * t + b * t + c
            r, s = r + t * p, s + t * q
        elif a > c:
            # (0,1;-1,0): (a, b, c) -> (c, -b, a)
            a, b, c = c, -b, a
            p, q, r, s = r, s, -p, -q
        else:
            break
    if b < 0 and -b == a:
        # (1,0;1,1): b -> b + 2a = a, c -> a + b + c = c
        b = a
        r, s = r + p, s + q
    elif b < 0 and a == c:
        b = -b
        p, q, r, s = r, s, -p, -q
    if not witness:
        return (a, b, c), None
    if form_sub(f, ((p, q), (r, s))) != (a, b, c):
        raise InternalError("reduction witness failed")
    return (a, b, c), (p, q, r, s)


def reduce(q: BQF) -> tuple[BQF, SL2]:
    """Unique reduced representative plus a witness g with act(g, q) = reduced.

    Reduced means |b| <= a <= c, with b >= 0 whenever |b| = a or a = c.
    """
    red, g = _reduce(_require_reducible(q))
    return BQF(*red), SL2(*g)


def is_reduced(q: BQF) -> bool:
    a, b, c = q.a, q.b, q.c
    if not (abs(b) <= a <= c):
        return False
    if b < 0 and (-b == a or a == c):
        return False
    return True


def is_equivalent(q1: BQF, q2: BQF) -> bool:
    if q1.discriminant() != q2.discriminant():
        return False
    return (_reduce(_require_reducible(q1), witness=False)[0]
            == _reduce(_require_reducible(q2), witness=False)[0])


# -- Dirichlet composition ---------------------------------------------------

def _crt(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Solve x = r1 (mod m1), x = r2 (mod m2); returns (x, lcm)."""
    g = gcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise InternalError("incompatible congruences")
    l = m1 // g * m2
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g) if m2 // g > 1 else 0
    return (r1 + m1 * t) % l, l


def _coprime_representative(f, n: int):
    """An int triple equivalent to f whose leading coefficient is coprime to n."""
    a, b, c = f
    if gcd(a, n) == 1:
        return f
    bound = 1
    while bound < 64:
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if gcd(x, y) != 1:
                    continue
                value = a * x * x + b * x * y + c * y * y
                if value > 0 and gcd(value, n) == 1:
                    # complete the coprime pair (x, y) to an SL2 first row
                    u, v = _bezout(x, y)
                    out = form_sub(f, ((x, y), (-v, u)))
                    if out[0] != value:
                        raise InternalError("representative construction failed")
                    return out
        bound *= 2
    raise InternalError(f"no value of {BQF(*f)} coprime to {n} found")


def _bezout(x: int, y: int) -> tuple[int, int]:
    """u, v with x*u + y*v = gcd(x, y)."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _compose(f1, f2):
    """Dirichlet composition of two positive-definite int triples of one
    discriminant, through united representatives."""
    a1, b1, c1 = f1
    D = b1 * b1 - 4 * a1 * c1
    a2, b2, _ = _coprime_representative(f2, a1)
    # middle coefficient congruent to b1 mod 2a1 and to b2' mod 2a2
    B, _ = _crt(b1, 2 * a1, b2, 2 * a2)
    num = B * B - D
    if num % (4 * a1 * a2) != 0:
        raise InternalError("united middle coefficient is not concordant")
    return (a1 * a2, B, num // (4 * a1 * a2))


def compose_dirichlet(q1: BQF, q2: BQF) -> BQF:
    """Gauss composition through united (concordant) representatives."""
    f1 = _require_reducible(q1)
    f2 = _require_reducible(q2)
    if q1.discriminant() != q2.discriminant():
        raise InputError("discriminant mismatch")
    return BQF(*_compose(f1, f2))


def _require_discriminant(D: int) -> None:
    if D >= 0 or D % 4 not in (0, 1):
        raise InputError(f"{D} is not a negative discriminant")


def principal_form(D: int) -> BQF:
    _require_discriminant(D)
    k = D % 2
    return BQF(1, k, (k * k - D) // 4)


# -- class groups ------------------------------------------------------------

def reduced_forms(D: int) -> list[BQF]:
    """All reduced primitive positive-definite forms of discriminant D."""
    _require_discriminant(D)
    out = []
    a_max = isqrt(-D // 3)
    for a in range(1, a_max + 1):
        for b in range(-a, a + 1):
            if (b - D) % 2 != 0:
                continue
            num = b * b - D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append(BQF(a, b, c))
    out.sort(key=lambda f: (f.a, f.b, f.c))
    return out


class ClassGroupTable:
    """Finite abelian group of reduced primitive forms under composition."""

    def __init__(self, D: int):
        self.D = D
        self.forms = reduced_forms(D)
        triples = [_require_reducible(f) for f in self.forms]
        self._index = {f: i for i, f in enumerate(triples)}
        self.identity = self.index(principal_form(D))
        n = len(triples)
        self.table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                k = self._index[_reduce(_compose(triples[i], triples[j]), witness=False)[0]]
                self.table[i][j] = k
                self.table[j][i] = k

    @property
    def class_number(self) -> int:
        return len(self.forms)

    def index(self, q: BQF) -> int:
        red = _reduce(_require_reducible(q), witness=False)[0]
        try:
            return self._index[red]
        except KeyError:
            raise InputError(
                f"{q} does not reduce into the class group of discriminant {self.D}"
            ) from None

    def compose(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        f = self.forms[i]
        return self.index(BQF(f.a, -f.b, f.c))

    def check_group_axioms(self) -> bool:
        n = len(self.forms)
        for i in range(n):
            if self.compose(self.identity, i) != i:
                return False
            if self.compose(self.inverse(i), i) != self.identity:
                return False
        for i in range(n):
            for j in range(n):
                if self.compose(i, j) != self.compose(j, i):
                    return False
                for k in range(n):
                    if self.compose(self.compose(i, j), k) != self.compose(i, self.compose(j, k)):
                        return False
        return True


def class_group(D: int) -> ClassGroupTable:
    return ClassGroupTable(D)


def random_sl2z(rng, length: int = 4, tmax: int = 3) -> SL2:
    """Random integral SL2 element: a short word in elementary matrices,
    multiplied out on ints."""
    p, q, r, s = 1, 0, 0, 1
    for _ in range(length):
        t = rng.randint(-tmax, tmax)
        if rng.random() < 0.5:
            q, s = q + p * t, s + r * t  # times (1, t; 0, 1)
        else:
            p, r = p + q * t, r + s * t  # times (1, 0; t, 1)
    return SL2(p, q, r, s)


def parse_form(text: str) -> BQF:
    """Accept 'a,b,c' comma form or the JSON encoding."""
    text = text.strip()
    if text.startswith("{"):
        return BQF.from_json(text)
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"expected 'a,b,c', got {text!r}")
    return BQF(*parts)
