"""Sparse multivariate Laurent polynomials over exact rationals.

A polynomial lives in a :class:`LaurentRing`, which fixes an ordered tuple of
variable names and marks a subset of them as invertible.  Terms are stored as
a dict mapping exponent tuples (one integer per variable, negative exponents
only on invertible variables) to nonzero :class:`~fractions.Fraction`
coefficients.  The dict never stores a zero coefficient, so two polynomials
are equal exactly when their term dicts are equal; every identity check in
this package reduces to "difference == ring.zero".

All values are immutable once built and every operation is a pure function.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import InputError

Scalar = Union[int, Fraction]


def format_terms(terms, times: str) -> str:
    """Signed sum of (coefficient, monomial) pairs, zero terms dropped: a unit
    coefficient is not printed, `times` joins any other one to its monomial,
    an empty monomial is a constant, and a negative term joins with ' - '."""
    bits = []
    for coeff, mono in terms:
        if coeff == 0:
            continue
        if not mono:
            bits.append(str(coeff))
        elif coeff == 1:
            bits.append(mono)
        elif coeff == -1:
            bits.append(f"-{mono}")
        else:
            bits.append(f"{coeff}{times}{mono}")
    if not bits:
        return "0"
    out = bits[0]
    for b in bits[1:]:
        out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
    return out


class LaurentRing:
    """Fixed variable universe: ordered names plus an invertible subset."""

    __slots__ = ("names", "invertible", "_index", "_zero_exp")

    def __init__(self, names: Iterable[str], invertible: Iterable[str] = ()):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise InputError(f"duplicate variable names in {self.names}")
        self.invertible = frozenset(invertible)
        unknown = self.invertible - set(self.names)
        if unknown:
            raise InputError(f"invertible variables {sorted(unknown)} not in ring")
        self._index = {n: i for i, n in enumerate(self.names)}
        self._zero_exp = (0,) * len(self.names)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentRing)
            and self.names == other.names
            and self.invertible == other.invertible
        )

    def __hash__(self) -> int:
        return hash((self.names, self.invertible))

    def __repr__(self) -> str:
        inv = f", invertible={sorted(self.invertible)}" if self.invertible else ""
        return f"LaurentRing({list(self.names)}{inv})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown variable {name!r} in {self!r}") from None

    def const(self, value: Scalar) -> "Poly":
        q = Fraction(value)
        if q == 0:
            return Poly(self, {})
        return Poly(self, {self._zero_exp: q})

    @property
    def zero(self) -> "Poly":
        return Poly(self, {})

    @property
    def one(self) -> "Poly":
        return self.const(1)

    def var(self, name: str, power: int = 1) -> "Poly":
        exp = [0] * len(self.names)
        exp[self.index(name)] = power
        return Poly(self, {tuple(exp): Fraction(1)})

    def monomial(self, coeff: Scalar, exponents: Mapping[str, int]) -> "Poly":
        exp = [0] * len(self.names)
        for name, e in exponents.items():
            exp[self.index(name)] = e
        q = Fraction(coeff)
        if q == 0:
            return self.zero
        return Poly(self, {tuple(exp): q})


class Poly:
    """Canonical-form sparse Laurent polynomial; equality is structural."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: LaurentRing, terms: Mapping[tuple, Fraction]):
        self.ring = ring
        clean = {}
        for exp, coeff in terms.items():
            if coeff == 0:
                continue
            for i, e in enumerate(exp):
                if e < 0 and ring.names[i] not in ring.invertible:
                    raise InputError(
                        f"negative exponent on non-invertible variable "
                        f"{ring.names[i]!r}"
                    )
            clean[exp] = coeff
        self.terms = clean

    # -- helpers ----------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise InputError(
                    f"variable-universe mismatch: {self.ring!r} vs {other.ring!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(exp == self.ring._zero_exp for exp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise InputError(f"{self} is not a constant")
        return next(iter(self.terms.values()))

    def coefficient(self, exponents: Mapping[str, int]) -> Fraction:
        exp = [0] * len(self.ring.names)
        for name, e in exponents.items():
            exp[self.ring.index(name)] = e
        return self.terms.get(tuple(exp), Fraction(0))

    def degree(self, name: str) -> int:
        """Largest exponent of `name` appearing (0 for the zero polynomial)."""
        i = self.ring.index(name)
        return max((exp[i] for exp in self.terms), default=0)

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, Fraction(0)) + coeff
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int):
            raise InputError("polynomial powers must be integers")
        if n < 0:
            return self.monomial_inverse() ** (-n)
        result = self.ring.one
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def monomial_inverse(self) -> "Poly":
        """Inverse of a single-term polynomial; the inverted exponents must
        stay legal (negative powers only on invertible variables)."""
        if len(self.terms) != 1:
            raise InputError(f"{self} is not an invertible monomial")
        (exp, coeff), = self.terms.items()
        return Poly(self.ring, {tuple(-e for e in exp): Fraction(1) / coeff})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    # -- the operations the rest of the package relies on ------------------

    def substitute(self, bindings: Mapping[str, Union["Poly", Scalar]]) -> "Poly":
        """Exact substitution followed by canonicalization.

        Variables absent from `bindings` are left alone.  Substituting into a
        negative power requires the binding to be an invertible monomial.
        """
        ring = self.ring
        values: dict[int, Poly] = {}
        for name, value in bindings.items():
            i = ring.index(name)
            if not isinstance(value, Poly):
                value = ring.const(value)
            elif value.ring != ring:
                raise InputError("substitution value from a different ring")
            values[i] = value
        result = ring.zero
        for exp, coeff in self.terms.items():
            term = ring.const(coeff)
            rest = [0] * len(ring.names)
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                if i in values:
                    v = values[i]
                    if e < 0:
                        v = v.monomial_inverse()
                        e = -e
                    term = term * v ** e
                else:
                    rest[i] = e
            result = result + term * Poly(ring, {tuple(rest): Fraction(1)})
        return result

    def evaluate(self, assignments: Mapping[str, Scalar]) -> Fraction:
        """Full evaluation; every variable occurring must get a value."""
        out = self.substitute({n: Fraction(v) for n, v in assignments.items()})
        return out.constant_value()

    def coeffs_divisible_by(self, m: int) -> bool:
        """True iff every coefficient is an integer multiple of m."""
        for coeff in self.terms.values():
            if coeff.denominator != 1:
                raise InputError(f"non-integer coefficient {coeff}")
            if coeff.numerator % m != 0:
                return False
        return True

    def __repr__(self) -> str:
        terms = []
        for exp in sorted(self.terms, reverse=True):
            mono = "*".join(name if e == 1 else f"{name}^{e}"
                            for name, e in zip(self.ring.names, exp) if e)
            terms.append((self.terms[exp], mono))
        return format_terms(terms, "*")


class RewriteRelation:
    """Rewrites v^2 -> replacement; normal forms have v-degree <= 1."""

    def __init__(self, ring: LaurentRing, name: str, replacement: Poly):
        if replacement.ring != ring:
            raise InputError("replacement from a different ring")
        if name in ring.invertible:
            raise InputError(f"rewrite variable {name!r} must not be invertible")
        if replacement.degree(name) > 1:
            raise InputError("replacement may not have degree >= 2 in the rewrite variable")
        self.ring = ring
        self.name = name
        self.replacement = replacement

    def reduce(self, p: Poly) -> Poly:
        """Iterated rewriting; terminates because the replacement has
        v-degree <= 1, so each pass strictly lowers the maximal v-degree."""
        if p.ring != self.ring:
            raise InputError("polynomial from a different ring")
        i = self.ring.index(self.name)
        while True:
            high = {e: c for e, c in p.terms.items() if e[i] >= 2}
            if not high:
                return p
            low = Poly(self.ring, {e: c for e, c in p.terms.items() if e[i] < 2})
            p = low
            for exp, coeff in high.items():
                reduced_exp = list(exp)
                reduced_exp[i] -= 2
                p = p + Poly(self.ring, {tuple(reduced_exp): coeff}) * self.replacement
