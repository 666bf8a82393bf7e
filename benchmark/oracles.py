"""Independent computations the benchmark checks the library against.

Nothing here imports cube_lab.  Each routine is written from the
mathematics (Gauss reduction, Cayley's hyperdeterminant, the tensor action)
rather than from the library's code, so a fault in the library cannot hide
behind the same fault in its check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

# Tensor positions T[i][j][k] of the library's entry order
# (a, b1, b2, b3, c, d1, d2, d3); this is the documented cube dictionary.
POSITIONS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
             (1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0))


# -- binary quadratic forms ---------------------------------------------------

def reduce_form(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Gauss-reduced representative of a positive-definite form.

    Normalize b into (-a, a], swap (a, b, c) -> (c, -b, a) while a > c, and
    finally make b nonnegative when a = c.
    """
    if b * b - 4 * a * c >= 0 or a <= 0:
        raise ValueError(f"({a}, {b}, {c}) is not positive definite")
    while True:
        # b' = b + 2ka lands in (-a, a]; c follows from the discriminant
        k = (a - b) // (2 * a)
        b2 = b + 2 * k * a
        c = c + k * b + k * k * a
        b = b2
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if a == c and b < 0:
        b = -b
    return a, b, c


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """Reduced primitive positive-definite forms of discriminant D < 0.

    Reduced means -a < b <= a <= c, and b >= 0 when a = c.
    """
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative discriminant")
    out = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if gcd(gcd(a, b), c) == 1:
                out.append((a, b, c))
    return out


def class_number(D: int) -> int:
    return len(reduced_forms(D))


def principal_form(D: int) -> tuple[int, int, int]:
    b = D % 2
    return 1, b, (b - D) // 4


def form_disc(a, b, c):
    return b * b - 4 * a * c


# -- cubes -------------------------------------------------------------------

def tensor(entries):
    t = [[[None, None], [None, None]], [[None, None], [None, None]]]
    for (i, j, k), v in zip(POSITIONS, entries):
        t[i][j][k] = v
    return t


def flatten(t):
    return tuple(t[i][j][k] for i, j, k in POSITIONS)


def cayley_hyperdet(entries):
    """Cayley's hyperdeterminant of the 2x2x2 tensor a_ijk."""
    t = tensor(entries)

    def a(i, j, k):
        return t[i][j][k]

    return (
        a(0, 0, 0) ** 2 * a(1, 1, 1) ** 2 + a(0, 0, 1) ** 2 * a(1, 1, 0) ** 2
        + a(0, 1, 0) ** 2 * a(1, 0, 1) ** 2 + a(1, 0, 0) ** 2 * a(0, 1, 1) ** 2
        - 2 * (a(0, 0, 0) * a(0, 0, 1) * a(1, 1, 0) * a(1, 1, 1)
               + a(0, 0, 0) * a(0, 1, 0) * a(1, 0, 1) * a(1, 1, 1)
               + a(0, 0, 0) * a(1, 0, 0) * a(0, 1, 1) * a(1, 1, 1)
               + a(0, 0, 1) * a(0, 1, 0) * a(1, 0, 1) * a(1, 1, 0)
               + a(0, 0, 1) * a(1, 0, 0) * a(0, 1, 1) * a(1, 1, 0)
               + a(0, 1, 0) * a(1, 0, 0) * a(0, 1, 1) * a(1, 0, 1))
        + 4 * (a(0, 0, 0) * a(0, 1, 1) * a(1, 0, 1) * a(1, 1, 0)
               + a(0, 0, 1) * a(0, 1, 0) * a(1, 0, 0) * a(1, 1, 1))
    )


def slicing_forms(entries):
    """The three forms det(M_i x + N_i y), M_i and N_i the two slices of the
    tensor along index i."""
    t = tensor(entries)
    out = []
    for axis in range(3):
        def sl(v, axis=axis):
            m = [[None, None], [None, None]]
            for r in (0, 1):
                for s in (0, 1):
                    idx = [r, s]
                    idx.insert(axis, v)
                    m[r][s] = t[idx[0]][idx[1]][idx[2]]
            return m
        m, n = sl(0), sl(1)
        # det(M x + N y) = det M x^2 + (m00 n11 + n00 m11 - m01 n10 - n01 m10) xy + det N y^2
        out.append((
            m[0][0] * m[1][1] - m[0][1] * m[1][0],
            m[0][0] * n[1][1] + n[0][0] * m[1][1] - m[0][1] * n[1][0] - n[0][1] * m[1][0],
            n[0][0] * n[1][1] - n[0][1] * n[1][0],
        ))
    return tuple(out)


def act_cube(gs, entries):
    """Factor i of the triple acts on index i: e_r -> sum_s g[r][s] e_s."""
    t = tensor(entries)
    zero = entries[0] - entries[0]
    for axis, g in enumerate(gs):
        new = [[[zero] * 2 for _ in range(2)] for _ in range(2)]
        for i, j, k in POSITIONS:
            src = (i, j, k)
            for s in (0, 1):
                dst = list(src)
                dst[axis] = s
                new[dst[0]][dst[1]][dst[2]] += g[src[axis]][s] * t[i][j][k]
        t = new
    return flatten(t)


def substitute_form(q, g):
    """Coefficients of q((x, y).g^T) = q(g11 x + g12 y, g21 x + g22 y)."""
    A, B, C = q
    (g11, g12), (g21, g22) = g
    return (
        A * g11 * g11 + B * g11 * g21 + C * g21 * g21,
        2 * A * g11 * g12 + B * (g11 * g22 + g12 * g21) + 2 * C * g21 * g22,
        A * g12 * g12 + B * g12 * g22 + C * g22 * g22,
    )


def sl2z_word(rng: random.Random, length: int = 4, tmax: int = 3):
    """A dense matrix of SL2(Z): an alternating product of `length`
    elementary matrices (1 t; 0 1) and (1 0; t 1) with 0 < |t| <= tmax,
    drawn again until no entry is zero, so that actions by different words
    cost about the same."""
    steps = [s * v for v in range(1, tmax + 1) for s in (1, -1)]
    while True:
        g = ((1, 0), (0, 1))
        upper = rng.random() < 0.5
        for _ in range(length):
            t = rng.choice(steps)
            e = ((1, t), (0, 1)) if upper else ((1, 0), (t, 1))
            upper = not upper
            g = tuple(tuple(g[i][0] * e[0][j] + g[i][1] * e[1][j] for j in (0, 1))
                      for i in (0, 1))
        if all(g[0]) and all(g[1]):
            return g


def rank_one(u, v, w):
    t = [[[u[i] * v[j] * w[k] for k in (0, 1)] for j in (0, 1)] for i in (0, 1)]
    return flatten(t)


def split_off(axis, u, m):
    """u (x) M with u in factor `axis` and the 2x2 matrix M on the others."""
    t = [[[None, None], [None, None]], [[None, None], [None, None]]]
    for i, j, k in POSITIONS:
        idx = (i, j, k)
        rest = [x for n, x in enumerate(idx) if n != axis]
        t[i][j][k] = u[idx[axis]] * m[rest[0]][rest[1]]
    return flatten(t)


def eval_terms(terms, names, point):
    """Value at `point` (a dict name -> Fraction) of a polynomial given as
    {exponent tuple: coefficient} over the variables `names`."""
    total = Fraction(0)
    for exp, coeff in terms.items():
        v = Fraction(coeff)
        for name, e in zip(names, exp):
            if e:
                v *= point[name] ** e
        total += v
    return total


# -- finite fields ----------------------------------------------------------

def is_nonzero_square(y: int, p: int) -> bool:
    y %= p
    return y != 0 and any(x * x % p == y for x in range(1, p))


def cubic_root_count(d: int, e: int, p: int) -> int:
    return sum(1 for x in range(p) if (x * x * x + d * x + e) % p == 0)
