import random
from fractions import Fraction

import pytest

from cube_lab.cubes import Cube, embed_cubic_entries, embed_pair_entries, kostant_cube
from cube_lab.errors import InputError, UnsupportedInputError
from cube_lab.quadforms import BQF, random_sl2z
from cube_lab.variants import (
    BinaryCubic,
    BinaryQuartic,
    FormPair,
    component_containment_check,
    cubic_disc,
    cubic_disc_general,
    e2_count_fp,
    gram_invariant_n,
    gram_matrix_n,
    gram_slice,
    invariant_233,
    kostant_cubic,
    kostant_pair,
    kostant_quartic,
    pair_disc,
    pgl2_fp,
    quartic_ij,
    quartic_slice_degenerate_fp,
    quartic_stab_count_fp,
    resolvent,
    spherical_diag_check,
)

rng = random.Random(77)

def _act_cubic(g, f: BinaryCubic) -> BinaryCubic:
    # substitute (x, y) -> (x, y).g into the cubic, exactly
    from math import comb
    p, q, r, s = g.p, g.q, g.r, g.s
    out = [Fraction(0)] * 4
    for k, coeff in enumerate(f.plain()):
        if coeff == 0:
            continue
        # expand coeff * (p x + r y)^(3-k) (q x + s y)^k
        for i in range(3 - k + 1):
            for j in range(k + 1):
                c = coeff * comb(3 - k, i) * comb(k, j)
                c *= p ** (3 - k - i) * r ** i * q ** (k - j) * s ** j
                out[i + j] += c
    return BinaryCubic.from_plain(*out)


def _act_quartic(g, f: BinaryQuartic) -> BinaryQuartic:
    from math import comb
    p, q, r, s = g.p, g.q, g.r, g.s
    out = [Fraction(0)] * 5
    for k, coeff in enumerate(f.plain()):
        if coeff == 0:
            continue
        for i in range(4 - k + 1):
            for j in range(k + 1):
                c = coeff * comb(4 - k, i) * comb(k, j)
                c *= p ** (4 - k - i) * r ** i * q ** (k - j) * s ** j
                out[i + j] += c
    return BinaryQuartic.from_plain(*out)


def test_cubic_disc_values():
    assert cubic_disc(BinaryCubic(0, 0, 0, 0)) == 0
    for s in (1, -4, Fraction(3, 7)):
        assert cubic_disc(kostant_cubic(s)) == -s


def test_cubic_disc_general_values():
    assert cubic_disc_general(1, -3, 3, -1) == 0        # (x - y)^3
    assert cubic_disc_general(1, -3, 2, 0) == 4         # x(x - y)(x - 2y)


def test_disc_normalization_relation():
    for _ in range(25):
        a, b, c, d = (Fraction(rng.randint(-5, 5)) for _ in range(4))
        lhs = cubic_disc(BinaryCubic(a, b, c, d))
        rhs = Fraction(-1, 27) * cubic_disc_general(a, 3 * b, 3 * c, d)
        assert lhs == rhs


def test_cubic_disc_action_invariant():
    f = BinaryCubic(2, -1, 3, Fraction(1, 2))
    for _ in range(100):
        g = random_sl2z(rng)
        assert cubic_disc(_act_cubic(g, f)) == cubic_disc(f)


def test_kostant_cubic_shapes():
    assert kostant_cubic(0).plain() == (0, 0, 3, 0)        # 3xy^2
    assert cubic_disc(kostant_cubic(0)) == 0
    assert kostant_cubic(-4).plain() == (1, 0, 3, 0)       # x^3 + 3xy^2
    assert cubic_disc(kostant_cubic(-4)) == 4
    assert Cube(*embed_cubic_entries(*kostant_cubic(-4).coefficients())) == kostant_cube(1)
    for s in (2, -6):
        cube = Cube(*embed_cubic_entries(*kostant_cubic(s).coefficients()))
        assert cube == kostant_cube(Fraction(-s, 4))


def test_resolvent_values():
    assert resolvent(BinaryCubic(1, 0, 0, 0)) == BQF(0, 0, 0)       # x^3
    assert resolvent(BinaryCubic(0, 0, 1, 0)) == BQF(0, 0, -1)      # 3xy^2
    for s in (4, -8):
        q = resolvent(kostant_cubic(s))
        assert q == BQF(Fraction(-s, 4), 0, -1)
        assert q.discriminant() == -s


def test_resolvent_compatibilities():
    for _ in range(20):
        f = BinaryCubic(*(rng.randint(-4, 4) for _ in range(4)))
        cube = Cube(*embed_cubic_entries(*f.coefficients()))
        assert cube.hyperdet() == cubic_disc(f)
        assert all(q == resolvent(f) for q in cube.forms())
        assert resolvent(f).discriminant() == cubic_disc(f)


def test_embed_cubic_examples():
    assert Cube(*embed_cubic_entries(1, 0, 0, 0)) == Cube(1, 0, 0, 0, 0, 0, 0, 0)
    assert Cube(*embed_cubic_entries(0, 0, 0, 0)) == Cube(0, 0, 0, 0, 0, 0, 0, 0)


def test_binomial_conversion():
    f = BinaryCubic.from_plain(2, 3, -6, 1)
    assert f.coefficients() == (2, 1, -2, 1)
    assert f.plain() == (2, 3, -6, 1)
    g = BinaryQuartic.from_plain(1, 4, 6, 4, 1)
    assert g.coefficients() == (1, 1, 1, 1, 1)


def test_quartic_invariants():
    assert quartic_ij(BinaryQuartic(0, 0, 0, 0, 0)) == (0, 0)
    assert quartic_ij(BinaryQuartic(1, 0, 0, 0, 1)) == (1, 0)    # x^4 + y^4
    for d, e in ((0, 0), (1, 1), (-3, 5)):
        assert quartic_ij(kostant_quartic(d, e)) == (-d, -e)


def test_kostant_quartic_shapes():
    assert kostant_quartic(0, 0).plain() == (0, 4, 0, 0, 0)          # 4x^3 y
    assert kostant_quartic(1, 1).plain() == (0, 4, 0, 1, 1)          # 4x^3y + xy^3 + y^4


def test_quartic_invariants_action_invariant():
    f = BinaryQuartic(1, -2, 0, 1, 3)
    base = quartic_ij(f)
    for _ in range(100):
        g = random_sl2z(rng)
        assert quartic_ij(_act_quartic(g, f)) == base


def test_pair_disc_values():
    assert pair_disc(FormPair(1, 2, 3, 0, 0, 0)) == 0        # (q, 0)
    for s in (0, 4, -12, Fraction(2, 3)):
        assert pair_disc(kostant_pair(s)) == s


def test_pair_embedding():
    for s in (0, 4, -8):
        cube = Cube(*embed_pair_entries(*kostant_pair(s).coefficients()))
        assert cube == kostant_cube(Fraction(s, 4))
        assert cube.hyperdet() == s
    pair = FormPair.from_forms(BQF(1, 0, 1), BQF(0, 2, 0))
    assert Cube(*embed_pair_entries(*pair.coefficients())) == kostant_cube(1)
    assert Cube(*embed_pair_entries(0, 0, 0, 0, 0, 0)) == Cube(0, 0, 0, 0, 0, 0, 0, 0)


def test_pair_disc_matches_hyperdet():
    for _ in range(25):
        pair = FormPair(*(rng.randint(-4, 4) for _ in range(6)))
        cube = Cube(*embed_pair_entries(*pair.coefficients()))
        assert cube.hyperdet() == pair_disc(pair)
        q1, q2, q3 = cube.forms()
        assert q1 == q3  # outer-factor symmetry of the displayed embedding


def test_pair_disc_action_invariant():
    # the embedding is equivariant for (h, g, h): transform, read the pair
    # back off the doubly-symmetric image, and compare discriminants
    for _ in range(20):
        pair = FormPair(*(rng.randint(-3, 3) for _ in range(6)))
        g = random_sl2z(rng)
        h = random_sl2z(rng)
        cube = Cube(*embed_pair_entries(*pair.coefficients())).transformed((h, g, h))
        e = cube.entries()
        assert e[1] == e[3] and e[5] == e[7]  # b1 = b3, d1 = d3
        moved = FormPair(e[0], e[1], e[6], e[2], e[5], e[4])
        assert pair_disc(moved) == pair_disc(pair)


def test_form_pair_from_forms_halves_middle():
    pair = FormPair.from_forms(BQF(1, 2, 3), BQF(4, 6, 8))
    assert pair.coefficients() == (1, 1, 3, 4, 3, 8)
    odd = FormPair.from_forms(BQF(1, 1, 1), BQF(0, 0, 0))
    assert odd.b == Fraction(1, 2)


def test_gram_invariant():
    assert gram_invariant_n(4, (1, 2, 3, 4), (1, 2, 3, 4)) == 0
    v1, v2 = gram_slice(8, 5)
    assert gram_matrix_n(8, v1, v2) == ((10, 0), (0, 6))
    assert gram_invariant_n(8, v1, v2) == 60       # 4 s (j - 1) at j = 4
    assert gram_invariant_n(6, *gram_slice(6, Fraction(-3, 2))) == 8 * Fraction(-3, 2)


def test_gram_errors():
    with pytest.raises(UnsupportedInputError):
        gram_invariant_n(5, (1,) * 5, (1,) * 5)
    with pytest.raises(UnsupportedInputError):
        gram_slice(2, 1)
    with pytest.raises(InputError):
        gram_invariant_n(4, (1, 2), (1, 2, 3, 4))


def test_invariant_233_values():
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert invariant_233(eye, eye) == 0
    assert invariant_233(eye, ((0, 0, 0), (0, 1, 0), (0, 0, 2))) == 4
    repeated = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert invariant_233(eye, repeated) == 0


def test_invariant_233_invariance():
    m = ((1, 2, 0), (0, 1, 3), (1, 0, 1))
    n = ((0, 1, 1), (2, 0, 1), (1, 1, 0))
    base = invariant_233(m, n)

    def mat_mul3(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )

    # SL3 x SL3: M -> g M h, N -> g N h with det g = det h = 1
    g = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    h = ((1, 0, 0), (2, 1, 0), (0, -1, 1))
    assert invariant_233(mat_mul3(g, mat_mul3(m, h)), mat_mul3(g, mat_mul3(n, h))) == base
    # SL2 pencil substitution: (M, N) -> (pM - qN, sN - rM)
    for _ in range(10):
        sl2 = random_sl2z(rng)
        p, q, r, s = sl2.p, sl2.q, sl2.r, sl2.s
        m2 = tuple(tuple(p * m[i][j] - q * n[i][j] for j in range(3)) for i in range(3))
        n2 = tuple(tuple(s * n[i][j] - r * m[i][j] for j in range(3)) for i in range(3))
        assert invariant_233(m2, n2) == base


def test_spherical_check():
    assert spherical_diag_check("A", 1, 3)
    for letter, rank in (("A", 3), ("B", 2), ("C", 3), ("D", 4), ("E", 7), ("F", 4), ("G", 2)):
        assert spherical_diag_check(letter, rank, 2)
    assert not spherical_diag_check("A", 2, 3)
    assert not spherical_diag_check("G", 2, 3)
    assert not spherical_diag_check("A", 1, 4)
    with pytest.raises(InputError):
        spherical_diag_check("H", 3, 2)
    with pytest.raises(InputError):
        spherical_diag_check("E", 5, 2)
    with pytest.raises(InputError):
        spherical_diag_check("A", 1, 1)


def test_pgl2_size():
    for p in (5, 7):
        assert len(pgl2_fp(p)) == p * (p * p - 1)


def test_e2_count_values():
    # separable cubics have 0, 1, or 3 roots
    for d in range(5):
        for e in range(5):
            if quartic_slice_degenerate_fp(5, d, e):
                continue
            assert e2_count_fp(5, d, e) in (1, 2, 4)
    # x^3 + x + 1 is irreducible over F_5
    assert e2_count_fp(5, 1, 1) == 1
    # three rational roots: x^3 - x = x(x-1)(x+1) over F_7
    assert e2_count_fp(7, 6, 0) == 4


def test_quartic_stab_equals_e2():
    for p in (5, 7):
        for d in range(p):
            for e in range(p):
                if quartic_slice_degenerate_fp(p, d, e):
                    continue
                assert quartic_stab_count_fp(p, d, e) == e2_count_fp(p, d, e)


def test_quartic_stab_rejects_bad_prime():
    with pytest.raises(InputError):
        quartic_stab_count_fp(3, 1, 1)


def test_component_containment():
    results = component_containment_check()
    assert len(results) == 5
    assert all(ok for _, ok, _ in results)
