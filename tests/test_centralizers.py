import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from cube_lab.centralizers import (
    JElement,
    binary_form_sub_fp,
    centralizer_entries,
    centralizer_matrix,
    cubic_stab_bruteforce_fp,
    diagonalizing_triple_entries,
    is_split_fiber,
    j_fiber_elements,
    j_identity,
    j_inv,
    j_mul,
    j_pow,
    j_torsion_order,
    sl2_fp,
    stabilizer_bruteforce_fp,
)
from cube_lab.cubes import Cube, act_entries, kostant_cube, kostant_entries, rank_one_entries
from cube_lab.errors import InputError
from cube_lab.quadforms import SL2
from cube_lab.ring import LaurentRing
from cube_lab.variants import pgl2_fp
from cube_lab.verify import check_centralizer_homomorphism, check_diagonalization, check_stabilizer

rng = random.Random(3)


def stabilizer_check(triple, cube: Cube) -> bool:
    """Exact componentwise check that the triple fixes the cube."""
    return cube.transformed(triple) == cube


def test_j_element_validation():
    with pytest.raises(InputError):
        JElement(2, 2, 1)  # 4 - 2 != 1
    u = JElement(2, 3, 2)
    assert u.matrix() == ((3, 2), (4, 3))


def test_j_group_law_pell():
    u = JElement(2, 3, 2)
    sq = j_mul(u, u)
    assert (sq.x, sq.b) == (17, 12)
    assert sq.x ** 2 - 2 * sq.b ** 2 == 1
    assert j_mul(u, j_inv(u)).is_identity()
    assert j_mul(j_identity(2), u) == u


def test_j_commutative_and_associative():
    u = JElement(2, 3, 2)
    powers = [j_pow(u, k) for k in range(1, 5)]
    for a in powers:
        for b in powers:
            assert j_mul(a, b) == j_mul(b, a)
            for c in powers:
                assert j_mul(j_mul(a, b), c) == j_mul(a, j_mul(b, c))


def test_j_base_mismatch():
    with pytest.raises(InputError):
        j_mul(JElement(2, 3, 2), JElement(3, 2, 1))


def test_j_fiber_is_abelian_group_fp():
    # full closure / commutativity / inverses on a split and a nonsplit fiber
    for p, y in ((5, 1), (5, 2), (7, 3)):
        fiber = j_fiber_elements(p, y)
        points = {(u.x, u.b) for u in fiber}
        for u in fiber:
            assert (j_inv(u).x, j_inv(u).b) in points
            for v in fiber:
                w = j_mul(u, v)
                assert (w.x, w.b) in points
                assert w == j_mul(v, u)


def test_degenerate_fiber():
    # y = 0: elements (+-1, b), an additive-type family
    u = JElement(0, 1, 5)
    v = JElement(0, -1, 2)
    assert j_mul(u, u) == JElement(0, 1, 10)
    assert j_mul(v, v) == JElement(0, 1, -4)
    assert j_torsion_order(JElement(0, -1, 0), 3) == 2


def test_torsion_orders():
    assert j_torsion_order(j_identity(Fraction(7)), 5) == 1
    assert j_torsion_order(JElement(2, -1, 0), 5) == 2
    assert j_torsion_order(JElement(2, 3, 2), 50) is None
    assert any(j_torsion_order(u, 3) == 3 for u in j_fiber_elements(7, 1))


def test_fiber_sizes():
    for p in (3, 5, 7, 11):
        for y in range(p):
            size = len(j_fiber_elements(p, y))
            if y == 0:
                assert size == 2 * p
            elif is_split_fiber(p, y):
                assert size == p - 1
            else:
                assert size == p + 1


def test_two_torsion_is_mu2():
    for p in (3, 5, 7, 11, 13):
        for y in range(p):
            fiber = j_fiber_elements(p, y)
            assert sum(1 for u in fiber if j_torsion_order(u, 2) in (1, 2)) == 2


def test_three_torsion_counts():
    for p in (5, 7, 13):
        for y in range(1, p):
            fiber = j_fiber_elements(p, y)
            count = sum(1 for u in fiber if j_torsion_order(u, 3) in (1, 3))
            expected = gcd(3, p - 1) if is_split_fiber(p, y) else gcd(3, p + 1)
            assert count == expected


def test_centralizer_matrix_special_values():
    assert centralizer_matrix(3, 1) == SL2.identity()
    assert centralizer_matrix(3, -1) == SL2(-1, 0, 0, -1)
    for a, alpha in ((2, 3), (Fraction(1, 2), Fraction(2, 5)), (7, -4)):
        g = centralizer_matrix(a, alpha)  # SL2 constructor enforces det 1
        assert g.p == g.s
    with pytest.raises(InputError):
        centralizer_matrix(0, 2)
    with pytest.raises(InputError):
        centralizer_matrix(1, 0)


def test_numeric_stabilizer_triple():
    cube = kostant_cube(4)  # a = 2
    triple = tuple(centralizer_matrix(2, al) for al in (2, 3, Fraction(1, 6)))
    assert stabilizer_check(triple, cube)
    bad = tuple(centralizer_matrix(2, al) for al in (2, 3, 4))
    assert not stabilizer_check(bad, cube)


def test_diagonal_stabilizer_of_diagonalized_cube():
    # diag(alpha_i, 1/alpha_i) triples with product 1 fix (a^2, 0, 1/a, 0)
    a = Fraction(2)
    cube = Cube(a * a, 0, 0, 0, 1 / a, 0, 0, 0)
    alphas = (Fraction(2), Fraction(3), Fraction(1, 6))
    triple = tuple(SL2(al, 0, 0, 1 / al) for al in alphas)
    assert stabilizer_check(triple, cube)


def test_identity_triple_stabilizes_everything():
    for _ in range(10):
        cube = Cube(*(rng.randint(-4, 4) for _ in range(8)))
        assert stabilizer_check((SL2.identity(),) * 3, cube)


def test_symbolic_checks():
    check_stabilizer()
    check_centralizer_homomorphism()
    check_diagonalization()
    ring = LaurentRing(["a"], invertible=["a"])
    a = ring.var("a")
    g = diagonalizing_triple_entries(ring, a)
    image = act_entries((g, g, g), kostant_entries(a * a, ring.zero, ring.one))
    assert str(image[0]) == "-4*a^2"
    assert str(image[4]) == "4*a^-1"


def test_j_group_law_modulo_rewriting():
    # the (x, b) group law, re-derived from 2x2 matrix multiplication modulo
    # the defining relations x_i^2 -> 1 + y b_i^2
    from cube_lab.ring import LaurentRing, RewriteRelation

    ring = LaurentRing(["x1", "b1", "x2", "b2", "y"])
    x1, b1, x2, b2, y = (ring.var(n) for n in ("x1", "b1", "x2", "b2", "y"))
    m1 = ((x1, b1), (b1 * y, x1))
    m2 = ((x2, b2), (b2 * y, x2))
    prod = tuple(
        tuple(sum((m1[i][k] * m2[k][j] for k in (0, 1)), ring.zero) for j in (0, 1))
        for i in (0, 1)
    )
    x3 = x1 * x2 + y * b1 * b2
    b3 = x1 * b2 + x2 * b1
    assert prod == ((x3, b3), (b3 * y, x3))
    # det of the product reduces to 1 under both relations
    det = prod[0][0] * prod[1][1] - prod[0][1] * prod[1][0]
    rel1 = RewriteRelation(ring, "x1", 1 + y * b1 ** 2)
    rel2 = RewriteRelation(ring, "x2", 1 + y * b2 ** 2)
    assert rel2.reduce(rel1.reduce(det)) == ring.one


def test_centralizer_matrices_are_root_gauge_stable():
    # h(alpha; -a) = h(1/alpha; a): the (a, alpha) -> (-a, 1/alpha) descent
    ring = LaurentRing(["a", "al"], invertible=["a", "al"])
    a, al = ring.var("a"), ring.var("al")
    flipped = centralizer_entries(-a, al)
    inverted = centralizer_entries(a, al ** -1)
    for i in (0, 1):
        for j in (0, 1):
            assert flipped[i][j] == inverted[i][j]


def test_sl2_fp_sizes():
    for p in (3, 5, 7):
        assert len(sl2_fp(p)) == p * (p * p - 1)


def test_finite_groups_built_once_per_prime():
    for build in (sl2_fp, pgl2_fp):
        for p in (5, 7):
            assert build(p) is build(p)
            assert isinstance(build(p), tuple)


def test_stabilizer_counts_small_primes():
    for p in (3, 5):
        split = next(y for y in range(1, p) if is_split_fiber(p, y))
        nonsplit = next(y for y in range(1, p) if not is_split_fiber(p, y))
        k = [int(v) for v in kostant_cube(split).entries()]
        assert stabilizer_bruteforce_fp(p, k) == (p - 1) ** 2
        k = [int(v) for v in kostant_cube(nonsplit).entries()]
        assert stabilizer_bruteforce_fp(p, k) == (p + 1) ** 2


def test_stabilizer_zero_cube():
    assert stabilizer_bruteforce_fp(3, [0] * 8) == 24 ** 3


_SL2_F3 = [((a, b), (c, d)) for a, b, c, d in product(range(3), repeat=4)
           if (a * d - b * c) % 3 == 1]
# weighted towards zero, so that zero and degenerate cubes occur often
_ENTRY_MOD3 = st.sampled_from((0, 0, 0, 1, 2, -1, 4))
_PAIR_MOD3 = st.tuples(_ENTRY_MOD3, _ENTRY_MOD3)


@given(st.one_of(
    st.lists(_ENTRY_MOD3, min_size=8, max_size=8),
    st.builds(lambda u, v, w: list(rank_one_entries(u, v, w)), _PAIR_MOD3, _PAIR_MOD3, _PAIR_MOD3),
))
@example([0, 0, 0, 0, 0, 1, 0, 1])  # forms 1 and 3 vanish, form 2 is -y^2: S_2 != S_3
@settings(max_examples=15, deadline=None)
def test_stabilizer_matches_full_search_mod3(cube):
    # every one of the 24^3 triples of SL2(F_3)^3, tested on the whole cube
    target = [x % 3 for x in cube]
    expected = sum(1 for gs in product(_SL2_F3, repeat=3)
                   if [x % 3 for x in act_entries(gs, target)] == target)
    assert stabilizer_bruteforce_fp(3, cube) == expected


def test_stabilizer_prime_cap():
    with pytest.raises(InputError):
        stabilizer_bruteforce_fp(17, [0] * 8)


def test_cubic_stab_counts():
    # slice with base parameter y = -s/4; split iff y is a nonzero square
    assert cubic_stab_bruteforce_fp(7, (1, 0, 1, 0)) == 3   # y = 1 at s = -4
    assert cubic_stab_bruteforce_fp(5, (1, 0, 1, 0)) == 1   # gcd(3, 4) = 1
    with pytest.raises(InputError):
        cubic_stab_bruteforce_fp(3, (1, 0, 1, 0))
    with pytest.raises(InputError):
        cubic_stab_bruteforce_fp(17, (1, 0, 1, 0))


def test_cubic_oracle_runs_without_variants():
    # the oracle reads its resolvent off the cube; variants imports
    # centralizers, so the reverse import would be a cycle
    code = ("import sys; from cube_lab import centralizers; "
            "assert centralizers.cubic_stab_bruteforce_fp(5, (1, 0, 1, 0)) == 1; "
            "assert 'cube_lab.variants' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_cubic_stab_degenerate_is_report_only():
    # triple root: the count is whatever it is, just well-defined
    count = cubic_stab_bruteforce_fp(5, (1, 0, 0, 0))
    assert count >= 1


@given(st.sampled_from((5, 7, 11, 13)), st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_binary_form_sub_fp_matches_pointwise_substitution(p, n, data):
    # a form of degree n < p is fixed by its values on F_p^2, so agreeing
    # at every point means agreeing coefficientwise
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=n + 1, max_size=n + 1))
    g11, g12, g21, g22 = g = data.draw(st.tuples(*[st.integers(0, p - 1)] * 4))
    got = binary_form_sub_fp(coeffs, g, p)
    assert len(got) == n + 1 and all(0 <= c < p for c in got)

    def value(cs, x, y):
        return sum(c * x ** (n - k) * y ** k for k, c in enumerate(cs)) % p

    for x in range(p):
        for y in range(p):
            # (x, y).g = (g11 x + g21 y, g12 x + g22 y)
            assert value(got, x, y) == value(coeffs, g11 * x + g21 * y, g12 * x + g22 * y)
