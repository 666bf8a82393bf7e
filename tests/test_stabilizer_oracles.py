"""The F_p stabilizer oracles against plain full searches.

The references below are the oracles as they were before their candidates
came from fibers of J: each factor of a cube stabilizer filtered from all of
SL2(F_p), the cubic tested on all of SL2(F_p) and the quartic on all of
PGL2(F_p), each with the full substitution."""

import random
from collections import Counter
from itertools import product

from hypothesis import assume, example, given, settings, strategies as st

from cube_lab.centralizers import (
    binary_form_sub_fp,
    cubic_stab_bruteforce_fp,
    form_stabilizer_fp,
    j_fiber_elements,
    sl2_fp,
    stabilizer_bruteforce_fp,
)
from cube_lab.cubes import (
    act_entries,
    contract_axis,
    forms_entries,
    kostant_entries,
    rank_one_entries,
)
from cube_lab.orbits import all_orbit_info
from cube_lab.quadforms import form_sub, random_sl2z
from cube_lab.variants import pgl2_fp, quartic_slice_degenerate_fp, quartic_stab_count_fp

PRIMES = (5, 7, 11, 13)


# -- references -----------------------------------------------------------------

def reference_j_fiber(p, y):
    return {(x, b) for x in range(p) for b in range(p) if (x * x - y * b * b) % p == 1 % p}


def reference_form_stabilizer(q, p):
    q = tuple(v % p for v in q)
    return {g for g in sl2_fp(p)
            if tuple(v % p for v in form_sub(q, ((g[0], g[2]), (g[1], g[3])))) == q}


def reference_cube_count(p, cube):
    entries = tuple(x % p for x in cube)
    s1, s2, s3 = ([((a, b), (c, d)) for a, b, c, d in reference_form_stabilizer(q, p)]
                  for q in forms_entries(entries))

    def moved(axis, g, xs):
        return tuple(x % p for x in contract_axis(axis, g, xs))

    third = Counter(moved(2, g3, entries) for g3 in s3)
    firsts = [moved(0, g1, entries) for g1 in s1]
    return sum(third[moved(1, g2, e)] for e in firsts for g2 in s2)


def reference_cubic_count(p, cubic):
    a, b, c, d = (x % p for x in cubic)
    plain = (a, 3 * b % p, 3 * c % p, d)
    return sum(1 for g in sl2_fp(p) if binary_form_sub_fp(plain, g, p) == plain)


def reference_quartic_count(p, d, e):
    coeffs = (0, 4 % p, 0, 4 * d % p, 4 * e % p)
    count = 0
    for g in pgl2_fp(p):
        det = (g[0] * g[3] - g[1] * g[2]) % p
        scale = pow(det * det % p, -1, p)
        if tuple(v * scale % p for v in binary_form_sub_fp(coeffs, g, p)) == coeffs:
            count += 1
    return count


# -- J's fiber and the form stabilizers -------------------------------------------

def test_j_fiber_matches_double_loop():
    for p in (2, 3, 5, 7, 11, 13):
        for y in range(p):
            points = [(u.x, u.b) for u in j_fiber_elements(p, y)]
            assert len(points) == len(set(points))
            assert set(points) == reference_j_fiber(p, y), (p, y)


def test_form_stabilizer_matches_sl2_filter_exhaustive():
    # every form at p <= 7, degenerate ones (and p = 2) on the filter path
    for p in (2, 3, 5, 7):
        for q in product(range(p), repeat=3):
            got = form_stabilizer_fp(q, p)
            assert len(got) == len(set(got))
            assert set(got) == reference_form_stabilizer(q, p), (p, q)


def test_form_stabilizer_size_is_p_minus_legendre():
    for p in (3, 5, 7, 11, 13):
        for q in product(range(p), repeat=3):
            a, b, c = q
            disc = (b * b - 4 * a * c) % p
            if disc:
                legendre = 1 if pow(disc, (p - 1) // 2, p) == 1 else -1
                assert len(form_stabilizer_fp(q, p)) == p - legendre


@given(st.sampled_from((11, 13)), st.tuples(*[st.integers(-50, 50)] * 3))
@example(11, (1, 0, 1))
@example(13, (0, 1, 0))
@settings(max_examples=30, deadline=None)
def test_form_stabilizer_matches_sl2_filter(p, q):
    got = form_stabilizer_fp(q, p)
    assert len(got) == len(set(got))
    assert set(got) == reference_form_stabilizer(q, p)


# -- the three oracles ------------------------------------------------------------

# weighted towards zero, so that degenerate inputs occur often
_ENTRY = st.sampled_from((0, 0, 0, 1, -1, 2, 3, -5, 7))
_PAIR = st.tuples(_ENTRY, _ENTRY)
_NULLCONE = [info.representative.numerators for info in all_orbit_info()
             if info.representative.hyperdet() == 0]


def _moved_cube(entries, seed):
    rng = random.Random(seed)
    triple = tuple(random_sl2z(rng).rows() for _ in range(3))
    return list(act_entries(triple, list(entries)))


_CUBES = st.one_of(
    st.lists(_ENTRY, min_size=8, max_size=8),
    st.builds(lambda u, v, w: list(rank_one_entries(u, v, w)), _PAIR, _PAIR, _PAIR),
    st.builds(_moved_cube, st.sampled_from(_NULLCONE), st.integers(0, 10 ** 6)),
    st.builds(lambda y: list(kostant_entries(y, 0, 1)), st.integers(0, 12)),
)


@given(st.sampled_from(PRIMES), _CUBES)
@example(5, [0] * 8)
@example(5, [1, 0, 0, 0, 0, 0, 0, 0])
@example(5, [0, 0, 0, 0, 0, 1, 0, 1])
@example(11, [1, 0, 0, 0, 1, 0, 0, 0])
@example(13, [0, 0, 0, 0, 0, 1, 1, 1])
@example(13, [1, 0, 0, 0, 0, 1, 1, 1])
@settings(max_examples=40, deadline=None)
def test_cube_stabilizer_matches_reference(p, cube):
    # two vanishing forms leave two factors all of SL2(F_p), about p^6
    # contractions; such cubes (zero and rank one among them) run at p = 5
    assume(p == 5 or sum(not any(x % p for x in q) for q in forms_entries(cube)) < 2)
    assert stabilizer_bruteforce_fp(p, cube) == reference_cube_count(p, cube)


def test_cube_stabilizer_matches_reference_on_separable_cubes():
    # two forms vanish on each SEP representative, a different pair for
    # each, so the oracle's lone axis and double loop differ between them
    seps = [info.representative.numerators for info in all_orbit_info()
            if str(info.orbit).startswith("SEP")]
    assert len(seps) == 3
    for p in (5, 7):
        for entries in seps:
            moved = [int(x) for x in _moved_cube(entries, p)]
            for cube in (list(entries), moved):
                assert stabilizer_bruteforce_fp(p, cube) == reference_cube_count(p, cube)


def _double_root_cubic(u, v, r, s):
    """(v x - u y)^2 (r x + s y), as binomial coefficients of three times it
    (3 is invertible at every prime used here); its disc is 0 over Z."""
    plain = (v * v * r, v * v * s - 2 * u * v * r, u * u * r - 2 * u * v * s, u * u * s)
    return (3 * plain[0], plain[1], plain[2], 3 * plain[3])


_CUBICS = st.one_of(
    st.tuples(*[st.integers(-20, 20)] * 4),
    st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY),
    st.builds(_double_root_cubic, _ENTRY, _ENTRY, _ENTRY, _ENTRY),
)


@given(st.sampled_from(PRIMES), _CUBICS)
@example(5, (0, 0, 0, 0))
@example(7, (1, 0, 0, 0))
@example(11, (0, 1, 0, 0))
@settings(max_examples=60, deadline=None)
def test_cubic_stabilizer_matches_reference(p, cubic):
    assert cubic_stab_bruteforce_fp(p, cubic) == reference_cubic_count(p, cubic)


def test_cubic_stabilizer_matches_reference_on_every_slice_fiber():
    for p in (5, 7):
        for y in range(p):
            for cubic in ((y, 0, 1, 0), (1, 0, y, 0), (y, 1, 0, 1)):
                assert cubic_stab_bruteforce_fp(p, cubic) == reference_cubic_count(p, cubic)


@given(st.sampled_from(PRIMES), st.data())
@settings(max_examples=25, deadline=None)
def test_quartic_stabilizer_matches_reference(p, data):
    d = data.draw(st.integers(0, p - 1))
    degenerate = data.draw(st.booleans())
    es = [e for e in range(p) if quartic_slice_degenerate_fp(p, d, e) == degenerate]
    e = data.draw(st.sampled_from(es or list(range(p))))
    assert quartic_stab_count_fp(p, d, e) == reference_quartic_count(p, d, e)


def test_quartic_stabilizer_matches_reference_on_every_fiber_mod_5_and_7():
    for p in (5, 7):
        for d in range(p):
            for e in range(p):
                assert quartic_stab_count_fp(p, d, e) == reference_quartic_count(p, d, e)
