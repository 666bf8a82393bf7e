"""Acceptance suite: one test per criterion, each printed as a pass/fail line
with its elapsed time and checked against its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison is exact; the only tolerances are the runtime caps.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from cube_lab import centralizers, composition, orbits, variants, verify
from cube_lab.conventions import GRAM_SIGN, THIRD_FORM_IS_INVERSE
from cube_lab.cubes import (
    ENTRY_NAMES,
    act_entries,
    forms_entries,
    gram_det_entries,
    hyperdet_entries,
    kostant_cube,
    trace_entries,
)
from cube_lab.quadforms import class_group, compose_dirichlet, random_sl2z
from cube_lab.ring import LaurentRing

SEED = 20240


@contextmanager
def budget(name: str, seconds: float):
    start = time.perf_counter()
    try:
        yield
    except AssertionError as exc:
        print(f"FAIL {name}: {exc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS {name} ({elapsed:.2f}s, budget {seconds:g}s)")
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget ({elapsed:.2f}s)"


def test_c01_common_discriminant():
    with budget("criterion-01 common-discriminant", 5.0):
        ring = LaurentRing(ENTRY_NAMES)
        e = [ring.var(n) for n in ENTRY_NAMES]
        hd = hyperdet_entries(e)
        for a, b, c in forms_entries(e):
            assert (b * b - 4 * a * c - hd).is_zero()


def test_c02_kostant_slice():
    with budget("criterion-02 kostant-slice", 1.0):
        ring = LaurentRing(("a",))
        a = ring.var("a")
        kappa = [a * a] + [ring.zero] * 3 + [ring.zero, ring.one, ring.one, ring.one]
        assert (hyperdet_entries(kappa) - 4 * a * a).is_zero()
        for q in forms_entries(kappa):
            assert q[0] == a * a and q[1].is_zero() and q[2] == ring.const(-1)


def test_c03_diagonalization_anchor():
    with budget("criterion-03 diagonalization", 5.0):
        verify.check_diagonalization()
        ring = LaurentRing(["a"], invertible=["a"])
        a = ring.var("a")
        kappa = [a * a] + [ring.zero] * 4 + [ring.one] * 3
        # root-a gauge: -4(a^2, 0, -1/a, 0)
        g = centralizers.diagonalizing_triple_entries(ring, a)
        image = act_entries((g, g, g), kappa)
        assert image[0] == -4 * a * a
        assert image[4] == 4 * a.monomial_inverse()
        # the verbatim -4(a^2, 0, 1/a, 0) holds in the root(-a) gauge: the
        # triple with all factors (-1, -1/a; -a, 1)
        g = centralizers.diagonalizing_triple_entries(ring, -a)
        verbatim = act_entries((g, g, g), kappa)
        assert verbatim[0] == -4 * a * a
        assert verbatim[4] == -4 * a.monomial_inverse()
        assert all(verbatim[i].is_zero() for i in (1, 2, 3, 5, 6, 7))
        # normalization fact recorded in the conventions: determinant -2
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        assert det == ring.const(-2)


def test_c04_stabilizer_identity():
    with budget("criterion-04 stabilizer-identity", 10.0):
        verify.check_stabilizer()


def test_c05_orbit_classifier():
    with budget("criterion-05 orbit-classifier", 10.0):
        rng = random.Random(SEED)
        for info in orbits.all_orbit_info():
            assert orbits.classify(info.representative) == info.orbit
            for _ in range(100):
                triple = tuple(random_sl2z(rng) for _ in range(3))
                moved = info.representative.transformed(triple)
                assert orbits.classify(moved) == info.orbit


def test_c06_mod4_congruence():
    with budget("criterion-06 mod-4", 1.0):
        ring = LaurentRing(ENTRY_NAMES)
        e = [ring.var(n) for n in ENTRY_NAMES]
        tr = trace_entries(e)
        assert (hyperdet_entries(e) - tr * tr).coeffs_divisible_by(4)


def test_c07_gram_formulation():
    with budget("criterion-07 gram-sign", 5.0):
        ring = LaurentRing(ENTRY_NAMES)
        e = [ring.var(n) for n in ENTRY_NAMES]
        assert GRAM_SIGN in (1, -1)
        assert (gram_det_entries(e) - GRAM_SIGN * hyperdet_entries(e)).is_zero()


def test_c08_composition_sweep():
    with budget("criterion-08 composition-sweep", 30.0):
        expected_h = {-23: 3, -47: 5, -71: 7, -163: 1, -231: 12}
        for d, h in expected_h.items():
            table = class_group(d)
            assert table.class_number == h, f"h({d}) = {table.class_number}"
            assert table.check_group_axioms()
            n = table.class_number
            for i in range(n):
                for j in range(n):
                    q1, q2 = table.forms[i], table.forms[j]
                    cube = composition.cube_from_forms(q1, q2)
                    assert cube.hyperdet() == d
                    f1, f2, f3 = cube.forms()
                    assert composition.form_class_index(f1, table) == i
                    assert composition.form_class_index(f2, table) == j
                    k3 = composition.form_class_index(f3, table)
                    direct = table.index(compose_dirichlet(q1, q2))
                    expected = table.inverse(direct) if THIRD_FORM_IS_INVERSE else direct
                    assert k3 == expected, "global composition convention violated"


def test_c09_triple_law():
    with budget("criterion-09 triple-law", 30.0):
        rng = random.Random(SEED + 1)
        for _ in range(100):
            cube = composition.random_primitive_cube(rng)
            assert composition.verify_triple_law(cube), f"fails on {cube}"


def test_c10_variant_identities():
    with budget("criterion-10 variant-identities", 10.0):
        ring = LaurentRing(("a", "b", "c", "d"))
        a, b, c, d = (ring.var(n) for n in "abcd")
        cube = (a, b, b, b, d, c, c, c)
        disc = variants.cubic_disc_terms(a, b, c, d)
        assert (hyperdet_entries(cube) - disc).is_zero()
        res = variants.resolvent_terms(a, b, c, d)
        for q in forms_entries(cube):
            assert all((x - y).is_zero() for x, y in zip(q, res))
        assert (res[1] * res[1] - 4 * res[0] * res[2] - disc).is_zero()
        general = variants.cubic_disc_general_terms(a, 3 * b, 3 * c, d)
        assert (disc - general * Fraction(-1, 27)).is_zero()
        ring6 = LaurentRing(("a", "b", "c", "d", "e", "f"))
        a6, b6, c6, d6, e6, f6 = (ring6.var(n) for n in "abcdef")
        pair_cube = (a6, b6, d6, b6, f6, e6, c6, e6)
        assert (hyperdet_entries(pair_cube)
                - variants.pair_disc_terms(a6, b6, c6, d6, e6, f6)).is_zero()


def test_c11_finite_field_centralizer_counts():
    with budget("criterion-11 finite-field-counts", 60.0):
        for p in (3, 5, 7):
            split = next(y for y in range(1, p) if centralizers.is_split_fiber(p, y))
            nonsplit = next(y for y in range(1, p) if not centralizers.is_split_fiber(p, y))
            k = [int(v) for v in kostant_cube(split).entries()]
            assert centralizers.stabilizer_bruteforce_fp(p, k) == (p - 1) ** 2
            k = [int(v) for v in kostant_cube(nonsplit).entries()]
            assert centralizers.stabilizer_bruteforce_fp(p, k) == (p + 1) ** 2
        for p in (5, 7):
            inv4 = pow(4, -1, p)
            for s in range(1, p):
                y = (-s * inv4) % p
                if y == 0:
                    continue
                count = centralizers.cubic_stab_bruteforce_fp(p, ((-s * inv4) % p, 0, 1, 0))
                if centralizers.is_split_fiber(p, y):
                    assert count == gcd(3, p - 1)
                else:
                    assert count == gcd(3, p + 1)


def test_c12_quartic_e2_agreement():
    with budget("criterion-12 quartic-2-torsion", 60.0):
        for p in (5, 7):
            for d in range(p):
                for e in range(p):
                    if variants.quartic_slice_degenerate_fp(p, d, e):
                        continue
                    assert (variants.quartic_stab_count_fp(p, d, e)
                            == variants.e2_count_fp(p, d, e)), (p, d, e)


def test_c13_component_containment():
    with budget("criterion-13 component-containment", 5.0):
        results = variants.component_containment_check()
        assert len(results) == 5
        for name, ok, residual in results:
            assert ok, f"{name}: {residual}"


def test_c14_sphericity_criterion():
    with budget("criterion-14 sphericity", 1.0):
        ranks = {"A": range(1, 9), "B": range(2, 9), "C": range(3, 9),
                 "D": range(4, 9), "E": (6, 7, 8), "F": (4,), "G": (2,)}
        for letter, rr in ranks.items():
            for rank in rr:
                for j in (2, 3, 4, 5):
                    got = variants.spherical_diag_check(letter, rank, j)
                    want = j == 2 or (j == 3 and letter == "A" and rank == 1)
                    assert got == want, (letter, rank, j, got)


def test_full_verify_suite_passes():
    # the CLI-facing aggregation of everything above
    report = verify.run_suite("all", seed=SEED)
    failures = [r for r in report.results if r.status == "FAIL"]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]
