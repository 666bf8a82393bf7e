"""The identity and oracle suite behind `cube-lab verify`.

Every check is exact: symbolic checks canonicalize a polynomial difference to
zero, numeric checks compare rationals or integer counts.  Randomized checks
draw from a seeded generator, so a run is reproducible given the seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import gcd

from . import centralizers, composition, orbits, quadforms, variants
from .conventions import (
    COMPACT_DET_SIGN,
    DIAG_IMAGE_LAST_SIGN,
    DIAG_TRIPLE_FACTOR_DET,
    GRAM_SIGN,
    MOMENT_MIRROR_TWIST,
    THIRD_FORM_IS_INVERSE,
)
from .cubes import (
    GHZ,
    Cube,
    ENTRY_NAMES,
    W,
    act_entries,
    contract_axis,
    det2,
    embed_cubic_entries,
    embed_pair_entries,
    forms_entries,
    gram_det_entries,
    hyperdet_entries,
    kostant_entries,
    slices_entries,
    symplectic_pairing_entries,
    trace_entries,
)
from .quadforms import class_group, compose_dirichlet, form_sub, random_sl2z
from .ring import LaurentRing

DEFAULT_DISCRIMINANTS = (-23, -47, -71, -163, -231)
KNOWN_CLASS_NUMBERS = {-23: 3, -47: 5, -71: 7, -163: 1, -231: 12}
DEFAULT_PRIMES = (3, 5, 7)
SUPPORTED_PRIMES = (3, 5, 7, 11, 13)  # odd primes up to the brute-force oracles' cap of 13


@dataclass
class CheckResult:
    name: str
    status: str  # PASS / FAIL / ERROR (an unexpected exception)
    detail: str
    elapsed: float


class Report:
    def __init__(self):
        self.results: list[CheckResult] = []

    def run(self, name: str, fn) -> None:
        start = time.perf_counter()
        try:
            detail = fn()
            status = "PASS"
            detail = detail or ""
        except AssertionError as exc:
            status = "FAIL"
            detail = str(exc)
        except Exception as exc:
            status = "ERROR"
            detail = f"{type(exc).__name__}: {exc}"
        self.results.append(CheckResult(name, status, detail, time.perf_counter() - start))

    @property
    def ok(self) -> bool:
        return all(r.status == "PASS" for r in self.results)

    def lines(self, timings: bool = False) -> list[str]:
        out = []
        for r in self.results:
            line = f"{r.status:4s} {r.name}"
            if r.detail:
                line += f"  [{r.detail}]"
            if timings:
                line += f"  ({r.elapsed:.3f}s)"
            out.append(line)
        tally = sum(1 for r in self.results if r.status != "PASS")
        out.append(f"{'FAIL' if tally else 'PASS'}: {len(self.results)} checks, {tally} failures")
        return out


def _cube_vars():
    ring = LaurentRing(ENTRY_NAMES)
    return ring, [ring.var(n) for n in ENTRY_NAMES]


# -- symbolic checks -----------------------------------------------------------

def check_common_discriminant():
    _, e = _cube_vars()
    hd = hyperdet_entries(e)
    for i, (a, b, c) in enumerate(forms_entries(e)):
        assert (b * b - 4 * a * c - hd).is_zero(), f"form {i + 1} discriminant differs"
    return "disc(q_i) = hyperdet for i = 1, 2, 3"


def check_compact_form_sign():
    ring = LaurentRing(ENTRY_NAMES + ("x", "y"))
    e = [ring.var(n) for n in ENTRY_NAMES]
    x, y = ring.var("x"), ring.var("y")
    qs = forms_entries(e)
    for i, (m, n) in enumerate(slices_entries(e)):
        pencil = tuple(
            tuple(m[r][c] * x + n[r][c] * y for c in (0, 1)) for r in (0, 1)
        )
        explicit = qs[i][0] * x * x + qs[i][1] * x * y + qs[i][2] * y * y
        assert (det2(pencil) - COMPACT_DET_SIGN * explicit).is_zero(), f"slice {i + 1}"
    return "explicit forms equal +det(M_i x + N_i y)"


def check_gram_sign():
    _, e = _cube_vars()
    assert (gram_det_entries(e) - GRAM_SIGN * hyperdet_entries(e)).is_zero()
    return f"hyperdet_gram = {GRAM_SIGN:+d} * hyperdet"


def check_mod4():
    _, e = _cube_vars()
    tr = trace_entries(e)
    diff = hyperdet_entries(e) - tr * tr
    assert diff.coeffs_divisible_by(4), "hyperdet - trace^2 not divisible by 4"
    return "hyperdet == trace^2 (mod 4)"


def check_kostant_slice():
    ring = LaurentRing(("a",))
    a = ring.var("a")
    kappa = kostant_entries(a * a, ring.zero, ring.one)
    assert (hyperdet_entries(kappa) - 4 * a * a).is_zero(), "hyperdet(kappa(a^2)) != 4a^2"
    for q in forms_entries(kappa):
        assert q[0] == a * a and q[1].is_zero() and q[2] == ring.const(-1), \
            "slice form is not a^2 x^2 - y^2"
    return "hyperdet(kappa(a^2)) = 4a^2; all three forms a^2 x^2 - y^2"


def check_equivariance():
    ring = LaurentRing(ENTRY_NAMES + ("t",))
    e = [ring.var(n) for n in ENTRY_NAMES]
    t = ring.var("t")
    one, zero = ring.one, ring.zero
    ident = ((one, zero), (zero, one))
    gens = (((one, t), (zero, one)), ((one, zero), (t, one)))
    before = forms_entries(e)
    hd = hyperdet_entries(e)
    for gen in gens:
        transposed = ((gen[0][0], gen[1][0]), (gen[0][1], gen[1][1]))
        for factor in range(3):
            triple = [ident, ident, ident]
            triple[factor] = gen
            image = act_entries(tuple(triple), e)
            after = forms_entries(image)
            assert (hyperdet_entries(image) - hd).is_zero(), "hyperdet not invariant"
            for i in range(3):
                expected = form_sub(before[i], transposed) if i == factor else before[i]
                assert all(
                    (x - y).is_zero() for x, y in zip(after[i], expected)
                ), f"factor {factor + 1} does not act as g^T on form {i + 1}"
    return "forms transform by act(g^T, .) factorwise; hyperdet invariant"


def check_moment_map():
    ring, e = _cube_vars()
    qs = forms_entries(e)
    zero, one = ring.zero, ring.one
    basis = (
        ((zero, one), (zero, zero)),
        ((zero, zero), (one, zero)),
        ((one, zero), (zero, -one)),
    )
    half = Fraction(1, 2)
    twist = -1 if MOMENT_MIRROR_TWIST else 1
    for factor in range(3):
        a, b, c = qs[factor]
        # the traceless matrix (m, n; k, -m) of the form (a, twist * b, c)
        m = b * (twist * half)
        mirror = ((m, -c), (a, -m))
        for xi in basis:
            lhs = symplectic_pairing_entries(e, contract_axis(factor, xi, e)) * half
            tr = (mirror[0][0] * xi[0][0] + mirror[0][1] * xi[1][0]
                  + mirror[1][0] * xi[0][1] + mirror[1][1] * xi[1][1])
            assert (lhs - tr).is_zero(), f"moment identity fails in factor {factor + 1}"
    return "omega(C, xi.C)/2 = Tr(matrix of mirror form * xi)"


def _assert_equal(got, want):
    """Entrywise equality of two sequences; a failure lists the nonzero residuals."""
    residuals = [str(x - y) for x, y in zip(got, want) if x != y]
    assert not residuals, "; ".join(residuals)


def check_diagonalization():
    """The base of the slice family is the a^2-line, so the root label a is
    only defined up to the gauge a -> -a; both gauges are checked, each with
    its factor determinant."""
    ring = LaurentRing(("a",), invertible=("a",))
    a = ring.var("a")
    kappa = kostant_entries(a * a, ring.zero, ring.one)
    got, want = [], []
    for root, sign in ((a, DIAG_IMAGE_LAST_SIGN), (-a, -DIAG_IMAGE_LAST_SIGN)):
        g = centralizers.diagonalizing_triple_entries(ring, root)
        got += [det2(g), *act_entries((g, g, g), kappa)]
        want += [ring.const(DIAG_TRIPLE_FACTOR_DET), -4 * a * a, *[ring.zero] * 3,
                 -4 * sign * a ** -1, *[ring.zero] * 3]
    _assert_equal(got, want)
    return ("image is -4(a^2, 0, -1/a, 0); the other root gauge gives "
            "-4(a^2, 0, 1/a, 0); factor determinant -2 recorded")


def check_stabilizer():
    ring = LaurentRing(("a", "al1", "al2"), invertible=("a", "al1", "al2"))
    a, al1, al2 = (ring.var(n) for n in ("a", "al1", "al2"))
    hs = tuple(centralizers.centralizer_entries(a, al) for al in (al1, al2, (al1 * al2) ** -1))
    kappa = kostant_entries(a * a, ring.zero, ring.one)
    _assert_equal(act_entries(hs, kappa), kappa)
    return "h-triples with product-one parameters fix the slice cube"


def check_centralizer_homomorphism():
    ring = LaurentRing(("a", "al", "be"), invertible=("a", "al", "be"))
    a, al, be = (ring.var(n) for n in ("a", "al", "be"))
    ha, hb, hab = (centralizers.centralizer_entries(a, x) for x in (al, be, al * be))
    prod = [ha[i][0] * hb[0][j] + ha[i][1] * hb[1][j] for i in (0, 1) for j in (0, 1)]
    _assert_equal(prod, [x for row in hab for x in row])
    return "h(alpha) h(beta) = h(alpha beta)"


def check_cubic_embedding():
    ring = LaurentRing(("a", "b", "c", "d"))
    a, b, c, d = (ring.var(n) for n in "abcd")
    cube = embed_cubic_entries(a, b, c, d)
    disc = variants.cubic_disc_terms(a, b, c, d)
    assert (hyperdet_entries(cube) - disc).is_zero(), "hyperdet(embed) != cubic disc"
    res = variants.resolvent_terms(a, b, c, d)
    for i, q in enumerate(forms_entries(cube)):
        assert all((x - y).is_zero() for x, y in zip(q, res)), f"form {i + 1} != resolvent"
    rb, rm, rc = res
    assert (rm * rm - 4 * rb * rc - disc).is_zero(), "disc(resolvent) != cubic disc"
    return "disc = hyperdet(embed); resolvent = all three forms; disc(resolvent) = disc"


def check_pair_embedding():
    ring = LaurentRing(("a", "b", "c", "d", "e", "f"))
    a, b, c, d, e, f = (ring.var(n) for n in "abcdef")
    cube = embed_pair_entries(a, b, c, d, e, f)
    disc = variants.pair_disc_terms(a, b, c, d, e, f)
    assert (hyperdet_entries(cube) - disc).is_zero(), "hyperdet(embed) != pair disc"
    qs = forms_entries(cube)
    # the displayed placement (a, (b,d,b), f, (e,c,e)) is symmetric in the
    # outer tensor factors, so the coinciding forms are the first and third
    assert all((x - y).is_zero() for x, y in zip(qs[0], qs[2])), "q1 != q3 on image"
    return "pair_disc = hyperdet(embed); q1 = q3 on doubly-symmetric cubes"


def check_disc_normalization():
    ring = LaurentRing(("a", "b", "c", "d"))
    a, b, c, d = (ring.var(n) for n in "abcd")
    lhs = variants.cubic_disc_terms(a, b, c, d)
    rhs = variants.cubic_disc_general_terms(a, 3 * b, 3 * c, d) * Fraction(-1, 27)
    assert (lhs - rhs).is_zero()
    return "binomial disc = -(1/27) * classical disc at (a, 3b, 3c, d)"


def check_slice_sections():
    ring = LaurentRing(("s", "d", "e"))
    s, d, e = ring.var("s"), ring.var("d"), ring.var("e")
    quarter = Fraction(1, 4)
    disc = variants.cubic_disc_terms(s * (-quarter), ring.zero, ring.one, ring.zero)
    assert (disc + s).is_zero(), "cubic slice disc != -s"
    i, j = variants.quartic_ij_terms(ring.zero, ring.one, ring.zero, d * quarter, e)
    assert (i + d).is_zero() and (j + e).is_zero(), "quartic slice invariants != (-d, -e)"
    pd = variants.pair_disc_terms(s * quarter, ring.zero, ring.one, ring.zero, ring.one, ring.zero)
    assert (pd - s).is_zero(), "pair slice disc != s"
    return "cubic -> -s, quartic -> (-d, -e), pair -> s (signs recorded)"


def check_components():
    for name, ok, residual in variants.component_containment_check():
        assert ok, f"{name}: {residual}"
    return "six equations + ten generators vanish on all five components"


def check_sphericity():
    for (letter, lo, hi) in (("A", 1, 8), ("B", 2, 8), ("C", 3, 8), ("D", 4, 8),
                             ("E", 6, 8), ("F", 4, 4), ("G", 2, 2)):
        for rank in range(lo, hi + 1):
            for j in (2, 3, 4):
                got = variants.spherical_diag_check(letter, rank, j)
                want = j == 2 or (j == 3 and letter == "A" and rank == 1)
                assert got == want, f"({letter}{rank}, j={j}): got {got}"
    return "spherical iff j = 2 (any type) or j = 3 with A1"


SYMBOLIC_CHECKS = (
    ("common-discriminant", check_common_discriminant),
    ("compact-form-sign", check_compact_form_sign),
    ("gram-sign", check_gram_sign),
    ("mod-4-congruence", check_mod4),
    ("kostant-slice", check_kostant_slice),
    ("equivariance", check_equivariance),
    ("moment-map", check_moment_map),
    ("diagonalization", check_diagonalization),
    ("stabilizer-identity", check_stabilizer),
    ("centralizer-homomorphism", check_centralizer_homomorphism),
    ("cubic-embedding", check_cubic_embedding),
    ("pair-embedding", check_pair_embedding),
    ("disc-normalization", check_disc_normalization),
    ("slice-sections", check_slice_sections),
    ("component-containment", check_components),
    ("sphericity-criterion", check_sphericity),
)


# -- orbit checks ---------------------------------------------------------------

def check_orbit_representatives():
    for info in orbits.all_orbit_info():
        got = orbits.classify(info.representative)
        assert got == info.orbit, f"{info.orbit}: classified as {got}"
    assert orbits.classify(GHZ) == orbits.OrbitClass.GENERIC
    assert orbits.classify(W) == orbits.OrbitClass.W
    return "seven classes classify their representatives (and GHZ is generic)"


def make_orbit_invariance_check(rng, translates=100):
    def check():
        for info in orbits.all_orbit_info():
            for _ in range(translates):
                triple = tuple(random_sl2z(rng) for _ in range(3))
                moved = info.representative.transformed(triple)
                got = orbits.classify(moved)
                assert got == info.orbit, f"{info.orbit} translate classified as {got}"
        return f"{translates} random SL2(Z)^3 translates per class"
    return check


def make_generic_iff_det_check(rng, samples=200):
    def check():
        for _ in range(samples):
            cube = Cube(*(rng.randint(-3, 3) for _ in range(8)))
            generic = orbits.classify(cube) == orbits.OrbitClass.GENERIC
            assert generic == (cube.hyperdet() != 0)
        return f"{samples} random cubes"
    return check


def check_closure_order():
    oc = orbits.OrbitClass
    expected = {
        oc.GENERIC: (oc.W,),
        oc.W: (oc.SEP_1, oc.SEP_2, oc.SEP_3),
        oc.SEP_1: (oc.RANK_ONE,),
        oc.SEP_2: (oc.RANK_ONE,),
        oc.SEP_3: (oc.RANK_ONE,),
        oc.RANK_ONE: (oc.ZERO,),
        oc.ZERO: (),
    }
    dims = {oc.GENERIC: 8, oc.W: 7, oc.SEP_1: 5, oc.SEP_2: 5, oc.SEP_3: 5,
            oc.RANK_ONE: 4, oc.ZERO: 0}
    for k, info in ((k, orbits.orbit_info(k)) for k in oc):
        assert info.covers == expected[k], f"{k}: covers {info.covers}"
        assert info.dimension == dims[k], f"{k}: dimension {info.dimension}"
    return "Hasse diagram 8-7-(5,5,5)-4-0 with the correct edges"


# -- composition checks ----------------------------------------------------------

def make_class_number_check(d, group):
    def check():
        table = group(d)
        if d in KNOWN_CLASS_NUMBERS:
            assert table.class_number == KNOWN_CLASS_NUMBERS[d], \
                f"h({d}) = {table.class_number}, expected {KNOWN_CLASS_NUMBERS[d]}"
        assert table.check_group_axioms(), "group axioms fail"
        return f"h({d}) = {table.class_number}; abelian group axioms hold"
    return check


def make_cube_vs_dirichlet_check(d, group):
    def check():
        table = group(d)
        n = table.class_number
        for i in range(n):
            for j in range(n):
                q1, q2 = table.forms[i], table.forms[j]
                cube = composition.cube_from_forms(q1, q2)
                assert cube.hyperdet() == d, "hyperdet != discriminant"
                f1, f2, f3 = cube.forms()
                assert composition.form_class_index(f1, table) == i, "first class moved"
                assert composition.form_class_index(f2, table) == j, "second class moved"
                direct = table.index(compose_dirichlet(q1, q2))
                k3 = composition.form_class_index(f3, table)
                expected = table.inverse(direct) if THIRD_FORM_IS_INVERSE else direct
                assert k3 == expected, "third-form convention violated"
                assert composition.verify_triple_law(cube), "triple law fails"
        return f"all {n * n} pairs agree with the Dirichlet oracle"
    return check


def make_round_trip_check(d, group):
    def check():
        table = group(d)
        for f in table.forms:
            back = composition.ideal_to_form(composition.form_to_ideal(f))
            assert quadforms.is_equivalent(f, back), f"round trip moved {f}"
        return f"ideal round trip fixes all {table.class_number} classes"
    return check


def make_triple_law_check(rng, samples=100):
    def check():
        for _ in range(samples):
            cube = composition.random_primitive_cube(rng)
            assert composition.verify_triple_law(cube), f"triple law fails on {cube}"
        return f"{samples} randomized primitive cubes"
    return check


def make_composition_class_check(rng, d, group, samples=20):
    """compose_dirichlet descends to classes: random translates of inputs."""
    def check():
        table = group(d)
        forms = table.forms
        for _ in range(samples):
            q1 = forms[rng.randrange(len(forms))]
            q2 = forms[rng.randrange(len(forms))]
            g1, g2 = random_sl2z(rng), random_sl2z(rng)
            moved = compose_dirichlet(quadforms.act(g1, q1), quadforms.act(g2, q2))
            assert table.index(moved) == table.index(compose_dirichlet(q1, q2))
        return f"{samples} translate pairs at D = {d}"
    return check


# -- finite-field checks -----------------------------------------------------------

def make_ff_stabilizer_check(p):
    def check():
        split = next(y for y in range(1, p) if centralizers.is_split_fiber(p, y))
        nonsplit = next(y for y in range(1, p) if not centralizers.is_split_fiber(p, y))
        for y, expected in ((split, (p - 1) ** 2), (nonsplit, (p + 1) ** 2)):
            got = centralizers.stabilizer_bruteforce_fp(p, kostant_entries(y, 0, 1))
            assert got == expected, f"kappa({y}) mod {p}: {got} != {expected}"
        return f"split (p-1)^2 = {(p - 1) ** 2}, nonsplit (p+1)^2 = {(p + 1) ** 2}"
    return check


def make_ff_cubic_check(p):
    def check():
        inv4 = pow(4, -1, p)
        for s in range(1, p):
            y = (-s * inv4) % p
            if y == 0:
                continue
            count = centralizers.cubic_stab_bruteforce_fp(p, ((-s * inv4) % p, 0, 1, 0))
            if centralizers.is_split_fiber(p, y):
                expected = gcd(3, p - 1)
            else:
                expected = gcd(3, p + 1)
            assert count == expected, f"s = {s}: {count} != {expected}"
        return f"cubic slice stabilizers match gcd(3, p -/+ 1) for all fibers mod {p}"
    return check


def make_ff_torsion_check(p):
    def check():
        for y in range(p):
            fiber = centralizers.j_fiber_elements(p, y)
            two = sum(1 for u in fiber if centralizers.j_torsion_order(u, 2) in (1, 2))
            assert two == 2, f"J[2] fiber {y}: {two} != 2"
            if y % p:
                three = sum(1 for u in fiber if centralizers.j_torsion_order(u, 3) in (1, 3))
                expected = gcd(3, p - 1) if centralizers.is_split_fiber(p, y) else gcd(3, p + 1)
                assert three == expected, f"J[3] fiber {y}: {three} != {expected}"
        return f"J[2] = 2 on every fiber mod {p}; J[3] counts match the split type"
    return check


def make_ff_quartic_check(p):
    def check():
        checked = 0
        for d in range(p):
            for e in range(p):
                if variants.quartic_slice_degenerate_fp(p, d, e):
                    continue
                stab = variants.quartic_stab_count_fp(p, d, e)
                tors = variants.e2_count_fp(p, d, e)
                assert stab == tors, f"(d, e) = ({d}, {e}): {stab} != {tors}"
                checked += 1
        return f"stabilizer = 2-torsion count on all {checked} nondegenerate fibers mod {p}"
    return check


# -- suite assembly ------------------------------------------------------------------

def run_suite(suite: str = "all", seed: int = 2024, discs=None, primes=None) -> Report:
    report = Report()
    rng = random.Random(seed)
    discs = tuple(discs) if discs else DEFAULT_DISCRIMINANTS
    primes = tuple(primes) if primes else DEFAULT_PRIMES

    if suite in ("symbolic", "all"):
        for name, fn in SYMBOLIC_CHECKS:
            report.run(name, fn)
    if suite in ("orbits", "all"):
        report.run("orbit-representatives", check_orbit_representatives)
        report.run("orbit-invariance", make_orbit_invariance_check(rng))
        report.run("generic-iff-nonzero-det", make_generic_iff_det_check(rng))
        report.run("closure-order", check_closure_order)
    if suite in ("composition", "all"):
        # each class group is built once, by the first check that needs it
        group = lru_cache(maxsize=None)(class_group)
        for d in discs:
            report.run(f"class-group({d})", make_class_number_check(d, group))
            report.run(f"cube-vs-dirichlet({d})", make_cube_vs_dirichlet_check(d, group))
            report.run(f"ideal-round-trip({d})", make_round_trip_check(d, group))
        report.run("composition-on-classes", make_composition_class_check(rng, discs[0], group))
        report.run("triple-law-random", make_triple_law_check(rng))
    if suite in ("ff", "all"):
        for p in primes:
            report.run(f"stabilizer-counts(F_{p})", make_ff_stabilizer_check(p))
            report.run(f"j-torsion(F_{p})", make_ff_torsion_check(p))
            if p != 3:
                report.run(f"cubic-stabilizers(F_{p})", make_ff_cubic_check(p))
        for p in primes:
            if p in (2, 3) or p > 11:
                continue
            report.run(f"quartic-2-torsion(F_{p})", make_ff_quartic_check(p))
    return report
