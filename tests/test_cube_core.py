"""The integer cube core (int numerators over one common denominator)
against the plain Fraction cube it replaced, kept here as the reference."""

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cube_lab.cubes import (
    ENTRY_NAMES,
    Cube,
    act_entries,
    forms_entries,
    gram_det_entries,
    hyperdet_entries,
    slices_entries,
    trace_entries,
)
from cube_lab.orbits import OrbitClass, classify, classify_entries, flattening_ranks
from cube_lab.quadforms import BQF, SL2, frac_to_str


# -- the reference: a cube of eight Fractions --------------------------------


@dataclass(frozen=True)
class RefCube:
    a: Fraction
    b1: Fraction
    b2: Fraction
    b3: Fraction
    c: Fraction
    d1: Fraction
    d2: Fraction
    d3: Fraction

    def __post_init__(self):
        for name in ENTRY_NAMES:
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def entries(self):
        return tuple(getattr(self, name) for name in ENTRY_NAMES)

    def slices(self):
        return slices_entries(self.entries())

    def forms(self):
        return tuple(BQF(*t) for t in forms_entries(self.entries()))

    def hyperdet(self):
        return hyperdet_entries(self.entries())

    def hyperdet_gram(self):
        return gram_det_entries(self.entries())

    def trace_invariant(self):
        return trace_entries(self.entries())

    def transformed(self, triple):
        gs = tuple(g.rows() if isinstance(g, SL2) else g for g in triple)
        return RefCube(*act_entries(gs, self.entries()))

    def to_json(self):
        e = [frac_to_str(x) for x in self.entries()]
        return json.dumps({"a": e[0], "b": e[1:4], "c": e[4], "d": e[5:8]}, sort_keys=True)


def ref_rank_2x4(r0, r1):
    if all(x == 0 for x in r0 + r1):
        return 0
    minors = (r0[i] * r1[j] - r0[j] * r1[i] for i in range(4) for j in range(i + 1, 4))
    return 2 if any(m != 0 for m in minors) else 1


def ref_classify(cube: RefCube) -> OrbitClass:
    if cube.hyperdet() != 0:
        return OrbitClass.GENERIC
    ranks = tuple(ref_rank_2x4(m[0] + m[1], n[0] + n[1]) for m, n in cube.slices())
    if ranks == (0, 0, 0):
        return OrbitClass.ZERO
    if ranks == (1, 1, 1):
        return OrbitClass.RANK_ONE
    ones = [i for i, r in enumerate(ranks) if r == 1]
    if len(ones) == 1:
        return (OrbitClass.SEP_1, OrbitClass.SEP_2, OrbitClass.SEP_3)[ones[0]]
    return OrbitClass.W


# -- strategies ----------------------------------------------------------------

small = st.integers(-6, 6)
fracs = st.fractions(min_value=-6, max_value=6, max_denominator=12)
integral_entries = st.lists(small, min_size=8, max_size=8)
rational_entries = st.lists(fracs, min_size=8, max_size=8)
# rank-one (degenerate) cubes, so every orbit class shows up
pairs = st.tuples(fracs, fracs)
rank_one = st.builds(lambda u, v, w: [u[i] * v[j] * w[k] for i, j, k in
                                      ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                                       (1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0))],
                     pairs, pairs, pairs)
any_entries = integral_entries | rational_entries | rank_one


@st.composite
def integral_sl2(draw):
    g = SL2.identity()
    for t, upper in draw(st.lists(st.tuples(st.integers(-3, 3), st.booleans()), max_size=4)):
        g = g * (SL2(1, t, 0, 1) if upper else SL2(1, 0, t, 1))
    return g


@st.composite
def rational_sl2(draw):
    p = draw(fracs.filter(lambda x: x != 0))
    q, r = draw(fracs), draw(fracs)
    return SL2(p, q, r, (1 + q * r) / p)


singular = st.builds(lambda row, t: (row, (t * row[0], t * row[1])), pairs, fracs)
raw_matrices = st.tuples(pairs, pairs) | singular
triples = (st.tuples(integral_sl2(), integral_sl2(), integral_sl2())
           | st.tuples(rational_sl2(), rational_sl2(), rational_sl2())
           | st.tuples(raw_matrices, raw_matrices, raw_matrices))


def assert_lowest_terms(cube: Cube):
    assert all(type(n) is int for n in cube.numerators)
    assert type(cube.denominator) is int and cube.denominator > 0
    assert gcd(cube.denominator, *cube.numerators) == 1
    assert all(type(x) is Fraction for x in cube.entries())
    assert type(cube.a) is Fraction and type(cube.d3) is Fraction


def assert_same(cube: Cube, ref: RefCube):
    assert_lowest_terms(cube)
    assert cube.entries() == ref.entries()
    assert cube == Cube(*ref.entries()) and hash(cube) == hash(Cube(*ref.entries()))
    assert cube.to_json() == ref.to_json()


# -- the differential tests ------------------------------------------------------


@given(any_entries)
@settings(max_examples=100, deadline=None)
def test_invariants_match_fraction_cube(e):
    cube, ref = Cube(*e), RefCube(*e)
    assert_same(cube, ref)
    assert cube.hyperdet() == ref.hyperdet()
    assert cube.hyperdet_gram() == ref.hyperdet_gram()
    assert cube.trace_invariant() == ref.trace_invariant()
    assert cube.forms() == ref.forms()
    assert cube.slices() == ref.slices()
    for value in (cube.hyperdet(), cube.hyperdet_gram(), cube.trace_invariant()):
        assert type(value) is Fraction
    assert cube.is_integral() == all(x.denominator == 1 for x in ref.entries())


@given(any_entries, triples)
@settings(max_examples=80, deadline=None)
def test_transformed_matches_fraction_cube(e, triple):
    moved, ref = Cube(*e).transformed(triple), RefCube(*e).transformed(triple)
    assert_same(moved, ref)
    assert moved.hyperdet() == ref.hyperdet()


@given(any_entries)
@settings(max_examples=80, deadline=None)
def test_json_round_trip_and_classify_match_fraction_cube(e):
    cube, ref = Cube(*e), RefCube(*e)
    back = Cube.from_json(cube.to_json())
    assert back == cube and hash(back) == hash(cube)
    assert classify(cube) == ref_classify(ref)


@given(st.lists(st.tuples(small, st.integers(1, 6)), min_size=8, max_size=8),
       st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_equal_cubes_spelled_differently(pq, k):
    # "p/q" against "kp/kq", the reduced Fraction, and (for q = 1) the int
    plain = Cube(*(f"{p}/{q}" for p, q in pq))
    spelled = Cube(*(f"{k * p}/{k * q}" for p, q in pq))
    fractions = Cube(*(Fraction(p, q) for p, q in pq))
    assert plain == spelled == fractions
    assert hash(plain) == hash(spelled) == hash(fractions)
    assert_lowest_terms(spelled)
    if all(q == 1 for _, q in pq):
        assert Cube(*(p for p, _ in pq)) == plain


def test_zero_and_integral_cubes_have_denominator_one():
    for zero in (Cube(0, 0, 0, 0, 0, 0, 0, 0), Cube(*["0/5"] * 8),
                 Cube(Fraction(1, 2), 0, 0, 0, 0, 0, 0, 0).transformed(
                     (((0, 0), (0, 0)), SL2.identity(), SL2.identity()))):
        assert zero.numerators == (0,) * 8 and zero.denominator == 1
    cube = Cube("1/2", 0, 0, 0, 0, 0, 0, 0).transformed(
        (SL2(2, 0, 0, Fraction(1, 2)), SL2.identity(), SL2.identity()))
    assert cube.numerators == (1, 0, 0, 0, 0, 0, 0, 0) and cube.denominator == 1
    assert cube.is_integral() and str(cube) == "(1, (0, 0, 0), 0, (0, 0, 0))"


def test_cube_is_immutable():
    cube = Cube(1, 2, 3, 4, 5, 6, 7, 8)
    for name, value in (("a", 2), ("numerators", (0,) * 8), ("denominator", 2)):
        with pytest.raises(AttributeError):
            setattr(cube, name, value)
    assert cube.a / 2 == Fraction(1, 2)


# -- classification on flat entries -------------------------------------------------


@given(any_entries, fracs.filter(lambda x: x != 0))
@settings(max_examples=60, deadline=None)
def test_classify_entries_on_numerators_and_scaled_cubes(e, scale):
    cube = Cube(*e)
    assert classify_entries(cube.numerators) == classify(cube)
    assert classify_entries(cube.entries()) == classify(cube)
    assert flattening_ranks(cube.numerators) == flattening_ranks(cube)
    scaled = Cube(*(x * scale for x in cube.entries()))
    assert classify(scaled) == classify(cube)
    assert flattening_ranks(scaled) == flattening_ranks(cube)
