import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cube_lab.composition import (
    OrientedIdeal,
    QuadraticOrder,
    compose_via_cube,
    cube_from_forms,
    form_class_index,
    form_to_ideal,
    ideal_to_form,
    random_primitive_cube,
    triple_law_holds,
    verify_triple_law,
)
from cube_lab.cubes import GHZ, Cube, embed_cubic_entries, kostant_cube
from cube_lab.errors import InputError, UnsupportedInputError
from cube_lab.quadforms import (
    BQF,
    SL2,
    act,
    class_group,
    compose_dirichlet,
    is_equivalent,
    principal_form,
    random_sl2z,
    reduce,
)
from cube_lab.variants import kostant_cubic, resolvent

rng = random.Random(101)


def test_order_arithmetic():
    order = QuadraticOrder(-23)
    assert order.tau_norm == (23 * 23 + 23) // 4  # (D^2 - D)/4 at D = -23
    e = (2, 3)
    assert order.mul(e, order.conj(e)) == (order.norm(e), 0)
    assert order.trace(e) == 2 * 2 + 3 * (-23)
    # conjugation is an involution
    assert order.conj(order.conj(e)) == e


def test_order_validation():
    with pytest.raises(InputError):
        QuadraticOrder(-5)
    with pytest.raises(InputError):
        QuadraticOrder(12)


def test_principal_ideal_is_whole_order():
    ideal = form_to_ideal(BQF(1, 1, 6))
    assert ideal.norm() == 1


def test_form_ideal_dictionary():
    # (2, 1, 3) at D = -23 gives the lattice [2, 12 + tau] and
    # 12 + tau = (1 + sqrt(-23))/2
    ideal = form_to_ideal(BQF(2, 1, 3))
    assert ideal.basis == ((2, 0), (12, 1))
    assert ideal.norm() == 2
    assert ideal_to_form(ideal) == BQF(2, 1, 3)


def test_round_trip_all_classes():
    for d in (-23, -47, -71):
        for f in class_group(d).forms:
            back = ideal_to_form(form_to_ideal(f))
            assert is_equivalent(f, back)


def test_ideal_orientation_validation():
    order = QuadraticOrder(-23)
    with pytest.raises(InputError):
        OrientedIdeal(order, ((0, 1), (1, 0)))  # negative orientation


def test_ideal_must_be_closed_under_tau():
    # Z + 2 tau Z is a positively oriented lattice of index 2, but tau is not
    # in it; as an "ideal" its norm form would be 1/2x^2 - 23xy + 276y^2
    order = QuadraticOrder(-23)
    with pytest.raises(InputError):
        OrientedIdeal(order, ((1, 0), (0, 2)))
    assert OrientedIdeal(order, ((2, 0), (12, 1))).norm() == 2


def test_cube_from_principal_pair():
    table = class_group(-23)
    e = table.forms[table.identity]
    cube = cube_from_forms(e, e)
    assert cube.hyperdet() == -23
    assert cube.is_integral()
    f1, f2, f3 = cube.forms()
    assert form_class_index(f1, table) == table.identity
    assert form_class_index(f2, table) == table.identity
    assert form_class_index(f3, table) == table.identity


def test_cube_from_square_of_a_class():
    # Cl(-23) is cyclic of order 3: the composition of (2,1,3) with itself is
    # the class of (2,-1,3), so the third form lies in the inverse class (2,1,3)
    table = class_group(-23)
    q = BQF(2, 1, 3)
    cube = cube_from_forms(q, q)
    k3 = form_class_index(cube.forms()[2], table)
    assert table.forms[k3] == BQF(2, 1, 3)
    assert compose_via_cube(q, q) == table.forms[table.index(BQF(2, -1, 3))]


def test_cube_from_inverse_pair():
    table = class_group(-23)
    cube = cube_from_forms(BQF(2, 1, 3), BQF(2, -1, 3))
    assert form_class_index(cube.forms()[2], table) == table.identity


def test_cube_agrees_with_dirichlet_everywhere():
    for d in (-23, -47):
        table = class_group(d)
        for q1 in table.forms:
            for q2 in table.forms:
                via_cube = compose_via_cube(q1, q2)
                direct = table.forms[table.index(compose_dirichlet(q1, q2))]
                assert via_cube == direct


def test_cube_from_forms_validation():
    with pytest.raises(InputError):
        cube_from_forms(BQF(1, 1, 6), BQF(1, 0, 1))  # discriminant mismatch
    with pytest.raises(InputError):
        cube_from_forms(BQF(2, 2, 4), BQF(2, 2, 4))  # imprimitive
    with pytest.raises(InputError):
        cube_from_forms(BQF(-1, 1, -6), BQF(-1, 1, -6))  # negative definite


def test_third_form_examples():
    assert kostant_cube(9).forms()[2] == BQF(9, 0, -1)
    assert GHZ.forms()[2] == BQF(0, 1, 0)
    for s in (2, -3, Fraction(5, 4)):
        f = kostant_cubic(s)
        assert Cube(*embed_cubic_entries(*f.coefficients())).forms()[2] == resolvent(f)


def test_verify_triple_law_on_construction():
    table = class_group(-71)
    for q1 in table.forms[:3]:
        for q2 in table.forms[:3]:
            assert verify_triple_law(cube_from_forms(q1, q2))


def test_verify_triple_law_kostant_family():
    # kappa(s) for s < 0 has all three forms s x^2 - y^2, negative definite
    for s in (-1, -2, -5, -6, -13):
        cube = kostant_cube(s)
        assert verify_triple_law(cube)


def test_verify_triple_law_random():
    for _ in range(25):
        cube = random_primitive_cube(rng)
        assert verify_triple_law(cube)


def test_non_fundamental_discriminants():
    # non-maximal orders: -48 = 4*(-12), -63 = 9*(-7)
    for d in (-48, -63):
        table = class_group(d)
        for i, q1 in enumerate(table.forms):
            for q2 in table.forms:
                cube = cube_from_forms(q1, q2)
                assert cube.hyperdet() == d
                assert form_class_index(cube.forms()[0], table) == i
                assert verify_triple_law(cube)
                assert compose_via_cube(q1, q2) == table.forms[table.index(
                    compose_dirichlet(q1, q2))]


def test_cube_route_matches_dirichlet_at_large_discriminants():
    # 10^6 <= |D| <= 10^8, where no class-group table is built; q2 is an
    # SL2(Z) translate of q1^2, or that times q1, so q2 is rarely reduced
    rng = random.Random(7007)
    pairs = 0
    while pairs < 1000:
        a, c = rng.randint(1, 2000), rng.randint(10 ** 4, 2 * 10 ** 4)
        b = rng.randint(-2 * a, 2 * a)
        if not 10 ** 6 <= 4 * a * c - b * b <= 10 ** 8 or gcd(a, b, c) != 1:
            continue
        q1 = BQF(a, b, c)
        q2 = act(random_sl2z(rng), compose_dirichlet(q1, q1))
        if rng.random() < 0.5:
            q2 = compose_dirichlet(q2, q1)
        assert compose_via_cube(q1, q2) == reduce(compose_dirichlet(q1, q2))[0]
        pairs += 1


def test_verify_triple_law_rejects():
    with pytest.raises(UnsupportedInputError):
        verify_triple_law(GHZ)  # positive discriminant
    with pytest.raises(UnsupportedInputError):
        verify_triple_law(Cube(2, 0, 0, 0, 2, 2, 2, 2))  # imprimitive forms


# -- the table-free triple law against the class-group table -----------------

TRIPLE_DISCRIMINANTS = (-23, -47, -48, -63, -71, -84, -231)


def law_by_table(forms) -> bool:
    """[q1][q2][q3] = 1 read off the full class-group table."""
    table = class_group(int(forms[0].discriminant()))
    i, j, k = (form_class_index(f, table) for f in forms)
    return table.compose(table.compose(i, j), k) == table.identity


@st.composite
def definite_triples(draw):
    """Three definite forms of one discriminant: random classes, moved by
    SL2(Z), each negated (negative definite) or not."""
    D = draw(st.sampled_from(TRIPLE_DISCRIMINANTS))
    forms = class_group(D).forms
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    out = []
    for _ in range(3):
        q = act(random_sl2z(rng), forms[draw(st.integers(0, len(forms) - 1))])
        out.append(-q if draw(st.booleans()) else q)
    return out


@given(definite_triples())
@settings(max_examples=150, deadline=None)
def test_triple_law_holds_matches_table(forms):
    assert triple_law_holds(*forms) == law_by_table(forms)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_verify_triple_law_matches_table_on_cubes(seed):
    cube = random_primitive_cube(random.Random(seed))
    assert verify_triple_law(cube) is True
    assert law_by_table(cube.forms()) is True


def test_triple_law_fails_off_the_identity():
    # (2, 1, 3) has order 3 in Cl(-23), so [q][q][1] = [q]^2 is not 1
    q = BQF(2, 1, 3)
    assert not triple_law_holds(q, q, principal_form(-23))
    assert not law_by_table((q, q, principal_form(-23)))
    assert triple_law_holds(q, q, q)
    # (2, -1, 3) is the inverse; a negated principal form is the identity
    assert triple_law_holds(q, act(SL2(1, 1, 0, 1), BQF(2, -1, 3)), -principal_form(-23))
