import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cube_lab.errors import InputError, InternalError, UnsupportedInputError
from cube_lab.quadforms import (
    BQF,
    SL2,
    _bezout,
    _crt,
    _frac,
    _require_reducible,
    act,
    class_group,
    compose_dirichlet,
    form_from_sl2,
    form_sub,
    is_equivalent,
    is_reduced,
    principal_form,
    random_sl2z,
    reduce,
    reduced_forms,
    sl2_from_form,
)

rng = random.Random(11)


def small_sl2_words(bound: int = 3):
    """All integral SL2 matrices with entries bounded by `bound`."""
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            for r in range(-bound, bound + 1):
                for s in range(-bound, bound + 1):
                    if p * s - q * r == 1:
                        yield SL2(p, q, r, s)


def test_discriminant():
    assert BQF(1, 1, 6).discriminant() == -23
    assert BQF(1, 0, 0).discriminant() == 0


def test_form_matrix_dictionary():
    # the traceless matrix (0, 1; s, 0) carries the form s x^2 - y^2
    for s in (4, 9, Fraction(1, 4)):
        q = form_from_sl2(0, 1, s)
        assert q == BQF(s, 0, -1)
        assert q.discriminant() == 4 * s  # equals -4 det
    assert form_from_sl2(0, 0, 0) == BQF(0, 0, 0)
    assert form_from_sl2(1, 0, 0) == BQF(0, 2, 0)  # diag(1, -1) <-> 2xy


def test_dictionary_round_trip():
    for _ in range(20):
        q = BQF(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        m, n, k, neg = sl2_from_form(q)
        assert neg == -m
        assert form_from_sl2(m, n, k) == q
        assert q.discriminant() == -4 * (m * (-m) - n * k)


def test_form_from_sl2_rejects_trace():
    with pytest.raises(InputError):
        form_from_sl2(1, 2, 3, neg_m=5)


def test_act_identity_and_swap():
    q = BQF(3, -2, 7)
    assert act(SL2.identity(), q) == q
    assert act(SL2(0, 1, -1, 0), q) == BQF(7, 2, 3)  # (a,b,c) -> (c,-b,a)


def test_act_is_left_action_preserving_discriminant():
    for _ in range(30):
        q = BQF(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        g, h = random_sl2z(rng), random_sl2z(rng)
        assert act(g, q).discriminant() == q.discriminant()
        assert act(g * h, q) == act(g, act(h, q))


def test_reduce_already_reduced():
    red, g = reduce(BQF(1, 1, 6))
    assert red == BQF(1, 1, 6)
    assert g == SL2.identity()


def test_reduce_swap_case():
    red, g = reduce(BQF(6, -1, 1))
    assert red == BQF(1, 1, 6)
    assert act(g, BQF(6, -1, 1)) == red


def test_reduce_with_bruteforce_oracle():
    q = BQF(3, 1, 2)
    red, g = reduce(q)
    assert red == BQF(2, -1, 3)
    assert act(g, q) == red
    # independent oracle: some small SL2(Z) word sends q to the reduced form
    assert any(act(w, q) == red for w in small_sl2_words(2))


def test_reduce_idempotent_and_unique():
    for _ in range(40):
        a, b = rng.randint(1, 12), rng.randint(-12, 12)
        c = rng.randint(1, 12)
        q = BQF(a, b, c)
        if q.discriminant() >= 0 or not q.is_primitive():
            continue
        red, g = reduce(q)
        assert is_reduced(red)
        assert reduce(red)[0] == red
        assert act(g, q) == red


def test_reduce_rejects_bad_input():
    with pytest.raises(UnsupportedInputError):
        reduce(BQF(1, 5, 1))  # positive discriminant
    with pytest.raises(UnsupportedInputError):
        reduce(BQF(2, 2, 4))  # imprimitive
    with pytest.raises(UnsupportedInputError):
        reduce(BQF(-1, 0, -1))  # negative definite


def test_equivalence():
    assert is_equivalent(BQF(1, 1, 6), BQF(1, 1, 6))
    assert not is_equivalent(BQF(2, 1, 3), BQF(2, -1, 3))
    for _ in range(20):
        q = BQF(2, 1, 3)
        assert is_equivalent(q, act(random_sl2z(rng), q))
    # discriminant mismatch is False, not an error
    assert not is_equivalent(BQF(1, 1, 6), BQF(1, 0, 1))


def test_compose_dirichlet_identity_and_inverse():
    e = BQF(1, 1, 6)
    q = BQF(2, 1, 3)
    qbar = BQF(2, -1, 3)
    assert is_equivalent(compose_dirichlet(e, q), q)
    assert is_equivalent(compose_dirichlet(q, qbar), e)
    assert is_equivalent(compose_dirichlet(q, q), qbar)  # Cl(-23) = Z/3


def test_compose_dirichlet_well_defined_on_classes():
    q1, q2 = BQF(2, 1, 3), BQF(2, -1, 3)
    base = reduce(compose_dirichlet(q1, q2))[0]
    for _ in range(15):
        moved = compose_dirichlet(act(random_sl2z(rng), q1), act(random_sl2z(rng), q2))
        assert reduce(moved)[0] == base


def test_compose_dirichlet_rejects():
    with pytest.raises(InputError):
        compose_dirichlet(BQF(1, 1, 6), BQF(1, 0, 1))
    with pytest.raises(InputError):
        compose_dirichlet(BQF(2, 2, 4), BQF(2, 2, 4))


def test_class_group_minus_23():
    table = class_group(-23)
    assert [f.coefficients() for f in table.forms] == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]
    assert table.class_number == 3
    assert table.forms[table.identity] == BQF(1, 1, 6)
    assert table.check_group_axioms()
    # (a, -b, c) represents the inverse class
    for i, f in enumerate(table.forms):
        assert table.compose(i, table.index(BQF(f.a, -f.b, f.c))) == table.identity


def test_small_class_groups():
    assert [f.coefficients() for f in reduced_forms(-4)] == [(1, 0, 1)]
    assert [f.coefficients() for f in reduced_forms(-3)] == [(1, 1, 1)]
    assert principal_form(-4) == BQF(1, 0, 1)


def test_class_numbers():
    for d, h in ((-23, 3), (-47, 5), (-71, 7), (-163, 1), (-231, 12)):
        assert len(reduced_forms(d)) == h


def test_class_group_rejects():
    with pytest.raises(InputError):
        class_group(-5)  # not 0, 1 mod 4
    with pytest.raises(InputError):
        class_group(23)


def test_sl2_validation():
    with pytest.raises(InputError):
        SL2(1, 0, 0, 2)
    g = SL2(2, 1, 1, 1)
    assert g.inverse() * g == SL2.identity()
    assert g.transpose() == SL2(2, 1, 1, 1).transpose()


def test_json_round_trip():
    q = BQF(Fraction(1, 2), -3, Fraction(7, 5))
    assert BQF.from_json(q.to_json()) == q
    with pytest.raises(InputError):
        BQF.from_json("{}")


def test_str():
    assert str(BQF(Fraction(-1, 4), 0, -1)) == "-1/4x^2 - y^2"
    assert str(BQF(0, 1, 0)) == "xy"
    assert str(BQF(0, 0, 0)) == "0"


fracs = st.fractions(min_value=-10, max_value=10, max_denominator=6)


@given(st.tuples(fracs, fracs, fracs), st.tuples(fracs, fracs, fracs, fracs), fracs, fracs)
@settings(max_examples=80, deadline=None)
def test_form_sub_matches_evaluation(q, g, x, y):
    p, q_, r, s = g
    image = BQF(*form_sub(q, ((p, q_), (r, s))))
    # q(v.g) at the row vector v = (x, y): v.g = (px + ry, qx + sy)
    assert image(x, y) == BQF(*q)(p * x + r * y, q_ * x + s * y)


# -- the integer core against the Fraction reduction and composition it
# replaced, kept here as test-only references -------------------------------

def reference_reduce(q: BQF) -> tuple[BQF, SL2]:
    _require_reducible(q)
    g = SL2.identity()
    cur = q
    swap = SL2(0, 1, -1, 0)  # (a, b, c) -> (c, -b, a)
    while True:
        a, b, c = cur.a, cur.b, cur.c
        if abs(b) > a:
            r = (a - b) // (2 * a)
            t = SL2(1, 0, r, 1)
            cur = act(t, cur)
            g = t * g
            continue
        if a > c:
            cur = act(swap, cur)
            g = swap * g
            continue
        break
    a, b, c = cur.a, cur.b, cur.c
    if b < 0 and (-b == a or a == c):
        t = SL2(1, 0, 1, 1) if -b == a else swap
        cur = act(t, cur)
        g = t * g
    if act(g, q) != cur:
        raise InternalError("reduction witness failed")
    return cur, g


def reference_coprime_representative(q: BQF, n: int) -> BQF:
    if gcd(int(q.a), n) == 1:
        return q
    bound = 1
    while bound < 64:
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if gcd(x, y) != 1:
                    continue
                value = q(x, y)
                if value > 0 and gcd(int(value), n) == 1:
                    u, v = _bezout(x, y)
                    out = act(SL2(x, y, -v, u), q)
                    assert out.a == value
                    return out
        bound *= 2
    raise InternalError(f"no value of {q} coprime to {n} found")


def reference_compose_dirichlet(q1: BQF, q2: BQF) -> BQF:
    _require_reducible(q1)
    _require_reducible(q2)
    if q1.discriminant() != q2.discriminant():
        raise InputError("discriminant mismatch")
    D = int(q1.discriminant())
    a1 = int(q1.a)
    q2p = reference_coprime_representative(q2, a1)
    a2 = int(q2p.a)
    B, _ = _crt(int(q1.b), 2 * a1, int(q2p.b), 2 * a2)
    num = B * B - D
    assert num % (4 * a1 * a2) == 0
    return BQF(a1 * a2, B, num // (4 * a1 * a2))


# fundamental and non-fundamental, with class numbers 1 to 16
DISCRIMINANTS = (-3, -4, -23, -48, -63, -71, -84, -231, -1007)

words = st.lists(st.tuples(st.booleans(), st.integers(-5, 5)), max_size=6)


def word_to_sl2(word) -> SL2:
    g = SL2.identity()
    for upper, t in word:
        g = g * (SL2(1, t, 0, 1) if upper else SL2(1, 0, t, 1))
    return g


@st.composite
def forms_of(draw, D):
    """An SL2(Z) translate of a reduced form of discriminant D."""
    reduced = reduced_forms(D)
    f = reduced[draw(st.integers(0, len(reduced) - 1))]
    return act(word_to_sl2(draw(words)), f)


small_forms = st.builds(
    BQF, st.integers(1, 30), st.integers(-30, 30), st.integers(1, 30)
).filter(lambda q: q.discriminant() < 0 and q.is_primitive())

any_form = st.one_of(st.sampled_from(DISCRIMINANTS).flatmap(forms_of), small_forms)


@given(any_form)
@settings(max_examples=200, deadline=None)
def test_int_reduce_matches_fraction_reference(q):
    red, g = reduce(q)
    ref_red, ref_g = reference_reduce(q)
    assert red == ref_red and g == ref_g
    assert is_reduced(red) and act(g, q) == red


@given(st.sampled_from(DISCRIMINANTS).flatmap(lambda D: st.tuples(forms_of(D), forms_of(D))))
@settings(max_examples=200, deadline=None)
def test_int_compose_matches_fraction_reference(pair):
    q1, q2 = pair
    assert compose_dirichlet(q1, q2) == reference_compose_dirichlet(q1, q2)


def test_class_group_table_matches_fraction_reference():
    for D in (-23, -48, -84, -231):
        table = class_group(D)
        for i, f1 in enumerate(table.forms):
            for j, f2 in enumerate(table.forms):
                expected = table.forms.index(reference_reduce(reference_compose_dirichlet(f1, f2))[0])
                assert table.compose(i, j) == expected


@given(st.from_regex(r"\A-?[0-9]{1,25}(/[0-9]{1,25})?\Z"))
@settings(max_examples=60, deadline=None)
def test_plain_spellings_parse_as_fraction_does(text):
    # _frac reads 'p' and 'p/q' with int(); Fraction's own parser is the reference
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(InputError):
            _frac(text)
        return
    got = _frac(text)
    assert type(got) is Fraction and got == expected


def test_other_spellings_still_parse():
    assert _frac(" 3/4 ") == Fraction(3, 4)
    assert _frac("+3") == 3 and _frac("1.5") == Fraction(3, 2) and _frac("1_0") == 10
    for bad in ("", "-", "3/-4", "1/0", "0x10", "1e5", "3//4", "9" * 5000):
        with pytest.raises(InputError):
            _frac(bad)
