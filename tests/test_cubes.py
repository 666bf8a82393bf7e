import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cube_lab.conventions import GRAM_SIGN
from cube_lab.cubes import (
    GHZ,
    W,
    Cube,
    act_entries,
    kostant_cube,
    rank_one_cube,
    rank_one_entries,
)
from cube_lab.errors import InputError
from cube_lab.quadforms import BQF, SL2, act as form_act, random_sl2z

rng = random.Random(5)


def test_slices_of_kostant_cube():
    (m1, n1), (m2, n2), (m3, n3) = kostant_cube(4).slices()
    assert m1 == ((4, 0), (0, 1))
    assert n1 == ((0, 1), (1, 0))
    assert m2 == ((4, 0), (0, 1))
    assert m3 == ((4, 0), (0, 1))


def test_slices_zero_and_ghz():
    zero = Cube(0, 0, 0, 0, 0, 0, 0, 0)
    assert all(m == ((0, 0), (0, 0)) and n == ((0, 0), (0, 0)) for m, n in zero.slices())
    (m1, n1), _, _ = GHZ.slices()
    assert m1 == ((1, 0), (0, 0))
    assert n1 == ((0, 0), (0, 1))


def test_forms_of_standard_cubes():
    assert kostant_cube(4).forms() == (BQF(4, 0, -1),) * 3
    assert Cube(0, 0, 0, 0, 0, 0, 0, 0).forms() == (BQF(0, 0, 0),) * 3
    assert GHZ.forms() == (BQF(0, 1, 0),) * 3


def test_hyperdet_values():
    assert kostant_cube(4).hyperdet() == 16
    assert kostant_cube(Fraction(3, 2)).hyperdet() == 6
    assert GHZ.hyperdet() == 1
    assert W.hyperdet() == 0


def test_forms_discriminant_equals_hyperdet():
    for _ in range(30):
        cube = Cube(*(rng.randint(-4, 4) for _ in range(8)))
        d = cube.hyperdet()
        assert all(q.discriminant() == d for q in cube.forms())


def test_hyperdet_gram():
    assert Cube(0, 0, 0, 0, 0, 0, 0, 0).hyperdet_gram() == 0
    assert GHZ.hyperdet_gram() == GRAM_SIGN * GHZ.hyperdet()
    for _ in range(30):
        cube = Cube(*(rng.randint(-4, 4) for _ in range(8)))
        assert cube.hyperdet_gram() == GRAM_SIGN * cube.hyperdet()


def test_trace_invariant():
    assert GHZ.trace_invariant() == 1
    assert kostant_cube(9).trace_invariant() == 0
    assert Cube(0, 0, 0, 0, 0, 0, 0, 0).trace_invariant() == 0


def test_mod4_congruence_numeric():
    for _ in range(50):
        cube = Cube(*(rng.randint(-6, 6) for _ in range(8)))
        diff = cube.hyperdet() - cube.trace_invariant() ** 2
        assert diff.denominator == 1 and diff.numerator % 4 == 0


def test_identity_action():
    cube = Cube(*(rng.randint(-4, 4) for _ in range(8)))
    ident = (SL2.identity(),) * 3
    assert cube.transformed(ident) == cube


def test_swap_generator_on_ghz():
    g1 = SL2(0, 1, -1, 0)
    moved = GHZ.transformed((g1, SL2.identity(), SL2.identity()))
    # e1 x e1 x e1 -> e2 x e1 x e1 and e2 x e2 x e2 -> -e1 x e2 x e2
    assert moved == Cube(0, 1, 0, 0, 0, -1, 0, 0)


def test_diagonalizing_triple_numeric():
    # (-1, 1/a; a, 1) in all three factors sends the slice cube to
    # -4 (a^2, 0, -1/a, 0); here at a = 2
    g = ((Fraction(-1), Fraction(1, 2)), (Fraction(2), Fraction(1)))
    image = kostant_cube(4).transformed((g, g, g))
    assert image == Cube(-16, 0, 0, 0, 2, 0, 0, 0)


def test_action_composition_is_right_action():
    for _ in range(20):
        cube = Cube(*(rng.randint(-3, 3) for _ in range(8)))
        g = tuple(random_sl2z(rng) for _ in range(3))
        h = tuple(random_sl2z(rng) for _ in range(3))
        composed = tuple(gi * hi for gi, hi in zip(g, h))
        assert cube.transformed(g).transformed(h) == cube.transformed(composed)


def test_equivariance_numeric():
    # forms transform by act(g^T); the untouched factors leave their forms alone
    for _ in range(25):
        cube = Cube(*(rng.randint(-3, 3) for _ in range(8)))
        triple = tuple(random_sl2z(rng) for _ in range(3))
        before = cube.forms()
        after = cube.transformed(triple).forms()
        for i in range(3):
            assert after[i] == form_act(triple[i].transpose(), before[i])
        assert cube.transformed(triple).hyperdet() == cube.hyperdet()


def test_kostant_cube():
    assert kostant_cube(1) == Cube(1, 0, 0, 0, 0, 1, 1, 1)
    assert kostant_cube(1).hyperdet() == 4
    assert kostant_cube(0) == W
    assert W == Cube(0, 0, 0, 0, 0, 1, 1, 1)


def test_rank_one_cube():
    cube = rank_one_cube((1, 0), (1, 0), (1, 0))
    assert cube == Cube(1, 0, 0, 0, 0, 0, 0, 0)
    cube = rank_one_cube((1, 2), (3, 1), (1, 1))
    assert cube.hyperdet() == 0
    assert cube.a == 3 and cube.c == 2


def test_json_round_trip():
    cube = Cube(1, 0, Fraction(1, 2), 0, -3, 1, 1, Fraction(-2, 7))
    assert Cube.from_json(cube.to_json()) == cube
    assert Cube.from_json('{"a":"1","b":["0","0","0"],"c":"0","d":["1","1","1"]}') == kostant_cube(1)
    with pytest.raises(InputError):
        Cube.from_json('{"a":"1"}')
    with pytest.raises(InputError):
        Cube.from_json('{"a":"1","b":["0","0"],"c":"0","d":["1","1","1"]}')


def test_floats_rejected():
    with pytest.raises(InputError):
        Cube(0.5, 0, 0, 0, 0, 0, 0, 0)


fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
vectors = st.tuples(fracs, fracs)
matrices = st.tuples(vectors, vectors)


@given(vectors, vectors, vectors, st.tuples(matrices, matrices, matrices))
@settings(max_examples=80, deadline=None)
def test_act_entries_on_rank_one_cubes(u, v, w, gs):
    # row convention: u (x) v (x) w goes to u.g1 (x) v.g2 (x) w.g3; rank-one
    # cubes span all cubes, so this pins the action
    def row_times(vec, g):
        return tuple(vec[0] * g[0][j] + vec[1] * g[1][j] for j in (0, 1))

    moved = [row_times(x, g) for x, g in zip((u, v, w), gs)]
    assert act_entries(gs, rank_one_entries(u, v, w)) == rank_one_entries(*moved)
