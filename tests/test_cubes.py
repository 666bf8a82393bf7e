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
    contract_axis,
    kostant_cube,
    rank_one_cube,
    rank_one_entries,
    symplectic_pairing_entries,
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


# -- the nested-tensor layout, kept as the plainly correct reference ----------

_REF_SLOT = {
    (0, 0, 0): 0,  # a
    (1, 0, 0): 1,  # b1
    (0, 1, 0): 2,  # b2
    (0, 0, 1): 3,  # b3
    (1, 1, 1): 4,  # c
    (0, 1, 1): 5,  # d1
    (1, 0, 1): 6,  # d2
    (1, 1, 0): 7,  # d3
}


def ref_tensor_from_entries(entries):
    t = [[[None, None], [None, None]], [[None, None], [None, None]]]
    for (i, j, k), slot in _REF_SLOT.items():
        t[i][j][k] = entries[slot]
    return t


def ref_entries_from_tensor(t):
    out = [None] * 8
    for (i, j, k), slot in _REF_SLOT.items():
        out[slot] = t[i][j][k]
    return out


def ref_contract_axis(axis, g, t):
    new = [[[None, None], [None, None]], [[None, None], [None, None]]]
    for pos in _REF_SLOT:
        lo, hi = list(pos), list(pos)
        lo[axis], hi[axis] = 0, 1
        col = pos[axis]
        new[pos[0]][pos[1]][pos[2]] = (g[0][col] * t[lo[0]][lo[1]][lo[2]]
                                       + g[1][col] * t[hi[0]][hi[1]][hi[2]])
    return new


def ref_act_entries(gs, entries):
    t = ref_tensor_from_entries(entries)
    for axis, g in enumerate(gs):
        t = ref_contract_axis(axis, g, t)
    return ref_entries_from_tensor(t)


def ref_symplectic_pairing_entries(e1, e2):
    t1 = ref_tensor_from_entries(e1)
    t2 = ref_tensor_from_entries(e2)
    total = e1[0] - e1[0]
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                sign = 1
                for idx in (i, j, k):
                    sign = sign if idx == 0 else -sign
                total = total + sign * t1[i][j][k] * t2[1 - i][1 - j][1 - k]
    return total


cube_entries = st.lists(fracs, min_size=8, max_size=8)
# rank at most one: the second row is a multiple of the first
singular_matrices = st.builds(lambda row, t: (row, (t * row[0], t * row[1])), vectors, fracs)
any_matrices = matrices | singular_matrices


@given(st.sampled_from((0, 1, 2)), any_matrices, cube_entries)
@settings(max_examples=50, deadline=None)
def test_contract_axis_matches_nested_tensor(axis, g, e):
    expected = ref_entries_from_tensor(ref_contract_axis(axis, g, ref_tensor_from_entries(e)))
    assert contract_axis(axis, g, e) == expected


@given(st.tuples(any_matrices, any_matrices, any_matrices), cube_entries)
@settings(max_examples=40, deadline=None)
def test_act_entries_matches_nested_tensor(gs, e):
    assert act_entries(gs, e) == ref_act_entries(gs, e)


ints = st.integers(-9, 9)
int_matrices = st.tuples(st.tuples(ints, ints), st.tuples(ints, ints))


@given(st.tuples(int_matrices, int_matrices, int_matrices), st.lists(ints, min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_act_entries_matches_nested_tensor_on_integral_cubes(gs, e):
    assert act_entries(gs, e) == ref_act_entries(gs, e)


@given(cube_entries, cube_entries)
@settings(max_examples=40, deadline=None)
def test_symplectic_pairing_matches_nested_tensor(e1, e2):
    assert symplectic_pairing_entries(e1, e2) == ref_symplectic_pairing_entries(e1, e2)


@given(vectors, vectors, vectors)
@settings(max_examples=30, deadline=None)
def test_rank_one_entries_matches_nested_tensor(u, v, w):
    t = [[[u[i] * v[j] * w[k] for k in (0, 1)] for j in (0, 1)] for i in (0, 1)]
    assert rank_one_entries(u, v, w) == ref_entries_from_tensor(t)
