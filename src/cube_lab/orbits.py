"""Orbit classification of cubes under the triple SL2 action.

Over an algebraically closed field there are exactly seven orbits; they are
separated by the hyperdeterminant together with the multilinear (flattening)
ranks, all computed exactly on a cube's flat entries over the rationals.
Over Q the nonzero locus of the hyperdeterminant splits further into square
classes; the classifier deliberately reports the geometric orbit type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from .cubes import Cube, hyperdet_entries, kostant_cube, slices_entries


class OrbitClass(enum.Enum):
    ZERO = "ZERO"
    RANK_ONE = "RANK_ONE"
    SEP_1 = "SEP_1"
    SEP_2 = "SEP_2"
    SEP_3 = "SEP_3"
    W = "W"
    GENERIC = "GENERIC"

    def __str__(self) -> str:
        return self.value


def _rank_2x4(rows) -> int:
    # exact rank of a 2x4 matrix: zero matrix, vanishing 2x2 minors, or 2.
    # (the 2-row case of fraction-free elimination; no thresholds anywhere)
    r0, r1 = rows
    if all(x == 0 for x in r0) and all(x == 0 for x in r1):
        return 0
    for i in range(4):
        for j in range(i + 1, 4):
            if r0[i] * r1[j] - r0[j] * r1[i] != 0:
                return 2
    return 1


def flattening_ranks(entries) -> tuple[int, int, int]:
    """Ranks of the three 2x4 flattenings of a cube, given as a Cube or as
    its flat entries over Q: row j of flattening i is slice matrix j of
    slicing i, read row by row."""
    if isinstance(entries, Cube):
        entries = entries.numerators
    return tuple(_rank_2x4((m[0] + m[1], n[0] + n[1])) for m, n in slices_entries(entries))


def classify_entries(entries) -> OrbitClass:
    """The geometric orbit class of a cube given by its flat entries over Q
    (ints or Fractions).  Scaling the entries by a nonzero rational changes
    neither the zero-ness of the hyperdeterminant nor a rank, so a Cube is
    classified on its numerators."""
    if hyperdet_entries(entries) != 0:
        return OrbitClass.GENERIC
    ranks = flattening_ranks(entries)
    if ranks == (0, 0, 0):
        return OrbitClass.ZERO
    if ranks == (1, 1, 1):
        return OrbitClass.RANK_ONE
    ones = [i for i, r in enumerate(ranks) if r == 1]
    if len(ones) == 1:
        return (OrbitClass.SEP_1, OrbitClass.SEP_2, OrbitClass.SEP_3)[ones[0]]
    return OrbitClass.W


def classify(cube: Cube) -> OrbitClass:
    return classify_entries(cube.numerators)


@dataclass(frozen=True)
class OrbitInfo:
    orbit: OrbitClass
    dimension: int
    representative: Cube
    covers: tuple[OrbitClass, ...]
    projective: str


_TABLE = {
    OrbitClass.GENERIC: OrbitInfo(
        OrbitClass.GENERIC, 8, kostant_cube(1), (OrbitClass.W,),
        "dense orbit; closure is all of P^7",
    ),
    OrbitClass.W: OrbitInfo(
        OrbitClass.W, 7, kostant_cube(0),
        (OrbitClass.SEP_1, OrbitClass.SEP_2, OrbitClass.SEP_3),
        "vanishing of the hyperdeterminant: dual variety of the Segre (P^1)^3",
    ),
    OrbitClass.SEP_1: OrbitInfo(
        OrbitClass.SEP_1, 5, Cube(1, 0, 0, 0, 0, 1, 0, 0), (OrbitClass.RANK_ONE,),
        "Segre P^1 x P^3 with factor 1 split off",
    ),
    OrbitClass.SEP_2: OrbitInfo(
        OrbitClass.SEP_2, 5, Cube(1, 0, 0, 0, 0, 0, 1, 0), (OrbitClass.RANK_ONE,),
        "Segre P^1 x P^3 with factor 2 split off",
    ),
    OrbitClass.SEP_3: OrbitInfo(
        OrbitClass.SEP_3, 5, Cube(1, 0, 0, 0, 0, 0, 0, 1), (OrbitClass.RANK_ONE,),
        "Segre P^1 x P^3 with factor 3 split off",
    ),
    OrbitClass.RANK_ONE: OrbitInfo(
        OrbitClass.RANK_ONE, 4, Cube(1, 0, 0, 0, 0, 0, 0, 0), (OrbitClass.ZERO,),
        "cone over the Segre embedding (P^1)^3 in P^7",
    ),
    OrbitClass.ZERO: OrbitInfo(
        OrbitClass.ZERO, 0, Cube(0, 0, 0, 0, 0, 0, 0, 0), (),
        "the origin",
    ),
}


def orbit_info(k: OrbitClass) -> OrbitInfo:
    return _TABLE[k]


def all_orbit_info() -> tuple[OrbitInfo, ...]:
    return tuple(_TABLE[k] for k in OrbitClass)
