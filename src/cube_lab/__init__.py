"""cube-lab: exact computational algebra of 2x2x2 cubes and binary forms."""

from .errors import InputError, InternalError, UnsupportedInputError
from .ring import LaurentRing, Poly, RewriteRelation
from .quadforms import (
    BQF,
    SL2,
    act,
    class_group,
    compose_dirichlet,
    form_from_sl2,
    is_equivalent,
    is_reduced,
    principal_form,
    reduce,
    reduced_forms,
    sl2_from_form,
)
from .cubes import Cube, GHZ, W, kostant_cube, rank_one_cube

__all__ = [
    "BQF",
    "Cube",
    "GHZ",
    "InputError",
    "InternalError",
    "LaurentRing",
    "Poly",
    "RewriteRelation",
    "SL2",
    "UnsupportedInputError",
    "W",
    "act",
    "class_group",
    "compose_dirichlet",
    "form_from_sl2",
    "is_equivalent",
    "is_reduced",
    "kostant_cube",
    "principal_form",
    "rank_one_cube",
    "reduce",
    "reduced_forms",
    "sl2_from_form",
]
