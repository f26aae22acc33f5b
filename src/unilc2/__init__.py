"""Exact quadratic-form, formation and surgery arithmetic over Z[x], F2[x]
and Z[C2][x], with a verification CLI (entry point: unilc2)."""

from .forms import ArfClass, QuadraticForm, arf, arf_normalize, make_P, witt_equal
from .formations import SplitFormation, make_M, make_N_resolution, make_Q
from .rings import C2Poly, Mat, PolyF2, PolyInt, parse_poly, format_poly

__version__ = "0.1.0"

__all__ = [
    "ArfClass",
    "C2Poly",
    "Mat",
    "PolyF2",
    "PolyInt",
    "QuadraticForm",
    "SplitFormation",
    "arf",
    "arf_normalize",
    "format_poly",
    "make_M",
    "make_N_resolution",
    "make_P",
    "make_Q",
    "parse_poly",
    "witt_equal",
]
