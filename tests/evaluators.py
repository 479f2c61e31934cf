"""Exact evaluators that the tests check maps and simplex images with.

The library never evaluates a map point by point: it clears a map's images
over a whole set at once (`AffineMap.cleared_images`).  These plain
rational evaluators are the tests' independent reference.
"""

from antipodes.geometry import GeometryError
from antipodes.rationals import exact_tuple, vdot


def apply_map(mapping, x) -> tuple:
    """mapping.matrix @ x + mapping.offset, in exact rationals."""
    x = exact_tuple(x)
    if len(x) != mapping.in_dim:
        raise GeometryError("point dimension does not match the map")
    return tuple(vdot(row, x) + c for row, c in zip(mapping.matrix, mapping.offset))


def in_simplex(simplex, p, strict=False) -> bool:
    """Whether p lies in the standard simplex (in its relative interior
    when strict)."""
    p = exact_tuple(p)
    if len(p) != simplex.rank + 1 or sum(p) != 1:
        return False
    return all(c > 0 for c in p) if strict else all(c >= 0 for c in p)
