"""Exact evaluators that the tests check maps, simplex images, shrunk
copies, hull membership and growth-rate comparisons with.

The library never evaluates a map point by point: it clears a map's images
over a whole set at once (`AffineMap.cleared_images`), and it decides
hull membership by a linear program.  These plain rational evaluators are
the tests' independent reference.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

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


def homothety(center, factor, x) -> tuple:
    """(1 - factor) * center + factor * x, in exact rationals.  Factor s
    shrinks conv X toward the center; factor 1/s maps the shrunk copy
    back onto conv X."""
    return tuple(
        (1 - factor) * c + factor * v for c, v in zip(exact_tuple(center), exact_tuple(x))
    )


def log_compare(x, y) -> int:
    """The sign of c1*log(a1) - c2*log(a2) for growth rates x = (c1, a1)
    and y = (c2, a2), rational coefficients over positive rational
    arguments.  No logarithm is taken: with L the lcm of the coefficients'
    denominators it is the sign of a1**(c1*L) - a2**(c2*L), whose
    exponents are integers."""
    (c1, a1), (c2, a2) = ((Fraction(c), Fraction(a)) for c, a in (x, y))
    assert a1 > 0 and a2 > 0
    scale = lcm(c1.denominator, c2.denominator)
    lhs, rhs = a1 ** int(c1 * scale), a2 ** int(c2 * scale)
    return (lhs > rhs) - (lhs < rhs)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def in_hull_2d(points, x) -> bool:
    """Whether x lies in the convex hull of points in the plane.

    By Caratheodory's theorem x is in the hull exactly when it is in the
    hull of at most three affinely independent points: it is one of the
    points, it lies on a segment between two of them, or its barycentric
    coordinates over a triangle of them have no sign opposite to the
    triangle's orientation.
    """
    x = exact_tuple(x)
    pts = [exact_tuple(p) for p in points]
    if x in pts:
        return True
    for p, q in combinations(pts, 2):
        between = vdot([a - b for a, b in zip(p, x)], [a - b for a, b in zip(q, x)])
        if _cross(p, q, x) == 0 and between <= 0:
            return True
    for a, b, c in combinations(pts, 3):
        area = _cross(a, b, c)
        signs = (_cross(x, b, c), _cross(a, x, c), _cross(a, b, x))
        if area != 0 and all(s * area >= 0 for s in signs):
            return True
    return False
