"""Exact rational scalars and the one integer elimination kernel.

Every decision made by this package is carried out in arbitrary-precision
rational arithmetic, and its one scalar type is the stdlib
`fractions.Fraction`; floating point shows up only when a report asks for
a decimal rendering.  `int_pair` reads an int, a Fraction or a "p/q"
string straight into an integer pair in lowest terms, with no Fraction
built; point sets and affine maps are read that way into integer rows
over one denominator (`cleared_pairs`).  A linear program may be written
in Fractions, in ints or in "p/q" strings, but exact_lp reads each scalar
once (`int_pair`) and keeps every row as integers over one denominator;
the tableau pivots on those integers and every point, ray and multiplier
certificate is re-verified on them, so Fractions come back only when a
solution is read out.

The one integer elimination kernel, the fraction-free `_bareiss`
(Bareiss 1968), lives in this leaf module so that both `geometry` and
`exact_lp` can import it: geometry takes its ranks, projection
coordinates, determinants, facet normals and Gram matrices from it, and
the simplex its dual solve.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

#: Anything `ratio` accepts: ints, "p/q" strings, Fractions.
RationalLike = Union[int, str, Fraction, float]


class ScalarError(ValueError):
    """Raised for inputs that do not denote an exact rational."""


# "p" or "p/q" with optional sign; the only string shape accepted, so file
# formats stay unambiguous.
_RATIO_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _text_pair(text: str) -> tuple:
    """(p, q) in lowest terms, q > 0, of a "p" or "p/q" string, read
    without building a rational; surrounding whitespace is ignored."""
    text = text.strip()
    if not _RATIO_RE.match(text):
        raise ScalarError(f"not a 'p/q' rational string: {text!r}")
    # The match leaves a signed int, then at most one "/" and an unsigned
    # int; int() refuses one past the interpreter's digit limit.
    num, _, den = text.partition("/")
    try:
        p, q = int(num), int(den) if den else 1
    except ValueError as exc:
        raise ScalarError(f"not an exact rational: {text!r}") from exc
    if q == 0:
        raise ScalarError(f"not an exact rational: {text!r}")
    g = math.gcd(p, q)
    return p // g, q // g


def ratio(value: RationalLike, denominator: RationalLike | None = None) -> Fraction:
    """Build an exact rational from an int, a "p/q" string, or a rational.

    Floats are rejected on purpose: a float argument is almost always a bug
    in exact code, and the caller should spell the value as a string.
    """
    if isinstance(value, bool) or isinstance(denominator, bool):
        raise ScalarError("booleans are not rational scalars")
    if isinstance(value, float) or isinstance(denominator, float):
        raise ScalarError(
            "refusing to build an exact rational from a float; "
            "pass a 'p/q' string instead"
        )
    if isinstance(value, str):
        value = value.strip()
        args = _text_pair(value)
    else:
        args = (value,)
    try:
        result = Fraction(*args)
        if denominator is None:
            return result
        return result / Fraction(denominator)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ScalarError(f"not an exact rational: {value!r}") from exc


ZERO = ratio(0)
ONE = ratio(1)


def exact_tuple(values) -> tuple:
    """The values as a tuple of Fractions: a Fraction is kept as it is,
    anything else goes through `ratio` (so floats and bools are still
    refused)."""
    return tuple([a if type(a) is Fraction else ratio(a) for a in values])


def vdot(a, b):
    """The dot product of two vectors of rationals, as a Fraction."""
    total = ZERO
    for x, y in zip(a, b):
        total += x * y
    return total


def int_pair(value) -> tuple:
    """(numerator, denominator) of one scalar in lowest terms, the
    denominator positive, with no rational built for an int, a Fraction or
    a "p/q" string; anything else goes through `ratio`, so floats, bools
    and malformed strings are refused with `ratio`'s messages."""
    kind = type(value)
    if kind is int:
        return value, 1
    if kind is Fraction:
        return value.numerator, value.denominator
    if kind is str:
        return _text_pair(value)
    value = ratio(value)
    return value.numerator, value.denominator


def cleared_pairs(rows) -> tuple:
    """(rows, L) for rows of `int_pair` pairs: every entry times L, the lcm
    of the denominators (1 for no entries), as integer lists.  gcd(L,
    every entry) is 1, the denominators being in lowest terms."""
    den = math.lcm(*(q for row in rows for _, q in row))
    return [[p * (den // q) for p, q in row] for row in rows], den


def over_common_denominator(values):
    """(nums, den) with values[i] == nums[i] / den, den the lcm of the
    values' denominators (1 for no values)."""
    dens = [x.denominator for x in values]
    den = math.lcm(*dens)
    return [x.numerator * (den // d) for x, d in zip(values, dens)], den


def _bareiss(mat, jordan=False):
    """Fraction-free (Bareiss 1968) elimination of an integer matrix in
    place: every division is exact, so the entries stay integers
    throughout.  This is the package's one integer elimination kernel.

    Returns (pivot columns, sign of the row swaps); ([], 1) for a matrix
    with no rows.  Forward elimination leaves an echelon form whose last
    pivot is the determinant of the pivot rows and columns.  jordan=True
    also clears above each pivot, which takes [A | B], A square and
    nonsingular, to [D I | D A^-1 B] with D = +-det A.
    """
    if not mat:
        return [], 1
    sign, prev = 1, 1
    pivots = []
    nrows = len(mat)
    for c in range(len(mat[0])):
        r = len(pivots)
        if r == nrows:
            break
        if mat[r][c] == 0:
            swap = next((i for i in range(r + 1, nrows) if mat[i][c]), None)
            if swap is None:
                continue
            mat[r], mat[swap] = mat[swap], mat[r]
            sign = -sign
        prow = mat[r]
        piv = prow[c]
        for i in range(0 if jordan else r + 1, nrows):
            if i != r:
                lead = mat[i][c]
                mat[i] = [(a * piv - lead * b) // prev for a, b in zip(mat[i], prow)]
        prev = piv
        pivots.append(c)
    return pivots, sign

