"""Exact rational scalars and exact logarithm comparisons.

Every decision made by this package is carried out in arbitrary-precision
rational arithmetic, and its one scalar type is the stdlib
`fractions.Fraction`; floating point shows up only when a report asks for
a decimal rendering.  A linear program may be written in Fractions, in
ints or in "p/q" strings, but exact_lp reads each scalar once (`int_pair`)
and keeps every row as integers over one denominator; the tableau pivots
on those integers and every point, ray and multiplier certificate is
re-verified on them, so Fractions come back only when a solution is read
out.

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
        if not _RATIO_RE.match(value):
            raise ScalarError(f"not a 'p/q' rational string: {value!r}")
    try:
        if isinstance(value, str):
            # The match leaves a signed int, then at most one "/" and an
            # unsigned int.
            num, _, den = value.partition("/")
            result = Fraction(int(num), int(den) if den else 1)
        else:
            result = Fraction(value)
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
    """(numerator, denominator) of one scalar, the denominator positive: an
    int is itself over 1 with no rational built, a Fraction is read as it
    stands, anything else goes through `ratio` (so floats, bools and
    malformed strings are still refused)."""
    kind = type(value)
    if kind is int:
        return value, 1
    if kind is not Fraction:
        value = ratio(value)
    return value.numerator, value.denominator


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


class LogRatio:
    """The number coeff * log(arg) with rational coeff and positive rational arg.

    Supports exact `==` and `<` without evaluating any logarithm:
    comparing c1*log(a1) with c2*log(a2) is the same as comparing a1**c1
    with a2**c2, and after clearing the exponent denominators both sides
    are plain rationals.  Growth rates of code sizes live in this form.
    """

    __slots__ = ("coeff", "arg")

    def __init__(self, coeff, arg):
        coeff = ratio(coeff)
        arg = ratio(arg)
        if arg <= 0:
            raise ScalarError("logarithm argument must be positive")
        # Normalise the two representations of zero so == and hash agree.
        if coeff == 0 or arg == 1:
            coeff, arg = ZERO, ONE
        self.coeff = coeff
        self.arg = arg

    def scaled(self, factor) -> "LogRatio":
        return LogRatio(self.coeff * ratio(factor), self.arg)

    def _compare(self, other) -> int:
        if not isinstance(other, LogRatio):
            raise TypeError("can only compare LogRatio with LogRatio")
        # coeff exponents: arg1**(c1*L) vs arg2**(c2*L) with L = lcm of
        # denominators, so both exponents become integers.
        scale = math.lcm(self.coeff.denominator, other.coeff.denominator)
        e1 = int(self.coeff * scale)
        e2 = int(other.coeff * scale)
        lhs = ratio(self.arg) ** e1
        rhs = ratio(other.arg) ** e2
        if lhs == rhs:
            return 0
        return -1 if lhs < rhs else 1

    def __eq__(self, other):
        if not isinstance(other, LogRatio):
            return NotImplemented
        return self._compare(other) == 0

    def __lt__(self, other):
        return self._compare(other) < 0

    # Equal values admit different (coeff, arg) spellings (2*log 4 == 4*log 2)
    # and a hash consistent with == would need prime factorisation, so the
    # type is explicitly unhashable.
    __hash__ = None

    def __repr__(self):
        return f"LogRatio({self.coeff}, {self.arg})"
