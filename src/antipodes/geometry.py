"""Exact convex geometry in V-representation.

A `PointSet` is the one point-set type: its convex hull is the polytope
it spans (the points need not be vertices).  It holds its points as
integer rows over one positive denominator, the least one, so that
equal sets hold equal rows; a point file is read straight into that
form, sets made from others (product sets, shrunk copies, frames) are
built from integer rows, and the Fractions of `PointSet.points` are
built only when a report or a caller asks for rationals.  An
`AffineMap` likewise holds integer rows [A | b] over one least
denominator and builds its `matrix` and `offset` on request.

Whether a point lies in the hull, affine rank, and the barycentric
coordinates of orthogonal projections onto the affine hull of a subset
are decided exactly.  `member` answers with a bool; an "outside" verdict
is self-checked, in integers, against a separating affine functional
read off the weight program's Farkas multipliers.

The dense linear algebra is one fraction-free elimination,
`rationals._bareiss` (Bareiss 1968), on integers: ranks, projection
coordinates, determinants, facet normals, pivot columns and Gram
matrices all come from it.  The kernel lives in the leaf module
`rationals` because `exact_lp` uses it too, for the simplex's dual
solve, and this module imports `exact_lp`.  A set's affine rank,
projections, symmetry, volume, map programs and map images
(`AffineMap.cleared_images`) all read its integer rows
(`PointSet.cleared`).

`simplex_map_lp` is the one builder of the program for an affine map
into the standard simplex.  Its variables are the map's images of an
affine basis of aff X that one integer Gauss-Jordan pass finds.  With
the tuple's points, given by their indices, pinned to the vertices the
pins are presolved away (Andersen & Andersen 1995): k(r - k) variables
remain for a k-simplex in a set of affine rank r, none when k = r.
Without pins, as for minimum-error discrimination, k(r + 1) remain.
`decode_map` rebuilds the map in the original coordinates as integer
rows.

Exact volume works in integers: the coordinates are cleared over their
common denominator, a beneath-beyond pass (Seidel 1986) triangulates the
hull's boundary from an initial simplex with integer facet normals,
and the boundary simplices coned to one point give the volume as a sum
of Bareiss determinants over d! L^d.

Affine symmetry works in integers too: generators of the permutations
that preserve the centred Gram matrix in the inner product S^-1 (the
affine automorphisms) come from colour refinement and a stabiliser-chain
search, and each one is checked by substitution over an affine basis.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm
from operator import mul
from typing import Optional

from .exact_lp import (
    EQ,
    GE,
    Constraint,
    LinearProgram,
    LPOutcome,
    Status,
    integer_row,
    make_lp,
    solve,
)
from .rationals import (
    ONE,
    ZERO,
    _bareiss,
    cleared_pairs,
    exact_tuple,
    int_pair,
    over_common_denominator,
)

#: Exact volume is supported up to this ambient dimension.  The
#: boundary triangulation, and with it the cost, grows quickly with the
#: dimension: the d-cube's 2d facets split into 2 d! boundary simplices.
VOLUME_DIM_CAP = 4


class GeometryError(ValueError):
    """Dimension mismatches, degenerate inputs, broken preconditions."""


class DegenerateVolumeWarning(UserWarning):
    """Volume was requested for a set that does not span its space."""


def _lowest_terms(rows, den):
    """(rows, den) as a tuple of integer tuples over den > 0, with the
    common factor of den and every entry divided out."""
    rows = tuple(map(tuple, rows))
    common = gcd(den, *(a for r in rows for a in r))
    if common > 1:
        rows = tuple(tuple(a // common for a in r) for r in rows)
        den //= common
    return rows, den


@dataclass(frozen=True, init=False)
class PointSet:
    """Finite list of pairwise distinct points in a common dimension.

    The set is held in integers: point i is rows[i] / den, den > 0 the
    least such denominator (gcd(den, every entry) is 1), so equal sets
    hold equal rows.  `points` builds the rationals on first use.
    """

    rows: tuple
    den: int

    def __init__(self, points):
        """The set of `points`, each a sequence of exact rationals (ints,
        "p/q" strings or Fractions, read by `int_pair`)."""
        self._hold(*_integer_points(points))

    @classmethod
    def from_integers(cls, rows, den) -> "PointSet":
        """The set of the points rows[i] / den, for integer rows and an
        integer den > 0; a common factor of den and every entry is
        divided out."""
        ps = cls.__new__(cls)
        ps._hold(rows, den)
        return ps

    def _hold(self, rows, den):
        rows, den = _lowest_terms(rows, den)
        if not rows:
            raise GeometryError("a point set needs at least one point")
        dim = len(rows[0])
        if dim == 0:
            raise GeometryError("points need at least one coordinate")
        if any(len(p) != dim for p in rows):
            raise GeometryError("points have mixed dimensions")
        if len(set(rows)) != len(rows):
            raise GeometryError("points must be pairwise distinct")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "den", den)

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, idx):
        return self.points[idx]

    @cached_property
    def points(self) -> tuple:
        """The points as tuples of Fractions."""
        den = self.den
        return tuple(tuple(Fraction(a, den) for a in p) for p in self.rows)

    @property
    def cleared(self):
        """(rows, den): every coordinate times den, the least common
        denominator, as integer tuples."""
        return self.rows, self.den


@dataclass(frozen=True)
class StandardSimplex:
    """Probability simplex on rank + 1 outcomes, embedded in R^(rank+1)."""

    rank: int

    def __post_init__(self):
        if not isinstance(self.rank, int) or self.rank < 1:
            raise GeometryError("simplex rank must be a positive integer")

    @property
    def dim(self) -> int:
        return self.rank + 1

    def vertex(self, j) -> tuple:
        if not 0 <= j <= self.rank:
            raise GeometryError("vertex index out of range")
        return tuple(ONE if i == j else ZERO for i in range(self.rank + 1))

    @property
    def vertices(self) -> PointSet:
        n = self.rank + 1
        return PointSet.from_integers([[int(i == j) for i in range(n)] for j in range(n)], 1)


@dataclass(frozen=True, init=False)
class AffineMap:
    """x maps to matrix @ x + offset, rows indexed by output coordinate.

    The map is held in integers: output i at x is
    (rows[i][:-1] . x + rows[i][-1]) / den, den > 0 the least common
    denominator of the matrix and the offset, so equal maps hold equal
    rows.  `matrix` and `offset` build the rationals on first use.
    """

    rows: tuple
    den: int

    def __init__(self, matrix, offset):
        """The map of a matrix and an offset of exact rationals (ints,
        "p/q" strings or Fractions, read by `int_pair`)."""
        linear = [[int_pair(a) for a in r] for r in matrix]
        shift = [int_pair(c) for c in offset]
        if not linear:
            raise GeometryError("affine map needs at least one output row")
        if len({len(r) for r in linear}) != 1:
            raise GeometryError("matrix rows have mixed lengths")
        if len(shift) != len(linear):
            raise GeometryError("offset length must match the row count")
        self._hold(*cleared_pairs([r + [c] for r, c in zip(linear, shift)]))

    @classmethod
    def from_integers(cls, rows, den) -> "AffineMap":
        """The map whose output i at x is (rows[i][:-1] . x + rows[i][-1]) /
        den, for integer rows and an integer den > 0; a common factor of
        den and every entry is divided out."""
        m = cls.__new__(cls)
        m._hold(rows, den)
        return m

    def _hold(self, rows, den):
        rows, den = _lowest_terms(rows, den)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "den", den)

    @cached_property
    def matrix(self) -> tuple:
        return tuple(tuple(Fraction(a, self.den) for a in r[:-1]) for r in self.rows)

    @cached_property
    def offset(self) -> tuple:
        return tuple(Fraction(r[-1], self.den) for r in self.rows)

    @property
    def in_dim(self) -> int:
        return len(self.rows[0]) - 1

    @property
    def out_dim(self) -> int:
        return len(self.rows)

    def cleared_images(self, points):
        """(images, den): output i at point p is images[p][i] / den, den > 0,
        computed in integers.  `points` is a `PointSet`, or a pair
        (rows, L) of integer rows over L > 0 in which a row may repeat.

        With the map's rows over D and the points' over L, den = D L.
        """
        P, L = points.cleared if isinstance(points, PointSet) else points
        # zip stops at the point's coordinates, before the offset entry.
        images = [[row[-1] * L + sum(map(mul, row, p)) for row in self.rows] for p in P]
        return images, self.den * L


def outside_simplex(images, den):
    """Index of the first image of `AffineMap.cleared_images` outside the
    probability simplex, or None when all are inside."""
    for idx, image in enumerate(images):
        if sum(image) != den or any(t < 0 for t in image):
            return idx
    return None


@dataclass(frozen=True)
class MapProgram:
    """A program built by `simplex_map_lp`, and what `decode_map` needs to
    read the map off a solution point.

    `lp` is None when no solver is needed: the frame is affinely
    dependent, a point breaks the pins by itself, or the pins leave no
    variable.  `decided` is then the outcome, feasible ones with the
    empty point (and a zero objective value when there is a score).  The
    score at a solution is the objective value plus `offset`.

    Unless it is decided infeasible, the program keeps D B^-1 in
    integers column by column (`inverse`, D = `scale` > 0, B the cleared
    basis directions), the set's common denominator `den`, the cleared
    frame point `origin`, and `pins`, the number of pinned basis points.
    """

    lp: Optional[LinearProgram]
    offset: object
    outputs: int
    decided: Optional[LPOutcome] = None
    inverse: Optional[tuple] = None
    scale: int = 1
    den: int = 1
    origin: Optional[tuple] = None
    pins: int = 0

    def solve(self) -> LPOutcome:
        """The outcome: `decided`, or the solver's on `lp`."""
        return self.decided if self.lp is None else solve(self.lp)


def simplex_map_lp(points, outputs, pinned=(), score=()):
    """Program for an affine map sending every point into the standard
    simplex on `outputs` outcomes, with the point of index pinned[j] sent
    to vertex j (all `outputs` of them, or none).

    A nonempty `score`, a list of (output, point) pairs with points in
    the set's affine hull, makes the sum of those outputs at those points
    the objective to maximise; a program objective has no
    constant term, so the score's constant part goes to the returned
    `MapProgram`'s offset.

    The variables are the map's images of an affine basis of aff X, of
    affine rank r, with k = outputs - 1.  The frame (the pins, or point 0
    without pins) starts the basis, and one fraction-free Gauss-Jordan
    pass over the cleared integer matrix [q_1-q_0 .. q_k-q_0 | x-q_0 for
    the other points x, q_0 last | score points off the set, each column
    times its own denominator | I_d] finds the rest.  Unless the frame's
    columns are all pivots it is dependent and no map exists; a pivot
    among the score columns lies off aff X.  The other pivots among the
    points are the free basis points, each column's barycentric
    coordinates c over the basis are read off the pass times D, and the
    I_d block holds D B^-1.

    A pinned basis point's image is its vertex.  At every other basis
    point b, outputs 1..k are the variables w_{b,i}, output by output
    (k(r - k) of them with pins, k(r + 1) without), and output 0 is 1
    minus their sum.  Rows: output i >= 0 at every unpinned point, outputs
    0..k in turn, as c_{q_i} + sum_b c_b w_{b,i} >= 0 for i >= 1 and
    1 - sum_{j>=1} c_{q_j} - sum_b c_b sum_i w_{b,i} >= 0 for output 0,
    each times D.  A row without variables is checked at once and
    dropped, so k = r needs no program at all.  A variable basis point's
    own rows make its outputs 1..k sign bounds, which the solver keeps
    out of the tableau.
    """
    ps = points if isinstance(points, PointSet) else PointSet(tuple(points))
    P, den = ps.cleared
    pins = len(pinned)
    if pins and pins != outputs:
        raise GeometryError("a pinned program pins every output")
    if any(not isinstance(i, int) or not 0 <= i < len(P) for i in pinned):
        raise GeometryError("pinned indices must index points of the set")
    frame = list(pinned) or [0]
    k = outputs - 1
    origin = P[frame[0]]
    d = len(origin)
    rest = [i for i in range(len(P)) if i not in frame]
    order = frame[1:] + rest + frame[:1]
    columns = [[a - o for a, o in zip(P[i], origin)] for i in order]
    width = len(columns)
    column = [0] * len(P)
    for c, i in enumerate(order):
        column[i] = c
    # A score point off the set gets a column of its own, scaled by the
    # lcm of its coordinates' denominators.
    scales, extra, scored = [1] * width, [], []
    index = {p: i for i, p in enumerate(P)} if score else None
    for _, x in score:
        # x = nums / xden is set point P / den when den nums / xden is P.
        nums, xden = over_common_denominator(exact_tuple(x))
        if den % xden == 0:
            found = index.get(tuple(a * (den // xden) for a in nums))
            if found is not None:
                scored.append(column[found])
                continue
        if len(nums) != d:
            raise GeometryError("score points must match the set's dimension")
        x = (nums, xden)
        if x not in extra:
            extra.append(x)
            columns.append([den * a - xden * o for a, o in zip(nums, origin)])
            scales.append(xden)
        scored.append(width + extra.index(x))
    mat = [[p[t] for p in columns] + [int(t == u) for u in range(d)] for t in range(d)]
    pivots, _ = _bareiss(mat, jordan=True)
    if pivots[: len(frame) - 1] != list(range(len(frame) - 1)):
        return MapProgram(None, 0, outputs, LPOutcome(Status.INFEASIBLE))
    if any(width <= c < len(columns) for c in pivots):
        raise GeometryError("score points must lie in the affine hull of the set")
    r = sum(1 for c in pivots if c < width)
    # Every pivot row reads the last pivot at its pivot column; reading
    # the rows times its sign makes D > 0.
    sign = 1 if mat[0][pivots[0]] > 0 else -1
    D = sign * mat[0][pivots[0]]
    basis = r + 1 - pins
    nvars = k * basis

    def outputs_at(c):
        # Outputs 0..k at column c as (coefficients, constant) pairs over
        # D times c's scale.
        tail = [sign * mat[j][c] for j in range(r)]
        coords = [D * scales[c] - sum(tail)] + tail
        var = coords[pins:]
        at = [([-v for v in var] * k, D * scales[c] - sum(coords[1:pins]))]
        for i in range(1, outputs):
            coeffs = [0] * nvars
            coeffs[(i - 1) * basis : i * basis] = var
            at.append((coeffs, coords[i] if i < pins else 0))
        return at

    rows = []
    for idx in rest if pins else range(len(P)):
        at = outputs_at(column[idx])
        # Output 0's coefficients hold every variable the point has.
        if any(at[0][0]):
            rows.extend((coeffs, GE, -const) for coeffs, const in at)
        elif any(const < 0 for _, const in at):
            return MapProgram(None, 0, outputs, LPOutcome(Status.INFEASIBLE))
    objective, offset = None, 0
    if score:
        common = lcm(*scales[width:])
        total, constant = [0] * nvars, 0
        for (i, _), c in zip(score, scored):
            coeffs, const = outputs_at(c)[i]
            lift = common // scales[c]
            total = [a + lift * b for a, b in zip(total, coeffs)]
            constant += lift * const
        objective = tuple(Fraction(a, D * common) for a in total)
        offset = Fraction(constant, D * common)
    lp = decided = None
    if rows:
        lp = make_lp(nvars, rows, objective=objective)
    else:
        value = ZERO if score else None
        decided = LPOutcome(Status.FEASIBLE, point=(), objective_value=value)
    return MapProgram(
        lp,
        offset,
        outputs,
        decided,
        inverse=tuple(
            tuple(sign * mat[j][len(columns) + t] for j in range(r)) for t in range(d)
        ),
        scale=D,
        den=den,
        origin=origin,
        pins=pins,
    )


def decode_map(program: MapProgram, point) -> AffineMap:
    """The affine map held in a solution point of a `simplex_map_lp`
    program, read off the basis images.

    Over the lcm l of the point's denominators, a pinned basis point's
    image is l e_j and a variable one's is (l - sum(w_b), w_b).  With M
    the images minus q_0's, one per basis direction, the linear part is
    L M (D B^-1) / (D l) and the offset f(q_0) - M (D B^-1) P_0 / (D l),
    with P = L x the cleared coordinates: integer rows over D l.  The map
    is zero on directions outside aff X.
    """
    outputs = program.outputs
    nums, lw = over_common_denominator(point)
    basis = len(nums) // (outputs - 1)
    images = [[lw * (i == j) for i in range(outputs)] for j in range(program.pins)]
    for b in range(basis):
        tail = nums[b::basis]
        images.append([lw - sum(tail)] + tail)
    base = images[0]
    rows = []
    for i in range(outputs):
        steps = [image[i] - base[i] for image in images[1:]]
        linear = [sum(map(mul, steps, col)) for col in program.inverse]
        shift = sum(map(mul, linear, program.origin))
        rows.append([program.den * a for a in linear] + [base[i] * program.scale - shift])
    return AffineMap.from_integers(rows, program.scale * lw)


# ---------------------------------------------------------------------------
# exact linear algebra (dense, small): one integer elimination,
# `rationals._bareiss`, shared with the simplex's dual solve


def affine_rank(ps: PointSet) -> int:
    """Dimension of the affine hull (0 for a single point): the pivots of
    the cleared difference vectors."""
    return len(_edge_pivots(ps.cleared[0]))


def projection_coordinates(ps: PointSet, subset):
    """Barycentric coordinates, over the frame ps[subset] (two or more
    points), of every point's orthogonal projection onto the frame's
    affine hull: (coords, den) with coordinate j of the projection of
    ps[p] equal to coords[p][j] / den, den > 0; or None when the frame is
    affinely dependent.

    With E the frame's edge vectors q_j - q_0 as rows, over the set's
    cleared integers, x projects to q_0 + E^T mu where
    E E^T mu = E (x - q_0).  One fraction-free Gauss-Jordan pass over
    [E E^T | E (x - q_0) for every x] solves every point at once.  The
    Gram matrix E E^T is singular exactly when the frame is dependent;
    otherwise it is positive definite, so every pivot is a positive
    leading principal minor, no row is swapped, and the pass leaves
    [D I | D mu] with D = det(E E^T) > 0.  The coordinates over D are
    D - sum(D mu), then D mu_1 .. D mu_k.
    """
    P, _ = ps.cleared
    origin = P[subset[0]]
    edges = [[a - b for a, b in zip(P[i], origin)] for i in subset[1:]]
    k = len(edges)
    mat = []
    for e in edges:
        shift = sum(map(mul, e, origin))
        mat.append(
            [sum(map(mul, e, f)) for f in edges] + [sum(map(mul, e, x)) - shift for x in P]
        )
    pivots, _ = _bareiss(mat, jordan=True)
    if pivots[:k] != list(range(k)):
        return None
    den = mat[0][0]
    coords = []
    for c in range(k, k + len(P)):
        mu = tuple(row[c] for row in mat)
        coords.append((den - sum(mu),) + mu)
    return coords, den


# ---------------------------------------------------------------------------
# hull membership


def member(pts: PointSet, x) -> bool:
    """Decide x in conv(pts) by the convex-weight program.  An "outside"
    verdict is self-checked: the Farkas multipliers give an affine
    functional that must separate x from every spanning point."""
    X, xden = over_common_denominator(exact_tuple(x))
    d = pts.dim
    if len(X) != d:
        raise GeometryError("point dimension does not match the polytope")
    n = len(pts)
    # Coordinate rows sum_i w_i p_i = x over L * xden, the points cleared
    # to P / L and x to X / xden; then the weight sum and the sign rows
    # w_i >= 0.
    P, L = pts.cleared
    rows = []
    for t in range(d):
        terms = [(i, p[t] * xden) for i, p in enumerate(P)]
        rows.append(integer_row(terms, EQ, X[t] * L, L * xden))
    rows.append(Constraint(tuple((i, 1) for i in range(n)), EQ, 1, 1))
    rows.extend(Constraint(((i, 1),), GE, 0, 1) for i in range(n))
    out = solve(LinearProgram(n, tuple(rows)))
    if out.status is Status.FEASIBLE:
        return True
    # Farkas multipliers on the coordinate rows give the separating
    # functional: y.x - t > 0 while y.p - t <= 0 for all spanning p, with
    # normal y = -farkas[:d] and t = farkas[d], cleared to Y / yden and
    # T / yden.
    nums, _ = over_common_denominator(out.farkas[: d + 1])
    Y, T = [-a for a in nums[:d]], nums[d]
    if sum(map(mul, Y, X)) <= T * xden or any(sum(map(mul, Y, p)) > T * L for p in P):
        raise GeometryError("separating functional failed verification")
    return False


# ---------------------------------------------------------------------------
# exact volume in low dimension


def _integer_points(pts):
    """(points, L) for points of exact rationals: every coordinate times
    L, the lcm of all the denominators in lowest terms, each read by
    `int_pair`."""
    return cleared_pairs([[int_pair(c) for c in p] for p in pts])


def _det(rows):
    """Determinant of a square integer matrix by Bareiss elimination."""
    mat = [list(r) for r in rows]
    pivots, sign = _bareiss(mat)
    return sign * mat[-1][-1] if len(pivots) == len(mat) else 0


def _edge_pivots(P):
    """Pivot columns of the difference vectors P[i] - P[0] (i >= 1) of
    integer points, taken as columns: the first affinely independent
    points after P[0], in index order."""
    base = P[0]
    if len(P) == 1:
        return []
    cols, _ = _bareiss([[p[t] - base[t] for p in P[1:]] for t in range(len(base))])
    return cols


def _initial_simplex(P):
    """Indices of the first len(P[0]) + 1 affinely independent integer
    points, in index order, or None when the points do not span."""
    cols = _edge_pivots(P)
    return [0] + [c + 1 for c in cols] if len(cols) == len(P[0]) else None


def _plane(P, facet, centre):
    """(normal, offset) of the hyperplane through the facet's d points,
    with integer normal and normal.x <= offset on the hull side:
    normal.centre < (d+1) offset, centre / (d+1) being interior.

    The normal spans the kernel of the facet's d-1 edge vectors: after a
    fraction-free Gauss-Jordan pass every pivot reads D, and with f the
    one column left without a pivot, x_f = D and x_p = -(row's entry at
    f) solve each row D x_p + a_f x_f = 0.
    """
    base = P[facet[0]]
    rows = [[a - b for a, b in zip(P[i], base)] for i in facet[1:]]
    pivots, _ = _bareiss(rows, jordan=True)
    free = next(c for c in range(len(base)) if c not in pivots)
    normal = [0] * len(base)
    normal[free] = rows[0][pivots[0]]
    for row, c in zip(rows, pivots):
        normal[c] = -row[free]
    offset = sum(a * b for a, b in zip(normal, base))
    if sum(a * b for a, b in zip(normal, centre)) > (len(base) + 1) * offset:
        normal, offset = [-a for a in normal], -offset
    return normal, offset


def _boundary(P, simplex):
    """Beneath-beyond on integer points from an initial simplex (indices
    of d+1 affinely independent points): the boundary of conv P as sorted
    d-tuples of point indices, the simplices of a triangulation of it.

    A point sees a facet only when strictly beyond its hyperplane; the
    visible facets go, and every ridge lying in exactly one of them (the
    horizon) is coned to the point.  Points on or beneath every facet
    leave the hull unchanged.
    """
    d = len(P[0])
    # d+1 times the initial simplex's centroid, interior to every hull.
    centre = [sum(P[i][t] for i in simplex) for t in range(d)]
    facets = {}

    def add(facet):
        facets[facet] = _plane(P, facet, centre)

    for facet in combinations(simplex, d):
        add(facet)
    inserted = set(simplex)
    for p, x in enumerate(P):
        if p in inserted:
            continue
        visible = [
            f
            for f, (normal, offset) in facets.items()
            if sum(a * b for a, b in zip(normal, x)) > offset
        ]
        ridges = Counter(r for f in visible for r in combinations(f, d - 1))
        for f in visible:
            del facets[f]
        for ridge, count in ridges.items():
            if count == 1:
                add(tuple(sorted(ridge + (p,))))
    return list(facets)


def volume(ps: PointSet):
    """Exact d-volume of the hull of ps in its ambient dimension d.

    The coordinates are cleared to integers over their lcm L, and a
    beneath-beyond pass triangulates the hull's boundary.  Coning every
    boundary simplex F to an initial-simplex point o, which is weakly
    beneath every facet, gives the volume sum |det(F - o)| / (d! L^d),
    every determinant taken in integers.

    Degenerate inputs (affine rank below d) warn and return 0.  Dimensions
    above VOLUME_DIM_CAP raise.
    """
    d = ps.dim
    if d > VOLUME_DIM_CAP:
        raise GeometryError(
            f"exact volume is supported up to dimension {VOLUME_DIM_CAP}"
        )
    P, den = ps.cleared
    simplex = _initial_simplex(P)
    if simplex is None:
        warnings.warn(
            "volume of a lower-dimensional set is zero",
            DegenerateVolumeWarning,
            stacklevel=2,
        )
        return ZERO
    if d == 1:
        coords = [p[0] for p in P]
        return Fraction(max(coords) - min(coords), den)
    o = P[simplex[0]]
    total = 0
    for facet in _boundary(P, simplex):
        total += abs(_det([[a - b for a, b in zip(P[i], o)] for i in facet]))
    return Fraction(total, factorial(d) * den**d)


# ---------------------------------------------------------------------------
# affine symmetry


@dataclass(frozen=True)
class AffineSymmetry:
    """Generators of the affine automorphism group of a point set, each a
    permutation of its indices, with the data that checks one by
    substitution.

    The generators preserve the integer Gram matrix of the centred points
    in the inner product S^-1, which characterises the affine
    automorphisms (Bremner, Dutour Sikirić, Pasechnik, Rehn, Schürmann
    2014), but only `is_automorphism` proves one.
    """

    generators: tuple
    centred: tuple
    basis: tuple
    coefficients: tuple
    scale: int

    def _moves(self, perm) -> bool:
        images = [self.centred[perm[b]] for b in self.basis]
        for i, coeffs in enumerate(self.coefficients):
            target = self.centred[perm[i]]
            for t, value in enumerate(target):
                if self.scale * value != sum(
                    c * y[t] for c, y in zip(coeffs, images)
                ):
                    return False
        return True

    @cached_property
    def _weights_hold(self) -> bool:
        return (
            self.scale > 0
            and all(sum(row) == self.scale for row in self.coefficients)
            and self._moves(range(len(self.centred)))
        )

    def is_automorphism(self, perm) -> bool:
        """True when some affine map carries every point i to point
        perm[i].  With c_ib the integer weights of the centred point y_i
        over the affine basis (scale * y_i = sum_b c_ib y_b, the weights
        summing to scale), the map fixed by b -> perm[b] sends y_i to
        sum_b c_ib y_perm[b] / scale, so the permutation passes exactly
        when that is y_perm[i] for every i.  The weights are confirmed on
        the identity once, so a pass rests on the points alone."""
        if sorted(perm) != list(range(len(self.centred))):
            return False
        return self._weights_hold and self._moves(perm)


def _refine(weights, colours):
    """Colour refinement of the complete graph with integer edge weights:
    each round splits colours by the sorted (colour, weight) pairs a
    point sees, until no colour splits.  New colours are the ranks of
    the sorted signatures, so they depend on the input only up to
    isomorphism, never on hash or insertion order."""
    span = max(max(row) for row in weights) + 1
    count = len(set(colours))
    while True:
        sigs = [
            (colours[i], tuple(sorted(c * span + w for c, w in zip(colours, row))))
            for i, row in enumerate(weights)
        ]
        rank = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        colours = [rank[sig] for sig in sigs]
        if len(rank) == count:
            return colours
        count = len(rank)


def _individualise(weights, colours, v):
    """Refine after giving point v a colour of its own."""
    return _refine(weights, [2 * c + (i == v) for i, c in enumerate(colours)])


def _extend(weights, path, level, colours, leaf):
    """A weight-preserving permutation carrying the first path's
    colouring at `level` onto `colours`, or None.

    `colours` is refined after individualising one image for each base
    point above `level`; each candidate image of the base point at
    `level` is tried in turn, down to a discrete colouring, where equal
    colours pair each point with its image."""
    left = path[level][1] if level < len(path) else leaf
    if sorted(colours) != sorted(left):
        return None
    if level == len(path):
        where = {c: j for j, c in enumerate(colours)}
        perm = [where[c] for c in leaf]
        for row, image in zip(weights, perm):
            target = weights[image]
            if any(w != target[perm[j]] for j, w in enumerate(row)):
                return None
        return tuple(perm)
    base = path[level][0]
    for w in range(len(colours)):
        if colours[w] == left[base]:
            found = _extend(
                weights, path, level + 1, _individualise(weights, colours, w), leaf
            )
            if found is not None:
                return found
    return None


def _orbit(point, generators):
    orbit, todo = {point}, [point]
    while todo:
        i = todo.pop()
        for g in generators:
            if g[i] not in orbit:
                orbit.add(g[i])
                todo.append(g[i])
    return orbit


def _generator_search(weights):
    """Generators of the permutations preserving a symmetric integer
    weight matrix, found one stabiliser-chain level at a time (McKay,
    Piperno 2014), deepest level first.

    A first path individualises the least point of the first non-singleton
    colour until the colouring is discrete.  At each level, for every
    point of the base point's cell not yet in its orbit under the
    generators found so far, one extension is searched; the generators
    found then generate the stabiliser of the earlier base points.  The
    group is never enumerated.
    """
    n = len(weights)
    colours = _refine(weights, [weights[i][i] for i in range(n)])
    path = []
    while len(set(colours)) < n:
        cell = min(c for c in colours if colours.count(c) > 1)
        base = colours.index(cell)
        path.append((base, colours))
        colours = _individualise(weights, colours, base)
    leaf = colours
    generators = []
    for level in reversed(range(len(path))):
        base, colours = path[level]
        orbit = _orbit(base, generators)
        for w in range(n):
            if colours[w] != colours[base] or w in orbit:
                continue
            perm = _extend(
                weights, path, level + 1, _individualise(weights, colours, w), leaf
            )
            if perm is not None:
                generators.append(perm)
                orbit = _orbit(base, generators)
    return tuple(generators)


def affine_symmetry(ps: PointSet) -> AffineSymmetry:
    """Generators of the affine automorphisms of the set, exact and in
    integers.  The coordinates are cleared and centred as n x_i - sum x;
    keeping their pivot columns gives coordinates Y on the affine hull,
    and the weights G = Y adj(S) Y^T, S = Y^T Y, come from one
    fraction-free Gauss-Jordan pass over [S | Y^T].  Permutations
    preserving G are the affine automorphisms; `_generator_search` finds
    generators of them, and the returned object checks any one by
    substitution over full centred coordinates."""
    P, _ = ps.cleared
    n = len(P)
    sums = [sum(col) for col in zip(*P)]
    centred = [tuple(n * a - s for a, s in zip(p, sums)) for p in P]
    cols, _ = _bareiss([list(y) for y in centred])
    Y = [[y[c] for c in cols] for y in centred]
    r = len(cols)
    aug = [
        [sum(y[a] * y[b] for y in Y) for b in range(r)] + [y[a] for y in Y]
        for a in range(r)
    ]
    _bareiss(aug, jordan=True)
    # Every pivot of S is a leading principal minor, positive, so the pass
    # swaps no rows and the right block holds det(S) S^-1 Y^T.
    G = [[sum(y[a] * aug[a][r + j] for a in range(r)) for j in range(n)] for y in Y]
    values = {g: v for v, g in enumerate(sorted({g for row in G for g in row}))}
    weights = [[values[g] for g in row] for row in G]
    basis = _initial_simplex(Y)
    # Affine coordinates over the basis: [M | R] with M's columns the edge
    # vectors y_b - y_b0 and R's the differences y_i - y_b0.
    y0 = Y[basis[0]]
    aug = [
        [Y[b][a] - y0[a] for b in basis[1:]] + [y[a] - y0[a] for y in Y]
        for a in range(r)
    ]
    _bareiss(aug, jordan=True)
    scale = aug[0][0]
    coefficients = []
    for i in range(n):
        tail = [aug[t][r + i] for t in range(r)]
        coefficients.append((scale - sum(tail),) + tuple(tail))
    if scale < 0:
        scale = -scale
        coefficients = [tuple(-c for c in row) for row in coefficients]
    return AffineSymmetry(
        _generator_search(weights),
        tuple(centred),
        tuple(basis),
        tuple(coefficients),
        scale,
    )


# ---------------------------------------------------------------------------
# point-set file format


def point_set_to_obj(ps: PointSet) -> dict:
    """The point-set document: "p/q" strings in lowest terms."""
    return {
        "dim": ps.dim,
        "points": [[str(c) for c in p] for p in ps.points],
    }


def point_set_from_obj(obj) -> PointSet:
    if not isinstance(obj, dict):
        raise GeometryError("point set document must be an object")
    for field in ("dim", "points"):
        if field not in obj:
            raise GeometryError(f"point set document lacks the {field!r} field")
    dim = obj["dim"]
    rows = obj["points"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise GeometryError("field 'dim' must be a positive integer")
    if not isinstance(rows, list) or not rows:
        raise GeometryError("field 'points' must be a non-empty list")
    # Each entry, a JSON int or a "p"/"p/q" string, is read straight into
    # an integer pair in lowest terms.
    pairs = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise GeometryError(
                f"point {i} must be a list of {dim} rational strings"
            )
        try:
            pairs.append([int_pair(c) for c in row])
        except ValueError as exc:
            raise GeometryError(f"point {i}: {exc}") from exc
    try:
        return PointSet.from_integers(*cleared_pairs(pairs))
    except GeometryError as exc:
        raise GeometryError(f"invalid point set: {exc}") from exc


def load_point_set(path) -> PointSet:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # Malformed JSON, bytes that are not UTF-8, nesting past the
            # recursion limit, or an integer too long to convert.
            raise GeometryError(f"{path}: not valid JSON ({exc})") from exc
    return point_set_from_obj(obj)


def dump_point_set(ps: PointSet, path):
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(point_set_to_obj(ps), fh, indent=2, sort_keys=True)
        fh.write("\n")
