"""Exact convex geometry in V-representation.

Points are tuples of exact rationals.  Polytopes are given by spanning
points (not necessarily vertices); membership, relative-interior
membership, barycentric coordinates, affine rank and orthogonal
projection onto an affine hull are decided exactly.  Membership queries
answer with a certificate either way: convex coefficients inside, a
separating affine functional outside.

The dense linear algebra is one fraction-free elimination,
`rationals._bareiss` (Bareiss 1968), on rows cleared to integers: ranks,
unique solutions, barycentric coordinates, determinants, facet normals,
pivot columns and Gram matrices all come from it.  The kernel lives in
the leaf module `rationals` because `exact_lp` uses it too, for the
simplex's dual solve, and this module imports `exact_lp`.  A `PointSet`
clears its coordinates over their common denominator once
(`PointSet.cleared`), and its affine rank, symmetry, volume, map
programs and map images (`AffineMap.cleared_images`) share that.

`simplex_map_lp` is the one builder of the program for an affine map
into the standard simplex.  With the tuple's points pinned to the
vertices, one integer Gauss-Jordan pass presolves the pins away
(Andersen & Andersen 1995): k(r - k) variables remain for a k-simplex in
a set of affine rank r, none when k = r, and `decode_map` rebuilds the
map in the original coordinates in integers.

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
from itertools import combinations
from math import factorial, lcm
from operator import mul
from typing import Optional

from .exact_lp import (
    EQ,
    GE,
    LE,
    LinearProgram,
    LPOutcome,
    Status,
    make_lp,
    solve,
    solve_strict,
)
from .rationals import (
    ONE,
    ZERO,
    _bareiss,
    exact_tuple,
    int_ratio,
    over_common_denominator,
    ratio,
)

#: Exact volume is supported up to this ambient dimension by default.  The
#: boundary triangulation, and with it the cost, grows quickly with the
#: dimension: the d-cube's 2d facets split into 2 d! boundary simplices.
VOLUME_DIM_CAP = 4


class GeometryError(ValueError):
    """Dimension mismatches, degenerate inputs, broken preconditions."""


class DegenerateVolumeWarning(UserWarning):
    """Volume was requested for a set that does not span its space."""


def as_point(coords) -> tuple:
    return exact_tuple(coords)


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vscale(s, a):
    return tuple(s * x for x in a)


def vdot(a, b):
    total = ZERO
    for x, y in zip(a, b):
        total += x * y
    return total


@dataclass(frozen=True)
class PointSet:
    """Finite list of pairwise distinct points in a common dimension."""

    points: tuple

    def __post_init__(self):
        pts = tuple(as_point(p) for p in self.points)
        if not pts:
            raise GeometryError("a point set needs at least one point")
        dim = len(pts[0])
        if dim == 0:
            raise GeometryError("points need at least one coordinate")
        if any(len(p) != dim for p in pts):
            raise GeometryError("points have mixed dimensions")
        if len(set(pts)) != len(pts):
            raise GeometryError("points must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, idx):
        return self.points[idx]

    @cached_property
    def cleared(self):
        """(points, L): every coordinate times L, the lcm of all the
        denominators, as integer tuples; computed once per set."""
        return _integer_points(self.points)


@dataclass(frozen=True)
class Polytope:
    """Convex hull of spanning points; no facet structure is maintained."""

    spanning: PointSet

    @classmethod
    def from_points(cls, points) -> "Polytope":
        return cls(PointSet(tuple(points)))

    @property
    def dim(self) -> int:
        return self.spanning.dim


@dataclass(frozen=True)
class Dilation:
    """x maps to (1 - factor) * center + factor * x, factor in (0, 1]."""

    center: tuple
    factor: object

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        factor = ratio(self.factor)
        if not (0 < factor <= 1):
            raise GeometryError("dilation factor must lie in (0, 1]")
        object.__setattr__(self, "factor", factor)

    def apply(self, x) -> tuple:
        lam = self.factor
        return tuple(
            (1 - lam) * c + lam * v for c, v in zip(self.center, as_point(x))
        )

    def preimage(self, y) -> tuple:
        lam = self.factor
        return tuple(
            (v - (1 - lam) * c) / lam for c, v in zip(self.center, as_point(y))
        )


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
        return PointSet(tuple(self.vertex(j) for j in range(self.rank + 1)))

    def contains(self, p, strict=False) -> bool:
        p = as_point(p)
        if len(p) != self.rank + 1:
            return False
        if sum(p, ZERO) != 1:
            return False
        return all(c > 0 for c in p) if strict else all(c >= 0 for c in p)


@dataclass(frozen=True)
class AffineMap:
    """x maps to matrix @ x + offset, rows indexed by output coordinate."""

    matrix: tuple
    offset: tuple

    def __post_init__(self):
        rows = tuple(as_point(r) for r in self.matrix)
        off = as_point(self.offset)
        if not rows:
            raise GeometryError("affine map needs at least one output row")
        if len({len(r) for r in rows}) != 1:
            raise GeometryError("matrix rows have mixed lengths")
        if len(off) != len(rows):
            raise GeometryError("offset length must match the row count")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "offset", off)

    @property
    def in_dim(self) -> int:
        return len(self.matrix[0])

    @property
    def out_dim(self) -> int:
        return len(self.matrix)

    def apply(self, x) -> tuple:
        x = as_point(x)
        if len(x) != self.in_dim:
            raise GeometryError("point dimension does not match the map")
        return tuple(vdot(row, x) + c for row, c in zip(self.matrix, self.offset))

    def cleared_images(self, ps: PointSet):
        """(images, den): output i at ps[p] is images[p][i] / den, den > 0,
        computed in integers.

        Row i is cleared over the lcm D_i of its denominators and raised
        to D, the lcm of the D_i; with the set's coordinates over their
        lcm L (`PointSet.cleared`), den = D L.
        """
        rows = [
            over_common_denominator(r + (c,)) for r, c in zip(self.matrix, self.offset)
        ]
        common = lcm(*(d for _, d in rows))
        rows = [[a * (common // d) for a in row] for row, d in rows]
        P, den = ps.cleared
        # zip stops at the point's coordinates, before the offset entry.
        images = [[row[-1] * den + sum(map(mul, row, p)) for row in rows] for p in P]
        return images, common * den


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

    A pinned program keeps D B^-1 in integers (`inverse`, its first r
    rows, and `scale` = D > 0), the set's common denominator `den`, the
    cleared first pinned point `origin`, and `free` = r - k.
    """

    lp: Optional[LinearProgram]
    offset: object
    outputs: int
    decided: Optional[LPOutcome] = None
    inverse: Optional[tuple] = None
    scale: int = 1
    den: int = 1
    origin: Optional[tuple] = None
    free: int = 0

    def solve(self) -> LPOutcome:
        """The outcome: `decided`, or the solver's on `lp`."""
        return self.decided if self.lp is None else solve(self.lp)


def simplex_map_lp(points, outputs, pinned=(), score=(), maximize=True):
    """Program for an affine map sending every point into the standard
    simplex on `outputs` outcomes, with pinned[j] sent to vertex j.

    A nonempty `score`, a list of (output, point) pairs, makes the sum of
    those outputs at those points the objective, to maximise or minimise;
    a program objective has no constant term, so the score's constant
    part goes to the returned `MapProgram`'s offset.

    Without pins, the first outputs - 1 map rows are the variables:
    (outputs - 1) x (d+1) entries, row-major, each row holding d linear
    coefficients followed by its offset.  The last output is 1 minus the
    sum of the others, so the outputs sum to 1 everywhere.  Rows: every
    variable output >= 0 at every point, then the variable outputs
    summing to <= 1 at every point.  A score pair naming the last output
    adds minus the other outputs and 1 to the offset.

    With pins (all `outputs` of them, points of the set), the pins fix
    the map on the frame's affine hull, so only k(r - k) entries are
    left, k = outputs - 1 and r the affine rank of the set.  One
    fraction-free Gauss-Jordan pass over the cleared integer matrix
    [q_1-q_0 .. q_k-q_0 | x-q_0 for the other points x | I_d] finds
    them.  Unless its first k columns are all pivots the frame is
    dependent and no map exists.  The other pivots among the points give
    r - k free directions u_s = x_s - q_0, which with the edges form a
    basis of the directions of aff X, and every point's coordinates
    (beta, gamma) in it; the I_d block holds D B^-1.  The variables are
    w_{s,i}, the map's linear part on u_s at output i = 1..k, output by
    output (output 0 takes minus their sum).  Rows: output i >= 0 at
    every unpinned point, outputs 0..k in turn, as
    beta_i(x) + sum_s gamma_s(x) w_{s,i} >= 0 for i >= 1 and
    1 - sum beta(x) - sum_s gamma_s(x) sum_i w_{s,i} >= 0 for output 0,
    each times D.  A row without variables is checked at once and
    dropped, so k = r needs no program at all.  Each free direction's
    own point makes its rows sign bounds, which the solver keeps out of
    the tableau.
    """
    if pinned:
        if not isinstance(points, PointSet):
            points = PointSet(tuple(points))
        return _pinned_program(points, outputs, tuple(pinned), score, maximize)
    points = tuple(points)
    free = outputs - 1
    blank = (ZERO,) * (len(points[0]) + 1)

    def at(i, p):
        # Output i < free evaluated at p, as a row over the map entries.
        return blank * i + p + (ONE,) + blank * (free - 1 - i)

    rows = [(at(i, x), GE, ZERO) for x in points for i in range(free)]
    rows += [((x + (ONE,)) * free, LE, ONE) for x in points]
    objective = None
    offset = 0
    if score:
        objective = [ZERO] * (len(blank) * free)
        for i, x in score:
            if i < free:
                blocks, sign = (i,), ONE
            else:
                blocks, sign = range(free), -ONE
                offset += 1
            for b in blocks:
                for col, c in enumerate(x + (ONE,), b * len(blank)):
                    objective[col] += sign * c
    lp = make_lp(len(blank) * free, rows, objective=objective, maximize=maximize)
    return MapProgram(lp, offset, outputs)


def _pinned_program(ps: PointSet, outputs, pinned, score, maximize) -> MapProgram:
    """The presolved pinned program of `simplex_map_lp`."""
    if len(pinned) != outputs:
        raise GeometryError("a pinned program pins every output")
    P, den = ps.cleared
    try:
        frame = [ps.points.index(q) for q in pinned]
    except ValueError:
        raise GeometryError("pinned points must be points of the set") from None
    infeasible = MapProgram(None, 0, outputs, LPOutcome(Status.INFEASIBLE))
    k = outputs - 1
    origin = P[frame[0]]
    d = len(origin)
    taken = set(frame)
    rest = [i for i in range(len(P)) if i not in taken]
    columns = [P[i] for i in frame[1:]] + [P[i] for i in rest]
    mat = [
        [p[t] - origin[t] for p in columns] + [int(t == u) for u in range(d)]
        for t in range(d)
    ]
    pivots, _ = _bareiss(mat, jordan=True)
    if pivots[:k] != list(range(k)):
        return infeasible
    free = sum(1 for c in pivots if k <= c < len(columns))
    # Every pivot row reads the last pivot at its pivot column; reading
    # the rows times its sign makes D > 0.
    sign = 1 if mat[0][0] > 0 else -1
    D = sign * mat[0][0]
    nvars = k * free
    # Each point's column in the pass; q_0 has none (all coordinates 0).
    column = {i: j for j, i in enumerate(frame[1:])}
    column.update((i, k + j) for j, i in enumerate(rest))

    def output(i, idx):
        # Output i at point idx: integer coefficients over the variables
        # and a constant, both over D.
        c = column.get(idx)
        beta = [0] * k if c is None else [sign * mat[j][c] for j in range(k)]
        gamma = [0] * free if c is None else [sign * mat[k + s][c] for s in range(free)]
        if i == 0:
            return [-g for g in gamma] * k, D - sum(beta)
        coeffs = [0] * nvars
        coeffs[(i - 1) * free : i * free] = gamma
        return coeffs, beta[i - 1]

    rows = []
    for idx in rest:
        for i in range(outputs):
            coeffs, const = output(i, idx)
            if any(coeffs):
                rows.append((coeffs, GE, -const))
            elif const < 0:
                return infeasible
    objective, offset = None, 0
    if score:
        total, constant = [0] * nvars, 0
        for i, x in score:
            try:
                coeffs, const = output(i, ps.points.index(x))
            except ValueError:
                raise GeometryError("score points must be points of the set") from None
            total = [a + b for a, b in zip(total, coeffs)]
            constant += const
        objective = tuple(int_ratio(a, D) for a in total)
        offset = int_ratio(constant, D)
    lp = decided = None
    if rows:
        lp = make_lp(nvars, rows, objective=objective, maximize=maximize)
    else:
        value = ZERO if score else None
        decided = LPOutcome(Status.FEASIBLE, point=(), objective_value=value)
    return MapProgram(
        lp,
        offset,
        outputs,
        decided,
        inverse=tuple(
            tuple(sign * a for a in row[len(columns) :]) for row in mat[: k + free]
        ),
        scale=D,
        den=den,
        origin=origin,
        free=free,
    )


def decode_map(program: MapProgram, point) -> AffineMap:
    """The affine map held in a solution point of a `simplex_map_lp`
    program.

    Without pins, the last row is rebuilt as 1 minus the sum of the
    others.  With pins, the map's values on the basis vectors are e_j - e_0
    on the edge q_j - q_0 and w_s on the free direction u_s; over the
    integers M (those values times the lcm l of the point's denominators)
    the linear part is L M (D B^-1) / (D l) and the offset
    e_0 - M (D B^-1) P_0 / (D l), with P = L x the cleared coordinates.
    The map is zero on directions outside aff X.
    """
    outputs = program.outputs
    if program.inverse is None:
        width = len(point) // (outputs - 1)
        rows = [point[i * width : (i + 1) * width] for i in range(outputs - 1)]
        last = tuple(-sum(col, ZERO) for col in zip(*rows))
        last = last[:-1] + (ONE + last[-1],)
        rows.append(last)
        return AffineMap(tuple(r[:-1] for r in rows), tuple(r[-1] for r in rows))
    k, free = outputs - 1, program.free
    nums, lw = over_common_denominator(point)
    values = [
        [lw if j == i else 0 for j in range(k)] + nums[i * free : (i + 1) * free]
        for i in range(k)
    ]
    values.insert(0, [-sum(col) for col in zip(*values)])
    scale = program.scale * lw
    matrix, offset = [], []
    for i, row in enumerate(values):
        linear = [sum(map(mul, row, col)) for col in zip(*program.inverse)]
        matrix.append(tuple(int_ratio(program.den * a, scale) for a in linear))
        shift = sum(map(mul, linear, program.origin))
        offset.append(int_ratio((scale if i == 0 else 0) - shift, scale))
    return AffineMap(tuple(matrix), tuple(offset))


# ---------------------------------------------------------------------------
# exact linear algebra (dense, small): one integer elimination,
# `rationals._bareiss`, shared with the simplex's dual solve


def _cleared_rows(rows):
    """Each row of rationals (or anything `ratio` takes) times the lcm of
    its own denominators: the same solutions, pivots and rank."""
    return [over_common_denominator(exact_tuple(r))[0] for r in rows]


def matrix_rank(rows) -> int:
    if not rows:
        return 0
    pivots, _ = _bareiss(_cleared_rows(rows))
    return len(pivots)


def solve_unique(rows, rhs):
    """Solve a square-rank linear system with a unique solution.

    Raises GeometryError when the matrix is rank-deficient or the system
    inconsistent; callers use this only where uniqueness is guaranteed.
    """
    aug = _cleared_rows([list(r) + [b] for r, b in zip(rows, rhs)])
    ncols = len(aug[0]) - 1
    pivots, _ = _bareiss(aug, jordan=True)
    if ncols in pivots:
        raise GeometryError("inconsistent linear system")
    if len(pivots) != ncols:
        raise GeometryError("linear system is rank-deficient")
    return tuple(int_ratio(aug[r][-1], aug[r][c]) for r, c in enumerate(pivots))


def affine_rank(ps: PointSet) -> int:
    """Dimension of the affine hull (0 for a single point): the pivots of
    the cleared difference vectors."""
    return len(_edge_pivots(ps.cleared[0]))


def barycentric(vertices: PointSet, x) -> tuple:
    """Coordinates of x in an affinely independent frame, summing to 1.

    Coordinates may be negative when x lies outside the hull; the frame
    must be affinely independent and x must lie in its affine hull.  One
    fraction-free Gauss-Jordan pass over [V; 1 | x; 1] decides both: the
    frame's columns must all be pivots, the last column must not be.
    """
    x = as_point(x)
    if len(x) != vertices.dim:
        raise GeometryError("point dimension does not match the frame")
    n = len(vertices)
    rows = [[p[t] for p in vertices] + [x[t]] for t in range(vertices.dim)]
    aug = _cleared_rows(rows + [[ONE] * (n + 1)])
    pivots, _ = _bareiss(aug, jordan=True)
    if pivots[:n] != list(range(n)):
        raise GeometryError("frame is affinely dependent")
    if n in pivots:
        raise GeometryError("point lies outside the affine hull of the frame")
    return tuple(int_ratio(aug[r][-1], aug[r][r]) for r in range(n))


# ---------------------------------------------------------------------------
# membership with certificates


@dataclass(frozen=True)
class Membership:
    """Verdict plus certificate for a hull membership query.

    Inside: convex coefficients over the spanning points (positive on every
    point for relative-interior queries over the affine hull).  Outside: an
    affine functional with normal.x > threshold while normal.p <= threshold
    on the hull (equality everywhere only in the relative-interior case,
    where the functional exposes a proper face through x).
    """

    inside: bool
    coefficients: Optional[tuple] = None
    normal: Optional[tuple] = None
    threshold: Optional[object] = None


def member(poly: Polytope, x, strict: bool = False) -> Membership:
    """Decide x in conv(spanning); strict decides x in the relative
    interior (all convex coefficients positive)."""
    x = as_point(x)
    if len(x) != poly.dim:
        raise GeometryError("point dimension does not match the polytope")
    pts = poly.spanning
    n = len(pts)
    d = poly.dim
    rows = []
    for t in range(d):
        rows.append((tuple(p[t] for p in pts), EQ, x[t]))
    rows.append(((ONE,) * n, EQ, ONE))
    nonneg_start = len(rows)
    for i in range(n):
        coeffs = tuple(ONE if j == i else ZERO for j in range(n))
        rows.append((coeffs, GE, ZERO))
    lp = make_lp(n, rows)
    if strict:
        out = solve_strict(lp, range(nonneg_start, nonneg_start + n))
    else:
        out = solve(lp)
    if out.status is Status.FEASIBLE:
        return Membership(True, coefficients=out.point)
    # Farkas multipliers on the coordinate rows give the separating
    # functional: y.x - t > 0 while y.p - t <= 0 for all spanning p.
    y = out.farkas
    normal = tuple(-y[t] for t in range(d))
    threshold = y[d]
    for p in pts:
        if vdot(normal, p) > threshold:
            raise GeometryError("separating functional failed verification")
    margin = vdot(normal, x) - threshold
    if strict:
        if margin < 0:
            raise GeometryError("separating functional failed verification")
    elif margin <= 0:
        raise GeometryError("separating functional failed verification")
    return Membership(False, normal=normal, threshold=threshold)


def orthogonal_project(ps: PointSet, frame: PointSet):
    """Project every point of ps orthogonally onto the affine hull of the
    frame; the frame must be affinely independent.

    Returns a tuple of points aligned with ps (projections of distinct
    points may coincide, so the result is not a PointSet).
    """
    if ps.dim != frame.dim:
        raise GeometryError("point set and frame dimensions differ")
    if affine_rank(frame) != len(frame) - 1:
        raise GeometryError("projection frame is affinely dependent")
    base = frame[0]
    basis = [vsub(p, base) for p in frame.points[1:]]
    out = []
    if not basis:
        return tuple(base for _ in ps)
    gram = [[vdot(u, v) for v in basis] for u in basis]
    for p in ps:
        rhs = [vdot(u, vsub(p, base)) for u in basis]
        coeffs = solve_unique(gram, rhs)
        proj = base
        for c, u in zip(coeffs, basis):
            proj = vadd(proj, vscale(c, u))
        out.append(proj)
    return tuple(out)


# ---------------------------------------------------------------------------
# exact volume in low dimension


def _integer_points(pts):
    """(points, L): every coordinate times L, the lcm of all denominators."""
    d = len(pts[0])
    nums, den = over_common_denominator([c for p in pts for c in p])
    return [tuple(nums[i : i + d]) for i in range(0, len(nums), d)], den


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


def volume(poly: Polytope, dim_cap: int = VOLUME_DIM_CAP):
    """Exact d-volume of the hull in its ambient dimension d.

    The coordinates are cleared to integers over their lcm L, and a
    beneath-beyond pass triangulates the hull's boundary.  Coning every
    boundary simplex F to an initial-simplex point o, which is weakly
    beneath every facet, gives the volume sum |det(F - o)| / (d! L^d),
    every determinant taken in integers.

    Degenerate inputs (affine rank below d) warn and return 0.  Dimensions
    above dim_cap raise.
    """
    d = poly.dim
    if d > dim_cap:
        raise GeometryError(
            f"exact volume is supported up to dimension {dim_cap}"
        )
    pts = poly.spanning.points
    P, den = poly.spanning.cleared
    simplex = _initial_simplex(P)
    if simplex is None:
        warnings.warn(
            "volume of a lower-dimensional set is zero",
            DegenerateVolumeWarning,
            stacklevel=2,
        )
        return ZERO
    if d == 1:
        coords = [p[0] for p in pts]
        return max(coords) - min(coords)
    o = P[simplex[0]]
    total = 0
    for facet in _boundary(P, simplex):
        total += abs(_det([[a - b for a, b in zip(P[i], o)] for i in facet]))
    return int_ratio(total, factorial(d) * den**d)


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
    from .rationals import ratio_str

    return {
        "dim": ps.dim,
        "points": [[ratio_str(c) for c in p] for p in ps.points],
    }


def point_set_from_obj(obj) -> PointSet:
    if not isinstance(obj, dict):
        raise GeometryError("point set document must be an object")
    for field in ("dim", "points"):
        if field not in obj:
            raise GeometryError(f"point set document lacks the {field!r} field")
    dim = obj["dim"]
    rows = obj["points"]
    if not isinstance(dim, int) or dim < 1:
        raise GeometryError("field 'dim' must be a positive integer")
    if not isinstance(rows, list) or not rows:
        raise GeometryError("field 'points' must be a non-empty list")
    pts = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise GeometryError(
                f"point {i} must be a list of {dim} rational strings"
            )
        try:
            pts.append(as_point(row))
        except ValueError as exc:
            raise GeometryError(f"point {i}: {exc}") from exc
    try:
        return PointSet(tuple(pts))
    except GeometryError as exc:
        raise GeometryError(f"invalid point set: {exc}") from exc


def load_point_set(path) -> PointSet:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"{path}: not valid JSON ({exc})") from exc
    return point_set_from_obj(obj)


def dump_point_set(ps: PointSet, path):
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(point_set_to_obj(ps), fh, indent=2, sort_keys=True)
        fh.write("\n")
