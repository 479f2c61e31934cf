"""Exact volume from the integer beneath-beyond boundary, against the
brute-force facet enumeration and centroid triangulation it replaced; and
the integer elimination kernel, with the projection coordinates it gives,
against the rational Gauss-Jordan it replaced."""

import itertools
import warnings
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from antipodes.geometry import (
    DegenerateVolumeWarning,
    GeometryError,
    PointSet,
    _boundary,
    _det,
    _initial_simplex,
    _integer_points,
    affine_rank,
    projection_coordinates,
    volume,
)
from antipodes.rationals import (
    ONE,
    ZERO,
    _bareiss,
    exact_tuple,
    over_common_denominator,
    ratio,
    vdot,
)

_PRIMES = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


# ---------------------------------------------------------------------------
# rational vector helpers, and integer solvers over the Bareiss kernel that
# `geometry` no longer needs: the brute-force references below use the
# first, and the kernel test checks the second against rational
# Gauss-Jordan


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(s, a):
    return tuple(s * x for x in a)


def _cleared_rows(rows):
    """Each row times the lcm of its own denominators."""
    return [over_common_denominator(exact_tuple(r))[0] for r in rows]


def matrix_rank(rows) -> int:
    if not rows:
        return 0
    pivots, _ = _bareiss(_cleared_rows(rows))
    return len(pivots)


def solve_unique(rows, rhs):
    aug = _cleared_rows([list(r) + [b] for r, b in zip(rows, rhs)])
    ncols = len(aug[0]) - 1
    pivots, _ = _bareiss(aug, jordan=True)
    if ncols in pivots:
        raise GeometryError("inconsistent linear system")
    if len(pivots) != ncols:
        raise GeometryError("linear system is rank-deficient")
    return tuple(Fraction(aug[r][-1], aug[r][c]) for r, c in enumerate(pivots))


def barycentric(vertices, x) -> tuple:
    x = exact_tuple(x)
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
    return tuple(Fraction(aug[r][-1], aug[r][r]) for r in range(n))


# ---------------------------------------------------------------------------
# reference: every d-subset ranked, facets triangulated through centroids


def _row_echelon(rows):
    """Gauss-Jordan on rationals: (reduced rows, pivot columns).  The
    reference for the integer elimination `geometry` uses."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = ONE / mat[r][c]
        mat[r] = [a * inv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _nullspace_vector(rows, ncols):
    mat, pivots = _row_echelon([list(map(ratio, r)) for r in rows])
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        raise GeometryError("nullspace is not one-dimensional")
    f = free[0]
    vec = [ZERO] * ncols
    vec[f] = ONE
    for r, c in enumerate(pivots):
        vec[c] = -mat[r][f]
    return tuple(vec)


def _supporting_facets(pts, d):
    """All supporting hyperplanes spanned by input points, as
    (inward-normal, offset, incident-index-tuple) triples."""
    facets = {}
    for subset in itertools.combinations(range(len(pts)), d):
        base = pts[subset[0]]
        diffs = [vsub(pts[i], base) for i in subset[1:]]
        if matrix_rank(diffs) != d - 1:
            continue
        normal = _nullspace_vector(diffs, d)
        offset = vdot(normal, base)
        sides = [vdot(normal, p) - offset for p in pts]
        if all(s <= 0 for s in sides):
            normal, offset = vscale(-ONE, normal), -offset
            sides = [-s for s in sides]
        elif not all(s >= 0 for s in sides):
            continue
        lead = next(c for c in normal if c != 0)
        scale = ONE / lead if lead > 0 else -ONE / lead
        key = (vscale(scale, normal), scale * offset)
        if key not in facets:
            facets[key] = tuple(i for i, s in enumerate(sides) if s == 0)
    return [(k[0], k[1], v) for k, v in sorted(facets.items())]


def _affine_frame(pts):
    base = pts[0]
    diffs = [vsub(p, base) for p in pts[1:]]
    rank = matrix_rank(diffs)
    basis = []
    for dvec in diffs:
        if matrix_rank(basis + [dvec]) > len(basis):
            basis.append(list(dvec))
        if len(basis) == rank:
            break
    gram = [[vdot(u, v) for v in basis] for u in basis]
    coords = [
        solve_unique(gram, [vdot(u, vsub(p, base)) for u in basis]) for p in pts
    ]
    return base, basis, coords


def _lift(base, basis, local):
    out = base
    for c, u in zip(local, basis):
        out = tuple(x + c * y for x, y in zip(out, u))
    return out


def _simplices(pts, d):
    if d == 1:
        return [(min(pts), max(pts))]
    centroid = tuple(sum(col, ZERO) / len(pts) for col in zip(*pts))
    out = []
    for _, _, incident in _supporting_facets(pts, d):
        base, basis, flat = _affine_frame([pts[i] for i in incident])
        for cell in _simplices(flat, d - 1):
            out.append(tuple(_lift(base, basis, c) for c in cell) + (centroid,))
    return out


def _fraction_det(rows):
    mat = [list(r) for r in rows]
    n = len(mat)
    det = ONE
    for c in range(n):
        pivot = next((r for r in range(c, n) if mat[r][c] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        for r in range(c + 1, n):
            f = mat[r][c] / mat[c][c]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[c])]
    return det


def _reference_volume(pts, d):
    total = ZERO
    for cell in _simplices(list(pts), d):
        total += abs(_fraction_det([vsub(v, cell[-1]) for v in cell[:-1]]))
    return total / factorial(d)


# ---------------------------------------------------------------------------
# point sets


@st.composite
def _random_rationals(draw, d):
    coord = st.builds(
        ratio, st.integers(-4, 4), st.sampled_from((1, 2, 3) + _PRIMES)
    )
    pts = draw(
        st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 5, unique=True)
    )
    return PointSet(tuple(pts))


@st.composite
def _grid_subset(draw, d):
    """Points of the 0..2 grid: many coplanar, collinear and interior ones."""
    grid = list(itertools.product(range(3), repeat=d))
    pts = draw(
        st.lists(st.sampled_from(grid), min_size=d + 1, max_size=d + 6, unique=True)
    )
    return PointSet(tuple(tuple(ratio(c) for c in p) for p in pts))


@st.composite
def _prime_grid(draw, d):
    """A grid subset over one prime denominator, moved by a prime offset."""
    ps = draw(_grid_subset(d))
    p, q = draw(st.sampled_from(_PRIMES)), draw(st.sampled_from(_PRIMES))
    shift = tuple(ratio(draw(st.integers(-3, 3)), q) for _ in range(d))
    return PointSet(tuple(tuple(c / p + s for c, s in zip(x, shift)) for x in ps))


def _point_sets(d):
    return st.one_of(_random_rationals(d), _grid_subset(d), _prime_grid(d))


_any_set = st.sampled_from((2, 3, 4)).flatmap(_point_sets)


# ---------------------------------------------------------------------------
# tests


def _volume_quietly(ps):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        v = volume(ps)
    return v, [w.category for w in caught]


@settings(max_examples=150, deadline=None)
@given(_any_set)
def test_volume_matches_brute_force(ps):
    v, caught = _volume_quietly(ps)
    if affine_rank(ps) < ps.dim:
        assert v == 0 and caught == [DegenerateVolumeWarning]
    else:
        assert caught == []
        assert v == _reference_volume(ps.points, ps.dim)


@settings(max_examples=150, deadline=None)
@given(_any_set)
def test_boundary_is_a_closed_supporting_triangulation(ps):
    d = ps.dim
    P, den = _integer_points(ps.points)
    assert all(
        Fraction(a, den) == c for x, p in zip(P, ps.points) for a, c in zip(x, p)
    )
    simplex = _initial_simplex(P)
    if affine_rank(ps) < d:
        assert simplex is None
        return
    assert len(simplex) == d + 1
    assert affine_rank(PointSet(tuple(ps[i] for i in simplex))) == d
    facets = _boundary(P, simplex)
    assert len(set(facets)) == len(facets)
    # A closed pseudo-manifold: every ridge lies in exactly two simplices.
    ridges = {}
    for f in facets:
        assert list(f) == sorted(set(f)) and len(f) == d
        for r in itertools.combinations(f, d - 1):
            ridges[r] = ridges.get(r, 0) + 1
    assert set(ridges.values()) == {2}
    # Each simplex spans a supporting hyperplane of the whole set.
    for f in facets:
        base = ps[f[0]]
        diffs = [vsub(ps[i], base) for i in f[1:]]
        assert matrix_rank(diffs) == d - 1
        normal = _nullspace_vector(diffs, d)
        offset = vdot(normal, base)
        sides = {vdot(normal, x) - offset for x in ps}
        assert all(s >= 0 for s in sides) or all(s <= 0 for s in sides)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_matches_fraction_elimination(rows):
    assert _det(rows) == _fraction_det([[ratio(a) for a in r] for r in rows])


def test_det_of_singular_and_permuted_matrices():
    assert _det([[0, 1], [1, 0]]) == -1
    assert _det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert _det([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 0
    assert _det([[0, 2], [0, 5]]) == 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cube_boundary_and_volume(d):
    # The corners of [0, 2]^d first, then the other grid points, which all
    # lie on or beneath the corners' hull: none of them sees a facet.
    grid = sorted(
        itertools.product(range(3), repeat=d), key=lambda x: 1 in x
    )
    corners = {i for i, x in enumerate(grid) if 1 not in x}
    ps = PointSet(tuple(tuple(ratio(c) for c in x) for x in grid))
    P, den = _integer_points(ps.points)
    facets = _boundary(P, _initial_simplex(P))
    assert {i for f in facets for i in f} == corners
    assert len(facets) == 2 * factorial(d)
    # Every boundary simplex lies in one of the 2d square facets.
    assert all(
        any(len({P[i][t] for i in f}) == 1 for t in range(d)) for f in facets
    )
    assert volume(ps) == 2**d
    shrunk = PointSet(tuple(tuple(c * 3 / 7 for c in x) for x in ps.points))
    assert volume(shrunk) == ratio(6, 7) ** d


# ---------------------------------------------------------------------------
# the integer kernel against the rational Gauss-Jordan reference


def _reference_rank(rows):
    rows = [list(map(ratio, r)) for r in rows]
    return len(_row_echelon(rows)[1]) if rows else 0


def _reference_solve(rows, rhs):
    aug = [list(map(ratio, r)) + [ratio(b)] for r, b in zip(rows, rhs)]
    ncols = len(aug[0]) - 1
    mat, pivots = _row_echelon(aug)
    if ncols in pivots:
        raise GeometryError("inconsistent linear system")
    if len(pivots) != ncols:
        raise GeometryError("linear system is rank-deficient")
    solution = [ZERO] * ncols
    for r, c in enumerate(pivots):
        solution[c] = mat[r][-1]
    return tuple(solution)


def _reference_affine_rank(ps):
    return _reference_rank([vsub(p, ps[0]) for p in ps.points[1:]])


def _reference_barycentric(vertices, x):
    if len(x) != vertices.dim:
        raise GeometryError("point dimension does not match the frame")
    n = len(vertices)
    if _reference_affine_rank(vertices) != n - 1:
        raise GeometryError("frame is affinely dependent")
    aug = [[p[t] for p in vertices] + [x[t]] for t in range(vertices.dim)]
    aug.append([ONE] * (n + 1))
    mat, pivots = _row_echelon(aug)
    if n in pivots:
        raise GeometryError("point lies outside the affine hull of the frame")
    coords = [ZERO] * n
    for r, c in enumerate(pivots):
        coords[c] = mat[r][-1]
    return tuple(coords)


def _reference_projection_coordinates(frame, x):
    """Barycentric coordinates of x's orthogonal projection onto the
    affine hull of an independent frame, from the rational Gram system."""
    base = frame[0]
    edges = [vsub(p, base) for p in frame.points[1:]]
    gram = [[vdot(u, v) for v in edges] for u in edges]
    mu = _reference_solve(gram, [vdot(u, vsub(x, base)) for u in edges])
    return (ONE - sum(mu, ZERO),) + mu


_entry = st.builds(ratio, st.integers(-4, 4), st.sampled_from((1, 2) + _PRIMES))


@st.composite
def _low_rank(draw, m, n):
    """An m x n rational matrix U V of rank at most the inner size."""
    inner = draw(st.integers(0, 4))
    U = draw(st.lists(st.lists(_entry, min_size=inner, max_size=inner), min_size=m, max_size=m))
    V = draw(st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=inner, max_size=inner))
    return [[sum((u * v[j] for u, v in zip(row, V)), ZERO) for j in range(n)] for row in U]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GeometryError as exc:
        return ("error", str(exc))


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 5), st.integers(1, 5)), st.data())
def test_integer_kernel_matches_rational_reference(shape, data):
    m, n = shape
    rows = data.draw(_low_rank(m, n))
    assert matrix_rank(rows) == _reference_rank(rows)
    # Consistent right-hand sides, and (mostly inconsistent) random ones.
    if data.draw(st.booleans()):
        x = data.draw(st.lists(_entry, min_size=n, max_size=n))
        rhs = [vdot(r, x) for r in rows]
    else:
        rhs = data.draw(st.lists(_entry, min_size=m, max_size=m))
    assert _outcome(solve_unique, rows, rhs) == _outcome(_reference_solve, rows, rhs)

    points = list(dict.fromkeys(map(tuple, rows)))
    ps = PointSet(tuple(points))
    assert affine_rank(ps) == _reference_affine_rank(ps)
    # A point of the frame's affine hull, one anywhere, one of another
    # dimension.
    weights = data.draw(st.lists(_entry, min_size=len(points) - 1, max_size=len(points) - 1))
    weights.append(ONE - sum(weights, ZERO))
    inside = tuple(sum((w * p[t] for w, p in zip(weights, points)), ZERO) for t in range(n))
    anywhere = tuple(data.draw(st.lists(_entry, min_size=n, max_size=n)))
    for x in (inside, anywhere, anywhere + (ONE,)):
        assert _outcome(barycentric, ps, x) == _outcome(_reference_barycentric, ps, x)
    # The coordinates of each projection onto the frame's affine hull.
    if len(points) > 1:
        for x in (inside, anywhere):
            qs = PointSet(tuple(points) + ((x,) if x not in points else ()))
            got = projection_coordinates(qs, range(len(points)))
            if got is None:
                assert _reference_affine_rank(ps) < len(points) - 1
                continue
            coords, den = got
            assert den > 0
            own = qs.points.index(x)
            expect = _reference_projection_coordinates(ps, x)
            assert tuple(ratio(c, den) for c in coords[own]) == expect
