"""Geometry layer: hull membership, projection coordinates, volume."""

import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from antipodes import geometry
from antipodes.exact_lp import GE, Status
from antipodes.geometry import (
    AffineMap,
    DegenerateVolumeWarning,
    GeometryError,
    PointSet,
    StandardSimplex,
    affine_rank,
    decode_map,
    member,
    outside_simplex,
    point_set_from_obj,
    point_set_to_obj,
    projection_coordinates,
    simplex_map_lp,
    volume,
)
from antipodes.rationals import ScalarError, exact_tuple, ratio
from evaluators import apply_map, homothety, in_hull_2d, in_simplex


def _cube(d):
    return PointSet(tuple(product((0, 1), repeat=d)))


def _pts(*rows):
    return PointSet(tuple(tuple(ratio(c) for c in row) for row in rows))


def test_point_set_validation():
    with pytest.raises(GeometryError):
        PointSet(((0, 0), (0, 0)))
    with pytest.raises(GeometryError):
        PointSet(((0, 0), (1,)))
    with pytest.raises(GeometryError):
        PointSet(())


def test_affine_rank_examples():
    assert affine_rank(_pts((2, 7))) == 0
    assert affine_rank(_pts((0, 0), (1, 1), (2, 2))) == 1
    assert affine_rank(_pts((0, 0), (1, 0), (0, 1))) == 2


def _projection_coordinates(ps, subset):
    """projection_coordinates as rationals."""
    coords, den = projection_coordinates(ps, subset)
    assert den > 0
    return [tuple(ratio(c, den) for c in row) for row in coords]


def test_barycentric_triangle():
    ps = _pts((0, 0), (1, 0), (0, 1), ("1/3", "1/3"), (2, 0))
    coords = _projection_coordinates(ps, (0, 1, 2))
    assert coords[3] == (ratio(1, 3), ratio(1, 3), ratio(1, 3))
    # Outside the hull but inside the affine hull: a negative coordinate.
    assert coords[4] == (ratio(-1), ratio(2), ratio(0))
    # The frame's own points are its vertices.
    assert coords[:3] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_barycentric_rejects_bad_frames():
    # A dependent frame has no coordinates.
    assert projection_coordinates(_pts((0, 0), (1, 1), (2, 2)), (0, 1, 2)) is None
    assert projection_coordinates(_pts((0, 0), (1, 1), (2, 2)), (2, 0, 1)) is None
    # A point off the frame's affine hull has the coordinates of its
    # projection.
    ps = _pts((0, 0, 0), (1, 0, 0), ("1/4", 1, 0))
    assert _projection_coordinates(ps, (0, 1))[2] == (ratio(3, 4), ratio(1, 4))


def test_member_decides_inside():
    square = _cube(2)
    assert member(square, ("1/2", "1/2")) is True
    # A point on the boundary is inside too.
    assert member(square, (0, "1/2")) is True


def test_member_decides_outside():
    square = _cube(2)
    assert member(square, (2, "1/2")) is False
    assert member(square, ("-1/7", 0)) is False


def test_member_refuses_a_separator_that_fails(monkeypatch):
    # An "outside" verdict stands only on an affine functional that
    # separates x from every spanning point; Farkas multipliers that give
    # none are a solver fault, not a verdict.
    square = _cube(2)
    real = geometry.solve

    def wrong_multipliers(lp):
        out = real(lp)
        return replace(out, farkas=tuple(-y for y in out.farkas))

    monkeypatch.setattr(geometry, "solve", wrong_multipliers)
    with pytest.raises(GeometryError, match="separating functional"):
        member(square, (2, "1/2"))


def test_standard_simplex_contains():
    s = StandardSimplex(2)
    assert s.vertices[0] == (ratio(1), ratio(0), ratio(0))
    assert in_simplex(s, ("1/3", "1/3", "1/3"), strict=True)
    assert in_simplex(s, (1, 0, 0))
    assert not in_simplex(s, (1, 0, 0), strict=True)
    assert not in_simplex(s, ("1/2", "1/2", "1/2"))


def test_affine_map_apply():
    m = AffineMap(((1, 0), (0, 1), (-1, -1)), (0, 0, 1))
    assert apply_map(m, ("1/4", "1/4")) == (ratio(1, 4), ratio(1, 4), ratio(1, 2))
    with pytest.raises(GeometryError):
        apply_map(m, (1,))


_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_fractions, _fractions), min_size=1, max_size=5, unique=True),
    st.lists(st.tuples(_fractions, _fractions, _fractions), min_size=2, max_size=3),
)
def test_cleared_images_agree_with_apply(points, rows):
    ps = PointSet(tuple(points))
    m = AffineMap(tuple(r[:2] for r in rows), tuple(r[2] for r in rows))
    images, den = m.cleared_images(ps)
    assert den > 0
    assert [tuple(ratio(t, den) for t in image) for image in images] == [
        apply_map(m, p) for p in ps
    ]
    simplex = StandardSimplex(len(rows) - 1)
    first = next((i for i, p in enumerate(ps) if not in_simplex(simplex, apply_map(m, p))), None)
    assert outside_simplex(images, den) == first


def test_outside_simplex_names_the_first_bad_image():
    m = AffineMap(((1, 0), (0, 1), (-1, -1)), (0, 0, 1))
    ps = PointSet(((0, 0), ("1/2", "1/3"), (1, 1), (2, 0)))
    assert outside_simplex(*m.cleared_images(ps)) == 2
    assert outside_simplex(*m.cleared_images(PointSet(((0, 0), ("1/2", "1/2"))))) is None
    # Images that are nonnegative but do not sum to 1.
    half = AffineMap(((0, 0), (0, 0)), ("1/2", "1/3"))
    assert outside_simplex(*half.cleared_images(ps)) == 0


def test_simplex_map_lp_rows_and_decoding():
    square = _pts((0, 0), (1, 0), (0, 1), (1, 1))
    program = simplex_map_lp(square, 2, pinned=[square[0], square[3]])
    # The pins fix the map along the diagonal, so the one variable is
    # output 1's slope along the free direction (1, 0) - (0, 0); (0, 1) is
    # the diagonal minus it.  Rows: outputs 0 and 1 >= 0 at the unpinned
    # points in index order; the pinned points get none.
    lp = program.lp
    assert lp.num_vars == 1 and program.offset == 0
    # Each row is read as (terms, relation, rhs, den): -w >= -1 and w >= 0,
    # all in integers over 1.
    assert [(c.terms, c.relation, c.rhs, c.den) for c in lp.constraints] == [
        (((0, -1),), GE, -1, 1),
        (((0, 1),), GE, 0, 1),
        (((0, 1),), GE, 0, 1),
        (((0, -1),), GE, -1, 1),
    ]
    out = program.solve()
    assert out.status is Status.FEASIBLE
    mapping = decode_map(program, out.point)
    assert mapping.out_dim == 2
    assert apply_map(mapping, square[0]) == (1, 0)
    assert apply_map(mapping, square[3]) == (0, 1)
    assert all(in_simplex(StandardSimplex(1), apply_map(mapping, x)) for x in square)

    # Without pins the frame is (0, 0), and output 1's values at the basis
    # points (0, 0), (1, 0), (0, 1) are the variables; output 0 is 1 minus
    # output 1.  Rows: outputs 0 and 1 >= 0 at every point in index order,
    # so the basis points' rows for output 1 are sign bounds, and (1, 1) is
    # (1, 0) + (0, 1) - (0, 0).
    score = [(1, square[1]), (0, square[2]), (1, square[1])]
    program = simplex_map_lp(square, 2, score=score)
    lp = program.lp
    assert lp.num_vars == 3
    assert [(c.terms, c.relation, c.rhs, c.den) for c in lp.constraints] == [
        (((0, -1),), GE, -1, 1),
        (((0, 1),), GE, 0, 1),
        (((1, -1),), GE, -1, 1),
        (((1, 1),), GE, 0, 1),
        (((2, -1),), GE, -1, 1),
        (((2, 1),), GE, 0, 1),
        (((0, 1), (1, -1), (2, -1)), GE, -1, 1),
        (((0, -1), (1, 1), (2, 1)), GE, 0, 1),
    ]
    # The score sums output 1 at (1, 0) twice and output 0 at (0, 1) once,
    # which adds 1 to the offset.
    assert lp.objective == tuple(map(ratio, (0, 2, -1)))
    assert program.offset == 1
    out = program.solve()
    mapping = decode_map(program, out.point)
    assert out.objective_value + program.offset == sum(
        apply_map(mapping, x)[i] for i, x in score
    )

    # With three outputs the variables go output by output.
    program = simplex_map_lp(square, 3, score=[(2, square[3])])
    assert program.lp.num_vars == 6
    assert program.lp.objective == tuple(map(ratio, (0, 0, 0, -1, 1, 1)))
    assert program.offset == 0

    # A score point may lie off the set but not off its affine hull.
    line = _pts((0, 0), (1, 1), (2, 2))
    half = (ratio(1, 2), ratio(1, 2))
    program = simplex_map_lp(line, 2, score=[(0, half), (1, half)])
    assert program.offset == 1 and program.lp.objective == (0, 0)
    for pinned in ((), line[:2]):
        with pytest.raises(GeometryError):
            simplex_map_lp(line, 2, pinned, score=[(1, (ratio(1), ratio(0)))])


def test_pinned_map_program_without_variables():
    # Three pins on a triangle with an interior point: k = r, so the map
    # is fixed and the interior point's barycentric signs decide alone.
    pts = _pts((0, 0), (3, 0), (0, 3), (1, 1))
    program = simplex_map_lp(pts, 3, pinned=pts[:3], score=[(1, pts[3])])
    assert program.lp is None and program.offset == ratio(1, 3)
    out = program.solve()
    assert out.status is Status.FEASIBLE and out.point == ()
    mapping = decode_map(program, out.point)
    assert apply_map(mapping, pts[3]) == (ratio(1, 3),) * 3
    # A point outside the triangle breaks the pins by itself.
    program = simplex_map_lp(_pts((0, 0), (3, 0), (0, 3), (2, 2)), 3, pinned=pts[:3])
    assert program.lp is None and program.solve().status is Status.INFEASIBLE
    # So does an affinely dependent frame, and pins must be set points.
    line = _pts((0, 0), (1, 1), (2, 2), (0, 1))
    program = simplex_map_lp(line, 3, pinned=line[:3])
    assert program.lp is None and program.solve().status is Status.INFEASIBLE
    with pytest.raises(GeometryError):
        simplex_map_lp(line, 2, pinned=[line[0], (ratio(5), ratio(5))])


def test_orthogonal_project_onto_axis():
    # (5, 2) projects to (5, 0) = -1/4 (0, 0) + 5/4 (4, 0).
    ps = _pts((0, 0), (4, 0), (5, 2), (1, -1), (1, 1))
    coords = _projection_coordinates(ps, (0, 1))
    assert coords[2] == (ratio(-1, 4), ratio(5, 4))
    # Projections of distinct points may collide: both ends of a vertical
    # segment land on (1, 0).
    assert coords[3] == coords[4] == (ratio(3, 4), ratio(1, 4))
    # The frame's order is the coordinates' order.
    assert _projection_coordinates(ps, (1, 0))[2] == (ratio(5, 4), ratio(-1, 4))


def test_volume_known_bodies():
    assert volume(_cube(1)) == 1
    assert volume(_cube(2)) == 1
    assert volume(_cube(3)) == 1
    assert volume(_cube(4)) == 1
    # Standard corner simplex: 1/d!.
    for d in (2, 3, 4):
        pts = [tuple(0 for _ in range(d))]
        for j in range(d):
            pts.append(tuple(1 if t == j else 0 for t in range(d)))
        assert volume(PointSet(tuple(pts))) == ratio(1, factorial(d))
    # Cross-polytope: 2^d / d!.
    for d in (2, 3):
        pts = []
        for j in range(d):
            for s in (1, -1):
                pts.append(tuple(s if t == j else 0 for t in range(d)))
        assert volume(PointSet(tuple(pts))) == ratio(2**d, factorial(d))


def test_volume_interior_points_are_harmless():
    pts = list(product((0, 1), repeat=2)) + [("1/2", "1/2"), ("1/4", "3/4")]
    assert volume(PointSet(tuple(pts))) == 1


def test_volume_degenerate_warns_and_is_zero():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        v = volume(_pts((0, 0), (1, 1)))
    assert v == 0
    assert any(issubclass(w.category, DegenerateVolumeWarning) for w in caught)


def test_volume_dimension_cap(monkeypatch):
    with pytest.raises(GeometryError, match="up to dimension 4"):
        volume(_cube(5))
    monkeypatch.setattr(geometry, "VOLUME_DIM_CAP", 5)
    assert volume(_cube(5)) == 1


def test_exact_tuple_keeps_fractions_and_refuses_floats_and_bools():
    third = ratio(1, 3)
    got = exact_tuple((third, 2, "-5/7", Fraction(1, 2)))
    assert got == (third, ratio(2), ratio(-5, 7), ratio(1, 2))
    assert got[0] is third
    assert all(type(c) is Fraction for c in got)
    for bad in (0.5, True, False):
        with pytest.raises(ScalarError):
            exact_tuple((third, bad))
        with pytest.raises(ScalarError):
            exact_tuple((bad,))
    with pytest.raises(GeometryError, match="point 0"):
        point_set_from_obj({"dim": 1, "points": [[True]]})


def test_point_set_round_trip():
    ps = _pts(("1/3", 2), (0, "-5/7"))
    obj = point_set_to_obj(ps)
    assert obj == {"dim": 2, "points": [["1/3", "2"], ["0", "-5/7"]]}
    assert point_set_from_obj(obj) == ps


def test_point_set_from_obj_diagnostics():
    with pytest.raises(GeometryError, match="dim"):
        point_set_from_obj({"points": [["1"]]})
    # A bool is an int to isinstance, but not a dimension.
    for flag in (True, False):
        with pytest.raises(GeometryError, match="'dim' must be a positive integer"):
            point_set_from_obj({"dim": flag, "points": [["0"], ["1"]]})
    with pytest.raises(GeometryError, match="point 1"):
        point_set_from_obj({"dim": 2, "points": [["1", "2"], ["3"]]})
    with pytest.raises(GeometryError, match="point 0"):
        point_set_from_obj({"dim": 1, "points": [["0.5"]]})


# ---------------------------------------------------------------------------
# properties

_coord = st.fractions(min_value=-3, max_value=3, max_denominator=5).map(
    lambda f: ratio(f.numerator, f.denominator)
)


def _point_sets(dim, min_size=1, max_size=6):
    return st.lists(
        st.tuples(*[_coord] * dim), min_size=min_size, max_size=max_size, unique=True
    ).map(lambda rows: PointSet(tuple(rows)))


@settings(max_examples=150, deadline=None)
@given(_point_sets(2, min_size=1), st.tuples(_coord, _coord))
def test_member_certificates_always_verify(ps, x):
    # Every "outside" verdict has passed member's own separator check;
    # both verdicts must match the Caratheodory oracle.
    assert member(ps, x) is in_hull_2d(ps, x)


@settings(max_examples=100, deadline=None)
@given(_point_sets(2, min_size=3, max_size=5))
def test_centroid_is_weakly_inside(ps):
    n = len(ps)
    centroid = tuple(sum(p[t] for p in ps) / n for t in range(2))
    assert member(ps, centroid)


@settings(max_examples=40, deadline=None)
@given(_point_sets(2, min_size=3, max_size=6), st.fractions(
    min_value=Fraction(1, 8), max_value=1, max_denominator=8
))
def test_dilation_scales_area_by_factor_squared(ps, lam):
    lam = ratio(lam.numerator, lam.denominator)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateVolumeWarning)
        base = volume(ps)
        shrunk = volume(PointSet(tuple(homothety(ps[0], lam, p) for p in ps)))
    assert shrunk == lam * lam * base
