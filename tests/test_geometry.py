"""Geometry layer: membership certificates, barycentric frames, volume."""

import warnings
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from antipodes.exact_lp import GE, Status
from antipodes.geometry import (
    AffineMap,
    DegenerateVolumeWarning,
    Dilation,
    GeometryError,
    Membership,
    PointSet,
    Polytope,
    StandardSimplex,
    affine_rank,
    as_point,
    barycentric,
    decode_map,
    member,
    orthogonal_project,
    outside_simplex,
    point_set_from_obj,
    point_set_to_obj,
    simplex_map_lp,
    vdot,
    volume,
)
from antipodes.rationals import ScalarError, exact_tuple, ratio


def _cube(d):
    return Polytope.from_points(product((0, 1), repeat=d))


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


def test_dilation_halves_toward_center():
    d = Dilation((0, 0), "1/2")
    assert d.apply((1, 1)) == (ratio(1, 2), ratio(1, 2))
    assert d.preimage((ratio(1, 2), ratio(1, 2))) == (ratio(1), ratio(1))
    with pytest.raises(GeometryError):
        Dilation((0,), 0)
    with pytest.raises(GeometryError):
        Dilation((0,), "3/2")


def test_barycentric_triangle():
    frame = _pts((0, 0), (1, 0), (0, 1))
    assert barycentric(frame, ("1/3", "1/3")) == (
        ratio(1, 3),
        ratio(1, 3),
        ratio(1, 3),
    )
    # Outside the hull but inside the affine hull: a negative coordinate.
    coords = barycentric(frame, (2, 0))
    assert coords == (ratio(-1), ratio(2), ratio(0))


def test_barycentric_rejects_bad_frames():
    with pytest.raises(GeometryError):
        barycentric(_pts((0, 0), (1, 1), (2, 2)), (0, 0))
    frame = _pts((0, 0, 0), (1, 0, 0))
    with pytest.raises(GeometryError):
        barycentric(frame, (0, 1, 0))


def test_member_inside_returns_coefficients():
    square = _cube(2)
    got = member(square, ("1/2", "1/2"))
    assert got.inside
    total = sum(got.coefficients)
    assert total == 1
    recon = [
        sum(c * p[t] for c, p in zip(got.coefficients, square.spanning))
        for t in range(2)
    ]
    assert recon == [ratio(1, 2), ratio(1, 2)]


def test_member_outside_returns_separator():
    square = _cube(2)
    got = member(square, (2, "1/2"))
    assert not got.inside
    assert vdot(got.normal, (ratio(2), ratio(1, 2))) > got.threshold
    for p in square.spanning:
        assert vdot(got.normal, p) <= got.threshold


def test_member_strict_boundary_point():
    square = _cube(2)
    assert member(square, (0, "1/2")).inside
    got = member(square, (0, "1/2"), strict=True)
    assert not got.inside
    # The exposing functional holds the whole square on one side and is
    # tight at the queried boundary point.
    assert vdot(got.normal, (ratio(0), ratio(1, 2))) >= got.threshold


def test_member_strict_interior_point():
    tri = Polytope(_pts((0, 0), (1, 0), (0, 1)))
    got = member(tri, ("1/4", "1/4"), strict=True)
    assert got.inside
    assert all(c > 0 for c in got.coefficients)


def test_member_strict_on_flat_set_uses_relative_interior():
    seg = Polytope(_pts((0, 0), (1, 1)))
    assert member(seg, ("1/2", "1/2"), strict=True).inside
    assert not member(seg, (0, 0), strict=True).inside
    assert not member(seg, ("1/2", 0), strict=True).inside


def test_standard_simplex_contains():
    s = StandardSimplex(2)
    assert s.vertices[0] == (ratio(1), ratio(0), ratio(0))
    assert s.contains(("1/3", "1/3", "1/3"), strict=True)
    assert s.contains((1, 0, 0))
    assert not s.contains((1, 0, 0), strict=True)
    assert not s.contains(("1/2", "1/2", "1/2"))


def test_affine_map_apply():
    m = AffineMap(((1, 0), (0, 1), (-1, -1)), (0, 0, 1))
    assert m.apply(("1/4", "1/4")) == (ratio(1, 4), ratio(1, 4), ratio(1, 2))
    with pytest.raises(GeometryError):
        m.apply((1,))


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
        m.apply(p) for p in ps
    ]
    simplex = StandardSimplex(len(rows) - 1)
    first = next((i for i, p in enumerate(ps) if not simplex.contains(m.apply(p))), None)
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
    assert mapping.apply(square[0]) == (1, 0)
    assert mapping.apply(square[3]) == (0, 1)
    assert all(StandardSimplex(1).contains(mapping.apply(x)) for x in square)

    # A score sums its outputs: output 1 at (1, 0) twice, output 0 at
    # (0, 1) once.  Output 1 is 1 minus output 0, so each pair naming it
    # subtracts output 0 and adds 1 to the offset.
    score = [(1, square[1]), (0, square[2]), (1, square[1])]
    program = simplex_map_lp(square, 2, score=score)
    lp = program.lp
    assert lp.objective == tuple(map(ratio, (-2, 1, -1)))
    assert program.offset == 2 and lp.maximize
    out = program.solve()
    mapping = decode_map(program, out.point)
    assert out.objective_value + program.offset == sum(
        mapping.apply(x)[i] for i, x in score
    )

    # With three outputs a pair naming output 2 subtracts both others.
    program = simplex_map_lp(square, 3, score=[(2, square[3])], maximize=False)
    assert program.lp.num_vars == 6
    assert program.lp.objective == tuple(map(ratio, (-1, -1, -1) * 2))
    assert program.offset == 1 and not program.lp.maximize


def test_pinned_map_program_without_variables():
    # Three pins on a triangle with an interior point: k = r, so the map
    # is fixed and the interior point's barycentric signs decide alone.
    pts = _pts((0, 0), (3, 0), (0, 3), (1, 1))
    program = simplex_map_lp(pts, 3, pinned=pts[:3], score=[(1, pts[3])])
    assert program.lp is None and program.offset == ratio(1, 3)
    out = program.solve()
    assert out.status is Status.FEASIBLE and out.point == ()
    mapping = decode_map(program, out.point)
    assert mapping.apply(pts[3]) == (ratio(1, 3),) * 3
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
    frame = _pts((0, 0), (4, 0))
    images = orthogonal_project(_pts((0, 0), (4, 0), (5, 2)), frame)
    assert images[2] == (ratio(5), ratio(0))
    # Projections of distinct points may collide: both ends of a vertical
    # segment land on the same spot.
    images = orthogonal_project(_pts((1, -1), (1, 1)), frame)
    assert images[0] == images[1] == (ratio(1), ratio(0))


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
        assert volume(Polytope.from_points(pts)) == ratio(1, factorial(d))
    # Cross-polytope: 2^d / d!.
    for d in (2, 3):
        pts = []
        for j in range(d):
            for s in (1, -1):
                pts.append(tuple(s if t == j else 0 for t in range(d)))
        assert volume(Polytope.from_points(pts)) == ratio(2**d, factorial(d))


def test_volume_interior_points_are_harmless():
    pts = list(product((0, 1), repeat=2)) + [("1/2", "1/2"), ("1/4", "3/4")]
    assert volume(Polytope.from_points(pts)) == 1


def test_volume_degenerate_warns_and_is_zero():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        v = volume(Polytope(_pts((0, 0), (1, 1))))
    assert v == 0
    assert any(issubclass(w.category, DegenerateVolumeWarning) for w in caught)


def test_volume_dimension_cap():
    with pytest.raises(GeometryError):
        volume(_cube(5))
    assert volume(_cube(5), dim_cap=5) == 1


def test_as_point_keeps_backend_rationals_and_refuses_floats_and_bools():
    third = ratio(1, 3)
    got = as_point((third, 2, "-5/7", Fraction(1, 2)))
    assert got == (third, ratio(2), ratio(-5, 7), ratio(1, 2))
    assert got[0] is third
    assert all(type(c) is type(third) for c in got)
    for bad in (0.5, True, False):
        with pytest.raises(ScalarError):
            as_point((third, bad))
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
    poly = Polytope(ps)
    got = member(poly, x)
    if got.inside:
        assert sum(got.coefficients) == 1
        assert all(c >= 0 for c in got.coefficients)
        recon = [
            sum(c * p[t] for c, p in zip(got.coefficients, ps)) for t in range(2)
        ]
        assert tuple(recon) == tuple(ratio(c) for c in x)
    else:
        assert vdot(got.normal, x) > got.threshold
        assert all(vdot(got.normal, p) <= got.threshold for p in ps)


@settings(max_examples=100, deadline=None)
@given(_point_sets(2, min_size=3, max_size=5))
def test_centroid_is_weakly_inside(ps):
    n = len(ps)
    centroid = tuple(sum(p[t] for p in ps) / n for t in range(2))
    assert member(Polytope(ps), centroid).inside


@settings(max_examples=40, deadline=None)
@given(_point_sets(2, min_size=3, max_size=6), st.fractions(
    min_value=Fraction(1, 8), max_value=1, max_denominator=8
))
def test_dilation_scales_area_by_factor_squared(ps, lam):
    lam = ratio(lam.numerator, lam.denominator)
    poly = Polytope(ps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateVolumeWarning)
        base = volume(poly)
        shrunk = volume(
            Polytope.from_points(Dilation(ps[0], lam).apply(p) for p in ps)
        )
    assert shrunk == lam * lam * base
