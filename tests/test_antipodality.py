"""Joint antipodality routes, certificates, rank checks, strict variant."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from antipodes.antipodality import (
    AntipodalityError,
    HalfSpace,
    _map_certificate,
    default_factors,
    erdos_rank_k,
    is_rank_k_antipodal,
    joint_antipodal_direct,
    joint_antipodal_shrunk,
    strict_rank_k,
    support_certificate,
    verify_joint_certificate,
    verify_support_certificate,
)
from antipodes.geometry import (
    Dilation,
    PointSet,
    Polytope,
    StandardSimplex,
    member,
    vdot,
)
from antipodes.rationals import ratio


def _ps(*rows):
    return PointSet(tuple(tuple(ratio(c) for c in row) for row in rows))


SQUARE = _ps(*product((0, 1), repeat=2))
CUBE3 = _ps(*product((0, 1), repeat=3))
TRIANGLE = _ps((0, 0), (1, 0), (0, 1))
COLLINEAR = _ps((0,), ("1/2",), (1,))


def test_square_diagonal_pair_is_antipodal_both_routes():
    for route in (joint_antipodal_direct, joint_antipodal_shrunk):
        cert = route(SQUARE, (0, 3))
        assert cert.antipodal
        assert verify_joint_certificate(SQUARE, cert)
        m = cert.mapping
        assert m.apply(SQUARE[0]) == (ratio(1), ratio(0))
        assert m.apply(SQUARE[3]) == (ratio(0), ratio(1))


def test_midpoint_pair_is_not_antipodal():
    for route in (joint_antipodal_direct, joint_antipodal_shrunk):
        cert = route(COLLINEAR, (0, 1))
        assert not cert.antipodal
        assert verify_joint_certificate(COLLINEAR, cert)
        assert sum(cert.shrink_factors) < 1
        # The witness sits in both closed shrunk copies of [0, 1].
        hull = Polytope(COLLINEAR)
        for j, q_idx in enumerate((0, 1)):
            pre = Dilation(COLLINEAR[q_idx], cert.shrink_factors[j]).preimage(
                cert.witness
            )
            assert member(hull, pre).inside


def test_endpoints_pair_is_antipodal():
    cert = joint_antipodal_direct(COLLINEAR, (0, 2))
    assert cert.antipodal


def test_simplex_vertices_fully_antipodal():
    for d in (2, 3):
        pts = [tuple(0 for _ in range(d))]
        for j in range(d):
            pts.append(tuple(1 if t == j else 0 for t in range(d)))
        X = _ps(*pts)
        cert = joint_antipodal_direct(X, tuple(range(d + 1)))
        assert cert.antipodal


def test_cube_triple_blocked_by_fourth_vertex():
    # Any map with 000, 001, 010 at the vertices pushes 011 out of the
    # simplex, whatever happens along the unused axis.
    cert = joint_antipodal_direct(CUBE3, (0, 1, 2))
    assert not cert.antipodal
    assert verify_joint_certificate(CUBE3, cert)


def test_dependent_triple_not_antipodal():
    X = _ps((0, 0), ("1/2", 0), (1, 0), (0, 1))
    cert = joint_antipodal_direct(X, (0, 1, 2))
    assert not cert.antipodal
    assert verify_joint_certificate(X, cert)


def test_collinear_triple_falls_through_the_map_program():
    # The pinned map program is infeasible for a dependent frame on its
    # own, so the frame's rank test only spares it; the witness is pinned.
    X = _ps((0, 0), (1, 0), (2, 0), (0, 1))
    assert _map_certificate(X, (0, 1, 2)) is None
    cert = joint_antipodal_direct(X, (0, 1, 2))
    assert not cert.antipodal and cert.mapping is None
    assert cert.witness == (ratio(11, 12), ratio(1, 12))
    assert cert.shrink_factors == (ratio(7, 12),) * 3
    assert verify_joint_certificate(X, cert)


def test_routes_agree_with_custom_factors():
    factors = (ratio(1, 3), ratio(2, 3))
    cert = joint_antipodal_shrunk(COLLINEAR, (0, 1), factors)
    assert not cert.antipodal
    assert verify_joint_certificate(COLLINEAR, cert)
    cert = joint_antipodal_shrunk(SQUARE, (0, 3), factors)
    assert cert.antipodal


def test_factor_validation():
    with pytest.raises(AntipodalityError):
        joint_antipodal_shrunk(SQUARE, (0, 3), (ratio(1), ratio(0)))
    with pytest.raises(AntipodalityError):
        joint_antipodal_shrunk(SQUARE, (0, 3), (ratio(1, 2), ratio(1, 4)))
    with pytest.raises(AntipodalityError):
        joint_antipodal_shrunk(SQUARE, (0, 3), (ratio(1, 2),))


def test_chosen_validation():
    with pytest.raises(AntipodalityError):
        joint_antipodal_direct(SQUARE, (0, 0))
    with pytest.raises(AntipodalityError):
        joint_antipodal_direct(SQUARE, (0, 9))
    with pytest.raises(AntipodalityError):
        joint_antipodal_direct(SQUARE, (2,))


def test_square_is_rank_one_antipodal():
    report = is_rank_k_antipodal(SQUARE, 1)
    assert report.antipodal
    assert report.exhaustive
    assert report.subsets_checked == 6


def test_cube_rank_two_fails_at_first_triple():
    report = is_rank_k_antipodal(CUBE3, 2)
    assert not report.antipodal
    assert report.failing_subset == (0, 1, 2)
    assert report.subsets_checked == 1
    assert verify_joint_certificate(CUBE3, report.failing)


def test_rank_preconditions():
    with pytest.raises(AntipodalityError):
        is_rank_k_antipodal(SQUARE, 3)
    with pytest.raises(AntipodalityError):
        is_rank_k_antipodal(_ps((0,), (1,)), 2)
    with pytest.raises(AntipodalityError):
        is_rank_k_antipodal(SQUARE, 0)


def test_sampled_mode_requires_seed_and_is_deterministic():
    with pytest.raises(AntipodalityError):
        is_rank_k_antipodal(SQUARE, 1, samples=3)
    a = is_rank_k_antipodal(SQUARE, 1, samples=3, seed=11)
    b = is_rank_k_antipodal(SQUARE, 1, samples=3, seed=11)
    assert repr(a) == repr(b)
    assert not a.exhaustive


# ---------------------------------------------------------------------------
# support halfspaces


def test_support_certificate_square_diagonal():
    cert = support_certificate(SQUARE, (0, 3))
    assert verify_support_certificate(SQUARE, cert)
    h0, h1 = cert.halfspaces
    # Halfspace 0 touches the far corner and holds the near one strictly.
    assert h0.on_boundary(SQUARE[3])
    assert vdot(h0.normal, SQUARE[0]) < h0.offset
    assert h1.on_boundary(SQUARE[0])
    assert vdot(h1.normal, SQUARE[3]) < h1.offset
    # Restricted to the diagonal the two halfspaces cut out the segment.
    beyond = (ratio(2), ratio(2))
    assert not (h0.contains(beyond) and h1.contains(beyond))


def test_support_certificate_triangle_full_rank():
    cert = support_certificate(TRIANGLE, (0, 1, 2))
    assert verify_support_certificate(TRIANGLE, cert)


def test_support_certificate_rejects_non_antipodal():
    with pytest.raises(AntipodalityError):
        support_certificate(COLLINEAR, (0, 1))


def test_support_certificate_on_flat_set():
    # The halfspaces come from the map, which needs no spanning set.
    flat = _ps((0, 0), (1, 1))
    cert = support_certificate(flat, (0, 1))
    assert verify_support_certificate(flat, cert)


# ---------------------------------------------------------------------------
# projection criterion and strict variant


def test_projection_criterion_square():
    assert erdos_rank_k(SQUARE, 1).holds


def test_projection_criterion_obtuse_triangle():
    X = _ps((0, 0), (4, 0), (5, 2))
    report = erdos_rank_k(X, 1)
    assert not report.holds
    assert report.failing_subset == (0, 1)
    assert report.offender == 2
    assert report.reason == "outside"


def test_projection_criterion_acute_triangle():
    X = _ps((0, 0), (4, 0), (2, 3))
    assert erdos_rank_k(X, 1).holds


def test_strict_triangle_rank_one():
    report = strict_rank_k(TRIANGLE, 1)
    assert report.strict
    assert len(report.evidence) == 3
    simplex = StandardSimplex(1)
    for subset, mapping in report.evidence:
        others = [i for i in range(len(TRIANGLE)) if i not in subset]
        for i in others:
            image = mapping.apply(TRIANGLE[i])
            assert simplex.contains(image)
            assert all(c != 1 for c in image)


def test_strict_square_fails_on_edge_pair():
    report = strict_rank_k(SQUARE, 1)
    assert not report.strict
    assert report.cause == "forced"
    assert report.failing_subset == (0, 1)
    # The left edge forces (1,0) onto the first vertex image.
    assert report.forced_pair == (2, 0)


def test_strict_with_exactly_k_plus_one_points():
    report = strict_rank_k(TRIANGLE, 2)
    assert report.strict
    assert report.subsets_checked == 1


def test_five_planar_points_cannot_be_rank_one():
    # The planar cap is 4 points, so any convex pentagon must fail both
    # the plain and the strict check.
    pentagon = _ps((0, 0), (2, -1), (4, 0), (3, 3), (1, 3))
    assert not is_rank_k_antipodal(pentagon, 1).antipodal
    report = strict_rank_k(pentagon, 1)
    assert not report.strict
    assert report.cause in ("not_antipodal", "forced")


def test_rank_is_monotone_downward():
    simplex3 = _ps((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    for k in (3, 2, 1):
        assert is_rank_k_antipodal(simplex3, k).antipodal


def test_strict_and_projection_imply_plain():
    assert strict_rank_k(TRIANGLE, 1).strict
    assert is_rank_k_antipodal(TRIANGLE, 1).antipodal
    assert erdos_rank_k(SQUARE, 1).holds
    assert is_rank_k_antipodal(SQUARE, 1).antipodal


# ---------------------------------------------------------------------------
# properties


_coord = st.fractions(min_value=-2, max_value=2, max_denominator=3).map(
    lambda f: ratio(f.numerator, f.denominator)
)


@st.composite
def _planar_sets(draw, min_size=2, max_size=5):
    rows = draw(
        st.lists(
            st.tuples(_coord, _coord),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
    )
    return PointSet(tuple(rows))


@settings(max_examples=60, deadline=None)
@given(_planar_sets(min_size=2), st.integers(0, 10**6))
def test_routes_agree_on_random_pairs(X, pick):
    n = len(X)
    i = pick % n
    j = (i + 1 + (pick // n) % (n - 1)) % n
    if i == j:
        return
    direct = joint_antipodal_direct(X, (i, j))
    shrunk = joint_antipodal_shrunk(X, (i, j))
    assert direct.antipodal == shrunk.antipodal
    assert verify_joint_certificate(X, direct)
    assert verify_joint_certificate(X, shrunk)


@st.composite
def _integer_sets(draw):
    d = draw(st.integers(2, 3))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(0, 2)] * d), min_size=2, max_size=5, unique=True
        )
    )
    return _ps(*rows)


@settings(max_examples=30, deadline=None)
@given(_integer_sets())
def test_support_halfspaces_are_the_map_rows(X):
    # Every jointly antipodal tuple gets a verified certificate whose
    # halfspace i is {x : out_i(x) >= 0} of the direct route's map.
    for size in range(2, min(len(X), X.dim + 1) + 1):
        for chosen in combinations(range(len(X)), size):
            direct = joint_antipodal_direct(X, chosen)
            if not direct.antipodal:
                with pytest.raises(AntipodalityError):
                    support_certificate(X, chosen)
                continue
            cert = support_certificate(X, chosen)
            assert verify_support_certificate(X, cert)
            m = direct.mapping
            assert cert.halfspaces == tuple(
                HalfSpace(tuple(-a for a in row), c)
                for row, c in zip(m.matrix, m.offset)
            )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(
        st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8),
        min_size=4,
        max_size=4,
    ),
)
def test_common_point_identity(k, raw):
    # The designated common point of the shrunk copies decomposes over
    # each copy's touching points with weights (1 - l_j) / l_i.
    g = [ratio(f.numerator, f.denominator) for f in raw[: k + 1]]
    total = sum(g)
    factors = [1 - x / total for x in g]  # in (0,1), summing to k
    simplex = StandardSimplex(k)
    qs = [simplex.vertex(j) for j in range(k + 1)]
    p = None
    for lam, q in zip(factors, qs):
        term = tuple((1 - lam) * c for c in q)
        p = term if p is None else tuple(a + b for a, b in zip(p, term))
    for i in range(k + 1):
        recon = None
        for j in range(k + 1):
            if j == i:
                continue
            touch = tuple(
                qi + factors[i] * (qj - qi) for qi, qj in zip(qs[i], qs[j])
            )
            w = (1 - factors[j]) / factors[i]
            term = tuple(w * c for c in touch)
            recon = term if recon is None else tuple(
                a + b for a, b in zip(recon, term)
            )
        assert recon == p


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 2),
    st.lists(
        st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8),
        min_size=3,
        max_size=3,
    ),
    st.lists(
        st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8),
        min_size=3,
        max_size=3,
    ),
)
def test_shrunk_copies_of_simplex_in_vertex_coordinates(k, raw_l, raw_x):
    # Inside the simplex, the copy shrunk toward vertex j by factor l is
    # exactly where the j-th coordinate reaches 1 - l; relative interiors
    # match with strict inequality.  The k+1 relative interiors together
    # cover nothing.
    g = [ratio(f.numerator, f.denominator) for f in raw_l[: k + 1]]
    total = sum(g)
    factors = [1 - x / total for x in g]
    simplex = StandardSimplex(k)
    hull = Polytope(simplex.vertices)
    w = [ratio(f.numerator, f.denominator) for f in raw_x[: k + 1]]
    x = tuple(c / sum(w) for c in w)  # strictly inside the simplex
    hits = 0
    for j in range(k + 1):
        copy = Polytope.from_points(
            Dilation(simplex.vertex(j), factors[j]).apply(v)
            for v in simplex.vertices
        )
        inside = member(copy, x, strict=True).inside
        assert inside == (x[j] > 1 - factors[j])
        hits += inside
    assert hits <= k
