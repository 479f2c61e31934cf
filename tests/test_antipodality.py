"""Joint antipodality routes, certificates, rank checks, strict variant."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from antipodes import geometry
from antipodes.antipodality import (
    AntipodalityCertificate,
    AntipodalityError,
    StrictReport,
    _copies_lp,
    _map_certificate,
    _sampled_subsets,
    _witness_holds,
    erdos_rank_k,
    is_rank_k_antipodal,
    joint_antipodal_direct,
    joint_antipodal_shrunk,
    strict_rank_k,
    verify_joint_certificate,
)
from antipodes.geometry import (
    AffineMap,
    PointSet,
    StandardSimplex,
    decode_map,
    member,
    simplex_map_lp,
)
from antipodes.exact_lp import (
    EQ,
    GE,
    LE,
    Constraint,
    LinearProgram,
    Status,
    integer_row,
    make_lp,
    solve_strict,
)
from antipodes.rationals import int_pair, ratio
from evaluators import apply_map, homothety, in_simplex


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
        assert apply_map(m, SQUARE[0]) == (ratio(1), ratio(0))
        assert apply_map(m, SQUARE[3]) == (ratio(0), ratio(1))


def test_midpoint_pair_is_not_antipodal():
    for route in (joint_antipodal_direct, joint_antipodal_shrunk):
        cert = route(COLLINEAR, (0, 1))
        assert not cert.antipodal
        assert verify_joint_certificate(COLLINEAR, cert)
        assert sum(cert.shrink_factors) < 1
        # The witness sits in both closed shrunk copies of [0, 1]: blown
        # back up by 1/s toward each copy's centre, it lands in [0, 1].
        for q_idx, s in zip((0, 1), cert.shrink_factors):
            pre = homothety(COLLINEAR[q_idx], 1 / s, cert.witness)
            assert member(COLLINEAR, pre)


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


def _counted_draws(monkeypatch):
    """Count the draws of every random.Random."""
    draws = []
    real = random.Random.sample

    def counted(self, population, k, **kw):
        draws.append(k)
        return real(self, population, k, **kw)

    monkeypatch.setattr(random.Random, "sample", counted)
    return draws


@pytest.mark.parametrize("n, k", [(2, 1), (4, 1), (5, 2), (6, 3), (7, 1), (9, 4)])
@pytest.mark.parametrize("samples", [1, 5, 40, 500])
def test_sampling_stops_once_every_subset_is_seen(monkeypatch, n, k, samples):
    for seed in (0, 1, 5, 11):
        # Reference: every draw made, then deduplicated; and the draw at
        # which the last new subset turned up.
        rng = random.Random(seed)
        full = [tuple(sorted(rng.sample(range(n), k + 1))) for _ in range(samples)]
        seen = set()
        last = next(
            (i for i, s in enumerate(full) if seen.add(s) or len(seen) == comb(n, k + 1)),
            samples - 1,
        )
        draws = _counted_draws(monkeypatch)
        assert _sampled_subsets(n, k, samples, seed) == sorted(set(full))
        assert len(draws) == last + 1
        monkeypatch.undo()


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
            image = apply_map(mapping, TRIANGLE[i])
            assert in_simplex(simplex, image)
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


def test_strict_builds_one_map_program_per_subset(monkeypatch):
    # The fifth pair's map program is infeasible; its negative certificate
    # comes from the shrunk copies alone, with no second map program.
    space = _ps(
        (0, 0, 0), (2, "1/3", 0), ("1/2", 3, "1/5"), (0, "1/2", 2),
        ("5/3", "5/3", "5/3"), ("1/2", "1/2", "1/2"),
    )
    builds = []
    real = geometry.simplex_map_lp

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("antipodes.antipodality.simplex_map_lp", counted)
    report = strict_rank_k(space, 1)
    assert (report.strict, report.cause, report.subsets_checked) == (
        False, "not_antipodal", 5,
    )
    assert not report.failing_certificate.antipodal
    assert len(builds) == 5


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


def _blend(m1, m2):
    half = ratio(1, 2)
    matrix = tuple(
        tuple(half * a + half * b for a, b in zip(r1, r2))
        for r1, r2 in zip(m1.matrix, m2.matrix)
    )
    offset = tuple(half * a + half * b for a, b in zip(m1.offset, m2.offset))
    return AffineMap(matrix, offset)


def _reference_strict(X, k):
    """The per-pair algorithm: for each coincidence of the current map,
    in (point, vertex) order, minimise that vertex value over the
    certifying maps; a minimum of 1 is forced, otherwise the minimiser is
    averaged into the map.  The vertex value f_v(x) is minimised as
    1 minus the maximum of the other outputs at x."""
    subsets = list(combinations(range(len(X)), k + 1))
    evidence = []
    for pos, subset in enumerate(subsets):
        cert = joint_antipodal_direct(X, subset)
        if not cert.antipodal:
            return StrictReport(
                k, False, pos + 1, failing_subset=subset,
                cause="not_antipodal", failing_certificate=cert,
            )
        mapping = cert.mapping
        for x_idx in range(len(X)):
            for vertex in range(k + 1):
                if x_idx in subset or apply_map(mapping, X[x_idx])[vertex] != 1:
                    continue
                others = [(i, X[x_idx]) for i in range(k + 1) if i != vertex]
                program = simplex_map_lp(X, k + 1, subset, others)
                out = program.solve()
                assert out.status is Status.FEASIBLE
                if out.objective_value + program.offset == 0:
                    return StrictReport(
                        k, False, pos + 1, failing_subset=subset,
                        cause="forced", forced_pair=(x_idx, vertex),
                    )
                mapping = _blend(mapping, decode_map(program, out.point))
        evidence.append((subset, mapping))
    return StrictReport(k, True, len(subsets), evidence=tuple(evidence))


@st.composite
def _strict_cases(draw):
    """Small integer sets, often with points on the faces of the hull of
    others, and a rank k in 1..3 no larger than the set's affine rank."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(0, 2)] * dim)
    points = draw(st.lists(point, min_size=2, max_size=6, unique=True))
    X = _ps(*points)
    k = draw(st.integers(1, min(3, geometry.affine_rank(X))))
    return X, k


@settings(max_examples=150, deadline=None)
@given(_strict_cases())
def test_strict_matches_the_per_pair_reference(case):
    X, k = case
    report = strict_rank_k(X, k)
    ref = _reference_strict(X, k)
    assert replace(report, evidence=()) == replace(ref, evidence=())
    assert [s for s, _ in report.evidence] == [s for s, _ in ref.evidence]
    for subset, mapping in report.evidence:
        cert = AntipodalityCertificate(True, subset, mapping=mapping)
        assert verify_joint_certificate(X, cert)
        others = [X[i] for i in range(len(X)) if i not in subset]
        assert all(1 not in apply_map(mapping, x) for x in others)


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
    w = [ratio(f.numerator, f.denominator) for f in raw_x[: k + 1]]
    x = tuple(c / sum(w) for c in w)  # strictly inside the simplex
    hits = 0
    for j in range(k + 1):
        copy = PointSet(
            tuple(homothety(simplex.vertex(j), factors[j], v) for v in simplex.vertices)
        )
        lp = _dense_member_lp(copy, x)
        sign_rows = range(copy.dim + 1, copy.dim + 1 + len(copy))
        inside = solve_strict(lp, sign_rows).status is Status.FEASIBLE
        assert inside == (x[j] > 1 - factors[j])
        hits += inside
    assert hits <= k


# ---------------------------------------------------------------------------
# integer weight programs and the witness substitution check


def _dense_copies_lp(X, chosen, factors):
    """The shrunk-copy program as dense rational rows through make_lp:
    for each copy j >= 1 and coordinate t, the row
    l_0 sum w_0x (x - q_0)_t - l_j sum w_jx (x - q_j)_t = (q_j - q_0)_t
    over the points x other than each copy's centre, left out when it has
    no coefficient; then sum_x w_jx < 1 and w_jx > 0."""
    m = len(X) - 1
    nv = len(chosen) * m
    others = [[x for i, x in enumerate(X) if i != q_idx] for q_idx in chosen]
    q0 = X[chosen[0]]
    rows = []
    for j in range(1, len(chosen)):
        q = X[chosen[j]]
        for t in range(X.dim):
            coeffs = [ratio(0)] * nv
            for c, x in enumerate(others[0]):
                coeffs[c] = factors[0] * (x[t] - q0[t])
            for c, x in enumerate(others[j]):
                coeffs[j * m + c] = -factors[j] * (x[t] - q[t])
            if any(coeffs):
                rows.append((tuple(coeffs), EQ, q[t] - q0[t]))
    first = len(rows)
    for j in range(len(chosen)):
        rows.append((tuple(int(c // m == j) for c in range(nv)), LE, 1))
    for c in range(nv):
        rows.append((tuple(int(i == c) for i in range(nv)), GE, 0))
    return make_lp(nv, rows), list(range(first, len(rows)))


def _dense_member_lp(X, x):
    n = len(X)
    rows = [(tuple(p[t] for p in X), EQ, x[t]) for t in range(X.dim)]
    rows.append(((1,) * n, EQ, 1))
    rows += [(tuple(int(j == i) for j in range(n)), GE, 0) for i in range(n)]
    return make_lp(n, rows)


def _member_program(X, x):
    """The program `member` hands to its solver."""
    seen = []
    real = geometry.solve

    def record(lp):
        seen.append(lp)
        return real(lp)

    geometry.solve = record
    try:
        member(X, x)
    finally:
        geometry.solve = real
    (lp,) = seen
    return lp


_factor = st.fractions(min_value=Fraction(1, 9), max_value=Fraction(8, 9)).map(
    lambda f: ratio(f.numerator, f.denominator)
)


@settings(max_examples=100, deadline=None)
@given(
    _planar_sets(min_size=3, max_size=5),
    st.integers(1, 2),
    st.lists(_factor, min_size=3, max_size=3),
    st.tuples(_coord, _coord),
)
def test_copies_and_member_rows_are_the_ones_make_lp_parses(X, k, raw, x):
    # `_copies_lp` and `member` build their integer rows straight from
    # `PointSet.cleared`; the old dense rational rows through make_lp give
    # equal programs, each row in lowest terms over the lcm of its
    # denominators.
    chosen = tuple(range(k + 1))
    factors = tuple(raw[: k + 1])
    assert _copies_lp(X, chosen, factors) == _dense_copies_lp(X, chosen, factors)
    assert _member_program(X, x) == _dense_member_lp(X, x)


def _centre_copies_lp(X, chosen, factors):
    """The shrunk-copy program with the common point z and every centre
    weight kept: z, then n convex weights per copy, and for each copy the
    rows z - l_j sum_x w_jx x = (1 - l_j) q_j and sum_x w_jx = 1, every
    weight strictly positive."""
    n = len(X)
    d = X.dim
    k = len(chosen) - 1
    P, L = X.cleared
    rows = []
    for j, q_idx in enumerate(chosen):
        a, b = int_pair(factors[j])
        base = d + j * n
        for t in range(d):
            terms = [(t, b * L)] + [(base + i, -a * p[t]) for i, p in enumerate(P)]
            rows.append(integer_row(terms, EQ, (b - a) * P[q_idx][t], b * L))
        rows.append(Constraint(tuple((base + i, 1) for i in range(n)), EQ, 1, 1))
    first = len(rows)
    rows.extend(Constraint(((d + c, 1),), GE, 0, 1) for c in range((k + 1) * n))
    return LinearProgram(d + (k + 1) * n, tuple(rows)), list(range(first, len(rows)))


@st.composite
def _joint_cases(draw):
    """A set of 2 to 6 points in 1 to 4 dimensions, about half of them
    integer affine images of lower-dimensional points; a tuple of k + 1
    of its points, k from 1 to 3; and factors in (0, 1) summing to k."""
    d = draw(st.integers(1, 4))
    r = draw(st.integers(1, d)) if draw(st.booleans()) else d
    low = draw(st.lists(st.tuples(*[_coord] * r), min_size=2, max_size=6, unique=True))
    if r < d:
        small = st.integers(-2, 2)
        matrix = draw(st.lists(st.tuples(*[small] * r), min_size=d, max_size=d))
        offset = draw(st.tuples(*[small] * d))
        images = [
            tuple(c + sum(a * x for a, x in zip(row, p)) for row, c in zip(matrix, offset))
            for p in low
        ]
        low = list(dict.fromkeys(images))
    assume(len(low) >= 2)
    X = PointSet(tuple(tuple(ratio(c) for c in p) for p in low))
    k = draw(st.integers(1, min(3, len(X) - 1)))
    chosen = tuple(draw(st.permutations(range(len(X))))[: k + 1])
    g = draw(st.lists(_factor, min_size=k + 1, max_size=k + 1))
    factors = tuple(1 - x / sum(g) for x in g)
    return X, chosen, factors


@settings(max_examples=80, deadline=None)
@given(_joint_cases())
def test_substituted_copies_decide_as_the_centre_weight_program(case):
    # Taking out the centre weights and the common point keeps the
    # system's meaning: both programs are strictly feasible or neither
    # is.  The witness read off the new program verifies on its own, and
    # it exists exactly when there is no certifying map.
    X, chosen, factors = case
    old = solve_strict(*_centre_copies_lp(X, chosen, factors))
    new = solve_strict(*_copies_lp(X, chosen, factors))
    assert old.status is new.status
    cert = joint_antipodal_shrunk(X, chosen, factors)
    assert cert.antipodal == (new.status is not Status.FEASIBLE)
    assert verify_joint_certificate(X, cert)
    assert cert.antipodal == (_map_certificate(X, chosen) is not None)


def test_witness_check_accepts_a_substitution_certificate():
    # 0 and 1/2 in {0, 1/2, 1}: the witness 1/4 is 0 + 1/4 (1 - 0) in the
    # copy toward 0 shrunk by 1/4, and 1/2 + 1/2 (0 - 1/2) in the copy
    # toward 1/2 shrunk by 1/2; 1/4 + 1/2 < 1.  Each copy's weights are
    # over the points other than its centre and sum to its factor.
    weights = ((0, ratio(1, 4)), (ratio(1, 2), 0))
    factors = (ratio(1, 4), ratio(1, 2))
    assert _witness_holds(COLLINEAR, (0, 1), (ratio(1, 4),), factors, weights)
    # 1/4 = 1/6 (1/2) + 1/6 (1) as well, in the copy shrunk by 1/3.
    weights = ((ratio(1, 6), ratio(1, 6)), (ratio(1, 2), 0))
    factors = (ratio(1, 3), ratio(1, 2))
    assert _witness_holds(COLLINEAR, (0, 1), (ratio(1, 4),), factors, weights)


def test_witness_check_rejects_tampering():
    quarter = (ratio(1, 4),)
    factors = (ratio(1, 4), ratio(1, 2))
    weights = ((0, ratio(1, 4)), (ratio(1, 2), 0))
    # A tampered witness coordinate.
    moved = (ratio(1, 4) + ratio(1, 97),)
    assert not _witness_holds(COLLINEAR, (0, 1), moved, factors, weights)
    # A negative weight: -1/4 on 1/2 and 3/8 on 1 reach 1/4 and sum to
    # the factor 1/8; only the sign is wrong.
    bent = ((ratio(-1, 4), ratio(3, 8)), (ratio(1, 2), 0))
    bent_factors = (ratio(1, 8), ratio(1, 2))
    assert not _witness_holds(COLLINEAR, (0, 1), quarter, bent_factors, bent)
    # Weights that do not sum to the copy's factor.
    short = ((0, ratio(1, 4)), (ratio(1, 4), ratio(1, 4)))
    assert not _witness_holds(COLLINEAR, (0, 1), quarter, factors, short)
    # Wrong lengths, a weight for the centre included.
    assert not _witness_holds(COLLINEAR, (0, 1), quarter, factors, weights[:1])
    assert not _witness_holds(COLLINEAR, (0, 1), quarter, factors[:1], weights)
    centred = ((0, 0, ratio(1, 4)), (ratio(1, 2), 0))
    assert not _witness_holds(COLLINEAR, (0, 1), quarter, factors, centred)
    assert not _witness_holds(COLLINEAR, (0, 1), quarter * 2, factors, weights)


def test_witness_check_rejects_a_factor_sum_of_k():
    # The endpoints 0 and 1 are antipodal: the midpoint lies in both
    # copies shrunk by 1/2, every equation holds, and only the factor sum,
    # which reaches k = 1, is refused.
    half = ratio(1, 2)
    weights = ((0, half), (half, 0))
    assert not _witness_holds(COLLINEAR, (0, 2), (half,), (half, half), weights)


def test_witness_check_rejects_a_factor_of_one():
    # {0, 1, 2, 3} with chosen (0, 1, 2), k = 2, and the witness 1:
    # 1 - 0 = 1 (1 - 0), 1 - 1 = 1/8 (0 - 1) + 1/8 (2 - 1) and
    # 1 - 2 = 1/2 (0 - 2).  The factors 1, 1/4, 1/2 sum to 7/4 < 2 and every
    # equation holds, but the copy toward 0 is not shrunk at all.
    X = _ps((0,), (1,), (2,), (3,))
    weights = ((1, 0, 0), (ratio(1, 8), ratio(1, 8), 0), (ratio(1, 2), 0, 0))
    factors = (ratio(1), ratio(1, 4), ratio(1, 2))
    assert not _witness_holds(X, (0, 1, 2), (ratio(1),), factors, weights)
    # The witness 1/2, with factors 1/2, 1/2 and 3/4, passes.
    half = ratio(1, 2)
    weights = ((half, 0, 0), (half, 0, 0), (ratio(3, 4), 0, 0))
    factors = (half, half, ratio(3, 4))
    assert _witness_holds(X, (0, 1, 2), (half,), factors, weights)


def test_witness_certificates_need_no_member_program(monkeypatch):
    # A negative verdict is self-checked by substitution; `member` runs
    # only when a certificate is verified on its own.
    calls = []
    real = geometry.member

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("antipodes.antipodality.member", counted)
    cert = joint_antipodal_direct(CUBE3, (0, 1, 2))
    assert not cert.antipodal and not calls
    assert verify_joint_certificate(CUBE3, cert)
    assert len(calls) == 3


def test_joint_certificate_check_rejects_a_witness_of_the_wrong_length():
    # A witness needs one coordinate per dimension of the set.  One more
    # or one fewer makes a malformed certificate, which the check rejects
    # rather than reading it through a truncating zip or failing on it.
    X = _ps(*product((0, 1), repeat=2), ("1/2", "1/2"))
    cert = joint_antipodal_direct(X, (0, 4))
    assert not cert.antipodal and verify_joint_certificate(X, cert)
    for witness in (cert.witness + (ratio(0),), cert.witness[:1]):
        assert verify_joint_certificate(X, replace(cert, witness=witness)) is False
