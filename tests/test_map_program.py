"""The map-into-simplex program against the full program it stands for,
and the integer re-check of certifying maps against a rational one.

A pinned program is presolved to the k(r - k) entries the pins leave
free; `_full_map_lp` keeps every map entry and every pin as a row, so the
two must agree on every verdict and every score optimum."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from antipodes import geometry
from antipodes.antipodality import (
    AntipodalityCertificate,
    is_rank_k_antipodal,
    joint_antipodal_direct,
    strict_rank_k,
    verify_joint_certificate,
)
from antipodes.exact_lp import EQ, GE, Status, make_lp, solve
from antipodes.geometry import (
    AffineMap,
    PointSet,
    StandardSimplex,
    affine_rank,
    decode_map,
    simplex_map_lp,
)
from antipodes.rationals import ONE, ZERO, ratio
from evaluators import apply_map, in_simplex

_PRIMES = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_coord = st.builds(
    lambda num, den: ratio(num, den),
    st.integers(-3, 3),
    st.sampled_from((1, 2, 3) + _PRIMES),
)
_prime_coord = st.builds(
    lambda num, den: ratio(num, den), st.integers(-5, 5), st.sampled_from(_PRIMES)
)


def _full_map_lp(points, outputs, pinned=(), score=()):
    """Reference: every output a variable, outputs >= 0 and summing to 1
    at every point, pinned points included."""
    points = tuple(points)
    blank = (ZERO,) * (len(points[0]) + 1)

    def at(i, p):
        return blank * i + p + (ONE,) + blank * (outputs - 1 - i)

    rows = [
        (at(i, q), EQ, ONE if i == j else ZERO)
        for j, q in enumerate(pinned)
        for i in range(outputs)
    ]
    rows += [(at(i, x), GE, ZERO) for x in points for i in range(outputs)]
    rows += [((x + (ONE,)) * outputs, EQ, ONE) for x in points]
    objective = None
    if score:
        objective = [ZERO] * (len(blank) * outputs)
        for i, x in score:
            for col, c in enumerate(x + (ONE,), i * len(blank)):
                objective[col] += c
    return make_lp(len(blank) * outputs, rows, objective=objective)


def _rational_map_check(X, cert):
    """Reference: the map branch of the certificate check, in rationals."""
    m = cert.mapping
    k = len(cert.chosen) - 1
    if m.in_dim != X.dim or m.out_dim != k + 1:
        return False
    simplex = StandardSimplex(k)
    for pos, q_idx in enumerate(cert.chosen):
        if apply_map(m, X[q_idx]) != simplex.vertex(pos):
            return False
    return all(in_simplex(simplex, apply_map(m, x)) for x in X)


@st.composite
def _point_sets(draw):
    """Small sets in the plane or in space, or on a line or a plane in
    space, which then does not span its space."""
    shape = draw(st.sampled_from(("plane", "space", "line", "flat")))
    n = draw(st.integers(2, 6))
    if shape in ("plane", "space"):
        dim = 2 if shape == "plane" else 3
        raw = draw(st.lists(st.tuples(*[_coord] * dim), min_size=n, max_size=n))
    else:
        span = 1 if shape == "line" else 2
        base = draw(st.tuples(*[_coord] * 3))
        dirs = draw(st.lists(st.tuples(*[_coord] * 3), min_size=span, max_size=span))
        raw = []
        for _ in range(n):
            params = draw(st.tuples(*[_coord] * span))
            raw.append(
                tuple(
                    b + sum((t * u[c] for t, u in zip(params, dirs)), ZERO)
                    for c, b in enumerate(base)
                )
            )
    if draw(st.booleans()):
        # An affine image whose entries have prime denominators; a
        # singular linear part drops the rank further.
        dim = len(raw[0])
        matrix = draw(st.lists(st.tuples(*[_prime_coord] * dim), min_size=dim, max_size=dim))
        shift = draw(st.tuples(*[_prime_coord] * dim))
        raw = [
            tuple(sum((a * c for a, c in zip(row, p)), b) for row, b in zip(matrix, shift))
            for p in raw
        ]
    points = tuple(dict.fromkeys(raw))
    if len(points) < 2:
        points = ((ZERO,) * len(raw[0]), (ONE,) * len(raw[0]))
    return PointSet(points)


@st.composite
def _instances(draw):
    """A set and a chosen tuple, affinely dependent ones included; k is
    often the set's affine rank, where the pins leave no variable."""
    X = draw(_point_sets())
    top = min(3, len(X) - 1)
    rank = affine_rank(X)
    if 1 <= rank <= top and draw(st.booleans()):
        k = rank
    else:
        k = draw(st.integers(1, top))
    chosen = draw(
        st.lists(
            st.integers(0, len(X) - 1), min_size=k + 1, max_size=k + 1, unique=True
        )
    )
    return X, tuple(chosen)


@settings(max_examples=300, deadline=None)
@given(_instances())
def test_map_program_decides_like_the_full_program(instance):
    X, chosen = instance
    k = len(chosen) - 1
    pinned = [X[i] for i in chosen]
    program = simplex_map_lp(X, k + 1, pinned=chosen)
    assert program.offset == 0
    dependent = affine_rank(PointSet(tuple(pinned))) < k
    if program.lp is not None:
        assert not dependent
        assert program.lp.num_vars == k * (affine_rank(X) - k)
    elif not dependent and program.solve().status is Status.FEASIBLE:
        assert affine_rank(X) == k
    out = program.solve()
    assert out.status is solve(_full_map_lp(X, k + 1, pinned=pinned)).status
    if out.status is Status.FEASIBLE:
        cert = AntipodalityCertificate(
            True, chosen, mapping=decode_map(program, out.point)
        )
        assert verify_joint_certificate(X, cert)
        assert _rational_map_check(X, cert)


@settings(max_examples=200, deadline=None)
@given(_instances(), st.data())
def test_map_program_scores_like_the_full_program(instance, data):
    X, chosen = instance
    k = len(chosen) - 1
    # One pair on output 0, the one the others determine, then any pairs,
    # then a repeat.
    pair = st.tuples(st.integers(0, k), st.integers(0, len(X) - 1))
    first = (0, data.draw(st.integers(0, len(X) - 1)))
    rest = data.draw(st.lists(pair, max_size=3))
    pairs = [first] + rest + data.draw(st.sampled_from(([], [first], rest[:1])))
    score = [(i, X[j]) for i, j in pairs]
    if data.draw(st.booleans()):
        # The midpoint of two set points, which need not be a set point.
        a, b = data.draw(st.lists(st.sampled_from(X.points), min_size=2, max_size=2, unique=True))
        score.append((data.draw(st.integers(0, k)), tuple((s + t) / 2 for s, t in zip(a, b))))
    pins = chosen if data.draw(st.booleans()) else ()
    pinned = [X[i] for i in pins]
    program = simplex_map_lp(X, k + 1, pins, score)
    r = affine_rank(X)
    if program.lp is not None:
        assert program.lp.num_vars == (k * (r - k) if pinned else k * (r + 1))
    if not pinned:
        # Output 0 is 1 minus the others at every point.
        assert program.offset == sum(1 for i, _ in score if i == 0)
    out = program.solve()
    ref = solve(_full_map_lp(X, k + 1, pinned, score))
    assert out.status is ref.status
    if out.status is not Status.FEASIBLE:
        return
    assert out.objective_value + program.offset == ref.objective_value
    mapping = decode_map(program, out.point)
    assert sum(apply_map(mapping, x)[i] for i, x in score) == ref.objective_value
    if pinned:
        cert = AntipodalityCertificate(True, chosen, mapping=mapping)
        assert verify_joint_certificate(X, cert)
        assert _rational_map_check(X, cert)
    else:
        assert all(in_simplex(StandardSimplex(k), apply_map(mapping, x)) for x in X)


def _shifted(mapping, row, col, delta):
    """The map with one entry moved by delta; col == in_dim is the offset."""
    matrix = [list(r) for r in mapping.matrix]
    offset = list(mapping.offset)
    if col == mapping.in_dim:
        offset[row] += delta
    else:
        matrix[row][col] += delta
    return AffineMap(tuple(map(tuple, matrix)), tuple(offset))


@settings(max_examples=200, deadline=None)
@given(_instances(), st.sampled_from(_PRIMES), st.data())
def test_integer_map_check_matches_rational_reference(instance, q, data):
    X, chosen = instance
    k = len(chosen) - 1
    step = ratio(1, q) * data.draw(st.sampled_from((1, -1)))
    row = data.draw(st.integers(0, k))
    other = (row + data.draw(st.integers(1, k))) % (k + 1)

    def verdicts(mapping):
        cert = AntipodalityCertificate(True, chosen, mapping=mapping)
        got = verify_joint_certificate(X, cert)
        assert got == _rational_map_check(X, cert)
        return got

    # Any entry moved by 1/q, which a set that does not span its space may
    # not notice; and a map drawn at random.
    program = simplex_map_lp(X, k + 1, pinned=chosen)
    out = program.solve()
    if out.status is Status.FEASIBLE:
        good = decode_map(program, out.point)
        assert verdicts(good)
    else:
        good = AffineMap(
            tuple(data.draw(st.tuples(*[_coord] * X.dim)) for _ in range(k + 1)),
            data.draw(st.tuples(*[_coord] * (k + 1))),
        )
        verdicts(good)
    verdicts(_shifted(good, row, data.draw(st.integers(0, X.dim)), step))
    if out.status is not Status.FEASIBLE:
        return

    # A linear entry off by 1/q along a coordinate some point uses: the
    # outputs at that point no longer sum to 1.
    col = next(t for t in range(X.dim) if any(x[t] for x in X))
    assert not verdicts(_shifted(good, row, col, step))
    # A pin missed by 1/q while the outputs still sum to 1.
    missed = _shifted(_shifted(good, row, X.dim, step), other, X.dim, -step)
    assert not verdicts(missed)
    # Outputs that sum to 1 + 1/q everywhere.
    assert not verdicts(_shifted(good, row, X.dim, step))
    # Wrong shapes are refused before any substitution.
    wide = AffineMap(good.matrix + (good.matrix[0],), good.offset + (ZERO,))
    assert not verdicts(wide)


@pytest.mark.parametrize("q", _PRIMES)
def test_integer_map_check_needs_every_condition(q):
    # On the unit square with (0, 0) and (1, 1) chosen, each broken map
    # fails one condition and keeps the other two.
    square = PointSet(tuple((ratio(a), ratio(b)) for a in (0, 1) for b in (0, 1)))
    half, step = ratio(1, 2), ratio(1, q)

    def verdict(row0, row1, c0, c1):
        mapping = AffineMap((row0, row1), (c0, c1))
        cert = AntipodalityCertificate(True, (0, 3), mapping=mapping)
        got = verify_joint_certificate(square, cert)
        assert got == _rational_map_check(square, cert)
        return got

    assert verdict((-half, -half), (half, half), ONE, ZERO)
    # Outputs sum to 1 + 1/q at (1, 0) and to 1 - 1/q at (0, 1).
    assert not verdict((-half, -half), (half + step, half - step), ONE, ZERO)
    # Output 1 is -1/q at (1, 0).
    assert not verdict((step, -ONE - step), (-step, ONE + step), ONE, ZERO)
    # (0, 0) goes to (1 - 1/q, 1/q).
    slope = half - step / 2
    assert not verdict((-slope, -slope), (slope, slope), ONE - step, step)


def _corner(d):
    return PointSet(
        tuple(tuple(ratio(int(t == j)) for t in range(d)) for j in range(-1, d))
    )


def _cube3():
    return PointSet(
        tuple((ratio(a), ratio(b), ratio(c)) for a in (0, 1) for b in (0, 1) for c in (0, 1))
    )


def test_frames_of_full_rank_make_no_solver_call(monkeypatch):
    # With k equal to the affine rank the pins fix the map: the 4-simplex's
    # corner at k = 4 and every 4-subset of the 3-cube at k = 3 are decided
    # by the signs of barycentric coordinates alone.
    calls = []
    original = geometry.MapProgram.solve

    def counted(program):
        if program.lp is not None:
            calls.append(program.lp)
        return original(program)

    monkeypatch.setattr(geometry.MapProgram, "solve", counted)
    corner = _corner(4)
    assert is_rank_k_antipodal(corner, 4).antipodal
    assert strict_rank_k(corner, 4).strict
    cube = _cube3()
    subsets = list(combinations(range(8), 4))
    verdicts = [joint_antipodal_direct(cube, s).antipodal for s in subsets]
    assert not is_rank_k_antipodal(cube, 3).antipodal
    assert calls == []
    # Every tetrahedron of cube vertices leaves some other vertex with a
    # negative barycentric coordinate, as the full program agrees.
    full = [
        solve(_full_map_lp(cube, 4, pinned=[cube[i] for i in s])).status
        for s in subsets
    ]
    assert verdicts == [status is Status.FEASIBLE for status in full]
    assert not any(verdicts)
