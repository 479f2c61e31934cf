"""Solver-level tests: known optima, certificate round-trips, termination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from antipodes import exact_lp
from antipodes.exact_lp import (
    EQ,
    GE,
    LE,
    LPError,
    Status,
    check_duals,
    check_farkas,
    check_point,
    check_ray,
    check_strict_emptiness,
    make_lp,
    solve,
    solve_strict,
)
from antipodes.rationals import ScalarError, ratio


def _q(*texts):
    return tuple(ratio(t) for t in texts)


def test_infeasible_band_has_farkas_certificate():
    lp = make_lp(1, [((1,), LE, 2), ((1,), GE, 5)])
    out = solve(lp)
    assert out.status is Status.INFEASIBLE
    assert check_farkas(lp, out.farkas)


def test_box_maximum_with_duals():
    lp = make_lp(
        2,
        [
            ((1, 0), LE, 1),
            ((0, 1), LE, 1),
            ((1, 0), GE, 0),
            ((0, 1), GE, 0),
        ],
        objective=(1, 2),
    )
    out = solve(lp)
    assert out.status is Status.FEASIBLE
    assert out.objective_value == 3
    assert out.point == (ratio(1), ratio(1))
    assert check_duals(lp, out.duals, out.objective_value)


def test_diagonal_cut_maximum():
    lp = make_lp(
        2,
        [
            ((1, 1), LE, "3/2"),
            ((1, 0), GE, 0),
            ((0, 1), GE, 0),
        ],
        objective=(1, 1),
    )
    out = solve(lp)
    assert out.status is Status.FEASIBLE
    assert out.objective_value == ratio(3, 2)


def test_minimisation_with_equality():
    lp = make_lp(
        2,
        [
            ((1, 0), GE, "1/3"),
            ((-1, 1), GE, 0),
            ((1, 1), EQ, 1),
        ],
        objective=(0, 1),
        maximize=False,
    )
    out = solve(lp)
    assert out.status is Status.FEASIBLE
    # y is minimised at x = y = 1/2 on the segment x + y = 1, y >= x.
    assert out.objective_value == ratio(1, 2)
    assert check_duals(lp, out.duals, out.objective_value)


def test_unbounded_has_improving_ray():
    lp = make_lp(1, [((1,), GE, 0)], objective=(1,), maximize=True)
    out = solve(lp)
    assert out.status is Status.UNBOUNDED
    assert check_ray(lp, out.ray)


def test_feasibility_only_returns_point():
    lp = make_lp(2, [((1, 1), EQ, 1), ((1, -1), LE, "1/4")])
    out = solve(lp)
    assert out.status is Status.FEASIBLE
    assert check_point(lp, out.point)
    assert out.objective_value is None


def test_strict_interval_point_has_margin():
    lp = make_lp(1, [((1,), GE, 0), ((1,), LE, 1)])
    out = solve_strict(lp, [0, 1])
    assert out.status is Status.FEASIBLE
    (x,) = out.point
    assert 0 < x < 1
    assert out.objective_value > 0


def test_strictly_empty_point_interval():
    # x >= 0 strictly together with x <= 0 has no solution; the weak
    # system is the single point 0.
    lp = make_lp(1, [((1,), GE, 0), ((1,), LE, 0)])
    out = solve_strict(lp, [0])
    assert out.status is Status.INFEASIBLE
    assert check_strict_emptiness(lp, [0], out.farkas)


def test_strict_on_weakly_infeasible_system():
    lp = make_lp(1, [((1,), GE, 3), ((1,), LE, 2)])
    out = solve_strict(lp, [0])
    assert out.status is Status.INFEASIBLE
    assert check_strict_emptiness(lp, [0], out.farkas)
    # The certificate is in fact the stronger weak-infeasibility kind.
    assert check_farkas(lp, out.farkas)


def test_strict_rejects_equality_rows():
    lp = make_lp(1, [((1,), EQ, 0)])
    with pytest.raises(LPError):
        solve_strict(lp, [0])


def test_malformed_rows_rejected():
    with pytest.raises(LPError):
        make_lp(2, [((1,), LE, 0)])
    with pytest.raises(LPError):
        make_lp(2, [((1, 2), "<", 0)])
    with pytest.raises(LPError):
        make_lp(0, [((), LE, 0)])


def test_make_lp_refuses_floats_and_bools_among_rationals():
    third = ratio("1/3")
    for bad in (0.5, True):
        with pytest.raises(ScalarError):
            make_lp(2, [((third, bad), LE, third)])
        with pytest.raises(ScalarError):
            make_lp(2, [((third, third), LE, bad)])
        with pytest.raises(ScalarError):
            make_lp(2, [((third, third), LE, third)], objective=(third, bad))


def test_make_lp_parses_strings_ints_and_foreign_rationals():
    exact = type(ratio(0))
    lp = make_lp(
        2,
        [(("1/3", 2), LE, "-5/7"), ((Fraction(2, 9), ratio(4)), GE, Fraction(1))],
        objective=(1, "-2/9"),
    )
    first, second = lp.constraints
    assert first.coeffs == _q("1/3", 2) and first.rhs == ratio(-5, 7)
    assert second.coeffs == _q("2/9", 4) and second.rhs == ratio(1)
    assert lp.objective == _q(1, "-2/9")
    scalars = (*first.coeffs, first.rhs, *second.coeffs, second.rhs, *lp.objective)
    # A Fraction passed in becomes the backend's type (mpq under gmpy2).
    assert all(type(a) is exact for a in scalars)
    with pytest.raises(ScalarError):
        make_lp(1, [(("1/3x",), LE, 0)])


def _beale():
    # Beale's cycling trap for the classic most-negative rule.
    return make_lp(
        4,
        [
            (("1/4", -60, "-1/25", 9), LE, 0),
            (("1/2", -90, "-1/50", 3), LE, 0),
            ((0, 0, 1, 0), LE, 1),
            ((1, 0, 0, 0), GE, 0),
            ((0, 1, 0, 0), GE, 0),
            ((0, 0, 1, 0), GE, 0),
            ((0, 0, 0, 1), GE, 0),
        ],
        objective=("3/4", -150, "1/50", -6),
        maximize=True,
    )


def test_degenerate_program_terminates():
    lp = _beale()
    out = solve(lp)
    assert out.status is Status.FEASIBLE
    assert out.objective_value == ratio(1, 20)
    assert check_duals(lp, out.duals, out.objective_value)
    assert out.point == _q("1/25", 0, 1, 0)
    assert out.duals == _q(0, "3/2", "1/20", 0, 15, 0, "21/2")


# ---------------------------------------------------------------------------
# pinned outcomes: the exact point, multipliers and ray the engine returns.
# Any change to pivot order, tie-breaking or the basis it stops at shows
# up here, even when the new certificates would still verify.


def test_pinned_beale_under_bland(monkeypatch):
    # With the default stall limit Dantzig's rule gets through Beale's
    # program unaided; a limit of 1 switches to Bland's rule at the first
    # degenerate pivot.
    monkeypatch.setattr(exact_lp, "_STALL_LIMIT", 1)
    out = solve(_beale())
    assert out.point == _q("1/25", 0, 1, 0)
    assert out.objective_value == ratio(1, 20)
    assert out.duals == _q(0, "3/2", "1/20", 0, 15, 0, "21/2")


def test_pinned_degenerate_cone_switches_to_bland():
    # Every row but the last passes through the origin; the run of
    # degenerate pivots reaches the default stall limit.
    lp = make_lp(
        4,
        [
            ((2, 0, -2, -2), GE, 0),
            ((0, 1, -2, 2), GE, 0),
            ((-1, 2, -1, -1), GE, 0),
            ((0, 0, -1, -1), LE, 0),
            ((-2, 0, -2, -2), LE, 0),
            ((-1, -1, -1, 2), GE, 0),
            ((0, 1, -2, 2), GE, 0),
            ((-1, 2, 1, -2), LE, 0),
            ((-2, 2, -1, 1), LE, 0),
            ((1, 1, 1, 1), LE, 1),
        ],
        objective=(-2, -3, -3, 1),
    )
    out = solve(lp)
    assert out.point == _q(0, 0, 0, 0)
    assert out.objective_value == 0
    assert out.duals == _q("3/4", 0, "7/2", 6, 0, 0, 0, 0, 2, 0)


def _redundant(objective=None):
    # Row 1 is twice row 0: phase one leaves its artificial basic on a
    # row with no structural entry, and the row is retired.
    return make_lp(
        2,
        [((1, 1), EQ, 1), ((2, 2), EQ, 2), ((1, -1), LE, "1/3")],
        objective=objective,
        maximize=False,
    )


def test_pinned_redundant_equality():
    out = solve(_redundant())
    assert out.point == _q("2/3", "1/3")
    out = solve(_redundant(objective=(1, 2)))
    assert out.point == _q("2/3", "1/3")
    assert out.objective_value == ratio(4, 3)
    assert out.duals == _q("-3/2", 0, "1/2")


def test_pinned_infeasible():
    lp = make_lp(
        3,
        [
            ((1, 1, 1), LE, 1),
            ((1, 0, 0), GE, "1/2"),
            ((0, 1, 0), GE, "1/3"),
            ((0, 0, 1), GE, "1/4"),
            ((1, -1, 0), EQ, "1/6"),
        ],
    )
    out = solve(lp)
    assert out.status is Status.INFEASIBLE
    assert out.farkas == _q(1, 0, 2, 1, -1)


def test_pinned_unbounded():
    lp = make_lp(
        2,
        [((1, -1), LE, 1), ((-1, 1), LE, 3), ((1, 0), GE, 0)],
        objective=(1, 2),
    )
    out = solve(lp)
    assert out.status is Status.UNBOUNDED
    assert out.ray == _q(1, 1)


def _prime_rows():
    # One distinct prime denominator per row, so row scales never agree.
    return [
        (("-10/53", "35/53", "29/53"), LE, "-22/53"),
        (("7/59", "37/59", "20/59"), GE, "10/59"),
        (("34/61", "-32/61", "37/61"), LE, "-30/61"),
        (("20/67", "-7/67", "30/67"), GE, "-16/67"),
        (("-16/71", "20/71", "29/71"), LE, "23/71"),
        (("30/73", "20/73", "10/73"), GE, "10/73"),
        ((1, 0, 0), LE, 4),
        ((0, 1, 0), LE, 4),
        ((0, 0, 1), LE, 4),
        ((1, 1, 1), GE, -12),
    ]


def test_pinned_prime_denominators():
    lp = make_lp(3, _prime_rows(), objective=("1/89", "-2/97", "3/83"))
    out = solve(lp)
    assert out.point == _q("4361/2217", "2716/2217", "-1152/739")
    assert out.objective_value == ratio(-10949, 184011)
    assert out.duals == _q(
        "471931451/6354267852",
        0,
        "1173004807/6354267852",
        "550925389/2118089284",
        0, 0, 0, 0, 0, 0,
    )
    out = solve(make_lp(3, _prime_rows()))
    assert out.point == _q("4361/2217", "2716/2217", "-1152/739")
    out = solve_strict(make_lp(3, _prime_rows()), range(6))
    assert out.point == _q(4, "645608/262527", "-216394/87509")
    assert out.objective_value == ratio(18028, 262527)


# ---------------------------------------------------------------------------
# randomised programs: every outcome must carry a verifying certificate

_coeff = st.integers(-4, 4).map(ratio)
_small = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(
    lambda f: ratio(f.numerator, f.denominator)
)


@st.composite
def _programs(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    rows = []
    for _ in range(m):
        coeffs = tuple(draw(_coeff) for _ in range(n))
        rel = draw(st.sampled_from([LE, EQ, GE]))
        rows.append((coeffs, rel, draw(_small)))
    objective = None
    if draw(st.booleans()):
        objective = tuple(draw(_coeff) for _ in range(n))
    return make_lp(n, rows, objective=objective, maximize=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(_programs())
def test_every_outcome_reverifies(lp):
    out = solve(lp)
    if out.status is Status.FEASIBLE:
        assert check_point(lp, out.point)
        if lp.objective is not None:
            assert out.objective_value is not None
            assert check_duals(lp, out.duals, out.objective_value)
    elif out.status is Status.INFEASIBLE:
        assert check_farkas(lp, out.farkas)
    else:
        assert check_ray(lp, out.ray)


@settings(max_examples=100, deadline=None)
@given(_programs())
def test_solver_is_deterministic(lp):
    assert repr(solve(lp)) == repr(solve(lp))


@st.composite
def _inequality_programs(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    rows = []
    for _ in range(m):
        coeffs = tuple(draw(_coeff) for _ in range(n))
        rows.append((coeffs, draw(st.sampled_from([LE, GE])), draw(_small)))
    strict = draw(st.sets(st.integers(0, m - 1), min_size=1))
    return make_lp(n, rows), sorted(strict)


@settings(max_examples=200, deadline=None)
@given(_inequality_programs())
def test_strict_outcomes_reverify(case):
    lp, strict = case
    out = solve_strict(lp, strict)
    if out.status is Status.FEASIBLE:
        assert check_point(lp, out.point, strict)
        # A strict solution also solves the weak system.
        assert solve(lp).status is Status.FEASIBLE
    else:
        assert check_strict_emptiness(lp, strict, out.farkas)
        # The weak system may still be feasible, but only on the boundary:
        weak = solve(lp)
        if weak.status is Status.FEASIBLE:
            assert not check_point(lp, weak.point, strict)


# ---------------------------------------------------------------------------
# check_point against plain rational substitution, row by row

_PRIMES = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_prime_ratio = st.builds(
    lambda num, den: ratio(num, den),
    st.integers(-200, 200),
    st.sampled_from(_PRIMES),
)
_sparse = st.one_of(st.just(ratio(0)), st.integers(-5, 5).map(ratio), _prime_ratio)


def _substitutes(lp, point, strict_rows=()):
    """Reference: does the point satisfy every row (strictly on the listed
    ones), computed as rational dot products?"""
    if len(point) != lp.num_vars:
        return False
    for i, con in enumerate(lp.constraints):
        lhs = sum((a * x for a, x in zip(con.coeffs, point)), ratio(0))
        strict = i in strict_rows
        if con.relation == EQ:
            holds = lhs == con.rhs and not strict
        elif con.relation == LE:
            holds = lhs < con.rhs if strict else lhs <= con.rhs
        else:
            holds = lhs > con.rhs if strict else lhs >= con.rhs
        if not holds:
            return False
    return True


@st.composite
def _point_cases(draw):
    n = draw(st.integers(1, 4))
    point = tuple(draw(_sparse) for _ in range(n))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = tuple(draw(_sparse) for _ in range(n))
        # Mostly tight at the point or off by 1/q either way; sometimes
        # anywhere.
        at_point = sum((a * x for a, x in zip(coeffs, point)), ratio(0))
        q = draw(st.sampled_from(_PRIMES))
        offsets = (0, 0, ratio(1, q), -ratio(1, q))
        if draw(st.integers(0, 4)):
            rhs = at_point + draw(st.sampled_from(offsets))
        else:
            rhs = draw(_sparse)
        rows.append((coeffs, draw(st.sampled_from([LE, EQ, GE])), rhs))
    strict = draw(st.sets(st.integers(0, len(rows) - 1)))
    length = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    point = (point + (draw(_sparse),))[:length]
    return make_lp(n, rows), point, strict


@settings(max_examples=400, deadline=None)
@given(_point_cases())
def test_check_point_matches_rational_substitution(case):
    lp, point, strict = case
    assert check_point(lp, point, strict) == _substitutes(lp, point, strict)
    assert check_point(lp, point) == _substitutes(lp, point)
