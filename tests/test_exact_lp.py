"""Solver-level tests: known optima, certificate round-trips, termination,
and agreement with the reference tableau and checks kept below."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from antipodes import exact_lp, geometry
from antipodes.exact_lp import (
    EQ,
    GE,
    LE,
    LPError,
    LPOutcome,
    Status,
    check_duals,
    check_farkas,
    check_point,
    check_ray,
    check_strict_emptiness,
    make_lp,
    relative_interior,
    solve,
    solve_strict,
)
from antipodes.rationals import ScalarError, over_common_denominator, ratio


def _q(*texts):
    return tuple(ratio(t) for t in texts)


def _dense(con, num_vars):
    """A program row back as dense rationals (coeffs, rhs): each of the
    integer row's terms and its rhs over its den."""
    coeffs = [ratio(0)] * num_vars
    for j, a in con.terms:
        coeffs[j] = ratio(a, con.den)
    return tuple(coeffs), ratio(con.rhs, con.den)


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
        objective=(0, -1),
    )
    out = solve(lp)
    assert out.status is Status.FEASIBLE
    # y is minimised, -y maximised, at x = y = 1/2 on the segment
    # x + y = 1, y >= x.
    assert out.objective_value == ratio(-1, 2)
    assert check_duals(lp, out.duals, out.objective_value)


def test_unbounded_has_improving_ray():
    lp = make_lp(1, [((1,), GE, 0)], objective=(1,))
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
    # A strict outcome carries no objective value.
    assert out.objective_value is None


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
    # A program built without make_lp is checked when it is solved: a
    # term's column must be a variable and den must be positive.
    ok = exact_lp.Constraint(((0, 1),), LE, 1, 1)
    for bad in (
        exact_lp.Constraint(((2, 1),), LE, 1, 1),
        exact_lp.Constraint(((-1, 1),), LE, 1, 1),
        exact_lp.Constraint(((0, 1),), LE, 1, 0),
    ):
        lp = exact_lp.LinearProgram(2, (ok, bad))
        with pytest.raises(LPError):
            solve(lp)
        with pytest.raises(LPError):
            solve_strict(lp, [0])


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
    lp = make_lp(
        2,
        [(("1/3", 2), LE, "-5/7"), ((Fraction(2, 9), ratio(4)), GE, Fraction(1))],
        objective=(1, "-2/9"),
    )
    first, second = lp.constraints
    # Each row is its nonzero coefficients and rhs as ints over den, the
    # lcm of the row's denominators: 1/3 and 2 and -5/7 over 21.
    assert (first.terms, first.relation, first.rhs, first.den) == (
        ((0, 7), (1, 42)), LE, -15, 21
    )
    assert (second.terms, second.relation, second.rhs, second.den) == (
        ((0, 2), (1, 36)), GE, 9, 9
    )
    assert lp.objective == _q(1, "-2/9")
    # Strings, ints, `ratio` values and Fractions spell equal rows;
    # a zero coefficient leaves no term.
    spellings = [
        ((0, "1/3", 2), LE, "-5/7"),
        ((0, ratio(1, 3), ratio(2)), LE, ratio(-5, 7)),
        ((Fraction(0), Fraction(1, 3), Fraction(2)), LE, Fraction(-5, 7)),
        (("0", Fraction(1, 3), 2), LE, "-5/7"),
    ]
    rows = [make_lp(3, [spelled]).constraints for spelled in spellings]
    assert all(r == rows[0] for r in rows)
    (con,) = rows[0]
    assert (con.terms, con.rhs, con.den) == (((1, 7), (2, 42)), -15, 21)
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
    )


def test_pinned_redundant_equality():
    out = solve(_redundant())
    assert out.point == _q("2/3", "1/3")
    out = solve(_redundant(objective=(-1, -2)))
    assert out.point == _q("2/3", "1/3")
    assert out.objective_value == ratio(-4, 3)
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
    # The first row starts with its slack basic; the three lower bounds
    # alone overrun it, and the equality row carries no weight.
    assert out.farkas == _q(1, 1, 1, 1, 0)


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
    lp = make_lp(3, _prime_rows())
    out = solve_strict(lp, range(6))
    assert out.point == _q(4, "645608/262527", "-216394/87509")
    assert check_point(lp, out.point, range(6))


def test_pinned_sign_bounds():
    # The first sign row of a column is a bound: its multiplier comes from
    # the column's reduced cost.  The second sign row on column 0 stays a
    # row and carries no weight here.
    lp = make_lp(
        2,
        [((1, 0), GE, 0), ((-3, 0), LE, 0), ((1, 1), EQ, 1), ((0, 1), GE, 0)],
        objective=(1, 2),
    )
    out = solve(lp)
    assert out.point == _q(0, 1)
    assert out.objective_value == 2
    assert out.duals == _q(1, 0, 2, 0)
    # Only sign rows: the optimum sits at the bounds.
    lp = make_lp(2, [((1, 0), GE, 0), ((0, -2), LE, 0)], objective=(-1, -1))
    out = solve(lp)
    assert out.point == _q(0, 0)
    assert out.duals == _q(1, "1/2")
    # A bounded column that the objective pushes up forever.
    lp = make_lp(
        2, [((1, 0), GE, 0), ((0, 1), LE, 1), ((0, -1), LE, 0)], objective=(1, 1)
    )
    out = solve(lp)
    assert out.status is Status.UNBOUNDED
    assert out.ray == _q(1, 0)
    # A bound against a row: the Farkas weight of the bound row.
    out = solve(make_lp(1, [((2,), GE, 0), ((-1,), GE, 1)]))
    assert out.status is Status.INFEASIBLE
    assert out.farkas == _q("1/2", 1)


def _recorded(monkeypatch, name):
    """Record (program, outcome) of every call geometry makes to `name`."""
    calls = []
    real = getattr(geometry, name)

    def record(lp, *args):
        out = real(lp, *args)
        calls.append((lp, out))
        return out

    monkeypatch.setattr(geometry, name, record)
    return calls


_TRIANGLE = geometry.PointSet(((0, 0), (1, 0), (0, 1)))


def test_pinned_member_outside_triangle(monkeypatch):
    # Rows: two coordinate rows, the weight sum, then w_i >= 0 per point,
    # all three of them bounds.
    calls = _recorded(monkeypatch, "solve")
    assert geometry.member(_TRIANGLE, (1, 1)) is False
    ((lp, out),) = calls
    # The separator member checks: normal -y[:2] = (1, 1), threshold
    # y[2] = 1.
    assert out.farkas == _q(-1, -1, 1, 1, 0, 0)
    assert all(w >= 0 for w in out.farkas[3:])
    assert check_farkas(lp, out.farkas)


def test_pinned_member_triangle_interior(monkeypatch):
    # The triangle's weight program for an interior point, with every
    # weight row strict: w_i = (w'_i + 1) / tau in the homogenised
    # program.
    calls = _recorded(monkeypatch, "solve")
    assert geometry.member(_TRIANGLE, ("1/4", "1/2")) is True
    ((lp, _),) = calls
    out = solve_strict(lp, range(3, 6))
    assert out.status is Status.FEASIBLE
    assert out.point == _q("1/4", "1/4", "1/2")
    assert check_point(lp, out.point, range(3, 6))


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
    return make_lp(n, rows, objective=_objective(draw, n))


def _objective(draw, n):
    """No objective, or one times a drawn sign: a minimum is the negated
    maximum of the negated objective."""
    if not draw(st.booleans()):
        return None
    sign = draw(st.sampled_from([1, -1]))
    return tuple(sign * draw(_coeff) for _ in range(n))


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
# relative interior: only the rows tight on the whole feasible set stay tight


@st.composite
def _anchored_programs(draw):
    """A program with a feasible point: rows through the point (tight),
    rows past it (loose), and opposite pairs and sums of tight rows, whose
    inequalities then hold with equality on the whole feasible set or on
    part of it."""
    n = draw(st.integers(1, 3))
    point = tuple(draw(_small) for _ in range(n))
    rows, tight = [], []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = tuple(draw(_coeff) for _ in range(n))
        at = sum((a * x for a, x in zip(coeffs, point)), ratio(0))
        rel = draw(st.sampled_from([LE, EQ, GE]))
        gap = 0 if rel == EQ else draw(st.sampled_from([0, 0, 1, 2]))
        rows.append((coeffs, rel, at + gap if rel == LE else at - gap))
        if rel != EQ and not gap:
            tight.append(rows[-1])
    for _ in range(draw(st.integers(0, 2)) if tight else 0):
        a, rel, b = draw(st.sampled_from(tight))
        if draw(st.booleans()):
            rows.append((a, GE if rel == LE else LE, b))
        else:
            c, rel2, d = draw(st.sampled_from(tight))
            sign = 1 if rel == rel2 else -1
            rows.append((tuple(x + sign * y for x, y in zip(a, c)), rel, b + sign * d))
    return make_lp(n, rows), point


@settings(max_examples=200, deadline=None)
@given(_anchored_programs())
def test_relative_interior_leaves_only_always_tight_rows_tight(case):
    lp, point = case
    inner = relative_interior(lp, point)
    assert check_point(lp, inner)
    scaled, den = over_common_denominator(inner)
    for con in lp.constraints:
        slack = con.rhs * den - sum(a * scaled[j] for j, a in con.terms)
        if con.relation == EQ or slack:
            continue
        # Tight at the point: the row's slack is 0 all over the feasible
        # set, so pushing the row away from its bound gains nothing.
        # The row is maximised oriented by its relation: a.x for a >= row,
        # -a.x for a <= row.
        sign = 1 if con.relation == GE else -1
        objective = [ratio(0)] * lp.num_vars
        for j, a in con.terms:
            objective[j] = Fraction(sign * a, con.den)
        out = solve(replace(lp, objective=tuple(objective)))
        assert out.status is Status.FEASIBLE
        assert out.objective_value == Fraction(sign * con.rhs, con.den)


def test_relative_interior_returns_a_loose_point_unchanged():
    lp = make_lp(1, [((1,), LE, 2), ((1,), GE, 0)])
    assert relative_interior(lp, (ratio(1),)) == (ratio(1),)
    with pytest.raises(LPError):
        relative_interior(lp, (ratio(3),))


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
        coeffs, rhs = _dense(con, lp.num_vars)
        lhs = sum((a * x for a, x in zip(coeffs, point)), ratio(0))
        strict = i in strict_rows
        if con.relation == EQ:
            holds = lhs == rhs and not strict
        elif con.relation == LE:
            holds = lhs < rhs if strict else lhs <= rhs
        else:
            holds = lhs > rhs if strict else lhs >= rhs
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


# ---------------------------------------------------------------------------
# reference: the two-column-per-variable tableau with an artificial block,
# and the certificate checks in Fractions, that the lean tableau
# and the integer checks replaced.  Outcomes must match to the last bit.


class _RefStandard:
    def __init__(self, lp):
        self.lp = lp
        self.slack_col = []
        ncols = 2 * lp.num_vars
        for con in lp.constraints:
            if con.relation == EQ:
                self.slack_col.append(None)
            else:
                self.slack_col.append(ncols)
                ncols += 1
        self.nstruct = ncols
        # Crash rule: a row whose slack gets coefficient +1 once the row is
        # oriented (<= with rhs >= 0, >= with rhs <= 0, negated) starts
        # with its slack basic.
        self.sign = []
        self.crash = []
        for con in lp.constraints:
            rhs = _dense(con, lp.num_vars)[1]
            negate = rhs < 0 or rhs == 0 and con.relation == GE
            self.sign.append(-1 if negate else 1)
            self.crash.append(con.relation == (GE if negate else LE))

    def objective_min(self):
        coeffs = [(0, 1)] * self.nstruct
        for j, c in enumerate(self.lp.objective):
            num, den = -int(c.numerator), int(c.denominator)
            coeffs[2 * j] = (num, den)
            coeffs[2 * j + 1] = (-num, den)
        return coeffs

    def point_from(self, values):
        return tuple(
            values[2 * j] - values[2 * j + 1] for j in range(self.lp.num_vars)
        )

    def row_mults_from(self, y):
        out = []
        for i, con in enumerate(self.lp.constraints):
            w = -self.sign[i] * y[i]
            if con.relation == GE:
                w = -w
            out.append(w)
        return tuple(out)


def _ref_eliminate(target, den, factor, support, piv):
    row = [a * piv for a in target] if piv != 1 else list(target)
    for j, b in support:
        row[j] -= factor * b
    den *= piv
    g = math.gcd(den, *row)
    if g != 1:
        row = [a // g for a in row]
        den //= g
    return row, den


class _RefTableau:
    def __init__(self, std, stall_limit):
        self.std = std
        self.stall_limit = stall_limit
        lp = std.lp
        self.m = len(lp.constraints)
        self.nstruct = std.nstruct
        self.art = [self.nstruct + i for i in range(self.m)]
        self.width = self.nstruct + self.m + 1
        self.rows = []
        self.dens = []
        for i, con in enumerate(lp.constraints):
            # The rational row cleared to integers over the lcm of its
            # denominators.
            coeffs, rhs = _dense(con, lp.num_vars)
            nums, den = over_common_denominator(coeffs + (rhs,))
            rhs = nums.pop()
            sign = std.sign[i]
            row = [0] * self.width
            for j, a in enumerate(nums):
                row[2 * j] = sign * a
                row[2 * j + 1] = -sign * a
            if con.relation == LE:
                row[std.slack_col[i]] = sign * den
            elif con.relation == GE:
                row[std.slack_col[i]] = -sign * den
            row[self.art[i]] = den
            row[-1] = sign * rhs
            self.rows.append(row)
            self.dens.append(den)
        self.basis = [
            std.slack_col[i] if std.crash[i] else self.art[i] for i in range(self.m)
        ]
        self.active = [True] * self.m
        self.obj = [0] * self.width
        self.obj_den = 1

    def _pivot(self, prow, pcol, with_obj=True):
        row = self.rows[prow]
        piv = row[pcol]
        if piv < 0:
            row = [-a for a in row]
            piv = -piv
        g = math.gcd(*row)
        if g != 1:
            row = [a // g for a in row]
            piv //= g
        self.rows[prow] = row
        self.dens[prow] = piv
        support = [(j, a) for j, a in enumerate(row) if a]
        for r in range(self.m):
            if r == prow or not self.active[r]:
                continue
            factor = self.rows[r][pcol]
            if factor:
                self.rows[r], self.dens[r] = _ref_eliminate(
                    self.rows[r], self.dens[r], factor, support, piv
                )
        if with_obj:
            factor = self.obj[pcol]
            if factor:
                self.obj, self.obj_den = _ref_eliminate(
                    self.obj, self.obj_den, factor, support, piv
                )
        self.basis[prow] = pcol

    def _optimize(self):
        stall = 0
        bland = False
        while True:
            obj = self.obj
            pcol = None
            if bland:
                for j in range(self.nstruct):
                    if obj[j] < 0:
                        pcol = j
                        break
            else:
                best = 0
                for j in range(self.nstruct):
                    v = obj[j]
                    if v < best:
                        best = v
                        pcol = j
            if pcol is None:
                return None
            prow = None
            best_rhs = best_a = None
            for r in range(self.m):
                if not self.active[r]:
                    continue
                row = self.rows[r]
                a = row[pcol]
                if a > 0:
                    if prow is None:
                        better = True
                    else:
                        lhs = row[-1] * best_a
                        rhs = best_rhs * a
                        better = lhs < rhs or (
                            lhs == rhs and self.basis[r] < self.basis[prow]
                        )
                    if better:
                        best_rhs, best_a = row[-1], a
                        prow = r
            if prow is None:
                return pcol
            if best_rhs == 0:
                stall += 1
                if stall >= self.stall_limit:
                    bland = True
            else:
                stall = 0
            self._pivot(prow, pcol)

    def _price(self, cost):
        terms = []
        for r in range(self.m):
            if self.active[r]:
                num, d = cost[self.basis[r]]
                if num:
                    terms.append((num, d * self.dens[r], self.rows[r]))
        den = math.lcm(*(d for num, d in cost if num), *(d for _, d, _ in terms))
        obj = [num * (den // d) for num, d in cost]
        for num, d, row in terms:
            factor = num * (den // d)
            for j, a in enumerate(row):
                if a:
                    obj[j] -= factor * a
        g = math.gcd(den, *obj)
        if g != 1:
            obj = [a // g for a in obj]
            den //= g
        self.obj, self.obj_den = obj, den

    def phase1(self):
        # Cost 1 on the artificials that start basic; a crash row's
        # artificial costs nothing and, like every artificial, never enters.
        self.art_cost = [0 if crash else 1 for crash in self.std.crash]
        costs = [(c, 1) for c in self.art_cost]
        self._price([(0, 1)] * self.nstruct + costs + [(0, 1)])
        assert self._optimize() is None
        if self.obj[-1] != 0:
            return False
        for r in range(self.m):
            if not self.active[r] or self.basis[r] < self.nstruct:
                continue
            pcol = next((j for j in range(self.nstruct) if self.rows[r][j]), None)
            if pcol is None:
                self.active[r] = False
            else:
                self._pivot(r, pcol, with_obj=False)
        return True

    def phase1_duals(self):
        den = self.obj_den
        return [
            ratio(self.art_cost[i] * den - self.obj[self.art[i]], den)
            for i in range(self.m)
        ]

    def phase2(self, cost_struct):
        self._price(cost_struct + [(0, 1)] * (self.m + 1))
        return self._optimize()

    def struct_values(self):
        values = [ratio(0)] * self.nstruct
        for r in range(self.m):
            if self.active[r] and self.basis[r] < self.nstruct:
                values[self.basis[r]] = ratio(self.rows[r][-1], self.dens[r])
        return values

    def ray_values(self, pcol):
        direction = [ratio(0)] * self.nstruct
        direction[pcol] = ratio(1)
        for r in range(self.m):
            if self.active[r] and self.basis[r] < self.nstruct:
                direction[self.basis[r]] = ratio(-self.rows[r][pcol], self.dens[r])
        return direction

    def duals(self):
        den = self.obj_den
        return [ratio(-self.obj[self.art[i]], den) for i in range(self.m)]


def _ref_solve(lp, stall_limit):
    std = _RefStandard(lp)
    tab = _RefTableau(std, stall_limit)
    if not tab.phase1():
        return LPOutcome(
            Status.INFEASIBLE, farkas=std.row_mults_from(tab.phase1_duals())
        )
    if lp.objective is None:
        return LPOutcome(Status.FEASIBLE, point=std.point_from(tab.struct_values()))
    escape = tab.phase2(std.objective_min())
    if escape is not None:
        return LPOutcome(
            Status.UNBOUNDED, ray=std.point_from(tab.ray_values(escape))
        )
    point = std.point_from(tab.struct_values())
    value = sum((c * x for c, x in zip(lp.objective, point)), ratio(0))
    return LPOutcome(
        Status.FEASIBLE,
        point=point,
        objective_value=value,
        duals=std.row_mults_from(tab.duals()),
    )


def _ref_solve_strict(lp, strict, stall_limit):
    n = lp.num_vars
    zero, one = ratio(0), ratio(1)
    rows = []
    for i, con in enumerate(lp.constraints):
        margin = zero
        if i in strict:
            margin = one if con.relation == LE else -one
        coeffs, rhs = _dense(con, n)
        rows.append((coeffs + (margin,), con.relation, rhs))
    rows.append(((zero,) * n + (one,), LE, one))
    rows.append(((zero,) * n + (one,), GE, zero))
    aux = make_lp(n + 1, rows, objective=(zero,) * n + (one,))
    out = _ref_solve(aux, stall_limit)
    nrows = len(lp.constraints)
    if out.status is Status.INFEASIBLE:
        return LPOutcome(Status.INFEASIBLE, farkas=out.farkas[:nrows])
    if out.objective_value > 0:
        return LPOutcome(
            Status.FEASIBLE, point=out.point[:n], objective_value=out.objective_value
        )
    return LPOutcome(Status.INFEASIBLE, farkas=out.duals[:nrows])


def _oriented(con, num_vars):
    coeffs, rhs = _dense(con, num_vars)
    if con.relation == GE:
        return tuple(-a for a in coeffs), -rhs
    return coeffs, rhs


def _ref_combination(lp, mults):
    """Combined oriented coefficients and rhs in rationals, or None."""
    if len(mults) != len(lp.constraints):
        return None
    combo = [ratio(0)] * lp.num_vars
    total = ratio(0)
    for w, con in zip(mults, lp.constraints):
        if con.relation != EQ and w < 0:
            return None
        coeffs, rhs = _oriented(con, lp.num_vars)
        for j, a in enumerate(coeffs):
            combo[j] += w * a
        total += w * rhs
    return combo, total


def _ref_check_farkas(lp, mults):
    combined = _ref_combination(lp, mults)
    return combined is not None and not any(combined[0]) and combined[1] < 0


def _ref_check_strict_emptiness(lp, strict, mults):
    combined = _ref_combination(lp, mults)
    if combined is None or any(combined[0]):
        return False
    mass = sum((w for i, w in enumerate(mults) if i in strict), ratio(0))
    return combined[1] < 0 or (combined[1] <= 0 and mass > 0)


def _ref_check_duals(lp, mults, optimum):
    if lp.objective is None:
        return False
    combined = _ref_combination(lp, mults)
    if combined is None:
        return False
    if any(c != t for c, t in zip(combined[0], lp.objective)):
        return False
    return combined[1] == optimum


def _ref_check_ray(lp, ray):
    if lp.objective is None or len(ray) != lp.num_vars or not any(ray):
        return False
    for con in lp.constraints:
        coeffs, _ = _oriented(con, lp.num_vars)
        drift = sum((a * r for a, r in zip(coeffs, ray)), ratio(0))
        if drift > 0 or (drift != 0 and con.relation == EQ):
            return False
    gain = sum((c * r for c, r in zip(lp.objective, ray)), ratio(0))
    return gain > 0


_rhs = st.one_of(st.just(ratio(0)), _small)


@st.composite
def _rich_programs(draw):
    """Programs with retired rows, zero-rhs rows and degenerate vertices:
    equality rows may be repeated as multiples or sums of earlier ones."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = tuple(draw(st.one_of(_coeff, _small)) for _ in range(n))
        rows.append((coeffs, draw(st.sampled_from([LE, EQ, GE])), draw(_rhs)))
    equalities = [row for row in rows if row[1] == EQ]
    for _ in range(draw(st.integers(0, 2)) if equalities else 0):
        a, _, p = draw(st.sampled_from(equalities))
        b, _, q = draw(st.sampled_from(equalities))
        s = draw(st.sampled_from([ratio(1), ratio(2), ratio(-1, 2)]))
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, (tuple(x + s * y for x, y in zip(a, b)), EQ, p + s * q))
    return make_lp(n, rows, objective=_objective(draw, n))


def _with_stall_limit(limit, run):
    saved = exact_lp._STALL_LIMIT
    exact_lp._STALL_LIMIT = limit
    try:
        return run()
    finally:
        exact_lp._STALL_LIMIT = saved


def _is_sign_row(con, num_vars):
    """Does the row say x_j >= 0 for one column j?  The engine turns the
    first such row per column into a bound, so its pivots differ from the
    reference tableau's on purpose."""
    coeffs, rhs = _dense(con, num_vars)
    nonzero = [a for a in coeffs if a]
    if rhs != 0 or len(nonzero) != 1:
        return False
    (a,) = nonzero
    return (con.relation == GE and a > 0) or (con.relation == LE and a < 0)


def _has_sign_row(lp):
    return any(_is_sign_row(con, lp.num_vars) for con in lp.constraints)


def _assert_agrees_with_reference(lp, got, ref):
    """Same status and optimum as the reference, and every certificate
    passes the rational checks."""
    assert got.status is ref.status
    assert got.objective_value == ref.objective_value
    if got.status is Status.INFEASIBLE:
        assert _ref_check_farkas(lp, got.farkas)
    elif got.status is Status.UNBOUNDED:
        assert _ref_check_ray(lp, got.ray)
    else:
        assert _substitutes(lp, got.point)
        if lp.objective is not None:
            assert _ref_check_duals(lp, got.duals, got.objective_value)


def _assert_strict_agrees_with_reference(lp, strict, got, ref):
    """Same status as the reference margin program, and every
    certificate passes the rational checks.  The two programs stop at
    different vertices, so points and multipliers may differ."""
    assert got.status is ref.status
    if got.status is Status.FEASIBLE:
        assert _substitutes(lp, got.point, strict)
    else:
        assert _ref_check_strict_emptiness(lp, strict, got.farkas)


# Programs without a sign row must pivot exactly as the reference does.
# On the others the engine drops the bound rows, and its pivots differ on
# purpose, so outcomes are compared by status, optimum and certificate
# validity.  Every homogenised program of solve_strict has the sign row
# tau' >= 0, and every margin program of the reference the sign row t >= 0.


@settings(max_examples=400, deadline=None)
@given(st.one_of(_programs(), _rich_programs()), st.sampled_from([1, 2, 24]))
def test_solve_matches_reference_tableau(lp, stall_limit):
    got = _with_stall_limit(stall_limit, lambda: solve(lp))
    ref = _ref_solve(lp, stall_limit)
    if _has_sign_row(lp):
        _assert_agrees_with_reference(lp, got, ref)
    else:
        assert repr(got) == repr(ref)


@settings(max_examples=200, deadline=None)
@given(_inequality_programs(), st.sampled_from([1, 24]))
def test_solve_strict_matches_reference_tableau(case, stall_limit):
    lp, strict = case
    got = _with_stall_limit(stall_limit, lambda: solve_strict(lp, strict))
    ref = _ref_solve_strict(lp, strict, stall_limit)
    _assert_strict_agrees_with_reference(lp, strict, got, ref)


_magnitude = st.sampled_from(["1", "2", "1/3", "5/2"]).map(ratio)


@st.composite
def _sign_programs(draw):
    """Programs with sign rows (x_j >= 0 written as a >= row with a
    positive coefficient or a <= row with a negative one), at times two
    on one column, at times nothing else; the objective often leaves a
    bounded column free to grow.  Returns the program and a nonempty set
    of strict rows among its inequality rows, sign rows included."""
    n = draw(st.integers(1, 3))
    rows = []
    if draw(st.integers(0, 3)):
        for _ in range(draw(st.integers(1, 4))):
            coeffs = tuple(draw(_coeff) for _ in range(n))
            rows.append((coeffs, draw(st.sampled_from([LE, EQ, GE])), draw(_rhs)))
    counts = [draw(st.integers(0, 2)) for _ in range(n)]
    if not any(counts):
        counts[draw(st.integers(0, n - 1))] = 1
    for j, count in enumerate(counts):
        for _ in range(count):
            a = draw(_magnitude)
            relation = draw(st.sampled_from([GE, LE]))
            coeffs = [ratio(0)] * n
            coeffs[j] = a if relation == GE else -a
            at = draw(st.integers(0, len(rows)))
            rows.insert(at, (tuple(coeffs), relation, ratio(0)))
    objective = None
    if draw(st.integers(0, 3)):
        sign = draw(st.sampled_from([1, -1]))
        objective = tuple(sign * draw(_coeff) for _ in range(n))
    inequalities = [i for i, (_, rel, _) in enumerate(rows) if rel != EQ]
    strict = sorted(draw(st.sets(st.sampled_from(inequalities), min_size=1)))
    return rows, objective, strict


@settings(max_examples=300, deadline=None)
@given(_sign_programs(), st.sampled_from([1, 24]))
def test_sign_bounds_match_reference(case, stall_limit):
    rows, objective, strict = case
    lp = make_lp(len(rows[0][0]), rows, objective=objective)
    got = _with_stall_limit(stall_limit, lambda: solve(lp))
    _assert_agrees_with_reference(lp, got, _ref_solve(lp, stall_limit))
    weak = make_lp(lp.num_vars, rows)
    got = _with_stall_limit(stall_limit, lambda: solve_strict(weak, strict))
    ref = _ref_solve_strict(weak, strict, stall_limit)
    _assert_strict_agrees_with_reference(weak, strict, got, ref)


def _homogenised_program(lp, strict):
    """The homogenised program that solve_strict builds for lp and hands
    to `_two_phase`."""
    seen = []
    real = exact_lp._two_phase

    def record(aux):
        seen.append(aux)
        return real(aux)

    exact_lp._two_phase = record
    try:
        solve_strict(lp, strict)
    finally:
        exact_lp._two_phase = real
    (aux,) = seen
    return aux


@settings(max_examples=200, deadline=None)
@given(_sign_programs())
def test_homogenised_program_rows_are_the_ones_make_lp_parses(case):
    # solve_strict builds the homogenised program straight from integer
    # rows; the same rows as dense rationals through make_lp give equal
    # rows, each in lowest terms over the lcm of its denominators.
    rows, _, strict = case
    lp = make_lp(len(rows[0][0]), rows)
    aux = _homogenised_program(lp, strict)
    assert aux.objective is None
    dense = [_dense(con, aux.num_vars) for con in aux.constraints]
    again = make_lp(
        aux.num_vars,
        [(c, con.relation, r) for (c, r), con in zip(dense, aux.constraints)],
    )
    assert again == aux
    # Each program row keeps its coefficients, and -rhs is its tau
    # column n; tau' >= 0 comes last.
    n = lp.num_vars
    assert len(aux.constraints) == len(lp.constraints) + 1
    for con, (coeffs, _) in zip(lp.constraints, dense):
        a, b = _dense(con, n)
        assert coeffs == a + (-b,)
    assert dense[-1] == ((ratio(0),) * n + (ratio(1),), ratio(0))


def test_strict_systems_are_decided_in_phase_one(monkeypatch):
    # Neither phase two nor a dual read-out runs: a feasible system, a
    # strictly empty one and a weakly infeasible one are all decided.
    def refuse(*args):
        raise AssertionError("solve_strict ran past phase one")

    monkeypatch.setattr(exact_lp._Tableau, "phase2", refuse)
    monkeypatch.setattr(exact_lp, "_with_duals", refuse)
    lp = make_lp(1, [((1,), GE, 0), ((1,), LE, 1)])
    out = solve_strict(lp, [0, 1])
    assert out.status is Status.FEASIBLE
    assert check_point(lp, out.point, [0, 1])
    # x > 0 with x <= 0: the weak system is the point 0, so the
    # certificate must weigh the strict row.
    lp = make_lp(1, [((1,), GE, 0), ((1,), LE, 0)])
    out = solve_strict(lp, [0])
    assert out.status is Status.INFEASIBLE
    assert check_strict_emptiness(lp, [0], out.farkas)
    assert not check_farkas(lp, out.farkas)
    # x > 3 with x <= 2: the weak system is empty already.
    lp = make_lp(1, [((1,), GE, 3), ((1,), LE, 2)])
    out = solve_strict(lp, [0])
    assert out.status is Status.INFEASIBLE
    assert check_farkas(lp, out.farkas)


def _assert_strict_case(rows, strict, status):
    lp = make_lp(len(rows[0][0]), rows)
    out = solve_strict(lp, strict)
    assert out.status is status
    ref = _ref_solve_strict(lp, strict, 24)
    _assert_strict_agrees_with_reference(lp, strict, out, ref)


def test_strict_sign_row_after_a_weak_one():
    # Column 0's first sign row x >= 0 is weak; the strict -2x <= 0 after
    # it is the one shifted to a bound, and x >= 0 becomes a row.
    rows = [((1, 0), GE, 0), ((-2, 0), LE, 0), ((1, 1), LE, 1), ((0, 1), GE, 0)]
    _assert_strict_case(rows, [1], Status.FEASIBLE)
    _assert_strict_case(rows, [1, 2, 3], Status.FEASIBLE)
    rows[2] = ((1, 1), LE, 0)
    _assert_strict_case(rows, [1], Status.INFEASIBLE)


def test_two_strict_sign_rows_on_one_column():
    # x > 0 twice over: the first row is shifted to a bound, the second
    # stays a row.
    rows = [((1,), GE, 0), ((-3,), LE, 0), ((1,), LE, 1)]
    _assert_strict_case(rows, [0, 1], Status.FEASIBLE)
    _assert_strict_case(rows, [0, 1, 2], Status.FEASIBLE)
    rows[2] = ((1,), LE, 0)
    _assert_strict_case(rows, [0, 1], Status.INFEASIBLE)
    _assert_strict_case(rows, [1], Status.INFEASIBLE)


def _dual_reads(monkeypatch):
    """Record each read-out of an optimum's duals and each check of them."""
    seen = []
    read, check = exact_lp._Tableau.duals, exact_lp.check_duals

    def reading(tab):
        seen.append("read")
        return read(tab)

    def checking(*args):
        seen.append("check")
        return check(*args)

    monkeypatch.setattr(exact_lp._Tableau, "duals", reading)
    monkeypatch.setattr(exact_lp, "check_duals", checking)
    return seen


def test_objective_program_reads_and_checks_duals(monkeypatch):
    # An objective program through solve reads its duals once and checks
    # them once; a program without an objective reads none.
    seen = _dual_reads(monkeypatch)
    solve(make_lp(1, [((1,), LE, 1)], objective=(1,)))
    assert seen == ["read", "check"]
    seen.clear()
    solve(make_lp(1, [((1,), LE, 1)]))
    assert seen == []


def test_reference_cases_cover_retired_rows_and_bland():
    # The pinned programs above, through both tableaux: a retired row
    # (redundant equality), Bland's rule, infeasible and unbounded ends.
    cases = [_redundant(), _redundant(objective=(-1, -2)), _beale()]
    cases.append(make_lp(3, _prime_rows(), objective=("1/89", "-2/97", "3/83")))
    cases.append(make_lp(1, [((1,), LE, 2), ((1,), GE, 5)]))
    cases.append(make_lp(1, [((1,), GE, 0)], objective=(1,)))
    for lp in cases:
        for limit in (1, 24):
            got = _with_stall_limit(limit, lambda: solve(lp))
            assert repr(got) == repr(_ref_solve(lp, limit))


def _mutations(draw, mults):
    """The vector itself, or one of: an entry negated, an entry moved by
    1/q, one entry dropped or added, entries as plain ints or as
    Fractions."""
    mults = list(mults)
    kinds = ["same", "negate", "nudge", "short", "long", "int", "fraction"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("negate", "nudge") and mults:
        i = draw(st.integers(0, len(mults) - 1))
        if kind == "negate":
            mults[i] = -mults[i] if mults[i] else ratio(-1)
        else:
            step = ratio(1, draw(st.sampled_from(_PRIMES)))
            mults[i] += draw(st.sampled_from([step, -step]))
    elif kind == "short" and mults:
        mults.pop(draw(st.integers(0, len(mults) - 1)))
    elif kind == "long":
        mults.append(draw(_small))
    elif kind == "int":
        mults = [int(w) if w.denominator == 1 else w for w in mults]
    elif kind == "fraction":
        mults = [Fraction(int(w.numerator), int(w.denominator)) for w in mults]
    return tuple(mults)


@st.composite
def _certificate_cases(draw):
    lp = draw(st.one_of(_programs(), _rich_programs()))
    out = solve(lp)
    mults = out.farkas if out.farkas is not None else out.duals
    if mults is None or not draw(st.integers(0, 3)):
        mults = tuple(draw(_small) for _ in lp.constraints)
    ray = out.ray
    if ray is None:
        ray = tuple(draw(_small) for _ in range(lp.num_vars))
    optimum = out.objective_value if out.objective_value is not None else draw(_small)
    if not draw(st.integers(0, 3)):
        optimum += ratio(1, draw(st.sampled_from(_PRIMES)))
    strict = draw(st.sets(st.integers(0, len(lp.constraints) - 1)))
    return lp, _mutations(draw, mults), _mutations(draw, ray), optimum, strict


@settings(max_examples=500, deadline=None)
@given(_certificate_cases())
def test_integer_checks_match_rational_substitution(case):
    lp, mults, ray, optimum, strict = case
    assert check_farkas(lp, mults) == _ref_check_farkas(lp, mults)
    assert check_strict_emptiness(lp, strict, mults) == _ref_check_strict_emptiness(
        lp, strict, mults
    )
    assert check_duals(lp, mults, optimum) == _ref_check_duals(lp, mults, optimum)
    assert check_ray(lp, ray) == _ref_check_ray(lp, ray)


def test_integer_checks_on_fixed_certificates():
    lp = make_lp(1, [((1,), LE, 2), ((1,), GE, 5)])
    assert check_farkas(lp, (1, 1))
    assert check_farkas(lp, (Fraction(1, 3), Fraction(1, 3)))
    # A negative weight on an inequality row, a nudged weight, wrong length.
    assert not check_farkas(lp, (-1, -1))
    assert not check_farkas(lp, (ratio(1), ratio(1) + ratio(1, 97)))
    assert not check_farkas(lp, (1,))
    assert not check_farkas(lp, (1, 1, 0))
    box = make_lp(
        2,
        [((1, 0), LE, 1), ((0, 1), LE, 1), ((1, 0), GE, 0), ((0, 1), GE, 0)],
        objective=(1, 2),
    )
    assert check_duals(box, (1, 2, 0, 0), 3)
    assert check_duals(box, (ratio(1), ratio(2), ratio(0), ratio(0)), ratio(3))
    assert not check_duals(box, (1, 2, 0, 0), ratio(3) + ratio(1, 89))
    assert not check_duals(box, (1, 2, -1, 0), 3)
    assert not check_duals(box, (1, 2, 0), 3)
    up = make_lp(1, [((1,), GE, 0)], objective=(1,))
    assert check_ray(up, (ratio(1, 7),)) and check_ray(up, (1,))
    assert not check_ray(up, (0,)) and not check_ray(up, (-1,))
    assert not check_ray(up, (1, 0))
