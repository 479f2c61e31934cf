"""State discrimination LP and its ties to antipodality."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from antipodes import discrimination, exact_lp
from antipodes.antipodality import joint_antipodal_direct
from antipodes.discrimination import (
    DiscriminationError,
    Measurement,
    classical_subadditivity_check,
    error_prob,
    min_error,
)
from antipodes.geometry import AffineMap, PointSet, StandardSimplex
from antipodes.rationals import ratio

BIT = StandardSimplex(1).vertices
TRIT = StandardSimplex(2).vertices
SQUARE = PointSet(tuple(tuple(ratio(c) for c in row) for row in product((0, 1), repeat=2)))


def test_half_mixed_versus_pure_bit():
    value, meas = min_error(BIT, (("1/2", "1/2"), (1, 0)))
    assert value == ratio(1, 2)
    assert error_prob(meas, (("1/2", "1/2"), (1, 0))) == ratio(1, 2)


def test_identical_states_cost_one():
    s = ("1/3", "2/3")
    value, _ = min_error(BIT, (s, s))
    assert value == 1


def test_identical_triple_costs_two():
    s = ("1/3", "1/3", "1/3")
    value, _ = min_error(TRIT, (s, s, s))
    assert value == 2


def test_simplex_vertices_discriminate_perfectly():
    states = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    value, meas = min_error(TRIT, states)
    assert value == 0
    assert error_prob(meas, states) == 0


def test_centroid_map_error_is_k():
    third = ratio(1, 3)
    meas = Measurement(
        TRIT,
        AffineMap(
            tuple(tuple(ratio(0) for _ in range(3)) for _ in range(3)),
            (third, third, third),
        ),
    )
    states = ((1, 0, 0), ("1/2", "1/2", 0), ("1/4", "1/4", "1/2"))
    assert error_prob(meas, states) == 2


def test_zero_error_iff_jointly_antipodal():
    # Adjacent square vertices form an antipodal pair; an interior point
    # with a vertex does not.
    verts = tuple(tuple(ratio(c) for c in row) for row in product((0, 1), repeat=2))
    value, _ = min_error(SQUARE, (verts[0], verts[1]))
    assert value == 0
    inner = (ratio(1, 2), ratio(1, 2))
    value, _ = min_error(SQUARE, (inner, verts[0]))
    assert value > 0
    X = PointSet(verts + (inner,))
    assert not joint_antipodal_direct(X, (4, 0)).antipodal


def test_relabeling_states_and_outcomes_is_free():
    a = ("1/2", "1/4", "1/4")
    b = ("1/6", "2/3", "1/6")
    assert min_error(TRIT, (a, b))[0] == min_error(TRIT, (b, a))[0]


def test_growing_the_space_cannot_help():
    tri = PointSet(tuple(tuple(ratio(c) for c in row) for row in ((0, 0), (1, 0), (0, 1))))
    states = (("1/4", "1/4"), ("1/2", 0))
    small, _ = min_error(tri, states)
    big, _ = min_error(SQUARE, states)
    assert small <= big


def test_state_validation():
    with pytest.raises(DiscriminationError, match="outside"):
        min_error(BIT, ((2, -1), (1, 0)))
    with pytest.raises(DiscriminationError, match="dimension"):
        min_error(BIT, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(DiscriminationError):
        min_error(BIT, ((1, 0),))


def test_spanning_states_skip_the_membership_program(monkeypatch):
    # A vertex of the space is inside by definition; any other state is
    # still decided by `member`, whose bool is the verdict.
    calls = []

    def counted(space, x):
        calls.append(x)
        return x == (ratio(1, 2), ratio(1, 2))

    monkeypatch.setattr(discrimination, "member", counted)
    value, _ = min_error(TRIT, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert value == 0 and calls == []
    min_error(BIT, (("1/2", "1/2"), (1, 0)))
    assert calls == [(ratio(1, 2), ratio(1, 2))]
    with pytest.raises(DiscriminationError, match="outside"):
        min_error(BIT, ((1, 0), (2, -1)))


def test_error_prob_count_mismatch():
    _, meas = min_error(BIT, ((1, 0), (0, 1)))
    with pytest.raises(DiscriminationError, match="expected 2"):
        error_prob(meas, ((1, 0), (0, 1), ("1/2", "1/2")))


def test_measurement_must_respect_the_simplex():
    with pytest.raises(DiscriminationError, match="outside the outcome"):
        Measurement(
            BIT,
            AffineMap(((ratio(2), ratio(0)), (ratio(-2), ratio(0))), (0, 1)),
        )
    # The square's vertices in order: (0,0), (0,1), (1,0), (1,1); this map
    # sums to 1 everywhere and goes negative only at (1,1).
    tilted = AffineMap((("1/2", "1/2"), ("-1/2", "-1/2")), ("1/4", "3/4"))
    with pytest.raises(DiscriminationError, match="^vertex 3 is mapped outside"):
        Measurement(SQUARE, tilted)


def test_subadditivity_smoke():
    report = classical_subadditivity_check(2, 2, trials=5, seed=3)
    assert report.all_hold
    assert report.worst_slack >= 0
    again = classical_subadditivity_check(2, 2, trials=5, seed=3)
    assert repr(report) == repr(again)


def test_subadditivity_validation():
    with pytest.raises(DiscriminationError):
        classical_subadditivity_check(0, 2, 5, 3)
    with pytest.raises(DiscriminationError):
        classical_subadditivity_check(2, 2, 5, "x")


_weight = st.integers(1, 12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_weight, _weight, _weight), min_size=2, max_size=3))
def test_error_stays_between_zero_and_k(raws):
    states = tuple(
        tuple(ratio(a, sum(raw)) for a in raw) for raw in raws
    )
    value, meas = min_error(TRIT, states)
    assert 0 <= value <= len(states) - 1
    assert error_prob(meas, states) == value


def test_min_error_makes_no_phase_one_pivot(monkeypatch):
    # Every row of the discrimination program (outputs >= 0, outputs
    # summing to <= 1 at each vertex) holds at 0 with its slack, so the
    # slack basis is feasible and phase one neither prices nor pivots.
    # The states' membership programs solve first, on tableaux of their
    # own.
    pivots = []
    real_pivot, real_phase2 = exact_lp._Tableau._pivot, exact_lp._Tableau.phase2

    def pivot(self, *args, **kwargs):
        pivots.append((self, self.cost is not None))
        return real_pivot(self, *args, **kwargs)

    def phase2(self):
        assert all(self.crash) and not any(self.obj)
        return real_phase2(self)

    monkeypatch.setattr(exact_lp._Tableau, "_pivot", pivot)
    monkeypatch.setattr(exact_lp._Tableau, "phase2", phase2)
    value, _ = min_error(TRIT, (("1/2", "1/4", "1/4"), (0, 1, 0), ("1/3", 0, "2/3")))
    assert value == ratio(5, 6)
    tableau = pivots[-1][0]
    assert tableau.cost is not None
    mine = [in_phase2 for tab, in_phase2 in pivots if tab is tableau]
    assert mine and all(mine)
