"""Minimum-error discrimination over polytopal state spaces.

A state space is the convex hull of a `PointSet`.  A measurement with
k+1 outcomes is an affine map from the state space into the standard
simplex; outcome j is read as the guess "it was state j".  The
discrimination error of a tuple of states is the summed miss
probability, one term per state, and minimizing it over measurements is
a linear program.  The minimum hits zero exactly on jointly antipodal
tuples, which ties this layer to the geometric one.  A measurement is
checked on the vertices, and the error summed over the states, in
integers (`AffineMap.cleared_images`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .exact_lp import Status
from .geometry import (
    AffineMap,
    PointSet,
    StandardSimplex,
    decode_map,
    member,
    outside_simplex,
    simplex_map_lp,
)
from .rationals import exact_tuple, ratio

__all__ = [
    "PROGRAM_LIMIT",
    "DiscriminationError",
    "Measurement",
    "SubadditivityReport",
    "classical_subadditivity_check",
    "error_prob",
    "min_error",
]


#: Largest min_error program, in spanning points times states: one sign
#: row per pair.  Solving time grows faster than the square of that
#: count, so a larger instance is refused rather than left to run for
#: minutes.
PROGRAM_LIMIT = 128


class DiscriminationError(ValueError):
    pass


@dataclass(frozen=True)
class Measurement:
    """Affine map into the outcome simplex, checked on the points that
    span the state space; convexity extends the check to every state."""

    space: PointSet
    mapping: AffineMap

    def __post_init__(self):
        if self.mapping.out_dim < 2:
            raise DiscriminationError("measurement needs at least two outcomes")
        if self.mapping.in_dim != self.space.dim:
            raise DiscriminationError("measurement does not fit the state space")
        idx = outside_simplex(*self.mapping.cleared_images(self.space))
        if idx is not None:
            raise DiscriminationError(f"vertex {idx} is mapped outside the outcome simplex")

    @property
    def outcomes(self) -> int:
        return self.mapping.out_dim


def _checked_states(space: PointSet, states) -> tuple:
    # A spanning point of the space is inside by definition; any other
    # state is decided by the membership program.
    spanning = set(space.points)
    rows = []
    for idx, s in enumerate(states):
        p = exact_tuple(s)
        if len(p) != space.dim:
            raise DiscriminationError(f"states[{idx}]: wrong dimension")
        if p not in spanning and not member(space, p):
            raise DiscriminationError(f"states[{idx}]: outside the state space")
        rows.append(p)
    return tuple(rows)


def error_prob(measurement: Measurement, states):
    """Sum over j of (1 - probability of outcome j on state j)."""
    pts = _checked_states(measurement.space, states)
    if len(pts) != measurement.outcomes:
        raise DiscriminationError(
            f"expected {measurement.outcomes} states, got {len(pts)}"
        )
    return _error_sum(measurement, pts)


def _error_sum(measurement: Measurement, pts):
    """error_prob on states already checked against the space, summed in
    integers: state j's own outcome is images[j][j] / den."""
    images, den = measurement.mapping.cleared_images(pts)
    return Fraction(sum(den - image[j] for j, image in enumerate(images)), den)


def min_error(space: PointSet, states):
    """Exact minimum discrimination error and a measurement achieving it.

    The state space is the convex hull of the `PointSet` `space`.  The
    program searches the affine maps with one output per state that
    send every spanning point into the simplex, maximizing the sum
    of each state's own outcome probability.  Refuses a program of more
    than PROGRAM_LIMIT spanning points times states before any work.
    """
    if len(space) * len(states) > PROGRAM_LIMIT:
        raise DiscriminationError(
            f"{len(space)} spanning points times {len(states)} states "
            f"({len(space) * len(states)}) exceed the program limit "
            f"{PROGRAM_LIMIT}"
        )
    pts = _checked_states(space, states)
    r = len(pts)
    if r < 2:
        raise DiscriminationError("need at least two states")
    program = simplex_map_lp(space, r, score=list(enumerate(pts)))
    outcome = program.solve()
    if outcome.status is not Status.FEASIBLE:
        raise DiscriminationError("discrimination program did not optimize")
    measurement = Measurement(space, decode_map(program, outcome.point))
    value = ratio(r) - (outcome.objective_value + program.offset)
    if _error_sum(measurement, pts) != value:
        raise DiscriminationError("optimizer does not reproduce its own value")
    return value, measurement


@dataclass(frozen=True)
class SubadditivityReport:
    n: int
    k: int
    trials: int
    seed: int
    all_hold: bool
    worst_slack: object
    failures: tuple


def classical_subadditivity_check(
    n: int, k: int, trials: int, seed: int
) -> SubadditivityReport:
    """Tuple error never beats the summed pairwise errors on Delta_n.

    Samples rational state tuples with a seeded generator and compares
    min_error of the whole (k+1)-tuple against the sum over pairs,
    exactly.  Reports the smallest observed slack.
    """
    for label, value in (("n", n), ("k", k), ("trials", trials), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DiscriminationError(f"{label}: expected an integer")
    if n < 1 or k < 1 or trials < 1:
        raise DiscriminationError("n, k, trials must be positive")
    space = StandardSimplex(n).vertices
    master = random.Random(seed)
    worst = None
    failures = []
    for trial in range(trials):
        rng = random.Random(master.getrandbits(64))
        states = []
        for _ in range(k + 1):
            raw = [rng.randint(1, 16) for _ in range(n + 1)]
            total = sum(raw)
            states.append(tuple(ratio(a, total) for a in raw))
        joint, _ = min_error(space, states)
        pair_sum = ratio(0)
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                value, _ = min_error(space, (states[i], states[j]))
                pair_sum = pair_sum + value
        slack = pair_sum - joint
        if worst is None or slack < worst:
            worst = slack
        if slack < 0:
            failures.append(trial)
    return SubadditivityReport(
        n=n,
        k=k,
        trials=trials,
        seed=seed,
        all_hold=not failures,
        worst_slack=worst,
        failures=tuple(failures),
    )
