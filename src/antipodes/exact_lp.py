"""Certified linear programming over exact rationals.

Every geometric decision in this package bottoms out in `solve` or
`solve_strict`.  Outcomes never come bare: a feasibility claim carries a
point, an infeasibility claim carries nonnegative combination multipliers,
an unboundedness claim carries an improving ray, and an optimality claim
carries dual multipliers.  All certificates re-verify by direct
substitution (see the check_* helpers), and the solver re-checks its own
output before returning, so a bug in the pivoting can only surface as an
internal error, never as a wrong verdict.

The engine is a dense two-phase primal simplex on rationals.  Variables are
free and get split into nonnegative pairs; rows receive slacks and
artificials in the usual way.  Pivoting is Dantzig's rule with a permanent
switch to Bland's rule after a run of degenerate steps, which keeps the
solver fast on typical inputs and terminating on all of them.  The whole
pipeline is deterministic: identical programs produce identical outcomes,
certificates included.

The tableau stores each row as Python ints over one positive denominator
of its own, the objective row likewise (fraction-free pivoting in the
manner of Bareiss).  A pivot rescales every touched row by the pivot entry,
cancels the pivot column and divides out the gcd of the row and its
denominator; signs are read off numerators and ratio tests cross-multiply,
so every decision is the one the rationals themselves give.  Values return
to backend rationals only when a point, ray or multiplier vector is read
out.

A program reaches the tableau as integer rows: each constraint's
coefficients and rhs scaled by the lcm D of the row's denominators,
computed once per program and kept with it.  The same rows re-verify
points: `check_point` clears the point's denominators to one lcm L and
tests the sign of rhs*L - a.P in integers, the sign the rational slack
has.  The multiplier and ray checks stay in backend rationals.

`solve_strict` decides systems in which selected inequality rows must hold
strictly.  It maximises a margin variable bounded by 1; a positive optimum
yields a strictly feasible point, a zero optimum yields dual multipliers
that certify strict emptiness (a nonnegative combination of the rows that
proves `0 <= rhs` with positive weight on at least one strict row, or
outright weak infeasibility).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

from .rationals import ONE, ZERO, int_ratio, over_common_denominator, ratio

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)

# Consecutive degenerate pivots tolerated before switching to Bland's rule.
_STALL_LIMIT = 24

# The backend's exact scalar type; make_lp keeps scalars of exactly this
# type as they are and parses everything else.
_RATIONAL = type(ONE)


class LPError(ValueError):
    """Malformed linear program (lengths, relations, bad scalars)."""


class SolverInvariantError(RuntimeError):
    """A solver-produced certificate failed its own re-verification."""


class Status(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple
    relation: str
    rhs: object

    def oriented(self):
        """Coefficients and rhs with >= rows negated, so <= / = remain."""
        if self.relation == GE:
            return tuple(-a for a in self.coeffs), -self.rhs
        return self.coeffs, self.rhs


@dataclass(frozen=True)
class LinearProgram:
    num_vars: int
    constraints: tuple
    objective: Optional[tuple] = None
    maximize: bool = True

    @cached_property
    def _integer_rows(self):
        """Each constraint as (terms, rhs, den): its nonzero coefficients
        as (column, integer) pairs and its rhs, all multiplied by den, the
        lcm of the row's denominators."""
        return tuple(_integer_row(con) for con in self.constraints)


@dataclass(frozen=True)
class LPOutcome:
    status: Status
    point: Optional[tuple] = None
    objective_value: Optional[object] = None
    farkas: Optional[tuple] = None
    ray: Optional[tuple] = None
    duals: Optional[tuple] = None


def _dot(a, b):
    total = ZERO
    for x, y in zip(a, b):
        total += x * y
    return total


def _integer_row(con: Constraint):
    terms = [
        (j, int(a.numerator), int(a.denominator))
        for j, a in enumerate(con.coeffs)
        if a
    ]
    rhs_num, rhs_den = int(con.rhs.numerator), int(con.rhs.denominator)
    den = math.lcm(rhs_den, *(d for _, _, d in terms))
    return (
        tuple((j, n * (den // d)) for j, n, d in terms),
        rhs_num * (den // rhs_den),
        den,
    )


def _exact(values):
    return tuple([a if type(a) is _RATIONAL else ratio(a) for a in values])


def make_lp(num_vars, rows, objective=None, maximize=True) -> LinearProgram:
    """Validating constructor; accepts ints and 'p/q' strings as scalars."""
    if not isinstance(num_vars, int) or num_vars < 1:
        raise LPError("num_vars must be a positive integer")
    constraints = []
    for idx, row in enumerate(rows):
        try:
            coeffs, relation, rhs = row
        except (TypeError, ValueError) as exc:
            raise LPError(f"row {idx}: expected (coeffs, relation, rhs)") from exc
        if relation not in _RELATIONS:
            raise LPError(f"row {idx}: unknown relation {relation!r}")
        coeffs = _exact(coeffs)
        if len(coeffs) != num_vars:
            raise LPError(
                f"row {idx}: {len(coeffs)} coefficients for {num_vars} variables"
            )
        rhs = rhs if type(rhs) is _RATIONAL else ratio(rhs)
        constraints.append(Constraint(coeffs, relation, rhs))
    if objective is not None:
        objective = _exact(objective)
        if len(objective) != num_vars:
            raise LPError("objective length does not match num_vars")
    if not constraints:
        raise LPError("a program needs at least one constraint")
    return LinearProgram(num_vars, tuple(constraints), objective, bool(maximize))


# ---------------------------------------------------------------------------
# certificate verification (public, pure substitution)


def check_point(lp: LinearProgram, point, strict_rows=()) -> bool:
    """Does the point satisfy every row, strictly on the listed rows?

    Decided on the program's integer rows: with the point written as P/L
    over one positive denominator, rhs*L - a.P has the sign of the row's
    rational slack rhs - a.x.
    """
    if len(point) != lp.num_vars:
        return False
    scaled, lcm = over_common_denominator(point)
    strict = set(strict_rows)
    for i, (con, (terms, rhs, _)) in enumerate(
        zip(lp.constraints, lp._integer_rows)
    ):
        gap = rhs * lcm
        for j, a in terms:
            gap -= a * scaled[j]
        if con.relation == EQ:
            holds = gap == 0 and i not in strict
        else:
            if con.relation == GE:
                gap = -gap
            holds = gap > 0 if i in strict else gap >= 0
        if not holds:
            return False
    return True


def check_farkas(lp: LinearProgram, mults) -> bool:
    """Nonnegative-combination proof that the weak system is empty.

    Multipliers are indexed by row, nonnegative on inequality rows, free on
    equalities; the combination of oriented rows must cancel every variable
    while the combined rhs is negative, an evident contradiction with
    0 <= 0.
    """
    if len(mults) != len(lp.constraints):
        return False
    combo = [ZERO] * lp.num_vars
    rhs_total = ZERO
    for w, con in zip(mults, lp.constraints):
        if con.relation != EQ and w < 0:
            return False
        coeffs, rhs = con.oriented()
        for j, a in enumerate(coeffs):
            combo[j] += w * a
        rhs_total += w * rhs
    return all(c == 0 for c in combo) and rhs_total < 0


def check_strict_emptiness(lp: LinearProgram, strict_rows, mults) -> bool:
    """Certificate that no point satisfies the system with the listed
    inequality rows strict.

    Same shape as a Farkas certificate, but the combined rhs may reach 0
    provided some strict row carries positive weight: the combination then
    proves sum <= 0 while strictness would force it > 0.
    """
    if len(mults) != len(lp.constraints):
        return False
    strict = set(strict_rows)
    combo = [ZERO] * lp.num_vars
    rhs_total = ZERO
    strict_mass = ZERO
    for i, (w, con) in enumerate(zip(mults, lp.constraints)):
        if con.relation != EQ and w < 0:
            return False
        coeffs, rhs = con.oriented()
        for j, a in enumerate(coeffs):
            combo[j] += w * a
        rhs_total += w * rhs
        if i in strict:
            strict_mass += w
    if any(c != 0 for c in combo):
        return False
    return rhs_total < 0 or (rhs_total <= 0 and strict_mass > 0)


def check_ray(lp: LinearProgram, ray) -> bool:
    """Recession direction along which the objective improves forever."""
    if lp.objective is None or len(ray) != lp.num_vars:
        return False
    if all(r == 0 for r in ray):
        return False
    for con in lp.constraints:
        coeffs, _ = con.oriented()
        drift = _dot(coeffs, ray)
        if con.relation == EQ:
            if drift != 0:
                return False
        elif drift > 0:
            return False
    gain = _dot(lp.objective, ray)
    return gain > 0 if lp.maximize else gain < 0


def check_duals(lp: LinearProgram, mults, optimum) -> bool:
    """Optimality proof: the combination of oriented rows dominates the
    objective and reproduces the optimal value.

    With all variables free, domination degenerates to equality on every
    coordinate.  Stated for the maximisation form; minimisation is checked
    through negation.
    """
    if lp.objective is None or len(mults) != len(lp.constraints):
        return False
    sign = ONE if lp.maximize else -ONE
    target = tuple(sign * c for c in lp.objective)
    combo = [ZERO] * lp.num_vars
    rhs_total = ZERO
    for w, con in zip(mults, lp.constraints):
        if con.relation != EQ and w < 0:
            return False
        coeffs, rhs = con.oriented()
        for j, a in enumerate(coeffs):
            combo[j] += w * a
        rhs_total += w * rhs
    if any(c != t for c, t in zip(combo, target)):
        return False
    return rhs_total == sign * optimum


# ---------------------------------------------------------------------------
# standard form

class _Standard:
    """Split free variables, add slacks, normalise rhs signs.

    Columns 0..2n-1 are the split pairs (x_j = col 2j - col 2j+1), then one
    slack column per inequality row.  Row i of the original program becomes
    sign_i * (row with slack) so the standard rhs is nonnegative; the
    tableau builds these rows from the program's integer rows.
    """

    def __init__(self, lp: LinearProgram):
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
        self.sign = [-1 if rhs < 0 else 1 for _, rhs, _ in lp._integer_rows]

    def objective_min(self):
        """Internal objective (minimisation) over structural columns, one
        (numerator, denominator) pair per column."""
        coeffs = [(0, 1)] * self.nstruct
        sign = -1 if self.lp.maximize else 1
        for j, c in enumerate(self.lp.objective):
            num, den = sign * int(c.numerator), int(c.denominator)
            coeffs[2 * j] = (num, den)
            coeffs[2 * j + 1] = (-num, den)
        return coeffs

    def point_from(self, values):
        return tuple(
            values[2 * j] - values[2 * j + 1] for j in range(self.lp.num_vars)
        )

    def row_mults_from(self, y):
        """Map standard-row multipliers to oriented original-row multipliers.

        For <= and = rows the oriented row equals the original, and the
        multiplier is -sign * y; for >= rows orientation negates once more.
        The identities checked by check_farkas / check_duals hold by
        construction; callers re-verify anyway.
        """
        out = []
        for i, con in enumerate(self.lp.constraints):
            w = -self.sign[i] * y[i]
            if con.relation == GE:
                w = -w
            out.append(w)
        return tuple(out)


class _Tableau:
    """Dense tableau with separate objective row and explicit basis.

    Entries are held as integers: row r stands for rows[r][j] / dens[r],
    and the objective row for obj[j] / obj_den, each denominator positive
    and the row reduced to lowest terms.  Every sign test and ratio
    comparison decides exactly as it would on the rationals themselves.
    """

    def __init__(self, std: _Standard):
        self.std = std
        lp = std.lp
        self.m = len(lp.constraints)
        self.nstruct = std.nstruct
        self.art = [self.nstruct + i for i in range(self.m)]
        self.width = self.nstruct + self.m + 1
        self.rows = []
        self.dens = []
        for i, (con, (terms, rhs, den)) in enumerate(
            zip(lp.constraints, lp._integer_rows)
        ):
            # Row i of the standard form over den: split pairs +-a, slack
            # +-den, rhs, all times sign_i; then artificial i at den.
            sign = std.sign[i]
            row = [0] * self.width
            for j, a in terms:
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
        self.basis = list(self.art)
        self.active = [True] * self.m
        self.obj = [0] * self.width
        self.obj_den = 1

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, prow, pcol, with_obj=True):
        # Dividing the pivot row by its pivot entry keeps its integers and
        # makes |pivot| the denominator.
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
                self.rows[r], self.dens[r] = _eliminate(
                    self.rows[r], self.dens[r], factor, support, piv
                )
        if with_obj:
            factor = self.obj[pcol]
            if factor:
                self.obj, self.obj_den = _eliminate(
                    self.obj, self.obj_den, factor, support, piv
                )
        self.basis[prow] = pcol

    def _optimize(self):
        """Run simplex steps until optimal or unbounded.

        Entering columns are structural only; artificial columns never
        re-enter.  Returns None when optimal, else the entering column
        witnessing unboundedness.
        """
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
            # Ratio rhs/a over rows with a > 0; the row denominator cancels,
            # and the comparison is made by cross-multiplying.
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
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
            self._pivot(prow, pcol)

    def _price(self, cost):
        """Load the objective row with the reduced costs of `cost`, one
        (numerator, denominator) pair per column: cost minus, for every
        active row, the cost of its basic column times the row.  The row
        is built in integers over the lcm of every denominator that
        enters."""
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

    # -- phases -----------------------------------------------------------

    def phase1(self) -> bool:
        # Cost 1 on each artificial; every row starts with its artificial
        # basic.
        self._price([(0, 1)] * self.nstruct + [(1, 1)] * self.m + [(0, 1)])
        escape = self._optimize()
        if escape is not None:
            raise SolverInvariantError("phase one reported unbounded")
        if self.obj[-1] != 0:
            return False
        self._evict_artificials()
        return True

    def phase1_duals(self):
        # Reduced cost of artificial i is 1 - y_i, and the column is e_i.
        den = self.obj_den
        return [int_ratio(den - self.obj[self.art[i]], den) for i in range(self.m)]

    def _evict_artificials(self):
        for r in range(self.m):
            if not self.active[r] or self.basis[r] < self.nstruct:
                continue
            pcol = None
            for j in range(self.nstruct):
                if self.rows[r][j]:
                    pcol = j
                    break
            if pcol is None:
                # Original row was redundant; retire it.
                self.active[r] = False
            else:
                self._pivot(r, pcol, with_obj=False)

    def phase2(self, cost_struct):
        self._price(cost_struct + [(0, 1)] * (self.m + 1))
        return self._optimize()

    # -- extraction -------------------------------------------------------

    def struct_values(self):
        values = [ZERO] * self.nstruct
        for r in range(self.m):
            if self.active[r] and self.basis[r] < self.nstruct:
                values[self.basis[r]] = int_ratio(self.rows[r][-1], self.dens[r])
        return values

    def ray_values(self, pcol):
        direction = [ZERO] * self.nstruct
        direction[pcol] = ONE
        for r in range(self.m):
            if self.active[r] and self.basis[r] < self.nstruct:
                direction[self.basis[r]] = int_ratio(-self.rows[r][pcol], self.dens[r])
        return direction

    def duals(self):
        den = self.obj_den
        return [int_ratio(-self.obj[self.art[i]], den) for i in range(self.m)]


def _eliminate(target, den, factor, support, piv):
    """target/den - (factor/den) * (pivot row/piv) as an integer row over
    den*piv, reduced to lowest terms.

    factor is target's pivot-column entry; support lists the pivot row's
    nonzero entries as (column, value) pairs.
    """
    row = [a * piv for a in target] if piv != 1 else list(target)
    for j, b in support:
        row[j] -= factor * b
    den *= piv
    g = math.gcd(den, *row)
    if g != 1:
        row = [a // g for a in row]
        den //= g
    return row, den


# ---------------------------------------------------------------------------
# public solving interface


def solve(lp: LinearProgram) -> LPOutcome:
    """Decide a weak system, optionally optimising a linear objective.

    Returns FEASIBLE with a point (and, given an objective, its optimal
    value plus verified dual multipliers), INFEASIBLE with a Farkas
    certificate, or UNBOUNDED with an improving ray.
    """
    _validate(lp)
    std = _Standard(lp)
    tab = _Tableau(std)
    if not tab.phase1():
        mults = std.row_mults_from(tab.phase1_duals())
        if not check_farkas(lp, mults):
            raise SolverInvariantError("infeasibility certificate failed")
        return LPOutcome(Status.INFEASIBLE, farkas=mults)
    if lp.objective is None:
        point = std.point_from(tab.struct_values())
        if not check_point(lp, point):
            raise SolverInvariantError("feasible point failed substitution")
        return LPOutcome(Status.FEASIBLE, point=point)
    escape = tab.phase2(std.objective_min())
    if escape is not None:
        ray = std.point_from(tab.ray_values(escape))
        if not check_ray(lp, ray):
            raise SolverInvariantError("unboundedness ray failed substitution")
        return LPOutcome(Status.UNBOUNDED, ray=ray)
    point = std.point_from(tab.struct_values())
    value = _dot(lp.objective, point)
    mults = std.row_mults_from(tab.duals())
    if not check_point(lp, point):
        raise SolverInvariantError("optimal point failed substitution")
    if not check_duals(lp, mults, value):
        raise SolverInvariantError("dual certificate failed substitution")
    return LPOutcome(
        Status.FEASIBLE,
        point=point,
        objective_value=value,
        duals=mults,
    )


def solve_strict(lp: LinearProgram, strict_rows: Sequence[int]) -> LPOutcome:
    """Decide a system with the listed inequality rows required strict.

    FEASIBLE outcomes carry a strictly feasible point and, in
    objective_value, the verified margin by which the strict rows hold.
    INFEASIBLE outcomes carry multipliers accepted by
    check_strict_emptiness.  The margin variable is capped at 1, so the
    auxiliary program is never unbounded.
    """
    _validate(lp)
    strict = sorted(set(strict_rows))
    for i in strict:
        if i < 0 or i >= len(lp.constraints):
            raise LPError(f"strict row {i} out of range")
        if lp.constraints[i].relation == EQ:
            raise LPError(f"strict row {i} is an equality")
    if not strict:
        return solve(lp)
    n = lp.num_vars
    rows = []
    for i, con in enumerate(lp.constraints):
        margin = ZERO
        if i in strict:
            margin = ONE if con.relation == LE else -ONE
        rows.append((con.coeffs + (margin,), con.relation, con.rhs))
    rows.append(((ZERO,) * n + (ONE,), LE, ONE))
    rows.append(((ZERO,) * n + (ONE,), GE, ZERO))
    aux = make_lp(n + 1, rows, objective=(ZERO,) * n + (ONE,), maximize=True)
    out = solve(aux)
    if out.status is Status.UNBOUNDED:
        raise SolverInvariantError("margin program cannot be unbounded")
    nrows = len(lp.constraints)
    if out.status is Status.INFEASIBLE:
        mults = out.farkas[:nrows]
    elif out.objective_value > 0:
        point = out.point[:n]
        if not check_point(lp, point, strict):
            raise SolverInvariantError("strict point failed substitution")
        return LPOutcome(
            Status.FEASIBLE, point=point, objective_value=out.objective_value
        )
    else:
        mults = out.duals[:nrows]
    if not check_strict_emptiness(lp, strict, mults):
        raise SolverInvariantError("strict emptiness certificate failed")
    return LPOutcome(Status.INFEASIBLE, farkas=mults)


def _validate(lp: LinearProgram):
    if not isinstance(lp, LinearProgram):
        raise LPError("expected a LinearProgram")
    if lp.num_vars < 1:
        raise LPError("num_vars must be positive")
    if not lp.constraints:
        raise LPError("a program needs at least one constraint")
    for idx, con in enumerate(lp.constraints):
        if con.relation not in _RELATIONS:
            raise LPError(f"row {idx}: unknown relation {con.relation!r}")
        if len(con.coeffs) != lp.num_vars:
            raise LPError(f"row {idx}: coefficient count mismatch")
    if lp.objective is not None and len(lp.objective) != lp.num_vars:
        raise LPError("objective length does not match num_vars")
