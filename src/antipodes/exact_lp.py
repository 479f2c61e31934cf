"""Certified linear programming over exact rationals.

Every geometric decision in this package bottoms out in `solve` or
`solve_strict`.  Outcomes never come bare: a feasibility claim carries a
point, an infeasibility claim carries nonnegative combination multipliers,
an unboundedness claim carries an improving ray, and an optimality claim
carries dual multipliers.  All certificates re-verify by direct
substitution (see the check_* helpers), and the solver re-checks its own
output before returning, so a bug in the pivoting can only surface as an
internal error, never as a wrong verdict.

The engine is a dense two-phase primal simplex on rationals.  One object,
`_Tableau`, builds a program's standard form and runs both phases on it.
An objective is always maximised: every program the package builds asks
for a maximum.  Variables are free; each is labelled as a pair of
nonnegative parts, but the tableau stores one column per variable, since
the second part's column is always minus the first.  The first row per
variable that says x_j >= 0 (one nonzero coefficient, rhs 0) is not a
row of the tableau but the variable's sign bound: its second part never
enters, and the row's multiplier is read off the variable's final
reduced cost.  The other rows receive slacks.  The starting basis is a
slack ("crash") basis (Bixby 1992): a row whose slack has coefficient +1
once its rhs is made nonnegative (a <= row with rhs >= 0, a >= row with
rhs <= 0, negated) starts with that slack basic, and only the other rows
start with an artificial.  Artificials are not stored, since they never
re-enter; phase one prices only those that start basic and is skipped
when there are none.  An inequality row's multiplier is then its slack's
final reduced cost; only the equality rows whose artificial left the
basis are solved for, in one Gauss-Jordan pass of the package's one
elimination kernel (`rationals._bareiss`) over the basic variable
columns.  Pivoting is Dantzig's rule with a permanent switch to Bland's
rule after a run of degenerate steps, which keeps the solver fast on
typical inputs and terminating on all of them.  The whole pipeline is
deterministic: identical programs produce identical outcomes,
certificates included.

The tableau stores each row as Python ints over one positive denominator
of its own, the objective row likewise (fraction-free pivoting in the
manner of Bareiss).  A pivot rescales every touched row by the pivot entry,
cancels the pivot column and divides out the gcd of the row and its
denominator; signs are read off numerators and ratio tests cross-multiply,
so every decision is the one the rationals themselves give.  Values return
to Fractions only when a point, ray or multiplier vector is read out.

A constraint is an integer row (`Constraint`): its nonzero coefficients
as (column, integer) pairs and an integer rhs, every value standing for
itself over den, the lcm of the row's denominators.  `make_lp` reads each
scalar once to build it, `integer_row` builds it from integers (as the
weight programs of `geometry.member` and the shrunk copies do), and
nothing keeps a rational copy.  The tableau
is built from these rows, and the same rows re-verify every certificate.
`check_point` and `check_ray` clear the vector's denominators to one lcm
L and test signs of integer dot products, the signs the rational ones
have; the multiplier checks (`check_farkas`, `check_strict_emptiness`,
`check_duals`) form the weighted combination of the rows in integers over
one positive scale (`_combination`).

`solve_strict` decides systems in which selected inequality rows must hold
strictly, in one phase, through their cone form (Motzkin's transposition
theorem; Schrijver 1986, Ch. 7).  With x = y / tau and tau >= 1, a row
a.x (rel) b becomes a.y - b tau (rel) 0, and a strict one must hold by one
unit: a.y - b tau <= -1 for a <= row.  Scaling a strict point by a large
tau solves this, and any solution gives the strict point y / tau, which is
checked and returned.  The program has no objective, so `_two_phase` runs
phase one only.  When it is infeasible, its Farkas multipliers u, cut to
the program's rows, certify strict emptiness.  Cancelling the tau column
gives sum u_i b_i = -v, v >= 0 being the weight on tau >= 1, and the
combination's own rhs, -v minus the strict rows' weight, is negative.  So
either sum u_i b_i < 0 (the weak system is empty), or it is 0, v = 0,
and some strict row has positive weight.  A strict sign row x_j > 0 is
shifted by its unit, and tau by 1, so that both are sign bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .rationals import (
    ONE,
    ZERO,
    _bareiss,
    exact_tuple,
    int_pair,
    over_common_denominator,
    vdot,
)

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)

# Consecutive degenerate pivots tolerated before switching to Bland's rule.
_STALL_LIMIT = 24


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
    """One row, sum of a * x_j over terms (relation) rhs, each value
    standing for itself over den: terms holds the nonzero coefficients as
    (column, int) pairs in column order, rhs is an int, and den > 0 is the
    lcm of the row's denominators."""

    terms: tuple
    relation: str
    rhs: int
    den: int


@dataclass(frozen=True)
class LinearProgram:
    num_vars: int
    constraints: tuple
    objective: Optional[tuple] = None


@dataclass(frozen=True)
class LPOutcome:
    status: Status
    point: Optional[tuple] = None
    objective_value: Optional[object] = None
    farkas: Optional[tuple] = None
    ray: Optional[tuple] = None
    duals: Optional[tuple] = None


def integer_row(terms, relation, rhs, den) -> Constraint:
    """The row sum of a * x_j over terms (relation) rhs, every value over
    den > 0, in lowest terms: zero coefficients dropped, and den, rhs and
    the coefficients divided by their gcd.  den is then the lcm of the
    row's denominators, so this is the row `make_lp` builds from the same
    rationals.  terms must be in column order."""
    terms = [(j, a) for j, a in terms if a]
    g = math.gcd(den, rhs, *(a for _, a in terms))
    if g != 1:
        terms = [(j, a // g) for j, a in terms]
        rhs //= g
        den //= g
    return Constraint(tuple(terms), relation, rhs, den)


def make_lp(num_vars, rows, objective=None) -> LinearProgram:
    """Validating constructor; accepts ints, 'p/q' strings and rationals as
    scalars.  Each row is given dense, (coeffs, relation, rhs), and each of
    its scalars is read once into the row's integers."""
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
        pairs = [int_pair(a) for a in coeffs]
        if len(pairs) != num_vars:
            raise LPError(
                f"row {idx}: {len(pairs)} coefficients for {num_vars} variables"
            )
        rhs, rhs_den = int_pair(rhs)
        den = math.lcm(rhs_den, *(q for p, q in pairs if p))
        terms = tuple((j, p * (den // q)) for j, (p, q) in enumerate(pairs) if p)
        constraints.append(Constraint(terms, relation, rhs * (den // rhs_den), den))
    if objective is not None:
        objective = exact_tuple(objective)
        if len(objective) != num_vars:
            raise LPError("objective length does not match num_vars")
    if not constraints:
        raise LPError("a program needs at least one constraint")
    return LinearProgram(num_vars, tuple(constraints), objective)


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
    for i, con in enumerate(lp.constraints):
        gap = con.rhs * lcm
        for j, a in con.terms:
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


def _combination(lp: LinearProgram, mults):
    """The combination of oriented rows (>= rows negated) that `mults`
    weights, on the program's integer rows.

    Returns (combo, rhs, scale): the combined coefficients, one per
    variable, and the combined rhs, all multiplied by one positive
    integer scale; or None when mults has the wrong length or puts a
    negative weight on an inequality row.  Row i enters with weight
    mults[i] / den_i, so scale is the lcm of those weights' denominators.
    """
    if len(mults) != len(lp.constraints):
        return None
    weights = []
    for w, con in zip(mults, lp.constraints):
        if con.relation != EQ and w < 0:
            return None
        if w:
            num = w.numerator
            if con.relation == GE:
                num = -num
            weights.append((num, w.denominator * con.den, con))
    scale = math.lcm(*(d for _, d, _ in weights))
    combo = [0] * lp.num_vars
    total = 0
    for num, d, con in weights:
        factor = num * (scale // d)
        for j, a in con.terms:
            combo[j] += factor * a
        total += factor * con.rhs
    return combo, total, scale


def check_farkas(lp: LinearProgram, mults) -> bool:
    """Nonnegative-combination proof that the weak system is empty.

    Multipliers are indexed by row, nonnegative on inequality rows, free on
    equalities; the combination of oriented rows must cancel every variable
    while the combined rhs is negative, an evident contradiction with
    0 <= 0.
    """
    combined = _combination(lp, mults)
    if combined is None:
        return False
    combo, total, _ = combined
    return not any(combo) and total < 0


def check_strict_emptiness(lp: LinearProgram, strict_rows, mults) -> bool:
    """Certificate that no point satisfies the system with the listed
    inequality rows strict.

    Same shape as a Farkas certificate, but the combined rhs may reach 0
    provided some strict row carries positive weight: the combination then
    proves sum <= 0 while strictness would force it > 0.
    """
    combined = _combination(lp, mults)
    if combined is None:
        return False
    combo, total, _ = combined
    if any(combo):
        return False
    strict = set(strict_rows)
    strict_mass = sum((w for i, w in enumerate(mults) if i in strict), ZERO)
    return total < 0 or (total == 0 and strict_mass > 0)


def check_ray(lp: LinearProgram, ray) -> bool:
    """Recession direction along which the objective improves forever.

    Decided on the program's integer rows, with the ray cleared to
    integers over one positive denominator."""
    if lp.objective is None or len(ray) != lp.num_vars:
        return False
    scaled, _ = over_common_denominator(ray)
    if not any(scaled):
        return False
    for con in lp.constraints:
        drift = 0
        for j, a in con.terms:
            drift += a * scaled[j]
        if con.relation == GE:
            drift = -drift
        if drift > 0 or (drift and con.relation == EQ):
            return False
    costs, _ = over_common_denominator(lp.objective)
    gain = sum(c * r for c, r in zip(costs, scaled))
    return gain > 0


def check_duals(lp: LinearProgram, mults, optimum) -> bool:
    """Optimality proof: the combination of oriented rows dominates the
    objective and reproduces the optimal value.

    With all variables free, domination degenerates to equality on every
    coordinate.
    """
    if lp.objective is None:
        return False
    combined = _combination(lp, mults)
    if combined is None:
        return False
    combo, total, scale = combined
    for a, c in zip(combo, lp.objective):
        if a * c.denominator != c.numerator * scale:
            return False
    return total * optimum.denominator == optimum.numerator * scale


# ---------------------------------------------------------------------------
# the tableau

def _sign_column(con: Constraint):
    """The column j when the row says x_j >= 0 (one nonzero coefficient,
    rhs 0, `>=` with a positive coefficient or `<=` with a negative one),
    else None."""
    if con.rhs or len(con.terms) != 1:
        return None
    ((j, a),) = con.terms
    if con.relation == GE and a > 0 or con.relation == LE and a < 0:
        return j
    return None


class _Tableau:
    """Dense tableau of a program's standard form, with a separate
    objective row and an explicit basis.

    Each variable is split into two nonnegative parts: labels 2j and 2j+1
    stand for x_j = col 2j - col 2j+1.  The first row per column that says
    x_j >= 0 is that column's sign bound (`bound[j]`, its row index): it is
    not a tableau row, and label 2j+1 never enters, so x_j is col 2j alone.
    The other rows are kept, tableau row r being program row kept[r].  Then
    comes one slack label per kept inequality row, nstruct labels in all,
    and label nstruct+r is kept row r's artificial.  Kept row r is stored
    as sign_r * (row with slack), so that its rhs is nonnegative, and a >=
    row with rhs 0 is negated as well.  crash[r] says that the slack then
    has coefficient +1, so the row can start with its slack basic.

    Only one column is stored per variable.  Row operations keep column
    2j+1 equal to minus column 2j in every row and in the objective, so
    stored column j holds label 2j and label 2j+1 reads it negated; slack
    label s is stored at column s - n (`slack[r]` for kept row r), and the
    rhs comes last.  Artificial columns are not stored: they never
    re-enter the basis, and the multipliers they would carry follow from
    the final basis (`_duals`).  Pricing, ratio tests and tie-breaks read
    label values, so they decide as the full split tableau would.

    Entries are held as integers: row r stands for rows[r][j] / dens[r],
    and the objective row for obj[j] / obj_den, each denominator positive
    and the row reduced to lowest terms.  Every sign test and ratio
    comparison decides exactly as it would on the rationals themselves.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.n = n = lp.num_vars
        self.bound = [None] * n
        self.kept = []
        self.slack = []
        self.sign = []
        self.crash = []
        self.dens = []
        rows = []
        ncols = n
        for i, con in enumerate(lp.constraints):
            j = _sign_column(con)
            if j is not None and self.bound[j] is None:
                self.bound[j] = i
                continue
            self.kept.append(i)
            negate = con.rhs < 0 or con.rhs == 0 and con.relation == GE
            sign = -1 if negate else 1
            # Kept row over den: a, then a slack +-den in a column of its
            # own, all times sign; the rhs joins once the width is known.
            row = [0] * ncols
            for j, a in con.terms:
                row[j] = sign * a
            if con.relation == EQ:
                self.slack.append(None)
            else:
                self.slack.append(ncols)
                row.append(sign * con.den if con.relation == LE else -sign * con.den)
                ncols += 1
            rows.append((row, sign * con.rhs))
            self.sign.append(sign)
            # The slack has coefficient +1 in a <= row kept as it is and
            # in a >= row negated.
            self.crash.append(con.relation == (GE if negate else LE))
            self.dens.append(con.den)
        self.m = len(self.kept)
        self.ncols = ncols
        self.nstruct = n + ncols
        self.rows = [row + [0] * (ncols - len(row)) + [rhs] for row, rhs in rows]
        # twin[j]: stored column j also holds an enterable label 2j+1.
        self.twin = [b is None for b in self.bound] + [False] * (ncols - n)
        # Crash basis: a row whose slack has coefficient +1 starts with
        # that slack basic, every other row with its artificial.
        self.basis = [
            s + n if crash else self.nstruct + r
            for r, (s, crash) in enumerate(zip(self.slack, self.crash))
        ]
        self.active = [True] * self.m
        self.obj = [0] * (ncols + 1)
        self.obj_den = 1
        self.cost = None

    def _column(self, label):
        """The stored column of a structural label, and the sign that
        turns the stored entries into the label's."""
        if label < 2 * self.n:
            return label >> 1, -1 if label & 1 else 1
        return label - self.n, 1

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, prow, label, with_obj=True):
        # Dividing the pivot row by its pivot entry keeps its integers and
        # makes |pivot| the denominator.
        pcol, sign = self._column(label)
        row = self.rows[prow]
        piv = sign * row[pcol]
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
                    self.rows[r], self.dens[r], sign * factor, support, piv
                )
        if with_obj:
            factor = self.obj[pcol]
            if factor:
                self.obj, self.obj_den = _eliminate(
                    self.obj, self.obj_den, sign * factor, support, piv
                )
        self.basis[prow] = label

    def _optimize(self):
        """Run simplex steps until optimal or unbounded.

        Entering labels are structural only; artificials never re-enter,
        and neither does label 2j+1 of a column with a sign bound.
        Returns None when optimal, else the entering label witnessing
        unboundedness.  A free variable's two labels sit side by side and
        at most one of them has a negative reduced cost, so scanning the
        stored columns meets the labels in label order.
        """
        n = self.n
        twin = self.twin
        stall = 0
        bland = False
        while True:
            obj = self.obj
            pcol = None
            if bland:
                for j in range(self.ncols):
                    v = obj[j]
                    if v < 0 or (v and twin[j]):
                        pcol = j
                        break
            else:
                best = 0
                for j in range(self.ncols):
                    v = obj[j]
                    if v > 0 and twin[j]:
                        v = -v
                    if v < best:
                        best = v
                        pcol = j
            if pcol is None:
                return None
            if pcol >= n:
                label, sign = pcol + n, 1
            elif obj[pcol] < 0:
                label, sign = 2 * pcol, 1
            else:
                label, sign = 2 * pcol + 1, -1
            # Ratio rhs/a over rows with a > 0; the row denominator cancels,
            # and the comparison is made by cross-multiplying.
            prow = None
            best_rhs = best_a = None
            for r in range(self.m):
                if not self.active[r]:
                    continue
                row = self.rows[r]
                a = sign * row[pcol]
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
                return label
            if best_rhs == 0:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
            self._pivot(prow, label)

    def _price(self, cost, art_cost):
        """Load the objective row with the reduced costs of `cost`, one
        (numerator, denominator) pair per stored column, each artificial
        costing the integer art_cost: cost minus, for every active row,
        the cost of its basic label times the row.  The row is built in
        integers over the lcm of every denominator that enters."""
        terms = []
        for r in range(self.m):
            if not self.active[r]:
                continue
            label = self.basis[r]
            if label >= self.nstruct:
                num, d = art_cost, 1
            else:
                col, sign = self._column(label)
                num, d = cost[col]
                num *= sign
            if num:
                terms.append((num, d * self.dens[r], self.rows[r]))
        den = math.lcm(*(d for num, d in cost if num), *(d for _, d, _ in terms))
        obj = [num * (den // d) for num, d in cost] + [0]
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
        # Cost 1 on each basic artificial; with none, the crash basis is
        # already feasible.
        if all(label < self.nstruct for label in self.basis):
            return True
        self._price([(0, 1)] * self.ncols, 1)
        escape = self._optimize()
        if escape is not None:
            raise SolverInvariantError("phase one reported unbounded")
        if self.obj[-1] != 0:
            return False
        self._evict_artificials()
        return True

    def phase1_duals(self):
        """Farkas multipliers of the program's rows at a positive phase
        one optimum."""
        return self._row_mults(self._duals([(0, 1)] * self.ncols, 1))

    def _evict_artificials(self):
        for r in range(self.m):
            if not self.active[r] or self.basis[r] < self.nstruct:
                continue
            row = self.rows[r]
            pcol = None
            for j in range(self.ncols):
                if row[j]:
                    pcol = j
                    break
            if pcol is None:
                # Original row was redundant; retire it.
                self.active[r] = False
            else:
                # The first nonzero label is 2j for a column j.
                label = 2 * pcol if pcol < self.n else pcol + self.n
                self._pivot(r, label, with_obj=False)

    def phase2(self):
        """Optimise the program's objective.  The tableau minimises, so
        each x_j's positive part costs -c_j and the slacks cost nothing."""
        self.cost = [
            (-c.numerator, c.denominator) for c in self.lp.objective
        ] + [(0, 1)] * (self.ncols - self.n)
        self._price(self.cost, 0)
        return self._optimize()

    # -- extraction -------------------------------------------------------

    def _split(self, values):
        """The program's variables from (label, value) pairs: x_j is the
        value of label 2j, or minus that of label 2j+1; at most one of the
        two is listed, and slack and artificial labels are skipped."""
        x = [ZERO] * self.n
        for label, value in values:
            if label < 2 * self.n:
                x[label >> 1] = -value if label & 1 else value
        return tuple(x)

    def point(self):
        """The basic solution."""
        return self._split(
            (self.basis[r], Fraction(self.rows[r][-1], self.dens[r]))
            for r in range(self.m)
            if self.active[r]
        )

    def ray(self, label):
        """The direction along which the entering `label` grows without
        a leaving row."""
        pcol, sign = self._column(label)
        return self._split(
            [(label, ONE)]
            + [
                (self.basis[r], Fraction(-sign * self.rows[r][pcol], self.dens[r]))
                for r in range(self.m)
                if self.active[r]
            ]
        )

    def duals(self):
        """Dual multipliers of the program's rows at a phase two optimum."""
        return self._row_mults(self._duals(self.cost, 0))

    def _row_mults(self, y):
        """Oriented multipliers of the program's rows, from the multipliers
        y of the kept rows and the final objective row.

        For <= and = rows the oriented row equals the original, and the
        multiplier is -sign * y; for >= rows orientation negates once more.
        Column j's reduced cost is d_j = c_j - y.A_j; the kept rows combine
        to d_j - c_j on x_j, and the sign bound a*x_j >= 0 with weight
        d_j / |a| brings it to -c_j.  d_j is nonnegative at the end of
        either phase, since label 2j did not enter.  The identities
        checked by check_farkas / check_duals hold by construction;
        callers re-verify anyway.
        """
        constraints = self.lp.constraints
        out = [None] * len(constraints)
        for r, i in enumerate(self.kept):
            w = -self.sign[r] * y[r]
            if constraints[i].relation == GE:
                w = -w
            out[i] = w
        for j, i in enumerate(self.bound):
            if i is not None:
                con = constraints[i]
                ((_, a),) = con.terms
                out[i] = Fraction(self.obj[j] * con.den, self.obj_den * abs(a))
        return tuple(out)

    def _duals(self, cost, art_cost):
        """y = c_B B^-1 for the final basis, one Fraction per tableau row.

        An inequality row's slack has the column sigma_r e_r, sigma_r the
        sign of its coefficient once the row is oriented, and cost 0, so
        its final reduced cost obj[s] / obj_den is -sigma_r y_r: y_r is
        read off the objective row, and is 0 when the slack is basic.  An
        equality row whose own artificial is basic never pivoted, that
        artificial's column is still e_r, and y_r is its cost, art_cost.
        The other equality rows are the unknowns.  Each basic variable
        column j gives y . A_j = c_j; in u_r = sign_r * y_r / den_r on the
        kept integer rows these equations are consistent, with exactly
        one solution, and one fraction-free Gauss-Jordan pass of the
        shared kernel `rationals._bareiss` solves them.
        """
        n = self.n
        rows = [self.lp.constraints[i] for i in self.kept]
        y = [None] * self.m
        # Known u_r, as (numerator, denominator) pairs.
        known = []
        unknown = []
        for r, con in enumerate(rows):
            s = self.slack[r]
            if s is not None:
                d = self.obj[s]
                oriented = self.sign[r] if con.relation == LE else -self.sign[r]
                y[r] = Fraction(-oriented * d, self.obj_den)
                if d:
                    # u_r = -sign_r sigma_r d / (obj_den den_r), and
                    # sign_r sigma_r is +1 on a <= row, -1 on a >= row.
                    num = -d if con.relation == LE else d
                    known.append((r, num, self.obj_den * con.den))
            elif self.basis[r] == self.nstruct + r:
                y[r] = Fraction(art_cost, 1)
                if art_cost:
                    known.append((r, self.sign[r] * art_cost, con.den))
            else:
                unknown.append(r)
        if not unknown:
            return y
        columns = sorted(
            self.basis[r] >> 1
            for r in range(self.m)
            if self.active[r] and self.basis[r] < 2 * n
        )
        at = {j: e for e, j in enumerate(columns)}
        scale = math.lcm(
            *(cost[j][1] for j in columns if cost[j][0]),
            *(den for _, _, den in known),
        )
        system = [[0] * len(unknown) + [0] for _ in columns]
        for e, j in enumerate(columns):
            num, den = cost[j]
            system[e][-1] = num * (scale // den)
        for r, num, den in known:
            factor = num * (scale // den)
            for j, a in rows[r].terms:
                e = at.get(j)
                if e is not None:
                    system[e][-1] -= factor * a
        for u, r in enumerate(unknown):
            for j, a in rows[r].terms:
                e = at.get(j)
                if e is not None:
                    system[e][u] = a
        # Jordan form [D I | D u] above rows of zeros; a pivot on the rhs
        # column would mean the equations are inconsistent.
        pivots, _ = _bareiss(system, jordan=True)
        if pivots != list(range(len(unknown))):
            raise SolverInvariantError("the dual system has no unique solution")
        for e, r in enumerate(unknown):
            num, den = system[e][-1], system[e][e]
            y[r] = Fraction(self.sign[r] * rows[r].den * num, den * scale)
        return y


def _eliminate(target, den, factor, support, piv):
    """target/den - (factor/den) * (pivot row/piv) as an integer row over
    den*piv, reduced to lowest terms.

    factor is target's entry in the pivot label's column; support lists
    the pivot row's nonzero entries as (column, value) pairs.
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


def _two_phase(lp: LinearProgram):
    """Both phases of the simplex on a validated program.

    Returns (outcome, tableau).  Every certificate in the outcome is
    checked.  An optimum comes without its dual multipliers: the caller
    that wants them reads them off the returned tableau (`_with_duals`).
    """
    tab = _Tableau(lp)
    if not tab.phase1():
        mults = tab.phase1_duals()
        if not check_farkas(lp, mults):
            raise SolverInvariantError("infeasibility certificate failed")
        return LPOutcome(Status.INFEASIBLE, farkas=mults), tab
    if lp.objective is None:
        point = tab.point()
        if not check_point(lp, point):
            raise SolverInvariantError("feasible point failed substitution")
        return LPOutcome(Status.FEASIBLE, point=point), tab
    escape = tab.phase2()
    if escape is not None:
        ray = tab.ray(escape)
        if not check_ray(lp, ray):
            raise SolverInvariantError("unboundedness ray failed substitution")
        return LPOutcome(Status.UNBOUNDED, ray=ray), tab
    point = tab.point()
    if not check_point(lp, point):
        raise SolverInvariantError("optimal point failed substitution")
    return LPOutcome(
        Status.FEASIBLE, point=point, objective_value=vdot(lp.objective, point)
    ), tab


def _with_duals(lp: LinearProgram, out: LPOutcome, tab: _Tableau) -> LPOutcome:
    """The optimum `out` of `_two_phase` with its verified duals."""
    mults = tab.duals()
    if not check_duals(lp, mults, out.objective_value):
        raise SolverInvariantError("dual certificate failed substitution")
    return replace(out, duals=mults)


def solve(lp: LinearProgram) -> LPOutcome:
    """Decide a weak system, optionally maximising a linear objective.

    Returns FEASIBLE with a point (and, given an objective, its optimal
    value plus verified dual multipliers), INFEASIBLE with a Farkas
    certificate, or UNBOUNDED with an improving ray.
    """
    _validate(lp)
    out, tab = _two_phase(lp)
    if out.objective_value is None:
        return out
    return _with_duals(lp, out, tab)


def solve_strict(lp: LinearProgram, strict_rows: Sequence[int]) -> LPOutcome:
    """Decide a system with the listed inequality rows required strict.

    The homogenised system of the module docstring is decided by phase
    one alone.  FEASIBLE outcomes carry a strictly feasible point and no
    objective_value: an objective of lp plays no part.  INFEASIBLE
    outcomes carry the phase-one Farkas multipliers cut to lp's rows,
    accepted by check_strict_emptiness.  Either certificate is checked
    before it is returned.  With no strict row this is `solve`.
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
    # With x = y / tau, a strict sign row a*x_j > 0 (a > 0 once oriented)
    # holds by one unit as a*y_j >= den; with y_j = y'_j + den/a it is the
    # sign row a*y'_j >= 0, a bound rather than a row, as tau' >= 0 is for
    # tau = tau' + 1.  The changes of variables are invertible, so row
    # multipliers carry over unchanged.  step[j] / scale is den/|a|, over
    # one common scale.
    shift = {}
    for i in strict:
        con = lp.constraints[i]
        j = _sign_column(con)
        if j is not None and j not in shift:
            shift[j] = (con.den, abs(con.terms[0][1]))
    scale = math.lcm(*(q for _, q in shift.values()))
    step = {j: p * (scale // q) for j, (p, q) in shift.items()}
    strict_set = set(strict)
    rows = []
    for i, con in enumerate(lp.constraints):
        # a.y - b*tau (rel) unit over den, times scale, in y' and tau'
        # (column n); the unit is -den on a strict <= row, den on a
        # strict >= row, else 0.
        unit = 0
        if i in strict_set:
            unit = -con.den if con.relation == LE else con.den
        rhs = (unit + con.rhs) * scale
        rhs -= sum(a * step[j] for j, a in con.terms if j in step)
        terms = [(j, a * scale) for j, a in con.terms] + [(n, -con.rhs * scale)]
        rows.append(integer_row(terms, con.relation, rhs, con.den * scale))
    rows.append(Constraint(((n, 1),), GE, 0, 1))
    out, _ = _two_phase(LinearProgram(n + 1, tuple(rows)))
    if out.status is Status.INFEASIBLE:
        mults = out.farkas[: len(lp.constraints)]
        if not check_strict_emptiness(lp, strict, mults):
            raise SolverInvariantError("strict emptiness certificate failed")
        return LPOutcome(Status.INFEASIBLE, farkas=mults)
    y, tau = list(out.point[:n]), out.point[n] + 1
    for j, p in step.items():
        y[j] += Fraction(p, scale)
    point = tuple(v / tau for v in y)
    if not check_point(lp, point, strict):
        raise SolverInvariantError("strict point failed substitution")
    return LPOutcome(Status.FEASIBLE, point=point)


def relative_interior(lp: LinearProgram, point) -> tuple:
    """From a feasible point, one at which the only tight inequality rows
    are those tight on the whole feasible set (Freund, Roundy & Todd 1985).

    The rows tight at the point get a slack t_r in [0, 1], in units of the
    row's largest coefficient.  With x = point + z / theta and theta >= 1,
    row a.x (rel) b becomes a.z + (a.point - b) theta (rel) 0, loosened by
    t_r when tight.  One `solve` maximises the sum of the t_r, so x
    loosens every row that some feasible point loosens (the optimum is
    dual-checked), and the returned point + z / (2 theta) also keeps loose
    the rows loose at the point.  z = 0 starts one pivot from feasible.
    A point at which no row is tight is returned as it is.
    """
    _validate(lp)
    if not check_point(lp, point):
        raise LPError("the anchor point is not feasible")
    n = lp.num_vars
    scaled, lcm = over_common_denominator(point)
    rows, t = [], n + 1
    for con in lp.constraints:
        gap = con.rhs * lcm - sum(a * scaled[j] for j, a in con.terms)
        terms = [(j, a * lcm) for j, a in con.terms]
        if gap or con.relation == EQ:
            terms.append((n, -gap))
        else:
            unit = lcm * max((abs(a) for _, a in con.terms), default=0)
            terms.append((t, unit if con.relation == LE else -unit))
            t += 1
        rows.append(integer_row(terms, con.relation, 0, con.den * lcm))
    if t == n + 1:
        return tuple(point)
    rows.append(Constraint(((n, 1),), GE, 1, 1))
    for j in range(n + 1, t):
        rows += [Constraint(((j, 1),), GE, 0, 1), Constraint(((j, 1),), LE, 1, 1)]
    out = solve(LinearProgram(t, tuple(rows), (ZERO,) * (n + 1) + (ONE,) * (t - n - 1)))
    theta = 2 * out.point[n]
    inner = tuple(x + z / theta for x, z in zip(point, out.point[:n]))
    if not check_point(lp, inner):
        raise SolverInvariantError("relative-interior point failed substitution")
    return inner


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
        if not con.den > 0:
            raise LPError(f"row {idx}: the denominator must be positive")
        if not all(0 <= j < lp.num_vars for j, _ in con.terms):
            raise LPError(f"row {idx}: a term's column is out of range")
    if lp.objective is not None and len(lp.objective) != lp.num_vars:
        raise LPError("objective length does not match num_vars")
