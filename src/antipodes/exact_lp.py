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
free; each is labelled as a pair of nonnegative parts, but the tableau
stores one column per variable, since the second part's column is always
minus the first.  The first row per variable that says x_j >= 0 (one
nonzero coefficient, rhs 0) is not a row of the tableau but the
variable's sign bound: its second part never enters, and the row's
multiplier is read off the variable's final reduced cost.  The other rows
receive slacks, and artificials label the starting basis without being
stored: they never re-enter, and the multipliers they would carry are
recovered from the final basis by one square integer solve, a
Gauss-Jordan pass of the package's one elimination kernel
(`rationals._bareiss`).  Pivoting is Dantzig's rule with a permanent
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

A constraint is an integer row (`Constraint`): its nonzero coefficients
as (column, integer) pairs and an integer rhs, every value standing for
itself over den, the lcm of the row's denominators.  `make_lp` reads each
scalar once to build it, and nothing keeps a rational copy.  The tableau
is built from these rows, and the same rows re-verify every certificate.
`check_point` and `check_ray` clear the vector's denominators to one lcm
L and test signs of integer dot products, the signs the rational ones
have; the multiplier checks (`check_farkas`, `check_strict_emptiness`,
`check_duals`) form the weighted combination of the rows in integers over
one positive scale (`_combination`).

`solve_strict` decides systems in which selected inequality rows must hold
strictly.  It maximises a margin variable bounded by 1, in a margin
program built straight from the integer rows; a positive optimum
yields a strictly feasible point, a zero optimum yields dual multipliers
that certify strict emptiness (a nonnegative combination of the rows that
proves `0 <= rhs` with positive weight on at least one strict row, or
outright weak infeasibility).  A strict sign row x_j > 0 is shifted by the
margin, so that in the margin program it is a sign bound as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .rationals import (
    ONE,
    ZERO,
    _bareiss,
    exact_tuple,
    int_pair,
    int_ratio,
    over_common_denominator,
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
    maximize: bool = True


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


def make_lp(num_vars, rows, objective=None, maximize=True) -> LinearProgram:
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
            num = int(w.numerator)
            if con.relation == GE:
                num = -num
            weights.append((num, int(w.denominator) * con.den, con))
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
    return gain > 0 if lp.maximize else gain < 0


def check_duals(lp: LinearProgram, mults, optimum) -> bool:
    """Optimality proof: the combination of oriented rows dominates the
    objective and reproduces the optimal value.

    With all variables free, domination degenerates to equality on every
    coordinate.  Stated for the maximisation form; minimisation is checked
    through negation.
    """
    if lp.objective is None:
        return False
    combined = _combination(lp, mults)
    if combined is None:
        return False
    combo, total, scale = combined
    sign = 1 if lp.maximize else -1
    for a, c in zip(combo, lp.objective):
        if a * int(c.denominator) != sign * int(c.numerator) * scale:
            return False
    return total * int(optimum.denominator) == sign * int(optimum.numerator) * scale


# ---------------------------------------------------------------------------
# standard form

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


class _Standard:
    """Sign bounds, slacks, rhs signs and column labels of the standard form.

    Each variable is split into two nonnegative parts: labels 2j and 2j+1
    stand for x_j = col 2j - col 2j+1.  The first row per column that says
    x_j >= 0 is that column's sign bound (`bound[j]`, its row index): the
    standard form drops the row, and label 2j+1 never enters, so x_j is
    col 2j alone.  The other rows are kept, tableau row r being program
    row kept[r].  Then comes one slack label per kept inequality row,
    nstruct labels in all, and label nstruct+r is kept row r's artificial.
    Kept row r becomes sign_r * (row with slack) so the standard rhs is
    nonnegative; the tableau builds these rows from the program's rows.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.bound = [None] * lp.num_vars
        self.kept = []
        for i, con in enumerate(lp.constraints):
            j = _sign_column(con)
            if j is not None and self.bound[j] is None:
                self.bound[j] = i
            else:
                self.kept.append(i)
        self.slack_col = []
        ncols = 2 * lp.num_vars
        for i in self.kept:
            if lp.constraints[i].relation == EQ:
                self.slack_col.append(None)
            else:
                self.slack_col.append(ncols)
                ncols += 1
        self.nstruct = ncols
        self.sign = [-1 if lp.constraints[i].rhs < 0 else 1 for i in self.kept]

    def objective_min(self):
        """Internal objective (minimisation), one (numerator, denominator)
        pair per stored tableau column: each x_j's positive part, then the
        slacks."""
        sign = -1 if self.lp.maximize else 1
        coeffs = [
            (sign * int(c.numerator), int(c.denominator)) for c in self.lp.objective
        ]
        return coeffs + [(0, 1)] * (self.nstruct - 2 * self.lp.num_vars)

    def point_from(self, values):
        return tuple(
            values[2 * j] - values[2 * j + 1] for j in range(self.lp.num_vars)
        )

    def row_mults_from(self, y, obj, obj_den):
        """Oriented multipliers of the program's rows, from the standard-row
        multipliers y of the kept rows and the final objective row.

        For <= and = rows the oriented row equals the original, and the
        multiplier is -sign * y; for >= rows orientation negates once more.
        Column j's reduced cost is d_j = c_j - y.A_j; the kept rows combine
        to d_j - c_j on x_j, and the dropped sign row a*x_j >= 0 with
        weight d_j / |a| brings it to -c_j.  d_j is nonnegative at the end
        of either phase, since label 2j did not enter.  The identities
        checked by check_farkas / check_duals hold by construction;
        callers re-verify anyway.
        """
        lp = self.lp
        out = [None] * len(lp.constraints)
        for r, i in enumerate(self.kept):
            w = -self.sign[r] * y[r]
            if lp.constraints[i].relation == GE:
                w = -w
            out[i] = w
        for j, i in enumerate(self.bound):
            if i is not None:
                con = lp.constraints[i]
                ((_, a),) = con.terms
                out[i] = int_ratio(obj[j] * con.den, obj_den * abs(a))
        return tuple(out)


class _Tableau:
    """Dense tableau with separate objective row and explicit basis.

    One row per kept row of the standard form: sign bounds are not rows.
    The basis holds _Standard's labels, but only one column is stored per
    variable.  Row operations keep column 2j+1 equal to minus column 2j
    in every row and in the objective, so stored column j holds label 2j
    and label 2j+1 reads it negated; slack label s is stored at column
    s - n, and the rhs comes last.  Label 2j+1 of a column with a sign
    bound never enters.  Artificial columns are not stored: they never
    re-enter the basis, and the multipliers they would carry follow from
    the final basis (`_duals`).  Pricing, ratio tests and tie-breaks read
    label values, so they decide as the full split tableau would.

    Entries are held as integers: row r stands for rows[r][j] / dens[r],
    and the objective row for obj[j] / obj_den, each denominator positive
    and the row reduced to lowest terms.  Every sign test and ratio
    comparison decides exactly as it would on the rationals themselves.
    """

    def __init__(self, std: _Standard):
        self.std = std
        lp = std.lp
        self.m = len(std.kept)
        self.n = n = lp.num_vars
        self.nstruct = std.nstruct
        self.ncols = std.nstruct - n
        # twin[j]: stored column j also holds an enterable label 2j+1.
        self.twin = [b is None for b in std.bound] + [False] * (self.ncols - n)
        self.rows = []
        self.dens = []
        for r, i in enumerate(std.kept):
            # Kept row r of the standard form over den: a, slack +-den and
            # rhs, all times sign_r.
            con = lp.constraints[i]
            sign = std.sign[r]
            row = [0] * (self.ncols + 1)
            for j, a in con.terms:
                row[j] = sign * a
            if con.relation == LE:
                row[std.slack_col[r] - n] = sign * con.den
            elif con.relation == GE:
                row[std.slack_col[r] - n] = -sign * con.den
            row[-1] = sign * con.rhs
            self.rows.append(row)
            self.dens.append(con.den)
        self.basis = [self.nstruct + r for r in range(self.m)]
        self.active = [True] * self.m
        self.obj = [0] * (self.ncols + 1)
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
        # Cost 1 on each artificial; every row starts with its artificial
        # basic.
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
        y = self._duals([(0, 1)] * self.ncols, 1)
        return self.std.row_mults_from(y, self.obj, self.obj_den)

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

    def phase2(self, cost):
        self.cost = cost
        self._price(cost, 0)
        return self._optimize()

    # -- extraction -------------------------------------------------------

    def struct_values(self):
        values = [ZERO] * self.nstruct
        for r in range(self.m):
            if self.active[r] and self.basis[r] < self.nstruct:
                values[self.basis[r]] = int_ratio(self.rows[r][-1], self.dens[r])
        return values

    def ray_values(self, label):
        direction = [ZERO] * self.nstruct
        direction[label] = ONE
        pcol, sign = self._column(label)
        for r in range(self.m):
            if self.active[r] and self.basis[r] < self.nstruct:
                direction[self.basis[r]] = int_ratio(
                    -sign * self.rows[r][pcol], self.dens[r]
                )
        return direction

    def duals(self):
        """Dual multipliers of the program's rows at a phase two optimum."""
        y = self._duals(self.cost, 0)
        return self.std.row_mults_from(y, self.obj, self.obj_den)

    def _duals(self, cost, art_cost):
        """y = c_B B^-1 for the final basis, one backend rational per
        tableau row.

        Row i never pivoted while its own artificial is basic, so that
        artificial's column is still e_i and y_i is its cost, art_cost.  A
        basic slack of row i is a column +-e_i of cost 0, so y_i = 0.
        Every other y_i is unknown, and there is one basic variable column
        j per unknown: the equations y . A_j = c_j form a square,
        nonsingular system in the kept integer rows, for
        u_i = sign_i * y_i / den_i.  One fraction-free Gauss-Jordan pass of
        the shared kernel `rationals._bareiss` solves it; the system is
        empty when no multiplier is unknown.
        """
        std = self.std
        rows = [std.lp.constraints[i] for i in std.kept]
        basic = {self.basis[r] for r in range(self.m) if self.active[r]}
        known, unknown = [], []
        for i in range(self.m):
            if self.basis[i] == self.nstruct + i:
                known.append(i)
            elif std.slack_col[i] not in basic:
                unknown.append(i)
        columns = sorted(label >> 1 for label in basic if label < 2 * self.n)
        if len(columns) != len(unknown):
            raise SolverInvariantError("the dual system is not square")
        at = {j: e for e, j in enumerate(columns)}
        feeders = known if art_cost else []
        scale = math.lcm(
            *(cost[j][1] for j in columns if cost[j][0]),
            *(rows[i].den for i in feeders),
        )
        system = [[0] * len(unknown) + [0] for _ in columns]
        for e, j in enumerate(columns):
            num, den = cost[j]
            system[e][-1] = num * (scale // den)
        for i in feeders:
            factor = art_cost * std.sign[i] * (scale // rows[i].den)
            for j, a in rows[i].terms:
                e = at.get(j)
                if e is not None:
                    system[e][-1] -= factor * a
        for u, i in enumerate(unknown):
            for j, a in rows[i].terms:
                e = at.get(j)
                if e is not None:
                    system[e][u] = a
        y = [ZERO] * self.m
        for i in feeders:
            y[i] = int_ratio(art_cost, 1)
        # Jordan form [D I | D x]: u_e = system[e][-1] / system[e][e].
        pivots, _ = _bareiss(system, jordan=True)
        if pivots != list(range(len(unknown))):
            raise SolverInvariantError("the dual system is singular")
        for e, i in enumerate(unknown):
            num, den = system[e][-1], system[e][e]
            y[i] = int_ratio(std.sign[i] * rows[i].den * num, den * scale)
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
        mults = tab.phase1_duals()
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
    mults = tab.duals()
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
    # A strict sign row a*x_j > 0 (a > 0 once oriented) says x_j - t/a is
    # nonnegative; with x_j = x'_j + t/a it becomes the sign row a*x'_j >= 0
    # of the margin program, a bound rather than a row.  The change of
    # variables is invertible, so row multipliers carry over unchanged.
    # On the integer row, 1/a is den/|a|; step[j] / scale is 1/a, over one
    # common scale.
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
        # Row i of the margin program over den * scale: the row's terms
        # and rhs times scale, then the margin's coefficient in column n.
        den = con.den * scale
        margin = 0
        if i in strict_set:
            margin = den if con.relation == LE else -den
        terms = []
        for j, a in con.terms:
            if j in step:
                margin += a * step[j]
            terms.append((j, a * scale))
        if margin:
            terms.append((n, margin))
        rhs = con.rhs * scale
        # Dividing out the common factor leaves den the lcm of the row's
        # denominators, as `make_lp` would.
        g = math.gcd(den, rhs, *(a for _, a in terms))
        if g != 1:
            terms = [(j, a // g) for j, a in terms]
            rhs //= g
            den //= g
        rows.append(Constraint(tuple(terms), con.relation, rhs, den))
    rows.append(Constraint(((n, 1),), LE, 1, 1))
    rows.append(Constraint(((n, 1),), GE, 0, 1))
    aux = LinearProgram(n + 1, tuple(rows), (ZERO,) * n + (ONE,), True)
    out = solve(aux)
    if out.status is Status.UNBOUNDED:
        raise SolverInvariantError("margin program cannot be unbounded")
    nrows = len(lp.constraints)
    if out.status is Status.INFEASIBLE:
        mults = out.farkas[:nrows]
    elif out.objective_value > 0:
        t = out.objective_value
        point = list(out.point[:n])
        for j, p in step.items():
            point[j] += int_ratio(p, scale) * t
        point = tuple(point)
        if not check_point(lp, point, strict):
            raise SolverInvariantError("strict point failed substitution")
        return LPOutcome(Status.FEASIBLE, point=point, objective_value=t)
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
        if not con.den > 0:
            raise LPError(f"row {idx}: the denominator must be positive")
        if not all(0 <= j < lp.num_vars for j, _ in con.terms):
            raise LPError(f"row {idx}: a term's column is out of range")
    if lp.objective is not None and len(lp.objective) != lp.num_vars:
        raise LPError("objective length does not match num_vars")
