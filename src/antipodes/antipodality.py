"""Joint antipodality of point tuples and rank-k antipodality of sets.

A (k+1)-tuple of points chosen from a finite set X is jointly antipodal
when some affine map carries conv(X) into the standard probability simplex
on k+1 outcomes while sending the chosen points to the simplex vertices.
X is antipodal of rank k when every (k+1)-subset is jointly antipodal.

Two independent decision routes are implemented and kept separate:

* the direct route searches for the affine map itself;
* the shrunk route dilates conv(X) toward each chosen point with factors
  in (0, 1) summing to k and decides whether the relative interiors of the
  k+1 shrunk copies share a point.

The routes agree on every input: empty intersection holds exactly when
the map exists.  Either way the caller gets a self-contained certificate.
A positive answer carries the map, checkable by substitution.  It comes
from the presolved map program of `geometry.simplex_map_lp`, which keeps
only the k(r - k) map entries the pins leave free, r being the affine
rank of X; when k = r there are none, and the signs of barycentric
coordinates decide.  A negative answer carries a witness point lying in
all k+1 closed shrunk copies for factors summing to strictly less than
k, a configuration that is impossible for jointly antipodal tuples.
The shrunk-copy program (`_copies_lp`) keeps only the weights each copy
puts on the points other than its centre, and the common point is copy
0's point substituted into the other copies, so its variables are
(k+1)(n-1) weights under k d equality rows built straight from the set's
cleared integers.  The witness is copy 0's point; each copy's weights,
times its factor, sum to the copy's reduced factor.  Its self-check
substitutes those weights in integers, with no LP (`_witness_holds`);
checking the certificate on its own (`verify_joint_certificate`, the
`--verify` replay) needs convex hull membership.

Exhaustive rank checks count their subsets first and refuse more than
EXHAUSTIVE_LIMIT of them before the set's affine rank is computed.

Also provided: a projection-based variant that asks every point to
project orthogonally into the chosen closed simplex, decided on the signs
of integer projection coordinates, and a strict variant that forbids the
remaining points from landing on simplex vertices, decided on the integer
images of one map per subset, moved into the relative interior of the
certifying maps by one more program when it has a coincidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional

from .exact_lp import (
    EQ,
    GE,
    LE,
    Constraint,
    LinearProgram,
    Status,
    integer_row,
    relative_interior,
    solve_strict,
)
from .geometry import (
    AffineMap,
    PointSet,
    affine_rank,
    affine_symmetry,
    decode_map,
    member,
    outside_simplex,
    projection_coordinates,
    simplex_map_lp,
)
from .rationals import ZERO, int_pair, over_common_denominator, ratio

#: Exhaustive rank checks refuse beyond this many subsets; ask for
#: sampling instead.
EXHAUSTIVE_LIMIT = 100_000


class AntipodalityError(ValueError):
    """Bad queries: index problems, factor problems, size problems."""


class CertificateError(RuntimeError):
    """A constructed certificate failed its own re-verification."""


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class AntipodalityCertificate:
    """Outcome of a joint antipodality query on chosen indices into X.

    antipodal=True carries `mapping` with mapping(q_j) = e_j and
    mapping(x) in the simplex for all x in X.  antipodal=False carries
    `witness` and per-point `shrink_factors` in (0,1) summing to < k such
    that the witness lies in every closed copy of conv(X) shrunk toward
    the respective chosen point; jointly antipodal tuples admit no such
    point.
    """

    antipodal: bool
    chosen: tuple
    mapping: Optional[AffineMap] = None
    witness: Optional[tuple] = None
    shrink_factors: Optional[tuple] = None


@dataclass(frozen=True)
class RankReport:
    rank: int
    antipodal: bool
    subsets_checked: int
    exhaustive: bool
    failing: Optional[AntipodalityCertificate] = None

    @property
    def failing_subset(self):
        return None if self.failing is None else self.failing.chosen


@dataclass(frozen=True)
class ProjectionReport:
    """Projection criterion: every point of X must project into the
    simplex of each chosen (k+1)-tuple, orthogonally onto its hull."""

    rank: int
    holds: bool
    failing_subset: Optional[tuple] = None
    offender: Optional[int] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class StrictReport:
    """Strict variant: beyond joint antipodality of each (k+1)-subset,
    some certifying map must keep every other point of X off the simplex
    vertices.  `forced_pair` names (point index, vertex position) when a
    coincidence is unavoidable."""

    rank: int
    strict: bool
    subsets_checked: int
    failing_subset: Optional[tuple] = None
    cause: Optional[str] = None
    forced_pair: Optional[tuple] = None
    failing_certificate: Optional[AntipodalityCertificate] = None
    evidence: tuple = ()


# ---------------------------------------------------------------------------
# shared validation


def _validate_chosen(X: PointSet, chosen) -> tuple:
    chosen = tuple(chosen)
    if len(chosen) < 2:
        raise AntipodalityError("need at least two chosen indices")
    if len(set(chosen)) != len(chosen):
        raise AntipodalityError("chosen indices must be distinct")
    for i in chosen:
        if not isinstance(i, int) or not 0 <= i < len(X):
            raise AntipodalityError(f"index {i!r} out of range for the set")
    return chosen


def default_factors(k: int) -> tuple:
    """The symmetric choice k/(k+1) for each of the k+1 points."""
    return tuple(ratio(k, k + 1) for _ in range(k + 1))


def _validate_factors(k, factors) -> tuple:
    factors = tuple(ratio(f) for f in factors)
    if len(factors) != k + 1:
        raise AntipodalityError(f"need {k + 1} shrink factors, got {len(factors)}")
    if any(not (0 < f < 1) for f in factors):
        raise AntipodalityError("shrink factors must lie strictly in (0, 1)")
    if sum(factors, ZERO) != k:
        raise AntipodalityError("shrink factors must sum to the rank k")
    return factors


# ---------------------------------------------------------------------------
# the two decision routes


def _copies_lp(X: PointSet, chosen, factors):
    """Strict system: a common point of the relative interiors of the
    shrunk copies of conv(X), one copy per chosen point.

    Copy j, shrunk toward q_j by l_j, holds the points
    q_j + l_j sum_x w_jx (x - q_j) over the points x other than q_j, with
    every w_jx > 0 and sum_x w_jx < 1; the centre keeps the weight
    1 - sum_x w_jx > 0.  The variables are these weights, copy by copy,
    n - 1 per copy in index order; the common point z is copy 0's point,
    substituted into copies 1..k.  With the points cleared to P / L and
    l_j = a_j / b_j, row (j, t) for j >= 1 is the integer row
    a_0 b_j sum w_0x (P_x - Q_0)_t - a_j b_0 sum w_jx (P_x - Q_j)_t
    = b_0 b_j (Q_j - Q_0)_t over b_0 b_j L; a row with no coefficient
    (every point has the same coordinate t) is left out.  The sum rows
    and the sign rows are the strict ones.
    """
    P, L = X.cleared
    m = len(X) - 1
    ratios = [int_pair(f) for f in factors]
    # edges[j][t]: (P_x - Q_j)_t for the points x other than q_j.
    edges = []
    for q_idx in chosen:
        q = P[q_idx]
        edges.append(
            [[p[t] - q[t] for i, p in enumerate(P) if i != q_idx] for t in range(X.dim)]
        )
    a0, b0 = ratios[0]
    q0 = P[chosen[0]]
    rows = []
    for j in range(1, len(chosen)):
        a, b = ratios[j]
        q = P[chosen[j]]
        base = j * m
        for t in range(X.dim):
            terms = [(c, a0 * b * e) for c, e in enumerate(edges[0][t])]
            terms += [(base + c, -a * b0 * e) for c, e in enumerate(edges[j][t])]
            row = integer_row(terms, EQ, b0 * b * (q[t] - q0[t]), b0 * b * L)
            if row.terms:
                rows.append(row)
    first = len(rows)
    for j in range(len(chosen)):
        rows.append(Constraint(tuple((j * m + c, 1) for c in range(m)), LE, 1, 1))
    rows.extend(Constraint(((c, 1),), GE, 0, 1) for c in range(len(chosen) * m))
    return LinearProgram(len(chosen) * m, tuple(rows)), list(range(first, len(rows)))


def _witness_from_solution(X: PointSet, chosen, factors, point):
    """Read the closed-copy witness (factor sum < k) off a solution of
    `_copies_lp` (factor sum k).

    Copy j's point is q_j + sum_x u_jx (x - q_j) with u_j = l_j w_j > 0:
    it lies in the closed copy shrunk toward q_j by the smaller factor
    s_j = sum_x u_jx = l_j sum_x w_jx < l_j, and the total slips strictly
    below k.  The witness is copy 0's point, computed in integers.
    Returns (witness, factors s, weights u), u_j one weight per point
    other than q_j in index order.
    """
    P, L = X.cleared
    m = len(X) - 1
    reduced = []
    weights = []
    for j, f in enumerate(factors):
        a, b = int_pair(f)
        W, wden = over_common_denominator(point[j * m : (j + 1) * m])
        weights.append(tuple(Fraction(a * w, b * wden) for w in W))
        reduced.append(Fraction(a * sum(W), b * wden))
    # z = q_0 + sum_x u_0x (x - q_0), with u_0 cleared to U / uden.
    U, uden = over_common_denominator(weights[0])
    q = P[chosen[0]]
    others = [p for i, p in enumerate(P) if i != chosen[0]]
    witness = tuple(
        Fraction(uden * c + sum(u * (p[t] - c) for u, p in zip(U, others)), uden * L)
        for t, c in enumerate(q)
    )
    return witness, tuple(reduced), tuple(weights)


def _witness_holds(X: PointSet, chosen, witness, factors, weights) -> bool:
    """Does the witness lie in every closed shrunk copy, as the copy
    weights show?  Decided by substitution in integers, with no LP.

    weights[j] holds one weight u_x per point x of X other than
    q = X[chosen[j]], in index order, for the copy shrunk toward q by
    factors[j] = s.  The weights must be nonnegative and sum to s, and
    the witness z must satisfy z - q = sum_x u_x (x - q); z is then
    (1 - s) q + s sum_x (u_x / s) x.  The factors must lie in (0, 1) and
    sum to less than k.
    """
    k = len(chosen) - 1
    if len(factors) != k + 1 or len(weights) != k + 1 or len(witness) != X.dim:
        return False
    if any(not 0 < s < 1 for s in factors) or sum(factors, ZERO) >= k:
        return False
    P, L = X.cleared
    Z, zden = over_common_denominator(witness)
    for q_idx, s, u in zip(chosen, factors, weights):
        if len(u) != len(X) - 1:
            return False
        U, uden = over_common_denominator(u)
        if any(w < 0 for w in U):
            return False
        if sum(U) * s.denominator != s.numerator * uden:
            return False
        q = P[q_idx]
        others = [p for i, p in enumerate(P) if i != q_idx]
        # Times L * zden * uden, the coordinates of both sides.
        for t, (z, c) in enumerate(zip(Z, q)):
            step = sum(w * (p[t] - c) for w, p in zip(U, others))
            if uden * (L * z - zden * c) != zden * step:
                return False
    return True


def verify_joint_certificate(X: PointSet, cert: AntipodalityCertificate) -> bool:
    """Re-check a joint antipodality certificate: a map by substitution
    in integers, a witness by one hull-membership program per copy."""
    chosen = cert.chosen
    k = len(chosen) - 1
    if cert.antipodal:
        m = cert.mapping
        if m is None or m.in_dim != X.dim or m.out_dim != k + 1:
            return False
        images, den = m.cleared_images(X)
        for pos, q_idx in enumerate(chosen):
            if any(t != (den if i == pos else 0) for i, t in enumerate(images[q_idx])):
                return False
        return outside_simplex(images, den) is None
    if cert.witness is None or cert.shrink_factors is None:
        return False
    factors = cert.shrink_factors
    if len(factors) != k + 1 or len(cert.witness) != X.dim:
        return False
    if any(not (0 < f < 1) for f in factors):
        return False
    if sum(factors, ZERO) >= k:
        return False
    # z lies in the copy shrunk toward q by s exactly when its preimage
    # (z - (1 - s) q) / s lies in conv X.
    for q_idx, s in zip(chosen, factors):
        pre = tuple((z - (1 - s) * c) / s for c, z in zip(X[q_idx], cert.witness))
        if not member(X, pre):
            return False
    return True


def _map_certificate(X: PointSet, chosen):
    """The verified certifying map for the chosen tuple, or None when the
    map program is infeasible."""
    program = simplex_map_lp(X, len(chosen), pinned=[X[i] for i in chosen])
    out = program.solve()
    if out.status is not Status.FEASIBLE:
        return None
    cert = AntipodalityCertificate(
        True, chosen, mapping=decode_map(program, out.point)
    )
    if not verify_joint_certificate(X, cert):
        raise CertificateError("map certificate failed verification")
    return cert


def _witness_certificate(X: PointSet, chosen, factors):
    """The verified closed-copy witness for the chosen tuple, or None when
    the relative interiors of the shrunk copies do not meet."""
    lp, strict_rows = _copies_lp(X, chosen, factors)
    out = solve_strict(lp, strict_rows)
    if out.status is not Status.FEASIBLE:
        return None
    witness, reduced, weights = _witness_from_solution(X, chosen, factors, out.point)
    if not _witness_holds(X, chosen, witness, reduced, weights):
        raise CertificateError("witness certificate failed verification")
    return AntipodalityCertificate(
        False, chosen, witness=witness, shrink_factors=reduced
    )


def joint_antipodal_direct(X: PointSet, chosen) -> AntipodalityCertificate:
    """Decide joint antipodality by searching for the certifying map."""
    chosen = _validate_chosen(X, chosen)
    k = len(chosen) - 1
    frame = [X[i] for i in chosen]
    if affine_rank(PointSet(tuple(frame))) == k:
        cert = _map_certificate(X, chosen)
        if cert is not None:
            return cert
    # Affinely dependent tuples can never reach the simplex vertices, and
    # an infeasible map program means the same; either way the shrunk
    # route must produce a common point to witness it.
    cert = _witness_certificate(X, chosen, default_factors(k))
    if cert is None:
        raise CertificateError(
            "decision routes disagree: no map yet empty shrunk intersection"
        )
    return cert


def joint_antipodal_shrunk(
    X: PointSet, chosen, factors=None
) -> AntipodalityCertificate:
    """Decide joint antipodality through the shrunk-copy intersection."""
    chosen = _validate_chosen(X, chosen)
    k = len(chosen) - 1
    factors = default_factors(k) if factors is None else _validate_factors(k, factors)
    cert = _witness_certificate(X, chosen, factors)
    if cert is not None:
        return cert
    # Empty intersection: the certifying map must exist; fetch it from the
    # direct program so the negative route still hands out a positive
    # certificate.
    cert = _map_certificate(X, chosen)
    if cert is None:
        raise CertificateError(
            "decision routes disagree: empty shrunk intersection but no map"
        )
    return cert


# ---------------------------------------------------------------------------
# rank-k decision


def _rank_argument(X: PointSet, k: int):
    if not isinstance(k, int) or k < 1:
        raise AntipodalityError("rank must be a positive integer")
    if len(X) < k + 1:
        raise AntipodalityError(
            f"rank {k} needs at least {k + 1} points, the set has {len(X)}"
        )


def _rank_within(X: PointSet, k: int):
    """The affine rank of X, which k must not exceed."""
    rank = affine_rank(X)
    if k > rank:
        raise AntipodalityError(
            f"rank {k} exceeds the affine rank {rank} of the set"
        )
    return rank


def _sampled_subsets(n, k, samples, seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(samples):
        seen.add(tuple(sorted(rng.sample(range(n), k + 1))))
    return sorted(seen)


def _refuse_exhaustive(n, k, hint=""):
    """Refuse more than EXHAUSTIVE_LIMIT (k+1)-subsets of range(n)."""
    total = comb(n, k + 1)
    if total > EXHAUSTIVE_LIMIT:
        raise AntipodalityError(
            f"{total} subsets exceed the exhaustive limit {EXHAUSTIVE_LIMIT}{hint}"
        )


def _all_subsets(n, k):
    """Every (k+1)-subset of range(n) in index order; refuses more than
    EXHAUSTIVE_LIMIT of them before listing any."""
    _refuse_exhaustive(n, k)
    return list(combinations(range(n), k + 1))


def _subset_classes(X: PointSet, subsets, rank):
    """For each subset, the least index of a subset it is known to share
    an orbit with under the affine automorphisms of X.

    Union-find over the subset list: a generator joins two listed subsets
    when it carries one onto the other, and it is checked by substitution
    the first time it joins anything.  An affinely independent X needs no
    search: every permutation of it is affine, so all subsets share one
    orbit.
    """
    if rank == len(X) - 1:
        return [0] * len(subsets)
    parent = list(range(len(subsets)))
    sym = affine_symmetry(X)
    if not sym.generators:
        return parent

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    index = {subset: pos for pos, subset in enumerate(subsets)}
    for perm in sym.generators:
        checked = False
        for pos, subset in enumerate(subsets):
            image = index.get(tuple(sorted(perm[i] for i in subset)))
            if image is None:
                continue
            a, b = find(pos), find(image)
            if a == b:
                continue
            if not checked:
                if not sym.is_automorphism(perm):
                    raise CertificateError(
                        f"symmetry generator {list(perm)} is not an affine "
                        "automorphism of the set"
                    )
                checked = True
            parent[max(a, b)] = min(a, b)
    return [find(pos) for pos in range(len(subsets))]


def is_rank_k_antipodal(
    X: PointSet,
    k: int,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> RankReport:
    """Check every (or a seeded sample of) (k+1)-subset for joint
    antipodality; the first failing subset in index order is reported.

    Joint antipodality is invariant under affine maps, so one map program
    per orbit of the affine automorphism group decides every subset of
    the orbit.  Subsets are scanned in index order and one is solved only
    when it is the least of its class; a failing subset is therefore the
    first failing one in index order, with its own certificate.

    Exhaustive mode refuses sets with more than EXHAUSTIVE_LIMIT subsets;
    pass `samples` (a number of random draws, deduplicated) and `seed`.
    """
    _rank_argument(X, k)
    exhaustive = samples is None
    if exhaustive:
        # An oversized check is refused before any work.
        subsets = _all_subsets(len(X), k)
    rank = _rank_within(X, k)
    if not exhaustive:
        if not isinstance(samples, int) or samples < 1:
            raise AntipodalityError("samples must be a positive integer")
        if seed is None:
            raise AntipodalityError("sampled mode requires an explicit seed")
        subsets = _sampled_subsets(len(X), k, samples, seed)
    # Symmetry is looked for only once the first subset holds, and only
    # when there is another subset for it to decide.
    classes = range(len(subsets))
    for pos, subset in enumerate(subsets):
        if classes[pos] != pos:
            continue
        cert = joint_antipodal_direct(X, subset)
        if not cert.antipodal:
            return RankReport(k, False, pos + 1, exhaustive, failing=cert)
        if pos == 0 and len(subsets) > 1:
            classes = _subset_classes(X, subsets, rank)
    return RankReport(k, True, len(subsets), exhaustive)


# ---------------------------------------------------------------------------
# projection criterion


def erdos_rank_k(X: PointSet, k: int) -> ProjectionReport:
    """Orthogonal-projection criterion over every (k+1)-subset.

    Each subset must be affinely independent and every point of X must
    project onto the subset's affine hull with nonnegative barycentric
    coordinates, landing in the subset's closed simplex.  This is
    stronger than rank-k antipodality: the supporting slabs here are
    orthogonal.  The coordinates of every point come from one integer
    elimination per subset (`geometry.projection_coordinates`), and their
    signs decide.  Refuses sets with more than EXHAUSTIVE_LIMIT subsets.
    """
    _rank_argument(X, k)
    subsets = _all_subsets(len(X), k)
    _rank_within(X, k)
    for subset in subsets:
        found = projection_coordinates(X, subset)
        if found is None:
            return ProjectionReport(k, False, subset, reason="dependent")
        for idx, coords in enumerate(found[0]):
            if any(c < 0 for c in coords):
                return ProjectionReport(
                    k, False, subset, offender=idx, reason="outside"
                )
    return ProjectionReport(k, True)


# ---------------------------------------------------------------------------
# strict variant


def _first_coincidence(X: PointSet, subset, mapping: AffineMap):
    """The first (point, vertex) off the subset where the map's value is 1."""
    images, den = mapping.cleared_images(X)
    for x_idx, image in enumerate(images):
        if x_idx not in subset and den in image:
            return x_idx, image.index(den)
    return None


def strict_rank_k(X: PointSet, k: int) -> StrictReport:
    """Rank-k antipodality with vertex coincidences forbidden: every
    (k+1)-subset needs a certifying map under which no other point of X
    lands on a simplex vertex.

    The certifying maps form a convex set on which each vertex value
    f_v(x) <= 1 is linear, so a coincidence at a map in its relative
    interior holds at every map: it is forced.  Each subset's map program
    is solved once; only when that map has a coincidence does
    `exact_lp.relative_interior` move it into the relative interior.  The
    first coincidence left, in (point, vertex) order, is the forced pair;
    else the map is the subset's evidence.  With exactly k+1 points this
    is plain joint antipodality.  Refuses sets with more than
    EXHAUSTIVE_LIMIT subsets.
    """
    _rank_argument(X, k)
    subsets = _all_subsets(len(X), k)
    _rank_within(X, k)
    evidence = []
    for pos, subset in enumerate(subsets):
        program = simplex_map_lp(X, k + 1, pinned=[X[i] for i in subset])
        out = program.solve()
        if out.status is not Status.FEASIBLE:
            # The map program just solved is the direct route's; only the
            # shrunk copies are left to witness its infeasibility.
            cert = _witness_certificate(X, subset, default_factors(k))
            if cert is None:
                raise CertificateError(
                    "decision routes disagree: no map yet empty shrunk intersection"
                )
            return StrictReport(
                k, False, pos + 1, subset, "not_antipodal", failing_certificate=cert
            )
        mapping = decode_map(program, out.point)
        pair = _first_coincidence(X, subset, mapping)
        # At k = r the map needs no program, and puts no other point on a vertex.
        if pair is not None:
            mapping = decode_map(program, relative_interior(program.lp, out.point))
            pair = _first_coincidence(X, subset, mapping)
        if pair is not None:
            return StrictReport(k, False, pos + 1, subset, "forced", forced_pair=pair)
        cert = AntipodalityCertificate(True, subset, mapping=mapping)
        if not verify_joint_certificate(X, cert):
            raise CertificateError("evidence map failed verification")
        evidence.append((subset, mapping))
    return StrictReport(k, True, len(subsets), evidence=tuple(evidence))
