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
k, a configuration that is impossible for jointly antipodal tuples;
checking it needs only convex hull membership.

Exhaustive rank checks count their subsets first and refuse more than
EXHAUSTIVE_LIMIT of them before the set's affine rank is computed.

Also provided: support halfspaces touching the other k chosen points,
read off the certifying map as {x : out_i(x) >= 0} for chosen point i
(the rank-k counterpart of the parallel supporting hyperplanes of an
antipodal pair, Danzer and Grünbaum 1962), a projection-based variant
that asks every point to project inside the chosen simplex, and a strict
variant that forbids the remaining points from landing on simplex
vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb, lcm
from operator import mul
from typing import Optional

from .exact_lp import EQ, GE, Status, make_lp, solve_strict
from .geometry import (
    AffineMap,
    Dilation,
    PointSet,
    Polytope,
    affine_rank,
    affine_symmetry,
    barycentric,
    decode_map,
    member,
    orthogonal_project,
    simplex_map_lp,
    vdot,
)
from .rationals import ONE, ZERO, over_common_denominator, ratio

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
class HalfSpace:
    """The closed region normal . x <= offset."""

    normal: tuple
    offset: object

    def __post_init__(self):
        normal = tuple(ratio(c) for c in self.normal)
        if all(c == 0 for c in normal):
            raise AntipodalityError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", ratio(self.offset))

    def contains(self, x) -> bool:
        return vdot(self.normal, x) <= self.offset

    def on_boundary(self, x) -> bool:
        return vdot(self.normal, x) == self.offset


@dataclass(frozen=True)
class SupportCertificate:
    """One supporting halfspace per chosen point.

    Halfspace i contains all of X, touches every chosen point except the
    i-th on its boundary, and keeps the i-th strictly inside.  Restricted
    to the affine hull of the chosen points the halfspaces cut out exactly
    their simplex.
    """

    chosen: tuple
    halfspaces: tuple


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

    Variables: the common point z (d of them), then convex weights over X
    for each copy.  Weight positivity rows are the strict ones.
    """
    n = len(X)
    d = X.dim
    k = len(chosen) - 1
    nv = d + (k + 1) * n

    def wcol(j, i):
        return d + j * n + i

    rows = []
    for j, q_idx in enumerate(chosen):
        lam = factors[j]
        q = X[q_idx]
        for t in range(d):
            coeffs = [ZERO] * nv
            coeffs[t] = ONE
            for i, x in enumerate(X):
                coeffs[wcol(j, i)] = -lam * x[t]
            rows.append((tuple(coeffs), EQ, (1 - lam) * q[t]))
        coeffs = [ZERO] * nv
        for i in range(n):
            coeffs[wcol(j, i)] = ONE
        rows.append((tuple(coeffs), EQ, ONE))
    strict_rows = []
    for j in range(k + 1):
        for i in range(n):
            coeffs = [ZERO] * nv
            coeffs[wcol(j, i)] = ONE
            strict_rows.append(len(rows))
            rows.append((tuple(coeffs), GE, ZERO))
    return make_lp(nv, rows), strict_rows


def _witness_from_solution(X, chosen, factors, point):
    """Convert a common relative-interior point of the shrunk copies
    (factor sum k) into the closed-copy witness form (factor sum < k).

    With z = (1 - l_j) q_j + l_j sum_i m_i x_i and all weights m positive,
    dropping the weight the copy's own center carries leaves z inside the
    copy shrunk by the smaller factor l_j (1 - m_center), and the total
    slips strictly below k.
    """
    n = len(X)
    d = X.dim
    witness = tuple(point[:d])
    reduced = []
    for j, q_idx in enumerate(chosen):
        m_center = point[d + j * n + q_idx]
        if not 0 < m_center < 1:
            raise CertificateError("interior weights must lie in (0, 1)")
        reduced.append(factors[j] * (1 - m_center))
    return witness, tuple(reduced)


def verify_joint_certificate(X: PointSet, cert: AntipodalityCertificate) -> bool:
    """Re-check a joint antipodality certificate by substitution only."""
    chosen = cert.chosen
    k = len(chosen) - 1
    if cert.antipodal:
        m = cert.mapping
        if m is None or m.in_dim != X.dim or m.out_dim != k + 1:
            return False
        # Row i over the lcm D_i of its denominators, a point over its own
        # lcm L: output i is (a_i.P + c_i*L) / (D_i*L), so each test below
        # is the rational test multiplied through by a positive integer.
        rows = [over_common_denominator(r + (c,)) for r, c in zip(m.matrix, m.offset)]
        common = lcm(*(d for _, d in rows))
        images = []
        for x in X:
            scaled, den = over_common_denominator(x)
            totals = [a[-1] * den + sum(map(mul, a, scaled)) for a, _ in rows]
            images.append((totals, den))
        for pos, q_idx in enumerate(chosen):
            totals, den = images[q_idx]
            for i, (total, (_, d)) in enumerate(zip(totals, rows)):
                if total != (d * den if i == pos else 0):
                    return False
        for totals, den in images:
            if any(t < 0 for t in totals):
                return False
            # The outputs sum to 1: sum_i total_i * (lcm of the D_i) / D_i
            # equals that lcm times L.
            weighted = sum(t * (common // d) for t, (_, d) in zip(totals, rows))
            if weighted != common * den:
                return False
        return True
    if cert.witness is None or cert.shrink_factors is None:
        return False
    factors = cert.shrink_factors
    if len(factors) != k + 1:
        return False
    if any(not (0 < f < 1) for f in factors):
        return False
    if sum(factors, ZERO) >= k:
        return False
    hull = Polytope(X)
    for j, q_idx in enumerate(chosen):
        pre = Dilation(X[q_idx], factors[j]).preimage(cert.witness)
        if not member(hull, pre).inside:
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
    witness, reduced = _witness_from_solution(X, chosen, factors, out.point)
    cert = AntipodalityCertificate(
        False, chosen, witness=witness, shrink_factors=reduced
    )
    if not verify_joint_certificate(X, cert):
        raise CertificateError("witness certificate failed verification")
    return cert


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


def _all_subsets(n, k, hint=""):
    """Every (k+1)-subset of range(n) in index order; refuses more than
    EXHAUSTIVE_LIMIT of them before listing any."""
    total = comb(n, k + 1)
    if total > EXHAUSTIVE_LIMIT:
        raise AntipodalityError(
            f"{total} subsets exceed the exhaustive limit {EXHAUSTIVE_LIMIT}{hint}"
        )
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
        subsets = _all_subsets(len(X), k, "; pass samples= and seed=")
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
# support halfspaces for antipodal tuples


def verify_support_certificate(X: PointSet, cert: SupportCertificate) -> bool:
    """Re-check support halfspaces: containment of X, the boundary touch
    at every other chosen point, strict slack at the own point."""
    chosen = cert.chosen
    if len(cert.halfspaces) != len(chosen):
        return False
    for i, hs in enumerate(cert.halfspaces):
        if not all(hs.contains(x) for x in X):
            return False
        for j, q_idx in enumerate(chosen):
            q = X[q_idx]
            if j == i:
                if vdot(hs.normal, q) >= hs.offset:
                    return False
            elif not hs.on_boundary(q):
                return False
    return True


def support_certificate(X: PointSet, chosen) -> SupportCertificate:
    """Supporting halfspaces witnessing joint antipodality geometrically.

    Read off the certifying map of `joint_antipodal_direct`: halfspace i
    is {x : out_i(x) >= 0}.  It contains X, which the map carries into
    the simplex; its boundary holds the other k chosen points, which go
    to vertices e_j with j != i; and it keeps the i-th chosen point
    strictly inside, since out_i there is 1.  Restricted to the affine
    hull of the chosen points the k+1 boundaries cut out exactly their
    simplex.

    The chosen tuple must be jointly antipodal.
    """
    chosen = _validate_chosen(X, chosen)
    base_cert = joint_antipodal_direct(X, chosen)
    if not base_cert.antipodal:
        raise AntipodalityError("the chosen points are not jointly antipodal")
    m = base_cert.mapping
    halfspaces = tuple(
        HalfSpace(tuple(-a for a in row), c) for row, c in zip(m.matrix, m.offset)
    )
    cert = SupportCertificate(chosen, halfspaces)
    if not verify_support_certificate(X, cert):
        raise CertificateError("map-derived support halfspaces failed verification")
    return cert


# ---------------------------------------------------------------------------
# projection criterion


def erdos_rank_k(X: PointSet, k: int) -> ProjectionReport:
    """Orthogonal-projection criterion over every (k+1)-subset.

    Each subset must be affinely independent and every point of X must
    project onto the subset's affine hull with nonnegative barycentric
    coordinates, landing inside the subset's simplex.  This is stronger
    than rank-k antipodality: the supporting slabs here are orthogonal.
    Refuses sets with more than EXHAUSTIVE_LIMIT subsets.
    """
    _rank_argument(X, k)
    subsets = _all_subsets(len(X), k)
    _rank_within(X, k)
    for subset in subsets:
        frame = PointSet(tuple(X[i] for i in subset))
        if affine_rank(frame) != k:
            return ProjectionReport(k, False, subset, reason="dependent")
        images = orthogonal_project(X, frame)
        for idx, image in enumerate(images):
            coords = barycentric(frame, image)
            if any(c < 0 for c in coords):
                return ProjectionReport(
                    k, False, subset, offender=idx, reason="outside"
                )
    return ProjectionReport(k, True)


# ---------------------------------------------------------------------------
# strict variant


def _blend_maps(m1: AffineMap, m2: AffineMap) -> AffineMap:
    half = ratio(1, 2)
    matrix = tuple(
        tuple(half * a + half * b for a, b in zip(r1, r2))
        for r1, r2 in zip(m1.matrix, m2.matrix)
    )
    offset = tuple(half * a + half * b for a, b in zip(m1.offset, m2.offset))
    return AffineMap(matrix, offset)


def strict_rank_k(X: PointSet, k: int) -> StrictReport:
    """Rank-k antipodality with vertex coincidences forbidden.

    For every (k+1)-subset there must be a certifying map under which no
    other point of X lands on a simplex vertex.  Since the certifying
    maps form a convex set and each vertex coordinate is linear in the
    map, a coincidence is unavoidable exactly when the coordinate's
    minimum over all certifying maps is 1; averaging per-pair minimisers
    into one map yields the returned evidence.

    With exactly k+1 points the condition is vacuous beyond plain joint
    antipodality.  Refuses sets with more than EXHAUSTIVE_LIMIT subsets.
    """
    _rank_argument(X, k)
    n = len(X)
    subsets = _all_subsets(n, k)
    _rank_within(X, k)
    evidence = []
    for pos, subset in enumerate(subsets):
        cert = joint_antipodal_direct(X, subset)
        if not cert.antipodal:
            return StrictReport(
                k,
                False,
                pos + 1,
                failing_subset=subset,
                cause="not_antipodal",
                failing_certificate=cert,
            )
        mapping = cert.mapping
        others = [i for i in range(n) if i not in subset]
        for x_idx in others:
            for vertex_pos in range(k + 1):
                value = mapping.apply(X[x_idx])[vertex_pos]
                if value != 1:
                    continue
                program = simplex_map_lp(
                    X,
                    k + 1,
                    pinned=[X[i] for i in subset],
                    score=[(vertex_pos, X[x_idx])],
                    maximize=False,
                )
                out = program.solve()
                if out.status is not Status.FEASIBLE:
                    raise CertificateError("vertex-value program went infeasible")
                if out.objective_value + program.offset == 1:
                    return StrictReport(
                        k,
                        False,
                        pos + 1,
                        failing_subset=subset,
                        cause="forced",
                        forced_pair=(x_idx, vertex_pos),
                    )
                deviator = decode_map(program, out.point)
                mapping = _blend_maps(mapping, deviator)
        witness_cert = AntipodalityCertificate(True, subset, mapping=mapping)
        if not verify_joint_certificate(X, witness_cert):
            raise CertificateError("blended evidence map failed verification")
        for x_idx in others:
            image = mapping.apply(X[x_idx])
            if any(c == 1 for c in image):
                raise CertificateError("blended evidence map still coincides")
        evidence.append((subset, mapping))
    return StrictReport(k, True, len(subsets), evidence=tuple(evidence))
