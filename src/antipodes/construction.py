"""Building larger antipodal sets from smaller ones.

A rank-k antipodal base of size b in dimension d0, combined with an
order-(k+1) hash code of length m over b symbols, concatenates into a
rank-k antipodal set in dimension m*d0 with one point per word.  The
separating coordinate of any k+1 words hands over a ready-made
certificate.  Alongside the construction live the exact size bound
k*((k+1)/k)^d, the shrunk-copy volume inequality behind it, and the
growth-rate gap between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .antipodality import (
    AntipodalityCertificate,
    is_rank_k_antipodal,
    joint_antipodal_direct,
    verify_joint_certificate,
)
from .geometry import (
    AffineMap,
    PointSet,
    affine_rank,
    volume,
)
from .hashcodes import HashCode, rate_bounds
from .rationals import ZERO, LogRatio, ratio

__all__ = [
    "ConstructionError",
    "GapReport",
    "ProductSet",
    "StartingConfig",
    "VolumeReport",
    "gap_analysis",
    "product_construct",
    "projection_certificate",
    "size_bound",
    "volume_inequality_check",
]


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class StartingConfig:
    """Base point set with a certified antipodality rank: construction
    validates the shapes, then runs the full rank check."""

    points: PointSet
    rank: int

    def __post_init__(self):
        if not isinstance(self.rank, int) or isinstance(self.rank, bool):
            raise ConstructionError("rank: expected an integer")
        if self.rank < 1:
            raise ConstructionError("rank: must be at least 1")
        if len(self.points) < self.rank + 1:
            raise ConstructionError("points: need at least rank + 1 of them")
        report = is_rank_k_antipodal(self.points, self.rank)
        if not report.antipodal:
            raise ConstructionError(
                f"points: not rank-{self.rank} antipodal, "
                f"subset {report.failing_subset} fails"
            )

    @property
    def b(self) -> int:
        return len(self.points)

    @property
    def d0(self) -> int:
        return self.points.dim


@dataclass(frozen=True)
class ProductSet:
    base: StartingConfig
    code: HashCode
    result: PointSet
    # Base certificates by ordered base-point indices, filled by
    # projection_certificate; it lives and dies with this product.
    base_maps: dict = field(default_factory=dict, compare=False, repr=False)


def product_construct(base: StartingConfig, code: HashCode) -> ProductSet:
    """One point per code word: blocks of the word's base points, in order."""
    if code.b != base.b:
        raise ConstructionError(
            f"code alphabet {code.b} does not match base size {base.b}"
        )
    if code.k != base.rank + 1:
        raise ConstructionError(
            f"code order {code.k} does not match base rank {base.rank} + 1"
        )
    if not code.words:
        raise ConstructionError("code has no words")
    rows = []
    for word in code.words:
        point: tuple = ()
        for sym in word:
            point = point + base.points[sym - 1]
        rows.append(point)
    return ProductSet(base=base, code=code, result=PointSet(tuple(rows)))


def projection_certificate(prod: ProductSet, chosen: tuple):
    """Certify joint antipodality of chosen product points by projection.

    Returns (certificate, coordinate): the words' separating coordinate
    selects one d0-block; the base map for the points appearing there,
    read through that block, is a valid map for the whole product set.

    The base certificate of each ordered tuple of base points is solved
    once per product and kept in prod.base_maps, so a replay of every
    subset solves at most b!/(b-k-1)! base programs.  The projected
    certificate is still verified against the whole product every time.
    """
    k = prod.base.rank
    words = prod.code.words
    if len(chosen) != k + 1 or len(set(chosen)) != len(chosen):
        raise ConstructionError("chosen: need k+1 distinct word indices")
    if any(not (0 <= i < len(words)) for i in chosen):
        raise ConstructionError("chosen: index out of range")
    picked = [words[i] for i in chosen]
    coord = next(
        (
            j
            for j in range(prod.code.m)
            if len({w[j] for w in picked}) == k + 1
        ),
        None,
    )
    if coord is None:
        raise ConstructionError("chosen words share no separating coordinate")
    base_chosen = tuple(w[coord] - 1 for w in picked)
    base_cert = prod.base_maps.get(base_chosen)
    if base_cert is None:
        base_cert = joint_antipodal_direct(prod.base.points, base_chosen)
        prod.base_maps[base_chosen] = base_cert
    if not base_cert.antipodal:
        raise ConstructionError("base points at the separating coordinate fail")
    d0 = prod.base.d0
    width = prod.code.m * d0
    lo = coord * d0
    left, right = (ZERO,) * lo, (ZERO,) * (width - lo - d0)
    matrix = tuple(left + row + right for row in base_cert.mapping.matrix)
    cert = AntipodalityCertificate(
        antipodal=True,
        chosen=tuple(chosen),
        mapping=AffineMap(matrix, base_cert.mapping.offset),
    )
    if not verify_joint_certificate(prod.result, cert):
        raise ConstructionError("projected certificate failed verification")
    return cert, coord


def size_bound(d: int, k: int):
    """Exact ceiling k*((k+1)/k)^d on rank-k antipodal sets in dimension d.

    Callers floor it for integer caps; it is rarely an integer itself.
    """
    for label, value in (("d", d), ("k", k)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConstructionError(f"{label}: expected an integer")
    if k < 1:
        raise ConstructionError("k: must be at least 1")
    if d < k:
        raise ConstructionError("d: rank cannot exceed dimension")
    return ratio(k) * ratio(k + 1, k) ** d


@dataclass(frozen=True)
class VolumeReport:
    dim: int
    rank: int
    total: object
    copies: tuple
    bound: object
    ratio_expected: object
    ratios_match: bool
    holds: bool
    tight: bool


def volume_inequality_check(X: PointSet, k: int) -> VolumeReport:
    """Compare the copies of conv X shrunk toward each point by k/(k+1)
    with k times the total volume.

    Every copy is a homothet, so it has exactly (k/(k+1))^d of the total
    volume, and `copies` holds that value for each point.  For a rank-k
    antipodal X the copies' interiors cannot cover any hull point more
    than k deep, so their volumes sum to at most k times the total.  Only
    the copy toward X[0] is measured, as a self-check: `ratios_match` says
    whether its volume is the homothety value.
    """
    d = X.dim
    if affine_rank(X) != d:
        raise ConstructionError("X must span its ambient space")
    # The total volume comes first: above the dimension cap it refuses
    # before the rank pre-check spends any LP.
    total = volume(X)
    report = is_rank_k_antipodal(X, k)
    if not report.antipodal:
        raise ConstructionError(
            f"X is not rank-{k} antipodal, subset {report.failing_subset} fails"
        )
    lam = ratio(k, k + 1)
    expected = lam**d
    copy = expected * total
    # The copy toward q = X[0]: x maps to (1 - lam) q + lam x.
    shrunk = tuple(tuple((1 - lam) * c + lam * v for c, v in zip(X[0], x)) for x in X)
    measured = volume(PointSet(shrunk))
    bound = ratio(k) * total
    summed = copy * len(X)
    return VolumeReport(
        dim=d,
        rank=k,
        total=total,
        copies=(copy,) * len(X),
        bound=bound,
        ratio_expected=expected,
        ratios_match=measured == copy,
        holds=summed <= bound,
        tight=summed == bound,
    )


@dataclass(frozen=True)
class GapReport:
    k: int
    d0: int
    b: int
    exponent: LogRatio
    limit: LogRatio
    zero_gap: bool
    gap_positive: bool
    equalizing_size: object
    equalizing_integral: bool


def gap_analysis(k: int, d0: int, b: int) -> GapReport:
    """Compare product-construction growth against the size bound.

    With base size b and rank k, codes give at most (b/k)^m points in
    dimension m*d0, an exponent of (1/d0)*log(b/k) per dimension; the
    size bound allows log((k+1)/k).  The exponents meet only at
    b = k*((k+1)/k)^d0, which is an integer only in degenerate cases,
    so the report also says whether that equalizing size is achievable.
    """
    for label, value in (("k", k), ("d0", d0), ("b", b)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConstructionError(f"{label}: expected an integer")
    if k < 1:
        raise ConstructionError("k: must be at least 1")
    if d0 < k:
        raise ConstructionError("d0: must be at least k")
    if b < k + 1:
        raise ConstructionError("b: need at least k + 1 base points")
    _, upper = rate_bounds(b, k + 1)
    exponent = upper.scaled(ratio(1, d0))
    limit = LogRatio(1, ratio(k + 1, k))
    equalizing = size_bound(d0, k)
    return GapReport(
        k=k,
        d0=d0,
        b=b,
        exponent=exponent,
        limit=limit,
        zero_gap=exponent == limit,
        gap_positive=exponent < limit,
        equalizing_size=equalizing,
        equalizing_integral=equalizing.denominator == 1,
    )
