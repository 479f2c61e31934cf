"""Affine symmetry of point sets and one map program per subset orbit.

`is_rank_k_antipodal` solves one map program per orbit of the affine
automorphism group on its subset list.  `_reference_rank` below is the
per-subset loop it replaced; the two must agree on the verdict, the
number of subsets reported checked, the failing subset and its
certificate.
"""

import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from pathlib import Path

import pytest

from antipodes import antipodality, geometry
from antipodes.antipodality import (
    CertificateError,
    RankReport,
    _all_subsets,
    _rank_argument,
    _rank_within,
    _sampled_subsets,
    erdos_rank_k,
    is_rank_k_antipodal,
    joint_antipodal_direct,
    strict_rank_k,
)
from antipodes.cli import main
from antipodes.geometry import (
    PointSet,
    _det,
    _plane,
    affine_symmetry,
    barycentric,
    dump_point_set,
    orthogonal_project,
)
from antipodes.rationals import _bareiss, ratio


def _ps(rows):
    return PointSet(tuple(tuple(ratio(c) for c in row) for row in rows))


def cube(d):
    return list(product((0, 1), repeat=d))


def cross(d):
    return [tuple(s if t == j else 0 for t in range(d)) for j in range(d) for s in (1, -1)]


def corner(d):
    return [(0,) * d] + [tuple(int(t == j) for t in range(d)) for j in range(d)]


TRIANGLE = [(0, 0), (1, 0), (0, 1)]
CODE6 = ((1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 3, 2), (3, 2, 3), (3, 3, 1))
PARALLELOGRAM = [(0, 0), (1, 0), (3, 1), (2, 1)]

SHAPES = {
    "cube3": cube(3),
    "cross3": cross(3),
    "corner3": corner(3),
    "corner4": corner(4),
    "prism": [p + (z,) for z in (0, 1) for p in TRIANGLE],
    "prod6": [sum((TRIANGLE[s - 1] for s in w), ()) for w in CODE6],
    "hexagon": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    "simplex_interior": [(0, 0), (3, 0), (0, 3), (1, 1)],
    "parallelogram": PARALLELOGRAM,
}


def affine_image(points, rng):
    """x -> A x + b with A unit lower triangular times a diagonal of
    rationals, b rational."""
    d = len(points[0])
    rows = []
    for t in range(d):
        mix = [1 if s == t else rng.randint(-2, 2) if s < t else 0 for s in range(d)]
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        rows.append((mix, scale, Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    return [
        tuple(sc * sum(a * x for a, x in zip(mix, p)) + b for mix, sc, b in rows)
        for p in points
    ]


def random_set(rng, d, n):
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)))
    return sorted(pts)


def symmetric_set(rng, d, n):
    """X together with -X: the central symmetry is an automorphism."""
    half = [p for p in random_set(rng, d, n) if any(p)]
    return half + [tuple(-c for c in p) for p in half if tuple(-c for c in p) not in half]


def _reference_rank(X, k, samples=None, seed=None):
    """The per-subset loop: one map program for every listed subset."""
    _rank_argument(X, k)
    _rank_within(X, k)
    if samples is None:
        subsets, exhaustive = _all_subsets(len(X), k), True
    else:
        subsets, exhaustive = _sampled_subsets(len(X), k, samples, seed), False
    for pos, subset in enumerate(subsets):
        cert = joint_antipodal_direct(X, subset)
        if not cert.antipodal:
            return RankReport(k, False, pos + 1, exhaustive, failing=cert)
    return RankReport(k, True, len(subsets), exhaustive)


def _closure(generators, n):
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        g = todo.pop()
        for h in generators:
            gh = tuple(h[i] for i in g)
            if gh not in group:
                group.add(gh)
                todo.append(gh)
    return group


@pytest.fixture
def count_joint(monkeypatch):
    calls = []
    real = antipodality.joint_antipodal_direct

    def counted(X, chosen):
        calls.append(tuple(chosen))
        return real(X, chosen)

    monkeypatch.setattr(antipodality, "joint_antipodal_direct", counted)
    return calls


# ---------------------------------------------------------------------------
# integer elimination


def test_jordan_pass_gives_the_adjugate():
    rng = random.Random(4)
    for n in (1, 2, 3, 4):
        for _ in range(30):
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            det = _det(a)
            if det == 0:
                continue
            aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
            _bareiss(aug, jordan=True)
            scale = aug[0][0]
            assert abs(scale) == abs(det)
            assert all(aug[i][i] == scale for i in range(n))
            # A times the right block is scale times the identity.
            for i in range(n):
                for j in range(n):
                    got = sum(a[i][t] * aug[t][n + j] for t in range(n))
                    assert got == (scale if i == j else 0)
            # A square system [A | b] solved as the simplex's dual solve
            # does: pivots 0..n-1, x_i = aug[i][-1] / aug[i][i].
            b = [rng.randint(-5, 5) for _ in range(n)]
            system = [row + [rhs] for row, rhs in zip(a, b)]
            pivots, _ = _bareiss(system, jordan=True)
            assert pivots == list(range(n))
            x = [Fraction(system[i][-1], system[i][i]) for i in range(n)]
            assert [sum(map(mul, row, x)) for row in a] == b
    # No rows: nothing to eliminate, as when no dual multiplier is unknown.
    assert _bareiss([], jordan=True) == ([], 1)
    assert _bareiss([]) == ([], 1)


def test_plane_normal_is_a_positive_multiple_of_the_cofactor_normal():
    rng = random.Random(9)
    for d in (2, 3, 4):
        for _ in range(40):
            P = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d + 1)]
            if _det([[a - b for a, b in zip(p, P[0])] for p in P[1:]]) == 0:
                continue
            centre = [sum(p[t] for p in P) for t in range(d)]
            facet = tuple(range(d))
            normal, offset = _plane(P, facet, centre)
            rows = [[a - b for a, b in zip(P[i], P[0])] for i in facet[1:]]
            cofactor = [
                (-1) ** j * _det([r[:j] + r[j + 1 :] for r in rows]) for j in range(d)
            ]
            # Parallel: every 2x2 minor of the two vectors vanishes.
            assert all(
                normal[i] * cofactor[j] == normal[j] * cofactor[i]
                for i in range(d) for j in range(d)
            )
            assert any(normal)
            assert sum(a * b for a, b in zip(normal, centre)) < (d + 1) * offset
            assert all(sum(a * b for a, b in zip(normal, P[i])) == offset for i in facet)


# ---------------------------------------------------------------------------
# detection and the substitution check


def test_cube_generators_are_pinned():
    # Generator order must not depend on the hash seed; CI runs this file
    # under two of them.
    sym = affine_symmetry(_ps(cube(3)))
    assert sym.generators == (
        (0, 1, 4, 5, 2, 3, 6, 7),
        (0, 2, 1, 3, 4, 6, 5, 7),
        (1, 0, 3, 2, 5, 4, 7, 6),
    )
    assert all(sym.is_automorphism(g) for g in sym.generators)
    assert len(_closure(sym.generators, 8)) == 48


@pytest.mark.parametrize(
    "name, order",
    [("cube3", 48), ("cross3", 48), ("corner4", 120), ("prism", 12),
     ("prod6", 72), ("hexagon", 12), ("simplex_interior", 6), ("parallelogram", 8)],
)
def test_group_orders_survive_affine_images(name, order):
    rng = random.Random(name)
    for points in (SHAPES[name], affine_image(SHAPES[name], rng)):
        sym = affine_symmetry(_ps(points))
        assert all(sym.is_automorphism(g) for g in sym.generators)
        assert len(_closure(sym.generators, len(points))) == order


def test_random_sets_have_no_symmetry():
    rng = random.Random(2)
    for d, n in ((2, 5), (2, 7), (3, 6), (3, 8)):
        assert affine_symmetry(_ps(random_set(rng, d, n))).generators == ()


def test_non_automorphisms_fail_the_substitution_check():
    sym = affine_symmetry(_ps(cube(3)))
    assert sym.is_automorphism(tuple(range(8)))
    # Swapping two vertices of the cube is no affine map.
    assert not sym.is_automorphism((1, 0, 2, 3, 4, 5, 6, 7))
    assert not sym.is_automorphism((0, 1, 2, 3, 4, 5, 7, 6))
    # Not a permutation at all.
    assert not sym.is_automorphism((0, 0, 2, 3, 4, 5, 6, 7))
    assert not sym.is_automorphism((0, 1, 2))
    # The hexagon is affinely regular: its rotation passes, a transposition
    # of two neighbours does not.
    hexagon = affine_symmetry(_ps(SHAPES["hexagon"]))
    assert hexagon.is_automorphism((1, 2, 3, 4, 5, 0))
    assert not hexagon.is_automorphism((1, 0, 2, 3, 4, 5))


def test_stubbed_search_with_a_non_automorphism_exits_4(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cube.json"
    dump_point_set(_ps(cube(3)), path)
    bogus = (1, 0, 2, 3, 4, 5, 6, 7)
    monkeypatch.setattr(geometry, "_generator_search", lambda weights: (bogus,))
    with pytest.raises(CertificateError):
        is_rank_k_antipodal(_ps(cube(3)), 1)
    capsys.readouterr()
    assert main(["check-rank", str(path), "--k", "1"]) == 4
    assert '"layer": "antipodality"' in capsys.readouterr().out


def test_a_generator_that_joins_nothing_is_not_checked(monkeypatch):
    # The sample is (0, 1) and (1, 2); swapping points 0 and 1 fixes the
    # first and moves the second off the list, so this bogus generator
    # joins nothing, is never used and is never checked.
    monkeypatch.setattr(geometry, "_generator_search", lambda weights: ((1, 0, 2, 3),))
    X = _ps(SHAPES["simplex_interior"])
    assert _sampled_subsets(4, 1, 2, 1) == [(0, 1), (1, 2)]
    report = is_rank_k_antipodal(X, 1, samples=2, seed=1)
    assert report.antipodal
    assert report == _reference_rank(X, 1, samples=2, seed=1)


# ---------------------------------------------------------------------------
# check-erdos is not affine-invariant


def _erdos_holds_on(X, subset):
    frame = PointSet(tuple(X[i] for i in subset))
    images = orthogonal_project(X, frame)
    return all(all(c >= 0 for c in barycentric(frame, y)) for y in images)


def test_parallelogram_rotation_breaks_the_projection_criterion(monkeypatch):
    X = _ps(PARALLELOGRAM)
    sym = affine_symmetry(X)
    rotation = (1, 2, 3, 0)
    assert rotation in _closure(sym.generators, 4)
    assert sym.is_automorphism(rotation)
    # The rotation carries the long diagonal {0, 2} onto the short one.
    assert sorted(rotation[i] for i in (0, 2)) == [1, 3]
    assert _erdos_holds_on(X, (0, 2))
    assert not _erdos_holds_on(X, (1, 3))
    # Neither the projection criterion nor the strict variant looks for
    # symmetry; the criterion still visits every subset.
    def refuse(_):
        raise AssertionError("symmetry was consulted")

    monkeypatch.setattr(antipodality, "affine_symmetry", refuse)
    seen = []
    real = antipodality.orthogonal_project
    monkeypatch.setattr(
        antipodality, "orthogonal_project",
        lambda ps, frame: seen.append(frame) or real(ps, frame),
    )
    square = _ps(cube(2))
    assert erdos_rank_k(square, 1).holds
    assert len(seen) == 6
    assert strict_rank_k(_ps(TRIANGLE), 1).strict
    assert not erdos_rank_k(X, 1).holds


# ---------------------------------------------------------------------------
# equivalence with the per-subset loop


def _cases():
    rng = random.Random(11)
    sets = []
    for name, points in SHAPES.items():
        sets.append((name, points))
        sets.append((name + "~affine", affine_image(points, rng)))
    for i, (d, n) in enumerate(((2, 4), (2, 5), (3, 5), (3, 6), (2, 6))):
        sets.append((f"random{i}", random_set(rng, d, n)))
    for i, (d, n) in enumerate(((2, 2), (2, 3), (3, 3), (3, 4))):
        sets.append((f"symmetric{i}", symmetric_set(rng, d, n)))
    return sets


CASES = _cases()


@pytest.mark.parametrize("name, points", CASES, ids=[name for name, _ in CASES])
def test_orbit_scan_matches_the_per_subset_loop(name, points):
    X = _ps(points)
    rank = geometry.affine_rank(X)
    for k in range(1, min(3, rank) + 1):
        if len(X) < k + 1:
            continue
        modes = [{}] + [{"samples": s, "seed": seed} for s, seed in ((3, 1), (8, 5))]
        for mode in modes:
            got = is_rank_k_antipodal(X, k, **mode)
            want = _reference_rank(X, k, **mode)
            assert got == want, (name, k, mode)


@pytest.mark.parametrize(
    "name, k, lps",
    [("cube3", 1, 3), ("cross3", 1, 2), ("corner4", 2, 1), ("prism", 1, 3),
     ("prod6", 2, 2), ("cube4", 1, 4)],
)
def test_one_map_program_per_orbit(name, k, lps, count_joint):
    points = cube(4) if name == "cube4" else SHAPES[name]
    report = is_rank_k_antipodal(_ps(points), k)
    assert report.antipodal
    assert report.subsets_checked == len(list(combinations(points, k + 1)))
    assert len(count_joint) == lps


def test_four_cube_quadruples_fall_into_19_orbits():
    # The 4-cube is not rank-3 antipodal (its first quadruple is a square),
    # so the orbit count is pinned on the classes themselves.
    X = _ps(cube(4))
    classes = antipodality._subset_classes(X, _all_subsets(16, 3), 4)
    assert len(set(classes)) == 19
    assert all(classes[c] == c for c in classes)


def test_failing_set_pays_no_detection(monkeypatch, count_joint):
    # The cube's first triple fails: no symmetry is computed at all.
    def refuse(_):
        raise AssertionError("symmetry was consulted")

    monkeypatch.setattr(antipodality, "affine_symmetry", refuse)
    report = is_rank_k_antipodal(_ps(cube(3)), 2)
    assert not report.antipodal and report.failing_subset == (0, 1, 2)
    assert count_joint == [(0, 1, 2)]
    # An affinely independent set needs no search either.
    assert is_rank_k_antipodal(_ps(corner(4)), 2).antipodal


def test_detection_does_not_depend_on_the_hash_seed():
    src = Path(antipodality.__file__).resolve().parents[1]
    code = (
        "from antipodes.geometry import PointSet, affine_symmetry;"
        "from antipodes.rationals import ratio;"
        f"X = PointSet(tuple(tuple(ratio(str(c)) for c in p) for p in {SHAPES['prod6']!r}));"
        "print(affine_symmetry(X).generators)"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1", "2")
    }
    assert len(outs) == 1
