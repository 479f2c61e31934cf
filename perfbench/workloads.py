"""Seeded inputs and job lists for the benchmark workloads.

A job is one `antipodes` command line plus the answer it must give.  The
answers are known without running the program:

* rank-k antipodality and strictness are affine invariants, so every
  seeded rational affine image of a shape keeps the shape's verdict;
* the near-miss shapes (the 3-cube at k=2, a simplex with an interior
  point, a hexagon) fail by their geometry;
* hash-search optima are fixed numbers, and a code built with a batch
  that no coordinate separates cannot be perfect;
* product sets are rank-k antipodal by construction (for k=1 the product
  of any two antipodal sets is antipodal), and antipodal sets meet the
  volume inequality with every copy at the expected ratio;
* the three joint routes (direct map, shrunk copies, discrimination)
  must agree with each other, set by set.

Verdicts and flags are compared, never report bytes, because another
valid certificate is still a correct answer.  Byte identity is checked
separately, between repeats of the same job within one run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Callable, Optional

# Optimal code sizes for hash-search, proved by the exhaustive search.
HASH_OPTIMA = {
    (3, 3, 3): 6,
    (3, 3, 4): 9,
    (4, 3, 3): 9,
    (5, 3, 2): 8,
    (4, 4, 3): 5,
}

# Optimal order-3 ternary codes of length 3 and 4; relabelling symbols
# within a coordinate or permuting coordinates keeps them perfect.
TERNARY_CODE_3 = ((1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 3, 2), (3, 2, 3), (3, 3, 1))
TERNARY_CODE_4 = (
    (1, 1, 1, 1), (1, 2, 2, 2), (1, 3, 3, 3),
    (2, 1, 2, 3), (2, 2, 3, 1), (2, 3, 1, 2),
    (3, 1, 3, 2), (3, 2, 1, 3), (3, 3, 2, 1),
)
TRIANGLE = ((0, 0), (1, 0), (0, 1))


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check its exit code and report must pass.

    `check(code, report)` returns a complaint, or None when the answer is
    right.  Jobs sharing a `group` must also agree on `verdict(report)`.
    """

    name: str
    argv: tuple
    check: Callable[[int, dict], Optional[str]]
    group: Optional[str] = None
    verdict: Optional[Callable[[dict], object]] = None


def _dig(report: dict, path: str):
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def expect(code: int, **fields) -> Callable[[int, dict], Optional[str]]:
    """Check the exit code and top-level report fields."""

    def check(got: int, report: dict) -> Optional[str]:
        if got != code:
            return f"exit {got}, expected {code}"
        for key, value in fields.items():
            if report.get(key) != value:
                return f"{key} is {report.get(key)!r}, expected {value!r}"
        return None

    return check


def _verified(check):
    """Also require the `"verified": true` that a `--verify` run adds."""

    def wrapped(got: int, report: dict) -> Optional[str]:
        if report.get("verified") is not True:
            return f"verified is {report.get('verified')!r}"
        return check(got, report)

    return wrapped


# ---------------------------------------------------------------------------
# point sets


def _rows(points) -> list:
    return [[str(Fraction(c)) for c in p] for p in points]


def cube(d: int) -> list:
    return [tuple(p) for p in product((0, 1), repeat=d)]


def cross_polytope(d: int) -> list:
    return [
        tuple(s if t == j else 0 for t in range(d)) for j in range(d) for s in (1, -1)
    ]


def corner_simplex(d: int) -> list:
    return [(0,) * d] + [tuple(int(t == j) for t in range(d)) for j in range(d)]


def prism() -> list:
    return [p + (z,) for z in (0, 1) for p in TRIANGLE]


def tetra_prism() -> list:
    """The product of a corner tetrahedron and a segment, in 4-D."""
    return [p + (z,) for z in (0, 1) for p in corner_simplex(3)]


def hexagon() -> list:
    return [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def simplex_with_interior() -> list:
    return [(0, 0), (3, 0), (0, 3), (1, 1)]


def product_set(base, words) -> list:
    return [sum((tuple(base[s - 1]) for s in word), ()) for word in words]


def separates_triples(words) -> bool:
    """True when every three words differ pairwise in some coordinate."""
    return all(
        any(len({a[j], b[j], c[j]}) == 3 for j in range(len(a)))
        for a, b, c in combinations(words, 3)
    )


def shuffled_code(words, rng: random.Random) -> tuple:
    """Relabel symbols per coordinate and permute coordinates and words."""
    if not separates_triples(words):
        raise ValueError("the base code is not a perfect order-3 code")
    m = len(words[0])
    b = max(max(w) for w in words)
    labels = [rng.sample(range(1, b + 1), b) for _ in range(m)]
    order = rng.sample(range(m), m)
    out = [tuple(labels[j][word[j] - 1] for j in order) for word in words]
    rng.shuffle(out)
    return tuple(out)


def broken_code(b: int, m: int, size: int, rng: random.Random) -> tuple:
    """An order-3 code whose first three words no coordinate separates.

    Word two repeats word one on a coordinate set S and differs off it;
    word three differs on S and repeats word one off it.  So every
    coordinate shows a repeated symbol within the first three words.
    """

    def other(symbol):
        return rng.choice([s for s in range(1, b + 1) if s != symbol])

    first = tuple(rng.randint(1, b) for _ in range(m))
    split = set(rng.sample(range(m), rng.randint(1, m - 1)))
    second = tuple(first[j] if j in split else other(first[j]) for j in range(m))
    third = tuple(other(first[j]) if j in split else first[j] for j in range(m))
    words = [first, second, third]
    while len(words) < size:
        word = tuple(rng.randint(1, b) for _ in range(m))
        if word not in words:
            words.append(word)
    return tuple(words)


PRIMES = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def affine_image(points, rng: random.Random) -> list:
    """x -> D L x + b: L unit lower triangular with entries -1, 0 and 1,
    D diagonal; each output coordinate has one prime denominator from 53
    to 97, so the bit lengths, and with them the cost, vary little
    between seeds."""
    d = len(points[0])
    mix = [[1 if s == t else rng.randint(-1, 1) if s < t else 0 for s in range(d)] for t in range(d)]
    rows = []
    for t in range(d):
        q = rng.choice(PRIMES)
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, q - 1), q)
        shift = Fraction(rng.randint(-q, q), q)
        rows.append((mix[t], scale, shift))
    return [
        tuple(scale * sum(a * x for a, x in zip(row, p)) + shift for row, scale, shift in rows)
        for p in points
    ]


# ---------------------------------------------------------------------------
# workloads


class _Files:
    """Writes the generated inputs under one directory."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def points(self, name: str, points) -> str:
        path = self.root / f"{name}.json"
        doc = {"dim": len(points[0]), "points": _rows(points)}
        path.write_text(json.dumps(doc, sort_keys=True))
        return str(path)

    def code(self, name: str, b: int, k: int, words) -> str:
        path = self.root / f"{name}.json"
        doc = {"b": b, "k": k, "m": len(words[0]), "words": [list(w) for w in words]}
        path.write_text(json.dumps(doc, sort_keys=True))
        return str(path)


def _rank_job(name, path, k, antipodal, extra=()):
    """Antipodal sets must also obey the size bound; failures carry a witness."""
    verdict = expect(0 if antipodal else 1, antipodal=antipodal)
    exhaustive = "--sample" not in extra

    def check(got, report):
        if antipodal and report.get("within_bound") is not True:
            return "antipodal set exceeds the size bound"
        if antipodal and report.get("exhaustive") is not exhaustive:
            return f"exhaustive is {report.get('exhaustive')!r}"
        if not antipodal and _dig(report, "certificate.antipodal") is not False:
            return "failing verdict without a witness certificate"
        return verdict(got, report)

    argv = ("--verify", "check-rank", path, "--k", str(k)) + tuple(extra)
    return Job(name, argv, _verified(check))


def _strict_job(name, path, k, cause):
    if cause is None:
        check = expect(0, strict=True)
    else:
        check = expect(1, strict=False, cause=cause)
    return Job(name, ("--verify", "check-strict", path, "--k", str(k)), _verified(check))


def rank_sweep(seed: int, files: _Files) -> list:
    """check-rank and check-strict on sets whose verdict is known."""
    rng = random.Random(seed)
    code6 = shuffled_code(TERNARY_CODE_3, rng)
    code8 = shuffled_code(TERNARY_CODE_4, rng)
    shapes = {
        "cube3": cube(3),
        "cross3": cross_polytope(3),
        "corner3": corner_simplex(3),
        "corner4": corner_simplex(4),
        "prism": prism(),
        "prod6": product_set(TRIANGLE, code6),
        "prod8": product_set(TRIANGLE, code8),
        "hexagon": hexagon(),
        "simplex_interior": simplex_with_interior(),
    }
    sample = ("--sample", "3", "--seed", "1")
    # (verb, shape, k, expected verdict or failure cause, extra argv)
    cases = [
        ("rank", "cube3", 1, True, ()),
        ("rank", "cross3", 1, True, ()),
        ("rank", "corner3", 1, True, ()),
        ("rank", "corner3", 2, True, ()),
        ("rank", "corner3", 3, True, ()),
        ("rank", "corner4", 4, True, ()),
        ("rank", "corner4", 2, True, ()),
        ("rank", "prism", 1, True, ()),
        ("rank", "prod6", 2, True, ()),
        ("rank", "prod8", 2, True, sample),
        ("rank", "cube3", 2, False, ()),
        ("rank", "hexagon", 1, False, ()),
        ("rank", "hexagon", 2, False, ()),
        ("rank", "simplex_interior", 1, False, ()),
        ("rank", "simplex_interior", 2, False, ()),
        ("strict", "corner3", 1, None, ()),
        ("strict", "cube3", 1, "forced", ()),
        ("strict", "prism", 1, "forced", ()),
    ]
    paths = {}
    for name, points in shapes.items():
        paths[name] = files.points(name, points)
        paths[name + "~affine"] = files.points(name + "~affine", affine_image(points, rng))
    jobs = []
    for verb, shape, k, want, extra in cases:
        for variant in (shape, shape + "~affine"):
            label = f"{verb}:{variant}:k{k}"
            if verb == "rank":
                jobs.append(_rank_job(label, paths[variant], k, want, extra))
            else:
                jobs.append(_strict_job(label, paths[variant], k, want))
    # More than EXHAUSTIVE_LIMIT subsets: refused with exit 2 before any LP.
    crowd = {tuple(rng.randint(-50, 50) for _ in range(4)) for _ in range(60)}
    big = files.points("oversized", sorted(crowd | set(corner_simplex(4))))
    jobs.append(Job("rank:oversized:k3", ("check-rank", big, "--k", "3"), _refused))
    return _interleave(jobs)


def _refused(got: int, report: dict) -> Optional[str]:
    if got != 2:
        return f"exit {got}, expected 2"
    if "error" not in report:
        return "refusal without an error message"
    return None


def _random_set(rng: random.Random, d: int, n: int) -> list:
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(d)))
    return sorted(pts)


# (k, d, n) for each joint-stream set; the seed draws coordinates, the
# chosen tuple and the shrink factors, so every seed has the same mix.  No
# shape costs much more than the rest, which keeps the pass time steady
# from seed to seed.
JOINT_SHAPES = (
    (1, 2, 9), (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 3, 8),
    (1, 4, 4), (1, 4, 6), (1, 4, 8), (1, 4, 9),
    (2, 2, 4), (2, 2, 6), (2, 3, 4), (2, 3, 6), (2, 4, 4), (2, 4, 6),
    (3, 2, 4), (3, 2, 6), (3, 3, 4), (3, 3, 6), (3, 4, 4), (3, 4, 5),
)


def joint_stream(seed: int, files: _Files) -> list:
    """Three routes to the same joint verdict on seeded random sets."""
    rng = random.Random(seed)
    jobs = []
    for idx, (k, d, n) in enumerate(JOINT_SHAPES):
        points = _random_set(rng, d, n)
        chosen = sorted(rng.sample(range(n), k + 1))
        raw = [rng.randint(1, 12) for _ in range(k + 1)]
        lam = ",".join(str(1 - Fraction(a, sum(raw))) for a in raw)
        path = files.points(f"set{idx}", points)
        states = files.points(f"states{idx}", [points[i] for i in chosen])
        picks = tuple(str(i) for i in chosen)
        group = f"set{idx}"
        antipodal = _joint_verdict
        jobs += [
            Job(f"direct:{group}", ("--verify", "check-joint", path) + picks,
                _verified(_joint_check), group, antipodal),
            Job(f"shrunk:{group}", ("--verify", "check-joint", path) + picks + ("--lambda", lam),
                _verified(_joint_check), group, antipodal),
            Job(f"discriminate:{group}", ("--verify", "discriminate", path, states),
                _verified(_discriminate_check), group, _distinguishable),
        ]
    return jobs


def _joint_verdict(report: dict):
    return _dig(report, "certificate.antipodal")


def _distinguishable(report: dict):
    return report.get("distinguishable")


def _joint_check(got: int, report: dict) -> Optional[str]:
    antipodal = _joint_verdict(report)
    if antipodal not in (True, False):
        return "no joint verdict"
    return None if got == (0 if antipodal else 1) else f"exit {got} for antipodal={antipodal}"


def _discriminate_check(got: int, report: dict) -> Optional[str]:
    value = report.get("min_error")
    zero = value == "0"
    if report.get("distinguishable") is not zero:
        return "distinguishable disagrees with min_error"
    return None if got == (0 if zero else 1) else f"exit {got} for min_error={value}"


def build_measure(seed: int, files: _Files) -> list:
    """Hash codes, product construction and the volume inequality."""
    rng = random.Random(seed)
    jobs = []
    for (b, k, m), size in HASH_OPTIMA.items():
        argv = ("--verify", "hash-search", "--b", str(b), "--k", str(k), "--m", str(m))
        jobs.append(Job(f"search:{b}{k}{m}", argv, _verified(expect(0, size=size, optimal=True))))
    for (b, k, m), budget in (
        ((5, 3, 3), 20000), ((4, 3, 4), 20000), ((3, 3, 5), 30000), ((6, 3, 3), 20000)
    ):
        argv = ("--verify", "hash-search", "--b", str(b), "--k", str(k), "--m", str(m),
                "--budget", str(budget))
        jobs.append(Job(f"capped:{b}{k}{m}", argv,
                        _verified(expect(3, optimal=False, nodes=budget + 1))))
    for b, k, m in ((4, 3, 6), (5, 3, 5), (6, 3, 5), (8, 4, 4)):
        argv = ("--verify", "hash-greedy", "--b", str(b), "--k", str(k), "--m", str(m))
        jobs.append(Job(f"greedy:{b}{k}{m}", argv, _verified(expect(0))))
    for b, k, m in ((5, 3, 6),):
        argv = ("--verify", "hash-random", "--b", str(b), "--k", str(k), "--m", str(m),
                "--seed", str(rng.randint(0, 10**6)))
        jobs.append(Job(f"random:{b}{k}{m}", argv, _verified(expect(0))))
    code8 = shuffled_code(TERNARY_CODE_4, rng)
    good = files.code("code8", 3, 3, code8)
    for name, path, perfect in (
        ("perfect", good, True),
        ("broken", files.code("broken", 3, 3, broken_code(3, 4, 9, rng)), False),
    ):
        jobs.append(Job(f"verify:{name}", ("--verify", "hash-verify", path),
                        _verified(expect(0 if perfect else 1, perfect=perfect))))
    hashing, jobs = jobs, []
    code6 = files.code("code6", 3, 3, shuffled_code(TERNARY_CODE_3, rng))
    # The plain triangle keeps the certificate LPs' cost the same for every
    # seed; the seed still shuffles the codes.
    triangle = files.points("triangle", TRIANGLE)
    for name, base, code, k, size in (
        ("prod6", triangle, code6, 2, 6),
        ("prod8", triangle, good, 2, 9),
    ):
        argv = ("--verify", "construct", base, code, "--k", str(k))
        jobs.append(Job(f"construct:{name}", argv,
                        _verified(expect(0, size=size, within_bound=True))))
    # In 4-D the shrunk-copy volumes outweigh the rank pre-check; in 3-D
    # the pre-check's LPs dominate.
    for name, points, k, images in (
        ("cube3", cube(3), 1, 0),
        ("prism", prism(), 1, 1),
        ("corner4", corner_simplex(4), 4, 2),
        ("tetra_prism", tetra_prism(), 1, 0),
    ):
        variants = [(f"{name}-k{k}", points)] + [
            (f"{name}-k{k}~affine{i}", affine_image(points, rng)) for i in range(images)
        ]
        for variant, pts in variants:
            argv = ("--verify", "volume-check", files.points(variant, pts), "--k", str(k))
            jobs.append(Job(f"volume:{variant}", argv,
                            _verified(expect(0, holds=True, ratios_match=True))))
    # The warm-up runs the first job; a volume check makes it a real one.
    return _interleave(jobs + hashing)


def _interleave(jobs: list) -> list:
    """Alternate the two halves of the list so heavy cases are spread out."""
    half = (len(jobs) + 1) // 2
    out = []
    for a, b in zip(jobs[:half], jobs[half:] + [None]):
        out.append(a)
        if b is not None:
            out.append(b)
    return out


GENERATORS = {
    "rank-sweep": rank_sweep,
    "joint-stream": joint_stream,
    "build-measure": build_measure,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, root: Path) -> list:
    """Write the workload's input files under `root` and return its jobs."""
    return GENERATORS[workload](seed, _Files(root))
