"""Acceptance suite: eleven criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
appear; without -s they show up in captured output on failure.
"""

import json
import random
from contextlib import contextmanager
from itertools import combinations, product
from math import floor

from antipodes.antipodality import (
    is_rank_k_antipodal,
    joint_antipodal_direct,
    joint_antipodal_shrunk,
    verify_joint_certificate,
)
from antipodes.cli import main as cli_main
from antipodes.construction import (
    StartingConfig,
    gap_analysis,
    product_construct,
    projection_certificate,
    size_bound,
    volume_inequality_check,
)
from antipodes.discrimination import (
    classical_subadditivity_check,
    min_error,
)
from antipodes.geometry import (
    PointSet,
    StandardSimplex,
    dump_point_set,
    member,
)
from antipodes.hashcodes import (
    counting_bound,
    greedy_code,
    is_perfect,
    max_code,
    random_code,
)
from antipodes.rationals import LogRatio, ratio
from evaluators import homothety

SUITE_SEED = 20260823

# Sets verified antipodal while the suite runs; the supremacy criterion
# sweeps this at the end.
_VERIFIED: list = []


@contextmanager
def criterion(num, text):
    failures: list = []
    try:
        yield failures
    except Exception as exc:
        print(f"C{num:02d} FAIL {text} (error: {exc!r})")
        raise
    verdict = "PASS" if not failures else "FAIL"
    print(f"C{num:02d} {verdict} {text}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def _ps(*rows):
    return PointSet(tuple(tuple(ratio(c) for c in row) for row in rows))


def _cube(d):
    return _ps(*product((0, 1), repeat=d))


def _corner_simplex(d):
    rows = [tuple(0 for _ in range(d))]
    for j in range(d):
        rows.append(tuple(1 if t == j else 0 for t in range(d)))
    return _ps(*rows)


def _random_instances(count):
    rng = random.Random(SUITE_SEED)
    out = []
    for _ in range(count):
        k = rng.randint(1, 3)
        d = rng.randint(1, 4)
        n = rng.randint(k + 1, 8)
        pts = set()
        while len(pts) < n:
            pts.add(
                tuple(
                    ratio(rng.randint(-8, 8), rng.randint(1, 4))
                    for _ in range(d)
                )
            )
        X = PointSet(tuple(sorted(pts)))
        chosen = tuple(sorted(rng.sample(range(n), k + 1)))
        lams = []
        for _ in range(3):
            raw = [rng.randint(1, 12) for _ in range(k + 1)]
            total = sum(raw)
            lams.append(tuple(1 - ratio(a, total) for a in raw))
        out.append((X, k, chosen, tuple(lams)))
    return out


def test_c01_decision_routes_agree():
    with criterion(1, "direct and shrunk routes agree on 200 seeded sets") as bad:
        for idx, (X, k, chosen, lams) in enumerate(_random_instances(200)):
            direct = joint_antipodal_direct(X, chosen)
            if not verify_joint_certificate(X, direct):
                bad.append(("direct-cert", idx))
                continue
            for lam in lams:
                shrunk = joint_antipodal_shrunk(X, chosen, lam)
                if shrunk.antipodal != direct.antipodal:
                    bad.append(("disagree", idx, lam))
                elif not verify_joint_certificate(X, shrunk):
                    bad.append(("shrunk-cert", idx, lam))


def test_c02_cube_meets_the_rank_one_bound():
    with criterion(2, "cubes d=2,3,4 are rank-1 antipodal at the exact cap") as bad:
        for d in (2, 3, 4):
            X = _cube(d)
            report = is_rank_k_antipodal(X, 1)
            if not (report.antipodal and report.exhaustive):
                bad.append(("not antipodal", d))
                continue
            if 2**d != floor(size_bound(d, 1)):
                bad.append(("cap mismatch", d))
            _VERIFIED.append((X, 1))


def test_c03_simplices_and_their_supersets():
    with criterion(3, "k-simplex vertices pass for k=d<=5, any extra point breaks it") as bad:
        for d in (1, 2, 3, 4, 5):
            X = _corner_simplex(d)
            if not is_rank_k_antipodal(X, d).antipodal:
                bad.append(("simplex fails", d))
                continue
            _VERIFIED.append((X, d))
            inner = tuple(ratio(1, 2 * (t + 3)) for t in range(d))
            bigger = PointSet(X.points + (inner,))
            if is_rank_k_antipodal(bigger, d).antipodal:
                bad.append(("superset passes", d))


def test_c04_common_point_of_shrunk_copies():
    with criterion(4, "designated point lies in every closed shrunk copy, 500 instances") as bad:
        rng = random.Random(SUITE_SEED + 4)
        for idx in range(500):
            k = rng.randint(1, 3)
            d = rng.randint(1, 3)
            n = rng.randint(k + 1, 6)
            pts = set()
            while len(pts) < n:
                pts.add(
                    tuple(
                        ratio(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in range(d)
                    )
                )
            X = PointSet(tuple(sorted(pts)))
            chosen = rng.sample(range(n), k + 1)
            raw = [rng.randint(1, 10) for _ in range(k + 1)]
            total = sum(raw)
            lams = [1 - ratio(a, total) for a in raw]
            p = tuple(
                sum((1 - lam) * X[q][t] for lam, q in zip(lams, chosen))
                for t in range(d)
            )
            for lam, q in zip(lams, chosen):
                if not member(X, homothety(X[q], 1 / lam, p)):
                    bad.append((idx, q))


def test_c05_volume_inequality():
    with criterion(5, "shrunk-copy volumes stay under k times the total, tight on cubes") as bad:
        cases = [
            (_ps((0,), (1,)), 1, True),
            (_cube(2), 1, True),
            (_cube(3), 1, True),
            (_ps((0, 0), (1, 0), (0, 1)), 1, False),
            (_ps((0, 0), (1, 0), (0, 1)), 2, False),
            (_corner_simplex(3), 3, False),
        ]
        for X, k, expect_tight in cases:
            report = volume_inequality_check(X, k)
            if not (report.holds and report.ratios_match):
                bad.append(("fails", X.dim, k))
            if report.tight != expect_tight:
                bad.append(("tightness", X.dim, k))
            _VERIFIED.append((X, k))


def test_c06_hash_code_exact_values():
    with criterion(6, "exact small-code sizes and the frozen ternary constant") as bad:
        built = []
        for b, k in ((2, 2), (3, 3), (4, 3), (4, 4)):
            result = max_code(b, k, 1)
            built.append(result.code)
            if not result.optimal or len(result.code) != b:
                bad.append(("length-one", b, k))
        for m in (1, 2, 3, 4):
            result = max_code(2, 2, m)
            built.append(result.code)
            if not result.optimal or len(result.code) != 2**m:
                bad.append(("binary", m))
        ternary = max_code(3, 3, 2)
        built.append(ternary.code)
        frozen_constant = 4
        if not ternary.optimal or len(ternary.code) != frozen_constant:
            bad.append("ternary size")
        if counting_bound(3, 3, 2) != ratio(9, 2):
            bad.append("ternary bound value")
        if len(ternary.code) > floor(counting_bound(3, 3, 2)):
            bad.append("ternary bound broken")
        built.append(greedy_code(3, 3, 2))
        built.append(random_code(3, 3, 10, seed=SUITE_SEED))
        built.append(random_code(2, 2, 4, seed=SUITE_SEED))
        for code in built:
            ok, batch = is_perfect(code)
            if not ok:
                bad.append(("imperfect", code.b, code.k, code.m, batch))


def test_c07_product_pipeline():
    with criterion(7, "segment and triangle products give antipodal sets of full size") as bad:
        segment = StartingConfig(_ps((0,), (1,)), rank=1)
        cube_code = greedy_code(2, 2, 3)  # keeps all 8 words
        built = product_construct(segment, cube_code)
        if built.result.points != _cube(3).points:
            bad.append("cube mismatch")
        if not is_rank_k_antipodal(built.result, 1).antipodal:
            bad.append("cube not rank-1")
        else:
            _VERIFIED.append((built.result, 1))

        triangle = StartingConfig(_ps((0, 0), (1, 0), (0, 1)), rank=2)
        ternary = max_code(3, 3, 2).code
        prod = product_construct(triangle, ternary)
        if prod.result.dim != 4 or len(prod.result) != len(ternary):
            bad.append("triangle shape")
        report = is_rank_k_antipodal(prod.result, 2)
        if not (report.antipodal and report.exhaustive):
            bad.append("triangle not rank-2")
        else:
            _VERIFIED.append((prod.result, 2))
        for chosen in combinations(range(len(prod.result)), 3):
            cert, _ = projection_certificate(prod, chosen)
            if not verify_joint_certificate(prod.result, cert):
                bad.append(("projection", chosen))


def test_c08_no_verified_set_beats_the_bound():
    with criterion(8, "every verified set fits under the floored size bound") as bad:
        if len(_VERIFIED) < 10:
            bad.append("registry unexpectedly small")
        for X, k in _VERIFIED:
            if len(X) > floor(size_bound(X.dim, k)):
                bad.append((X.dim, k, len(X)))


def test_c09_gap_reports():
    with criterion(9, "gap report: zero for the segment, positive and non-integral beyond") as bad:
        flat = gap_analysis(1, 1, 2)
        if not flat.zero_gap or flat.exponent != LogRatio(1, 2):
            bad.append("segment gap")
        if not flat.equalizing_integral:
            bad.append("segment integrality")
        for k, d0, b in ((2, 2, 3), (2, 3, 3), (3, 3, 4), (3, 4, 4)):
            report = gap_analysis(k, d0, b)
            if not report.gap_positive:
                bad.append(("not positive", k, d0, b))
            if report.equalizing_integral:
                bad.append(("integral", k, d0, b))
        if gap_analysis(2, 2, 3).equalizing_size != ratio(9, 2):
            bad.append("equalizing value")


def test_c10_discrimination_matches_antipodality():
    with criterion(10, "zero error exactly on antipodal tuples; bit oracle; subadditivity") as bad:
        for idx, (X, k, chosen, _) in enumerate(_random_instances(200)):
            states = tuple(X[i] for i in chosen)
            value, _meas = min_error(X, states)
            antipodal = joint_antipodal_direct(X, chosen).antipodal
            if (value == 0) != antipodal:
                bad.append(("equivalence", idx))
            if not (0 <= value <= k):
                bad.append(("range", idx))
        bit = StandardSimplex(1).vertices
        value, _ = min_error(bit, (("1/2", "1/2"), (1, 0)))
        if value != ratio(1, 2):
            bad.append("bit oracle")
        report = classical_subadditivity_check(3, 2, trials=200, seed=SUITE_SEED)
        if not report.all_hold or report.worst_slack < 0:
            bad.append("subadditivity")


def test_c11_reports_are_byte_identical(tmp_path, capsys):
    with criterion(11, "seeded CLI reruns give identical bytes") as bad:
        cube_path = tmp_path / "cube.json"
        dump_point_set(_cube(3), cube_path)

        def run(*argv):
            code = cli_main(list(argv))
            return code, capsys.readouterr().out

        pairs = [
            ("check-rank", str(cube_path), "--k", "1"),
            ("check-rank", str(cube_path), "--k", "2"),
            ("check-joint", str(cube_path), "0", "7", "--lambda", "1/3,2/3"),
            ("hash-random", "--b", "3", "--k", "3", "--m", "6", "--seed", "7"),
            ("hash-search", "--b", "3", "--k", "3", "--m", "2"),
        ]
        for argv in pairs:
            code_a, out_a = run(*argv)
            code_b, out_b = run(*argv)
            if out_a != out_b or code_a != code_b:
                bad.append(("rerun", argv[0]))
            json.loads(out_a)  # reports stay parseable
        again = repr(classical_subadditivity_check(3, 2, trials=10, seed=SUITE_SEED))
        if again != repr(classical_subadditivity_check(3, 2, trials=10, seed=SUITE_SEED)):
            bad.append("subadditivity rerun")
