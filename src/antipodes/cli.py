"""Command line surface.

Every verb prints one JSON report to stdout and exits with:
  0  property holds / construction succeeded
  1  property fails (a certificate is part of the report)
  2  usage or input error
  3  search budget exhausted
  4  internal error: a solver or certificate self-check failed (the
     report names the layer; this is a bug, never a verdict)

Rationals appear as "p/q" strings; --decimal appends an approximate
rendering.  --verify re-parses the canonical report and re-checks its
certificates before printing.  A report that cannot be rendered (a
number past the interpreter's digit limit) ends in exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from decimal import Decimal
from math import comb

from .antipodality import (
    EXHAUSTIVE_LIMIT,
    AntipodalityCertificate,
    AntipodalityError,
    CertificateError,
    erdos_rank_k,
    is_rank_k_antipodal,
    joint_antipodal_direct,
    joint_antipodal_shrunk,
    strict_rank_k,
    verify_joint_certificate,
)
from .construction import (
    ConstructionError,
    StartingConfig,
    gap_analysis,
    product_construct,
    projection_certificate,
    size_bound,
    volume_inequality_check,
)
from .discrimination import (
    DiscriminationError,
    Measurement,
    StateSpace,
    error_prob,
    min_error,
)
from .exact_lp import LPError, SolverInvariantError
from .geometry import (
    AffineMap,
    GeometryError,
    Polytope,
    load_point_set,
)
from .hashcodes import (
    BATCH_LIMIT,
    DEFAULT_BUDGET,
    HashCodeError,
    code_from_obj,
    code_to_obj,
    counting_bound,
    greedy_code,
    is_perfect,
    load_code,
    max_code,
    random_code,
)
from .rationals import ScalarError, floor_ratio, is_rational, ratio, ratio_str

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

#: Longest number, in decimal digits, that bounds, gap, check-rank and
#: construct will build.  The size bound k((k+1)/k)^d is (k+1)^d / k^(d-1)
#: in lowest terms, the largest number these reports hold; Python refuses
#: to render an int longer than 4300 digits by default.
MAX_BOUND_DIGITS = 4300


class RenderError(ValueError):
    """A report number too long for the interpreter to turn into a string."""


_INPUT_ERRORS = (
    RenderError,
    AntipodalityError,
    ConstructionError,
    DiscriminationError,
    GeometryError,
    HashCodeError,
    LPError,
    ScalarError,
    OSError,
    json.JSONDecodeError,
)

# Self-checks of the kernel that failed: bugs, reported apart from verdicts.
_INTERNAL_ERRORS = (SolverInvariantError, CertificateError)


# ---------------------------------------------------------------------------
# rendering


def _approx(x) -> str:
    """x to 6 significant digits, through float when x is in its range,
    else through Decimal."""
    try:
        return f"{float(x):.6g}"
    except OverflowError:
        return f"{Decimal(int(x.numerator)) / Decimal(int(x.denominator)):.6g}"


def _finalize(tree, decimal: bool):
    """Convert a report tree into plain JSON values."""
    if is_rational(tree):
        text = ratio_str(tree)
        if decimal:
            return f"{text} (approx {_approx(tree)})"
        return text
    if isinstance(tree, dict):
        return {key: _finalize(value, decimal) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_finalize(item, decimal) for item in tree]
    return tree


def _render(report, decimal: bool) -> str:
    """The report as JSON text.  Python refuses to turn an int longer than
    its digit limit (4300 digits by default) into a string, so a report
    holding one is refused rather than printed."""
    try:
        return json.dumps(_finalize(report, decimal), indent=2, sort_keys=True)
    except ValueError as exc:
        raise RenderError(f"the report cannot be rendered: {exc}") from None


def _parse_rational(text: str):
    return ratio(text.split(" ")[0])


def _point_obj(p):
    return [ratio(c) for c in p]


def _parse_point(obj):
    return tuple(_parse_rational(s) for s in obj)


def _map_obj(mapping: AffineMap) -> dict:
    return {
        "matrix": [[ratio(c) for c in row] for row in mapping.matrix],
        "offset": [ratio(c) for c in mapping.offset],
    }


def _parse_map(obj) -> AffineMap:
    return AffineMap(
        tuple(tuple(_parse_rational(s) for s in row) for row in obj["matrix"]),
        tuple(_parse_rational(s) for s in obj["offset"]),
    )


def _cert_obj(cert: AntipodalityCertificate) -> dict:
    out: dict = {"antipodal": cert.antipodal, "chosen": list(cert.chosen)}
    if cert.mapping is not None:
        out["map"] = _map_obj(cert.mapping)
    if cert.witness is not None:
        out["witness"] = _point_obj(cert.witness)
        out["shrink_factors"] = [ratio(f) for f in cert.shrink_factors]
    return out


def _parse_cert(obj) -> AntipodalityCertificate:
    return AntipodalityCertificate(
        antipodal=obj["antipodal"],
        chosen=tuple(obj["chosen"]),
        mapping=_parse_map(obj["map"]) if "map" in obj else None,
        witness=_parse_point(obj["witness"]) if "witness" in obj else None,
        shrink_factors=(
            tuple(_parse_rational(s) for s in obj["shrink_factors"])
            if "shrink_factors" in obj
            else None
        ),
    )


def _log_obj(value) -> dict:
    return {"coeff": ratio(value.coeff), "log_of": ratio(value.arg)}


# ---------------------------------------------------------------------------
# verbs


def _cmd_check_joint(args):
    X = load_point_set(args.file)
    chosen = tuple(args.chosen)
    if args.lam is not None:
        factors = tuple(ratio(part) for part in args.lam.split(","))
        cert = joint_antipodal_shrunk(X, chosen, factors)
        route = "shrunk"
    else:
        cert = joint_antipodal_direct(X, chosen)
        route = "direct"
    report = {
        "verb": "check-joint",
        "route": route,
        "points": len(X),
        "dim": X.dim,
        "certificate": _cert_obj(cert),
    }

    def replay(parsed):
        return verify_joint_certificate(
            load_point_set(args.file), _parse_cert(parsed["certificate"])
        )

    return report, EXIT_HOLDS if cert.antipodal else EXIT_FAILS, replay


def _cmd_check_rank(args):
    X = load_point_set(args.file)
    _refuse_oversized_bound(X.dim, args.k)
    result = is_rank_k_antipodal(X, args.k, samples=args.sample, seed=args.seed)
    cap = floor_ratio(size_bound(X.dim, args.k))
    report = {
        "verb": "check-rank",
        "k": args.k,
        "points": len(X),
        "dim": X.dim,
        "antipodal": result.antipodal,
        "exhaustive": result.exhaustive,
        "subsets_checked": result.subsets_checked,
        "bound": size_bound(X.dim, args.k),
        "max_points": cap,
        "within_bound": len(X) <= cap,
    }
    if result.failing is not None:
        report["failing_subset"] = list(result.failing_subset)
        report["certificate"] = _cert_obj(result.failing)

    def replay(parsed):
        if "certificate" in parsed:
            return verify_joint_certificate(
                load_point_set(args.file), _parse_cert(parsed["certificate"])
            )
        return (parsed["points"] <= parsed["max_points"]) == parsed["within_bound"]

    return report, EXIT_HOLDS if result.antipodal else EXIT_FAILS, replay


def _cmd_check_erdos(args):
    X = load_point_set(args.file)
    result = erdos_rank_k(X, args.k)
    report = {
        "verb": "check-erdos",
        "k": args.k,
        "points": len(X),
        "dim": X.dim,
        "holds": result.holds,
    }
    if not result.holds:
        report["failing_subset"] = list(result.failing_subset)
        report["offender"] = result.offender
        report["reason"] = result.reason

    def replay(parsed):
        again, _, _ = _cmd_check_erdos(args)
        return _finalize(again, False) == parsed

    return report, EXIT_HOLDS if result.holds else EXIT_FAILS, replay


def _cmd_check_strict(args):
    X = load_point_set(args.file)
    result = strict_rank_k(X, args.k)
    report = {
        "verb": "check-strict",
        "k": args.k,
        "points": len(X),
        "dim": X.dim,
        "strict": result.strict,
        "subsets_checked": result.subsets_checked,
    }
    if result.strict:
        report["evidence"] = [
            {"subset": list(subset), "map": _map_obj(mapping)}
            for subset, mapping in result.evidence
        ]
    else:
        report["failing_subset"] = list(result.failing_subset)
        report["cause"] = result.cause
        if result.forced_pair is not None:
            report["forced_point"] = result.forced_pair[0]
            report["forced_vertex"] = result.forced_pair[1]

    def replay(parsed):
        if not parsed["strict"]:
            again, _, _ = _cmd_check_strict(args)
            return _finalize(again, False) == parsed
        Y = load_point_set(args.file)
        for item in parsed["evidence"]:
            subset = tuple(item["subset"])
            cert = AntipodalityCertificate(
                antipodal=True, chosen=subset, mapping=_parse_map(item["map"])
            )
            if not verify_joint_certificate(Y, cert):
                return False
            others = [i for i in range(len(Y)) if i not in subset]
            for i in others:
                image = cert.mapping.apply(Y[i])
                if any(c == 1 for c in image):
                    return False
        return True

    return report, EXIT_HOLDS if result.strict else EXIT_FAILS, replay


def _code_report(verb: str, code, extra: dict) -> dict:
    report = {
        "verb": verb,
        "b": code.b,
        "k": code.k,
        "m": code.m,
        "size": len(code),
        "counting_bound": counting_bound(code.b, code.k, code.m),
        "cap": floor_ratio(counting_bound(code.b, code.k, code.m)),
        "code": code_to_obj(code),
    }
    report.update(extra)
    return report


def _replay_code(parsed):
    code = code_from_obj(parsed["code"])
    ok, _ = is_perfect(code)
    return ok and len(code) == parsed["size"]


def _cmd_hash_verify(args):
    code = load_code(args.file)
    batches = comb(len(code), code.k)
    if batches > BATCH_LIMIT:
        raise HashCodeError(
            f"{len(code)} words of order {code.k} make {batches} batches, "
            f"more than the batch limit {BATCH_LIMIT}"
        )
    ok, batch = is_perfect(code)
    extra: dict = {"perfect": ok}
    if not ok:
        extra["violating"] = [list(w) for w in batch]
    report = _code_report("hash-verify", code, extra)

    def replay(parsed):
        again, bad = is_perfect(code_from_obj(parsed["code"]))
        return again == parsed["perfect"]

    return report, EXIT_HOLDS if ok else EXIT_FAILS, replay


def _cmd_hash_search(args):
    result = max_code(args.b, args.k, args.m, budget=args.budget)
    report = _code_report(
        "hash-search",
        result.code,
        {"optimal": result.optimal, "nodes": result.nodes},
    )
    code = EXIT_HOLDS if result.optimal else EXIT_BUDGET
    return report, code, _replay_code


def _cmd_hash_greedy(args):
    code = greedy_code(args.b, args.k, args.m)
    return _code_report("hash-greedy", code, {}), EXIT_HOLDS, _replay_code


def _cmd_hash_random(args):
    code = random_code(args.b, args.k, args.m, seed=args.seed)
    report = _code_report("hash-random", code, {"seed": args.seed})
    return report, EXIT_HOLDS, _replay_code


def _cmd_construct(args):
    points = load_point_set(args.base)
    code = load_code(args.code)
    # The product has one d0-block per code coordinate.
    _refuse_oversized_bound(points.dim * code.m, args.k)
    # The replay certifies every (k+1)-subset of the product's points,
    # one per code word.
    if args.verify and args.k >= 1:
        subsets = comb(len(code), args.k + 1)
        if subsets > EXHAUSTIVE_LIMIT:
            raise ConstructionError(
                f"--verify: {subsets} subsets exceed the exhaustive limit "
                f"{EXHAUSTIVE_LIMIT}"
            )
    base = StartingConfig(points, rank=args.k)
    built = product_construct(base, code)
    cap = floor_ratio(size_bound(built.result.dim, args.k))
    report = {
        "verb": "construct",
        "k": args.k,
        "base_points": base.b,
        "base_dim": base.d0,
        "code_size": len(code),
        "code_length": code.m,
        "dim": built.result.dim,
        "size": len(built.result),
        "max_points": cap,
        "within_bound": len(built.result) <= cap,
        "result": {
            "dim": built.result.dim,
            "points": [_point_obj(p) for p in built.result],
        },
    }

    def replay(parsed):
        fresh = product_construct(
            StartingConfig(load_point_set(args.base), rank=args.k),
            load_code(args.code),
        )
        points = tuple(_parse_point(row) for row in parsed["result"]["points"])
        if points != fresh.result.points:
            return False
        from itertools import combinations

        # projection_certificate verifies each projected certificate
        # against fresh.result and raises when one fails.
        for chosen in combinations(range(len(fresh.result)), args.k + 1):
            projection_certificate(fresh, chosen)
        return True

    return report, EXIT_HOLDS, replay


def _refuse_oversized_bound(d: int, k: int):
    """Refuse d, k whose size bound numerator (k+1)^d has more than
    MAX_BOUND_DIGITS digits, without building it when it is far larger."""
    if k < 1 or d < k:
        return  # size_bound itself rejects these
    base = k + 1
    # (k+1)^d >= 2^(d*(bits-1)) and 10^L < 2^(4L): the first test settles
    # every huge d, and the exact test then only sees powers of <= 8L bits.
    if (
        d * (base.bit_length() - 1) > 4 * MAX_BOUND_DIGITS
        or base**d >= 10**MAX_BOUND_DIGITS
    ):
        raise ConstructionError(
            f"the size bound for d={d}, k={k} has more than "
            f"{MAX_BOUND_DIGITS} digits"
        )


def _cmd_bounds(args):
    _refuse_oversized_bound(args.d, args.k)
    bound = size_bound(args.d, args.k)
    report = {
        "verb": "bounds",
        "d": args.d,
        "k": args.k,
        "bound": bound,
        "max_points": floor_ratio(bound),
    }

    def replay(parsed):
        return _parse_rational(parsed["bound"]) == size_bound(args.d, args.k)

    return report, EXIT_HOLDS, replay


def _cmd_gap(args):
    _refuse_oversized_bound(args.d, args.k)
    result = gap_analysis(args.k, args.d, args.b)
    report = {
        "verb": "gap",
        "k": args.k,
        "d0": args.d,
        "b": args.b,
        "exponent": _log_obj(result.exponent),
        "limit": _log_obj(result.limit),
        "zero_gap": result.zero_gap,
        "gap_positive": result.gap_positive,
        "equalizing_size": result.equalizing_size,
        "equalizing_integral": result.equalizing_integral,
    }

    def replay(parsed):
        again, _, _ = _cmd_gap(args)
        return _finalize(again, False) == parsed

    return report, EXIT_HOLDS, replay


def _cmd_volume_check(args):
    X = load_point_set(args.file)
    result = volume_inequality_check(X, args.k)
    report = {
        "verb": "volume-check",
        "k": args.k,
        "dim": result.dim,
        "points": len(X),
        "total": result.total,
        "copies": list(result.copies),
        "bound": result.bound,
        "ratio_expected": result.ratio_expected,
        "ratios_match": result.ratios_match,
        "holds": result.holds,
        "tight": result.tight,
    }

    def replay(parsed):
        total = _parse_rational(parsed["total"])
        copies = [_parse_rational(s) for s in parsed["copies"]]
        bound = _parse_rational(parsed["bound"])
        expected = _parse_rational(parsed["ratio_expected"])
        if bound != args.k * total:
            return False
        if any(c != expected * total for c in copies):
            return False
        return (sum(copies) <= bound) == parsed["holds"]

    return report, EXIT_HOLDS if result.holds else EXIT_FAILS, replay


def _cmd_discriminate(args):
    space = StateSpace(Polytope(load_point_set(args.space)))
    states = load_point_set(args.states)
    value, measurement = min_error(space, states.points)
    report = {
        "verb": "discriminate",
        "space_vertices": len(space.vertices),
        "states": len(states),
        "dim": space.dim,
        "min_error": value,
        "distinguishable": value == 0,
        "measurement": _map_obj(measurement.mapping),
    }

    def replay(parsed):
        sp = StateSpace(Polytope(load_point_set(args.space)))
        meas = Measurement(sp, _parse_map(parsed["measurement"]))
        got = error_prob(meas, load_point_set(args.states).points)
        return got == _parse_rational(parsed["min_error"])

    return report, EXIT_HOLDS if value == 0 else EXIT_FAILS, replay


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antipodes",
        description="Decide, certify, and construct higher-rank antipodal point sets.",
    )
    parser.add_argument("--decimal", action="store_true", help="add approximate float renderings")
    parser.add_argument("--verify", action="store_true", help="re-parse the report and re-check its certificates")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check-joint", help="joint antipodality of chosen points")
    p.add_argument("file")
    p.add_argument("chosen", nargs="+", type=int)
    p.add_argument("--lambda", dest="lam", help="comma-separated shrink factors, sum k")
    p.set_defaults(handler=_cmd_check_joint)

    p = sub.add_parser("check-rank", help="rank-k antipodality of a point set")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_check_rank)

    p = sub.add_parser("check-erdos", help="projection criterion for every subset")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_check_erdos)

    p = sub.add_parser("check-strict", help="strict antipodality, no point forced onto a vertex")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_check_strict)

    p = sub.add_parser("hash-verify", help="check the separation property of a code file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_hash_verify)

    p = sub.add_parser("hash-search", help="exact maximum code by branch and bound")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(handler=_cmd_hash_search)

    p = sub.add_parser("hash-greedy", help="greedy code in one lexicographic sweep")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_hash_greedy)

    p = sub.add_parser("hash-random", help="seeded sample-and-delete code")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_hash_random)

    p = sub.add_parser("construct", help="product of a rank-k base with a hash code")
    p.add_argument("base")
    p.add_argument("code")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("bounds", help="size bound for rank-k sets in dimension d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("gap", help="construction rate versus the size bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True, help="base dimension d0")
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(handler=_cmd_gap)

    p = sub.add_parser("volume-check", help="shrunk-copy volume inequality")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_volume_check)

    p = sub.add_parser("discriminate", help="minimum-error discrimination of states")
    p.add_argument("space")
    p.add_argument("states")
    p.set_defaults(handler=_cmd_discriminate)

    return parser


def _print_error(exc, **extra):
    print(json.dumps({"error": str(exc), **extra}, indent=2, sort_keys=True))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, code, replay = args.handler(args)
        if args.verify:
            verified = bool(replay(json.loads(_render(report, False))))
            report["verified"] = verified
            if not verified and code == EXIT_HOLDS:
                code = EXIT_FAILS
        text = _render(report, args.decimal)
    except _INPUT_ERRORS as exc:
        _print_error(exc)
        return EXIT_INPUT
    except _INTERNAL_ERRORS as exc:
        _print_error(exc, layer=type(exc).__module__.rpartition(".")[2])
        return EXIT_INTERNAL
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
