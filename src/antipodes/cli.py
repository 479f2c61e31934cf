"""Command line surface.

Every verb prints one JSON report to stdout and exits with:
  0  property holds / construction succeeded
  1  property fails (a certificate is part of the report)
  2  usage or input error
  3  search budget exhausted
  4  internal error: a solver or certificate self-check failed (the
     report names the layer; this is a bug, never a verdict)

Rationals appear as "p/q" strings; --decimal appends an approximate
rendering.  --verify re-parses the canonical report (its text without
decimals) and re-checks its claims and certificates against the inputs
as the verb parsed them, without reading any file again; the printed
report is the canonical one plus "verified".  A report that cannot be
rendered (a number past the interpreter's digit limit) ends in exit 2.
A reader that closes stdout early does not change the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from json.encoder import encode_basestring_ascii
from math import comb, floor

from .antipodality import (
    AntipodalityCertificate,
    AntipodalityError,
    CertificateError,
    _first_coincidence,
    _refuse_exhaustive,
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
    error_prob,
    min_error,
)
from .exact_lp import LPError, SolverInvariantError
from .geometry import (
    AffineMap,
    GeometryError,
    load_point_set,
)
from .hashcodes import (
    BATCH_LIMIT,
    DEFAULT_BUDGET,
    HashCodeError,
    _separated,
    code_from_obj,
    code_to_obj,
    counting_bound,
    greedy_code,
    is_perfect,
    load_code,
    max_code,
    random_code,
)
from .rationals import ScalarError, ratio

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
_BOUND_LIMIT = 10**MAX_BOUND_DIGITS


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
        return f"{Decimal(x.numerator) / Decimal(x.denominator):.6g}"


_scalar = json.JSONEncoder(sort_keys=True).encode
_LITERALS = {True: "true", False: "false", None: "null"}


def _render(tree, decimal=False, indent="\n") -> str:
    """`json.dumps(tree, indent=2, sort_keys=True)` without the reference
    cycle its pure-Python encoder leaves: only scalars and keys go to json.
    Strings, bools, None and ints are written as json writes them, without
    building an encoder per scalar; `int.__repr__` still refuses an int
    past the digit limit.  A Fraction is written as the string "p/q", with
    " (approx ...)" appended when decimal is set."""
    inner = indent + "  "
    if isinstance(tree, str):
        return encode_basestring_ascii(tree)
    if isinstance(tree, Fraction):
        # "p/q" and the approximation need no escaping.
        if decimal:
            return f'"{tree} (approx {_approx(tree)})"'
        return f'"{tree}"'
    if tree is None or isinstance(tree, bool):
        return _LITERALS[tree]
    if isinstance(tree, int):
        return int.__repr__(tree)
    if isinstance(tree, dict) and tree:
        items = [f"{_render(k)}: {_render(v, decimal, inner)}" for k, v in sorted(tree.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(tree, (list, tuple)) and tree:
        items = [_render(v, decimal, inner) for v in tree]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return _scalar(tree)


def _fraction_text(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not a report value")


def _canonical(report):
    """The report as its replay reads it: the report's compact text, in
    json's C encoder (indent would not run there), read back, so every
    Fraction is its "p/q" string and every tuple a list."""
    return json.loads(json.dumps(report, default=_fraction_text))


@contextlib.contextmanager
def _rendering():
    """Python refuses to turn an int longer than its digit limit (4300
    digits by default) into a string, so a report holding one is refused
    rather than printed."""
    try:
        yield
    except ValueError as exc:
        raise RenderError(f"the report cannot be rendered: {exc}") from None


def _parse_point(obj):
    return tuple(ratio(s) for s in obj)


def _map_obj(mapping: AffineMap) -> dict:
    return {"matrix": mapping.matrix, "offset": mapping.offset}


def _parse_map(obj) -> AffineMap:
    # AffineMap reads the "p/q" strings straight into integers.
    return AffineMap(obj["matrix"], obj["offset"])


def _cert_obj(cert: AntipodalityCertificate) -> dict:
    out: dict = {"antipodal": cert.antipodal, "chosen": list(cert.chosen)}
    if cert.mapping is not None:
        out["map"] = _map_obj(cert.mapping)
    if cert.witness is not None:
        out["witness"] = cert.witness
        out["shrink_factors"] = cert.shrink_factors
    return out


def _parse_cert(obj) -> AntipodalityCertificate:
    return AntipodalityCertificate(
        antipodal=obj["antipodal"],
        chosen=tuple(obj["chosen"]),
        mapping=_parse_map(obj["map"]) if "map" in obj else None,
        witness=_parse_point(obj["witness"]) if "witness" in obj else None,
        shrink_factors=(
            tuple(ratio(s) for s in obj["shrink_factors"])
            if "shrink_factors" in obj
            else None
        ),
    )


def _log_obj(pair) -> dict:
    """A growth rate (coeff, arg), which stands for coeff * log(arg)."""
    coeff, arg = pair
    return {"coeff": coeff, "log_of": arg}


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
        claim = parsed["certificate"]
        if tuple(claim["chosen"]) != chosen:
            return False
        return verify_joint_certificate(X, _parse_cert(claim))

    return report, EXIT_HOLDS if cert.antipodal else EXIT_FAILS, replay


def _cmd_check_rank(args):
    X = load_point_set(args.file)
    _refuse_oversized_bound(X.dim, args.k)
    if args.sample is None and args.seed is None and args.k >= 1:
        # Refused here, so that the hint names the command-line flags; a
        # seed without --sample is refused by is_rank_k_antipodal.
        _refuse_exhaustive(len(X), args.k, "; pass --sample and --seed")
    result = is_rank_k_antipodal(X, args.k, samples=args.sample, seed=args.seed)
    bound = size_bound(X.dim, args.k)
    cap = floor(bound)
    report = {
        "verb": "check-rank",
        "k": args.k,
        "points": len(X),
        "dim": X.dim,
        "antipodal": result.antipodal,
        "exhaustive": result.exhaustive,
        "subsets_checked": result.subsets_checked,
        "bound": bound,
        "max_points": cap,
        "within_bound": len(X) <= cap,
    }
    if result.failing is not None:
        report["failing_subset"] = list(result.failing_subset)
        report["certificate"] = _cert_obj(result.failing)

    def replay(parsed):
        if (parsed["points"] <= parsed["max_points"]) != parsed["within_bound"]:
            return False
        if parsed["antipodal"]:
            return "certificate" not in parsed
        return _failing_claim_holds(X, parsed)

    return report, EXIT_HOLDS if result.antipodal else EXIT_FAILS, replay


def _failing_claim_holds(X, parsed) -> bool:
    """Does the report's certificate witness that its failing subset is
    not jointly antipodal?"""
    claim = parsed.get("certificate")
    return (
        claim is not None
        and not claim["antipodal"]
        and claim["chosen"] == parsed["failing_subset"]
        and verify_joint_certificate(X, _parse_cert(claim))
    )


def _erdos_report(X, k) -> dict:
    result = erdos_rank_k(X, k)
    report = {
        "verb": "check-erdos",
        "k": k,
        "points": len(X),
        "dim": X.dim,
        "holds": result.holds,
    }
    if not result.holds:
        report["failing_subset"] = list(result.failing_subset)
        report["offender"] = result.offender
        report["reason"] = result.reason
    return report


def _cmd_check_erdos(args):
    X = load_point_set(args.file)
    report = _erdos_report(X, args.k)

    def replay(parsed):
        return _canonical(_erdos_report(X, args.k)) == parsed

    return report, EXIT_HOLDS if report["holds"] else EXIT_FAILS, replay


def _strict_report(X, k) -> dict:
    result = strict_rank_k(X, k)
    report = {
        "verb": "check-strict",
        "k": k,
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
        if result.failing_certificate is not None:
            report["certificate"] = _cert_obj(result.failing_certificate)
        if result.forced_pair is not None:
            report["forced_point"] = result.forced_pair[0]
            report["forced_vertex"] = result.forced_pair[1]
    return report


def _cmd_check_strict(args):
    X = load_point_set(args.file)
    report = _strict_report(X, args.k)

    def replay(parsed):
        if not parsed["strict"]:
            # A forced coincidence carries no certificate yet: rerun.
            if parsed["cause"] == "forced":
                return _canonical(_strict_report(X, args.k)) == parsed
            return _failing_claim_holds(X, parsed)
        # One evidence map per (k+1)-subset, in index order.
        evidence = parsed["evidence"]
        subsets = list(combinations(range(len(X)), args.k + 1))
        if [tuple(item["subset"]) for item in evidence] != subsets:
            return False
        if parsed["subsets_checked"] != len(subsets):
            return False
        for item in evidence:
            subset = tuple(item["subset"])
            cert = AntipodalityCertificate(
                antipodal=True, chosen=subset, mapping=_parse_map(item["map"])
            )
            if not verify_joint_certificate(X, cert):
                return False
            if _first_coincidence(X, subset, cert.mapping) is not None:
                return False
        return True

    return report, EXIT_HOLDS if report["strict"] else EXIT_FAILS, replay


def _code_report(verb: str, code, extra: dict) -> dict:
    bound = counting_bound(code.b, code.k, code.m)
    report = {
        "verb": verb,
        "b": code.b,
        "k": code.k,
        "m": code.m,
        "size": len(code),
        "counting_bound": bound,
        "cap": floor(bound),
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
        again = code_from_obj(parsed["code"])
        if again != code or is_perfect(again)[0] != parsed["perfect"]:
            return False
        if parsed["perfect"]:
            return True
        # k distinct words of the code that no coordinate separates.
        batch = {tuple(w) for w in parsed["violating"]}
        return (
            len(parsed["violating"]) == len(batch) == code.k
            and batch <= set(code.words)
            and not _separated(batch, code.m)
        )

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
        _refuse_exhaustive(len(code), args.k, "; run without --verify")
    base = StartingConfig(points, rank=args.k)
    built = product_construct(base, code)
    cap = floor(size_bound(built.result.dim, args.k))
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
            "points": built.result.points,
        },
    }

    def replay(parsed):
        got = tuple(_parse_point(row) for row in parsed["result"]["points"])
        if got != built.result.points:
            return False
        # projection_certificate verifies each projected certificate
        # against built.result and raises when one fails.
        for chosen in combinations(range(len(built.result)), args.k + 1):
            projection_certificate(built, chosen)
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
        or base**d >= _BOUND_LIMIT
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
        "max_points": floor(bound),
    }

    def replay(parsed):
        return ratio(parsed["bound"]) == size_bound(args.d, args.k)

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
        return _canonical(again) == parsed

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
        total = ratio(parsed["total"])
        copies = [ratio(s) for s in parsed["copies"]]
        bound = ratio(parsed["bound"])
        expected = ratio(parsed["ratio_expected"])
        if bound != args.k * total:
            return False
        if any(c != expected * total for c in copies):
            return False
        return (sum(copies) <= bound) == parsed["holds"]

    return report, EXIT_HOLDS if result.holds else EXIT_FAILS, replay


def _cmd_discriminate(args):
    space = load_point_set(args.space)
    states = load_point_set(args.states)
    value, measurement = min_error(space, states)
    report = {
        "verb": "discriminate",
        "space_vertices": len(space),
        "states": len(states),
        "dim": space.dim,
        "min_error": value,
        "distinguishable": value == 0,
        "measurement": _map_obj(measurement.mapping),
    }

    def replay(parsed):
        claimed = ratio(parsed["min_error"])
        if parsed["distinguishable"] != (claimed == 0):
            return False
        meas = Measurement(space, _parse_map(parsed["measurement"]))
        return error_prob(meas, states) == claimed

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


def _error_text(exc, **extra) -> str:
    return _render({"error": str(exc), **extra})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, code, replay = args.handler(args)
        if args.verify:
            with _rendering():
                canonical = _canonical(report)
            verified = bool(replay(canonical))
            report["verified"] = verified
            if not verified and code == EXIT_HOLDS:
                code = EXIT_FAILS
        with _rendering():
            text = _render(report, args.decimal)
    except _INPUT_ERRORS as exc:
        text, code = _error_text(exc), EXIT_INPUT
    except _INTERNAL_ERRORS as exc:
        text = _error_text(exc, layer=type(exc).__module__.rpartition(".")[2])
        code = EXIT_INTERNAL
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early.  The verdict stands; stdout now
        # points at the null device, so the flush at shutdown stays quiet.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    return code


if __name__ == "__main__":
    sys.exit(main())
