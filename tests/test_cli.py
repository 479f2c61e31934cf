"""End-to-end command line behavior: reports, exit codes, determinism."""

import dataclasses
import gc
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import antipodes
from antipodes import antipodality, cli, geometry, hashcodes
from antipodes.antipodality import CertificateError, RankReport
from antipodes.cli import _build_parser, main
from antipodes.exact_lp import SolverInvariantError
from antipodes.geometry import PointSet, dump_point_set
from antipodes.hashcodes import (
    DEFAULT_BUDGET,
    HashCode,
    dump_code,
    greedy_code,
    max_code,
)
from antipodes.rationals import ratio


def _ps(*rows):
    return PointSet(tuple(tuple(ratio(c) for c in row) for row in rows))


@pytest.fixture
def files(tmp_path):
    paths = {}

    def save_points(name, ps):
        path = tmp_path / f"{name}.json"
        dump_point_set(ps, path)
        paths[name] = str(path)

    save_points("square", _ps(*product((0, 1), repeat=2)))
    save_points("cube", _ps(*product((0, 1), repeat=3)))
    save_points("segment", _ps((0,), (1,)))
    save_points("collinear", _ps((0,), ("1/2",), (1,)))
    save_points("obtuse", _ps((0, 0), (4, 0), (5, 2)))
    save_points("triangle", _ps((0, 0), (1, 0), (0, 1)))
    save_points("bit_space", _ps((1, 0), (0, 1)))
    save_points("bit_states", _ps(("1/2", "1/2"), (1, 0)))
    save_points("bit_vertices", _ps((1, 0), (0, 1)))
    save_points(
        "tilted",
        _ps((-3, 3, -2), (-1, 3, -2), (0, -2, -3), (0, 0, -3), (0, 0, 3), (1, -3, 2),
            (3, -3, 2)),
    )
    save_points(
        "spread",
        _ps((-6, -2, 0, -5), (-6, 4, -6, -3), (-6, 6, -6, -2), (-4, 2, 6, 2),
            (-3, 0, 3, -5), (1, 6, 2, 3), (4, 2, 2, -4)),
    )

    code_path = tmp_path / "cube_code.json"
    dump_code(greedy_code(2, 2, 3), code_path)
    paths["cube_code"] = str(code_path)

    tern_path = tmp_path / "ternary_code.json"
    dump_code(max_code(3, 3, 2).code, tern_path)
    paths["ternary_code"] = str(tern_path)

    # (1,1), (1,2), (2,2): no coordinate separates them.
    loose_path = tmp_path / "loose_code.json"
    dump_code(HashCode(3, 3, 2, ((1, 1), (1, 2), (2, 2))), loose_path)
    paths["loose_code"] = str(loose_path)

    bad_path = tmp_path / "broken.json"
    bad_path.write_text('{"dim": 2, "points": [["1/2", "oops"]]}')
    paths["broken"] = str(bad_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_check_joint_holds(files, capsys):
    code, report, _ = run(capsys, "check-joint", files["square"], "0", "3")
    assert code == 0
    assert report["certificate"]["antipodal"]
    assert report["route"] == "direct"


def test_check_joint_fails_with_witness(files, capsys):
    code, report, _ = run(capsys, "check-joint", files["collinear"], "0", "1")
    assert code == 1
    cert = report["certificate"]
    assert not cert["antipodal"]
    assert "witness" in cert and "shrink_factors" in cert


def test_check_joint_lambda_route(files, capsys):
    code, report, _ = run(
        capsys, "--verify", "check-joint", files["square"], "0", "3",
        "--lambda", "1/3,2/3",
    )
    assert code == 0
    assert report["route"] == "shrunk"
    assert report["verified"] is True


def test_check_joint_verify_replay(files, capsys):
    code, report, _ = run(
        capsys, "--verify", "check-joint", files["collinear"], "0", "1"
    )
    assert code == 1
    assert report["verified"] is True


def test_check_rank_cube(files, capsys):
    code, report, _ = run(capsys, "check-rank", files["cube"], "--k", "1")
    assert code == 0
    assert report["antipodal"] and report["within_bound"]
    assert report["max_points"] == 8

    code, report, _ = run(
        capsys, "--verify", "check-rank", files["cube"], "--k", "2"
    )
    assert code == 1
    assert report["failing_subset"] == [0, 1, 2]
    assert report["verified"] is True


def _map(matrix, offset):
    return {"matrix": matrix, "offset": offset}


def test_check_joint_map_pins(files, capsys):
    # Exact maps: they move if the presolved map program's row order
    # drifts.  Its rows are outputs 0..k >= 0 at each unpinned point in
    # index order.  The cube's programs are feasible at the slack basis,
    # so its maps pin the starting basis but no longer the row order.
    cube_map = _map([["-1", "0", "0"], ["1", "0", "0"]], ["1", "0"])
    for extra, route in (((), "direct"), (("--lambda", "1/2,1/2"), "shrunk")):
        code, report, _ = run(capsys, "check-joint", files["cube"], "0", "7", *extra)
        assert code == 0
        assert report["route"] == route
        assert report["certificate"] == {
            "antipodal": True, "chosen": [0, 7], "map": cube_map,
        }
    code, report, _ = run(capsys, "check-joint", files["cube"], "3", "4")
    assert code == 0
    assert report["certificate"]["map"] == cube_map
    code, report, _ = run(capsys, "check-joint", files["cube"], "0", "3")
    assert code == 0
    assert report["certificate"]["map"] == _map(
        [["0", "-1", "0"], ["0", "1", "0"]], ["1", "0"]
    )
    # (0, 3) of "tilted" moves if the points are listed in reverse or all
    # output-0 rows come last; (0, 4, 6) of "spread" moves if each point's
    # output-1 row comes first or all output-0 rows come last.
    tilted_map = _map([["-1/2", "-2/9", "1/6"], ["1/2", "2/9", "-1/6"]], ["1/2", "1/2"])
    for extra in ((), ("--lambda", "1/2,1/2")):
        code, report, _ = run(capsys, "check-joint", files["tilted"], "0", "3", *extra)
        assert code == 0
        assert report["certificate"]["map"] == tilted_map
    code, report, _ = run(capsys, "check-joint", files["spread"], "0", "4", "6")
    assert code == 0
    assert report["certificate"]["map"] == _map(
        [
            ["1/25", "-8/25", "-4/25", "1/5"],
            ["-23/125", "211/500", "59/250", "-8/25"],
            ["18/125", "-51/500", "-19/250", "3/25"],
        ],
        ["8/5", "-93/50", "63/50"],
    )


def test_check_strict_pins(files, capsys):
    code, report, _ = run(capsys, "check-strict", files["triangle"], "--k", "1")
    assert code == 0
    assert report["evidence"] == [
        {"subset": [0, 1], "map": _map([["-1", "-1/2"], ["1", "1/2"]], ["1", "0"])},
        {"subset": [0, 2], "map": _map([["-1/2", "-1"], ["1/2", "1"]], ["1", "0"])},
        {
            "subset": [1, 2],
            "map": _map([["1/2", "-1/2"], ["-1/2", "1/2"]], ["1/2", "1/2"]),
        },
    ]
    code, report, _ = run(capsys, "check-strict", files["square"], "--k", "1")
    assert code == 1
    assert report == {
        "verb": "check-strict", "k": 1, "points": 4, "dim": 2, "strict": False,
        "subsets_checked": 1, "failing_subset": [0, 1], "cause": "forced",
        "forced_point": 2, "forced_vertex": 0,
    }


def test_discriminate_pin(tmp_path, capsys):
    space = tmp_path / "space.json"
    dump_point_set(_ps((0, 0), (2, 0), (2, 1), (0, 3), ("1/2", "1/2")), space)
    states = tmp_path / "states.json"
    dump_point_set(_ps(("1/3", "1/2"), (1, "1/4"), ("1/2", 2)), states)
    code, report, _ = run(capsys, "discriminate", str(space), str(states))
    assert code == 1
    assert report["min_error"] == "23/18"
    assert report["measurement"] == _map(
        [["-1/3", "-1/3"], ["1/3", "0"], ["0", "1/3"]], ["1", "0", "0"]
    )


def test_repeat_runs_are_byte_identical(files, capsys):
    _, _, first = run(capsys, "check-strict", files["square"], "--k", "1")
    _, _, second = run(capsys, "check-strict", files["square"], "--k", "1")
    assert first == second


def test_check_erdos(files, capsys):
    code, report, _ = run(capsys, "check-erdos", files["square"], "--k", "1")
    assert code == 0 and report["holds"]
    code, report, _ = run(
        capsys, "--verify", "check-erdos", files["obtuse"], "--k", "1"
    )
    assert code == 1
    assert report["failing_subset"] == [0, 1]
    assert report["offender"] == 2
    assert report["verified"] is True


def test_check_strict(files, capsys):
    code, report, _ = run(
        capsys, "--verify", "check-strict", files["triangle"], "--k", "1"
    )
    assert code == 0 and report["strict"]
    assert report["verified"] is True
    code, report, _ = run(capsys, "check-strict", files["square"], "--k", "1")
    assert code == 1
    assert report["cause"] == "forced"
    assert report["forced_point"] == 2


def test_hash_verify(files, capsys):
    code, report, _ = run(capsys, "hash-verify", files["ternary_code"])
    assert code == 0 and report["perfect"]


def test_hash_search(files, capsys):
    code, report, _ = run(
        capsys, "--verify", "hash-search", "--b", "3", "--k", "3", "--m", "2"
    )
    assert code == 0
    assert report["optimal"] and report["size"] == 4
    assert report["cap"] == 4
    assert report["verified"] is True


def test_hash_search_budget_exit(files, capsys):
    code, report, _ = run(
        capsys, "hash-search", "--b", "3", "--k", "3", "--m", "2",
        "--budget", "1",
    )
    assert code == 3
    assert not report["optimal"]


def test_module_entry_point_matches_main(capsys):
    argv = ["hash-search", "--b", "3", "--k", "3", "--m", "2"]
    code = main(argv)
    out = capsys.readouterr().out
    src = str(Path(antipodes.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "antipodes", *argv], capture_output=True, env=env
    )
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()
    assert proc.stderr == b""


def test_closed_stdout_keeps_the_verdict():
    # The read end is closed before the child starts, so its first write
    # to stdout fails with a broken pipe.
    src = str(Path(antipodes.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    argv = ["hash-search", "--b", "6", "--k", "3", "--m", "3", "--budget", "20000"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "antipodes", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == b""


@pytest.mark.parametrize("m", ["500", "3000"])
def test_hash_random_refuses_long_codes_promptly(m):
    # The sample size is an exact integer root: the run reaches the batch
    # refusal instead of looping or overflowing a float.
    src = str(Path(antipodes.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    argv = ["hash-random", "--b", "3", "--k", "3", "--m", m, "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "antipodes", *argv],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "more than 1000000 batches" in json.loads(proc.stdout)["error"]
    assert proc.stderr == b""


def test_hash_search_keeps_every_word_at_order_two(capsys):
    # 1024 chosen words: deeper than the default recursion limit.
    code, report, _ = run(capsys, "hash-search", "--b", "32", "--k", "2", "--m", "2")
    assert code == 0
    assert report["optimal"] and report["size"] == 1024


def test_hash_greedy_and_random(files, capsys):
    code, report, _ = run(capsys, "hash-greedy", "--b", "3", "--k", "3", "--m", "2")
    assert code == 0 and report["size"] == 3
    code, _, first = run(
        capsys, "hash-random", "--b", "2", "--k", "2", "--m", "3", "--seed", "9"
    )
    assert code == 0
    _, _, second = run(
        capsys, "hash-random", "--b", "2", "--k", "2", "--m", "3", "--seed", "9"
    )
    assert first == second


def test_hash_random_requires_seed(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hash-random", "--b", "2", "--k", "2", "--m", "3"])
    assert exc.value.code == 2


def test_construct_cube_from_segment(files, capsys):
    code, report, _ = run(
        capsys, "--verify", "construct", files["segment"], files["cube_code"],
        "--k", "1",
    )
    assert code == 0
    assert report["dim"] == 3 and report["size"] == 8
    assert report["within_bound"]
    assert report["verified"] is True
    expected = [[str(a), str(b), str(c)] for a, b, c in product((0, 1), repeat=3)]
    assert report["result"]["points"] == expected


def test_bounds(files, capsys):
    code, report, _ = run(capsys, "--verify", "bounds", "--d", "3", "--k", "2")
    assert code == 0
    assert report["bound"] == "27/4"
    assert report["max_points"] == 6
    assert report["verified"] is True


def test_gap(files, capsys):
    code, report, _ = run(capsys, "gap", "--k", "1", "--d", "1", "--b", "2")
    assert code == 0 and report["zero_gap"]
    code, report, _ = run(capsys, "--verify", "gap", "--k", "2", "--d", "2", "--b", "3")
    assert code == 0
    assert report["gap_positive"]
    assert report["equalizing_size"] == "9/2"
    assert not report["equalizing_integral"]
    assert report["verified"] is True


def test_volume_check(files, capsys):
    code, report, _ = run(
        capsys, "--verify", "volume-check", files["square"], "--k", "1"
    )
    assert code == 0
    assert report["holds"] and report["tight"]
    assert report["verified"] is True


def test_discriminate(files, capsys):
    code, report, _ = run(
        capsys, "--verify", "discriminate", files["bit_space"], files["bit_states"]
    )
    assert code == 1
    assert report["min_error"] == "1/2"
    assert not report["distinguishable"]
    assert report["verified"] is True
    code, report, _ = run(
        capsys, "discriminate", files["bit_space"], files["bit_vertices"]
    )
    assert code == 0 and report["distinguishable"]


def test_discriminate_refuses_an_oversized_program(tmp_path, capsys, monkeypatch):
    # 80 points on a parabola, the first 40 of them the states: 3200 rows
    # of the min_error program, refused before the program is built.
    parabola = [(t, t * t) for t in range(80)]
    space, states = tmp_path / "space.json", tmp_path / "states.json"
    dump_point_set(_ps(*parabola), space)
    dump_point_set(_ps(*parabola[:40]), states)
    monkeypatch.setattr(
        "antipodes.discrimination.simplex_map_lp", lambda *args, **kw: 1 / 0
    )
    start = time.perf_counter()
    code, report, _ = run(capsys, "discriminate", str(space), str(states))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["error"] == (
        "80 spanning points times 40 states (3200) exceed the program limit 128"
    )


def test_decimal_rendering(files, capsys):
    code, report, _ = run(capsys, "--decimal", "bounds", "--d", "3", "--k", "2")
    assert code == 0
    assert report["bound"].startswith("27/4 (approx 6.75")
    # 2^2000 is beyond float range; it renders through Decimal.
    code, report, _ = run(capsys, "--decimal", "bounds", "--d", "2000", "--k", "1")
    assert code == 0
    assert report["bound"].endswith(" (approx 1.14813e+602)")


# Strings, bools, None and ints skip json's encoder, so big ints, tuples
# and empty containers are drawn too.
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**600), 10**600),
    st.floats(allow_nan=False),
    st.text(),
    st.just([]),
    st.just({}),
)
_trees = st.recursive(
    _leaves,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_render_matches_indented_json_dumps(tree):
    assert cli._render(tree) == json.dumps(tree, indent=2, sort_keys=True)


def _fractions_as_text(tree, decimal):
    """The tree with every Fraction replaced by its report string."""
    if isinstance(tree, Fraction):
        return f"{tree} (approx {cli._approx(tree)})" if decimal else str(tree)
    if isinstance(tree, dict):
        return {key: _fractions_as_text(v, decimal) for key, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_fractions_as_text(v, decimal) for v in tree]
    return tree


_fraction_trees = st.recursive(
    _leaves | st.fractions() | st.fractions(max_denominator=10**30),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_fraction_trees, st.booleans())
def test_render_writes_fractions_as_report_strings(tree, decimal):
    want = _fractions_as_text(tree, decimal)
    assert cli._render(tree, decimal) == json.dumps(want, indent=2, sort_keys=True)
    assert cli._canonical(tree) == json.loads(json.dumps(_fractions_as_text(tree, False)))


def test_canonical_copy_refuses_other_objects():
    with pytest.raises(TypeError, match="Decimal is not a report value"):
        cli._canonical({"x": [Decimal(1)]})


def test_render_leaves_no_cyclic_garbage(files, capsys):
    code, report, _ = run(capsys, "--verify", "check-strict", files["triangle"], "--k", "1")
    assert code == 0
    gc.collect()
    saved = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(20):
            cli._render(report)
        cli._error_text(ValueError("bad"), layer="cli")
        assert gc.collect() == 0
    finally:
        gc.set_debug(saved)
        gc.garbage.clear()


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this Python renders ints of any length",
)
def test_report_beyond_the_digit_limit_is_refused(tmp_path, capsys):
    # The map of this set has entries longer than 4300 digits, which
    # Python refuses to turn into strings: exit 2 with an error, in the
    # printed copy, in the --verify canonical copy and under --decimal
    # alike.
    a, b = 10**2100 + 7, 10**2100 + 9
    path = tmp_path / "long.json"
    long = _ps((0, 0), (ratio(1, a), 0), (0, ratio(1, b)), (ratio(a, b), ratio(b, a)))
    dump_point_set(long, path)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv in (
            ("check-joint", str(path), "1", "2"),
            ("--verify", "check-joint", str(path), "1", "2"),
            ("--decimal", "--verify", "check-joint", str(path), "1", "2"),
            ("check-rank", str(path), "--k", "1"),
        ):
            code, report, _ = run(capsys, *argv)
            assert code == 2
            assert "limit (4300" in report["error"]
    finally:
        sys.set_int_max_str_digits(limit)


def test_input_errors(files, capsys, tmp_path):
    code, report, _ = run(capsys, "check-rank", files["broken"], "--k", "1")
    assert code == 2
    assert "error" in report
    # A JSON true is not a dimension.
    flag = tmp_path / "flag.json"
    flag.write_text('{"dim": true, "points": [["0"], ["1"]]}')
    code, report, _ = run(capsys, "check-rank", str(flag), "--k", "1")
    assert code == 2
    assert "'dim' must be a positive integer" in report["error"]
    code, report, _ = run(
        capsys, "check-rank", str(files["broken"]) + ".missing", "--k", "1"
    )
    assert code == 2
    code, report, _ = run(
        capsys, "check-joint", files["square"], "0", "3", "--lambda", "x,y"
    )
    assert code == 2


_UNREADABLE = {
    "not-utf8": b'{"dim": 1, "points": [["\xff"]]}',
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "long-int": b'{"dim": ' + b"1" * 4301 + b', "points": [["0"]]}',
}


@pytest.mark.parametrize("kind", sorted(_UNREADABLE))
@pytest.mark.parametrize(
    "argv",
    [
        ("check-rank", "{bad}", "--k", "1"),
        ("hash-verify", "{bad}"),
        ("discriminate", "{bit_space}", "{bad}"),
        ("construct", "{square}", "{bad}", "--k", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_unreadable_input_files_exit_2(files, capsys, tmp_path, kind, argv):
    # Bytes that are not UTF-8, arrays nested past the recursion limit and
    # an integer literal past the conversion limit are bad input (exit 2),
    # in point-set and code files alike, never a traceback.
    bad = tmp_path / f"{kind}.json"
    bad.write_bytes(_UNREADABLE[kind])
    code = main([arg.format(bad=bad, **files) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{bad}: not valid JSON" in json.loads(captured.out)["error"]
    assert captured.err == ""


def test_oversized_bound_is_refused(files, capsys):
    # (k+1)^d with 4301 digits is refused; 4300 digits still render.
    code, report, _ = run(capsys, "bounds", "--d", "14285", "--k", "1")
    assert code == 2
    assert "4300 digits" in report["error"]
    code, report, _ = run(capsys, "bounds", "--d", "14284", "--k", "1")
    assert code == 0
    assert len(report["bound"]) == 4300
    code, report, _ = run(capsys, "gap", "--k", "1", "--d", "20000", "--b", "3")
    assert code == 2
    assert "4300 digits" in report["error"]
    code, _, _ = run(capsys, "bounds", "--d", "1000000", "--k", "5")
    assert code == 2


def test_rank_and_construct_refuse_oversized_bound(tmp_path, capsys, monkeypatch):
    # The digit gate fires before any LP runs or any product is built.
    solved = []
    built = []
    monkeypatch.setattr(geometry, "solve", lambda lp: solved.append(lp))
    monkeypatch.setattr(
        "antipodes.cli.product_construct", lambda *args: built.append(args)
    )

    def segment(dim):
        return _ps((0,) * dim, (1,) + (0,) * (dim - 1))

    tall = tmp_path / "tall.json"
    dump_point_set(segment(15000), tall)
    code, report, _ = run(capsys, "check-rank", str(tall), "--k", "1")
    assert code == 2
    assert "4300 digits" in report["error"]

    # A 7500-dimensional base with a length-2 code: the product has
    # dimension 15000, while the base alone would pass the gate.
    base = tmp_path / "base.json"
    dump_point_set(segment(7500), base)
    code_path = tmp_path / "code.json"
    dump_code(greedy_code(2, 2, 2), code_path)
    code, report, _ = run(capsys, "construct", str(base), str(code_path), "--k", "1")
    assert code == 2
    assert "d=15000, k=1" in report["error"]
    assert solved == [] and built == []


def test_rank_verbs_refuse_too_many_subsets(tmp_path, capsys, monkeypatch):
    # C(90, 3) = 117 480 subsets: every rank verb refuses before the set's
    # affine rank is computed, and so before any LP or projection runs.
    calls = []
    for name in ("affine_rank", "solve_strict", "projection_coordinates"):
        monkeypatch.setattr(
            antipodality, name, lambda *args, name=name: calls.append(name)
        )
    monkeypatch.setattr(geometry, "solve", lambda *args: calls.append("solve"))
    crowd = tmp_path / "crowd.json"
    dump_point_set(_ps(*((t, t * t) for t in range(90))), crowd)
    for verb in ("check-rank", "check-strict", "check-erdos"):
        code, report, _ = run(capsys, verb, str(crowd), "--k", "2")
        assert code == 2, verb
        assert "117480 subsets exceed the exhaustive limit 100000" in report["error"]
        if verb == "check-rank":
            # The way out is sampling, named by the command-line flags.
            assert report["error"].endswith("; pass --sample and --seed")
    assert calls == []


def test_check_rank_refuses_too_many_samples(files, capsys, monkeypatch):
    # More draws than the exhaustive limit are refused (exit 2) before the
    # set's affine rank is computed and before any draw, in a message
    # that names no flag; the limit itself is still drawn.
    calls = []
    monkeypatch.setattr(
        antipodality, "affine_rank", lambda *args: calls.append("affine_rank")
    )
    monkeypatch.setattr(
        antipodality, "_sampled_subsets", lambda *args: calls.append("draw")
    )
    code, report, _ = run(
        capsys, "check-rank", files["square"], "--k", "1",
        "--sample", "100001", "--seed", "1",
    )
    assert code == 2
    assert report["error"] == "100001 samples exceed the limit 100000"
    assert calls == []
    monkeypatch.undo()
    drawn = []
    monkeypatch.setattr(
        antipodality,
        "_sampled_subsets",
        lambda n, k, samples, seed: drawn.append(samples) or [(0, 3)],
    )
    code, report, _ = run(
        capsys, "check-rank", files["square"], "--k", "1",
        "--sample", "100000", "--seed", "1",
    )
    assert code == 0 and report["subsets_checked"] == 1
    assert drawn == [100000]


def test_check_rank_refuses_a_seed_without_samples(tmp_path, files, capsys):
    # Exit 2 rather than a silent exhaustive check, on a small set and on
    # one whose exhaustive check would be refused for its size.
    crowd = tmp_path / "crowd.json"
    dump_point_set(_ps(*((t, t * t) for t in range(90))), crowd)
    for path in (files["square"], str(crowd)):
        code, report, _ = run(capsys, "check-rank", path, "--k", "2", "--seed", "3")
        assert code == 2
        assert report == {"error": "a seed needs sampled mode; pass samples with it"}


def test_sampled_check_rank_stops_drawing_once_every_pair_is_seen(files, capsys, monkeypatch):
    # The square has 6 pairs; 100 000 seeded draws print what 6 distinct
    # pairs print, and the draws stop at the one that finds the 6th.
    rng = random.Random(1)
    seen, needed = set(), 0
    while len(seen) < 6:
        seen.add(tuple(sorted(rng.sample(range(4), 2))))
        needed += 1
    draws = []
    real = random.Random.sample
    monkeypatch.setattr(
        random.Random,
        "sample",
        lambda self, *args, **kw: draws.append(1) or real(self, *args, **kw),
    )
    code, _, out = run(
        capsys, "check-rank", files["square"], "--k", "1",
        "--sample", "100000", "--seed", "1",
    )
    assert code == 0
    assert out == (
        '{\n  "antipodal": true,\n  "bound": "4",\n  "dim": 2,\n'
        '  "exhaustive": false,\n  "k": 1,\n  "max_points": 4,\n  "points": 4,\n'
        '  "subsets_checked": 6,\n  "verb": "check-rank",\n  "within_bound": true\n}\n'
    )
    assert len(draws) == needed < 100000


def test_construct_verify_refuses_too_many_subsets(files, tmp_path, capsys, monkeypatch):
    # The segment times all 1024 binary words of length 10: the replay
    # would certify C(1024, 2) = 523 776 pairs, so --verify refuses
    # before any projection certificate is built.
    calls = []
    monkeypatch.setattr(
        "antipodes.cli.projection_certificate", lambda *args: calls.append(args)
    )
    code_path = tmp_path / "code.json"
    dump_code(HashCode(2, 2, 10, tuple(product((1, 2), repeat=10))), code_path)
    argv = ("construct", files["segment"], str(code_path), "--k", "1")
    code, report, _ = run(capsys, "--verify", *argv)
    assert code == 2
    assert report["error"] == (
        "523776 subsets exceed the exhaustive limit 100000; run without --verify"
    )
    assert calls == []
    code, report, _ = run(capsys, *argv)
    assert code == 0 and report["size"] == 1024
    assert calls == []


@pytest.mark.parametrize(
    "verb, rows",
    [
        ("construct", [(t,) for t in range(450)]),
        ("volume-check", list(product(range(15), range(30)))),
    ],
    ids=["construct", "volume-check"],
)
def test_base_rank_checks_name_no_missing_flags(verb, rows, tmp_path, capsys, monkeypatch):
    # construct and volume-check run an exhaustive rank check of their
    # input, C(450, 2) = 101 025 subsets here, and neither verb has a
    # sampling flag: the refusal names no way out, and no LP runs.
    calls = []
    monkeypatch.setattr(geometry, "solve", lambda *args: calls.append(args))
    points = tmp_path / "points.json"
    dump_point_set(_ps(*rows), points)
    code_path = tmp_path / "code.json"
    dump_code(greedy_code(2, 2, 2), code_path)
    extra = [str(code_path)] if verb == "construct" else []
    code, report, _ = run(capsys, verb, str(points), *extra, "--k", "1")
    assert code == 2
    assert report["error"] == "101025 subsets exceed the exhaustive limit 100000"
    assert calls == []


def test_hash_verbs_refuse_oversized_instances(capsys, monkeypatch):
    # Each verb refuses before a word is listed or sampled, or a batch
    # scanned: the builders are swapped for recorders.
    calls = []
    for name in ("product", "combinations"):
        monkeypatch.setattr(
            hashcodes, name, lambda *args, name=name, **kw: calls.append(name)
        )
    monkeypatch.setattr(
        hashcodes, "random", SimpleNamespace(Random=lambda seed: calls.append(seed))
    )
    for verb in ("hash-search", "hash-greedy"):
        for b, m in (("10", "9"), ("3", str(10**12))):
            code, report, _ = run(capsys, verb, "--b", b, "--k", "3", "--m", m)
            assert code == 2, (verb, m)
            assert "exceed the word limit 100000" in report["error"]
    for m, why in (("40", "more than 1000000 batches"), (str(10**9), "65536 bits")):
        code, report, _ = run(
            capsys, "hash-random", "--b", "3", "--k", "3", "--m", m, "--seed", "1"
        )
        assert code == 2, m
        assert why in report["error"]
    assert calls == []


def test_hash_verify_refuses_too_many_batches(tmp_path, capsys, monkeypatch):
    # C(183, 3) = 1 004 731 batches are refused before any is scanned;
    # C(182, 3) = 988 260 are scanned (the first batch is unseparated).
    words = sorted(product((1, 2, 3), repeat=5))
    path = tmp_path / "code.json"
    dump_code(HashCode(3, 3, 5, tuple(words[:183])), path)
    calls = []
    monkeypatch.setattr(
        hashcodes, "combinations", lambda *args: calls.append(args)
    )
    code, report, _ = run(capsys, "--verify", "hash-verify", str(path))
    assert code == 2
    assert report["error"] == (
        "183 words of order 3 make 1004731 batches, "
        "more than the batch limit 1000000"
    )
    assert calls == []
    monkeypatch.undo()
    dump_code(HashCode(3, 3, 5, tuple(words[:182])), path)
    code, report, _ = run(capsys, "--verify", "hash-verify", str(path))
    assert code == 1
    assert not report["perfect"]


def test_hash_search_default_budget():
    args = _build_parser().parse_args(["hash-search", "--b", "3", "--k", "3", "--m", "2"])
    assert args.budget == DEFAULT_BUDGET


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_internal_errors_exit_4(files, capsys, monkeypatch):
    def broken_solve(lp):
        raise SolverInvariantError("feasible point failed substitution")

    monkeypatch.setattr(geometry, "solve", broken_solve)
    code, report, _ = run(capsys, "check-joint", files["square"], "0", "3")
    assert code == 4
    assert report == {
        "error": "feasible point failed substitution",
        "layer": "exact_lp",
    }

    def broken_verify(X, cert):
        raise CertificateError("map certificate failed verification")

    monkeypatch.undo()
    monkeypatch.setattr("antipodes.cli.verify_joint_certificate", broken_verify)
    code, report, _ = run(
        capsys, "--verify", "check-joint", files["square"], "0", "3"
    )
    assert code == 4
    assert report == {
        "error": "map certificate failed verification",
        "layer": "antipodality",
    }


def test_sampled_rank_requires_seed(files, capsys):
    code, report, _ = run(
        capsys, "check-rank", files["cube"], "--k", "1", "--sample", "3"
    )
    assert code == 2
    code, report, _ = run(
        capsys, "check-rank", files["cube"], "--k", "1", "--sample", "3",
        "--seed", "11",
    )
    assert code == 0
    assert not report["exhaustive"]


# ---------------------------------------------------------------------------
# --verify: the printed report, the inputs the replay reads, the claims


# One command line per report shape that has a replay; names of the
# `files` fixture stand for their paths.
VERIFIED_CASES = {
    "check-joint-direct": ("check-joint", "square", "0", "3"),
    "check-joint-witness": ("check-joint", "collinear", "0", "1"),
    "check-joint-shrunk": ("check-joint", "square", "0", "3", "--lambda", "1/3,2/3"),
    "check-rank-holds": ("check-rank", "cube", "--k", "1"),
    "check-rank-fails": ("check-rank", "cube", "--k", "2"),
    "check-strict-strict": ("check-strict", "triangle", "--k", "1"),
    "check-strict-forced": ("check-strict", "square", "--k", "1"),
    "check-strict-not-antipodal": ("check-strict", "collinear", "--k", "1"),
    "check-erdos": ("check-erdos", "obtuse", "--k", "1"),
    "discriminate": ("discriminate", "bit_space", "bit_states"),
    "volume-check": ("volume-check", "square", "--k", "1"),
    "construct": ("construct", "segment", "cube_code", "--k", "1"),
    "hash-search": ("hash-search", "--b", "3", "--k", "3", "--m", "2"),
    "hash-greedy": ("hash-greedy", "--b", "3", "--k", "3", "--m", "2"),
    "hash-random": ("hash-random", "--b", "2", "--k", "2", "--m", "3", "--seed", "9"),
    "hash-verify-perfect": ("hash-verify", "ternary_code"),
    "hash-verify-violated": ("hash-verify", "loose_code"),
    "bounds": ("bounds", "--d", "3", "--k", "2"),
    "gap": ("gap", "--k", "2", "--d", "2", "--b", "3"),
}


def _argv(files, case):
    return [files.get(word, word) for word in VERIFIED_CASES[case]]


@pytest.mark.parametrize("flags", [(), ("--decimal",)], ids=["plain", "decimal"])
@pytest.mark.parametrize("case", sorted(VERIFIED_CASES))
def test_verify_prints_the_plain_report_plus_verified(files, capsys, case, flags):
    argv = [*flags, *_argv(files, case)]
    code, plain, _ = run(capsys, *argv)
    verified_code, _, text = run(capsys, "--verify", *argv)
    assert verified_code == code
    expected = json.dumps({**plain, "verified": True}, indent=2, sort_keys=True)
    assert text == expected + "\n"


def test_a_failed_replay_changes_only_verified_and_the_exit(files, capsys, monkeypatch):
    argv = _argv(files, "check-joint-direct")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr("antipodes.cli.verify_joint_certificate", lambda X, cert: False)
    code, _, text = run(capsys, "--verify", *argv)
    assert code == 1
    expected = json.dumps({**plain, "verified": False}, indent=2, sort_keys=True)
    assert text == expected + "\n"


FILE_VERBS = {
    "check-joint", "check-rank", "check-strict", "check-erdos", "discriminate",
    "volume-check", "construct", "hash-verify",
}


@pytest.mark.parametrize(
    "case", sorted(case for case, argv in VERIFIED_CASES.items() if argv[0] in FILE_VERBS)
)
def test_no_replay_reads_a_file(files, capsys, monkeypatch, case):
    loaded = Counter()

    def counting(load):
        def wrapper(path):
            loaded[path] += 1
            return load(path)

        return wrapper

    monkeypatch.setattr(cli, "load_point_set", counting(cli.load_point_set))
    monkeypatch.setattr(cli, "load_code", counting(cli.load_code))
    argv = _argv(files, case)
    code, report, _ = run(capsys, "--verify", *argv)
    assert report["verified"] is True
    inputs = [word for word in argv if word in files.values()]
    assert inputs and loaded == Counter(inputs)


def test_verify_checks_the_chosen_indices(files, capsys, monkeypatch):
    # A valid certificate of another tuple does not answer for (0, 1).
    direct = antipodality.joint_antipodal_direct
    monkeypatch.setattr(
        "antipodes.cli.joint_antipodal_direct", lambda X, chosen: direct(X, (0, 3))
    )
    code, report, _ = run(capsys, "--verify", "check-joint", files["square"], "0", "1")
    assert report["certificate"]["chosen"] == [0, 3]
    assert report["verified"] is False and code == 1


def test_verify_requires_a_negative_certificate_on_a_failing_rank(
    files, capsys, monkeypatch
):
    direct = antipodality.joint_antipodal_direct

    def wrong(X, k, samples=None, seed=None):
        return RankReport(k, False, 1, True, failing=direct(X, (0, 1)))

    monkeypatch.setattr("antipodes.cli.is_rank_k_antipodal", wrong)
    code, report, _ = run(capsys, "--verify", "check-rank", files["square"], "--k", "1")
    assert not report["antipodal"] and report["certificate"]["antipodal"]
    assert report["verified"] is False and code == 1


def test_verify_requires_an_unseparated_batch(files, capsys, monkeypatch):
    # Three words of the code, pairwise distinct at coordinate 0.
    monkeypatch.setattr(
        "antipodes.cli.is_perfect", lambda code: (False, ((3, 3), (2, 3), (1, 2)))
    )
    code, report, _ = run(capsys, "--verify", "hash-verify", files["ternary_code"])
    assert report["violating"] == [[3, 3], [2, 3], [1, 2]]
    assert report["verified"] is False and code == 1


@pytest.mark.parametrize(
    "violating",
    [
        [[1, 1], [1, 2], [2, 2]],
        [[1, 1], [1, 2], [1, 2]],
        [[1, 1], [1, 2]],
        [[1, 1], [1, 2], [2, 1]],
    ],
    ids=["unseparated", "repeated", "short", "outside"],
)
def test_hash_verify_replay_reads_the_violating_batch(files, violating):
    args = _build_parser().parse_args(["hash-verify", files["loose_code"]])
    report, _, replay = cli._cmd_hash_verify(args)
    parsed = cli._canonical(report)
    assert parsed["violating"] == [[1, 1], [1, 2], [2, 2]]
    parsed["violating"] = violating
    assert replay(parsed) is (violating == [[1, 1], [1, 2], [2, 2]])


def test_verify_requires_evidence_for_every_subset(files, capsys, monkeypatch):
    strict = antipodality.strict_rank_k

    def partial(X, k):
        result = strict(X, k)
        return dataclasses.replace(result, evidence=result.evidence[:1])

    monkeypatch.setattr("antipodes.cli.strict_rank_k", partial)
    code, report, _ = run(capsys, "--verify", "check-strict", files["triangle"], "--k", "1")
    assert report["strict"] and report["subsets_checked"] == 3
    assert len(report["evidence"]) == 1
    assert report["verified"] is False and code == 1


def test_strict_replay_checks_the_negative_certificate(files, monkeypatch):
    args = _build_parser().parse_args(["check-strict", files["collinear"], "--k", "1"])
    report, code, replay = cli._cmd_check_strict(args)
    parsed = cli._canonical(report)
    assert code == 1 and parsed["cause"] == "not_antipodal"
    assert parsed["certificate"]["chosen"] == parsed["failing_subset"] == [0, 1]
    # The replay checks the certificate; it does not run the verb again.
    monkeypatch.setattr("antipodes.cli.strict_rank_k", None)
    assert replay(parsed) is True
    assert replay({**parsed, "failing_subset": [0, 2]}) is False
    # Factors summing to k do not shrink the copies enough.
    claim = {**parsed["certificate"], "shrink_factors": ["1/2", "1/2"]}
    assert replay({**parsed, "certificate": claim}) is False
    assert replay({key: v for key, v in parsed.items() if key != "certificate"}) is False


def test_verify_reads_distinguishable_against_the_error(files):
    args = _build_parser().parse_args(
        ["discriminate", files["bit_space"], files["bit_states"]]
    )
    report, _, replay = cli._cmd_discriminate(args)
    parsed = cli._canonical(report)
    assert replay(parsed)
    parsed["distinguishable"] = not parsed["distinguishable"]
    assert not replay(parsed)


def test_hash_verify_replay_reads_the_input_code(files):
    # One more word keeps the report's batch and verdict, but the report
    # no longer names the code in the file.
    args = _build_parser().parse_args(["hash-verify", files["loose_code"]])
    report, _, replay = cli._cmd_hash_verify(args)
    parsed = cli._canonical(report)
    assert replay(parsed)
    parsed["code"]["words"].append([3, 3])
    assert not replay(parsed)
