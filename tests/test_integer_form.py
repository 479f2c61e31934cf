"""Point sets and affine maps held as cleared integers.

A `PointSet` is integer rows over one least denominator, however its
points were spelled or built; an `AffineMap` is integer rows [A | b] over
one least denominator.  Sets and maps built from integers, from point
files and from Fractions must be the same objects, build the same map
programs and render the same report bytes; point files keep refusing
what they refused, with the same messages."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from antipodes.cli import _finalize, _map_obj, _render
from antipodes.geometry import (
    AffineMap,
    GeometryError,
    PointSet,
    point_set_from_obj,
    simplex_map_lp,
)

_frac = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6, 7)))


@st.composite
def _spelled(draw, value):
    """One coordinate as a point file may hold it: a JSON int, or a "p" or
    "p/q" string not necessarily in lowest terms, with an optional sign
    and surrounding spaces."""
    scale = draw(st.integers(1, 4))
    num, den = value.numerator * scale, value.denominator * scale
    if value.denominator == 1 and draw(st.booleans()):
        return value.numerator
    if num == 0:
        sign = draw(st.sampled_from(("", "+", "-")))
    else:
        sign = "-" if num < 0 else draw(st.sampled_from(("", "+")))
    text = sign + str(abs(num))
    if den != 1 or draw(st.booleans()):
        text += f"/{den}"
    pad = draw(st.sampled_from(("", " ", "  ")))
    return pad + text + draw(st.sampled_from(("", " ")))


@st.composite
def _documents(draw):
    """(rational points, point-set document spelling them)."""
    dim = draw(st.integers(1, 3))
    rows = draw(
        st.lists(st.tuples(*[_frac] * dim), min_size=1, max_size=6, unique=True)
    )
    spelled = [[draw(_spelled(c)) for c in row] for row in rows]
    return rows, {"dim": dim, "points": spelled}


@settings(max_examples=200, deadline=None)
@given(_documents())
def test_point_file_gives_the_set_of_its_fractions(doc):
    rows, obj = doc
    ref = PointSet(tuple(rows))
    got = point_set_from_obj(obj)
    assert got.cleared == ref.cleared
    assert got.points == ref.points == tuple(rows)
    assert all(type(c) is Fraction for p in got.points for c in p)
    assert (got.dim, len(got)) == (ref.dim, len(ref)) == (len(rows[0]), len(rows))
    assert got == ref and hash(got) == hash(ref)
    # The denominator is the least one: no factor divides it and every row.
    P, L = got.cleared
    assert L > 0 and gcd(L, *(a for p in P for a in p)) == 1


@settings(max_examples=150, deadline=None)
@given(_documents(), st.integers(1, 6), st.data())
def test_integer_sets_build_the_same_map_programs(doc, scale, data):
    rows, obj = doc
    ref = PointSet(tuple(rows))
    P, L = ref.cleared
    # Rows over a multiple of the least denominator are divided back to it.
    scaled = PointSet.from_integers([[a * scale for a in p] for p in P], L * scale)
    assert scaled == ref and scaled.cleared == ref.cleared
    n = len(rows)
    if n < 2:
        return
    outputs = data.draw(st.integers(2, min(n, 4)))
    chosen = tuple(data.draw(st.permutations(range(n)))[:outputs])
    for pins in (chosen, ()):
        want = simplex_map_lp(ref, outputs, pinned=pins)
        assert simplex_map_lp(point_set_from_obj(obj), outputs, pinned=pins) == want
        assert simplex_map_lp(scaled, outputs, pinned=pins) == want


_entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 12)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5), st.data())
def test_integer_maps_match_their_fractions(outputs, dim, scale, data):
    matrix = tuple(data.draw(st.tuples(*[_entry] * dim)) for _ in range(outputs))
    offset = data.draw(st.tuples(*[_entry] * outputs))
    ref = AffineMap(matrix, offset)
    den = lcm(*(c.denominator for c in sum(matrix, offset)))
    rows = [
        [int(c * den * scale) for c in row] + [int(b * den * scale)]
        for row, b in zip(matrix, offset)
    ]
    got = AffineMap.from_integers(rows, den * scale)
    assert got.matrix == ref.matrix == matrix
    assert got.offset == ref.offset == offset
    assert all(type(c) is Fraction for row in got.matrix for c in row + got.offset)
    assert (got.in_dim, got.out_dim) == (dim, outputs)
    assert got == ref and hash(got) == hash(ref)
    points = PointSet(tuple(data.draw(
        st.lists(st.tuples(*[_frac] * dim), min_size=1, max_size=4, unique=True)
    )))
    images, iden = got.cleared_images(points)
    for p, image in zip(points, images):
        want = [sum((a * x for a, x in zip(row, p)), b) for row, b in zip(matrix, offset)]
        assert [Fraction(t, iden) for t in image] == want
    assert got.cleared_images(points) == ref.cleared_images(points)
    text = _render(_finalize(_map_obj(got), False))
    assert text == _render(_finalize(_map_obj(ref), False))
    assert text == _render(_finalize({"matrix": matrix, "offset": offset}, False))


# ---------------------------------------------------------------------------
# refusals


@pytest.mark.parametrize(
    "entry, message",
    [
        (0.5, "point 0: refusing to build an exact rational from a float; "
              "pass a 'p/q' string instead"),
        (True, "point 0: booleans are not rational scalars"),
        (None, "point 0: not an exact rational: None"),
        ("1/0", "point 0: not an exact rational: '1/0'"),
        (" 3/0 ", "point 0: not an exact rational: '3/0'"),
        ("1.5", "point 0: not a 'p/q' rational string: '1.5'"),
        # int() reads "1_000"; the point-file grammar does not.
        ("1_000", "point 0: not a 'p/q' rational string: '1_000'"),
        ("1/-2", "point 0: not a 'p/q' rational string: '1/-2'"),
        ("", "point 0: not a 'p/q' rational string: ''"),
    ],
)
def test_point_file_refusals_keep_their_messages(entry, message):
    with pytest.raises(GeometryError) as info:
        point_set_from_obj({"dim": 2, "points": [["0", entry], ["1", "1"]]})
    assert str(info.value) == message


def test_point_file_refuses_mixed_rows_and_one_point_spelled_twice():
    with pytest.raises(GeometryError) as info:
        point_set_from_obj({"dim": 2, "points": [["0", "1"], ["1"]]})
    assert str(info.value) == "point 1 must be a list of 2 rational strings"
    with pytest.raises(GeometryError) as info:
        point_set_from_obj({"dim": 2, "points": [["1/2", "0"], ["2/4", "-0"]]})
    assert str(info.value) == "invalid point set: points must be pairwise distinct"
