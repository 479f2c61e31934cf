"""Product construction, size bound, volume inequality, gap reports."""

from itertools import combinations, product
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from antipodes import construction
from antipodes.antipodality import (
    is_rank_k_antipodal,
    joint_antipodal_direct,
    verify_joint_certificate,
)
from antipodes.construction import (
    ConstructionError,
    StartingConfig,
    gap_analysis,
    product_construct,
    projection_certificate,
    size_bound,
    volume_inequality_check,
)
from antipodes.geometry import GeometryError, PointSet
from antipodes.hashcodes import HashCode, max_code
from antipodes.rationals import LogRatio, ratio


def _ps(*rows):
    return PointSet(tuple(tuple(ratio(c) for c in row) for row in rows))


SEGMENT = StartingConfig(_ps((0,), (1,)), rank=1)
TRIANGLE = StartingConfig(_ps((0, 0), (1, 0), (0, 1)), rank=2)


def _full_code(b, order, m):
    return HashCode(
        b, order, m, tuple(product(range(1, b + 1), repeat=m))
    )


def test_starting_config_checks_rank():
    with pytest.raises(ConstructionError):
        StartingConfig(_ps((0,), ("1/2",), (1,)), rank=1)
    # The shapes are validated before the rank check runs.
    with pytest.raises(ConstructionError, match="rank \\+ 1"):
        StartingConfig(_ps((0,), (1,)), rank=2)


def test_segment_times_full_binary_code_is_the_cube():
    built = product_construct(SEGMENT, _full_code(2, 2, 3))
    expected = tuple(
        tuple(ratio(c) for c in row) for row in product((0, 1), repeat=3)
    )
    assert built.result.points == expected
    assert is_rank_k_antipodal(built.result, 1).antipodal


def test_length_one_full_code_reproduces_the_base():
    built = product_construct(TRIANGLE, _full_code(3, 3, 1))
    assert built.result.points == TRIANGLE.points.points


def test_full_code_gives_cartesian_power():
    built = product_construct(SEGMENT, _full_code(2, 2, 2))
    expected = tuple(
        a + b for a, b in product(SEGMENT.points.points, repeat=2)
    )
    assert built.result.points == expected


def test_triangle_times_ternary_code_is_rank_two_in_r4():
    code = max_code(3, 3, 2).code
    built = product_construct(TRIANGLE, code)
    assert built.result.dim == 4
    assert len(built.result) == 4
    report = is_rank_k_antipodal(built.result, 2)
    assert report.antipodal
    assert report.exhaustive
    assert len(built.result) <= floor(size_bound(4, 2))


def test_projection_certificates_cover_every_subset():
    code = max_code(3, 3, 2).code
    built = product_construct(TRIANGLE, code)
    for chosen in combinations(range(len(built.result)), 3):
        cert, coord = projection_certificate(built, chosen)
        assert cert.antipodal
        assert 0 <= coord < code.m
        # agrees with the generic LP verdict
        assert joint_antipodal_direct(built.result, chosen).antipodal


def test_projection_solves_each_base_tuple_once(monkeypatch):
    # Triangle base times the 9-word ternary code of length 4: 84 triples
    # of product points, but only 3! ordered triples of base points.
    code = max_code(3, 3, 4).code
    assert len(code) == 9
    built = product_construct(TRIANGLE, code)
    solved = []
    real = construction.joint_antipodal_direct

    def direct(points, chosen):
        solved.append(chosen)
        return real(points, chosen)

    monkeypatch.setattr(construction, "joint_antipodal_direct", direct)
    certs = [
        projection_certificate(built, chosen)
        for chosen in combinations(range(len(code)), 3)
    ]
    assert len(certs) == 84
    assert len(solved) == len(set(solved)) <= 6
    assert set(built.base_maps) == set(solved)
    for chosen, cert in zip(combinations(range(len(code)), 3), certs):
        fresh = product_construct(TRIANGLE, code)
        assert projection_certificate(fresh, chosen) == cert
        assert fresh == built


def test_products_do_not_share_base_maps():
    code = max_code(3, 3, 2).code
    wide = StartingConfig(_ps((0, 0), (2, 0), (0, 3)), rank=2)
    first = product_construct(TRIANGLE, code)
    second = product_construct(wide, code)
    again = product_construct(TRIANGLE, code)
    for chosen in combinations(range(len(code)), 3):
        cert, _ = projection_certificate(first, chosen)
        other, _ = projection_certificate(second, chosen)
        assert cert.mapping != other.mapping
        assert verify_joint_certificate(second.result, other)
        assert not verify_joint_certificate(second.result, cert)
    assert first.base_maps and second.base_maps
    assert again.base_maps == {}
    assert first.base_maps.keys() == second.base_maps.keys()
    for key, cert in first.base_maps.items():
        assert second.base_maps[key] is not cert
        assert second.base_maps[key].mapping != cert.mapping


def test_projection_rejects_unseparated_words():
    code = HashCode(3, 3, 2, ((1, 1), (1, 2), (2, 2)))
    built = product_construct(TRIANGLE, code)
    with pytest.raises(ConstructionError):
        projection_certificate(built, (0, 1, 2))


def test_parameter_mismatch():
    with pytest.raises(ConstructionError):
        product_construct(SEGMENT, _full_code(3, 2, 2))
    with pytest.raises(ConstructionError):
        product_construct(TRIANGLE, _full_code(3, 2, 2))


def test_size_bound_values():
    assert size_bound(3, 1) == 8
    assert size_bound(3, 2) == ratio(27, 4)
    assert floor(size_bound(3, 2)) == 6
    assert size_bound(2, 2) == ratio(9, 2)
    for d in (1, 2, 3, 4, 5):
        assert size_bound(d, 1) == 2**d


def test_size_bound_validation():
    with pytest.raises(ConstructionError):
        size_bound(1, 2)
    with pytest.raises(ConstructionError):
        size_bound(3, 0)


def test_volume_inequality_square_tight():
    square = _ps(*product((0, 1), repeat=2))
    report = volume_inequality_check(square, 1)
    assert report.total == 1
    assert report.copies == (ratio(1, 4),) * 4
    assert report.ratios_match
    assert report.holds
    assert report.tight


def test_volume_inequality_cube_tight():
    cube = _ps(*product((0, 1), repeat=3))
    report = volume_inequality_check(cube, 1)
    assert report.copies == (ratio(1, 8),) * 8
    assert report.holds and report.tight


def test_volume_inequality_triangle_slack():
    tri = _ps((0, 0), (1, 0), (0, 1))
    report = volume_inequality_check(tri, 2)
    assert report.total == ratio(1, 2)
    assert report.ratio_expected == ratio(4, 9)
    assert report.ratios_match
    assert report.holds
    assert not report.tight


def test_volume_inequality_measures_one_copy(monkeypatch):
    # The total and the copy toward X[0]; every other copy is its
    # homothet and takes the homothety value.
    calls = []
    real = construction.volume

    def counted(poly):
        calls.append(poly)
        return real(poly)

    monkeypatch.setattr(construction, "volume", counted)
    cube = _ps(*product((0, 1), repeat=3))
    report = volume_inequality_check(cube, 1)
    assert len(calls) == 2
    assert report.copies == (ratio(1, 8),) * 8 and report.ratios_match


def test_volume_inequality_flags_a_wrong_copy_volume(monkeypatch):
    real = construction.volume
    calls = []

    def wrong_copy(poly):
        calls.append(poly)
        value = real(poly)
        return value if len(calls) == 1 else value + ratio(1, 97)

    monkeypatch.setattr(construction, "volume", wrong_copy)
    square = _ps(*product((0, 1), repeat=2))
    report = volume_inequality_check(square, 1)
    assert not report.ratios_match
    # The copies still hold the homothety value, so the verdict stands.
    assert report.copies == (ratio(1, 4),) * 4
    assert report.holds and report.tight


def test_volume_inequality_rejects_bad_input():
    with pytest.raises(ConstructionError):
        volume_inequality_check(_ps((0,), ("1/2",), (1,)), 1)
    with pytest.raises(ConstructionError):
        volume_inequality_check(_ps((0, 0), (1, 1)), 1)


def test_volume_cap_refuses_before_the_rank_check(monkeypatch):
    def no_rank_check(*args, **kwargs):
        raise AssertionError("the rank pre-check ran before the volume cap")

    monkeypatch.setattr(construction, "is_rank_k_antipodal", no_rank_check)
    cube5 = _ps(*product((0, 1), repeat=5))
    with pytest.raises(GeometryError, match="supported up to dimension 4"):
        volume_inequality_check(cube5, 1)


def test_gap_zero_for_the_segment():
    report = gap_analysis(1, 1, 2)
    assert report.zero_gap
    assert not report.gap_positive
    assert report.exponent == LogRatio(1, 2)
    assert report.equalizing_size == 2
    assert report.equalizing_integral


def test_gap_positive_and_non_integral():
    for k, d0, b in ((2, 2, 3), (3, 3, 4), (2, 3, 3)):
        report = gap_analysis(k, d0, b)
        assert report.gap_positive
        assert not report.zero_gap
        assert not report.equalizing_integral


def test_gap_validation():
    with pytest.raises(ConstructionError):
        gap_analysis(2, 1, 3)
    with pytest.raises(ConstructionError):
        gap_analysis(1, 1, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3))
def test_size_bound_monotone(k, extra):
    # growing the dimension always loosens the cap
    d = k + extra
    assert size_bound(d + 1, k) > size_bound(d, k)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4))
def test_equalizing_size_never_integral_beyond_rank_one(k, extra_dim):
    d0 = max(k, extra_dim)
    report = gap_analysis(k, d0, k + 1)
    assert not report.equalizing_integral
