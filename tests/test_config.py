"""Configuration validation, matroid enumeration, activity and families."""

from __future__ import annotations

from fractions import Fraction

import pytest

from zonoforge.config import (
    Config,
    SemiExternalFamily,
    bases,
    ensure_family,
    extend_basis,
    facets,
    full_family,
    i_internal_bases,
    independents,
    internal_bases,
    is_coloop,
    is_independent,
    make_config,
    normal_power_condition,
    order_with_last,
    passive_set,
    rank_of,
    semiexternal_close,
    span_le,
    subset_polynomial,
    valuation,
    valuation_histogram,
)
from zonoforge.errors import (
    BadB0,
    DimensionMismatch,
    FamilyNotClosed,
    InputError,
    MissingB0,
    NotIndependent,
    RankDeficient,
    ZeroColumn,
)


def test_zero_column_rejected():
    with pytest.raises(ZeroColumn):
        make_config([[1, 0], [0, 0]])


def test_rank_deficient_rejected():
    with pytest.raises(RankDeficient):
        make_config([[1, 2], [2, 4]])


def test_a_matrix_without_columns_is_rejected_as_such():
    # not as a rank deficiency "rank 0, expected full rank 0"
    for build in (lambda: make_config([]), lambda: make_config([[]]), lambda: Config(())):
        with pytest.raises(InputError, match="^the matrix has no columns$") as info:
            build()
        assert not isinstance(info.value, RankDeficient)


def test_bad_b0_rejected():
    with pytest.raises(BadB0):
        make_config([[1, 0], [0, 1]], b0_rows=[[1, 1], [1, 1]])


def test_ragged_column_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="column 1 has length 1"):
        Config(((1, 0), (1,)))


def test_wrong_lambda_length_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="lambda has 1 offsets"):
        make_config([[1, 0], [0, 1]], lam=[1])


def test_wrong_lambda_b0_length_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="lambda_b0 has 3 offsets") as info:
        make_config([[1, 0], [0, 1]], b0_rows=[[1, 0], [0, 1]], lam_b0=[1, 2, 3])
    assert isinstance(info.value, InputError)


def test_extended_requires_b0():
    c = make_config([[1, 0], [0, 1]])
    with pytest.raises(MissingB0):
        c.extended()


def test_fractional_entries_allowed():
    c = make_config([["1/2", 0], [0, "1/3"]])
    assert c.columns[0][0] == Fraction(1, 2)


def test_counts_example(ex25):
    assert len(bases(ex25)) == 4
    assert len(independents(ex25)) == 15
    assert len(internal_bases(ex25)) == 1


def test_counts_triangle(triangle):
    assert len(bases(triangle)) == 3
    assert len(independents(triangle)) == 7
    assert len(internal_bases(triangle)) == 1


def test_facets_example(ex25):
    fs = facets(ex25)
    assert len(fs) == 6
    assert all(f.mult == 2 for f in fs)
    normals = {f.normal for f in fs}
    assert normals == {
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, -1),
        (1, 0, 0),
        (1, 0, -1),
        (1, -1, 0),
    }
    by_normal = {f.normal: f.members for f in fs}
    assert by_normal[(0, 0, 1)] == frozenset({0, 1})
    assert by_normal[(0, 1, -1)] == frozenset({0, 3})


def test_facet_normals_primitive(triangle):
    for f in facets(triangle):
        head = next(x for x in f.normal if x != 0)
        assert head > 0
        assert all(isinstance(x, int) for x in f.normal)


def test_coloop_detection(repeated):
    assert is_coloop(repeated, 2)
    assert not is_coloop(repeated, 0)
    assert not is_coloop(repeated, 1)


def test_rank_and_independence(ex25):
    assert rank_of(ex25, frozenset({0, 1, 2, 3})) == 3
    assert is_independent(ex25, {1, 3})
    assert not is_independent(ex25, {0, 1, 2, 3})


def test_passive_sets_and_valuations(ex25):
    assert passive_set(ex25, {0, 1, 2}) == frozenset()
    assert passive_set(ex25, {0, 1, 3}) == frozenset({2})
    assert valuation(ex25, frozenset()) == 4
    assert valuation(ex25, {0}) == 3


def test_valuation_histograms(ex25):
    assert valuation_histogram(ex25, bases(ex25)) == (1, 3)
    assert valuation_histogram(ex25, independents(ex25)) == (1, 3, 6, 4, 1)
    assert valuation_histogram(ex25, ()) == ()


def test_order_with_last():
    c = make_config([[1, 0, 1], [0, 1, 1]])
    assert order_with_last(c, {0}) == (1, 2, 0)
    assert order_with_last(c, frozenset()) == (0, 1, 2)


def test_passive_set_respects_order(ex25):
    # with column 3 moved last it can never be an earlier spanning element
    order = order_with_last(ex25, {3})
    assert passive_set(ex25, {1, 2, 3}, order) == frozenset({0})


def test_semiexternal_close_first_family(ex25, fam1):
    want = {
        frozenset(s)
        for s in [
            {0, 1},
            {0, 2},
            {0, 3},
            {0, 1, 2},
            {0, 1, 3},
            {0, 2, 3},
            {1, 2, 3},
        ]
    }
    assert set(fam1.members) == want
    assert ensure_family(ex25, fam1) is fam1


def test_semiexternal_close_second_family(ex25, fam2):
    assert len(fam2) == 8
    assert frozenset({0}) in set(fam2.members)
    assert ensure_family(ex25, fam2) is fam2


def test_full_family_is_all_independents(ex25):
    assert set(full_family(ex25).members) == set(independents(ex25))


def test_ensure_family_rejects_open_families(ex25):
    missing_basis = SemiExternalFamily((frozenset({0, 1}),))
    with pytest.raises(FamilyNotClosed):
        ensure_family(ex25, missing_basis)
    # {0} forces every superset via span containment
    not_span_closed = SemiExternalFamily(
        tuple(bases(ex25)) + (frozenset({0}), frozenset({0, 1}))
    )
    with pytest.raises(FamilyNotClosed):
        ensure_family(ex25, not_span_closed)


def test_close_rejects_dependent_seed(ex25):
    with pytest.raises(NotIndependent):
        semiexternal_close(ex25, [{0, 1, 2, 3}])


def test_normal_power_condition(ex25, fam1, fam2):
    holds, witness = normal_power_condition(ex25, fam1)
    assert not holds and witness == frozenset({0})
    holds, witness = normal_power_condition(ex25, fam2)
    assert holds and witness is None


def test_span_le(ex25):
    assert span_le(ex25, {0}, {0, 1})
    assert not span_le(ex25, {2}, {0, 1})
    assert span_le(ex25, frozenset(), {0})


def test_extend_basis_greedy(ex25):
    # (1,1,1) picks up the first two appended basis columns, then stops
    assert extend_basis(ex25, {3}) == frozenset({3, 4, 5})
    assert extend_basis(ex25, {0, 1, 2}) == frozenset({0, 1, 2})
    assert extend_basis(ex25, frozenset()) == frozenset({4, 5, 6})


def test_extend_basis_requires_b0():
    c = make_config([[1, 0], [0, 1]])
    with pytest.raises(MissingB0):
        extend_basis(c, {0})


def test_i_internal_bases(ex25):
    assert i_internal_bases(ex25, frozenset({3})) == (frozenset({0, 1, 2}),)
    # empty i keeps every basis
    assert set(i_internal_bases(ex25, frozenset())) == set(bases(ex25))


def test_subset_polynomial(ex25):
    # t1 * (t1 + t2 + t3), over t1^2, t1*t2, t1*t3, t2^2, t2*t3, t3^2
    assert subset_polynomial(ex25, {0, 3}) == (2, (1, 1, 1, 0, 0, 0), 1)
    assert subset_polynomial(ex25, frozenset()) == (0, (1,), 1)
