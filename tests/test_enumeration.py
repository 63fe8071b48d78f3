"""Exhaustive listings, the census, tree counts, and chain support."""
import math
import time

import pytest

import oracles
from bipsand import (
    CSV_HEADER,
    BipartiteShape,
    Configuration,
    GuardError,
    census,
    empirical_support,
    enumerate_recurrent,
    enumerate_stable,
    is_recurrent,
    level,
    spanning_tree_count,
)
from bipsand.enumeration import _dp_work


@pytest.mark.parametrize("call", [
    lambda limit: enumerate_stable(BipartiteShape(1, 1), limit=limit),
    lambda limit: enumerate_recurrent(BipartiteShape(1, 1), "asm", limit=limit),
    lambda limit: census(BipartiteShape(1, 1), "asm", limit=limit),
], ids=["enumerate_stable", "enumerate_recurrent", "census"])
@pytest.mark.parametrize("limit, want", [
    (True, "limit must be an integer, got True"),
    (2.5, "limit must be an integer, got 2.5"),
    ("10", "limit must be an integer, got '10'"),
    (-1, "limit must be >= 0"),
])
def test_limit_follows_the_integer_rule(call, limit, want):
    with pytest.raises(ValueError) as exc:
        call(limit)
    assert type(exc.value) is ValueError and str(exc.value) == want


class TestEnumerateStable:
    def test_tiny(self):
        got = [c.to_text() for c in enumerate_stable(BipartiteShape(1, 1))]
        assert got == ["0;0", "0;1"]

    def test_counts_match_product_formula(self):
        for m in range(0, 4):
            for n in range(1, 4):
                got = sum(1 for _ in enumerate_stable(BipartiteShape(m, n)))
                assert got == n**m * (m + 1) ** n

    def test_sorted_counts_match_binomials(self):
        for m in range(0, 4):
            for n in range(1, 4):
                got = sum(
                    1 for _ in enumerate_stable(BipartiteShape(m, n), sorted_only=True)
                )
                want = math.comb(n - 1 + m, m) * math.comb(m + n, n)
                assert got == want

    def test_matches_oracle_set(self):
        got = {(c.top, c.bottom) for c in enumerate_stable(BipartiteShape(2, 2))}
        assert got == set(oracles.all_stable(2, 2))

    def test_lexicographic_order(self):
        stream = list(enumerate_stable(BipartiteShape(2, 2)))
        keys = [(c.top, c.bottom) for c in stream]
        assert keys == sorted(keys)

    def test_guard(self):
        with pytest.raises(GuardError):
            list(enumerate_stable(BipartiteShape(20, 20)))
        with pytest.raises(GuardError):
            list(enumerate_stable(BipartiteShape(2, 2), limit=10))

    def test_guard_raises_at_the_call(self):
        # before the first item is drawn, so a caller has printed nothing yet
        with pytest.raises(GuardError, match="exceeds the limit"):
            enumerate_stable(BipartiteShape(12, 12))


class TestEnumerateRecurrent:
    def test_filters_by_model(self):
        shape = BipartiteShape(2, 2)
        for model in ("asm", "ssm"):
            got = list(enumerate_recurrent(shape, model))
            assert all(is_recurrent(c, model) for c in got)
            want = sum(
                1 for c in enumerate_stable(shape) if is_recurrent(c, model)
            )
            assert len(got) == want

    def test_singleton(self):
        for model in ("asm", "ssm"):
            got = [c.to_text() for c in enumerate_recurrent(BipartiteShape(1, 1), model)]
            assert got == ["0;1"]

    def test_dr_subset_of_sr(self):
        shape = BipartiteShape(3, 2)
        dr = set(enumerate_recurrent(shape, "asm"))
        sr = set(enumerate_recurrent(shape, "ssm"))
        assert dr <= sr

    def test_guard_and_model_checked_at_the_call(self):
        with pytest.raises(GuardError, match="exceeds the limit"):
            enumerate_recurrent(BipartiteShape(12, 12), "asm")
        with pytest.raises(ValueError, match="model must be one of"):
            enumerate_recurrent(BipartiteShape(1, 1), "abelian")


class TestCensus:
    def test_asm_2_2(self):
        row = census(BipartiteShape(2, 2), "asm")
        assert row.total == 12
        assert row.level_poly() == "7+4*q+1*q^2"
        assert row.to_csv() == "2,2,asm,false,12,7+4*q+1*q^2"

    def test_header(self):
        assert CSV_HEADER == "m,n,model,sorted,count,level_poly"

    def test_level_histogram_matches_brute_force(self):
        for model in ("asm", "ssm"):
            for sorted_only in (False, True):
                row = census(BipartiteShape(2, 3), model, sorted_only)
                configs = [
                    (c.top, c.bottom)
                    for c in enumerate_recurrent(
                        BipartiteShape(2, 3), model, sorted_only
                    )
                ]
                want = oracles.brute_level_poly(configs, 2, 3)
                got = dict(enumerate(row.level_counts))
                assert {k: v for k, v in got.items() if v} == want
                assert row.total == len(configs)

    def test_all_coefficients_listed(self):
        row = census(BipartiteShape(3, 3), "ssm", sorted_only=True)
        assert len(row.level_counts) == 3 * 2 + 1
        assert sum(row.level_counts) == row.total


class TestSpanningTrees:
    def test_cross_check_with_recurrent_count(self):
        for m in range(1, 4):
            for n in range(1, 4):
                trees = spanning_tree_count(BipartiteShape(m, n))
                rec = sum(1 for _ in enumerate_recurrent(BipartiteShape(m, n), "asm"))
                assert trees == rec

    def test_matches_naive_subset_count(self):
        for m in range(0, 3):
            for n in range(1, 3):
                got = spanning_tree_count(BipartiteShape(m, n))
                assert got == oracles.naive_spanning_tree_count(m, n)

    def test_star_graph(self):
        assert spanning_tree_count(BipartiteShape(0, 4)) == 1

    def test_known_value(self):
        assert spanning_tree_count(BipartiteShape(2, 2)) == 12


class TestEmpiricalSupport:
    def test_deterministic(self):
        shape = BipartiteShape(2, 2)
        a = empirical_support("ssm", shape, 500, seed=7, burn_in=50)
        b = empirical_support("ssm", shape, 500, seed=7, burn_in=50)
        assert a == b

    def test_subset_of_stable(self):
        shape = BipartiteShape(2, 3)
        sup = empirical_support("asm", shape, 300, seed=2, burn_in=30)
        assert all(c.is_stable for c in sup)

    def test_burn_in_shrinks_support(self):
        shape = BipartiteShape(2, 2)
        full = empirical_support("asm", shape, 400, seed=5, burn_in=0)
        late = empirical_support("asm", shape, 400, seed=5, burn_in=100)
        assert late <= full


def _narayana(a, b):
    return math.comb(a, b) * math.comb(a, b - 1) // a


class TestCensusByDynamicProgramming:
    def test_matches_brute_force_oracle(self):
        for m in range(0, 5):
            for n in range(1, 5):
                for model in ("asm", "ssm"):
                    for sorted_only in (False, True):
                        row = census(BipartiteShape(m, n), model, sorted_only)
                        want = oracles.naive_census(m, n, model, sorted_only)
                        assert (row.total, row.level_counts) == want, (m, n, model, sorted_only)

    def test_unsorted_asm_total_is_the_spanning_tree_count(self):
        for m in range(0, 9):
            for n in range(1, 9):
                shape = BipartiteShape(m, n)
                assert census(shape, "asm").total == spanning_tree_count(shape)

    def test_sorted_asm_totals_are_narayana_numbers(self):
        for m in range(0, 7):
            for n in range(1, 7):
                row = census(BipartiteShape(m, n), "asm", sorted_only=True)
                assert row.total == _narayana(m + n, m + 1), (m, n)

    def test_ssm_counts_at_least_asm(self):
        for m in range(0, 7):
            for n in range(1, 7):
                for sorted_only in (False, True):
                    asm = census(BipartiteShape(m, n), "asm", sorted_only)
                    ssm = census(BipartiteShape(m, n), "ssm", sorted_only)
                    assert ssm.total >= asm.total
                    for row in (asm, ssm):
                        assert sum(row.level_counts) == row.total
                        assert len(row.level_counts) == m * (n - 1) + 1

    def test_counts_beyond_int64(self):
        row = census(BipartiteShape(10, 10), "asm")
        assert row.total == 23_579_476_910_000_000_000 == spanning_tree_count(BipartiteShape(10, 10))

    def test_no_top_vertex_on_a_long_bottom_side(self):
        for model in ("asm", "ssm"):
            t0 = time.perf_counter()
            row = census(BipartiteShape(0, 10_000), model)
            assert time.perf_counter() - t0 < 2.0
            assert (row.total, row.level_counts) == (1, (1,))

    def test_unknown_model_is_checked_before_the_guard(self):
        for shape in (BipartiteShape(2, 2), BipartiteShape(1000, 1000)):
            with pytest.raises(ValueError, match=r"model must be one of \('asm', 'ssm'\), got 'xyz'"):
                census(shape, "xyz")


class TestCensusGuard:
    def test_huge_shape_refused_before_any_work(self):
        t0 = time.perf_counter()
        with pytest.raises(GuardError, match="DP steps"):
            census(BipartiteShape(1000, 1000), "ssm")
        assert time.perf_counter() - t0 < 0.1

    def test_small_explicit_limit_refuses_4x4(self):
        with pytest.raises(GuardError) as info:
            census(BipartiteShape(4, 4), "asm", limit=1000)
        assert str(info.value) == "census of K4,4 needs up to 46250 DP steps, above the limit 1000"

    def test_work_bound_is_the_sum_over_run_starts_and_lengths(self):
        # (m+1) run values x states (m+1)(j0*m+1) x walk ends (m+1)(r*m+1)
        for m in range(0, 7):
            for n in range(1, 7):
                want = (m + 1) ** 3 * sum(
                    (j0 * m + 1) * (r * m + 1) for j0 in range(n) for r in range(1, n - j0 + 1)
                )
                assert _dp_work(m, n) == want

    def test_limit_bounds_dp_work_not_stable_configurations(self):
        # 4x4 has 160,000 stable configurations but needs far fewer DP steps
        row = census(BipartiteShape(4, 4), "asm", limit=100_000)
        assert row.total == 32_000

    def test_default_admits_10x10(self):
        row = census(BipartiteShape(10, 10), "ssm")
        assert row.total >= spanning_tree_count(BipartiteShape(10, 10))
