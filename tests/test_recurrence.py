"""Linear-time recurrence checks against exhaustive witness searches."""
import itertools
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy  # noqa: F401  (loaded, so checks from _NP_MIN on take the numpy path)
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bipsand import (
    BipartiteShape,
    Configuration,
    ForbiddenWitness,
    ToppleOracle,
    counts_below,
    forbidden_witness_asm,
    forbidden_witness_ssm,
    is_deterministically_recurrent,
    is_recurrent,
    is_stochastically_recurrent,
    level,
    sort_config,
)
from bipsand.model import _ROUND_IMPORT
from bipsand.recurrence import _NP_MIN, _dominates


def cfg(text):
    return Configuration.from_text(text)


class TestCountsBelow:
    def test_running_example(self):
        c = cfg("3,1,3,2,3;2,0,4,3")
        assert counts_below(c.top, 4) == (0, 1, 2, 5)

    def test_empty(self):
        assert counts_below((), 3) == (0, 0, 0)

    def test_monotone(self):
        ks = counts_below((0, 2, 2, 1), 4)
        assert ks == (1, 2, 4, 4)
        assert all(ks[i] <= ks[i + 1] for i in range(len(ks) - 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            counts_below((3,), 3)
        with pytest.raises(ValueError):
            counts_below((-1,), 3)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 9), max_size=12))
    def test_matches_quadratic_count(self, values):
        ks = counts_below(tuple(values), 10)
        for j in range(1, 11):
            assert ks[j - 1] == sum(1 for v in values if v < j)


class TestVerdicts:
    def test_running_example(self):
        c = cfg("3,1,3,2,3;2,0,4,3")
        assert is_stochastically_recurrent(c)
        assert not is_deterministically_recurrent(c)
        assert level(c) == 1
        assert sort_config(c).to_text() == "1,2,3,3,3;0,2,3,4"

    def test_dr_example(self):
        c = cfg("0,2,2;2,2,3")
        assert is_deterministically_recurrent(c)
        assert is_stochastically_recurrent(c)
        assert level(c) == 2

    def test_sr_not_dr_example(self):
        c = cfg("0,2,2;2,2,2")
        assert is_stochastically_recurrent(c)
        assert not is_deterministically_recurrent(c)
        assert level(c) == 1

    def test_model_dispatch(self):
        c = cfg("0,2,2;2,2,2")
        assert is_recurrent(c, "ssm")
        assert not is_recurrent(c, "asm")
        with pytest.raises(ValueError):
            is_recurrent(c, "dsm")

    def test_maximal_stable_recurrent(self):
        for m, n in [(1, 1), (2, 3), (4, 2)]:
            c = Configuration.from_vectors((n - 1,) * m, (m,) * n)
            assert is_deterministically_recurrent(c)
            assert is_stochastically_recurrent(c)
            assert level(c) == m * (n - 1)

    def test_zero_not_recurrent(self):
        c = Configuration.zero(BipartiteShape(2, 2))
        assert not is_stochastically_recurrent(c)
        assert not is_deterministically_recurrent(c)

    def test_unstable_rejected(self):
        for fn in (is_stochastically_recurrent, is_deterministically_recurrent):
            with pytest.raises(ValueError):
                fn(cfg("2,1;0,2"))

    def test_no_top_vertices(self):
        # with m=0 the whole graph is a star into the sink
        assert is_stochastically_recurrent(cfg(";0"))
        assert is_deterministically_recurrent(cfg(";0"))

    def test_dr_implies_sr_exhaustive(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for top, bottom in oracles.all_stable(m, n):
                    c = Configuration.from_vectors(top, bottom)
                    if is_deterministically_recurrent(c):
                        assert is_stochastically_recurrent(c)

    def test_order_invariance(self):
        rng = random.Random(3)
        for _ in range(100):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            top = [rng.randint(0, n - 1) for _ in range(m)]
            bottom = [rng.randint(0, m) for _ in range(n)]
            c = Configuration.from_vectors(tuple(top), tuple(bottom))
            rng.shuffle(top)
            rng.shuffle(bottom)
            d = Configuration.from_vectors(tuple(top), tuple(bottom))
            assert is_stochastically_recurrent(c) == is_stochastically_recurrent(d)
            assert is_deterministically_recurrent(c) == is_deterministically_recurrent(d)


class TestLevel:
    def test_matches_totals(self):
        c = cfg("3,1,3,2,3;2,0,4,3")
        assert level(c) == c.total - 5 * 4

    def test_defined_on_unstable(self):
        assert level(cfg("9,9;9")) == 27 - 2

    def test_bounds_on_recurrent(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for top, bottom in oracles.all_stable(m, n):
                    c = Configuration.from_vectors(top, bottom)
                    if is_stochastically_recurrent(c):
                        assert 0 <= level(c) <= m * (n - 1)


class TestWitnesses:
    def test_example_witnesses(self):
        c = cfg("0,2,2;2,2,2")
        assert forbidden_witness_ssm(c) is None
        w = forbidden_witness_asm(c)
        assert w == ForbiddenWitness("asm", (1, 2, 3), (1, 2, 3))

    def test_witness_iff_not_recurrent(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for top, bottom in oracles.all_stable(m, n):
                    c = Configuration.from_vectors(top, bottom)
                    ws = forbidden_witness_ssm(c)
                    wa = forbidden_witness_asm(c)
                    assert (ws is None) == is_stochastically_recurrent(c)
                    assert (wa is None) == is_deterministically_recurrent(c)

    def test_witness_actually_violates(self):
        rng = random.Random(8)
        checked = 0
        while checked < 50:
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            top = tuple(rng.randint(0, n - 1) for _ in range(m))
            bottom = tuple(rng.randint(0, m) for _ in range(n))
            c = Configuration.from_vectors(top, bottom)
            w = forbidden_witness_ssm(c)
            if w is None:
                continue
            checked += 1
            sa = sum(top[i - 1] for i in w.top_indices)
            sb = sum(bottom[j - 1] for j in w.bottom_indices)
            assert sa + sb < len(w.top_indices) * len(w.bottom_indices)

    def test_asm_witness_is_stable_subconfig(self):
        rng = random.Random(9)
        checked = 0
        while checked < 50:
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            top = tuple(rng.randint(0, n - 1) for _ in range(m))
            bottom = tuple(rng.randint(0, m) for _ in range(n))
            c = Configuration.from_vectors(top, bottom)
            w = forbidden_witness_asm(c)
            if w is None:
                continue
            checked += 1
            a, b = len(w.top_indices), len(w.bottom_indices)
            assert all(top[i - 1] < b for i in w.top_indices)
            assert all(bottom[j - 1] < a for j in w.bottom_indices)

    def test_canonical_scan_order(self):
        for m, n in [(2, 2), (3, 2), (2, 3), (0, 3), (1, 4), (4, 1), (3, 3)]:
            for top, bottom in oracles.all_stable(m, n):
                c = Configuration.from_vectors(top, bottom)
                w = forbidden_witness_ssm(c)
                want = oracles.first_ssm_witness(top, bottom)
                got = None if w is None else (w.top_indices, w.bottom_indices)
                assert got == want
                w = forbidden_witness_asm(c)
                want = oracles.first_asm_witness(top, bottom)
                got = None if w is None else (w.top_indices, w.bottom_indices)
                assert got == want

    def test_scan_takes_bottom_sets_in_lexicographic_order(self):
        # the first witness has B = {1, 4}: lexicographic order puts it before
        # {2, 3}, bitmask order (9 > 6) after
        top, bottom = (1, 1, 1), (2, 1, 1, 0)
        w = forbidden_witness_ssm(Configuration.from_vectors(top, bottom))
        assert (w.top_indices, w.bottom_indices) == ((1, 2, 3), (1, 4))
        assert oracles.first_ssm_witness(top, bottom) == ((1, 2, 3), (1, 4))

    def test_guard(self):
        # the scans are polynomial, so no size is refused, past the old
        # m+n <= 24 limit included; only the stability check is left
        for m, n in ((13, 12), (300, 300)):
            c = Configuration.from_vectors((0,) * m, (0,) * n)
            assert forbidden_witness_ssm(c) == ForbiddenWitness("ssm", (1,), (1,))
            assert forbidden_witness_asm(c) == ForbiddenWitness("asm", (1,), (1,))
        unstable = Configuration.from_vectors((3,), (0, 0))
        for search in (forbidden_witness_ssm, forbidden_witness_asm):
            with pytest.raises(ValueError, match="stable configurations only"):
                search(unstable)
            with pytest.raises(TypeError):
                search(c, guard=24)  # the parameter is gone


class TestSortConfig:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_builtin_sort(self, data):
        m = data.draw(st.integers(0, 5))
        n = data.draw(st.integers(1, 5))
        top = tuple(data.draw(st.integers(0, 2 * n)) for _ in range(m))
        bottom = tuple(data.draw(st.integers(0, 2 * m)) for _ in range(n))
        c = Configuration.from_vectors(top, bottom)
        s = sort_config(c)
        assert s.top == tuple(sorted(top))
        assert s.bottom == tuple(sorted(bottom))

    def test_idempotent(self):
        c = cfg("3,1,3,2,3;2,0,4,3")
        assert sort_config(sort_config(c)) == sort_config(c)


class TestLargeInstances:
    def test_numpy_path_agrees_with_small_path(self):
        # same verdicts straddling the vectorization cutoff
        rng = random.Random(21)
        m = n = 3000
        for _ in range(4):
            top = tuple(sorted(rng.randint(0, n - 1) for _ in range(m)))
            bottom = tuple(sorted(rng.randint(0, m) for _ in range(n)))
            c = Configuration.from_vectors(top, bottom)
            ks = counts_below(top, n)
            pref_b = 0
            pref_k = 0
            bs = sorted(bottom)
            sr = True
            for j in range(n):
                pref_b += bs[j]
                pref_k += ks[j]
                if pref_b < pref_k:
                    sr = False
                    break
            assert is_stochastically_recurrent(c) == sr
            dr = all(bs[j] >= ks[j] for j in range(n))
            assert is_deterministically_recurrent(c) == dr
            assert c._rowwise is not None  # the numpy path ran

    def test_large_maximal_recurrent(self):
        m = n = 5000
        c = Configuration.from_vectors((n - 1,) * m, (m,) * n)
        assert is_stochastically_recurrent(c)
        assert is_deterministically_recurrent(c)
        assert level(c) == m * (n - 1)


def stable_configs(sizes):
    """Stable configurations whose m+n is drawn from sizes."""

    @st.composite
    def build(draw):
        total = draw(sizes)
        m = draw(st.integers(0, total - 1))
        n = total - m
        top = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        bottom = draw(st.lists(st.integers(0, m), min_size=n, max_size=n))
        return Configuration.from_vectors(top, bottom)

    return build()


BELOW_NP = st.integers(1, _NP_MIN - 1)
ABOVE_NP = st.integers(_NP_MIN, 3 * _NP_MIN)


class TestOneSizeSwitch:
    @settings(max_examples=40, deadline=None)
    @given(c=st.one_of(stable_configs(BELOW_NP), stable_configs(ABOVE_NP)))
    def test_level_is_ferrers_area_difference(self, c):
        # level is c.total - m*n; this is its Ferrers-area form
        assert level(c) == sum(c.bottom) - sum(counts_below(c.top, c.shape.n))

    def test_both_paths_agree_at_the_switch(self):
        # bottom is the k-vector, less one grain on row i and maybe plus one
        # on an earlier row h, so every verdict pair occurs on each path
        rng = random.Random(31)
        seen = set()
        for total in (_NP_MIN - 1, _NP_MIN):
            for m in (1, total // 3, total // 2, total - 1):
                n = total - m
                top = [rng.choice((0, rng.randrange(n))) for _ in range(m)]
                ks = counts_below(top, n)
                rows = [j for j in range(n) if ks[j] > 0]
                for i in {rows[0], rows[len(rows) // 2], rows[-1]}:
                    for h in (None, -1, 0, i - 1):
                        bs = list(ks)
                        if h is not None:
                            bs[i] -= 1
                            if 0 <= h < i:
                                bs[h] = min(m, bs[h] + 1)
                        bs.sort()
                        bottom = list(bs)
                        rng.shuffle(bottom)
                        c = Configuration.from_vectors(top, bottom)
                        sr = all(sum(bs[: j + 1]) >= sum(ks[: j + 1]) for j in range(n))
                        dr = all(b >= k for b, k in zip(bs, ks))
                        assert (is_stochastically_recurrent(c), is_deterministically_recurrent(c)) == (sr, dr)
                        numpy_ran = c._rowwise is not None
                        assert numpy_ran == (total >= _NP_MIN)
                        seen.add((numpy_ran, sr, dr))
        assert len(seen) == 6

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), total=ABOVE_NP)
    def test_sort_config_above_switch(self, data, total):
        m = data.draw(st.integers(0, total - 1))
        n = total - m
        top = data.draw(st.lists(st.integers(0, 3 * n), min_size=m, max_size=m))
        bottom = data.draw(st.lists(st.integers(0, 3 * m + 3), min_size=n, max_size=n))
        s = sort_config(Configuration.from_vectors(top, bottom))
        assert s.top == tuple(sorted(top))
        assert s.bottom == tuple(sorted(bottom))

    def test_sort_config_huge_unstable_entry(self):
        # sorting must not allocate anything sized by a grain count
        c = Configuration.from_vectors((10**12, 0), (3, 10**12, 1))
        s = sort_config(c)
        assert s.top == (0, 10**12)
        assert s.bottom == (1, 3, 10**12)
        assert sort_config(cfg(";" + str(10**12))).bottom == (10**12,)


class TestOneDominanceKernel:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), total=ABOVE_NP)
    def test_numpy_path_matches_the_shared_kernel(self, data, total):
        # the k-vector itself is recurrent under both models and the k-vector
        # less one grain on its last row under neither, so each example meets
        # all four (model, verdict) pairs; a +-1 perturbation probes the boundary
        m = data.draw(st.integers(1, total - 1))
        n = total - m
        top = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        ks = counts_below(top, n)
        deltas = data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        near = [min(m, max(0, k + d)) for k, d in zip(ks, deltas)]
        short = list(ks[:-1]) + [m - 1]
        for bottom, verdict in ((list(ks), True), (short, False), (near, None)):
            data.draw(st.randoms()).shuffle(bottom)
            c = Configuration.from_vectors(top, bottom)
            for rowwise, check in ((True, is_deterministically_recurrent),
                                   (False, is_stochastically_recurrent)):
                expected = _dominates(ks, sorted(bottom), rowwise)
                assert check(c) == expected
                assert verdict is None or expected == verdict
            assert c._rowwise is not None  # the numpy path ran

    @pytest.mark.parametrize("n", [_NP_MIN, _NP_MIN + 5])
    def test_numpy_path_without_top_vertices(self, n):
        c = Configuration.from_vectors((), (0,) * n)
        assert is_stochastically_recurrent(c)
        assert is_deterministically_recurrent(c)
        assert c._rowwise is not None  # the numpy path ran


def _large_inputs():
    """Three sorted-bottom inputs with m+n >= _NP_MIN: recurrent under asm,
    recurrent under ssm only, and recurrent under neither."""
    rng = random.Random(14)
    m, n = _NP_MIN // 2, _NP_MIN - _NP_MIN // 2 + 8
    while True:
        top = [rng.randrange(n) for _ in range(m)]
        ks = list(counts_below(top, n))
        # move a grain down one row where k jumps by two: prefixes still hold
        jumps = [j for j in range(n - 1) if ks[j + 1] - ks[j] >= 2]
        if jumps:
            break
    ssm_only = list(ks)
    ssm_only[jumps[0]] += 1
    ssm_only[jumps[0] + 1] -= 1
    neither = ks[:-1] + [m - 1]
    return [(top, ks, (True, True)), (top, ssm_only, (False, True)), (top, neither, (False, False))]


class TestVerdictMemo:
    """From _NP_MIN on, the first check of an instance records both verdicts."""

    @pytest.mark.parametrize("first", ["asm", "ssm"])
    def test_both_verdicts_match_the_oracles_in_either_order(self, first):
        second = "ssm" if first == "asm" else "asm"
        for top, bottom, want in _large_inputs():
            expected = {"asm": not oracles.asm_witness_exists_fast(top, bottom),
                        "ssm": not oracles.ssm_witness_exists_fast(top, bottom)}
            assert (expected["asm"], expected["ssm"]) == want
            c = Configuration.from_vectors(top, bottom)
            assert is_recurrent(c, first) == expected[first]
            assert c._rowwise is not None  # the numpy path ran
            assert is_recurrent(c, second) == expected[second]
            assert is_recurrent(c, first) == expected[first]

    def test_checked_and_unchecked_are_one_key(self):
        top, bottom, _ = _large_inputs()[0]
        checked = Configuration.from_vectors(top, bottom)
        unchecked = Configuration.from_vectors(top, bottom)
        assert is_recurrent(checked, "ssm")
        assert checked._rowwise is not None and unchecked._rowwise is None
        assert checked == unchecked and unchecked == checked
        assert hash(checked) == hash(unchecked)
        assert repr(checked) == repr(unchecked)
        assert Counter([checked, unchecked]) == Counter({unchecked: 2})

    def test_unstable_input_raises_on_every_call(self):
        top, bottom, _ = _large_inputs()[0]
        for unstable in (Configuration.from_vectors(top, bottom[:-1] + [len(top) + 1]),
                         Configuration.from_vectors([10**30] + top[1:], bottom)):
            for model in ("asm", "ssm", "asm", "ssm"):
                with pytest.raises(ValueError) as exc:
                    is_recurrent(unstable, model)
                assert "defined on stable configurations only" in str(exc.value)


class TestGreedyWitnessScan:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(0, 4), n=st.integers(1, 4))
    def test_matches_exhaustive_oracles(self, data, m, n):
        top = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
        bottom = tuple(data.draw(st.lists(st.integers(0, m), min_size=n, max_size=n)))
        c = Configuration.from_vectors(top, bottom)
        for search, oracle in (
            (forbidden_witness_ssm, oracles.first_ssm_witness),
            (forbidden_witness_asm, oracles.first_asm_witness),
        ):
            w = search(c)
            got = None if w is None else (w.top_indices, w.bottom_indices)
            assert got == oracle(top, bottom)

    def test_memory_stays_small_at_the_default_guard(self):
        # an all-subset table over K12,12 would take hundreds of MB
        c = Configuration.from_vectors((0,) * 12, (0,) * 12)
        tracemalloc.start()
        try:
            w = forbidden_witness_ssm(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w == ForbiddenWitness("ssm", (1,), (1,))
        assert peak < 2**20

    def test_large_shape_agrees_with_the_recurrence_check(self):
        # bottom is the k-vector (mode 0), less one grain on row i (mode 1),
        # and plus one on an earlier row (mode 2), so every verdict occurs
        rng = random.Random(41)
        m = n = 500
        verdicts = set()
        for mode in (0, 1, 2) * 2:
            top = [rng.randrange(n) for _ in range(m)]
            bottom = list(counts_below(top, n))
            if mode:
                i = rng.choice([j for j in range(1, n) if 0 < bottom[j] < m])
                bottom[i] -= 1
                if mode == 2:
                    bottom[rng.randrange(i)] += 1
            rng.shuffle(bottom)
            c = Configuration.from_vectors(top, bottom)
            for model, search in (("ssm", forbidden_witness_ssm), ("asm", forbidden_witness_asm)):
                w = search(c)
                recurrent = is_recurrent(c, model)
                verdicts.add((model, recurrent))
                assert (w is None) == recurrent
                if w is None:
                    continue
                a, b = w.top_indices, w.bottom_indices
                if model == "ssm":
                    grains = sum(top[i - 1] for i in a) + sum(bottom[j - 1] for j in b)
                    assert grains < len(a) * len(b)
                else:
                    assert all(top[i - 1] < len(b) for i in a)
                    assert all(bottom[j - 1] < len(a) for j in b)
        assert len(verdicts) == 4


class TestCountsBelowOnePass:
    """counts_below checks each value as it counts it, in one pass."""

    def test_generator_input(self):
        assert counts_below((v for v in (0, 2, 2, 1)), 4) == (1, 2, 4, 4)

    @pytest.mark.parametrize("values", [(0, -1), (0, 3), (3, -1)])
    def test_out_of_range_message(self, values):
        with pytest.raises(ValueError) as exc:
            counts_below(values, 3)
        assert str(exc.value) == "values must lie in [0, 3)"

    def test_negative_bound_with_empty_input(self):
        assert counts_below((), -2) == ()
        assert counts_below(iter(()), -1) == ()


class TestCountsBelowRejectsNonIntegers:
    """A non-integer entry gives ValueError, not the list index's TypeError."""

    @pytest.mark.parametrize("values", [(1.5,), (0, "1"), (None,)])
    def test_message(self, values):
        with pytest.raises(ValueError) as exc:
            counts_below(values, 3)
        assert str(exc.value) == "values must be integers in [0, 3)"

    def test_in_range_float_is_refused(self):
        # 1.5 passes the range test, so only the index can catch it
        with pytest.raises(ValueError):
            counts_below((0, 1.5, 2), 3)


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def _fresh(code):
    """stdout of `code` run in a new interpreter that imports bipsand from src."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


# a 2*10^4-vertex recurrent text, the size of the benchmark's CLI check
_LARGE_TEXT = ",".join(["19990"] * 9) + ";" + ",".join(["9"] * 19991)


class TestNumpyLoadedLazily:
    """numpy is imported by the first check with m+n >= _NP_IMPORT, or the
    first ssm stabilization whose first round reaches _ROUND_IMPORT, not
    before."""

    def test_import_leaves_numpy_unloaded(self):
        assert _fresh("import sys, bipsand, bipsand.cli; print('numpy' in sys.modules)") == "False\n"

    @pytest.mark.parametrize("argv", [
        ["check", "3,1,3,2,3;2,0,4,3", "--model", "ssm"],
        ["level", "3,1,3,2,3;2,0,4,3"],
        ["stabilize", "2,1;0,2", "--model", "ssm", "--seed", "5"],
        ["simulate", "--model", "ssm", "--m", "2", "--n", "2", "--steps", "20"],
        ["biject", "--to", "motzkin", "0,2,2;2,2,3"],
        ["dag", "--model", "asm", "--m", "2", "--n", "2"],
        ["enumerate", "--m", "2", "--n", "2", "--recurrent", "--model", "asm"],
        ["census", "--m", "3", "--n", "3", "--model", "ssm"],
        # a first round of 100 firings: rounds would not repay loading numpy
        ["stabilize", "600,0,0,0,0,0;0,0,0,0,0,0", "--model", "ssm", "--seed", "5"],
        # above _NP_MIN: the check takes a few ms, importing numpy about 0.15 s
        ["check", _LARGE_TEXT, "--model", "asm"],
    ])
    def test_small_commands_leave_numpy_unloaded(self, argv):
        code = (
            "import contextlib, io, sys\n"
            "from bipsand.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = main({argv!r})\n"
            "print(rc, 'numpy' in sys.modules)"
        )
        assert _fresh(code) == "0 False\n"

    def test_the_gate(self):
        # _numpy(work, pays, loads): None below pays, and below loads while
        # numpy is not loaded; numpy itself from loads on, and then from pays on
        code = (
            "import sys\n"
            "from bipsand.model import _numpy\n"
            "for work in (9, 10, 99, 100, 10, 9):\n"
            "    np = _numpy(work, 10, 100)\n"
            "    print(work, None if np is None else np.__name__, 'numpy' in sys.modules)"
        )
        assert _fresh(code).splitlines() == [
            "9 None False", "10 None False", "99 None False",
            "100 numpy True", "10 numpy True", "9 None True",
        ]

    def test_first_large_check_loads_numpy(self):
        # checks of _NP_IMPORT - 1 and _NP_IMPORT entries: only the second
        # loads numpy, and only it records the verdicts
        code = (
            "import sys\n"
            "from bipsand import BipartiteShape, Configuration, is_recurrent\n"
            "from bipsand.recurrence import _NP_IMPORT\n"
            "for total in (_NP_IMPORT - 1, _NP_IMPORT):\n"
            "    m = total // 2; n = total - m\n"
            "    c = Configuration(BipartiteShape(m, n), (n - 1,) * m, (m,) * n)\n"
            "    print(is_recurrent(c, 'asm'), c._rowwise is not None, 'numpy' in sys.modules)"
        )
        assert _fresh(code) == "True False False\nTrue True True\n"

    def test_first_large_pile_loads_numpy(self):
        # K2,2 piles with first rounds of _ROUND_IMPORT - 1 and _ROUND_IMPORT
        # firings: only the second loads numpy, and both match the naive oracle
        piles = [(2 * _ROUND_IMPORT - 2, 0), (2 * _ROUND_IMPORT, 1)]
        code = (
            "import sys\n"
            "from bipsand import Configuration, ToppleOracle, stabilize_stochastic\n"
            f"for top in {piles!r}:\n"
            "    c = Configuration.from_vectors(top, (0, 0))\n"
            "    stable, (ft, fb) = stabilize_stochastic(c, ToppleOracle(7, 0.5))\n"
            "    print('numpy' in sys.modules, stable.top, stable.bottom, ft, fb)\n"
        )
        bit = ToppleOracle(7, 0.5).bit
        want = [" ".join(map(str, (loads, *oracles.naive_stabilize_ssm(top, (0, 0), bit))))
                for loads, top in zip((False, True), piles)]
        assert _fresh(code).splitlines() == want

    def test_a_stand_in_set_before_the_first_large_check_is_kept(self):
        # a profiler may put a proxy in place of numpy; the check must use it
        code = (
            "import numpy\n"
            "import bipsand.recurrence as rec\n"
            "from bipsand import BipartiteShape, Configuration, is_recurrent\n"
            "class StandIn:\n"
            "    calls = 0\n"
            "    def __getattr__(self, name):\n"
            "        StandIn.calls += 1\n"
            "        return getattr(numpy, name)\n"
            "stand_in = rec.np = StandIn()\n"
            "m = rec._NP_MIN // 2; n = rec._NP_MIN - m\n"
            "c = Configuration(BipartiteShape(m, n), (0,) * m, (m,) * n)\n"
            "print(is_recurrent(c, 'ssm'), rec.np is stand_in, StandIn.calls > 0)"
        )
        assert _fresh(code) == "True True True\n"
