"""Core state, toppling, stabilization, and the grain-addition chain."""
import functools
import itertools
import random
import sys
import time
from collections import Counter, namedtuple
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bipsand import (
    BipartiteShape,
    Configuration,
    FerrersDiagram,
    FerrersPair,
    ToppleOracle,
    TopplingStallError,
    Vertex,
    add_grain,
    build_dag,
    census,
    config_to_labelled_pair,
    config_to_pair,
    config_to_polyomino,
    empirical_support,
    enumerate_recurrent,
    enumerate_stable,
    is_recurrent,
    is_stable,
    labelled_pair_to_config,
    markov_step,
    pair_to_config,
    polyomino_to_config,
    simulate,
    sort_config,
    spanning_tree_count,
    stabilize_deterministic,
    stabilize_stochastic,
    topple_deterministic,
    topple_stochastic,
    trajectory,
    witness_sequence,
)
from bipsand._prf import DOMAIN_CHOICE, DOMAIN_STEP, prf64


def cfg(text):
    return Configuration.from_text(text)


class TestShapeAndVertex:
    def test_degrees(self):
        s = BipartiteShape(5, 4)
        assert s.top_degree == 4
        assert s.bottom_degree == 6

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            BipartiteShape(-1, 2)
        with pytest.raises(ValueError):
            BipartiteShape(2, 0)

    def test_vertex_validation(self):
        assert Vertex("sink").index == 0
        with pytest.raises(ValueError):
            Vertex("top", 0)
        with pytest.raises(ValueError):
            Vertex("middle", 1)


class TestConfiguration:
    def test_text_roundtrip(self):
        for text in ["2,1;0,2", ";2", "0;1", "3,1,3,2,3;2,0,4,3"]:
            assert cfg(text).to_text() == text

    def test_json_roundtrip(self):
        c = cfg("2,1;0,2")
        assert Configuration.from_json_dict(c.to_json_dict()) == c
        assert c.to_json_dict() == {"top": [2, 1], "bottom": [0, 2]}

    def test_malformed_text(self):
        for bad in ["", "1,2", "1;x", "1;", "a;1", "1;2;3", "1.5;2"]:
            with pytest.raises(ValueError):
                cfg(bad)

    def test_malformed_json(self):
        with pytest.raises(ValueError):
            Configuration.from_json_dict({"top": [1]})
        with pytest.raises(ValueError):
            Configuration.from_json_dict({"top": [1], "bottom": [0.5]})

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Configuration(BipartiteShape(1, 1), (-1,), (0,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Configuration(BipartiteShape(2, 2), (1,), (0, 0))

    def test_stability(self):
        assert cfg("1,1;2,2").is_stable
        assert not cfg("2,1;0,2").is_stable
        assert not cfg("1,1;3,0").is_stable

    def test_sortedness_and_total(self):
        assert cfg("1,2;0,2").is_sorted
        assert not cfg("2,1;0,2").is_sorted
        assert cfg("2,1;0,2").total == 5

    def test_zero(self):
        z = Configuration.zero(BipartiteShape(2, 3))
        assert z.total == 0 and z.is_stable


NON_INTS = st.one_of(
    st.floats(allow_nan=True), st.booleans(), st.text(max_size=3), st.none(),
    st.fractions(), st.floats(allow_nan=True).map(np.float64),
)


def _rejected(call):
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


class TestGrainCountsAreIntegers:
    """Every grain count is an int >= 0 (bool excluded), checked once by the
    constructor or from_vectors; numpy integers become int and anything else
    is refused."""

    def test_half_integer_bottom_is_refused(self):
        # it used to reach is_recurrent, which answered True under ssm
        assert _rejected(lambda: Configuration.from_vectors((2, 2), (0.5, 0.5, 1.0))) == (
            "grain counts must be integers, got 0.5")

    def test_float_top_is_refused(self):
        # it used to give float firing counts from stabilize_deterministic
        assert _rejected(lambda: Configuration.from_vectors((2.5,), (0,))) == (
            "grain counts must be integers, got 2.5")

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
    def test_message_names_the_entry(self, bad):
        assert _rejected(lambda: Configuration.from_vectors((1, bad), (0,))) == (
            f"grain counts must be integers, got {bad!r}")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), m=st.integers(0, 4), n=st.integers(1, 4), bad=NON_INTS)
    def test_non_int_entry_anywhere(self, data, m, n, bad):
        top = data.draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))
        bottom = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        side = top if m and data.draw(st.booleans()) else bottom
        side[data.draw(st.integers(0, len(side) - 1))] = bad
        shape = BipartiteShape(m, n)
        for call in (lambda: Configuration(shape, top, bottom),
                     lambda: Configuration.from_vectors(top, bottom),
                     lambda: Configuration.from_json_dict({"top": top, "bottom": bottom})):
            assert _rejected(call).startswith("grain counts must be integers, got ")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(0, 4), n=st.integers(1, 4))
    def test_numpy_integers_become_int(self, data, m, n):
        top = data.draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))
        bottom = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        kinds = st.sampled_from((np.int8, np.int64, np.uint16, np.uint64))
        mixed_top = [data.draw(kinds)(x) for x in top]
        mixed_bottom = [data.draw(kinds)(x) for x in bottom]
        c = Configuration.from_vectors(mixed_top, mixed_bottom)
        assert c == Configuration.from_vectors(top, bottom)
        assert {type(x) for x in c.top + c.bottom} <= {int}

    def test_side_that_is_not_iterable(self):
        # tuple(side) used to raise TypeError ("'int' object is not iterable")
        assert _rejected(lambda: Configuration(BipartiteShape(1, 1), 5, (0,))) == (
            "grain counts must be an iterable of integers, got 5")
        assert _rejected(lambda: Configuration.from_vectors(None, (0,))) == (
            "grain counts must be an iterable of integers, got None")

    def test_numpy_bool_and_negative_numpy_integer(self):
        assert _rejected(lambda: Configuration.from_vectors((np.bool_(True),), (0,))).startswith(
            "grain counts must be integers")
        assert _rejected(lambda: Configuration.from_vectors((np.int64(-1),), (0,))) == (
            "grain counts must be non-negative")


def _revalidated(c):
    """The validating constructor must accept c's own vectors and give c,
    in an instance of the same size (a chain keeps many of them)."""
    assert {type(x) for x in c.top + c.bottom} <= {int}
    again = Configuration(c.shape, c.top, c.bottom)
    assert again == c
    assert sys.getsizeof(vars(again)) == sys.getsizeof(vars(c))
    return c


class TestTrustedOutputs:
    """Outputs built without validation are what the validating constructor
    gives on the same vectors, on every shape with m, n <= 3."""

    SHAPES = [(m, n) for m in range(4) for n in range(1, 4)]

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_stabilize_add_grain_and_sort(self, m, n):
        shape = BipartiteShape(m, n)
        _revalidated(Configuration.zero(shape))
        vertices = [Vertex("top", i) for i in range(1, m + 1)]
        vertices += [Vertex("bottom", j) for j in range(1, n + 1)]
        oracle = ToppleOracle(7)
        for top, bottom in oracles.all_stable(m, n):
            c = Configuration.from_vectors(top, bottom)
            _revalidated(sort_config(c))
            for v in vertices:
                bumped = _revalidated(add_grain(c, v))
                if not is_stable(bumped):  # then v itself holds too many grains
                    _revalidated(topple_deterministic(bumped, v))
                _revalidated(stabilize_deterministic(bumped)[0])
                _revalidated(stabilize_stochastic(bumped, oracle)[0])
        heavy = Configuration.from_vectors((5 * n,) * m, (7 * (m + 1),) * n)
        for model_output in (stabilize_deterministic(heavy), stabilize_stochastic(heavy, oracle)):
            _revalidated(model_output[0])
            assert {type(x) for side in model_output[1] for x in side} <= {int}

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_inverses_and_streams(self, m, n):
        shape = BipartiteShape(m, n)
        for c in enumerate_stable(shape):
            _revalidated(c)
            for model in ("asm", "ssm"):
                if not is_recurrent(c, model):
                    continue
                assert _revalidated(labelled_pair_to_config(
                    model, config_to_labelled_pair(model, c))) == c
                s = sort_config(c)
                assert _revalidated(pair_to_config(model, config_to_pair(model, s))) == s
                if model == "asm":
                    assert _revalidated(polyomino_to_config(config_to_polyomino(s))) == s
        assert _revalidated(Configuration.from_text(";1" if m == 0 else "0;1")).total == 1


class TestDeterministicToppling:
    def test_single_topples(self):
        c = cfg("2,1;0,2")
        c1 = topple_deterministic(c, Vertex("top", 1))
        assert c1.to_text() == "0,1;1,3"
        c2 = topple_deterministic(c1, Vertex("bottom", 2))
        assert c2.to_text() == "1,2;1,0"
        c3 = topple_deterministic(c2, Vertex("top", 2))
        assert c3.to_text() == "1,0;2,1"

    def test_stable_vertex_refuses(self):
        with pytest.raises(ValueError):
            topple_deterministic(cfg("2,1;0,2"), Vertex("top", 2))
        with pytest.raises(ValueError):
            topple_deterministic(cfg("2,1;0,2"), Vertex("sink"))

    def test_stabilize_example(self):
        stable, fires = stabilize_deterministic(cfg("2,1;0,2"))
        assert stable.to_text() == "1,0;2,1"
        assert fires == ((1, 1), (0, 1))

    def test_stabilize_fixed_point(self):
        c = cfg("1,0;2,1")
        stable, fires = stabilize_deterministic(c)
        assert stable == c
        assert fires == ((0, 0), (0, 0))

    def test_matches_naive(self):
        rng = random.Random(11)
        for _ in range(200):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            top = tuple(rng.randint(0, 2 * n) for _ in range(m))
            bottom = tuple(rng.randint(0, 2 * m + 2) for _ in range(n))
            want = oracles.naive_stabilize_asm(top, bottom)
            got, (ft, fb) = stabilize_deterministic(Configuration.from_vectors(top, bottom))
            assert (got.top, got.bottom, ft, fb) == want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_grain_conservation_mod_sink(self, data):
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 4))
        top = tuple(data.draw(st.integers(0, 3 * n)) for _ in range(m))
        bottom = tuple(data.draw(st.integers(0, 3 * m)) for _ in range(n))
        c = Configuration.from_vectors(top, bottom)
        stable, (ft, fb) = stabilize_deterministic(c)
        assert stable.is_stable
        # each bottom firing sends exactly one grain to the sink
        assert stable.total == c.total - sum(fb)


class TestOdometer:
    """asm stabilizes from its firing totals; the naive oracle topples one
    vertex at a time, so each test compares against a real toppling order."""

    @pytest.mark.parametrize("m, n", [(m, n) for m in range(4) for n in range(1, 4)])
    def test_every_stable_plus_pile_input(self, m, n):
        checked = 0
        for top in itertools.product(range(n), repeat=m):
            for bottom in itertools.product(range(m + 1), repeat=n):
                for v in range(m + n):
                    # piles of 1 grain (a chain step) up to n(m+1), in turn
                    grains = [*top, *bottom]
                    grains[v] += 1 + checked % (n * (m + 1))
                    t, b = tuple(grains[:m]), tuple(grains[m:])
                    got, (ft, fb) = stabilize_deterministic(Configuration.from_vectors(t, b))
                    assert (got.top, got.bottom, ft, fb) == oracles.naive_stabilize_asm(t, b)
                    checked += 1
        assert checked == n**m * (m + 1) ** n * (m + n)

    @pytest.mark.parametrize("m, n, grains, firings", [
        (2, 2, 10**9, 2_499_999_992),
        (50, 50, 10**5, 197_000),
    ])
    def test_heavy_pile(self, m, n, grains, firings):
        c = Configuration.from_vectors((grains,) + (0,) * (m - 1), (0,) * n)
        t0 = time.perf_counter()
        stable, (ft, fb) = stabilize_deterministic(c)
        assert time.perf_counter() - t0 < 0.5
        assert stable.is_stable
        # every grain that leaves goes to the sink, one per bottom firing
        assert grains == stable.total + sum(fb)
        assert sum(ft) + sum(fb) == firings


def _budget_inputs():
    """Seeded (top, bottom, oracle) inputs, every bottom vertex unstable."""
    rng = random.Random(23)
    for trial in range(80):
        m, n = rng.randint(0, 4), rng.randint(1, 4)
        top = tuple(rng.randint(0, 3 * n) for _ in range(m))
        bottom = tuple(rng.randint(m + 1, 3 * m + 3) for _ in range(n))
        yield top, bottom, ToppleOracle(trial, p=rng.choice((0.2, 0.5, 1.0)))


def _check_budget_boundary(top, bottom, oracle):
    """A budget of exactly the naive oracle's firing total F succeeds, and
    F - 1 stalls with the budget in the message."""
    want = oracles.naive_stabilize_ssm(top, bottom, oracle.bit)
    c = Configuration.from_vectors(top, bottom)
    fires = sum(want[2]) + sum(want[3])
    got, (ft, fb) = stabilize_stochastic(c, oracle, max_firings=fires)
    assert (got.top, got.bottom, ft, fb) == want
    with pytest.raises(TopplingStallError) as exc:
        stabilize_stochastic(c, oracle, max_firings=fires - 1)
    assert str(exc.value).startswith(f"no stable state after {fires - 1} firings")


class TestStochasticToppling:
    def test_committed_trace(self):
        # scripted coin flips; codes: sink 0, top i -> 2i, bottom j -> 2j+1
        script = {
            (2, 0, 3): 0, (2, 0, 5): 1,          # first top vertex fires
            (5, 0, 0): 1, (5, 0, 2): 0, (5, 0, 4): 1,  # second bottom fires
            (4, 0, 3): 1, (4, 0, 5): 1,          # second top vertex fires
        }

        class Scripted:
            def bit(self, vertex_code, firing, neighbor_code):
                return script[(vertex_code, firing, neighbor_code)]

        oracle = Scripted()
        c = cfg("2,1;0,2")
        c1 = topple_stochastic(c, Vertex("top", 1), oracle, 0)
        assert c1.to_text() == "1,1;0,3"
        c2 = topple_stochastic(c1, Vertex("bottom", 2), oracle, 0)
        assert c2.to_text() == "1,2;0,1"
        c3 = topple_stochastic(c2, Vertex("top", 2), oracle, 0)
        assert c3.to_text() == "1,0;1,2"
        assert c3.is_stable

    def test_full_probability_matches_deterministic(self):
        rng = random.Random(5)
        oracle = ToppleOracle(99, p=1.0)
        for _ in range(100):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            top = tuple(rng.randint(0, 2 * n) for _ in range(m))
            bottom = tuple(rng.randint(0, 2 * m) for _ in range(n))
            c = Configuration.from_vectors(top, bottom)
            det = stabilize_deterministic(c)
            sto = stabilize_stochastic(c, oracle)
            assert sto == det

    def test_matches_naive_with_shared_bits(self):
        rng = random.Random(17)
        for trial in range(60):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            top = tuple(rng.randint(0, 2 * n) for _ in range(m))
            bottom = tuple(rng.randint(0, 2 * m + 1) for _ in range(n))
            oracle = ToppleOracle(trial, p=0.5)
            want = oracles.naive_stabilize_ssm(top, bottom, oracle.bit)
            got, (ft, fb) = stabilize_stochastic(Configuration.from_vectors(top, bottom), oracle)
            assert (got.top, got.bottom, ft, fb) == want

    def test_stall_guard(self):
        c = cfg("9,9;9,9")
        with pytest.raises(TopplingStallError):
            stabilize_stochastic(c, ToppleOracle(1), max_firings=3)

    def test_budget_boundary(self):
        # the budget allows exactly the firings that stabilization needs
        for top, bottom, oracle in _budget_inputs():
            _check_budget_boundary(top, bottom, oracle)

    def test_oracle_validation(self):
        with pytest.raises(ValueError):
            ToppleOracle(0, p=0.0)
        with pytest.raises(ValueError):
            ToppleOracle(0, p=1.5)

    def test_oracle_follows_p(self):
        oracle = ToppleOracle(4, p=0.3)
        hits = sum(oracle.bit(2, k, 3) for k in range(20000))
        assert abs(hits / 20000 - 0.3) < 0.02

    def test_oracle_deterministic(self):
        a = ToppleOracle(12, p=0.5)
        b = ToppleOracle(12, p=0.5)
        assert [a.bit(2, k, 5) for k in range(50)] == [
            b.bit(2, k, 5) for k in range(50)
        ]


@functools.cache
def _round_cases() -> tuple:
    """300 seeded (top, bottom, oracle, naive result) cases, m = 0 and p = 1
    included; a third hold piles that take several rounds."""
    rng = random.Random(61)
    cases = []
    for trial in range(300):
        m, n = rng.randint(0, 9), rng.randint(1, 9)
        top = [rng.randint(0, 2 * n) for _ in range(m)]
        bottom = [rng.randint(0, 2 * m + 2) for _ in range(n)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            side = top if m and rng.random() < 0.5 else bottom
            side[rng.randrange(len(side))] += rng.randint(40, 200)
        oracle = ToppleOracle(trial, rng.choice((0.1, 0.3, 0.5, 0.9, 1.0)))
        cases.append((top, bottom, oracle, oracles.naive_stabilize_ssm(top, bottom, oracle.bit)))
    return tuple(cases)


class TestRounds:
    """A stock ToppleOracle fires in numpy rounds, then from the stack; both
    settings below must give the naive oracle's state and firing counts:
    every round batched (_ROUND_MIN = 1) and the default hand-off."""

    @pytest.fixture(params=[1, None], ids=["every-round", "default"])
    def rounds(self, request, monkeypatch):
        """The list of calls of the rounds engine, as they happen."""
        import bipsand.model

        if request.param is not None:
            monkeypatch.setattr(bipsand.model, "_ROUND_MIN", request.param)
        calls = []
        engine = bipsand.model._rounds

        def counted(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(bipsand.model, "_rounds", counted)
        return calls

    def test_matches_naive(self, rounds):
        for top, bottom, oracle, want in _round_cases():
            got, (ft, fb) = stabilize_stochastic(Configuration.from_vectors(top, bottom), oracle)
            assert (got.top, got.bottom, ft, fb) == want, (top, bottom, oracle)
        assert len(rounds) > 60, len(rounds)

    def test_capped_rounds_match_naive(self, rounds, monkeypatch):
        # rounds of a few firings each: a capped round fires a prefix of the
        # legal firings, and the next round fires the rest
        import bipsand.model

        monkeypatch.setattr(bipsand.model, "_ROUND_BITS", 24)
        for top, bottom, oracle, want in _round_cases()[:100]:
            got, (ft, fb) = stabilize_stochastic(Configuration.from_vectors(top, bottom), oracle)
            assert (got.top, got.bottom, ft, fb) == want, (top, bottom, oracle)
        assert rounds

    def test_budget_boundary(self, rounds):
        for top, bottom, oracle in _budget_inputs():
            _check_budget_boundary(top, bottom, oracle)
        # piles whose stall falls inside a round at the default setting too
        rng = random.Random(29)
        for trial in range(6):
            m, n = rng.randint(0, 5), rng.randint(1, 5)
            top = tuple(rng.randint(0, 60) for _ in range(m))
            _check_budget_boundary(top, (300,) * n, ToppleOracle(trial, 0.5))
        assert rounds

    def test_overridden_bit_is_called_once_per_bit(self, rounds):
        # bench/golden.json's bit counts rest on this: a subclass is no stock oracle
        draws = []

        class Counting(ToppleOracle):
            def bit(self, vertex_code, firing, neighbor_code):
                draws.append(1)
                return super().bit(vertex_code, firing, neighbor_code)

        c = Configuration.from_vectors((2000, 0, 0, 0, 0), (0,) * 5)
        got = stabilize_stochastic(c, Counting(1, 0.5))
        assert got == stabilize_stochastic(c, ToppleOracle(1, 0.5))
        ft, fb = got[1]
        assert (sum(ft) + sum(fb), len(draws)) == (8329, 45416)
        assert len(draws) == 5 * sum(ft) + 6 * sum(fb)
        assert len(rounds) == 1  # the stock oracle's run only

    def test_lower_edge_of_the_gate(self, rounds):
        # numpy is loaded here, so a first round of _ROUND_MIN firings (16
        # grains on a K2,2 top vertex at the default) fires in rounds, and
        # one of _ROUND_MIN - 1 firings (14 grains) on the stack alone
        import bipsand.model

        oracle = ToppleOracle(5, 0.5)
        called = []
        for first in (bipsand.model._ROUND_MIN - 1, bipsand.model._ROUND_MIN):
            top = (2 * first, 0)
            got, (ft, fb) = stabilize_stochastic(Configuration.from_vectors(top, (0, 0)), oracle)
            assert (got.top, got.bottom, ft, fb) == oracles.naive_stabilize_ssm(
                top, (0, 0), oracle.bit)
            called.append(len(rounds))
        assert called == [0, 1]

    def test_custom_oracles_never_fire_in_rounds(self, rounds):
        # a first round of _ROUND_IMPORT firings: a stock oracle fires it in
        # rounds, a duck-typed oracle or a subclass on the stack
        import bipsand.model

        class Same(ToppleOracle):
            def bit(self, vertex_code, firing, neighbor_code):
                return super().bit(vertex_code, firing, neighbor_code)

        stock = ToppleOracle(4, 0.5)
        c = Configuration.from_vectors((2 * bipsand.model._ROUND_IMPORT, 0), (0, 0))
        for oracle in (SimpleNamespace(bit=stock.bit), Same(4, 0.5)):
            assert stabilize_stochastic(c, oracle) == stabilize_stochastic(c, stock)
        assert len(rounds) == 2  # the two stock runs only

    def test_huge_pile_stalls_at_once(self):
        # the first round alone needs 5 * 10^11 firings, so both budgets
        # stall at once; spending 10^6 firings one at a time takes about 3 s
        c = Configuration.from_vectors((10**12, 0), (0, 0))
        for budget in (10**6, 5 * 10**11):
            start = time.perf_counter()
            with pytest.raises(TopplingStallError) as exc:
                stabilize_stochastic(c, ToppleOracle(1, 0.5), max_firings=budget)
            assert time.perf_counter() - start < 0.5
            assert str(exc.value).startswith(f"no stable state after {budget} firings")

    def test_pile_past_int64_stalls_at_once(self):
        # no round holds such counts, so only the first-round bound stops it
        # before the stack spends the budget one firing at a time
        c = Configuration.from_vectors((10**30, 0), (0, 0))
        for budget in (10, 10**6):
            start = time.perf_counter()
            with pytest.raises(TopplingStallError):
                stabilize_stochastic(c, ToppleOracle(1, 0.5), max_firings=budget)
            assert time.perf_counter() - start < 0.5


class TestChain:
    def test_add_grain(self):
        c = add_grain(cfg("0,0;0,0"), Vertex("bottom", 2))
        assert c.to_text() == "0,0;0,1"
        with pytest.raises(ValueError):
            add_grain(cfg("0;0"), Vertex("sink"))

    def test_markov_step_requires_stable(self):
        with pytest.raises(ValueError):
            markov_step("asm", cfg("2,1;0,2"), Vertex("top", 1))

    def test_markov_step_requires_oracle_for_ssm(self):
        with pytest.raises(ValueError):
            markov_step("ssm", cfg("0,0;0,0"), Vertex("top", 1))

    def test_trajectory_deterministic(self):
        shape = BipartiteShape(2, 2)
        a = list(trajectory("ssm", shape, 50, seed=3))
        b = list(trajectory("ssm", shape, 50, seed=3))
        assert a == b
        assert len(a) == 51
        assert all(s.is_stable for s in a)

    def test_trajectory_seed_sensitivity(self):
        shape = BipartiteShape(2, 2)
        a = list(trajectory("asm", shape, 60, seed=1))
        b = list(trajectory("asm", shape, 60, seed=2))
        assert a != b

    def test_simulate_counts(self):
        shape = BipartiteShape(1, 2)
        visits = simulate("asm", shape, 80, seed=9)
        assert sum(visits.values()) == 81
        assert all(s.is_stable for s in visits)

    def test_bad_model_name(self):
        with pytest.raises(ValueError):
            markov_step("xyz", cfg("0,0;0,0"), Vertex("top", 1))

    def test_bad_policy_name(self):
        # checked before any bit is drawn, also when there is nothing to topple
        for call in (
            lambda: stabilize_deterministic(cfg("2,1;0,2"), policy="random"),
            lambda: stabilize_stochastic(cfg("0,0;0,0"), ToppleOracle(1), "random"),
            lambda: stabilize_stochastic(cfg("2,1;0,2"), ToppleOracle(1), "random"),
        ):
            assert _rejected(call) == "unknown toppling policy 'random'"

    def test_every_policy_name_gives_the_default(self):
        # the names stay accepted, positionally too, and order nothing
        c = cfg("5,0,3;0,7")
        oracle = ToppleOracle(3, 0.5)
        det, sto = stabilize_deterministic(c), stabilize_stochastic(c, oracle)
        for policy in ("fifo", "lifo", "min-index"):
            assert stabilize_deterministic(c, policy) == det
            assert stabilize_stochastic(c, oracle, policy, max_firings=100) == sto


class TestVertexChoiceCoverage:
    def test_all_vertices_hit(self):
        shape = BipartiteShape(2, 3)
        seen = set()
        prev = Configuration.zero(shape)
        for state in trajectory("asm", shape, 400, seed=0):
            seen.add(state)
        # every vertex receives grains eventually: chain visits many states
        assert len(seen) > 5

    def test_exhaustive_small_chain(self):
        # on K0_{1,1} the asm chain alternates within its recurrent class
        states = list(trajectory("asm", BipartiteShape(1, 1), 30, seed=4))
        tail = states[10:]
        assert set(tail) <= {cfg("0;1"), cfg("0;0"), cfg("1;0"), cfg("1;1")}


class TestOneEngine:
    """asm draws no bit, and the stochastic engine at p = 1 matches it."""

    @pytest.fixture
    def no_bits(self, monkeypatch):
        import bipsand.model

        def refuse(*args, **kwargs):
            raise AssertionError("asm drew a bit")

        monkeypatch.setattr(bipsand.model, "prf64", refuse)
        monkeypatch.setattr(bipsand.model, "bits_below", refuse)

    @pytest.mark.parametrize("policy", ["fifo", "lifo", "min-index"])
    def test_asm_never_draws_bits(self, no_bits, policy):
        rng = random.Random(23)
        for _ in range(50):
            m, n = rng.randint(0, 4), rng.randint(1, 4)
            top = tuple(rng.randint(0, 3 * n) for _ in range(m))
            bottom = tuple(rng.randint(0, 3 * m + 3) for _ in range(n))
            want = oracles.naive_stabilize_asm(top, bottom)
            got, (ft, fb) = stabilize_deterministic(Configuration.from_vectors(top, bottom), policy)
            assert (got.top, got.bottom, ft, fb) == want
        state = Configuration.zero(BipartiteShape(3, 4))
        for k in range(60):
            v = Vertex("top", k % 3 + 1) if k % 2 else Vertex("bottom", k % 4 + 1)
            state = markov_step("asm", state, v)
            assert state.is_stable
        assert topple_deterministic(cfg("2,1;0,2"), Vertex("top", 1)).to_text() == "0,1;1,3"

    @settings(max_examples=60, deadline=None)
    @given(
        top=st.lists(st.integers(0, 12), max_size=5),
        bottom=st.lists(st.integers(0, 12), min_size=1, max_size=5),
        seed=st.integers(-(2**70), 2**70),
    )
    def test_full_probability_matches_deterministic(self, top, bottom, seed):
        c = Configuration.from_vectors(top, bottom)
        assert stabilize_deterministic(c) == stabilize_stochastic(c, ToppleOracle(seed, 1.0))


class _Pattern(ToppleOracle):
    """A ToppleOracle whose bit method is overridden, so it is called per bit."""

    def bit(self, vertex_code, firing, neighbor_code):
        return int((vertex_code * 7 + firing * 5 + neighbor_code * 3 + self.seed) % 4 != 0)


class TestOneFiringLoop:
    """Single topplings fire through the stabilizers' loop, and the asm
    chain runs on the odometer kernel, never on stabilize_deterministic."""

    def test_single_topplings_match_the_naive_oracle(self):
        rng = random.Random(31)
        seen = Counter()
        for k in range(400):
            m, n = rng.randint(0, 4), rng.randint(1, 4)
            top = tuple(rng.randint(0, 3 * n) for _ in range(m))
            bottom = tuple(rng.randint(0, 3 * m + 3) for _ in range(n))
            c = Configuration.from_vectors(top, bottom)
            # stock bits, a subclass's own bits, and an object with only a bit method
            oracles_ = [ToppleOracle(k, rng.choice([0.3, 0.5, 1.0])), _Pattern(k % 4),
                        SimpleNamespace(bit=ToppleOracle(k, 0.6).bit)]
            for s in range(m + n):
                side, deg = ("top", n) if s < m else ("bottom", m + 1)
                v = Vertex(side, s + 1 if s < m else s - m + 1)
                if (top + bottom)[s] < deg:
                    continue
                got = topple_deterministic(c, v)
                want = oracles.naive_topple(top, bottom, s, None, 0)
                assert (got.top, got.bottom) == want
                after = want[0] + want[1]
                seen["side", side] += 1
                seen["still unstable"] += after[s] >= deg
                seen["pushes a neighbour"] += any(
                    after[t] >= (n if t < m else m + 1) > (top + bottom)[t]
                    for t in range(m + n) if t != s)
                firing = rng.randint(0, 5)
                for oracle in oracles_:
                    got = topple_stochastic(c, v, oracle, firing)
                    want = oracles.naive_topple(top, bottom, s, oracle.bit, firing)
                    assert (got.top, got.bottom) == want
                p1 = topple_stochastic(c, v, ToppleOracle(k, 1.0), firing)
                assert p1 == topple_deterministic(c, v)
        # the inputs cover both sides and every way one firing can end
        assert min(seen.values()) > 20 and len(seen) == 4

    def test_asm_chain_runs_without_stabilize_deterministic(self, monkeypatch):
        import bipsand.model

        shape = BipartiteShape(3, 2)
        want_visits = list(simulate("asm", shape, 300, 5).items())
        want_states = list(trajectory("asm", shape, 300, 6))

        def refuse(*args, **kwargs):
            raise AssertionError("the asm chain called stabilize_deterministic")

        monkeypatch.setattr(bipsand.model, "stabilize_deterministic", refuse)
        assert list(simulate("asm", shape, 300, 5).items()) == want_visits
        assert list(trajectory("asm", shape, 300, 6)) == want_states
        assert want_states != [want_states[0]] * len(want_states)


_C = Configuration.from_text("0,2,2;2,2,2")
_FIRST, _SECOND = FerrersDiagram((1, 1, 3)), FerrersDiagram((2, 2, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_recurrent(_C, "xyz"),
        lambda: config_to_pair("xyz", _C),
        lambda: pair_to_config("xyz", FerrersPair(_FIRST, _SECOND)),
        lambda: witness_sequence("xyz", _FIRST, _SECOND),
        lambda: build_dag("xyz", BipartiteShape(2, 2)),
        lambda: markov_step("xyz", _C, Vertex("top", 1)),
        lambda: next(trajectory("xyz", BipartiteShape(2, 2), 3, seed=0)),
    ],
    ids=["is_recurrent", "config_to_pair", "pair_to_config", "witness_sequence",
         "build_dag", "markov_step", "trajectory"],
)
def test_unknown_model_has_one_message(call):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == "model must be one of ('asm', 'ssm'), got 'xyz'"


def _message(call):
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


class TestOracleNeedsBit:
    """Both stochastic calls reject an oracle without a callable bit at the
    call (TestOneFiringLoop and TestRounds run duck-typed and subclassed ones)."""

    @pytest.mark.parametrize("oracle", [None, object(), SimpleNamespace(bit=1)],
                             ids=["none", "object", "bit-not-callable"])
    def test_rejected_at_the_call(self, oracle):
        want = f"oracle must have a callable bit method, got {oracle!r}"
        for text in ("5,0;0,0", "1,0;0,0"):  # unstable, then stable
            assert _message(lambda: stabilize_stochastic(cfg(text), oracle)) == want
        assert _message(lambda: topple_stochastic(cfg("5,0;0,0"), Vertex("top", 1), oracle, 0)) == want


_TOPPLE_CALLS = {
    "add_grain": add_grain,
    "topple_deterministic": topple_deterministic,
    "topple_stochastic": lambda c, v: topple_stochastic(c, v, ToppleOracle(3), 0),
}


class TestOneSlotMap:
    """add_grain and both single topples check a vertex index in one place."""

    @pytest.mark.parametrize("name", list(_TOPPLE_CALLS))
    def test_index_one_past_the_shape(self, name):
        call, c = _TOPPLE_CALLS[name], cfg("9,9;9,9,9")
        assert _message(lambda: call(c, Vertex("top", 3))) == "top index 3 out of range for m=2"
        assert _message(lambda: call(c, Vertex("bottom", 4))) == "bottom index 4 out of range for n=3"

    @pytest.mark.parametrize("name", list(_TOPPLE_CALLS))
    def test_sink(self, name):
        want = "grains are only added at non-sink vertices" if name == "add_grain" else "the sink never topples"
        assert _message(lambda: _TOPPLE_CALLS[name](cfg("9;9"), Vertex("sink"))) == want

    @pytest.mark.parametrize("name", ["topple_deterministic", "topple_stochastic"])
    def test_stable_vertex(self, name):
        call, c = _TOPPLE_CALLS[name], cfg("0,5;2,0,3")
        assert _message(lambda: call(c, Vertex("top", 1))) == (
            "vertex Vertex(side='top', index=1) is stable and cannot topple")
        assert _message(lambda: call(c, Vertex("bottom", 2))) == (
            "vertex Vertex(side='bottom', index=2) is stable and cannot topple")

    def test_add_grain_at_a_stable_vertex(self):
        assert add_grain(cfg("0,5;2,0,3"), Vertex("bottom", 2)).to_text() == "0,5;2,1,3"


class TestScalarArguments:
    """Non-int scalars (bool included) fail with ValueError where they enter."""

    @pytest.mark.parametrize("index", [1.5, True, "1"])
    def test_vertex_index(self, index):
        assert _message(lambda: Vertex("top", index)) == (
            f"vertex index must be an integer, got {index!r}")

    @pytest.mark.parametrize("m, n", [(True, 1), (1, True), (1.0, 1), (1, 2.0)])
    def test_shape_entries(self, m, n):
        name, value = ("m", m) if type(m) is not int else ("n", n)
        assert _message(lambda: BipartiteShape(m, n)) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("m, n, want", [(-1, 1, "m must be >= 0"), (1, 0, "n must be >= 1")])
    def test_shape_bounds(self, m, n, want):
        assert _message(lambda: BipartiteShape(m, n)) == want

    @pytest.mark.parametrize("seed", ["7", 1.5, True])
    def test_oracle_seed(self, seed):
        assert _message(lambda: ToppleOracle(seed)) == f"seed must be an integer, got {seed!r}"

    @pytest.mark.parametrize("p", ["0.5", True, None])
    def test_oracle_probability(self, p):
        assert _message(lambda: ToppleOracle(1, p=p)) == f"p must be an int or a float, got {p!r}"
        assert ToppleOracle(1, p=1) == ToppleOracle(1, p=1.0)

    @pytest.mark.parametrize("steps", [1.5, True, "3"])
    def test_trajectory_steps(self, steps):
        shape = BipartiteShape(2, 2)
        assert _message(lambda: list(trajectory("asm", shape, steps, 0))) == (
            f"steps must be an integer, got {steps!r}")

    @pytest.mark.parametrize("seed", [1.5, True, "0"])
    def test_trajectory_seed(self, seed):
        shape = BipartiteShape(2, 2)
        assert _message(lambda: list(trajectory("ssm", shape, 3, seed))) == (
            f"seed must be an integer, got {seed!r}")


class TestChainHasNoPolicy:
    """Committed bits make each stabilization order-free, so the chain has no
    policy: simulate equals a hand-written chain whose steps stabilize under
    any policy name the stabilizers accept, and each step equals markov_step's."""

    @pytest.mark.parametrize("policy", ["fifo", "lifo", "min-index"])
    @pytest.mark.parametrize("model", ["asm", "ssm"])
    def test_simulate_matches_every_policy(self, model, policy):
        steps = 150
        for k in (2, 3):
            shape = BipartiteShape(k, k)
            for seed in (1, 2, 3):
                state = Configuration.zero(shape)
                visits = Counter([state])
                for t in range(1, steps + 1):
                    r = prf64(seed, DOMAIN_CHOICE, t) % (2 * k)
                    v = Vertex("top", r + 1) if r < k else Vertex("bottom", r - k + 1)
                    if model == "asm":
                        oracle = None
                        step, _ = stabilize_deterministic(add_grain(state, v), policy)
                    else:
                        oracle = ToppleOracle(prf64(seed, DOMAIN_STEP, t))
                        step, _ = stabilize_stochastic(add_grain(state, v), oracle, policy)
                    assert markov_step(model, state, v, oracle) == step
                    state = step
                    visits[state] += 1
                assert simulate(model, shape, steps, seed) == visits

    @pytest.mark.parametrize(
        "call", [simulate, lambda *a, **kw: list(trajectory(*a, **kw)), markov_step])
    def test_policy_is_not_a_parameter(self, call):
        args = (("ssm", cfg("0,0;0,0"), Vertex("top", 1), ToppleOracle(1)) if call is markov_step
                else ("asm", BipartiteShape(2, 2), 3, 0))
        with pytest.raises(TypeError, match="policy"):
            call(*args, policy="lifo")


_SHAPE_CALLS = {
    "trajectory": lambda shape: trajectory("asm", shape, 3, 0),
    "simulate": lambda shape: simulate("asm", shape, 3, 0),
    "empirical_support": lambda shape: empirical_support("asm", shape, 3, 0),
    "Configuration": lambda shape: Configuration(shape, (0,), (0,)),
    "Configuration.zero": Configuration.zero,
    "enumerate_stable": enumerate_stable,
    "enumerate_recurrent": lambda shape: enumerate_recurrent(shape, "asm"),
    "census": lambda shape: census(shape, "asm"),
    "build_dag": lambda shape: build_dag("asm", shape),
    "spanning_tree_count": spanning_tree_count,
}


class TestTrajectoryChecksAtTheCall:
    """trajectory rejects bad arguments when called, not on the first next()."""

    @pytest.mark.parametrize(
        "model, steps, seed, want",
        [
            ("xyz", 3, 0, "model must be one of ('asm', 'ssm'), got 'xyz'"),
            ("asm", 1.5, 0, "steps must be an integer, got 1.5"),
            ("asm", -1, 0, "steps must be >= 0"),
            ("ssm", 3, "0", "seed must be an integer, got '0'"),
        ],
    )
    def test_bad_argument_raises_without_iterating(self, model, steps, seed, want):
        assert _message(lambda: trajectory(model, BipartiteShape(2, 2), steps, seed)) == want

    @pytest.mark.parametrize("p, want", [
        (2.0, "p must lie in (0, 1], got 2.0"),
        (0, "p must lie in (0, 1], got 0"),
        ("0.5", "p must be an int or a float, got '0.5'"),
        (1e-30, "p must be at least 2^-64, got 1e-30"),
    ], ids=["above-one", "zero", "string", "below-2^-64"])
    def test_bad_ssm_probability_raises_with_no_step(self, p, want):
        shape = BipartiteShape(2, 2)
        assert _message(lambda: trajectory("ssm", shape, 0, 0, p=p)) == want
        assert _message(lambda: ToppleOracle(0, p)) == want
        # asm draws no bit, so it ignores p
        assert list(trajectory("asm", shape, 0, 0, p=p)) == [Configuration.zero(shape)]

    @pytest.mark.parametrize("name", list(_SHAPE_CALLS))
    def test_shape_that_is_not_a_bipartite_shape(self, name):
        # every call that takes a shape applies one rule, at the call: an
        # object with .m and .n is no shape, nor is a plain tuple
        for shape in ((2, 2), namedtuple("S", "m n")(1, 1), None):
            assert _message(lambda: _SHAPE_CALLS[name](shape)) == (
                f"shape must be a BipartiteShape, got {shape!r}")


def _markov_chain(model, shape, steps, seed, p=0.5, max_firings=10**9):
    """The grain-addition chain from public calls: one markov_step per step."""
    m = shape.m
    state = Configuration.zero(shape)
    yield state
    for t in range(1, steps + 1):
        r = prf64(seed, DOMAIN_CHOICE, t) % (m + shape.n)
        v = Vertex("top", r + 1) if r < m else Vertex("bottom", r - m + 1)
        oracle = ToppleOracle(prf64(seed, DOMAIN_STEP, t), p) if model == "ssm" else None
        state = markov_step(model, state, v, oracle, max_firings=max_firings)
        yield state


def _until_stall(states):
    """The states before a TopplingStallError, and its message."""
    seen = []
    with pytest.raises(TopplingStallError) as exc:
        for state in states:
            seen.append(state)
    return seen, str(exc.value)


class TestChainIsTheMarkovStepChain:
    """trajectory and simulate run on one grain list, and give bit for bit
    the states, the visit counts and the first-visit order of chaining
    markov_step; seeds past 64 bits check the prefixes folded once a run."""

    @pytest.mark.parametrize("seed", [-5, 0, 2**64 + 3])
    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("m, n", [(0, 1), (1, 1), (2, 3), (3, 2), (4, 4)])
    @pytest.mark.parametrize("model", ["asm", "ssm"])
    def test_states_and_visit_order(self, model, m, n, p, seed):
        shape = BipartiteShape(m, n)
        want = list(_markov_chain(model, shape, 150, seed, p))
        assert list(trajectory(model, shape, 150, seed, p)) == want
        assert list(simulate(model, shape, 150, seed, p).items()) == list(Counter(want).items())

    TINY_P = 5.421010862427522e-20  # just above 2^-64: no grain moves in practice

    @pytest.mark.parametrize("budget", [0, 1, 7])
    def test_stall_at_the_same_step(self, budget):
        shape = BipartiteShape(2, 3)
        for seed in (0, 1, 2):
            want = _until_stall(_markov_chain("ssm", shape, 50, seed, self.TINY_P, budget))
            assert _until_stall(trajectory("ssm", shape, 50, seed, self.TINY_P, budget)) == want
            # no vertex holds 3 grains before step 3
            assert len(want[0]) >= 3

    def test_budget_of_the_busiest_step(self):
        shape, steps, seed, p = BipartiteShape(3, 3), 200, 4, 0.5
        firings, state = [], Configuration.zero(shape)
        for t in range(1, steps + 1):
            r = prf64(seed, DOMAIN_CHOICE, t) % 6
            v = Vertex("top", r + 1) if r < 3 else Vertex("bottom", r - 2)
            oracle = ToppleOracle(prf64(seed, DOMAIN_STEP, t), p)
            state, (ft, fb) = stabilize_stochastic(add_grain(state, v), oracle)
            firings.append(sum(ft) + sum(fb))
        most = max(firings)
        full = list(trajectory("ssm", shape, steps, seed, p))
        assert list(trajectory("ssm", shape, steps, seed, p, most)) == full
        assert simulate("ssm", shape, steps, seed, p, most) == simulate("ssm", shape, steps, seed, p)
        # one firing short, the chain stalls at the first step that needs them all
        states, message = _until_stall(trajectory("ssm", shape, steps, seed, p, most - 1))
        assert states == full[:firings.index(most) + 1]
        assert (states, message) == _until_stall(_markov_chain("ssm", shape, steps, seed, p,
                                                               most - 1))
        assert message.startswith(f"no stable state after {most - 1} firings on K0_{{3,3}}")


class TestChainFiringBudget:
    """max_firings bounds each ssm step of the chain, as in stabilize_stochastic."""

    TINY_P = 5.421010862427522e-20  # just above 2^-64: a step would take hours

    def test_tiny_p_stalls_within_the_budget(self):
        t0 = time.perf_counter()
        with pytest.raises(TopplingStallError) as exc:
            simulate("ssm", BipartiteShape(1, 1), 3, 0, self.TINY_P, max_firings=1000)
        assert time.perf_counter() - t0 < 1.0
        assert str(exc.value).startswith("no stable state after 1000 firings on K0_{1,1}")

    def test_markov_step_passes_the_budget_on(self):
        c = Configuration.from_text("0;0")
        with pytest.raises(TopplingStallError):
            markov_step("ssm", c, Vertex("top", 1), ToppleOracle(0, self.TINY_P), max_firings=10)
        assert markov_step("asm", c, Vertex("top", 1), max_firings=0) == Configuration.from_text("0;1")

    @pytest.mark.parametrize("model", ["asm", "ssm"])
    def test_default_budget_changes_nothing(self, model):
        shape = BipartiteShape(3, 3)
        plain = simulate(model, shape, 200, 5)
        assert simulate(model, shape, 200, 5, max_firings=10**9) == plain
        assert list(trajectory(model, shape, 200, 5, 0.5, 10**6)) == list(
            trajectory(model, shape, 200, 5))

    def test_asm_ignores_the_budget(self):
        shape = BipartiteShape(3, 3)
        assert simulate("asm", shape, 100, 2, max_firings=0) == simulate("asm", shape, 100, 2)

    @pytest.mark.parametrize("budget, want", [
        (1.5, "max_firings must be an integer, got 1.5"),
        (True, "max_firings must be an integer, got True"),
        ("10", "max_firings must be an integer, got '10'"),
        (-1, "max_firings must be >= 0"),
    ])
    def test_trajectory_checks_the_budget_at_the_call(self, budget, want):
        assert _message(lambda: trajectory("ssm", BipartiteShape(2, 2), 3, 0, 0.5, budget)) == want
        assert _message(lambda: simulate("ssm", BipartiteShape(2, 2), 3, 0, max_firings=budget)) == want


def _entry_points():
    """(label, call(value), argument name, lower bound) for each integer
    argument that model._check_int checks and no older test covers."""
    c, top = cfg("5;0"), Vertex("top", 1)
    return [
        ("markov_step.asm",
         lambda x: markov_step("asm", cfg("0;0"), top, max_firings=x), "max_firings", 0),
        ("markov_step.ssm",
         lambda x: markov_step("ssm", cfg("0;0"), top, ToppleOracle(1), max_firings=x),
         "max_firings", 0),
        ("stabilize_stochastic",
         lambda x: stabilize_stochastic(c, ToppleOracle(1), max_firings=x), "max_firings", 0),
        ("topple_stochastic",
         lambda x: topple_stochastic(c, top, ToppleOracle(1), x), "firing_index", 0),
        ("FerrersDiagram", lambda x: FerrersDiagram((0, x)), "row length", None),
        ("empirical_support",
         lambda x: empirical_support("asm", BipartiteShape(1, 1), 3, 0, burn_in=x), "burn_in", None),
    ]


@pytest.mark.parametrize(
    "call, value, want",
    [
        pytest.param(call, value, f"{name} must be an integer, got {value!r}",
                     id=f"{label}-{value!r}")
        for label, call, name, low in _entry_points()
        for value in (1.5, True, "10")
    ] + [
        pytest.param(call, -1, f"{name} must be >= {low}", id=f"{label}--1")
        for label, call, name, low in _entry_points()
        if low is not None
    ],
)
def test_integer_arguments_follow_the_one_rule(call, value, want):
    assert _message(lambda: call(value)) == want
