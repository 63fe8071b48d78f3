"""Committed oracle bits: the batched per-firing draw, custom bit sources, and p's range."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bipsand import (
    Configuration,
    ToppleOracle,
    TopplingStallError,
    stabilize_stochastic,
)
from bipsand._kernels import table_bits
from bipsand._prf import DOMAIN_BIT, DOMAIN_STEP, prf64
from bipsand.model import _firing_bits

SEEDS = st.one_of(
    st.integers(-(2**80), -1),
    st.integers(2**63, 2**64 - 1),
    st.integers(2**64, 2**80),
    st.integers(0, 2**31),
)
PROBABILITIES = st.sampled_from([2.0**-64, 0.3, 0.5, 1.0])


def spec_bits(seed, p, vertex_code, firing, neighbour_codes):
    threshold = int(p * 2**64)
    return [
        1 if prf64(seed, DOMAIN_BIT, vertex_code, firing, nb) < threshold else 0
        for nb in neighbour_codes
    ]


class TestFiringBits:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=SEEDS,
        p=PROBABILITIES,
        m=st.integers(0, 20),
        n=st.integers(1, 20),
        data=st.data(),
    )
    def test_batched_bits_match_spec(self, seed, p, m, n, data):
        # slots: top i at i-1, bottom j at m+j-1; codes: sink 0, top i -> 2i,
        # bottom j -> 2j+1; a bottom vertex's sink bit comes first
        s = data.draw(st.integers(0, m + n - 1))
        firing = data.draw(st.integers(0, 2**40))
        if s < m:
            vcode, nbs = 2 * (s + 1), [2 * j + 1 for j in range(1, n + 1)]
        else:
            vcode, nbs = 2 * (s - m + 1) + 1, [0] + [2 * i for i in range(1, m + 1)]
        oracle = ToppleOracle(seed, p)
        got = _firing_bits(oracle, m, n)(s, firing)
        assert [int(b) for b in got] == spec_bits(seed, p, vcode, firing, nbs)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=SEEDS,
        # the chain runs p = 1 on the odometer, so no table sees it
        p=st.sampled_from([2.0**-64, 0.3, 0.5]),
        # one step of every shape up to K70,71 fits in a block, and widths
        # run past 64 bits
        m=st.integers(0, 70),
        n=st.integers(1, 71),
        t=st.integers(1, 3000),
        data=st.data(),
    )
    def test_chain_table_bits_match_spec(self, seed, p, m, n, t, data):
        # chain step t's bits are ToppleOracle(prf64(seed, DOMAIN_STEP, t), p)'s,
        # from the table for the first firings and from bits_below after them
        s = data.draw(st.integers(0, m + n - 1))
        firing = data.draw(st.integers(0, 4))
        if s < m:
            vcode, nbs = 2 * (s + 1), [2 * j + 1 for j in range(1, n + 1)]
        else:
            vcode, nbs = 2 * (s - m + 1) + 1, [0] + [2 * i for i in range(1, m + 1)]
        bits_at = table_bits(prf64(seed, DOMAIN_STEP), 3000, m, n, int(p * 2**64))
        got = bits_at(t)(s, firing)
        want = spec_bits(prf64(seed, DOMAIN_STEP, t), p, vcode, firing, nbs)
        assert [int(b) for b in got] == want

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, p=PROBABILITIES, firing=st.integers(0, 2**40))
    def test_stock_bit_matches_spec(self, seed, p, firing):
        oracle = ToppleOracle(seed, p)
        assert [oracle.bit(5, firing, nb) for nb in (0, 2, 4)] == spec_bits(
            seed, p, 5, firing, (0, 2, 4)
        )


class CountingOracle(ToppleOracle):
    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "draws", [0])

    def bit(self, vertex_code, firing, neighbor_code):
        self.draws[0] += 1
        return super().bit(vertex_code, firing, neighbor_code)


class DuckOracle:
    """Only a bit method, borrowed from a stock oracle."""

    def __init__(self, seed, p):
        self.bit = ToppleOracle(seed, p).bit


class TestCustomOracles:
    def test_subclass_sees_every_bit(self):
        c = Configuration.from_vectors((2000, 0, 0, 0, 0), (0,) * 5)
        counting = CountingOracle(1, 0.5)
        got = stabilize_stochastic(c, counting)
        stable, (ft, fb) = got
        assert sum(ft) + sum(fb) == 8329
        assert counting.draws[0] == 45416
        assert got == stabilize_stochastic(c, ToppleOracle(1, 0.5))

    @pytest.mark.parametrize("policy", ["fifo", "lifo", "min-index"])
    def test_duck_typed_oracle(self, policy):
        top, bottom = (40, 3, 0), (0, 25, 1, 7)
        want = oracles.naive_stabilize_ssm(top, bottom, ToppleOracle(9, 0.3).bit)
        got, (ft, fb) = stabilize_stochastic(Configuration.from_vectors(top, bottom),
                                             DuckOracle(9, 0.3), policy)
        assert (got.top, got.bottom, ft, fb) == want

    def test_duck_typed_stall_reports(self):
        class Never:
            def bit(self, vertex_code, firing, neighbor_code):
                return 0

        with pytest.raises(TopplingStallError):
            stabilize_stochastic(Configuration.from_text("5;0"), Never(), max_firings=50)


class TestProbabilityRange:
    def test_below_resolution_rejected(self):
        for p in (1e-300, 5e-324, math.nextafter(2.0**-64, 0.0)):
            with pytest.raises(ValueError, match="2\\^-64"):
                ToppleOracle(1, p)

    def test_resolution_accepted(self):
        oracle = ToppleOracle(1, 2.0**-64)
        # a bit is 1 with probability 2^-64, so a small budget stalls
        with pytest.raises(TopplingStallError):
            stabilize_stochastic(Configuration.from_text("5;0"), oracle, max_firings=50)
