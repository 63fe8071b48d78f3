"""Exhaustive and property checks behind the bijections' input validation.

The maps raise ValueError on bad input and do not re-run a recurrence
test on their results; these tests hold, against independent oracles,
the facts that makes safe: each map accepts exactly the recurrent inputs,
and its image is recurrent and inverted by the map the other way.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bipsand import (
    Configuration,
    FerrersDiagram,
    FerrersPair,
    ParallelogramPolyomino,
    config_to_motzkin,
    config_to_pair,
    config_to_polyomino,
    is_compatible,
    is_deterministically_recurrent,
    is_recurrent,
    is_strongly_compatible,
    pair_to_config,
    pair_to_polyomino,
)

# every diagram with 1..3 rows of length at most 3
BOX_DIAGRAMS = [
    FerrersDiagram(rows)
    for n_rows in range(1, 4)
    for rows in itertools.combinations_with_replacement(range(4), n_rows)
]
BOX_PAIRS = [
    (first, second)
    for first in BOX_DIAGRAMS
    for second in BOX_DIAGRAMS
    if first.n_rows == second.n_rows
]


def sorted_stable(max_m, max_n):
    for m in range(max_m + 1):
        for n in range(1, max_n + 1):
            for top in itertools.combinations_with_replacement(range(n), m):
                for bottom in itertools.combinations_with_replacement(range(m + 1), n):
                    yield Configuration.from_vectors(top, bottom)


@pytest.mark.parametrize(
    "model,compatible,witness",
    [
        ("asm", is_strongly_compatible, oracles.asm_witness_exists),
        ("ssm", is_compatible, oracles.ssm_witness_exists),
    ],
)
def test_pair_to_config_inverts_config_to_pair_on_the_box(model, compatible, witness):
    built = 0
    for first, second in BOX_PAIRS:
        pair = FerrersPair(first, second)
        expected = compatible(first, second) and second.columns <= first.columns
        try:
            c = pair_to_config(model, pair)
        except ValueError:
            assert not expected, pair.to_text()
            continue
        assert expected, pair.to_text()
        assert c.is_sorted
        assert is_recurrent(c, model)
        assert not witness(c.top, c.bottom)
        assert config_to_pair(model, c) == pair
        built += 1
    assert built > 0


def test_config_maps_reject_exactly_the_non_recurrent():
    rejected = 0
    for c in sorted_stable(4, 4):
        recurrent = is_deterministically_recurrent(c)
        assert recurrent == (not oracles.asm_witness_exists(c.top, c.bottom))
        for to_image in (config_to_polyomino, config_to_motzkin):
            if recurrent:
                to_image(c)
            else:
                with pytest.raises(ValueError, match="not deterministically recurrent"):
                    to_image(c)
        rejected += not recurrent
    assert rejected > 0


def test_pair_to_polyomino_is_the_padded_cell_difference():
    image = set()
    for first, second in BOX_PAIRS:
        pair = FerrersPair(first, second)
        if not (is_strongly_compatible(first, second) and second.columns <= first.columns):
            with pytest.raises(ValueError):
                pair_to_polyomino(pair)
            continue
        p = pair_to_polyomino(pair)
        assert (p.upper, p.lower) == oracles.pair_polyomino_cells(first.rows, second.rows)
        image.add((p.upper, p.lower))
    # onto every polyomino in an (m+1) x n box with m, n <= 3
    assert image == {
        paths
        for m in range(4)
        for n in range(1, 4)
        for paths in oracles.all_path_pairs(m + 1, n)
    }


@st.composite
def step_string_pairs(draw):
    length = draw(st.integers(2, 40))
    steps = st.lists(st.sampled_from("NE"), min_size=length, max_size=length)
    mid = draw(st.lists(st.sampled_from("NE"), min_size=length - 2, max_size=length - 2))
    kind = draw(st.sampled_from(["permuted", "hugging", "framed", "free"]))
    if kind == "permuted":  # same step counts, may touch anywhere
        return "N" + "".join(mid) + "E", "E" + "".join(draw(st.permutations(mid))) + "N"
    if kind == "hugging":  # lower path runs along the bottom-right border: never touches
        return "N" + "".join(mid) + "E", "E" + "".join(sorted(mid)) + "N"
    if kind == "framed":  # right first and last steps, counts may differ
        return "N" + "".join(mid) + "E", "E" + "".join(draw(steps))[2:] + "N"
    return "".join(draw(steps)), "".join(draw(steps))


@settings(max_examples=400, deadline=None)
@given(step_string_pairs())
def test_polyomino_validity_matches_oracle_on_long_paths(paths):
    upper, lower = paths
    try:
        ParallelogramPolyomino(upper, lower)
        accepted = True
    except ValueError:
        accepted = False
    height = upper.count("N")
    assert accepted == (
        height == lower.count("N")
        and upper[0] == "N"
        and upper[-1] == "E"
        and lower[0] == "E"
        and lower[-1] == "N"
        and oracles._paths_ok(upper, lower, len(upper) - height, height)
    )
