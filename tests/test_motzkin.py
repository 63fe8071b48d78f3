"""Height-profile words: direct algorithms and the polyomino route."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bipsand import (
    Configuration,
    MotzkinWord,
    config_to_motzkin,
    config_to_polyomino,
    is_deterministically_recurrent,
    motzkin_to_config,
    motzkin_to_polyomino,
    polyomino_to_motzkin,
)


def cfg(text):
    return Configuration.from_text(text)


class TestWord:
    def test_example(self):
        w = MotzkinWord.from_text("UUDeDUneD")
        assert w.m == 5 and w.n == 5
        assert w.area() == 8
        assert w.to_text() == "UUDeDUneD"

    def test_empty_word(self):
        w = MotzkinWord.from_text("")
        assert w.m == 0 and w.n == 1
        assert w.area() == 0

    def test_rejects_bad_words(self):
        with pytest.raises(ValueError):
            MotzkinWord.from_text("D")  # dips below zero
        with pytest.raises(ValueError):
            MotzkinWord.from_text("U")  # ends above zero
        with pytest.raises(ValueError):
            MotzkinWord.from_text("UXD")

    def test_area_matches_oracle(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for text in oracles.all_words(m, n):
                    w = MotzkinWord.from_text(text)
                    assert w.area() == oracles.word_area(text)
                    assert w.m == m and w.n == n

    def test_half_integer_areas_cancel(self):
        # total area of a closed path is always an integer
        w = MotzkinWord.from_text("UD")
        assert w.area() == 1
        assert type(w.area()) is int


class TestDirectAlgorithms:
    def test_example_word_to_config(self):
        c = motzkin_to_config(MotzkinWord.from_text("UUDeDUneD"))
        assert c.to_text() == "2,2,2,4,4;2,3,4,5,5"

    def test_example_config_to_word(self):
        w = config_to_motzkin(cfg("2,2,2,4,4;2,3,4,5,5"))
        assert w.to_text() == "UUDeDUneD"
        assert w.area() == 8

    def test_base_case(self):
        assert config_to_motzkin(cfg(";0")).to_text() == ""
        assert motzkin_to_config(MotzkinWord(())).to_text() == ";0"

    def test_rejects_non_dr(self):
        with pytest.raises(ValueError):
            config_to_motzkin(cfg("0,2,2;2,2,2"))
        with pytest.raises(ValueError):
            config_to_motzkin(cfg("2,0,2;2,2,3"))
        with pytest.raises(ValueError):
            config_to_motzkin(cfg("3,1;0,2"))

    def test_roundtrip_exhaustive(self):
        for m in range(1, 4):
            for n in range(1, 4):
                image = set()
                for top, bottom in oracles.all_stable(m, n):
                    c = Configuration.from_vectors(top, bottom)
                    if not c.is_sorted or not is_deterministically_recurrent(c):
                        continue
                    w = config_to_motzkin(c)
                    assert motzkin_to_config(w) == c
                    image.add(w.to_text())
                # surjective onto all valid words of the right step counts
                assert image == set(oracles.all_words(m, n))

    def test_word_roundtrip(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for text in oracles.all_words(m, n):
                    w = MotzkinWord.from_text(text)
                    assert config_to_motzkin(motzkin_to_config(w)) == w


class TestPolyominoRoute:
    def test_example(self):
        p = motzkin_to_polyomino(MotzkinWord.from_text("UUDeDUneD"))
        assert p.to_text() == "upper=NNNEEENNEEE;lower=EEENENENENN"
        assert polyomino_to_motzkin(p).to_text() == "UUDeDUneD"

    def test_base_case(self):
        p = motzkin_to_polyomino(MotzkinWord(()))
        assert p.to_text() == "upper=NE;lower=EN"

    def test_roundtrip_over_polyominoes(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for upper, lower in oracles.all_path_pairs(m + 1, n):
                    from bipsand import ParallelogramPolyomino

                    p = ParallelogramPolyomino(upper, lower)
                    w = polyomino_to_motzkin(p)
                    assert motzkin_to_polyomino(w) == p

    def test_triangle_identity(self):
        # direct word construction equals the polyomino detour
        for m in range(1, 4):
            for n in range(1, 4):
                for top, bottom in oracles.all_stable(m, n):
                    c = Configuration.from_vectors(top, bottom)
                    if not c.is_sorted or not is_deterministically_recurrent(c):
                        continue
                    direct = config_to_motzkin(c)
                    detour = polyomino_to_motzkin(config_to_polyomino(c))
                    assert direct == detour

    def test_area_equals_polyomino_cells_between(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for top, bottom in oracles.all_stable(m, n):
                    c = Configuration.from_vectors(top, bottom)
                    if not c.is_sorted or not is_deterministically_recurrent(c):
                        continue
                    w = config_to_motzkin(c)
                    p = config_to_polyomino(c)
                    assert w.area() == p.area() - (m + n)


class TestOneHeightRule:
    """The constructor reads each step's height change from one table, and
    the first fault in step order wins."""

    @pytest.mark.parametrize("steps, message", [
        (("D", "X"), "path dips below the axis"),
        (("X", "D"), "unknown step 'X'"),
        (("U",), "path must end on the axis"),
    ])
    def test_first_fault_in_step_order(self, steps, message):
        with pytest.raises(ValueError) as exc:
            MotzkinWord(steps)
        assert str(exc.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["U", "D", "HN", "HE", "X"]), max_size=12))
    def test_matches_walk_oracle(self, steps):
        messages = {
            "unknown": "unknown step 'X'",
            "dip": "path dips below the axis",
            "end": "path must end on the axis",
        }
        want = oracles.first_word_fault(steps)
        if want is None:
            assert MotzkinWord(steps).steps == tuple(steps)
        else:
            with pytest.raises(ValueError) as exc:
                MotzkinWord(steps)
            assert str(exc.value) == messages[want]
