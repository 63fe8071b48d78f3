"""Diagrams, moves, compatibility, the pair bijection, and the move DAG."""
import itertools

import pytest

import oracles
from bipsand import (
    BipartiteShape,
    Configuration,
    FerrersDiagram,
    FerrersPair,
    GuardError,
    LabelledFerrersPair,
    add,
    apply_sequence,
    build_dag,
    config_to_labelled_pair,
    config_to_pair,
    counts_below,
    dag_to_dot,
    is_compatible,
    is_deterministically_recurrent,
    is_recurrent,
    is_stochastically_recurrent,
    is_strongly_compatible,
    labelled_pair_to_config,
    legal_adds,
    legal_shifts,
    pair_to_config,
    shift,
    sort_config,
    witness_sequence,
)


def diagrams_in_box(max_cols, n_rows):
    """All Ferrers diagrams with n_rows rows and entries <= max_cols."""
    return [
        FerrersDiagram(rows)
        for rows in itertools.combinations_with_replacement(
            range(max_cols + 1), n_rows
        )
    ]


def cfg(text):
    return Configuration.from_text(text)


class TestDiagram:
    def test_construction(self):
        d = FerrersDiagram((1, 1, 3))
        assert d.n_rows == 3
        assert d.area == 5
        assert d.columns == 3

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            FerrersDiagram((2, 1))
        with pytest.raises(ValueError):
            FerrersDiagram((1, -1))
        with pytest.raises(ValueError):
            FerrersDiagram(())

    def test_text_roundtrip(self):
        assert FerrersDiagram.from_text("1,1,3").to_text() == "1,1,3"
        assert FerrersDiagram.from_text("0").rows == (0,)
        with pytest.raises(ValueError):
            FerrersDiagram.from_text("1,x")
        with pytest.raises(ValueError):
            FerrersDiagram.from_text("3,1")


class TestMoves:
    def test_shift_example(self):
        assert shift(FerrersDiagram((1, 1, 3)), 3, 2).rows == (1, 2, 2)

    def test_add_example(self):
        assert add(FerrersDiagram((1, 1, 3)), 3).rows == (1, 1, 4)
        assert add(FerrersDiagram((1, 2, 2)), 1).rows == (2, 2, 2)
        # adding to row 1 of (1,1,3) would break monotonicity
        with pytest.raises(ValueError):
            add(FerrersDiagram((1, 1, 3)), 1)
        with pytest.raises(ValueError):
            add(FerrersDiagram((1, 2, 3)), 9)

    def test_shift_validation(self):
        d = FerrersDiagram((1, 1, 3))
        with pytest.raises(ValueError):
            shift(d, 2, 3)  # upward
        with pytest.raises(ValueError):
            shift(d, 2, 2)
        with pytest.raises(ValueError):
            shift(d, 2, 1)  # result (2,0,3) not a diagram

    def test_legal_moves_match_probe_oracle(self):
        for d in diagrams_in_box(3, 3):
            want_shift = {
                args for kind, args, _ in oracles.naive_moves(d.rows, True)
                if kind == "shift"
            }
            want_add = {
                args[0] for kind, args, _ in oracles.naive_moves(d.rows, False)
            }
            assert set(legal_shifts(d)) == want_shift
            assert set(legal_adds(d)) == want_add

    def test_apply_sequence(self):
        d = apply_sequence(
            FerrersDiagram((1, 1, 3)), [("shift", 3, 2), ("add", 1)]
        )
        assert d.rows == (2, 2, 2)
        with pytest.raises(ValueError):
            apply_sequence(FerrersDiagram((1, 1, 3)), [("shift", 2, 1)])
        with pytest.raises(ValueError):
            apply_sequence(FerrersDiagram((1, 1, 3)), [("grow", 1)])


class TestCompatibility:
    def test_example_pair(self):
        assert is_compatible(FerrersDiagram((1, 1, 3)), FerrersDiagram((2, 2, 2)))
        assert not is_strongly_compatible(
            FerrersDiagram((1, 1, 3)), FerrersDiagram((2, 2, 2))
        )
        assert is_strongly_compatible(
            FerrersDiagram((1, 1, 3)), FerrersDiagram((2, 2, 3))
        )

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            is_compatible(FerrersDiagram((1,)), FerrersDiagram((1, 2)))

    def test_matches_reachability(self):
        # dominance tests equal BFS closure under the respective move sets
        universe = diagrams_in_box(3, 3)
        for d in universe:
            reach_all = oracles.reachable(d.rows, True, 9)
            reach_add = oracles.reachable(d.rows, False, 9)
            for e in universe:
                assert is_compatible(d, e) == (e.rows in reach_all)
                assert is_strongly_compatible(d, e) == (e.rows in reach_add)

    def test_compatibility_is_the_recurrence_check(self):
        # (F(k), F(sorted bottom)) is compatible exactly when c is recurrent
        for m in range(0, 4):
            for n in range(1, 4):
                for top, bottom in oracles.all_stable(m, n):
                    c = Configuration.from_vectors(top, bottom)
                    first = FerrersDiagram(counts_below(top, n))
                    second = FerrersDiagram(sorted(bottom))
                    assert is_compatible(first, second) == is_stochastically_recurrent(c)
                    assert is_strongly_compatible(first, second) == is_deterministically_recurrent(c)


class TestPairBijection:
    def test_example_values(self):
        pair = config_to_pair("ssm", cfg("0,2,2;2,2,2"))
        assert pair.to_text() == "1,1,3|2,2,2"
        assert pair_to_config("ssm", pair).to_text() == "0,2,2;2,2,2"
        pair = config_to_pair("asm", cfg("0,2,2;2,2,3"))
        assert pair.to_text() == "1,1,3|2,2,3"

    def test_border_reading(self):
        pair = FerrersPair(FerrersDiagram((1, 1, 3)), FerrersDiagram((2, 2, 2)))
        assert pair_to_config("ssm", pair).top == (0, 2, 2)

    @pytest.mark.parametrize("model, text", [("ssm", "0,2,2;2,2,2"), ("asm", "0,2,2;2,2,3")])
    def test_numpy_grain_counts_give_int_rows(self, model, text):
        import numpy as np

        c = cfg(text)
        pair = config_to_pair(model, Configuration.from_vectors(np.array(c.top), np.array(c.bottom)))
        assert pair == config_to_pair(model, c)
        assert {type(x) for x in pair.first.rows + pair.second.rows} == {int}

    def test_non_integer_bottom_grain_counts_raise(self):
        # the constructor rejects them, so no check or bijection ever sees one
        with pytest.raises(ValueError) as exc:
            Configuration.from_vectors((2, 2), (0.5, 0.5, 1.0))
        assert str(exc.value) == "grain counts must be integers, got 0.5"

    def test_requires_sorted_recurrent(self):
        with pytest.raises(ValueError):
            config_to_pair("ssm", cfg("2,0,2;2,2,2"))
        with pytest.raises(ValueError):
            config_to_pair("ssm", cfg("0,0,0;0,0,0"))
        with pytest.raises(ValueError):
            config_to_pair("asm", cfg("0,2,2;2,2,2"))

    def test_rejects_incompatible_pair(self):
        bad = FerrersPair(FerrersDiagram((2, 2, 2)), FerrersDiagram((1, 1, 3)))
        with pytest.raises(ValueError):
            pair_to_config("ssm", bad)
        weak = FerrersPair(FerrersDiagram((1, 1, 3)), FerrersDiagram((2, 2, 2)))
        with pytest.raises(ValueError):
            pair_to_config("asm", weak)

    def test_roundtrip_exhaustive(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for model in ("ssm", "asm"):
                    seen = set()
                    for top, bottom in oracles.all_stable(m, n):
                        c = Configuration.from_vectors(top, bottom)
                        if not c.is_sorted or not is_recurrent(c, model):
                            continue
                        pair = config_to_pair(model, c)
                        assert pair_to_config(model, pair) == c
                        seen.add(pair)
                    # injective on the sorted recurrent set
                    count = sum(
                        1
                        for top, bottom in oracles.all_stable(m, n)
                        if Configuration.from_vectors(top, bottom).is_sorted
                        and is_recurrent(
                            Configuration.from_vectors(top, bottom), model
                        )
                    )
                    assert len(seen) == count

    def test_level_is_area_difference(self):
        c = cfg("3,1,3,2,3;2,0,4,3")
        pair = config_to_pair("ssm", sort_config(c))
        assert pair.second.area - pair.first.area == 1


class TestLabelled:
    def test_roundtrip_unsorted_exhaustive(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for model in ("ssm", "asm"):
                    for top, bottom in oracles.all_stable(m, n):
                        c = Configuration.from_vectors(top, bottom)
                        if not is_recurrent(c, model):
                            continue
                        lp = config_to_labelled_pair(model, c)
                        assert labelled_pair_to_config(model, lp) == c

    def test_labels_are_permutations(self):
        lp = config_to_labelled_pair("ssm", cfg("2,0,2;2,1,2"))
        assert sorted(lp.column_labels) == [1, 2, 3]
        assert sorted(lp.row_labels) == [1, 2, 3]

    def test_equal_values_get_increasing_labels(self):
        lp = config_to_labelled_pair("ssm", cfg("2,2,2;1,1,1"))
        assert lp.column_labels == (1, 2, 3)
        assert lp.row_labels == (1, 2, 3)

    def test_bad_labels_rejected(self):
        pair = config_to_pair("ssm", cfg("0,2,2;2,2,2"))
        with pytest.raises(ValueError):
            LabelledFerrersPair(pair, (1, 1, 2), (1, 2, 3))
        with pytest.raises(ValueError, match=r"^row labels must be a permutation of 1\.\.n$"):
            LabelledFerrersPair(pair, (1, 2, 3), (1, 1, 2))
        lp = LabelledFerrersPair(pair, (2, 1, 3), (1, 3, 2))
        # label order must be increasing within equal-value groups
        with pytest.raises(ValueError):
            labelled_pair_to_config("ssm", LabelledFerrersPair(pair, (1, 3, 2), (1, 2, 3)))

    @pytest.mark.parametrize("columns, rows, want", [
        ((1.0, 2), (1, 2), "column label must be an integer, got 1.0"),
        ((True, 2), (1, 2), "column label must be an integer, got True"),
        ((1, 2), (1, "2"), "row label must be an integer, got '2'"),
    ])
    def test_labels_are_integers(self, columns, rows, want):
        pair = config_to_pair("ssm", cfg("1,1;1,1"))
        with pytest.raises(ValueError) as exc:
            LabelledFerrersPair(pair, columns, rows)
        assert str(exc.value) == want

    def test_labels_accepted_exactly_when_they_reproduce(self):
        # put the sorted sides back by label; the labels must be the ones
        # config_to_labelled_pair gives that result, columns checked first
        for m in range(0, 4):
            for n in range(1, 4):
                for model in ("ssm", "asm"):
                    for top, bottom in oracles.all_stable(m, n):
                        sc = Configuration.from_vectors(top, bottom)
                        if not sc.is_sorted or not is_recurrent(sc, model):
                            continue
                        pair = config_to_pair(model, sc)
                        for cols in itertools.permutations(range(1, m + 1)):
                            for rows in itertools.permutations(range(1, n + 1)):
                                t, b = [0] * m, [0] * n
                                for pos, label in enumerate(cols):
                                    t[label - 1] = top[pos]
                                for pos, label in enumerate(rows):
                                    b[label - 1] = bottom[pos]
                                scattered = Configuration.from_vectors(t, b)
                                expected = config_to_labelled_pair(model, scattered)
                                lp = LabelledFerrersPair(pair, cols, rows)
                                if expected.column_labels != cols:
                                    with pytest.raises(ValueError, match="equal-height columns"):
                                        labelled_pair_to_config(model, lp)
                                elif expected.row_labels != rows:
                                    with pytest.raises(ValueError, match="equal-length rows"):
                                        labelled_pair_to_config(model, lp)
                                else:
                                    assert labelled_pair_to_config(model, lp) == scattered


class TestWitnessSequence:
    def test_example_sequences(self):
        ops = witness_sequence(
            "ssm", FerrersDiagram((1, 1, 3)), FerrersDiagram((2, 2, 2))
        )
        assert ops == [("shift", 3, 2), ("add", 1)]
        ops = witness_sequence(
            "asm", FerrersDiagram((1, 1, 3)), FerrersDiagram((2, 2, 3))
        )
        assert ops == [("add", 2), ("add", 1)]

    def test_incompatible_raises(self):
        with pytest.raises(ValueError):
            witness_sequence(
                "ssm", FerrersDiagram((2, 2, 2)), FerrersDiagram((1, 1, 3))
            )
        with pytest.raises(ValueError):
            witness_sequence(
                "asm", FerrersDiagram((1, 1, 3)), FerrersDiagram((2, 2, 2))
            )

    def test_replays_for_all_compatible_pairs(self):
        universe = diagrams_in_box(3, 3)
        for d in universe:
            for e in universe:
                for model, pred in (
                    ("ssm", is_compatible),
                    ("asm", is_strongly_compatible),
                ):
                    if not pred(d, e):
                        continue
                    ops = witness_sequence(model, d, e)
                    # shifts strictly precede adds; adds match area growth
                    kinds = [op[0] for op in ops]
                    assert kinds == sorted(kinds, key=("shift", "add").index)
                    assert kinds.count("add") == e.area - d.area
                    if model == "asm":
                        assert "shift" not in kinds
                    assert apply_sequence(d, ops) == e


class TestDag:
    def test_vertex_counts(self):
        assert len(build_dag("ssm", BipartiteShape(3, 3)).vertices) == 16
        assert len(build_dag("asm", BipartiteShape(3, 3)).vertices) == 10

    def test_vertex_membership_rules(self):
        dag = build_dag("ssm", BipartiteShape(3, 3))
        for v in dag.vertices:
            assert v.n_rows == 3 and v.columns <= 3 and v.area >= 3
        dag = build_dag("asm", BipartiteShape(3, 3))
        for v in dag.vertices:
            assert v.n_rows == 3 and v.columns == 3

    def test_bipolar(self):
        for model in ("ssm", "asm"):
            dag = build_dag(model, BipartiteShape(3, 3))
            assert [v.rows for v in dag.sources()] == [(0, 0, 3)]
            assert [v.rows for v in dag.sinks()] == [(3, 3, 3)]

    def test_edges_match_probe_oracle(self):
        for model in ("ssm", "asm"):
            dag = build_dag(model, BipartiteShape(2, 3))
            vset = {v.rows for v in dag.vertices}
            want = set()
            for rows in vset:
                for kind, args, nxt in oracles.naive_moves(
                    rows, include_shifts=(model == "ssm")
                ):
                    if nxt in vset:
                        want.add((rows, nxt, "blue" if kind == "shift" else "red"))
            got = {(u.rows, v.rows, color) for u, v, color in dag.edges}
            assert got == want

    def test_acyclic(self):
        dag = build_dag("ssm", BipartiteShape(3, 3))
        edges = [(u.rows, v.rows) for u, v, _ in dag.edges]
        for v in dag.vertices:
            reach = oracles.dag_reachable(edges, v.rows)
            for w in reach:
                if w != v.rows:
                    assert v.rows not in oracles.dag_reachable(edges, w)

    def test_guard(self):
        with pytest.raises(GuardError, match=r"diagram DAG needs m\*n <= 36, got 42"):
            build_dag("ssm", BipartiteShape(7, 6))
        assert len(build_dag("ssm", BipartiteShape(6, 6)).vertices) == 905
        with pytest.raises(TypeError):
            build_dag("ssm", BipartiteShape(7, 6), guard=100)  # the parameter is gone

    def test_dot_output(self):
        dag = build_dag("ssm", BipartiteShape(2, 2))
        dot = dag_to_dot(dag)
        assert dot.startswith("digraph")
        assert "color=blue" in dot and "color=red" in dot
        assert '"0,2"' in dot
