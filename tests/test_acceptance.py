"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with plain pytest; the verdict lines bypass output capture so they
always appear in the log.  Every criterion states its tolerance and,
where one applies, its runtime budget.
"""
import itertools
import random
import time

import numpy  # noqa: F401  (loaded, so criterion 7's piles sweep in numpy)
import oracles
from bipsand import (
    BipartiteShape,
    Configuration,
    MotzkinWord,
    ToppleOracle,
    Vertex,
    build_dag,
    config_to_labelled_pair,
    config_to_motzkin,
    config_to_pair,
    config_to_polyomino,
    counts_below,
    empirical_support,
    enumerate_recurrent,
    enumerate_stable,
    is_compatible,
    is_deterministically_recurrent,
    is_recurrent,
    is_stochastically_recurrent,
    is_strongly_compatible,
    labelled_pair_to_config,
    level,
    motzkin_to_config,
    motzkin_to_polyomino,
    pair_to_config,
    pair_to_polyomino,
    polyomino_to_config,
    polyomino_to_motzkin,
    sort_config,
    spanning_tree_count,
    stabilize_deterministic,
    stabilize_stochastic,
    topple_stochastic,
)


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def cfg(text):
    return Configuration.from_text(text)


def test_criterion_1_worked_examples(capsys):
    t0 = time.perf_counter()
    failures = []

    c = cfg("3,1,3,2,3;2,0,4,3")
    if counts_below(c.top, 4) != (0, 1, 2, 5):
        failures.append("k-vector")
    if not is_stochastically_recurrent(c) or level(c) != 1:
        failures.append("sr verdict")

    stable, _ = stabilize_deterministic(cfg("2,1;0,2"))
    if stable.to_text() != "1,0;2,1":
        failures.append("deterministic stabilization")

    script = {
        (2, 0, 3): 0, (2, 0, 5): 1,
        (5, 0, 0): 1, (5, 0, 2): 0, (5, 0, 4): 1,
        (4, 0, 3): 1, (4, 0, 5): 1,
    }

    class Scripted:
        def bit(self, vertex_code, firing, neighbor_code):
            return script[(vertex_code, firing, neighbor_code)]

    s = cfg("2,1;0,2")
    s = topple_stochastic(s, Vertex("top", 1), Scripted(), 0)
    s = topple_stochastic(s, Vertex("bottom", 2), Scripted(), 0)
    s = topple_stochastic(s, Vertex("top", 2), Scripted(), 0)
    if s.to_text() != "1,0;1,2":
        failures.append("stochastic trace")

    from bipsand import FerrersDiagram

    if not is_compatible(FerrersDiagram((1, 1, 3)), FerrersDiagram((2, 2, 2))):
        failures.append("pair compatibility")
    if is_strongly_compatible(FerrersDiagram((1, 1, 3)), FerrersDiagram((2, 2, 2))):
        failures.append("pair strong compatibility")

    d = cfg("0,2,2;2,2,3")
    if not is_deterministically_recurrent(d) or level(d) != 2:
        failures.append("dr verdict")

    p = config_to_polyomino(cfg("0,1,2,2;2,4,4"))
    if p.to_text() != "upper=NENENEEE;lower=EEENEENN" or p.area() != 10:
        failures.append("polyomino map")
    if polyomino_to_config(p).to_text() != "0,1,2,2;2,4,4":
        failures.append("polyomino inverse")

    w = config_to_motzkin(cfg("2,2,2,4,4;2,3,4,5,5"))
    if w.to_text() != "UUDeDUneD" or w.area() != 8:
        failures.append("word map")
    if motzkin_to_config(w).to_text() != "2,2,2,4,4;2,3,4,5,5":
        failures.append("word inverse")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report(
        capsys, 1, ok,
        f"worked examples bit-exact in {elapsed:.2f}s (budget 1s)"
        + (f"; failed: {failures}" if failures else ""),
    )


def test_criterion_2_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    disagreements = 0
    checked = 0

    for m in range(1, 4):
        for n in range(1, 4):
            for top, bottom in oracles.all_stable(m, n):
                c = Configuration.from_vectors(top, bottom)
                checked += 1
                if is_stochastically_recurrent(c) != (
                    not oracles.ssm_witness_exists(top, bottom)
                ):
                    disagreements += 1
                if is_deterministically_recurrent(c) != (
                    not oracles.asm_witness_exists(top, bottom)
                ):
                    disagreements += 1

    rng = random.Random(20260816)
    for _ in range(10**4):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        top = tuple(rng.randrange(n) for _ in range(m))
        bottom = tuple(rng.randrange(m + 1) for _ in range(n))
        c = Configuration.from_vectors(top, bottom)
        checked += 1
        if is_stochastically_recurrent(c) != (
            not oracles.ssm_witness_exists_fast(top, bottom)
        ):
            disagreements += 1
        if is_deterministically_recurrent(c) != (
            not oracles.asm_witness_exists_fast(top, bottom)
        ):
            disagreements += 1

    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 30.0
    _report(
        capsys, 2, ok,
        f"{checked} configurations, {disagreements} oracle disagreements "
        f"in {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_3_bijection_round_trips(capsys):
    t0 = time.perf_counter()
    failures = 0
    trips = 0

    for m in range(1, 4):
        for n in range(1, 4):
            for top, bottom in oracles.all_stable(m, n):
                c = Configuration.from_vectors(top, bottom)
                for model in ("ssm", "asm"):
                    if not is_recurrent(c, model):
                        continue
                    lp = config_to_labelled_pair(model, c)
                    trips += 1
                    if labelled_pair_to_config(model, lp) != c:
                        failures += 1
                    if not c.is_sorted:
                        continue
                    pair = config_to_pair(model, c)
                    trips += 1
                    if pair_to_config(model, pair) != c:
                        failures += 1
                    if model != "asm":
                        continue
                    poly = config_to_polyomino(c)
                    trips += 1
                    if polyomino_to_config(poly) != c:
                        failures += 1
                    word = config_to_motzkin(c)
                    trips += 1
                    if motzkin_to_config(word) != c:
                        failures += 1
                    trips += 1
                    if motzkin_to_polyomino(polyomino_to_motzkin(poly)) != poly:
                        failures += 1
                    # triangle: pair route equals the direct polyomino map
                    trips += 1
                    if pair_to_polyomino(pair) != poly:
                        failures += 1
                    # triangle: word via polyomino equals the direct algorithm
                    trips += 1
                    if polyomino_to_motzkin(poly) != word:
                        failures += 1

            # inverse-side round trips over the full word universe
            for text in oracles.all_words(m, n):
                w = MotzkinWord.from_text(text)
                trips += 1
                if config_to_motzkin(motzkin_to_config(w)) != w:
                    failures += 1

    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    _report(
        capsys, 3, ok,
        f"{trips} round trips, {failures} failures in {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_4_level_identity(capsys):
    t0 = time.perf_counter()
    bad = 0
    checked = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for top in itertools.combinations_with_replacement(range(n), m):
                for bottom in itertools.combinations_with_replacement(
                    range(m + 1), n
                ):
                    c = Configuration.from_vectors(top, bottom)
                    if not is_deterministically_recurrent(c):
                        continue
                    checked += 1
                    lvl = level(c)
                    pair = config_to_pair("asm", c)
                    poly = config_to_polyomino(c)
                    word = config_to_motzkin(c)
                    values = {
                        lvl,
                        pair.second.area - pair.first.area,
                        poly.area() - m - n,
                        word.area(),
                    }
                    if len(values) != 1 or not 0 <= lvl <= m * (n - 1):
                        bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0
    _report(
        capsys, 4, ok,
        f"four level formulas agree on {checked} sorted configurations, "
        f"{bad} mismatches ({elapsed:.1f}s)",
    )


def test_criterion_5_dags(capsys):
    problems = []
    shape = BipartiteShape(3, 3)
    dags = {model: build_dag(model, shape) for model in ("ssm", "asm")}

    if len(dags["ssm"].vertices) != 16:
        problems.append(f"ssm vertices {len(dags['ssm'].vertices)}")
    if len(dags["asm"].vertices) != 10:
        problems.append(f"asm vertices {len(dags['asm'].vertices)}")

    for model, dag in dags.items():
        edges = [(u.rows, v.rows) for u, v, _ in dag.edges]
        colors = {(u.rows, v.rows): color for u, v, color in dag.edges}
        areas = {v.rows: v.area for v in dag.vertices}

        if len(dag.sources()) != 1 or len(dag.sinks()) != 1:
            problems.append(f"{model} not bipolar")

        for v in dag.vertices:
            reach = oracles.dag_reachable(edges, v.rows)
            for w in reach:
                if w != v.rows and v.rows in oracles.dag_reachable(edges, w):
                    problems.append(f"{model} cycle at {v.rows}")

        pred = is_compatible if model == "ssm" else is_strongly_compatible
        for u in dag.vertices:
            reach = oracles.dag_reachable(edges, u.rows)
            for v in dag.vertices:
                if pred(u, v) != (v.rows in reach):
                    problems.append(f"{model} reachability mismatch {u.rows}->{v.rows}")

        for u in dag.vertices:
            for v in dag.vertices:
                paths = oracles.all_paths(edges, u.rows, v.rows)
                reds = {
                    sum(1 for a, b in zip(p, p[1:]) if colors[(a, b)] == "red")
                    for p in paths
                }
                if len(paths) == 0:
                    continue
                if reds != {areas[v.rows] - areas[u.rows]}:
                    problems.append(f"{model} red count varies {u.rows}->{v.rows}")

    _report(
        capsys, 5, not problems,
        "DAG sizes 16/10, bipolar, acyclic, reachability = compatibility, "
        "uniform red-edge counts" + (f"; problems: {problems[:3]}" if problems else ""),
    )


def test_criterion_6_spanning_trees(capsys):
    mismatches = []
    for m in range(1, 4):
        for n in range(1, 4):
            shape = BipartiteShape(m, n)
            rec = sum(1 for _ in enumerate_recurrent(shape, "asm"))
            trees = spanning_tree_count(shape)
            if rec != trees:
                mismatches.append((m, n, rec, trees))
    ok = not mismatches
    _report(
        capsys, 6, ok,
        "deterministic recurrent counts equal spanning-tree counts for all "
        "m,n <= 3 (12 on the 2x2 case)" + (f"; off: {mismatches}" if mismatches else ""),
    )


def test_criterion_7_abelian_property(capsys):
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0

    # asm solves for its firing totals and topples nothing, so each input is
    # checked against a real toppling order: the naive oracle's
    # first-unstable-vertex order
    for m in range(1, 4):
        for n in range(1, 4):
            for tup in oracles.bounded_sum_tuples(m + n, 3 * m * n):
                top, bottom = tup[:m], tup[m:]
                checked += 1
                stable, (ft, fb) = stabilize_deterministic(Configuration.from_vectors(top, bottom))
                if (stable.top, stable.bottom, ft, fb) != oracles.naive_stabilize_asm(top, bottom):
                    mismatches += 1

    sto_checked = 0
    sto_inputs = []
    for seed in range(100):
        rng = random.Random(seed)
        oracle = ToppleOracle(seed)
        for _ in range(5):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            while True:
                tup = tuple(rng.randint(0, n + m) for _ in range(m + n))
                if sum(tup) <= 3 * m * n:
                    break
            sto_inputs.append((tup[:m], tup[m:], oracle))
    # piles large enough to sweep the sides in numpy
    rng = random.Random(7)
    for seed in range(6):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        top, bottom = [0] * m, [0] * n
        for side in rng.sample((top, bottom), 2):
            side[rng.randrange(len(side))] += rng.randint(100, 600)
        sto_inputs.append((top, bottom, ToppleOracle(seed, rng.choice((0.3, 0.5, 0.9)))))
    for top, bottom, oracle in sto_inputs:
        sto_checked += 1
        stable, (ft, fb) = stabilize_stochastic(Configuration.from_vectors(top, bottom), oracle)
        if (stable.top, stable.bottom, ft, fb) != oracles.naive_stabilize_ssm(top, bottom, oracle.bit):
            mismatches += 1

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    _report(
        capsys, 7, ok,
        f"{checked} deterministic and {sto_checked} stochastic "
        f"stabilizations equal the naive toppling oracle's (states and "
        f"firing counts), "
        f"{mismatches} mismatches ({elapsed:.0f}s)",
    )


def test_criterion_8_markov_support(capsys):
    t0 = time.perf_counter()
    problems = []

    for model in ("asm", "ssm"):
        for m, n in [(1, 1), (2, 2)]:
            shape = BipartiteShape(m, n)
            support = empirical_support(model, shape, 10**5, seed=42, burn_in=1000)
            recurrent = set(enumerate_recurrent(shape, model))
            if support != recurrent:
                problems.append(f"{model} {m},{n} support != recurrent set")

        for m, n in [(3, 2), (2, 3)]:
            shape = BipartiteShape(m, n)
            support = empirical_support(model, shape, 2 * 10**4, seed=7, burn_in=1000)
            recurrent = set(enumerate_recurrent(shape, model))
            if not support <= recurrent:
                problems.append(f"{model} {m},{n} support escapes recurrent set")

    a = empirical_support("ssm", BipartiteShape(2, 2), 10**4, seed=5, burn_in=100)
    b = empirical_support("ssm", BipartiteShape(2, 2), 10**4, seed=5, burn_in=100)
    if a != b:
        problems.append("not seed-deterministic")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    _report(
        capsys, 8, ok,
        f"chain support equals the recurrent set on 1x1 and 2x2 (1e5 steps) "
        f"and stays inside it elsewhere, seed-stable, in {elapsed:.1f}s (budget 60s)"
        + (f"; problems: {problems}" if problems else ""),
    )


def test_criterion_9_linear_time(capsys):
    timings = {}
    for size in (10**5, 10**6, 10**7):
        # maximal stable configuration: forces a full scan of both sides
        top, bottom = (size - 1,) * size, (size,) * size
        best = float("inf")
        for _ in range(2):
            # a fresh instance per repeat, built untimed: a checked one
            # answers from its recorded verdicts
            c = Configuration.from_vectors(top, bottom)
            t0 = time.perf_counter()
            assert is_stochastically_recurrent(c)
            best = min(best, time.perf_counter() - t0)
        timings[size] = best

    r65 = timings[10**6] / timings[10**5]
    r76 = timings[10**7] / timings[10**6]
    ok = timings[10**7] < 5.0 and r65 <= 20 and r76 <= 20
    _report(
        capsys, 9, ok,
        f"1e5/1e6/1e7 vertices in {timings[10**5]:.3f}/{timings[10**6]:.3f}/"
        f"{timings[10**7]:.2f}s (budget 5s at 1e7); decade ratios "
        f"{r65:.1f}, {r76:.1f} (tolerance <= 20)",
    )
