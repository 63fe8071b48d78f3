"""Re-measure the baseline table of ROADMAP item 1 and compare.

    python3 bench/baseline.py

Each row is timed with perf_counter, best of 3, raw (no pinned twin), on
the same inputs as the table.  Exact counts must match; times are printed
next to the table's values with their ratio.
"""
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def best(fn, repeats=3):
    out, t = None, float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        t = min(t, time.perf_counter() - t0)
    return t, out


def main() -> int:
    run._prepare()
    import numpy as np

    import bipsand as B
    import harness as H
    import workloads as W

    rows = []

    def row(what, table, measured, unit="s", exact=None):
        ratio = measured / table if table else float("nan")
        rows.append((what, table, measured, unit, ratio, exact))

    V = 10**7
    m = n = V // 2
    top, bottom = [n - 1] * m, [m] * n  # maximal stable
    t, c = best(lambda: B.Configuration.from_vectors(top, bottom))
    row("10^7: build Configuration", 0.35, t)
    t, _ = best(lambda: c.is_stable)
    row("10^7: is_stable", 0.34, t)
    t, _ = best(lambda: np.asarray(c.top, dtype=np.int64))
    row("10^7: tuple -> ndarray, one side", 0.42, t)
    t, ok = best(lambda: B.is_stochastically_recurrent(c))
    row("10^7: is_stochastically_recurrent", 1.11 - 0.35, t, exact=ok is True)
    t, lvl = best(lambda: B.level(c))
    row("10^7: level", 0.73, t, exact=lvl == sum(top) + sum(bottom) - m * n)
    del c, top, bottom

    ref = B.Configuration.from_vectors((100_000,) + (0,) * 49, (0,) * 50)
    t, out = best(lambda: B.stabilize_deterministic(ref))
    row("stabilize_deterministic K50,50, 1e5 grains", 0.475, t,
        exact=sum(out[1][0]) + sum(out[1][1]) == 197_000)
    t, out = best(lambda: W._ssm_golden(5, 5, (("top", 0, 2000),), 1, 0.5, "fifo"))
    row("stabilize_stochastic K5,5, 2000 grains", 0.176, t,
        exact=sum(map(sum, out["firings"])) == 8329 and out["bits"] == 45416)

    t, _ = best(lambda: [B.model.prf64(1, 2, 3, 4, 5) for _ in range(100_000)])
    row("prf64 per call", 2.7e-6, t / 100_000)
    oracle = B.ToppleOracle(1, 0.5)
    t, _ = best(lambda: [oracle.bit(2, 0, 3) for _ in range(100_000)])
    row("ToppleOracle.bit per call", 2.9e-6, t / 100_000)

    for model, k, table in (("asm", 2, 91_000), ("asm", 10, 45_000),
                            ("ssm", 2, 14_000), ("ssm", 10, 7_000)):
        t, _ = best(lambda: B.simulate(model, B.BipartiteShape(k, k), 20_000, 1), repeats=1)
        row(f"simulate {model} K{k},{k}, steps/s", table, 20_000 / t, unit="1/s")

    t, out = best(lambda: B.census(B.BipartiteShape(4, 4), "asm"), repeats=1)
    row("census 4x4 asm", 1.71, t, exact=out.total == 32_000)

    env = H.environment()
    print(f"environment {env}")
    print(f"{'row':46s} {'ROADMAP':>12s} {'measured':>12s} unit  ratio  exact")
    for what, table, measured, unit, ratio, exact in rows:
        mark = "" if exact is None else ("ok" if exact else "MISMATCH")
        print(f"{what:46s} {table:12.4g} {measured:12.4g} {unit:4s} {ratio:6.2f} {mark}")
    return 0 if all(r[5] is not False for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
