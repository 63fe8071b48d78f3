"""The four workloads: inputs from the seed, library ops, CLI ops, golden ops.

Every workload stresses one part of bipsand and leaves another alone, so
that each planned optimisation has a workload that exercises it and one on
which the prediction is "no change":

- recurrence_large: numpy recurrence kernel, tuple/array conversion and
  Configuration validation on huge inputs; no toppling, no PRF bits.
- dynamics_asm: the deterministic worklist loop and per-step Configuration
  construction; one prf64 per chain step, no oracle bits.
- dynamics_ssm: committed oracle bits dominate.
- census_biject: enumeration, the pure-Python recurrence path and the
  bijections on thousands of tiny inputs; no toppling, no bits.

Library ops call the package through module attributes at call time, so
the tracer's wrappers see them.  Every workload is built against a given
package: `bipsand` itself, or the pinned copy in pinned/bipsand_pinned, on
which every op's twin runs (see run.py).  The golden and baseline ops
always use `bipsand`.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

import bipsand as B
import oracles
import reference as ref
from harness import MAX_ARG_BYTES, CliOp, Op, digest, histogram_items

POLICIES = ("fifo", "lifo", "min-index")


def _text(top, bottom) -> str:
    return "{};{}".format(",".join(map(str, top)), ",".join(map(str, bottom)))


def _parse_text(text: str) -> tuple:
    t, b = text.strip().split(";")
    return (tuple(int(x) for x in t.split(",")) if t else (),
            tuple(int(x) for x in b.split(",")))


def _parse_histogram(out: str) -> list:
    rows = []
    for line in out.splitlines():
        conf, count = line.rsplit(" ", 1)
        top, bottom = _parse_text(conf)
        rows.append([list(top), list(bottom), int(count)])
    return sorted(rows)


class Workload:
    """Base: subclasses fill lib_ops, cli_ops and the metric map.

    lib_kind names the op kind behind lib_p50_ms / lib_tail_ms and
    rate_kind the one behind lib_work_per_s; `named` maps the named metrics
    that apply to this workload (check_p50_ms, stabilize_p50_ms, ...) onto
    (op kind, statistic).
    """

    name = ""
    lib_kind = ""
    rate_kind = ""
    named: tuple = ()
    # The library leg's share of the run.  A CLI op is a process spawn whose
    # time varies by some 15% from one spawn to the next, so the CLI leg
    # needs many of them; census_biject's library cycle needs 14 s.
    lib_share = 0.5

    def __init__(self, seed: int, lib):
        self.seed = seed
        self.lib = lib
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.lib_ops: list = []
        self.cli_ops: list = []
        self.notes: dict = {}

    def shuffle(self) -> None:
        """Put the library ops in a seeded random order.  Repeats of one
        input then fall at different points of each cycle, so a slow spell
        of the host does not hit every repeat of the same input."""
        self.lib_ops = [self.lib_ops[i] for i in self.rng.permutation(len(self.lib_ops))]

    def health(self) -> dict:
        """Per-layer health values that need the whole pass (none by default)."""
        return {}


# ---------------------------------------------------------------- recurrence


def _recurrent_bottom(top: np.ndarray, n: int, m: int, rng) -> np.ndarray:
    """A sorted bottom side that makes (top, bottom) asm-recurrent."""
    k = np.searchsorted(np.sort(top), np.arange(1, n + 1), side="left")
    slack = rng.geometric(0.5, n) - 1
    return np.minimum(m, np.maximum.accumulate(k + slack)), k


def large_config(kind: str, m: int, n: int, rng) -> tuple:
    """(top, sorted bottom) arrays of the given kind: 'asm' (asm-recurrent),
    'ssm' (recurrent for ssm only) or 'none' (not recurrent)."""
    while True:
        top = rng.integers(0, n, m)
        if kind == "none":
            top[rng.integers(m)] = 0
        bottom, k = _recurrent_bottom(top, n, m, rng)
        if kind == "asm":
            return top, bottom
        if kind == "none":
            bottom[0] = 0
            return top, bottom
        # Move one grain from row j+1 to row j where both sit exactly on
        # k and k jumps by two: every prefix still holds, row j+1 fails.
        j = np.nonzero((bottom[:-1] == k[:-1]) & (bottom[1:] == k[1:]) & (k[1:] - k[:-1] >= 2))[0]
        if len(j):
            j = int(j[rng.integers(len(j))])
            bottom[j] += 1
            bottom[j + 1] -= 1
            return top, bottom


class RecurrenceLarge(Workload):
    name = "recurrence_large"
    lib_kind = "check"
    rate_kind = "check"
    named = (
        ("check_p50_ms", "check", "p50"), ("check_tail_ms", "check", "tail"),
        ("biject_p50_ms", "biject", "p50"), ("biject_tail_ms", "biject", "tail"),
    )
    VERTICES = 200_000
    KINDS = (("asm", True), ("asm", False), ("ssm", True), ("ssm", False),
             ("none", True), ("none", False))
    EXPECT = {"asm": (True, True), "ssm": (False, True), "none": (False, False)}

    def __init__(self, seed: int, lib):
        super().__init__(seed, lib)
        B, rng = lib, self.rng
        V = self.VERTICES
        strata = rng.permutation(len(self.KINDS))
        for i, (kind, is_sorted) in enumerate(self.KINDS):
            share = 0.2 + 0.6 * (strata[i] + rng.random()) / len(self.KINDS)
            m = int(V * share)
            n = V - m
            top, bottom = large_config(kind, m, n, rng)
            if is_sorted:
                top = np.sort(top)
            else:
                bottom = rng.permutation(bottom)
            verdicts = ref.recurrence(top, bottom)
            if verdicts != self.EXPECT[kind]:
                raise RuntimeError(f"generated {kind} configuration has verdicts {verdicts}")
            top_l, bottom_l = top.tolist(), bottom.tolist()
            expected = (*verdicts, int(top.sum() + bottom.sum()) - m * n)
            key = f"{kind}-{'sorted' if is_sorted else 'unsorted'}"
            self.lib_ops.append(Op("check", key, self._check_op(top_l, bottom_l),
                                   lambda out, e=expected: out == e, work=V))
            if kind == "asm" and is_sorted:
                c = B.Configuration.from_vectors(top_l, bottom_l)
                self.lib_ops.append(Op("sort", key, lambda c=c: B.sort_config(c),
                                       lambda out, c=c: out == c))
                self.lib_ops.append(Op("biject", key, lambda c=c: self._roundtrip(c),
                                       self._roundtrip_check(c, expected[2])))
        self._cli(rng)
        self.shuffle()

    def _check_op(self, top, bottom):
        B = self.lib

        def run():
            c = B.Configuration.from_vectors(top, bottom)
            return B.is_recurrent(c, "asm"), B.is_recurrent(c, "ssm"), B.level(c)
        return run

    def _roundtrip(self, c):
        B = self.lib
        word = B.config_to_motzkin(c)
        poly = B.config_to_polyomino(c)
        return word, B.motzkin_to_config(word), poly, B.polyomino_to_config(poly)

    @staticmethod
    def _roundtrip_check(c, lvl):
        seen = []

        def check(out):
            word, back_w, poly, back_p = out
            if back_w != c or back_p != c:
                return False
            if seen:  # the level identities hold for the input, checked once per run
                return word.steps == seen[0]
            m, n = c.shape.m, c.shape.n
            ok = word.area() == lvl and poly.area() - m - n == lvl
            seen.append(word.steps)
            return ok
        return check

    def _cli(self, rng) -> None:
        """check and level on the largest configuration text one argv entry holds."""
        share = 0.2 + 0.6 * rng.random()
        state = rng.bit_generator.state

        def make(v):
            rng.bit_generator.state = state
            m = int(v * share)
            top, bottom = large_config("asm", m, v - m, rng)
            return top, rng.permutation(bottom)

        lo, hi = 1000, 60_000  # text length grows with v; bisect for the largest fit
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if len(_text(*make(mid))) <= MAX_ARG_BYTES:
                lo = mid
            else:
                hi = mid - 1
        top, bottom = make(lo)
        text = _text(top, bottom)
        lvl = int(top.sum() + bottom.sum()) - len(top) * len(bottom)
        self.notes["cli_vertices"] = lo
        self.notes["cli_text_bytes"] = len(text)
        self.cli_ops = [
            CliOp("check", "check-asm", ["check", text, "--model", "asm"],
                  lambda rc, out: rc == 0 and out == f"recurrent: true\nlevel: {lvl}\n"),
            CliOp("check", "check-ssm", ["check", text, "--model", "ssm"],
                  lambda rc, out: rc == 0 and out == f"recurrent: true\nlevel: {lvl}\n"),
            CliOp("level", "level", ["level", text],
                  lambda rc, out: rc == 0 and out == f"{lvl}\n"),
        ]


# ------------------------------------------------------------------ dynamics


def pile(rng, m: int, n: int, grains: int, pattern) -> tuple:
    """All-zero K0_{m,n} plus `grains` split by `pattern`, a tuple of
    (side, share) pairs; the seed picks which vertex of the side gets each
    share.  The graph is symmetric within a side, so the choice changes the
    labels but not the amount of work."""
    top, bottom = [0] * m, [0] * n
    free = {"top": rng.permutation(m).tolist(), "bottom": rng.permutation(n).tolist()}
    left = grains
    for i, (side, share) in enumerate(pattern):
        g = left if i == len(pattern) - 1 else int(grains * share)
        left -= g
        (top if side == "top" else bottom)[free[side].pop()] += g
    return tuple(top), tuple(bottom)


def random_pile(rng, m: int, n: int, grains: int) -> tuple:
    """All-zero K0_{m,n} with `grains` spread over 1-3 random vertices."""
    top, bottom = [0] * m, [0] * n
    parts = min(int(rng.integers(1, 4)), grains)
    where = rng.choice(m + n, min(parts, m + n), replace=False).tolist()
    for i in range(grains):
        v = where[i % len(where)]
        if v < m:
            top[v] += 1
        else:
            bottom[v - m] += 1
    return tuple(top), tuple(bottom)


class Dynamics(Workload):
    """Shared shape of dynamics_asm and dynamics_ssm."""

    lib_kind = "stabilize"
    rate_kind = "chain"
    lib_share = 0.4
    named = (
        ("stabilize_p50_ms", "stabilize", "p50"), ("stabilize_tail_ms", "stabilize", "tail"),
        ("chain_steps_per_s", "chain", "rate"),
    )
    model = ""
    CHAIN_SIZES: tuple = ()
    CHAIN_STEPS = 0

    def _chain_ops(self, rng) -> None:
        B = self.lib
        self.chain_runs = []
        for k in self.CHAIN_SIZES:
            shape = B.BipartiteShape(k, k)
            seed = int(rng.integers(2**31))
            self.lib_ops.append(Op(
                "chain", f"K{k},{k}",
                lambda shape=shape, seed=seed: B.simulate(self.model, shape, self.CHAIN_STEPS, seed),
                self._chain_check(k), work=self.CHAIN_STEPS))

    def _chain_check(self, k):
        first = []

        def check(visits):
            ok = sum(visits.values()) == self.CHAIN_STEPS + 1 and all(
                c.shape.m == k and c.shape.n == k and ref.is_stable(c.top, c.bottom) for c in visits)
            if not first:
                first.append(visits)
                self.chain_runs.append((k, visits))
                return ok
            return ok and visits == first[0]
        return check

    def _small_ops(self, rng, count: int) -> None:
        B = self.lib
        for i in range(count):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            top, bottom = random_pile(rng, m, n, int(rng.integers(m + n, 8 * (m + n))))
            c = B.Configuration.from_vectors(top, bottom)
            policy = POLICIES[i % 3]
            if self.model == "asm":
                want = oracles.naive_stabilize_asm(top, bottom)
                run = (lambda c=c, pol=policy: B.stabilize_deterministic(c, pol))
            else:
                oracle = B.ToppleOracle(int(rng.integers(2**31)), (0.3, 0.5, 0.9)[i % 3])
                want = oracles.naive_stabilize_ssm(top, bottom, oracle.bit)
                run = (lambda c=c, o=oracle, pol=policy, g=sum(top) + sum(bottom):
                       B.stabilize_stochastic(c, o, pol, max_firings=self.firing_budget(g)))
            self.lib_ops.append(Op(
                "small", f"small{i}", run,
                lambda out, w=want: (out[0].top, out[0].bottom, *out[1]) == w))

    @staticmethod
    def firing_budget(grains: int) -> int:
        """An explicit bound far above any run seen (under 30 firings a grain)."""
        return 200 * grains + 1000

    def health(self) -> dict:
        """Total-variation distance of the asm chain's visits from uniform on
        the recurrent set, over the shapes whose recurrent set is listed."""
        if self.model != "asm":
            return {}
        tvs = []
        for k, visits in self.chain_runs:
            if k > 3:
                continue
            rec = set(ref.asm_recurrent(k, k))
            total = sum(visits.values())
            emp = {(c.top, c.bottom): cnt / total for c, cnt in visits.items()}
            u = 1 / len(rec)
            tvs.append(0.5 * (sum(abs(emp.get(s, 0.0) - u) for s in rec)
                              + sum(q for s, q in emp.items() if s not in rec)))
        return {"model.chain_tv_uniform": sum(tvs) / len(tvs)}


class DynamicsAsm(Dynamics):
    name = "dynamics_asm"
    model = "asm"
    CHAIN_SIZES = tuple(range(2, 13))
    CHAIN_STEPS = 2000
    # (m, n, grains, placement) spanning m, n in [10, 60], 10^4..10^5 grains
    # and 1-3 loaded vertices; fixed, so every seed asks for the same work.
    # Each pile takes about 0.12 s, so the median falls inside one cluster
    # of per-input times rather than in a gap between two.
    PLAN = (
        (20, 45, 40_000, (("top", 1.0),)),
        (30, 30, 20_000, (("top", 0.6), ("bottom", 0.4))),
        (10, 60, 50_000, (("top", 0.5), ("top", 0.3), ("top", 0.2))),
        (60, 10, 10_000, (("bottom", 0.5), ("bottom", 0.5))),
    )
    # The ROADMAP reference pile, K50,50 with 10^5 grains on one vertex
    # (exactly 197,000 firings, about 1 s), runs once per run as a baseline
    # op rather than in every cycle; see baseline_ops.

    def __init__(self, seed: int, lib):
        super().__init__(seed, lib)
        B, rng = lib, self.rng
        for i, (m, n, g, pattern) in enumerate(self.PLAN):
            top, bottom = pile(rng, m, n, g, pattern)
            c = B.Configuration.from_vectors(top, bottom)
            agree = []
            for pol in POLICIES:
                self.lib_ops.append(Op(
                    "stabilize", f"pile{i}-{pol}",
                    lambda c=c, pol=pol: B.stabilize_deterministic(c, pol),
                    self._heavy_check(top, bottom, agree)))
        self._chain_ops(rng)
        self._small_ops(rng, 8)
        self._cli(rng)
        self.shuffle()

    @staticmethod
    def _heavy_check(top, bottom, agree):
        grains = sum(top) + sum(bottom)

        def check(out):
            stable, (ft, fb) = out
            # every grain that leaves goes to the sink, one per bottom firing
            ok = ref.is_stable(stable.top, stable.bottom) and grains == stable.total + sum(fb)
            result = (stable.top, stable.bottom, ft, fb)
            if not agree:
                agree.append(result)
            return ok and result == agree[0]
        return check

    def _cli(self, rng) -> None:
        B = self.lib
        top, bottom = pile(rng, 15, 15, 3000, (("top", 1.0),))
        t, b, ft, fb = oracles.naive_stabilize_asm(top, bottom)
        want = f"{_text(t, b)}\nfirings: {_text(ft, fb)}\n"
        k = 6
        seed = int(rng.integers(2**31))
        steps = 500
        hist = histogram_items(B.simulate("asm", B.BipartiteShape(k, k), steps, seed))
        self.cli_ops = [
            CliOp("stabilize", "stabilize", ["stabilize", _text(top, bottom), "--model", "asm"],
                  lambda rc, out: rc == 0 and out == want),
            CliOp("simulate", "simulate",
                  ["simulate", "--model", "asm", "--m", str(k), "--n", str(k),
                   "--steps", str(steps), "--seed", str(seed)],
                  lambda rc, out: rc == 0 and _parse_histogram(out) == hist
                  and sum(r[2] for r in hist) == steps + 1),
        ]


class DynamicsSsm(Dynamics):
    name = "dynamics_ssm"
    model = "ssm"
    CHAIN_SIZES = tuple(range(2, 11))
    CHAIN_STEPS = 300
    # (m, n, grains, p, placement) spanning m, n in [3, 20], 500..2000
    # grains and p in {0.3, 0.5, 0.9}, each about 0.1 s on a 2-core box.
    # The seed picks the loaded vertices and the oracle seed.  Each pile
    # runs twice a cycle, so a run holds about thirty stabilize samples and
    # the tail is a higher percentile than the median.
    PILE_REPEATS = 2
    PLAN = (
        (5, 5, 1000, 0.5, (("top", 1.0),)),
        (10, 15, 500, 0.3, (("top", 0.5), ("top", 0.5))),
        (3, 20, 2000, 0.5, (("top", 1.0),)),
        (20, 3, 600, 0.9, (("top", 0.4), ("top", 0.3), ("bottom", 0.3))),
        (10, 10, 1000, 0.9, (("top", 0.5), ("bottom", 0.5))),
        (15, 8, 500, 0.3, (("bottom", 1.0),)),
    )

    def __init__(self, seed: int, lib):
        super().__init__(seed, lib)
        B, rng = lib, self.rng
        for i, (m, n, g, p, pattern) in enumerate(self.PLAN):
            top, bottom = pile(rng, m, n, g, pattern)
            c = B.Configuration.from_vectors(top, bottom)
            oracle = B.ToppleOracle(int(rng.integers(2**31)), p)
            turn = itertools.islice(itertools.cycle(POLICIES), i % 3, None)
            self.lib_ops += [Op(
                "stabilize", f"pile{i}",
                lambda c=c, o=oracle, t=turn, g=g: B.stabilize_stochastic(
                    c, o, next(t), max_firings=self.firing_budget(g)),
                self._heavy_check(g, []))] * self.PILE_REPEATS
        self._chain_ops(rng)
        self._small_ops(rng, 8)
        self._cli(rng)
        self.shuffle()

    @staticmethod
    def _heavy_check(grains, agree):
        def check(out):
            stable, (ft, fb) = out
            # grains only leave through the sink, at most one per bottom firing
            lost = grains - stable.total
            ok = ref.is_stable(stable.top, stable.bottom) and 0 <= lost <= sum(fb)
            result = (stable.top, stable.bottom, ft, fb)
            if not agree:
                agree.append(result)
            # committed bits: every policy and every repeat gives one result
            return ok and result == agree[0]
        return check

    def _cli(self, rng) -> None:
        B = self.lib
        top, bottom = pile(rng, 6, 6, 600, (("top", 1.0),))
        seed, p = int(rng.integers(2**31)), 0.5
        t, b, ft, fb = oracles.naive_stabilize_ssm(top, bottom, B.ToppleOracle(seed, p).bit)
        want = f"{_text(t, b)}\nfirings: {_text(ft, fb)}\n"
        k = 4
        sim_seed = int(rng.integers(2**31))
        steps = 300
        hist = histogram_items(B.simulate("ssm", B.BipartiteShape(k, k), steps, sim_seed))
        self.cli_ops = [
            CliOp("stabilize", "stabilize",
                  ["stabilize", _text(top, bottom), "--model", "ssm", "--seed", str(seed),
                   "--p", repr(p)],
                  lambda rc, out: rc == 0 and out == want),
            CliOp("simulate", "simulate",
                  ["simulate", "--model", "ssm", "--m", str(k), "--n", str(k),
                   "--steps", str(steps), "--seed", str(sim_seed)],
                  lambda rc, out: rc == 0 and _parse_histogram(out) == hist
                  and sum(r[2] for r in hist) == steps + 1),
        ]


# ------------------------------------------------------------ census_biject


CENSUS_SHAPES = tuple((m, n) for m in range(1, 5) for n in range(1, 5))


def census_name(m: int, n: int, model: str, sorted_only: bool) -> str:
    return f"census/{m}x{n}/{model}/{'sorted' if sorted_only else 'unsorted'}"


class CensusBiject(Workload):
    name = "census_biject"
    lib_kind = "biject"
    rate_kind = "census"
    lib_share = 0.6
    named = (
        ("census_configs_per_s", "census", "rate"),
        ("biject_p50_ms", "biject", "p50"), ("biject_tail_ms", "biject", "tail"),
    )
    # Each round trip takes about 0.1 ms, so a cycle runs every one several
    # times: the tail then has about seventy samples beyond it, not ten.
    BIJECT_REPEATS = 8

    def __init__(self, seed: int, lib, golden: dict):
        super().__init__(seed, lib)
        B, rng = lib, self.rng
        self.golden = golden
        census_ops, biject_ops, labelled_ops = [], [], []
        self.sorted_rec = {}
        for m, n in CENSUS_SHAPES:
            shape = B.BipartiteShape(m, n)
            trees = ref.spanning_trees(m, n)
            if B.spanning_tree_count(shape) != trees:
                raise RuntimeError(f"spanning_tree_count({m},{n}) disagrees with the closed form")
            for model in ("asm", "ssm"):
                for so in (False, True):
                    name = census_name(m, n, model, so)
                    census_ops.append(Op(
                        "census", name,
                        lambda shape=shape, model=model, so=so: B.census(shape, model, so),
                        self._census_check(name, trees if (model, so) == ("asm", False) else None),
                        work=ref.stable_count(m, n, so)))
            rec = ref.sorted_recurrent(m, n)
            self.sorted_rec[(m, n)] = rec
            for top, bottom in rec:
                c = B.Configuration(shape, top, bottom)
                biject_ops += [Op("biject", f"{m}x{n}:{_text(top, bottom)}",
                                  lambda c=c: self._roundtrip(c),
                                  self._roundtrip_check(c))] * self.BIJECT_REPEATS
            sorted_set = set(rec)
            for top, bottom in ref.asm_recurrent(m, n):
                if (top, bottom) not in sorted_set:
                    c = B.Configuration(shape, top, bottom)
                    labelled_ops.append(Op(
                        "labelled", f"{m}x{n}:{_text(top, bottom)}",
                        lambda c=c: B.labelled_pair_to_config(
                            "asm", B.config_to_labelled_pair("asm", c)),
                        lambda out, c=c: out == c))
        self.lib_ops = census_ops + biject_ops + labelled_ops
        self._cli(rng)
        self.shuffle()

    def _census_check(self, name, trees):
        want = self.golden[name]

        def check(row):
            ok = digest([row.total, list(row.level_counts)]) == want
            ok = ok and sum(row.level_counts) == row.total
            return ok and (trees is None or row.total == trees)
        return check

    def _roundtrip(self, c):
        B = self.lib
        pair = B.config_to_pair("asm", c)
        poly = B.config_to_polyomino(c)
        word = B.config_to_motzkin(c)
        return (pair, B.pair_to_config("asm", pair), poly, B.polyomino_to_config(poly),
                word, B.motzkin_to_config(word))

    @staticmethod
    def _roundtrip_check(c):
        m, n = c.shape.m, c.shape.n
        lvl = ref.level(c.top, c.bottom)
        k = ref.k_vector(c.top, n)

        def check(out):
            pair, back_pair, poly, back_poly, word, back_word = out
            return (back_pair == c and back_poly == c and back_word == c
                    and pair.first.rows == k and pair.second.rows == c.bottom
                    and pair.second.area - pair.first.area == lvl
                    and poly.area() - m - n == lvl
                    and word.area() == Fraction(lvl)
                    and 0 <= lvl <= m * (n - 1))
        return check

    def _cli(self, rng) -> None:
        B = self.lib
        m, n = 3, 3
        model = ("asm", "ssm")[int(rng.integers(2))]
        so = bool(rng.integers(2))
        want_census = self.golden[census_name(m, n, model, so)]
        census_argv = ["census", "--m", str(m), "--n", str(n), "--model", model] + (
            ["--sorted"] if so else [])

        def census_ok(rc, out, m=m, n=n, model=model, so=so):
            lines = out.splitlines()
            if rc != 0 or len(lines) != 2 or lines[0] != B.CSV_HEADER:
                return False
            fm, fn, fmodel, fsorted, count, poly = lines[1].split(",")
            counts = [int(term.split("*")[0]) for term in poly.split("+")]
            return ((int(fm), int(fn), fmodel, fsorted) == (m, n, model, "true" if so else "false")
                    and digest([int(count), counts]) == want_census)

        em, en = 3, 3
        emodel = ("asm", "ssm")[int(rng.integers(2))]
        want_enum = ref.sorted_recurrent(em, en, emodel)

        def enum_ok(rc, out):
            return rc == 0 and [_parse_text(x) for x in out.splitlines()] == want_enum

        bm, bn = 4, 4
        rec = self.sorted_rec[(bm, bn)]
        top, bottom = rec[int(rng.integers(len(rec)))]
        text = _text(top, bottom)
        c = B.Configuration.from_vectors(top, bottom)
        k = ref.k_vector(top, bn)
        ferrers_text = "{}|{}".format(",".join(map(str, k)), ",".join(map(str, bottom)))
        poly_text = B.config_to_polyomino(c).to_text()
        word_text = B.config_to_motzkin(c).to_text()
        self.cli_ops = [
            CliOp("census", "census", census_argv, census_ok),
            CliOp("enumerate", "enumerate",
                  ["enumerate", "--m", str(em), "--n", str(en), "--recurrent", "--sorted",
                   "--model", emodel], enum_ok),
            CliOp("biject", "to-ferrers", ["biject", "--to", "ferrers", text, "--model", "asm"],
                  lambda rc, out: rc == 0 and out == ferrers_text + "\n"),
            CliOp("biject", "to-polyomino", ["biject", "--to", "polyomino", text],
                  lambda rc, out: rc == 0 and out == poly_text + "\n"),
            CliOp("biject", "to-motzkin", ["biject", "--to", "motzkin", text],
                  lambda rc, out: rc == 0 and out == word_text + "\n"),
            CliOp("biject", "from-motzkin", ["biject", "--from", "motzkin", word_text],
                  lambda rc, out: rc == 0 and out == text + "\n"),
        ]


# -------------------------------------------------------------------- golden


class CountingOracle(B.ToppleOracle):
    """A ToppleOracle that counts its bit draws."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "draws", [0])

    def bit(self, vertex_code, firing, neighbor_code):
        self.draws[0] += 1
        return super().bit(vertex_code, firing, neighbor_code)


def _ssm_golden(m, n, grains_at, seed, p, policy):
    top, bottom = [0] * m, [0] * n
    for side, idx, g in grains_at:
        (top if side == "top" else bottom)[idx] += g
    c = B.Configuration.from_vectors(top, bottom)
    oracle = CountingOracle(seed, p)
    stable, (ft, fb) = B.stabilize_stochastic(
        c, oracle, policy, max_firings=Dynamics.firing_budget(c.total))
    return {"top": list(stable.top), "bottom": list(stable.bottom),
            "firings": [list(ft), list(fb)], "bits": oracle.draws[0]}


def golden_specs(workload: str) -> list:
    """(name, function) pairs whose outputs are pinned by digest in golden.json.

    Seeded outputs are a public contract, so they must stay bit-identical.
    """
    specs = []
    if workload == "dynamics_asm":
        for k in (2, 3, 4, 6):
            specs.append((f"simulate/asm/K{k},{k}/steps500/seed7", lambda k=k: histogram_items(
                B.simulate("asm", B.BipartiteShape(k, k), 500, 7))))
    if workload == "dynamics_ssm":
        cases = (
            ("K5,5/2000@top1/seed1/p0.5", 5, 5, (("top", 0, 2000),), 1, 0.5),
            ("K3,4/700@bottom2/seed9/p0.3", 3, 4, (("bottom", 1, 700),), 9, 0.3),
            ("K8,6/900@top3+bottom1/seed4/p0.9", 8, 6, (("top", 2, 500), ("bottom", 0, 400)), 4, 0.9),
            ("K12,7/1500@top1/seed11/p0.5", 12, 7, (("top", 0, 1500),), 11, 0.5),
        )
        for name, m, n, at, seed, p in cases:
            for pol in POLICIES:
                specs.append((f"stabilize/ssm/{name}/{pol}",
                              lambda a=(m, n, at, seed, p, pol): _ssm_golden(*a)))
        for k in (2, 3, 5):
            specs.append((f"simulate/ssm/K{k},{k}/steps300/seed7", lambda k=k: histogram_items(
                B.simulate("ssm", B.BipartiteShape(k, k), 300, 7))))
    return specs


def census_golden_specs() -> list:
    specs = []
    for m, n in CENSUS_SHAPES:
        for model in ("asm", "ssm"):
            for so in (False, True):
                def run(m=m, n=n, model=model, so=so):
                    row = B.census(B.BipartiteShape(m, n), model, so)
                    return [row.total, list(row.level_counts)]
                specs.append((census_name(m, n, model, so), run))
    return specs


def baseline_ops(workload: str) -> list:
    """The exact counts of the ROADMAP baseline table."""
    if workload == "dynamics_asm":
        c = B.Configuration.from_vectors((100_000,) + (0,) * 49, (0,) * 50)
        return [Op("baseline", "K50,50/1e5 firings == 197000",
                   lambda: B.stabilize_deterministic(c),
                   lambda out: sum(out[1][0]) + sum(out[1][1]) == 197_000)]
    if workload == "dynamics_ssm":
        return [Op("baseline", "K5,5/2000 ToppleOracle(1,0.5): 8329 firings, 45416 bits",
                   lambda: _ssm_golden(5, 5, (("top", 0, 2000),), 1, 0.5, "fifo"),
                   lambda out: sum(map(sum, out["firings"])) == 8329 and out["bits"] == 45416)]
    return []


def make(name: str, seed: int, golden: dict, lib=B) -> Workload:
    """The workload `name` for `seed`, its ops calling the package `lib`."""
    if name == "recurrence_large":
        return RecurrenceLarge(seed, lib)
    if name == "dynamics_asm":
        return DynamicsAsm(seed, lib)
    if name == "dynamics_ssm":
        return DynamicsSsm(seed, lib)
    if name == "census_biject":
        return CensusBiject(seed, lib, golden)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("recurrence_large", "dynamics_asm", "dynamics_ssm", "census_biject")
